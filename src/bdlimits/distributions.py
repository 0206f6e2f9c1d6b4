"""Finite-alphabet categorical distributions and their empirical types.

The symbols of an alphabet of size K are the integers 0..K-1. A
:class:`Categorical` is a probability vector on that alphabet, a
:class:`SymbolDataset` is an i.i.d. sample. The type of a sample, its
normalized histogram, is kept sparse as the symbols the sample holds and
their counts (:func:`sparse_types`), so no K-vector is built per sample.
Total variation distance is computed in its canonical finite-alphabet form,
half the L1 distance, which equals the supremum over event sets.

Sampling inverts the cumulative mass at uniforms in [0, 1): the symbol at
u is the number of inner CDF levels at or below u. Small alphabets count
those levels, level by level; large ones binary-search them. Types of a
block whose symbols are all below its row length are read off the block's
histogram; others are found by sorting each row. Each pair of kernels
gives the same symbols and the same triples, so the choice never moves a
seeded value.

No function here takes a seed: sampling takes a numpy ``Generator``, which
the estimators seed. Everything here is a pure function of its inputs
(sampling is pure given the generator) and all values are immutable after
construction, so they can be shared freely across concurrent tasks. Two
caches serve the exact oracle, and neither changes a value: a law's log
masses (``Categorical._log_masses``), computed once per law from its
immutable ``probs``, and one module-level table of log factorials
(:func:`log_factorials`), which is extended by replacing it with a longer
copy, never written in place. Both are read-only, and two tasks that fill
either at once compute the same entries, so whichever copy is kept serves
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .checks import at_least, is_number, json_fields, within
from .errors import AlphabetMismatchError, ParameterError, ResourceCapError

#: Probability vectors must sum to 1 within this tolerance to be accepted.
PROB_TOLERANCE = 1e-12

#: Default ceiling on the C(n+K-1, K-1) types the exact product oracle sums over.
ENUMERATION_CAP = 10**7

#: Children the exact oracle's type enumeration builds per step; bounds its memory.
_TYPE_CHUNK = 1 << 14

#: The exact oracle's stand-in for log 0. A type that a law gives positive
#: mass has a log mass above -745 n under it, so a term stays exact as with
#: -inf: 1 - e^(lo - hi) is 1 when only the other law reaches the type, and
#: e^hi is 0 when neither does. But 0 draws on a massless symbol add
#: 0 * this = -0.0, not NaN, and n times it stays finite.
_NO_MASS_LOG = -1e200

#: Alphabets up to this size invert the CDF by counting levels, one pass over
#: the uniforms per level; larger ones binary-search. Counting beats the
#: search, whose branches mispredict on unsorted keys, up to K of about 96
#: on 4e3 uniforms and about 256 on 8e4.
_COUNT_LEVELS_MAX_K = 64

#: Labeled blocks up to this size compare each uniform with its row's level,
#: one (rows, 1) column per level. A column broadcast along the rows costs
#: several scalar levels, so larger alphabets gather each law's rows and
#: invert them with :meth:`Categorical.quantile`; the crossover is K of 6 to 10.
_ROW_LEVELS_MAX_K = 6


@dataclass(frozen=True)
class Categorical:
    """Probability distribution on the alphabet {0, ..., K-1}.

    The constructor rejects negative entries and vectors whose mass deviates
    from 1 by more than ``PROB_TOLERANCE``; deviations below the tolerance
    are renormalized away.

    ``probs`` is read-only. A constant vector, such as :meth:`uniform`'s, is
    kept as its one value broadcast over the alphabet, a zero-stride view
    of O(1) memory, so callers must not assume ``probs`` is contiguous or
    writeable.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("probability vector must be 1-D with K >= 1")
        # NaN propagates through min and max and fails both comparisons; only
        # a constant vector has a zero stride, and its one value is both
        lo, hi = (arr[0], arr[0]) if arr.strides == (0,) else (arr.min(), arr.max())
        if not (lo >= 0.0 and hi < np.inf):
            raise ParameterError("probabilities must be finite and nonnegative")
        # pairwise over the K entries, a broadcast view included, so a
        # constant law sums to the same bits as its dense spelling
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise ParameterError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_TOLERANCE}"
            )
        # + 0.0 turns -0.0 into 0.0, which it equals, so equal laws hash equal
        if lo == hi:
            arr = np.broadcast_to(lo / total + 0.0, arr.shape)
        else:
            arr = arr / total
            arr += 0.0
            arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def _levels(self) -> np.ndarray:
        levels = np.cumsum(self.probs[:-1])
        # from the last positive mass on, the levels are +inf: a rounded
        # cumsum can end one ulp below 1, where u < 1 still reaches it
        if self.probs[-1] == 0:
            levels[np.flatnonzero(self.probs)[-1] :] = np.inf
        levels.setflags(write=False)
        return levels

    @cached_property
    def _log_masses(self) -> np.ndarray:
        """The log of each mass, log 0 read as ``_NO_MASS_LOG``; read-only.
        A constant law keeps its one value broadcast, as ``probs`` does."""
        head = self.probs[:1] if self.probs.strides == (0,) else self.probs
        with np.errstate(divide="ignore"):
            logs = np.maximum(np.log(head), _NO_MASS_LOG)
        return np.broadcast_to(logs, self.probs.shape)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Symbols at cumulative-mass levels u in [0, 1), by inverting the CDF.

        Consumes ``u``, a C-contiguous float64 array: the caller must not
        use it afterwards. The symbol at u is the number of inner CDF
        levels at or below u, zero masses and u on a level included. The
        levels from the last positive mass on are +inf, so the symbol is at
        most the last one with mass, even where the masses' rounded sum
        falls short of 1. Alphabets of up to
        ``_COUNT_LEVELS_MAX_K`` symbols count those levels in one byte per
        uniform and write the symbols over u's memory; larger ones
        binary-search them. Either way a block draw holds no more than two
        8-byte arrays, the uniforms and the symbols.
        """
        if self.alphabet_size <= _COUNT_LEVELS_MAX_K:
            return _count_levels(u, self._levels)
        return np.searchsorted(self._levels, u, side="right")

    @classmethod
    def uniform(cls, k: int) -> "Categorical":
        at_least("alphabet size", k)
        return cls(np.broadcast_to(1.0 / k, (k,)))

    @classmethod
    def point_mass(cls, symbol: int, k: int) -> "Categorical":
        if not 0 <= symbol < k:
            raise ParameterError(f"symbol {symbol} outside alphabet of size {k}")
        probs = np.zeros(k)
        probs[symbol] = 1.0
        return cls(probs)

    def to_jsonable(self) -> list[float]:
        """JSON form: a plain array of probabilities."""
        return self.probs.tolist()

    @classmethod
    def from_jsonable(cls, data: Sequence[float]) -> "Categorical":
        if not isinstance(data, (list, tuple)) or not all(map(is_number, data)):
            raise ParameterError(f"must be an array of numbers, got {data!r}")
        return cls(np.asarray(data, dtype=float))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        if self.probs.shape != other.probs.shape:
            return False
        # two broadcast laws compare by their one value; a dense law may
        # round to a constant vector, so a mixed pair compares entrywise
        if self.probs.strides == other.probs.strides == (0,):
            return bool(self.probs[0] == other.probs[0])
        return bool(np.array_equal(self.probs, other.probs))

    def __hash__(self) -> int:
        # O(1), and equal laws agree on all three
        return hash((self.probs.size, float(self.probs[0]), float(self.probs[-1])))


@dataclass(frozen=True, eq=False)
class SymbolDataset:
    """An i.i.d. sample of symbols from a fixed alphabet.

    The symbols are kept as a read-only int64 view; a caller's int64 array
    stays writeable. Construction checks that they are integers in
    0..alphabet_size-1. :meth:`rows` checks a whole (rows, n) block once
    and yields its rows as datasets that share the checked block. Datasets
    compare and hash by identity, as arrays admit no truth-valued ``==``.
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("dataset must contain at least one symbol")
        object.__setattr__(self, "symbols", _checked_symbols(arr, self.alphabet_size))

    @classmethod
    def rows(cls, block: np.ndarray, alphabet_size: int) -> Iterator[SymbolDataset]:
        """The rows of a (rows, n) block as datasets, in row order.

        The block is checked once, as one dataset would be; each row is a
        read-only view of the checked block, built without a check of its own.
        """
        arr = np.asarray(block)
        if arr.ndim != 2 or arr.size < 1:
            raise ParameterError("dataset must contain at least one symbol")
        arr = _checked_symbols(arr, alphabet_size)

        def dataset(row: np.ndarray) -> SymbolDataset:
            d = object.__new__(cls)
            object.__setattr__(d, "symbols", row)
            object.__setattr__(d, "alphabet_size", alphabet_size)
            return d

        return map(dataset, arr)

    def __len__(self) -> int:
        return int(self.symbols.size)


def _checked_symbols(arr: np.ndarray, alphabet_size: int) -> np.ndarray:
    """``arr`` as a read-only int64 view, once its symbols are checked to be
    integers in 0..alphabet_size-1; raises :class:`ParameterError` otherwise."""
    if arr.dtype.kind not in "iu":  # a cast would truncate floats and count bools
        raise ParameterError(f"dataset symbols must be integers, not {arr.dtype}")
    at_least("alphabet size", alphabet_size)
    # a view, so freezing it leaves a caller's int64 array writeable; the
    # range is checked after the cast, where a uint64 symbol of 2^63 or more
    # has wrapped below 0
    arr = arr.astype(np.int64, copy=False).view()
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise ParameterError("dataset contains symbols outside the alphabet")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DistributionPair:
    """A clean distribution, a backdoor distribution, and the problem knobs.

    ``gamma`` is the poisoning rate and ``beta`` the closeness slack: the
    pair belongs to the admissible set when TV(p0, pb) >= 1 - beta. Pairs
    outside that set are still constructible (adversarial constructions
    need them); use :meth:`is_admissible` to test membership.
    """

    p0: Categorical
    pb: Categorical
    gamma: float
    beta: float

    def __post_init__(self) -> None:
        same_alphabet(self.p0, self.pb)
        object.__setattr__(self, "gamma", within("gamma", self.gamma, 0.0, 1.0))
        object.__setattr__(self, "beta", within("beta", self.beta, 0.0, 1.0))

    @property
    def alphabet_size(self) -> int:
        return self.p0.alphabet_size

    @cached_property
    def mixture(self) -> Categorical:
        """The contaminated distribution gamma*pb + (1-gamma)*p0, built once per pair.

        The endpoints and a law mixed with itself are exact: the mixture is
        p0 itself at gamma = 0 or when pb equals p0, and pb itself at
        gamma = 1, each with no K-vector of its own.
        """
        if self.gamma == 0.0 or self.pb == self.p0:
            return self.p0
        if self.gamma == 1.0:
            return self.pb
        return Categorical(self.gamma * self.pb.probs + (1.0 - self.gamma) * self.p0.probs)

    @cached_property
    def classes(self) -> tuple[Categorical, Categorical]:
        """p0 and the mixture on the pair's symbol classes, built once per pair.

        Symbols with identical (p0(x), mixture(x)) masses form a class. Both
        laws weigh a sample by its class counts alone, so the class counts
        are sufficient and the exact oracle sums over their types. A class
        of m symbols gets m times the shared mass, one rounding where a
        running sum of m masses would drift, and a class that both laws give
        zero mass is dropped. A pair with no repeated and no massless symbol
        keeps its two laws, in symbol order.
        """
        # one complex number per symbol, (p0, mixture) exactly; np.unique on
        # them is some 15x faster than on the rows of a (K, 2) array at K = 1e6
        shared, size = np.unique(self.p0.probs + 1j * self.mixture.probs, return_counts=True)
        reached = shared != 0
        if reached.sum() == self.alphabet_size:
            return self.p0, self.mixture
        shared, size = shared[reached], size[reached]
        return Categorical(shared.real * size), Categorical(shared.imag * size)

    def is_admissible(self) -> bool:
        """Whether TV(p0, pb) >= 1 - beta."""
        return tv_distance(self.p0, self.pb) >= 1.0 - self.beta

    def to_jsonable(self) -> dict:
        return {
            "p0": self.p0.to_jsonable(),
            "pb": self.pb.to_jsonable(),
            "gamma": float(self.gamma),
            "beta": float(self.beta),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "DistributionPair":
        to_law = Categorical.from_jsonable
        return cls(*json_fields(data, "pair file", p0=to_law, pb=to_law, gamma=_number, beta=_number))


def _number(value: object) -> float:
    if not is_number(value):
        raise ParameterError(f"must be a number, got {value!r}")
    return float(value)  # type: ignore[arg-type]


def same_alphabet(a, b) -> int:
    """The alphabet size that ``a`` and ``b`` share, each a law, a dataset
    or a pair; raises :class:`AlphabetMismatchError` when they differ."""
    if a.alphabet_size != b.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {a.alphabet_size} vs {b.alphabet_size}"
        )
    return a.alphabet_size


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance, half the L1 distance between mass vectors."""
    same_alphabet(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def mix(pair: DistributionPair) -> Categorical:
    """The contaminated distribution gamma*pb + (1-gamma)*p0: a public alias
    of ``pair.mixture``, which package code reads directly."""
    return pair.mixture


def draw_symbols(
    p: Categorical, n: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. symbols from p by inverting the cumulative mass.

    ``n`` is a count or a shape; a (rows, n) shape draws row after row, so
    it consumes the stream exactly as ``rows`` draws of n symbols would.
    """
    return p.quantile(rng.random(n))


def draw_labeled(
    laws: Sequence[Categorical], labels: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """A (rows, n) block whose row r is an i.i.d. sample from ``laws[labels[r]]``.

    The labeled twin of :func:`draw_symbols`: the laws share one alphabet,
    and the block inverts one (rows, n) array of uniforms u. Up to
    ``_ROW_LEVELS_MAX_K`` symbols each uniform is compared with its row's
    level, one (rows, 1) column per level, and the symbols are written over
    u; no mask and no rows x K table is built. Larger alphabets gather each
    law's rows and invert them with :meth:`Categorical.quantile`. Both give
    the same symbols.
    """
    u = rng.random((labels.size, n))
    if laws[0].alphabet_size <= _ROW_LEVELS_MAX_K:
        levels = np.array([law._levels for law in laws]).T
        return _count_levels(u, (level[labels, None] for level in levels))
    symbols = np.empty(u.shape, dtype=np.int64)
    for label, law in enumerate(laws):
        labeled = labels == label
        symbols[labeled] = law.quantile(u[labeled])
    return symbols


def _count_levels(u: np.ndarray, levels) -> np.ndarray:
    """How many of ``levels`` lie at or below each u, written over u as int64.

    Each level is a scalar or an array that broadcasts against u. Counts
    are kept in uint8, which holds the at most ``_COUNT_LEVELS_MAX_K - 1``
    levels, and widened into u's memory at the end.
    """
    count = np.zeros(u.shape, dtype=np.uint8)
    hit = np.empty(u.shape, dtype=bool)
    for level in levels:
        np.greater_equal(u, level, out=hit)
        np.add(count, hit.view(np.uint8), out=count)
    symbols = u.view(np.int64)
    symbols[...] = count
    return symbols


#: A reference law per row of a symbol block: (row, symbol) index arrays to
#: the mass that row's reference puts on each symbol.
Reference = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sparse_types(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The types of the rows of a (rows, n) symbol block, as sparse triples.

    Returns (row, symbol, count) arrays listing each symbol a row observed
    once, sorted by row and then by symbol. When k, the largest symbol in
    the block plus 1, is at most n, the rows x k histogram is no larger than
    the block: it is counted with one ``bincount`` and the triples are its
    nonzero cells. Otherwise each row is sorted and the runs of equal
    symbols are counted in one pass over the flattened sorted block, with
    a run ending at every row start. Both give the same triples with the
    same dtypes, and no histogram over the whole alphabet is built, so
    memory stays O(rows * n) on any alphabet.
    """
    rows, n = symbols.shape
    # on a large alphabet the first symbol alone usually shows k > n, which
    # spares the sort path a pass over the block
    if symbols[0, 0] < n and (k := int(symbols.max()) + 1) <= n:
        counts = np.bincount((np.arange(0, rows * k, k)[:, None] + symbols).ravel())
        cells = np.flatnonzero(counts)
        row = cells // k
        sym = (cells - row * k).astype(symbols.dtype, copy=False)
        return row, sym, counts[cells]
    ordered = np.sort(symbols, axis=1).ravel()
    # a run starts where the flat sorted block changes value or a row
    # starts; the row starts include the sentinel rows * n, where the last
    # run ends, and keep a run from merging across two rows
    first = np.empty(rows * n + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
    first[::n] = True
    edges = first.nonzero()[0]
    starts = edges[:-1]
    return starts // n, ordered[starts], edges[1:] - starts


def type_counts(
    symbols: np.ndarray, k: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Lookup (row, symbol) -> how often that row of a (rows, n) block holds it."""
    row, sym, counts = sparse_types(symbols)
    keys = row * k + sym  # ascending, since sparse_types sorts by (row, symbol)

    def at(rows: np.ndarray, syms: np.ndarray) -> np.ndarray:
        query = rows * k + syms
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[pos] == query, counts[pos], 0)

    return at


def type_distances(symbols: np.ndarray, reference: Reference) -> np.ndarray:
    """TV distance between each row's type and that row's reference law.

    Uses sum_x |S(x) - p(x)| = sum_observed (|c_x/N - p(x)| - p(x)) + 1,
    which is exact for any reference p summing to 1 and touches only the
    symbols a row observed, so huge alphabets need no dense histogram.
    """
    rows, n = symbols.shape
    row, sym, counts = sparse_types(symbols)
    p_obs = reference(row, sym)
    terms = np.abs(counts / n - p_obs) - p_obs
    return 0.5 * (np.bincount(row, weights=terms, minlength=rows) + 1.0)


def tv_to_type(p: Categorical, d: SymbolDataset) -> float:
    """TV distance between p and the type of d, touching only observed symbols.

    The one-row case of :func:`type_distances`, so per-dataset and block
    computations agree bit for bit.
    """
    same_alphabet(p, d)
    return float(type_distances(d.symbols[None, :], lambda row, sym: p.probs[sym])[0])


#: log c! for c = 0, 1, ...: one ``math.lgamma`` per entry, grown on demand
#: by :func:`log_factorials` up to the largest count asked so far
_LOG_FACTORIAL = np.zeros(0)


def log_factorials(n: int) -> np.ndarray:
    """The table log c! for c = 0..n, one ``math.lgamma`` per entry.

    A read-only slice of one module-level table, which is extended to n
    on first need and then shared by every later call; 8 bytes per count.
    """
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if table.size <= n:
        more = np.fromiter(map(math.lgamma, range(table.size + 1, n + 2)), float)
        table = np.concatenate((table, more))
        table.setflags(write=False)
        _LOG_FACTORIAL = table
    return table[: n + 1]


def within_enumeration_cap(n: int, k: int, symbols: str = "") -> None:
    """Raise :class:`ResourceCapError` when the C(n+k-1, k-1) types of n >= 1
    draws on k symbols, named ``symbols`` if given, exceed ``ENUMERATION_CAP``."""
    at_least("n", n)
    types = math.comb(n + k - 1, k - 1)
    if types > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{types} types of {n} draws on {symbols or f'{k} symbols'} "
            f"exceed the enumeration cap {ENUMERATION_CAP}"
        )


def product_tv_exact(p0: Categorical, p1: Categorical, n: int) -> float:
    """Exact TV distance between the n-fold product distributions.

    The type c (count vector) of an outcome is sufficient, so the distance
    is (1/2) sum_c multinomial(n; c) |p0^c - p1^c| over the C(n+K-1, K-1)
    types. A partial type is held as its log weight, log p0 mass, log p1
    mass, remaining draws r and first open symbol f, and is expanded in two
    fans, each written once (``close`` and ``open_``):

    - the close fan puts all r draws on the last two symbols, c = 1..r and
      then 0 on symbol K-2 and r - c on K-1 (for r = 0, the one type with
      no draws on either). All its children are complete types, so the fan
      is summed at once; it is the only place a complete type is summed;
    - the open fan puts c = 1..r draws on one symbol s in f..K-3, jumping
      over the symbols a type leaves at zero count, and pushes every child
      with f = s + 1, c = r included, unless both laws give it no mass.

    The root (r = n, f = 0, log weight log n!, both log masses 0) is
    expanded first, from scalars: its close fan is c = 1..n then 0 from one
    ``arange``, its open fan (s, c - 1) in row-major order from one
    ``divmod``. The stack then holds only pushed open-fan chunks. A step of
    the root or of a popped chunk builds at most ``_TYPE_CHUNK`` children,
    close fans' before open fans', and the chunk a step pushes is expanded
    depth first before the next step, so at most min(n, K - 2) chunks of
    at most ``_TYPE_CHUNK`` partial types are held at once. A chunk at
    depth d has f >= d, so from depth K - 2 on it builds no open fan.

    The sum runs over the symbols given;
    :func:`~bdlimits.bounds.exact_type3_risk` passes the pair's symbol
    classes, so a two-class pair is the root's close fan of n + 1 types and
    nothing else. Raises :class:`ResourceCapError` above ``ENUMERATION_CAP``
    types (:func:`within_enumeration_cap`).

    The set-up is paid once: each law's log masses are computed on its
    first call and the log-factorial table is shared
    (:func:`log_factorials`), so a later call on the same laws, at any n
    up to the largest seen, starts summing at once.
    """
    k = same_alphabet(p0, p1)
    within_enumeration_cap(n, k)
    if k == 1:
        # both laws are the point mass on the one symbol
        return 0.0
    log0, log1 = p0._log_masses, p1._log_masses
    near0, last0 = log0[k - 2 :].tolist()
    near1, last1 = log1[k - 2 :].tolist()
    log_factorial = log_factorials(n)
    sums: list[float] = []
    # entries: a chunk of partial types, its depth and the first child still to build
    stack: list[tuple] = []

    def close(lw, l0, l1, c, r) -> None:
        # the complete types with c draws on symbol K-2 and r on K-1
        sums.append(
            _type_terms(
                lw - log_factorial[c] - log_factorial[r],
                l0 + c * near0 + r * last0,
                l1 + c * near1 + r * last1,
            )
        )

    def open_(lw, l0, l1, r, sym, c, depth) -> None:
        # the partial types with c draws on symbol sym and r - c left
        l0 = l0 + c * log0[sym]
        l1 = l1 + c * log1[sym]
        # a type massless under both laws adds only zero terms, as do its children
        more = np.maximum(l0, l1) > _NO_MASS_LOG
        if more.any():
            lw = lw - log_factorial[c]
            stack.append((lw[more], l0[more], l1[more], (r - c)[more], sym[more] + 1, depth, 0))

    def expand_pushed() -> None:
        while stack:
            lw, l0, l1, rem, first, depth, start = stack.pop()
            close_ends = (rem + 1).cumsum()
            closed = total = int(close_ends[-1])
            if depth < k - 2:  # f >= depth, and only f < K-2 can open
                fan = (k - 2 - first) * rem
                open_ends = fan.cumsum() + closed
                total = int(open_ends[-1])
            stop = min(start + _TYPE_CHUNK, total)
            if stop < total:
                stack.append((lw, l0, l1, rem, first, depth, stop))
            if start < closed:
                child = np.arange(start, min(stop, closed))
                parent = close_ends.searchsorted(child, side="right")
                r = rem[parent]
                # child j of a close fan puts c = (j + 1) mod (r + 1) draws on K-2
                c = (child + 1 - close_ends[parent]) % (r + 1)
                close(lw[parent], l0[parent], l1[parent], c, r - c)
            if stop > closed:
                child = np.arange(max(start, closed), stop)
                parent = open_ends.searchsorted(child, side="right")
                r = rem[parent]
                # the fan of a partial type runs over (s - f, c - 1) in row-major order
                sym, c = np.divmod(child - (open_ends - fan)[parent], r)
                sym += first[parent]
                open_(lw[parent], l0[parent], l1[parent], r, sym, c + 1, depth + 1)

    root = log_factorial[n]  # the root's log weight; its log masses are 0
    closed, total = n + 1, n + 1 + (k - 2) * n
    for start in range(0, total, _TYPE_CHUNK):
        stop = min(start + _TYPE_CHUNK, total)
        if start < closed:
            # c = 1..n, then 0; two-class risks are pinned to this order
            c = np.arange(start + 1, min(stop, closed) + 1)
            if stop >= closed:
                c[-1] = 0
            close(root, 0.0, 0.0, c, n - c)
        if stop > closed:
            # (s, c - 1) in row-major order
            sym, c = np.divmod(np.arange(max(start, closed) - closed, stop - closed), n)
            open_(root, 0.0, 0.0, n, sym, c + 1, 1)
        expand_pushed()
    # the terms are nonnegative; rounding can lift their sum past 1 at large n
    return min(0.5 * math.fsum(sums), 1.0)


def _type_terms(lw: np.ndarray, l0: np.ndarray, l1: np.ndarray) -> float:
    """Sum of e^lw |e^l0 - e^l1| over complete types, as e^(lw+hi) (1 - e^(lo-hi))."""
    hi, lo = np.maximum(l0, l1), np.minimum(l0, l1)
    # negating the sum rather than each term gives the same bits, one pass fewer
    # np.add.reduce is ndarray.sum without its Python wrapper, the same pairwise sum
    return -float(np.add.reduce(np.exp(lw + hi) * np.expm1(lo - hi)))

