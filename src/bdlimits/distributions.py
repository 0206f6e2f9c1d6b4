"""Finite-alphabet categorical distributions and their empirical types.

The symbols of an alphabet of size K are the integers 0..K-1. A
:class:`Categorical` is a probability vector on that alphabet, a
:class:`SymbolDataset` is an i.i.d. sample. The type of a sample is its
normalized histogram, and no K-vector is built per sample: a block of
samples whose symbols all lie below its row length n keeps the types of
its rows as one (rows, k) table of counts, k the largest symbol plus 1,
which is no larger than the block (:func:`_type_table`); any other block
keeps them sparse, as the symbols each row holds and their counts
(:func:`sparse_types`). Total variation distance is computed in its
canonical finite-alphabet form, half the L1 distance, which equals the
supremum over event sets.

Sampling inverts the cumulative mass: the symbol at a uniform is the
number of inner CDF levels at or below it. Small alphabets read 32-bit
lanes of the generator's raw words against integer levels, level by level
(:func:`draw_symbols`); large ones binary-search the float levels at
uniforms in [0, 1). Types of a block with a type table are counted, looked
up and scored on it; others are found by sorting each row. Both type
kernels give the same triples, counts and distances, bit for bit, so the
choice never moves a seeded value; nor does the walk in Python that scores
one dataset (:func:`tv_to_type`).

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
from itertools import accumulate
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

#: Alphabets up to this size draw from 32-bit lanes by counting integer
#: levels, one pass over the lanes per level; larger ones binary-search the
#: float levels at uniforms. Counting beats the search, whose branches
#: mispredict on unsorted keys, up to K of about 96 on 4e3 uniforms and
#: about 256 on 8e4. Part of the determinism contract: the two paths read
#: the stream differently, so changing it changes seeded values.
_COUNT_LEVELS_MAX_K = 64

#: A lane is a 32-bit half of a raw word, so it lies below this.
_LANES = 1 << 32

#: Raw words and lanes, little-endian, so a word's low half is its first lane.
_WORD, _LANE = np.dtype("<u8"), np.dtype("<u4")


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

    @cached_property
    def _lane_levels(self) -> tuple[np.ndarray, ...]:
        """The inner CDF levels c as lane levels L = ceil(c * 2^32), exact
        integers, each a read-only 0-d uint32 array, which a ufunc reads
        faster than a scalar. The levels from the first one at or above 2^32
        on, +inf included, are dropped: no lane reaches them, and they are
        all trailing, since the levels never decrease."""
        levels = []
        for c in self._levels.tolist():
            if not c < 1.0 or (level := math.ceil(c * _LANES)) >= _LANES:
                break
            levels.append(np.array(level, dtype=np.uint32))
            levels[-1].setflags(write=False)
        return tuple(levels)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Symbols at cumulative-mass levels u in [0, 1), by binary search of
        the float CDF: the symbol at u is the number of inner CDF levels at
        or below u, zero masses and u on a level included. The levels from
        the last positive mass on are +inf, so the symbol is at most the
        last one with mass, even where the masses' rounded sum falls short
        of 1. :func:`draw_symbols` inverts uniforms with it above
        ``_COUNT_LEVELS_MAX_K`` symbols.
        """
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
    """Draw i.i.d. symbols from p, a count or a shape ``n`` of them, as int64.

    Up to ``_COUNT_LEVELS_MAX_K`` symbols, the i-th symbol in row-major
    order reads lane i of the generator's raw words (:func:`_lanes`) and is
    the number of p's lane levels at or below it: each symbol's sampled mass
    is within 2^-32 of its mass under the float CDF, and a massless symbol
    is never drawn. Larger alphabets invert ``rng.random(n)`` with
    :meth:`Categorical.quantile`.
    """
    if p.alphabet_size > _COUNT_LEVELS_MAX_K:
        return p.quantile(rng.random(n))
    shape = (n,) if isinstance(n, (int, np.integer)) else tuple(n)
    count = np.empty(shape, dtype=np.uint8)
    _count_lanes(_lanes(rng, count.size).reshape(shape), p._lane_levels, count)
    return count.astype(np.int64)


def draw_grouped(
    laws: Sequence[Categorical], counts: Sequence[int], n: int, rng: np.random.Generator
) -> np.ndarray:
    """A (sum(counts), n) block whose rows come group by group: the first
    counts[0] are i.i.d. samples from laws[0], the next counts[1] from
    laws[1], and so on.

    The laws share one alphabet, and the block inverts one buffer, drawn as
    :func:`draw_symbols` draws a (rows, n) block: lanes up to
    ``_COUNT_LEVELS_MAX_K`` symbols, each group's rows counted against its
    own law's levels, and uniforms above, whose symbols each group writes
    over its own rows. No mask and no rows x K table is built.
    """
    ends = list(accumulate(counts))
    groups = [
        (law, slice(end - count, end)) for law, count, end in zip(laws, counts, ends) if count
    ]
    if laws[0].alphabet_size > _COUNT_LEVELS_MAX_K:
        u = rng.random((ends[-1], n))
        symbols = u.view(np.int64)
        for law, rows in groups:
            symbols[rows] = law.quantile(u[rows])
        return symbols
    count = np.empty((ends[-1], n), dtype=np.uint8)
    lanes = _lanes(rng, count.size).reshape(count.shape)
    for law, rows in groups:
        _count_lanes(lanes[rows], law._lane_levels, count[rows])
    return count.astype(np.int64)


def _lanes(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uint32 lanes from ceil(size / 2) raw 64-bit words of ``rng``'s
    bit generator: each word's low half, then its high half, on any platform."""
    words = rng.bit_generator.random_raw((size + 1) // 2)
    return words.astype(_WORD, copy=False).view(_LANE)[:size]


def _count_lanes(lanes: np.ndarray, levels: Sequence[np.ndarray], count: np.ndarray) -> None:
    """Write into ``count``, a contiguous uint8 array of ``lanes``' shape, how
    many of ``levels`` lie at or below each lane.

    uint8 holds the at most ``_COUNT_LEVELS_MAX_K - 1`` levels; the first
    level's hits are written as the count itself, and each later level's
    are added to it.
    """
    if not levels:
        count[...] = 0
        return
    np.greater_equal(lanes, levels[0], out=count.view(bool))
    hit = np.empty(lanes.shape, dtype=bool)
    hit_bytes = hit.view(np.uint8)
    for level in levels[1:]:
        np.greater_equal(lanes, level, out=hit)
        np.add(count, hit_bytes, out=count)


#: A reference law per row of a symbol block: (row, symbol) index arrays,
#: which broadcast together, to the mass that row's reference puts on each
#: symbol, in an array that broadcasts to their shape. Symbols lie in
#: 0..k-1, k the alphabet size. A reference may be asked about symbols a
#: row never observed, and must return a finite mass >= 0 for them.
Reference = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _type_table(symbols: np.ndarray, k: int | None = None) -> np.ndarray | None:
    """How often each row of a (rows, n) block holds each symbol below k, as
    a (rows, k) int64 table; None when k > n, where the table would be
    larger than the block.

    k defaults to the largest symbol in the block plus 1. On a large
    alphabet the first symbol alone usually shows k > n, which spares the
    sort path a pass over the block. The table is one ``bincount`` of the
    keys row * k + symbol.
    """
    rows, n = symbols.shape
    if k is None:
        if symbols[0, 0] >= n:
            return None
        k = int(symbols.max()) + 1
    if k > n:
        return None
    keys = np.arange(0, rows * k, k).repeat(n)
    keys += symbols.ravel()
    return np.bincount(keys, minlength=rows * k).reshape(rows, k)


def sparse_types(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The types of the rows of a (rows, n) symbol block, as sparse triples.

    Returns (row, symbol, count) arrays listing each symbol a row observed
    once, sorted by row and then by symbol. When k, the largest symbol in
    the block plus 1, is at most n, the triples are the nonzero cells of
    the block's type table (:func:`_type_table`), which is no larger than
    the block. Otherwise each row is sorted and the runs of equal symbols
    are counted (:func:`_sorted_types`). Both give the same triples with
    the same dtypes, and no histogram over the whole alphabet is built, so
    memory stays O(rows * n) on any alphabet.
    """
    table = _type_table(symbols)
    if table is None:
        return _sorted_types(symbols)
    row, sym = np.nonzero(table)  # in row-major order
    return row, sym.astype(symbols.dtype, copy=False), table[row, sym]


def _sorted_types(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sparse_types` by sorting each row and counting the runs of
    equal symbols in one pass over the flattened sorted block."""
    rows, n = symbols.shape
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
    """Lookup (row, symbol) -> how often that row of a (rows, n) block holds it.

    The row and symbol index arrays broadcast together, and symbols must lie
    in 0..k-1; a symbol the row never observed counts 0. Up to k = n the
    lookup gathers from the block's (rows, k) type table
    (:func:`_type_table`); larger alphabets binary-search the sorted keys
    row * k + symbol of its sorted types (:func:`_sorted_types`). Outside
    the alphabet the answer is undefined and unchecked: the table raises
    ``IndexError``, and the search answers with a later row's count or 0,
    since the key of (row 0, symbol k) is that of (row 1, symbol 0).
    """
    table = _type_table(symbols, k)
    if table is not None:
        return lambda rows, syms: table[rows, syms]
    row, sym, counts = _sorted_types(symbols)
    keys = row * k + sym  # ascending, since the triples are sorted by (row, symbol)

    def at(rows: np.ndarray, syms: np.ndarray) -> np.ndarray:
        query = rows * k + syms
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[pos] == query, counts[pos], 0)

    return at


def type_distances(symbols: np.ndarray, reference: Reference) -> np.ndarray:
    """TV distance between each row's type and that row's reference law.

    Uses sum_x |S(x) - p(x)| = sum_observed (|c_x/N - p(x)| - p(x)) + 1,
    which is exact for any reference p summing to 1. A block whose symbols
    all lie below its row length scores every cell of its type table
    (:func:`_type_table`), symbol by symbol: a symbol a row never observed
    adds |0/N - p| - p, which is +0.0 for any finite p >= 0, so each row's
    sum is the same, bit for bit, as over its observed symbols alone.
    Other blocks touch only the symbols a row observed, so huge alphabets
    need no dense histogram. Either way each row's terms are added one at
    a time in symbol order. No term is -0.0 (x - x is +0.0), so a sum that
    starts from +0.0 and one that starts from its first term agree.
    """
    rows, n = symbols.shape
    table = _type_table(symbols)
    if table is None:
        row, sym, counts = _sorted_types(symbols)
        p_obs = reference(row, sym)
        terms = np.abs(counts / n - p_obs) - p_obs
        return 0.5 * (np.bincount(row, weights=terms, minlength=rows) + 1.0)
    p = reference(np.arange(rows), np.arange(table.shape[1])[:, None])
    # the same terms, symbol by symbol as a (k, rows) array, written in
    # place so that no temporary of the table's size is held beside it
    terms = np.divide(table.T, n, order="C")
    terms -= p
    np.abs(terms, out=terms)
    terms -= p
    # numpy adds a (k, rows) array along its slow axis one symbol after
    # another; a single row has no slow axis and would be summed pairwise
    sums = np.add.reduce(terms, axis=0) if rows > 1 else np.cumsum(terms)[-1:]
    return 0.5 * (sums + 1.0)


def _row_distance(symbols: np.ndarray, mass: Callable[[int], float]) -> float:
    """:func:`type_distances` of one row, bit for bit, by a walk in Python.

    ``mass(s)`` is the reference's mass at an observed symbol s, a Python
    float. Each run of c equal symbols adds |c/N - p| - p to +0.0 in
    ascending symbol order, and the result is 0.5 * (sum + 1.0): the float
    operations of the kernel's sort path, in its order, and of its table
    path but for the +0.0 terms it adds for unobserved symbols. The walk
    pays per run, the kernel a fixed set of numpy calls: on a row of 20
    distinct symbols the walk takes half the kernel's time, and on rows of
    more than about 50 distinct symbols the kernel would be faster.
    """
    ordered = sorted(symbols.tolist())
    n = len(ordered)
    total, start, run = 0.0, 0, ordered[0]
    # a -1 after the last symbol ends the last run, as no symbol is negative
    for end, s in enumerate(ordered[1:] + [-1], 1):
        if s != run:
            q = mass(run)
            total += abs((end - start) / n - q) - q
            start, run = end, s
    return 0.5 * (total + 1.0)


def tv_to_type(p: Categorical, d: SymbolDataset) -> float:
    """TV distance between p and the type of d, touching only observed symbols.

    Equal, bit for bit, to the one-row case of :func:`type_distances`, so
    per-dataset and block computations agree, but computed by a walk in
    Python (:func:`_row_distance`) that a property test holds to it.
    """
    same_alphabet(p, d)
    return _row_distance(d.symbols, p.probs.item)


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

