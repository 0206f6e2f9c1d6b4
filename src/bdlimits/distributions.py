"""Finite-alphabet categorical distributions and their empirical types.

The symbols of an alphabet of size K are the integers 0..K-1. A
:class:`Categorical` is a probability vector on that alphabet, a
:class:`SymbolDataset` is an i.i.d. sample. The type of a sample, its
normalized histogram, is kept sparse as the symbols the sample holds and
their counts (:func:`sparse_types`), so no K-vector is built per sample.
Total variation distance is computed in its canonical finite-alphabet form,
half the L1 distance, which equals the supremum over event sets.

Everything here is a pure function of its inputs (sampling is pure given
the seed) and all values are immutable after construction, so they can be
shared freely across concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import AlphabetMismatchError, ParameterError, ResourceCapError
from .rng import Domain, count_errors, substream

#: Probability vectors must sum to 1 within this tolerance to be accepted.
PROB_TOLERANCE = 1e-12

#: Default ceiling on the C(n+K-1, K-1) types the exact product oracle sums over.
ENUMERATION_CAP = 10**7

#: Children the exact oracle's type enumeration builds per step; bounds its memory.
_TYPE_CHUNK = 1 << 14


@dataclass(frozen=True)
class Categorical:
    """Probability distribution on the alphabet {0, ..., K-1}.

    The constructor rejects negative entries and vectors whose mass deviates
    from 1 by more than ``PROB_TOLERANCE``; deviations below the tolerance
    are renormalized away.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("probability vector must be 1-D with K >= 1")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ParameterError("probabilities must be finite and nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise ParameterError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_TOLERANCE}"
            )
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        cdf.setflags(write=False)
        return cdf

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Symbols at cumulative-mass levels u in [0, 1), by inverting the CDF."""
        idx = np.searchsorted(self._cdf, u, side="right")
        return np.minimum(idx, self.alphabet_size - 1).astype(np.int64)

    @classmethod
    def uniform(cls, k: int) -> "Categorical":
        if k < 1:
            raise ParameterError("alphabet size must be >= 1")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, symbol: int, k: int) -> "Categorical":
        if not 0 <= symbol < k:
            raise ParameterError(f"symbol {symbol} outside alphabet of size {k}")
        probs = np.zeros(k)
        probs[symbol] = 1.0
        return cls(probs)

    def to_jsonable(self) -> list[float]:
        """JSON form: a plain array of probabilities."""
        return [float(p) for p in self.probs]

    @classmethod
    def from_jsonable(cls, data: Sequence[float]) -> "Categorical":
        return cls(np.asarray(data, dtype=float))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.array_equal(self.probs, other.probs)
        )

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class SymbolDataset:
    """An i.i.d. sample of symbols from a fixed alphabet."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("dataset must contain at least one symbol")
        if self.alphabet_size < 1:
            raise ParameterError("alphabet size must be >= 1")
        if arr.min() < 0 or arr.max() >= self.alphabet_size:
            raise ParameterError("dataset contains symbols outside the alphabet")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return int(self.symbols.size)

    def to_jsonable(self) -> dict:
        return {
            "symbols": [int(s) for s in self.symbols],
            "alphabet_size": int(self.alphabet_size),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "SymbolDataset":
        return cls(
            np.asarray(data["symbols"], dtype=np.int64),
            int(data["alphabet_size"]),
        )


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
        if self.p0.alphabet_size != self.pb.alphabet_size:
            raise AlphabetMismatchError(
                f"p0 has alphabet {self.p0.alphabet_size}, pb has {self.pb.alphabet_size}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.beta < 1.0:
            raise ParameterError(f"beta must be in [0, 1), got {self.beta}")

    @property
    def alphabet_size(self) -> int:
        return self.p0.alphabet_size

    @cached_property
    def mixture(self) -> Categorical:
        """The contaminated distribution gamma*pb + (1-gamma)*p0, built once per pair."""
        return Categorical(self.gamma * self.pb.probs + (1.0 - self.gamma) * self.p0.probs)

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
        return cls(
            Categorical.from_jsonable(data["p0"]),
            Categorical.from_jsonable(data["pb"]),
            float(data["gamma"]),
            float(data["beta"]),
        )


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance, half the L1 distance between mass vectors."""
    if p.alphabet_size != q.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def mix(pair: DistributionPair) -> Categorical:
    """The contaminated distribution gamma*pb + (1-gamma)*p0 (``pair.mixture``)."""
    return pair.mixture


def draw_symbols(
    p: Categorical, n: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. symbols from p by inverting the cumulative mass.

    ``n`` is a count or a shape; a (rows, n) shape draws row after row, so
    it consumes the stream exactly as ``rows`` draws of n symbols would.
    """
    return p.quantile(rng.random(n))


def sample(p: Categorical, n: int, seed: int) -> SymbolDataset:
    """Deterministic i.i.d. sample of size n from p under the given seed."""
    if n < 1:
        raise ParameterError("sample size must be >= 1")
    rng = substream(seed, Domain.SAMPLE)
    return SymbolDataset(draw_symbols(p, n, rng), p.alphabet_size)


#: A reference law per row of a symbol block: (row, symbol) index arrays to
#: the mass that row's reference puts on each symbol.
Reference = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sparse_types(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The types of the rows of a (rows, n) symbol block, as sparse triples.

    Returns (row, symbol, count) arrays listing each symbol a row observed
    once, sorted by row and then by symbol. No dense rows x K histogram is
    built, so memory stays O(rows * n) on any alphabet.
    """
    rows, n = symbols.shape
    ordered = np.sort(symbols, axis=1)
    first = np.empty(ordered.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    # each run of equal symbols ends where the next starts, the last at the end
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = rows * n - starts[-1]
    return starts // n, ordered.ravel()[starts], counts


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
    if d.alphabet_size != p.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {d.alphabet_size} vs {p.alphabet_size}"
        )
    return float(type_distances(d.symbols[None, :], lambda row, sym: p.probs[sym])[0])


def product_tv_exact(
    p0: Categorical, p1: Categorical, n: int, cap: int = ENUMERATION_CAP
) -> float:
    """Exact TV distance between the n-fold product distributions.

    The type c (count vector) of an outcome is sufficient, so the distance
    is (1/2) sum_c multinomial(n; c) |p0^c - p1^c| over the C(n+K-1, K-1)
    types. A type is built symbol by symbol, jumping to the next symbol
    with a positive count, from running vectors per partial type (log
    weight, log p0 mass, log p1 mass, remaining count, next symbol). They
    are expanded depth first in chunks of ``_TYPE_CHUNK`` children, so at
    most min(n, K) chunks are held at once. Raises
    :class:`ResourceCapError` above ``cap`` types.
    """
    if p0.alphabet_size != p1.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {p0.alphabet_size} vs {p1.alphabet_size}"
        )
    if n < 1:
        raise ParameterError("n must be >= 1")
    k = p0.alphabet_size
    types = math.comb(n + k - 1, k - 1)
    if types > cap:
        raise ResourceCapError(
            f"{types} types of {n} draws on {k} symbols exceed the enumeration cap {cap}"
        )
    # counts placed are >= 1, so a zero mass gives log -inf and never 0 * log 0
    with np.errstate(divide="ignore"):
        log0, log1 = np.log(p0.probs), np.log(p1.probs)
    sums: list[float] = []
    # entries: (log weight, log p0 mass, log p1 mass, remaining count, next
    # symbol) per partial type, and the first child still to expand
    zero = np.zeros(1)
    stack = [(zero + gammaln(n + 1), zero, zero, np.array([n]), np.array([0]), 0)]
    while stack:
        lw, l0, l1, rem, first, start = stack.pop()
        # a partial type's children put c in 1..rem draws on a symbol
        # j in first..K-2, and one child puts all rem draws on symbol K-1
        size = (k - 1 - first) * rem + 1
        ends = np.cumsum(size)
        stop = min(start + _TYPE_CHUNK, int(ends[-1]))
        if stop < ends[-1]:
            stack.append((lw, l0, l1, rem, first, stop))
        child = np.arange(start, stop)
        parent = np.searchsorted(ends, child, side="right")
        local = child - ends[parent] + size[parent]
        rem = rem[parent]
        sym = first[parent] + local // rem
        counts = np.where(sym == k - 1, rem, local % rem + 1)
        lw = lw[parent] - gammaln(counts + 1)
        l0 = l0[parent] + counts * log0[sym]
        l1 = l1[parent] + counts * log1[sym]
        rem = rem - counts
        # |e^a - e^b| = e^hi (1 - e^(lo - hi)); massless under both laws adds 0
        hi, lo = np.maximum(l0, l1), np.minimum(l0, l1)
        live = hi > -np.inf
        done = live & (rem == 0)
        terms = np.exp(lw[done] + hi[done]) * -np.expm1(lo[done] - hi[done])
        sums.append(float(terms.sum()))
        more = live & (rem > 0)
        if more.any():
            stack.append((lw[more], l0[more], l1[more], rem[more], sym[more] + 1, 0))
    return 0.5 * math.fsum(sums)


def type_exceedance_frequency(
    p: Categorical, n: int, threshold: float, trials: int, seed: int
) -> float:
    """Fraction of seeded trials where TV(type of an n-sample, p) >= threshold.

    Empirical counterpart of the concentration bound
    2K * exp(-8 N t^2 / K^2). Trials run in blocks, block b on
    substream(seed, CONCENTRATION, b), with sparse types, so memory is
    O(BLOCK * n) plus the probability vector on any alphabet.
    """
    if trials < 1 or n < 1:
        raise ParameterError("trials and n must be >= 1")

    def step(rows: int, data: np.random.Generator, _: np.random.Generator) -> int:
        distances = type_distances(draw_symbols(p, (rows, n), data), lambda row, sym: p.probs[sym])
        return int(np.count_nonzero(distances >= threshold))

    return count_errors(step, trials, seed, (Domain.CONCENTRATION,)) / trials
