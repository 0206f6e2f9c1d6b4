"""Finite-alphabet categorical distributions and their empirical types.

The symbols of an alphabet of size K are the integers 0..K-1. A
:class:`Categorical` is a probability vector on that alphabet, a
:class:`SymbolDataset` is an i.i.d. sample, and an :class:`EmpiricalType` is
the normalized histogram of a sample. Total variation distance is computed
in its canonical finite-alphabet form, half the L1 distance, which equals
the supremum over event sets.

Everything here is a pure function of its inputs (sampling is pure given
the seed) and all values are immutable after construction, so they can be
shared freely across concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import AlphabetMismatchError, ParameterError, ResourceCapError
from .rng import Domain, blocks, substream

#: Probability vectors must sum to 1 within this tolerance to be accepted.
PROB_TOLERANCE = 1e-12

#: Default ceiling on K**n outcomes for exact product-distribution enumeration.
ENUMERATION_CAP = 10**7


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


@dataclass(frozen=True, eq=False)
class EmpiricalType(Categorical):
    """The type (empirical distribution) of a dataset of ``sample_count`` draws.

    Entries are exact multiples of 1/N up to floating-point tolerance.
    """

    sample_count: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sample_count < 1:
            raise ParameterError("sample count must be >= 1")
        scaled = self.probs * self.sample_count
        if np.any(np.abs(scaled - np.round(scaled)) > PROB_TOLERANCE * self.sample_count):
            raise ParameterError("type entries must be multiples of 1/N")


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
    """The contaminated distribution gamma*pb + (1-gamma)*p0."""
    return Categorical(pair.gamma * pair.pb.probs + (1.0 - pair.gamma) * pair.p0.probs)


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


def empirical_type(d: SymbolDataset) -> EmpiricalType:
    """The type of a dataset: entry x equals count(x) / N."""
    counts = np.bincount(d.symbols, minlength=d.alphabet_size)
    n = len(d)
    return EmpiricalType(probs=counts / n, sample_count=n)


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

    Enumerates all K**n outcomes, so it is an oracle for small instances
    only; raises :class:`ResourceCapError` above ``cap`` outcomes.
    """
    if p0.alphabet_size != p1.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabet sizes differ: {p0.alphabet_size} vs {p1.alphabet_size}"
        )
    if n < 1:
        raise ParameterError("n must be >= 1")
    k = p0.alphabet_size
    if k**n > cap:
        raise ResourceCapError(f"{k}**{n} outcomes exceed the enumeration cap {cap}")
    joint0 = p0.probs
    joint1 = p1.probs
    for _ in range(n - 1):
        joint0 = np.kron(joint0, p0.probs)
        joint1 = np.kron(joint1, p1.probs)
    return 0.5 * float(np.abs(joint0 - joint1).sum())


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
    exceed = 0
    for index, rows in blocks(trials):
        symbols = draw_symbols(p, (rows, n), substream(seed, Domain.CONCENTRATION, index))
        distances = type_distances(symbols, lambda row, sym: p.probs[sym])
        exceed += int(np.count_nonzero(distances >= threshold))
    return exceed / trials
