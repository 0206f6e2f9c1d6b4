"""Detectors for deciding whether a training set was poisoned.

Detectors are ordered by oracle access. A Type-1 detector sees the raw
training set plus a fresh clean sample; a Type-2 detector sees the clean
distribution itself; a Type-3 detector additionally sees the backdoor
distribution, turning the task into a binary likelihood-ratio test between
the clean product law and the contaminated product law. The reductions
between them are harness detectors (:mod:`bdlimits.harness`): a Type-2
detector is a Type-3 one that reads only ``pair.p0``, and
``type1_trial_detector(m)`` runs the Type-1 test as a Type-2 detector by
drawing its m clean samples from p0. The block kernels here score a whole
block of datasets. :func:`np_type3` is its kernel's one-dataset case;
:func:`type2_tv` and :func:`type1_tv` threshold the distance their kernel
gives on one row, bit for bit, but walk the dataset in Python
(:func:`bdlimits.distributions._row_distance`) rather than pass it to the
kernel, whose numpy calls cost more on a short dataset.

Polarity, for every detector in the package: a verdict of 1 flags the
training set as drawn from the contaminated mixture, 0 as clean. Ties in
the likelihood ratio and the threshold tests resolve to 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import at_least, within
from .distributions import (
    Categorical,
    DistributionPair,
    SymbolDataset,
    _row_distance,
    same_alphabet,
    tv_to_type,
    type_counts,
    type_distances,
)
from .errors import ImpossibleSampleError, ParameterError


@dataclass(frozen=True)
class KsResult:
    """Outcome of a one-sample Kolmogorov-Smirnov test."""

    statistic: float
    p_value: float
    n: int

    def __post_init__(self) -> None:
        within("KS statistic", self.statistic, 0.0, 1.0)
        within("p-value", self.p_value, 0.0, 1.0)


def np_log_ratio(p0: Categorical, p1: Categorical) -> np.ndarray:
    """Per-symbol log likelihood ratio log(p1 / p0) of the NP test.

    A symbol impossible under p1 only gets -inf, under p0 only +inf, under
    both NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(p1.probs) - np.log(p0.probs)


def _zero_mass_sums(symbols: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Each row's summed log ratio, for a ratio with an infinite or NaN entry.

    The infinities carry the zero-mass rules: a symbol impossible under the
    mixture makes the sum -inf (or NaN beside a +inf), which clears the row;
    one impossible under the clean law alone makes it +inf, which flags it.
    A symbol impossible under both raises :class:`ImpossibleSampleError`.
    """
    with np.errstate(invalid="ignore"):
        llr = ratio[symbols].sum(axis=1)
    suspect = symbols[np.isnan(llr)]
    impossible = np.isnan(ratio[suspect])
    if impossible.any():
        bad = int(suspect[impossible][0])
        raise ImpossibleSampleError(
            f"symbol {bad} has zero probability under both hypotheses"
        )
    return llr


def np_scorer(ratio: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """NP verdicts for each row of a (rows, n) symbol block, on one log ratio.

    The returned function flags a row (1) iff its summed log ratio is >= 0.
    ``ratio`` is checked here, once: when every entry is finite, no row sum
    can be NaN, so each block is only summed and thresholded; otherwise the
    zero-mass rules of :func:`_zero_mass_sums` apply.
    """
    finite = bool(np.isfinite(ratio).all())

    def verdicts(symbols: np.ndarray) -> np.ndarray:
        llr = ratio[symbols].sum(axis=1) if finite else _zero_mass_sums(symbols, ratio)
        return (llr >= 0.0).astype(np.int64)

    return verdicts


def np_type3(d: SymbolDataset, pair: DistributionPair) -> int:
    """Likelihood-ratio (Neyman-Pearson) detector with full knowledge.

    Returns 1 iff the log likelihood ratio of the contaminated
    mixture against the clean distribution is >= 0 over the dataset.
    Symbols impossible under one hypothesis short-circuit the verdict;
    symbols impossible under both raise :class:`ImpossibleSampleError`.
    """
    same_alphabet(d, pair)
    verdicts = np_scorer(np_log_ratio(pair.p0, pair.mixture))
    return int(verdicts(d.symbols[None, :])[0])


def tv_threshold(gamma: float, beta: float) -> float:
    """Flag threshold gamma * (1 - beta) / 2 of the type-distance tests, for
    gamma in (0, 1] and beta in [0, 1), where it is positive."""
    within("gamma", gamma, 0.0, 1.0, open_low=True)
    within("beta", beta, 0.0, 1.0, open_high=True)
    return gamma * (1.0 - beta) / 2.0


def type2_tv(
    d: SymbolDataset, p0: Categorical, gamma: float, beta: float
) -> int:
    """Threshold the TV distance between the dataset's type and p0.

    Flags (1) when TV(p0, S_N) >= gamma * (1 - beta) / 2, with
    equality counting as a flag.
    """
    threshold = tv_threshold(gamma, beta)
    return int(tv_to_type(p0, d) >= threshold)


def type1_distances(symbols: np.ndarray, clean: np.ndarray, k: int) -> np.ndarray:
    """TV distance between the types of row r of two symbol blocks, per r."""
    counts = type_counts(clean, k)
    m = clean.shape[1]
    return type_distances(symbols, lambda row, sym: counts(row, sym) / m)


def _type1_distance(d: SymbolDataset, d_clean: SymbolDataset) -> float:
    """TV distance between the types of two datasets: :func:`type1_distances`
    on one row each, bit for bit, by the walk of :func:`tv_to_type`."""
    same_alphabet(d, d_clean)
    m = d_clean.symbols.size
    counts = Counter(d_clean.symbols.tolist())
    return _row_distance(d.symbols, lambda s: counts[s] / m)


def type1_tv(
    d: SymbolDataset, d_clean: SymbolDataset, gamma: float, beta: float
) -> int:
    """Type-1 analogue of :func:`type2_tv`: compare two empirical types.

    The clean reference distribution is replaced by the type of an
    independently collected clean dataset.
    """
    threshold = tv_threshold(gamma, beta)
    return int(_type1_distance(d, d_clean) >= threshold)


def ks_statistic(values: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS statistic against a reference CDF.

    D_n = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the order
    statistics. ``cdf`` must accept an ndarray and return values in [0, 1].
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    at_least("sample count", n)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    upper = i / n - f
    lower = f - (i - 1) / n
    return float(max(upper.max(), lower.max()))


_SQRT_HALF = math.sqrt(0.5)


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, as 0.5 * erfc(-x / sqrt(2)).

    The argument is scaled as -x * sqrt(1/2), as the Cephes ``ndtr`` does,
    so the two agree to about 1e-13 relative deep into the lower tail.
    """
    x = np.asarray(x, dtype=float)
    cdf = (0.5 * math.erfc(-t * _SQRT_HALF) for t in x.ravel().tolist())
    return np.fromiter(cdf, float, x.size).reshape(x.shape)


#: Terms kept of each Kolmogorov series; the first dropped term is below
#: 4e-22 for the alternating series at lam >= 1 and below 2e-26 for the
#: theta series at lam < 1.
_ALTERNATING_TERMS = 4
_THETA_TERMS = 3


def kolmogorov_sf(lam: float) -> float:
    """Kolmogorov survival function Pr(K > lam), 1 at lam <= 0.

    From lam = 1 up, the alternating series 2 sum_k (-1)^(k-1) e^(-2 k^2 lam^2).
    Below 1 that series converges slowly, so the survival function is 1 minus
    the Jacobi-theta form of the CDF, sqrt(2 pi)/lam sum_k e^(-(2k-1)^2 pi^2 / (8 lam^2)).
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        q = -math.pi**2 / (8.0 * lam * lam)
        terms = (math.exp((2 * k - 1) ** 2 * q) for k in range(1, _THETA_TERMS + 1))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * math.fsum(terms)
    q = -2.0 * lam * lam
    terms = ((-1) ** (k - 1) * math.exp(k * k * q) for k in range(1, _ALTERNATING_TERMS + 1))
    return 2.0 * math.fsum(terms)


def ks_pvalue(statistic: float, n: int) -> float:
    """Asymptotic p-value for the one-sample KS statistic.

    Applies Stephens' small-sample correction
    lam = (sqrt(n) + 0.12 + 0.11 / sqrt(n)) * D_n before evaluating the
    Kolmogorov survival function :func:`kolmogorov_sf`. The exact finite-n
    distribution is not used.
    """
    at_least("sample count", n)
    root_n = math.sqrt(n)
    return kolmogorov_sf((root_n + 0.12 + 0.11 / root_n) * statistic)


def ood_risk_exact(
    f: Callable[[int], int] | Sequence[int],
    p0: Categorical,
    pb: Categorical,
) -> float:
    """Exact out-of-distribution risk of a binary labeling of the alphabet.

    (1/2) Pr{f(X0) = 1} + (1/2) Pr{f(X1) = 0} with X0 ~ p0 and X1 ~ pb,
    computed by summing masses. ``f`` may be a callable on symbols or a
    length-K array of labels.
    """
    k = same_alphabet(p0, pb)
    if callable(f):
        labels = np.asarray([int(f(x)) for x in range(k)])
    else:
        labels = np.asarray(f, dtype=int)
        if labels.size != k:
            raise ParameterError("label vector must cover the full alphabet")
    if not np.all((labels == 0) | (labels == 1)):
        raise ParameterError("labels must be 0 or 1")
    flagged = labels == 1
    return 0.5 * float(p0.probs[flagged].sum()) + 0.5 * float(pb.probs[~flagged].sum())

