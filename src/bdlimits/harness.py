"""Monte-Carlo risk estimation and benchmark instances.

The risk of a detector is the probability that its verdict disagrees with
the fair coin J that selected whether the training set was drawn from the
clean product law (J = 0) or from the contaminated mixture law (J = 1).
Every Monte-Carlo estimate, the type-concentration frequency
(:func:`type_exceedance_frequency`) included, needs at least 100 trials and
reports a 99% Wilson interval; one step, ``_estimate``, states both rules.

Every estimator supplies only a block draw, the targets and the data of a
block of trials, to the one block kernel :func:`~bdlimits.rng.count_errors`;
:mod:`~bdlimits.rng` states the rule by which blocks are seeded, scored and
counted.

A detector is one function ``detector(pair)``, called once per estimate
with the problem instance, that returns a block scorer; one that needs the
contaminated law reads ``pair.mixture``.
The scorer takes a whole block stacked by row and returns one verdict per
row: ``score(symbols, rng)`` for a (rows, n) block of training sets, and
``score(theta, d_prime, x, rng)`` for trained parameters (a
:data:`~bdlimits.distributions.Reference`), fresh clean samples and probe
symbols. ``rng`` is the block's generator, after the block's data. The
empirical type is a sufficient statistic for every built-in detector, so
each scores a block in a few numpy calls; :func:`per_row` lifts a
per-dataset callable ``fn(d, pair, rng)`` into the same shape.

The paper's reductions between oracle types are detectors of this one
shape: a Type-2 detector is a Type-3 one that reads only ``pair.p0``
(:func:`type2_trial_detector`), and :func:`type1_trial_detector` runs the
Type-1 test as a Type-2 detector, drawing its clean samples from p0 with
the block's generator.

The results file and its config hash live in :mod:`~bdlimits.results`;
:func:`~bdlimits.results.append_result` is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .checks import DETECTOR_NAMES, at_least, within
from .detectors import np_log_ratio, np_scorer, tv_threshold, type1_distances
from .distributions import (
    Categorical,
    DistributionPair,
    Reference,
    SymbolDataset,
    draw_grouped,
    draw_symbols,
    type_counts,
    type_distances,
)
from .errors import ConfigurationError, ParameterError
from .results import append_result  # noqa: F401 (re-exported)
from .rng import Domain, count_errors

#: two-sided 99% normal quantile used by the Wilson interval
_Z99 = 2.5758293035489004

#: The law of a fair label J: J = 1 on a lane at or above 2^31.
_FAIR_COIN = Categorical.uniform(2)

#: A detector as seen by the harness: a pair to a block scorer.
Detector = Callable[[DistributionPair], Callable[..., np.ndarray]]


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo estimate of a detector's risk with a 99% Wilson interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self) -> None:
        if not self.ci_low <= self.p_hat <= self.ci_high:
            raise ParameterError("confidence interval must contain the point estimate")

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low

    def to_jsonable(self) -> dict:
        return asdict(self)


def wilson_interval(errors: int, trials: int) -> RiskEstimate:
    """Wilson score interval; well behaved near risks of 0 and 1."""
    at_least("trials", trials)
    if not 0 <= errors <= trials:
        raise ParameterError("error count outside [0, trials]")
    p, z = errors / trials, _Z99
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the interval contains p exactly; the min/max against p only absorbs
    # float rounding at the endpoints
    return RiskEstimate(
        p_hat=p,
        ci_low=max(0.0, min(center - half, p)),
        ci_high=min(1.0, max(center + half, p)),
        trials=trials,
    )


class Flavor(str, Enum):
    """Which question the generalized detector answers.

    MBD asks whether the model's training set was poisoned (target j),
    SBD and OOD ask whether the probe sample is backdoored (target i).
    """

    MBD = "mbd"
    SBD = "sbd"
    OOD = "ood"

    def target(self, j: int, i: int) -> int:
        return j if self is Flavor.MBD else i


@dataclass(frozen=True)
class JointPrior:
    """Distribution of (J, I) on {0,1}^2; cell (j, i) has mass p_ji."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        cells = (self.p00, self.p01, self.p10, self.p11)
        # written so that a NaN cell fails both checks
        if not all(c >= 0.0 for c in cells):
            raise ParameterError(f"prior cells must be nonnegative, got {cells}")
        if not abs(sum(cells) - 1.0) <= 1e-12:
            raise ParameterError(f"prior cells must sum to 1, got {cells}")

    def validate_for(self, flavor: Flavor) -> None:
        """Reject priors putting mass on cells the flavor declares irrelevant."""
        if flavor is Flavor.MBD and (self.p01 > 0.0 or self.p11 > 0.0):
            raise ConfigurationError("MBD prior must not weight backdoored probes")
        if flavor is Flavor.SBD and self.p01 > 0.0:
            raise ConfigurationError(
                "SBD prior must not weight a clean model with a backdoored probe"
            )
        if flavor is Flavor.OOD and (self.p10 > 0.0 or self.p11 > 0.0):
            raise ConfigurationError("OOD prior must not weight backdoored models")

    @cached_property
    def cell_law(self) -> Categorical:
        """The prior as a law on the cells 2j + i, built once per prior."""
        return Categorical(np.array([self.p00, self.p01, self.p10, self.p11]))

    # each default is one shared instance, so its cell law is built once

    @classmethod
    @cache
    def mbd_default(cls) -> "JointPrior":
        return cls(0.5, 0.0, 0.5, 0.0)

    @classmethod
    @cache
    def sbd_default(cls) -> "JointPrior":
        return cls(0.5, 0.0, 0.25, 0.25)

    @classmethod
    @cache
    def ood_default(cls) -> "JointPrior":
        return cls(0.5, 0.5, 0.0, 0.0)


@dataclass(frozen=True)
class TrainerStub:
    """Stand-in training algorithm: additive-smoothed symbol frequencies.

    Deterministic given the dataset; the smoothed frequency vector plays the
    role of the trained parameters.
    """

    smoothing: float = 1.0

    def __post_init__(self) -> None:
        within("smoothing", self.smoothing, 0.0, math.inf, open_high=True)

    def __call__(self, d: SymbolDataset) -> Categorical:
        counts = np.bincount(d.symbols, minlength=d.alphabet_size).astype(float)
        counts += self.smoothing
        return Categorical(counts / counts.sum())

    def batch(self, symbols: np.ndarray, k: int) -> Reference:
        """The trained parameters of every row of a (rows, n) block.

        Row r's smoothed frequency (c_x + s) / (n + K s) is computed for the
        queried (row, symbol) pairs from the block's type counts
        (:func:`~bdlimits.distributions.type_counts`): a rows x K count
        table when K <= n, where it is no larger than the block, and the
        sparse types otherwise. The row and symbol index arrays
        broadcast together, and symbols must lie in 0..K-1; a symbol the
        row never observed gets the finite, positive mass s / (n + K s),
        or 0 when s = 0.
        """
        counts = type_counts(symbols, k)
        total = symbols.shape[1] + k * self.smoothing
        return lambda row, sym: (counts(row, sym) + self.smoothing) / total


def np_trial_detector() -> Detector:
    """Full-knowledge likelihood-ratio detector in harness form.

    Sums log(mixture / p0), built and checked once per estimate, over each row.
    """

    def detector(pair: DistributionPair):
        verdicts = np_scorer(np_log_ratio(pair.p0, pair.mixture))
        return lambda symbols, rng: verdicts(symbols)

    return detector


def _type_exceeds(p: Categorical, threshold: float) -> Callable[..., np.ndarray]:
    """Block scorer flagging each row whose type lies at TV >= ``threshold`` from p."""
    probs = p.probs
    return lambda symbols, rng: type_distances(symbols, lambda row, sym: probs[sym]) >= threshold


def type2_trial_detector() -> Detector:
    """Type-distance detector in harness form, thresholded from the pair's knobs."""
    return lambda pair: _type_exceeds(pair.p0, tv_threshold(pair.gamma, pair.beta))


def type1_trial_detector(m: int) -> Detector:
    """Type-1 detector in harness form; draws m clean samples per row."""
    at_least("m", m)

    def detector(pair: DistributionPair):
        threshold = tv_threshold(pair.gamma, pair.beta)

        def score(symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            clean = draw_symbols(pair.p0, (symbols.shape[0], m), rng)
            return type1_distances(symbols, clean, pair.alphabet_size) >= threshold

        return score

    return detector


def per_row(fn: Callable[[SymbolDataset, DistributionPair, np.random.Generator], int]) -> Detector:
    """Lift a per-dataset detector ``fn(d, pair, rng)`` into harness form.

    The scorer checks its block once (:meth:`SymbolDataset.rows`) and calls
    ``fn`` once per row, in row order, with that row as a read-only
    :class:`SymbolDataset` on the pair's alphabet and the block's generator.
    """

    def detector(pair: DistributionPair):
        k = pair.alphabet_size

        def score(symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            return np.fromiter(
                (int(fn(d, pair, rng)) for d in SymbolDataset.rows(symbols, k)), dtype=np.int64
            )

        return score

    return detector


DETECTORS: dict[str, Callable[[], Detector]] = dict(
    zip(DETECTOR_NAMES, (np_trial_detector, type2_trial_detector), strict=True)
)


def _estimate(draw: Callable, score: Callable, trials: int, seed: int, path: tuple) -> RiskEstimate:
    """The one estimate step: count ``score``'s errors on ``trials`` rows of
    ``draw`` over the blocks of ``path`` and wrap them in a Wilson interval."""
    if trials < 100:
        raise ParameterError("at least 100 trials are required")
    return wilson_interval(count_errors(draw, score, trials, seed, path), trials)


def estimate_risk(
    detector: Detector,
    pair: DistributionPair,
    n: int,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Unbiased Monte-Carlo estimate of the detector's risk on the pair.

    Each row draws a fair label J, then a dataset of size n from p0 (J = 0)
    or the mixture (J = 1); an error is a verdict other than J. A block
    draws its labels first, as fair coins, and holds its J = 0 rows first.
    """
    at_least("n", n)

    def draw(rows: int, rng: np.random.Generator) -> tuple:
        ones = int(np.count_nonzero(draw_symbols(_FAIR_COIN, rows, rng)))
        j = np.arange(rows) >= rows - ones
        return j, draw_grouped((pair.p0, pair.mixture), (rows - ones, ones), n, rng)

    return _estimate(draw, detector(pair), trials, seed, (Domain.RISK,))


def estimate_conditional_errors(
    detector: Detector,
    pair: DistributionPair,
    n: int,
    trials: int,
    seed: int,
) -> tuple[RiskEstimate, RiskEstimate]:
    """Estimate the two conditional error rates separately.

    Returns (false-backdoor rate, missed-backdoor rate): the probability of
    flagging a clean set and of clearing a contaminated one. Their average
    matches the unconditional risk. Branch j runs on its own blocks, keyed
    (seed, CONDITIONAL, j, block).
    """
    at_least("n", n)
    score = detector(pair)

    def branch(j: int, law: Categorical) -> RiskEstimate:
        def draw(rows: int, rng: np.random.Generator) -> tuple:
            return j, draw_symbols(law, (rows, n), rng)

        return _estimate(draw, score, trials, seed, (Domain.CONDITIONAL, j))

    return branch(0, pair.p0), branch(1, pair.mixture)


def type_exceedance_frequency(
    p: Categorical, n: int, threshold: float, trials: int, seed: int
) -> RiskEstimate:
    """Fraction of seeded trials where TV(type of an n-sample, p) >= threshold.

    Empirical counterpart of the concentration bound
    2K * exp(-8 N t^2 / K^2). Blocks run on path (CONCENTRATION,), with the
    target False and the verdict TV >= threshold, so their errors are the
    exceedances and ``p_hat`` is their fraction. Types are sparse, so
    memory is O(BLOCK * n) plus the probability vector on any alphabet.
    """
    at_least("n", n)
    within("threshold", threshold, -math.inf, math.inf)

    def draw(rows: int, rng: np.random.Generator) -> tuple:
        return False, draw_symbols(p, (rows, n), rng)

    return _estimate(draw, _type_exceeds(p, threshold), trials, seed, (Domain.CONCENTRATION,))


def _trained_risk(
    detector: Detector,
    pair: DistributionPair,
    n: int,
    m: int,
    prior: JointPrior,
    target: Flavor,
    trainer: TrainerStub,
    trials: int,
    seed: int,
    domain: Domain,
) -> RiskEstimate:
    """:func:`estimate_generalized_risk` on the blocks of ``domain``. A block
    draws its cells 2j + i first and holds its rows cell by cell."""
    at_least("n", n)
    at_least("m", m)
    prior.validate_for(target)
    cells = prior.cell_law
    # the target of cell 2j + i
    targets = np.array([target.target(j, i) for j in (0, 1) for i in (0, 1)])

    def draw(rows: int, rng: np.random.Generator) -> tuple:
        c = np.bincount(draw_symbols(cells, rows, rng), minlength=4).tolist()
        train = draw_grouped((pair.p0, pair.mixture), (c[0] + c[1], c[2] + c[3]), n, rng)
        d_prime = draw_symbols(pair.p0, (rows, m), rng)
        x = draw_grouped((pair.p0, pair.pb, pair.p0, pair.pb), c, 1, rng)[:, 0]
        return targets.repeat(c), trainer.batch(train, pair.alphabet_size), d_prime, x

    return _estimate(draw, detector(pair), trials, seed, (domain,))


def estimate_generalized_risk(
    detector: Detector,
    pair: DistributionPair,
    n: int,
    m: int,
    prior: JointPrior,
    target: Flavor,
    trainer: TrainerStub,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Risk of a detector scoring (trained params, clean data, probe sample).

    Per trial: draw (j, i) from the prior, train on a clean or contaminated
    set of size n, draw m fresh clean samples, draw the probe from the clean
    distribution (i = 0) or the backdoor distribution itself (i = 1), and
    compare the verdict with the flavor's target t(j, i).
    """
    return _trained_risk(
        detector, pair, n, m, prior, target, trainer, trials, seed, Domain.GENERALIZED
    )


#: Type-0 distances this close below the threshold are ties, which flag.
#: Smoothed counts and clean types are both rational, so exact ties are
#: common, and the float sum can land a hair either side of an exact tie.
_TYPE0_TIE = 1e-12


def type0_tv_detector(gamma: float, beta: float) -> Detector:
    """Demonstration Type-0 detector: TV between trained parameters and the
    type of the fresh clean data, thresholded like the type-distance test."""
    threshold = tv_threshold(gamma, beta) - _TYPE0_TIE

    def detector(pair: DistributionPair):
        return lambda theta, d_prime, x, rng: type_distances(d_prime, theta) >= threshold

    return detector


def type0_demo_risk(
    detector0: Detector,
    pair: DistributionPair,
    n: int,
    m: int,
    trainer: TrainerStub,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Risk of a detector that only sees trained parameters and clean data.

    The trained-parameter estimate under the MBD prior with a fair label J.
    The scorer still receives the probe, but under that prior the probe is
    always drawn from p0, so it says nothing about J.
    """
    return _trained_risk(
        detector0, pair, n, m, JointPrior.mbd_default(), Flavor.MBD,
        trainer, trials, seed, Domain.TYPE0,
    )


@dataclass(frozen=True)
class BenchmarkInstance:
    """A fixed, well-separated problem instance for detector comparisons."""

    label: str
    pair: DistributionPair
    n: int
    m: int


def benchmark_instances() -> tuple[BenchmarkInstance, ...]:
    """Three small instances with admissible pairs, used for ordering checks."""
    return (
        BenchmarkInstance(
            "k2",
            DistributionPair(
                Categorical(np.array([0.85, 0.15])),
                Categorical(np.array([0.10, 0.90])),
                gamma=0.9,
                beta=0.30,
            ),
            n=10,
            m=40,
        ),
        BenchmarkInstance(
            "k3",
            DistributionPair(
                Categorical(np.array([0.70, 0.20, 0.10])),
                Categorical(np.array([0.05, 0.15, 0.80])),
                gamma=0.8,
                beta=0.40,
            ),
            n=12,
            m=48,
        ),
        BenchmarkInstance(
            "k4",
            DistributionPair(
                Categorical(np.array([0.40, 0.40, 0.10, 0.10])),
                Categorical(np.array([0.05, 0.05, 0.45, 0.45])),
                gamma=1.0,
                beta=0.35,
            ),
            n=8,
            m=32,
        ),
    )


def bayes_probe_detector(pair: DistributionPair) -> Detector:
    """Score only the probe sample: flag it when pb is at least as likely as p0."""
    flags = pair.pb.probs >= pair.p0.probs

    def detector(bound_pair: DistributionPair):
        return lambda theta, d_prime, x, rng: flags[x]

    return detector


def uniform_vs_point_mass(k: int, gamma: float, beta: float) -> DistributionPair:
    """Default instance: uniform clean distribution, point-mass backdoor on 0."""
    return DistributionPair(
        Categorical.uniform(k), Categorical.point_mass(0, k), gamma=gamma, beta=beta
    )
