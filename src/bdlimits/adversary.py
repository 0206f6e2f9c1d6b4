"""Executable attacker constructions.

Two adversaries live here. The first targets a projection-based defense on
a Gaussian binary-classification task: samples are (y, z) with label
y in {-1, +1} and features z = y*1 + sigma*w. A defense projects each
sample to f(x) = v . (y z), which is Normal(mu, sigma^2) with mu = v . 1,
and runs a goodness-of-fit test. Knowing v, the attacker flips labels and
shifts features by a vector delta chosen so v . delta = -2 mu, which leaves
the law of f(x) unchanged while moving the trained decision boundary.
A sample set is a label vector y of shape (n,) and a feature matrix z of
shape (n, K), row i being sample i, and the attack is one array identity:
(y, z) -> (-y, z + y delta).

The second adversary defeats any detector that must work from the clean
distribution alone: it draws a dataset whose marginal law is exactly
the clean uniform distribution, yet which, conditioned on a hidden anchor
set, is an i.i.d. contaminated sample. Its guaranteed risk floor is
exp(-N^2 / (M - N)) / 2 with M anchors and N training samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .detectors import KsResult, ks_pvalue, ks_statistic
from .distributions import Categorical, DistributionPair, SymbolDataset
from .errors import DegenerateDirectionError, DegenerateFitError, ParameterError
from .harness import Detector, RiskEstimate, wilson_interval
from .rng import Domain, count_errors, substream


def toy_delta(v: np.ndarray, k: int) -> np.ndarray:
    """Backdoor shift delta = 2/sqrt(K - mu^2) * (1 - mu v) - 2 mu v.

    ``v`` must be a unit vector; mu = v . 1 must satisfy mu^2 < K. The
    returned vector satisfies v . delta = -2 mu, which is exactly what
    preserves the projection statistics under the label flip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != k:
        raise ParameterError(f"direction must be a length-{k} vector")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ParameterError("direction must be a unit vector")
    mu = float(v.sum())
    if mu * mu >= k:
        raise DegenerateDirectionError(
            f"mu^2 = {mu * mu:.6f} >= K = {k}; no valid shift for this direction"
        )
    ones = np.ones(k)
    return (2.0 / math.sqrt(k - mu * mu)) * (ones - mu * v) - 2.0 * mu * v


@dataclass(frozen=True)
class ToyConfig:
    """Parameter bundle for the Gaussian toy attack.

    ``mu`` and ``delta`` are derived from ``v``; construct via
    :meth:`from_direction`, which normalizes the direction first.
    """

    k: int
    sigma: float
    gamma: float
    n: int
    v: np.ndarray
    mu: float = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ParameterError("dimension must be >= 2")
        if self.sigma < 0.0:
            # sigma = 0 is tolerated for noiseless sampling checks; the KS
            # defense itself requires a positive sigma
            raise ParameterError("sigma must be nonnegative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError("gamma must be in [0, 1]")
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        v = np.asarray(self.v, dtype=float)
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise ParameterError("v must be a unit vector; use from_direction")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mu", float(v.sum()))
        delta = toy_delta(v, self.k)
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_direction(
        cls, v: Sequence[float], sigma: float, gamma: float, n: int
    ) -> "ToyConfig":
        arr = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"direction v = {arr.tolist()} must be finite")
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ParameterError("direction must be nonzero")
        return cls(k=arr.size, sigma=sigma, gamma=gamma, n=n, v=arr / norm)


#: Fresh samples per evaluation set in :func:`toy_attack_report`.
_EVAL_SAMPLES = 2000


def _draw_clean(
    config: ToyConfig, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    y = rng.integers(0, 2, n) * 2 - 1
    w = rng.standard_normal((n, config.k))
    return y, y[:, None] * np.ones(config.k) + config.sigma * w


def toy_sample_clean(config: ToyConfig, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n clean samples (y, z): y uniform on {-1, +1}, z = y*1 + sigma*w.

    ``y`` has shape (n,) and ``z`` shape (n, K); row i is sample i.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return _draw_clean(config, n, substream(seed, Domain.TOY_CLEAN))


def toy_backdoor(
    y: np.ndarray, z: np.ndarray, config: ToyConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Flip every label and shift each feature row by y*delta."""
    return -y, z + y[:, None] * config.delta


def toy_poison(
    y: np.ndarray, z: np.ndarray, config: ToyConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independently replace each sample by its backdoored version at rate config.gamma."""
    replace = substream(seed, Domain.TOY_POISON).random(y.size) < config.gamma
    yb, zb = toy_backdoor(y, z, config)
    return np.where(replace, yb, y), np.where(replace[:, None], zb, z)


def projections(y: np.ndarray, z: np.ndarray, config: ToyConfig) -> np.ndarray:
    """Detector statistics f(x) = v . (y z) for each sample."""
    # a stacked matmul takes one dot per row, the same sum as v @ z_i; a
    # gemv (z @ v) may sum in another order and move the last bits
    return y * np.matmul(z[:, None, :], config.v[:, None])[:, 0, 0]


def toy_ks_defense(y: np.ndarray, z: np.ndarray, config: ToyConfig) -> KsResult:
    """Project the dataset and KS-test it against Normal(mu, sigma^2)."""
    if y.size == 0:
        raise ParameterError("defense requires a nonempty dataset")
    if config.sigma == 0.0:
        raise ParameterError("the KS defense requires a positive sigma")
    f = projections(y, z, config)
    cdf = lambda x: ndtr((x - config.mu) / config.sigma)  # noqa: E731
    stat = ks_statistic(f, cdf)
    return KsResult(statistic=stat, p_value=ks_pvalue(stat, f.size), n=f.size)


@dataclass(frozen=True)
class LinearClassifier:
    """sign(w . z + b) classifier fitted by least squares."""

    w: np.ndarray
    b: float

    def predict(self, zs: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1} for the rows of ``zs``."""
        return np.where(zs @ self.w + self.b >= 0.0, 1, -1)


def toy_train_classifier(y: np.ndarray, z: np.ndarray) -> LinearClassifier:
    """Least-squares fit of the labels on the features, with intercept."""
    labels = y.astype(float)
    if np.all(labels == labels[0]):
        raise DegenerateFitError("training data contains a single class")
    design = np.hstack([z, np.ones((y.size, 1))])
    coef, *_ = np.linalg.lstsq(design, labels, rcond=None)
    return LinearClassifier(w=coef[:-1], b=float(coef[-1]))


@dataclass(frozen=True)
class ToyAttackReport:
    """End-to-end outcome of one seeded toy-attack run."""

    p_value: float
    ks_statistic: float
    clean_accuracy: float
    attack_success_rate: float

    def to_jsonable(self) -> dict:
        return {
            "p_value": self.p_value,
            "ks_statistic": self.ks_statistic,
            "clean_accuracy": self.clean_accuracy,
            "attack_success_rate": self.attack_success_rate,
        }


def toy_attack_report(config: ToyConfig, seed: int) -> ToyAttackReport:
    """Run the full pipeline: sample, poison, test, train, evaluate.

    The attack success rate is the fraction of freshly backdoored samples
    that the poisoned-data classifier assigns to their flipped target label;
    clean accuracy is measured on fresh clean samples.
    """
    poisoned = toy_poison(*toy_sample_clean(config, config.n, seed), config, seed)
    ks = toy_ks_defense(*poisoned, config)
    clf = toy_train_classifier(*poisoned)

    y, z = _draw_clean(config, _EVAL_SAMPLES, substream(seed, Domain.TOY_EVAL))
    yb, zb = toy_backdoor(y, z, config)
    return ToyAttackReport(
        p_value=ks.p_value,
        ks_statistic=ks.statistic,
        clean_accuracy=float(np.mean(clf.predict(z) == y)),
        attack_success_rate=float(np.mean(clf.predict(zb) == yb)),
    )


@dataclass(frozen=True)
class ImpossibilityConfig:
    """Parameters of the marginally-clean adversarial sampler.

    ``m`` anchors are drawn uniformly; the construction needs at least one,
    and the risk floor is informative when m exceeds the dataset size n.
    """

    k: int
    beta: float
    gamma: float
    n: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError("alphabet size must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ParameterError("beta must be in [0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError("gamma must be in [0, 1]")
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        m = math.floor(self.beta * self.k)
        if m < 1:
            raise ParameterError(
                f"floor(beta * k) = {m}; the construction needs at least one anchor"
            )
        object.__setattr__(self, "m", m)


def _draw_given_anchors(
    anchors: np.ndarray, config: ImpossibilityConfig, rng: np.random.Generator
) -> np.ndarray:
    x0 = rng.integers(0, config.k, config.n)
    g = rng.random(config.n) < config.gamma
    v = rng.integers(0, config.m, config.n)
    return np.where(g, anchors[v], x0)


def imposs_conditional_sampler(
    anchors: Sequence[int], config: ImpossibilityConfig, seed: int
) -> SymbolDataset:
    """Sample conditioned on a fixed anchor vector.

    Given the anchors, symbols are i.i.d. from the mixture
    (1 - gamma) * uniform + gamma * (uniform on the anchor multiset).
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    if anchors.size != config.m:
        raise ParameterError(f"expected {config.m} anchors, got {anchors.size}")
    rng = substream(seed, Domain.PROBE_SAMPLER)
    return SymbolDataset(_draw_given_anchors(anchors, config, rng), config.k)


def imposs_sampler(config: ImpossibilityConfig, seed: int) -> SymbolDataset:
    """Draw one adversarial dataset.

    Each symbol is marginally uniform on the alphabet, so no statistic of
    the dataset distinguishes it from clean data in expectation; yet
    conditioned on the hidden anchors it is an i.i.d. contaminated sample
    whose backdoor distribution is far from uniform.
    """
    rng = substream(seed, Domain.PROBE_SAMPLER)
    anchors = rng.integers(0, config.k, config.m)
    return SymbolDataset(_draw_given_anchors(anchors, config, rng), config.k)


def imposs_risk_floor(n: int, m: int) -> float:
    """Guaranteed risk floor exp(-n^2 / (m - n)) / 2 of any clean-distribution detector."""
    if m <= n:
        raise ParameterError("the floor requires m > n")
    return 0.5 * math.exp(-(n * n) / (m - n))


def _probe_risk(
    score: Callable[..., np.ndarray], config: ImpossibilityConfig, trials: int, seed: int
) -> RiskEstimate:
    """Risk of a block scorer over the probe's trials: fair labels J, J = 0
    rows uniform i.i.d., J = 1 rows from the adversarial construction."""
    k, n, m = config.k, config.n, config.m

    def step(rows: int, data: np.random.Generator, detector_rng: np.random.Generator) -> int:
        j = data.integers(0, 2, rows)
        symbols = data.integers(0, k, (rows, n))
        anchored = (data.random((rows, n)) < config.gamma) & (j[:, None] == 1)
        v = data.integers(0, m, (rows, n))
        # The anchors are i.i.d. uniform, so drawing one per distinct
        # (row, anchor index) that a row references has the law of drawing
        # all m per row, without a dense rows x m table.
        cells, which = np.unique(np.nonzero(anchored)[0] * m + v[anchored], return_inverse=True)
        symbols[anchored] = data.integers(0, k, cells.size)[which]
        return int(np.count_nonzero(score(symbols, detector_rng) != j))

    return wilson_interval(count_errors(step, trials, seed, (Domain.PROBE,)), trials)


def _check_probe(config: ImpossibilityConfig, trials: int) -> None:
    if trials < 100:
        raise ParameterError("at least 100 trials are required")
    if config.m <= config.n:
        raise ParameterError(
            f"floor(beta*k) = {config.m} must exceed n = {config.n}; "
            "increase k or beta, or decrease n"
        )


def imposs_risk(
    detector: Detector, config: ImpossibilityConfig, trials: int, seed: int
) -> RiskEstimate:
    """Monte-Carlo risk of a clean-distribution detector against the sampler.

    J = 0 trials feed the detector genuine uniform i.i.d. data, J = 1 trials
    feed it the adversarial construction. ``detector`` is a harness
    detector, bound once to the clean view it may honestly hold: the pair
    (uniform, uniform, gamma, beta) with mixture p1 = uniform, since the
    adversarial data's marginal law is exactly uniform. Its scorer gets each
    block of trials at once, keyed (seed, PROBE, block), with the block's
    detector generator. A detector that uses its generator is a mixture of
    fixed detectors, so the floor :func:`imposs_risk_floor` still holds.
    """
    _check_probe(config, trials)
    uniform = Categorical.uniform(config.k)
    score = detector(DistributionPair(uniform, uniform, config.gamma, config.beta), uniform)
    return _probe_risk(score, config, trials, seed)


def imposs_probe(
    detector: Callable[[SymbolDataset, Categorical], int],
    config: ImpossibilityConfig,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """:func:`imposs_risk` for a fixed detector ``detector(d, p0)``.

    The same trials, with the detector called once per row on that row as a
    :class:`SymbolDataset` and the uniform distribution as p0. No
    :class:`DistributionPair` is built, so every config is accepted,
    ``beta = 1`` included.
    """
    _check_probe(config, trials)
    k = config.k
    p0 = Categorical.uniform(k)

    def score(symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.fromiter(
            (int(detector(SymbolDataset(row, k), p0)) for row in symbols), dtype=np.int64
        )

    return _probe_risk(score, config, trials, seed)
