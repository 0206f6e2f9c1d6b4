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
:func:`imposs_risk` draws these datasets a block at a time and scores them
with any harness detector ``detector(pair)`` bound to the clean view.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .detectors import KsResult, ks_pvalue, ks_statistic, normal_cdf
from .distributions import Categorical, DistributionPair, SymbolDataset, at_least, unit_interval
from .errors import DegenerateDirectionError, DegenerateFitError, ParameterError
from .harness import Detector, RiskEstimate, _estimate, per_row
from .rng import Domain, substream


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

    ``n`` is the size of every clean sample the attack draws. The dimension
    ``k``, ``mu`` and ``delta`` are derived from ``v``; construct via
    :meth:`from_direction`, which normalizes the direction first.
    """

    sigma: float
    gamma: float
    n: int
    v: np.ndarray
    mu: float = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # a copy, so freezing it leaves the caller's array writeable
        v = np.array(self.v, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        at_least("dimension", self.k, 2)
        if not 0.0 <= self.sigma < math.inf:
            # sigma = 0 is tolerated for noiseless sampling checks; the KS
            # defense itself requires a positive sigma
            raise ParameterError(f"sigma must be finite and nonnegative, got {self.sigma}")
        object.__setattr__(self, "gamma", unit_interval("gamma", self.gamma))
        at_least("n", self.n)
        object.__setattr__(self, "mu", float(v.sum()))
        delta = toy_delta(v, self.k)
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_direction(
        cls, v: Sequence[float], sigma: float, gamma: float, n: int
    ) -> "ToyConfig":
        unit, _ = unit_direction(v)
        return cls(sigma=sigma, gamma=gamma, n=n, v=unit)

    @property
    def k(self) -> int:
        """The feature dimension, the length of ``v``."""
        return int(self.v.size)


def unit_direction(v: Sequence[float]) -> tuple[np.ndarray, float]:
    """v / |v| and |v| for a finite nonzero vector.

    ``np.linalg.norm`` squares the entries, so it reads 0 or inf when they
    under- or overflow. Only then is v divided by max|v_i| first; any other
    vector keeps the bits of v / np.linalg.norm(v).
    """
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"direction v = {arr.tolist()} must be finite")
    scale = 1.0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if norm == 0.0 or norm == math.inf:
        scale = float(np.abs(arr).max())
        if scale == 0.0:
            raise ParameterError("direction must be nonzero")
        arr = arr / scale
        norm = float(np.linalg.norm(arr))
    return arr / norm, scale * norm


def toy_sample_clean(config: ToyConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``config.n`` clean samples (y, z): y uniform on {-1, +1}, z = y*1 + sigma*w.

    ``y`` has shape (n,) and ``z`` shape (n, K); row i is sample i.
    """
    rng = substream(seed, Domain.TOY_CLEAN)
    y = rng.integers(0, 2, config.n) * 2 - 1
    w = rng.standard_normal((config.n, config.k))
    with np.errstate(over="ignore"):
        z = y[:, None] * np.ones(config.k) + config.sigma * w
    if not np.isfinite(z).all():
        raise ParameterError(f"sigma = {config.sigma} overflows the drawn features")
    return y, z


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
    cdf = lambda x: normal_cdf((x - config.mu) / config.sigma)  # noqa: E731
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
        return asdict(self)


def toy_attack_report(config: ToyConfig, seed: int) -> ToyAttackReport:
    """Run the full pipeline: sample, poison, test, train, evaluate.

    The fit sign(w . z + b) is linear and the features Gaussian, so with
    s = sigma |w|, a = w . 1 and t = w . (1 + delta) the clean accuracy is
    exactly Phi((a + b)/s)/2 + Phi((a - b)/s)/2, and the attack success rate
    (backdoored samples given their flipped label) Phi(-(t + b)/s)/2 +
    Phi((b - t)/s)/2. A quotient at s = 0 or past overflow is +-inf.
    """
    poisoned = toy_poison(*toy_sample_clean(config, seed), config, seed)
    ks = toy_ks_defense(*poisoned, config)
    clf = toy_train_classifier(*poisoned)

    w, b = clf.w, clf.b
    s = config.sigma * float(np.linalg.norm(w))
    a, t = float(w.sum()), float(w @ (1.0 + config.delta))
    with np.errstate(divide="ignore", over="ignore"):
        phi = normal_cdf(np.array([a + b, a - b, -(t + b), b - t]) / s)
    return ToyAttackReport(
        p_value=ks.p_value,
        ks_statistic=ks.statistic,
        clean_accuracy=0.5 * float(phi[0] + phi[1]),
        attack_success_rate=0.5 * float(phi[2] + phi[3]),
    )


@dataclass(frozen=True)
class ImpossibilityConfig:
    """Parameters of the marginally-clean adversarial sampler.

    ``m`` anchors are drawn uniformly, m = floor(beta K): the largest integer
    with m / K <= beta, so that beta = 0.29 at K = 100 gives 29 anchors
    although 0.29 * 100 = 28.999999999999996 in floats. The construction
    needs at least one anchor, and the risk floor is informative when m
    exceeds the dataset size n.
    """

    k: int
    beta: float
    gamma: float
    n: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        at_least("alphabet size", self.k)
        object.__setattr__(self, "beta", unit_interval("beta", self.beta))
        object.__setattr__(self, "gamma", unit_interval("gamma", self.gamma))
        at_least("n", self.n)
        m = math.floor(self.beta * self.k)
        if (m + 1) / self.k <= self.beta:
            m += 1
        if m < 1:
            raise ParameterError(
                f"floor(beta * k) = {m}; the construction needs at least one anchor"
            )
        object.__setattr__(self, "m", m)


def _draw_anchored(
    rows: int, config: ImpossibilityConfig, rng: np.random.Generator, rate
) -> np.ndarray:
    """(rows, n) uniform symbols, each replaced at ``rate`` (a scalar or a
    per-row column) by the row's anchor at a uniform index v < m.

    Draws symbols, coins and indices, then one uniform symbol per distinct
    (row, v) that a row references. A row's m anchors are i.i.d. uniform,
    so this has the law of drawing all m per row, without a dense rows x m
    table.
    """
    x = rng.integers(0, config.k, (rows, config.n))
    g = rng.random((rows, config.n)) < rate
    v = rng.integers(0, config.m, (rows, config.n))
    cells, which = np.unique(np.nonzero(g)[0] * config.m + v[g], return_inverse=True)
    x[g] = rng.integers(0, config.k, cells.size)[which]
    return x


def _probe_regime(n: int, m: int) -> None:
    """The probe's regime: the floor exp(-n^2 / (m - n)) / 2 needs m > n."""
    if m <= n:
        raise ParameterError(
            f"floor(beta*k) = {m} must exceed n = {n}; increase k or beta, or decrease n"
        )


def imposs_risk_floor(n: int, m: int) -> float:
    """Guaranteed risk floor exp(-n^2 / (m - n)) / 2 of any clean-distribution detector."""
    _probe_regime(n, m)
    return 0.5 * math.exp(-(n * n) / (m - n))


def imposs_risk(
    detector: Detector, config: ImpossibilityConfig, trials: int, seed: int
) -> RiskEstimate:
    """Monte-Carlo risk of a clean-distribution detector against the sampler.

    J = 0 trials feed the detector genuine uniform i.i.d. data, J = 1 trials
    feed it the adversarial construction. ``detector`` is a harness
    detector, bound once to the clean view it may honestly hold: the pair
    (uniform, uniform, gamma, beta), whose mixture is uniform too, since the
    adversarial data's marginal law is exactly uniform. Blocks follow the
    block rule of :mod:`~bdlimits.rng` on path (PROBE,), with the target J.
    The scorer's draws after the data are independent of the data, however
    many outputs the data used, so a detector that uses them is a mixture of
    fixed detectors and the floor :func:`imposs_risk_floor` still holds.
    """
    _probe_regime(config.n, config.m)
    uniform = Categorical.uniform(config.k)
    score = detector(DistributionPair(uniform, uniform, config.gamma, config.beta))

    def draw(rows: int, rng: np.random.Generator) -> tuple:
        j = rng.integers(0, 2, rows)
        return j, _draw_anchored(rows, config, rng, config.gamma * j[:, None])

    return _estimate(draw, score, trials, seed, (Domain.PROBE,))


def imposs_probe(
    detector: Callable[[SymbolDataset, Categorical], int],
    config: ImpossibilityConfig,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """:func:`imposs_risk` for a fixed detector ``detector(d, p0)``, lifted
    by :func:`~bdlimits.harness.per_row` and called with the clean view's
    uniform p0. It runs at ``beta = 1`` too, since it ignores beta."""
    return imposs_risk(per_row(lambda d, pair, rng: detector(d, pair.p0)), config, trials, seed)
