"""Closed-form feasibility bounds, evaluated in base-10 log space.

The alphabet of an image dataset has size D**(W*H*C), e.g. 256**3072 for
32x32 RGB images, and the sample-size bounds built on it reach 10**369904.
Alphabet sizes and minimum training-set sizes are therefore passed around
as plain floats holding their base-10 logarithm, with -inf for zero, and
the bound formula is evaluated on those logs without overflow.

The log-ratio terms inside the bound formulas are natural logs, as in the
paper.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .distributions import (
    ENUMERATION_CAP,
    Categorical,
    DistributionPair,
    at_least,
    is_number,
    json_fields,
    product_tv_exact,
    unit_interval,
)
from .errors import ParameterError, ResourceCapError


def _positive_int(value: object, what: str) -> int:
    """``value`` as an int >= 1; booleans and non-integral numbers are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if not is_number(value) or not integral or value < 1:  # type: ignore[operator]
        raise ParameterError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DatasetSpec:
    """Alphabet description of a named dataset.

    Exactly one of the three shapes must be provided: image dimensions
    (width, height, channels, color depth) or per-feature categorical
    cardinalities, all integers >= 1, or a direct base-10 log of the
    alphabet size, finite and >= 0.
    """

    name: str
    width: int | None = None
    height: int | None = None
    channels: int | None = None
    color_depth: int | None = None
    cardinalities: tuple[int, ...] | None = None
    log10_size: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ParameterError(f"dataset name must be a string, got {self.name!r}")
        image_fields = (self.width, self.height, self.channels, self.color_depth)
        is_image = all(v is not None for v in image_fields)
        if not is_image and any(v is not None for v in image_fields):
            raise ParameterError(
                f"dataset {self.name!r} provides an incomplete image shape"
            )
        shapes = sum(
            (
                is_image,
                self.cardinalities is not None,
                self.log10_size is not None,
            )
        )
        if shapes != 1:
            raise ParameterError(
                f"dataset {self.name!r} must specify exactly one alphabet shape"
            )
        if is_image:
            for field in ("width", "height", "channels", "color_depth"):
                value = _positive_int(getattr(self, field), f"dataset {self.name!r} {field}")
                object.__setattr__(self, field, value)
        if self.cardinalities is not None:
            if not isinstance(self.cardinalities, (list, tuple)) or not self.cardinalities:
                raise ParameterError(f"dataset {self.name!r} cardinalities must be a nonempty list")
            cards = tuple(
                _positive_int(c, f"dataset {self.name!r} cardinality") for c in self.cardinalities
            )
            object.__setattr__(self, "cardinalities", cards)
        if self.log10_size is not None:
            size = self.log10_size
            if not is_number(size) or not 0.0 <= size < math.inf:
                raise ParameterError(
                    f"dataset {self.name!r} log10_size must be a finite number >= 0, got {size!r}"
                )

    @classmethod
    def from_jsonable(cls, data: dict) -> "DatasetSpec":
        (name,) = json_fields(data, "catalog entry", name=lambda name: name)
        return cls(
            name=name,
            width=data.get("width"),
            height=data.get("height"),
            channels=data.get("channels"),
            color_depth=data.get("color_depth"),
            cardinalities=data.get("cardinalities"),
            log10_size=data.get("log10_size"),
        )


@dataclass(frozen=True)
class BoundReport:
    """One row of the dataset feasibility table."""

    name: str
    log10_alphabet: float
    min_n_exponent: int

    def __post_init__(self) -> None:
        if self.min_n_exponent < 0:
            raise ParameterError("minimum-N exponent cannot be negative")

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "log10_alphabet": float(self.log10_alphabet),
            "min_n_exponent": int(self.min_n_exponent),
        }


def alphabet_log10(spec: DatasetSpec) -> float:
    """Base-10 log of the dataset's alphabet size."""
    if spec.log10_size is not None:
        return float(spec.log10_size)
    if spec.cardinalities is not None:
        return sum(math.log10(c) for c in spec.cardinalities)
    pixels = spec.width * spec.height * spec.channels  # type: ignore[operator]
    return pixels * math.log10(spec.color_depth)  # type: ignore[arg-type]


def _log10_sum(a: float, b: float) -> float:
    """log10(10**a + 10**b) for finite a and b, without overflow."""
    hi, lo = max(a, b), min(a, b)
    return hi + math.log10(1.0 + 10.0 ** (lo - hi))


def _min_n_log10(log_ratio: float, beta: float, log_alphabet: float) -> float:
    """log10 of sqrt(L^2/4 + (beta*|X| - 1) L) - L/2, where L = -log_ratio.

    ``log_ratio`` is a natural log. The bound binds only when it is negative
    and beta*|X| > 1; otherwise N_min is 0 and the result -inf. The value is
    evaluated in the rationalized form (beta*|X| - 1) L / (sqrt(L^2/4 +
    (beta*|X| - 1) L) + L/2), which has no cancellation.
    """
    if not 0.0 <= log_alphabet < math.inf:
        raise ParameterError(
            f"log10 alphabet size must be finite and >= 0, got {log_alphabet!r}"
        )
    if log_ratio >= 0.0 or beta == 0.0:
        return -math.inf
    t = math.log10(beta) + log_alphabet  # log10(beta*|X|)
    if t <= 0.0:
        return -math.inf
    log_excess = t + math.log10(-math.expm1(-t * math.log(10.0)))  # log10(beta*|X| - 1)
    log_product = log_excess + math.log10(-log_ratio)
    log_half = math.log10(-log_ratio / 2.0)
    log_root = _log10_sum(2.0 * log_half, log_product) / 2.0
    return log_product - _log10_sum(log_root, log_half)


def impossibility_min_n(alpha: float, beta: float, log_alphabet: float) -> float:
    """log10 of the training-set size below which alpha-error detection is ruled out.

    ``log_alphabet`` is log10|X|. The bound is log(2 alpha)/2 + sqrt(log(2
    alpha)^2 / 4 + (beta*|X| - 1) * log(1/(2 alpha))) with natural logs; the
    result is its base-10 log, or -inf when it is 0: at alpha = 1/2, beta = 0
    or beta*|X| <= 1.
    """
    if not 0.0 < alpha <= 0.5:
        raise ParameterError(f"alpha must be in (0, 0.5], got {alpha}")
    # alpha / 0.5 is 2 alpha exactly, so this is the r = 1/2 case bit for bit
    return sbd_min_n(alpha, beta, 0.5, log_alphabet)


def sbd_min_n(alpha: float, beta: float, r: float, log_alphabet: float) -> float:
    """Sample-detection variant of :func:`impossibility_min_n`, also log10 in
    and log10 out, with -inf for a bound of 0.

    ``r`` is the smaller of the prior masses on the two agreeing (j, i)
    cells; log(2 alpha) is replaced by log(alpha / r), so the bound is 0 for
    alpha >= r. At r = 1/2 this reproduces :func:`impossibility_min_n`
    exactly.
    """
    if r <= 0.0 or r > 0.5:
        raise ParameterError(f"r must be in (0, 0.5], got {r}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return _min_n_log10(math.log(alpha / r), unit_interval("beta", beta), log_alphabet)


def sbd_infinite_alphabet_feasible(alpha: float, r: float) -> bool:
    """On an infinite alphabet, alpha-error sample detection needs alpha >= r."""
    if r <= 0.0:
        raise ParameterError(f"r must be positive, got {r}")
    return alpha >= r


def achievability_alpha_bound(n: int, gamma: float, beta: float, k: int) -> float:
    """Risk threshold 2K exp(-2 N gamma^2 (1-beta)^2 / K^2).

    Any target risk strictly above this value is achievable by the
    type-distance detector; gamma = 0 or beta = 1 make it 2K, unsatisfiable
    for risks at or below one half.
    """
    at_least("n", n)
    at_least("k", k)
    unit_interval("gamma", gamma)
    unit_interval("beta", beta)
    return 2.0 * k * math.exp(-2.0 * n * gamma**2 * (1.0 - beta) ** 2 / k**2)


def type3_risk_floor(gamma: float, n: int, tv: float) -> float:
    """Lower bound max(0, 1/2 - gamma * n * tv / 2) on any full-knowledge detector."""
    return max(0.0, 0.5 - 0.5 * gamma * n * unit_interval("tv", tv))


def exact_type3_risk(pair: DistributionPair, n: int) -> float:
    """Exact optimal risk 1/2 - TV(P0^N, P1^N)/2, summed over class types.

    Both laws weigh a sample of N draws by its counts in the pair's symbol
    classes (:attr:`DistributionPair.classes`), so the sum runs over the
    C(N+L-1, L-1) types of the L classes: at most two for a uniform clean
    law against a point-mass backdoor, at any K. Raises
    :class:`ResourceCapError`, naming L and K, when those types exceed 1e7.
    """
    p0, p1 = pair.classes
    classes = p0.alphabet_size
    types = math.comb(n + classes - 1, classes - 1) if n >= 1 else 0
    if types > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{types} types of {n} draws on L = {classes} symbol classes of the "
            f"K = {pair.alphabet_size} symbols exceed the enumeration cap {ENUMERATION_CAP}"
        )
    return 0.5 - 0.5 * product_tv_exact(p0, p1, n)


def near_indistinguishable_pair(gamma: float, n: int, epsilon: float) -> DistributionPair:
    """Uniform pair with TV <= 2*epsilon/(gamma*n), forcing risk >= 1/2 - epsilon.

    p0 is uniform on {0, ..., m} and pb uniform on {1, ..., m} with
    m = floor(gamma*n / (2*epsilon)), so TV(p0, pb) = 1/(m+1). The pair's
    beta is set to 1 - TV, making it exactly marginally admissible.
    """
    if epsilon <= 0.0:
        raise ParameterError("epsilon must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError("gamma must be in (0, 1]")
    at_least("n", n)
    m = math.floor(gamma * n / (2.0 * epsilon))
    if m < 1:
        raise ParameterError(
            f"support size {m + 1} too small; decrease epsilon or increase gamma*n"
        )
    k = m + 1
    p0 = Categorical.uniform(k)
    pb_probs = np.zeros(k)
    pb_probs[1:] = 1.0 / m
    pb = Categorical(pb_probs)
    tv = 1.0 / k
    assert tv <= 2.0 * epsilon / (gamma * n) + 1e-15
    return DistributionPair(p0, pb, gamma, beta=1.0 - tv)


def min_n_exponent(log10_min_n: float) -> int:
    """Reporting exponent: floor(log10 N_min), never below 0."""
    return math.floor(log10_min_n) if log10_min_n > 0.0 else 0


def table_report(
    alpha: float, beta: float, catalog: list[DatasetSpec]
) -> list[BoundReport]:
    """One feasibility row per dataset at the given alpha and beta."""
    rows = []
    for spec in catalog:
        log_alphabet = alphabet_log10(spec)
        min_n = impossibility_min_n(alpha, beta, log_alphabet)
        rows.append(
            BoundReport(
                name=spec.name,
                log10_alphabet=log_alphabet,
                min_n_exponent=min_n_exponent(min_n),
            )
        )
    return rows


def load_catalog(path: str | None = None) -> list[DatasetSpec]:
    """Load a dataset catalog; without a path, the bundled eight-dataset one."""
    if path is None:
        text = resources.files("bdlimits").joinpath("data/dataset_catalog.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, list):
        raise ParameterError("catalog must be a JSON list of dataset specs")
    return [DatasetSpec.from_jsonable(entry) for entry in data]
