"""Closed-form feasibility bounds, evaluated in base-10 log space.

The alphabet of an image dataset has size D**(W*H*C), e.g. 256**3072 for
32x32 RGB images, and the sample-size bounds built on it reach 10**369904.
Alphabet sizes and minimum training-set sizes are therefore passed around
as plain floats holding their base-10 logarithm, with -inf for zero, and
the bound formula is evaluated on those logs without overflow.

The bounds are pure ``math``. Only the two functions that build laws,
:func:`exact_type3_risk` and :func:`near_indistinguishable_pair`, load
numpy and :mod:`~bdlimits.distributions`, when first called, so the
bounds table loads neither.

The log-ratio terms inside the bound formulas are natural logs, as in the
paper.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .checks import at_least, is_number, json_fields, within
from .errors import ParameterError

if TYPE_CHECKING:
    from .distributions import DistributionPair


@functools.cache
def _distributions():
    """The module of the laws, imported on the first call. A ``from
    .distributions import`` in a function body would run the import
    machinery on every call, about a tenth of a two-class
    :func:`exact_type3_risk`; the cached call costs next to nothing."""
    from . import distributions

    return distributions


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
            what = f"dataset {self.name!r} log10_size"
            if not is_number(self.log10_size):
                raise ParameterError(f"{what} must be a number, got {self.log10_size!r}")
            within(what, self.log10_size, 0.0, math.inf, open_high=True)

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
        at_least("minimum-N exponent", self.min_n_exponent, 0)

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
    within("log10 alphabet size", log_alphabet, 0.0, math.inf, open_high=True)
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
    within("alpha", alpha, 0.0, 0.5, open_low=True)
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
    within("r", r, 0.0, 0.5, open_low=True)
    within("alpha", alpha, 0.0, math.inf, open_low=True)
    return _min_n_log10(math.log(alpha / r), within("beta", beta, 0.0, 1.0), log_alphabet)


def sbd_infinite_alphabet_feasible(alpha: float, r: float) -> bool:
    """On an infinite alphabet, alpha-error sample detection needs alpha >= r."""
    return alpha >= within("r", r, 0.0, math.inf, open_low=True)


def achievability_alpha_bound(n: int, gamma: float, beta: float, k: int) -> float:
    """Risk threshold 2K exp(-2 N gamma^2 (1-beta)^2 / K^2).

    Any target risk strictly above this value is achievable by the
    type-distance detector; gamma = 0 or beta = 1 make it 2K, unsatisfiable
    for risks at or below one half.
    """
    at_least("n", n)
    at_least("k", k)
    within("gamma", gamma, 0.0, 1.0)
    within("beta", beta, 0.0, 1.0)
    return 2.0 * k * math.exp(-2.0 * n * gamma**2 * (1.0 - beta) ** 2 / k**2)


def type3_risk_floor(gamma: float, n: int, tv: float) -> float:
    """Lower bound max(0, 1/2 - gamma * n * tv / 2) on any full-knowledge
    detector, for gamma and tv in [0, 1] and n >= 1."""
    at_least("n", n)
    return max(0.0, 0.5 - 0.5 * within("gamma", gamma, 0.0, 1.0) * n * within("tv", tv, 0.0, 1.0))


def exact_type3_risk(pair: DistributionPair, n: int) -> float:
    """Exact optimal risk 1/2 - TV(P0^N, P1^N)/2, summed over class types.

    Both laws weigh a sample of N draws by its counts in the pair's symbol
    classes (:attr:`DistributionPair.classes`), so the sum runs over the
    C(N+L-1, L-1) types of the L classes: at most two for a uniform clean
    law against a point-mass backdoor, at any K. Raises
    :class:`ResourceCapError`, naming L and K, when those types exceed the
    cap of :func:`~bdlimits.distributions.within_enumeration_cap`.
    """
    laws = _distributions()
    p0, p1 = pair.classes
    classes = p0.alphabet_size
    symbols = f"L = {classes} symbol classes of the K = {pair.alphabet_size} symbols"
    laws.within_enumeration_cap(n, classes, symbols)
    return 0.5 - 0.5 * laws.product_tv_exact(p0, p1, n)


def near_indistinguishable_pair(gamma: float, n: int, epsilon: float) -> DistributionPair:
    """Uniform pair with TV <= 2*epsilon/(gamma*n), forcing risk >= 1/2 - epsilon.

    p0 is uniform on {0, ..., m} and pb uniform on {1, ..., m} with
    m = floor(gamma*n / (2*epsilon)), so TV(p0, pb) = 1/(m+1). The pair's
    beta is set to 1 - TV, making it exactly marginally admissible.
    """
    import numpy as np

    laws = _distributions()
    within("epsilon", epsilon, 0.0, math.inf, open_low=True)
    within("gamma", gamma, 0.0, 1.0, open_low=True)
    at_least("n", n)
    m = math.floor(gamma * n / (2.0 * epsilon))
    if m < 1:
        raise ParameterError(
            f"support size {m + 1} too small; decrease epsilon or increase gamma*n"
        )
    k = m + 1
    p0 = laws.Categorical.uniform(k)
    pb_probs = np.zeros(k)
    pb_probs[1:] = 1.0 / m
    pb = laws.Categorical(pb_probs)
    tv = 1.0 / k
    assert tv <= 2.0 * epsilon / (gamma * n) + 1e-15
    return laws.DistributionPair(p0, pb, gamma, beta=1.0 - tv)


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
        from importlib import resources

        text = resources.files("bdlimits").joinpath("data/dataset_catalog.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, list):
        raise ParameterError("catalog must be a JSON list of dataset specs")
    return [DatasetSpec.from_jsonable(entry) for entry in data]
