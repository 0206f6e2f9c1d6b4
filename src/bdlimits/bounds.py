"""Closed-form feasibility bounds, evaluated in base-10 log space.

The alphabet of an image dataset has size D**(W*H*C), e.g. 256**3072 for
32x32 RGB images, and the sample-size bounds built on it reach 10**369904.
:class:`LogNumber` represents such nonnegative reals by their base-10
logarithm so the bound formulas can be evaluated without overflow, while
remaining bit-compatible with native floats on small inputs.

All logarithms inside the bound formulas are natural; results are converted
to base 10 only for reporting.
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
    mix,
    product_tv_exact,
)
from .errors import ParameterError

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class LogNumber:
    """A nonnegative real stored as its base-10 logarithm.

    Multiplication, powers and comparisons are exact in log space; addition
    and subtraction go through log-sum-exp with relative error below 1e-12.
    Zero is carried as an explicit flag since it has no logarithm.
    """

    log10_value: float
    is_zero: bool = False

    @classmethod
    def zero(cls) -> "LogNumber":
        return cls(float("-inf"), True)

    @classmethod
    def from_float(cls, x: float) -> "LogNumber":
        if x < 0.0 or not math.isfinite(x):
            raise ParameterError(f"LogNumber requires a finite nonnegative value, got {x}")
        if x == 0.0:
            return cls.zero()
        return cls(math.log10(x))

    @classmethod
    def from_log10(cls, log10_value: float) -> "LogNumber":
        return cls(float(log10_value))

    def to_float(self) -> float:
        """Native float value; inf when the exponent exceeds float range."""
        if self.is_zero:
            return 0.0
        if self.log10_value > 308.0:
            return math.inf
        return 10.0**self.log10_value

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        if self.is_zero or other.is_zero:
            return LogNumber.zero()
        return LogNumber(self.log10_value + other.log10_value)

    def __truediv__(self, other: "LogNumber") -> "LogNumber":
        if other.is_zero:
            raise ZeroDivisionError("division by LogNumber zero")
        if self.is_zero:
            return LogNumber.zero()
        return LogNumber(self.log10_value - other.log10_value)

    def __add__(self, other: "LogNumber") -> "LogNumber":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = max(self.log10_value, other.log10_value), min(
            self.log10_value, other.log10_value
        )
        return LogNumber(hi + math.log1p(10.0 ** (lo - hi)) / _LN10)

    def __sub__(self, other: "LogNumber") -> "LogNumber":
        """Difference; requires self >= other."""
        if other.is_zero:
            return self
        if self < other:
            raise ParameterError("LogNumber subtraction would be negative")
        diff = other.log10_value - self.log10_value
        if diff >= 0.0:  # equal values up to float resolution
            return LogNumber.zero()
        rest = -math.expm1(diff * _LN10)
        if rest <= 0.0:
            return LogNumber.zero()
        return LogNumber(self.log10_value + math.log10(rest))

    def power(self, exponent: float) -> "LogNumber":
        if self.is_zero:
            if exponent <= 0.0:
                raise ParameterError("zero cannot be raised to a nonpositive power")
            return LogNumber.zero()
        return LogNumber(self.log10_value * exponent)

    def sqrt(self) -> "LogNumber":
        return self.power(0.5)

    def _key(self) -> tuple[int, float]:
        return (0, 0.0) if self.is_zero else (1, self.log10_value)

    def __lt__(self, other: "LogNumber") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "LogNumber") -> bool:
        return self._key() <= other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogNumber):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "LogNumber(0)" if self.is_zero else f"LogNumber(10^{self.log10_value:g})"


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive_int(value: object, what: str) -> int:
    """``value`` as an int >= 1; booleans and non-integral numbers are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if not _is_number(value) or not integral or value < 1:  # type: ignore[operator]
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
            if len(self.cardinalities) == 0:
                raise ParameterError(f"dataset {self.name!r} lists no cardinalities")
            cards = tuple(
                _positive_int(c, f"dataset {self.name!r} cardinality") for c in self.cardinalities
            )
            object.__setattr__(self, "cardinalities", cards)
        if self.log10_size is not None:
            size = self.log10_size
            if not _is_number(size) or not 0.0 <= size < math.inf:
                raise ParameterError(
                    f"dataset {self.name!r} log10_size must be a finite number >= 0, got {size!r}"
                )

    @classmethod
    def from_jsonable(cls, data: dict) -> "DatasetSpec":
        return cls(
            name=data["name"],
            width=data.get("width"),
            height=data.get("height"),
            channels=data.get("channels"),
            color_depth=data.get("color_depth"),
            cardinalities=tuple(data["cardinalities"]) if "cardinalities" in data else None,
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


def alphabet_log10(spec: DatasetSpec) -> LogNumber:
    """Base-10 log of the dataset's alphabet size."""
    if spec.log10_size is not None:
        return LogNumber.from_log10(spec.log10_size)
    if spec.cardinalities is not None:
        return LogNumber.from_log10(sum(math.log10(c) for c in spec.cardinalities))
    pixels = spec.width * spec.height * spec.channels  # type: ignore[operator]
    return LogNumber.from_log10(pixels * math.log10(spec.color_depth))  # type: ignore[arg-type]


def _min_n_from_log_terms(log_ratio: float, beta: float, log_alphabet: LogNumber) -> LogNumber:
    """Shared core: log_ratio/2 + sqrt(log_ratio^2/4 + (beta*|X| - 1)*(-log_ratio)).

    ``log_ratio`` is a natural log and must be <= 0 for the bound to bind;
    positive values and beta*|X| <= 1 clamp to zero.
    """
    if log_ratio > 0.0:
        return LogNumber.zero()
    beta_alphabet = LogNumber.from_float(beta) * log_alphabet
    one = LogNumber.from_float(1.0)
    if beta_alphabet <= one or log_ratio == 0.0:
        return LogNumber.zero()
    neg_log = -log_ratio
    discriminant = (beta_alphabet - one) * LogNumber.from_float(neg_log) + LogNumber.from_float(
        log_ratio * log_ratio / 4.0
    )
    root = discriminant.sqrt()
    half = LogNumber.from_float(neg_log / 2.0)
    if root <= half:
        return LogNumber.zero()
    return root - half


def impossibility_min_n(alpha: float, beta: float, log_alphabet: LogNumber) -> LogNumber:
    """Minimum training-set size below which alpha-error detection is ruled out.

    Evaluates log(2 alpha)/2 + sqrt(log(2 alpha)^2 / 4 + (beta*|X| - 1) *
    log(1/(2 alpha))) with natural logs, clamped to 0 when beta*|X| <= 1 or
    the discriminant turns negative. At alpha = 1/2 the bound is always 0.
    """
    if not 0.0 < alpha <= 0.5:
        raise ParameterError(f"alpha must be in (0, 0.5], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    return _min_n_from_log_terms(math.log(2.0 * alpha), beta, log_alphabet)


def sbd_min_n(alpha: float, beta: float, r: float, log_alphabet: LogNumber) -> LogNumber:
    """Sample-detection variant of :func:`impossibility_min_n`.

    ``r`` is the smaller of the prior masses on the two agreeing (j, i)
    cells; log(2 alpha) is replaced by log(alpha / r). At r = 1/2 this
    reproduces :func:`impossibility_min_n` exactly.
    """
    if r <= 0.0 or r > 0.5:
        raise ParameterError(f"r must be in (0, 0.5], got {r}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    return _min_n_from_log_terms(math.log(alpha / r), beta, log_alphabet)


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
    if n < 1 or k < 1:
        raise ParameterError("n and k must be >= 1")
    if not 0.0 <= gamma <= 1.0 or not 0.0 <= beta <= 1.0:
        raise ParameterError("gamma and beta must be in [0, 1]")
    return 2.0 * k * math.exp(-2.0 * n * gamma**2 * (1.0 - beta) ** 2 / k**2)


def type3_risk_floor(gamma: float, n: int, tv: float) -> float:
    """Lower bound max(0, 1/2 - gamma * n * tv / 2) on any full-knowledge detector."""
    if not 0.0 <= tv <= 1.0:
        raise ParameterError(f"tv must be in [0, 1], got {tv}")
    return max(0.0, 0.5 - 0.5 * gamma * n * tv)


def exact_type3_risk(pair: DistributionPair, n: int, cap: int = ENUMERATION_CAP) -> float:
    """Exact optimal risk 1/2 - TV(P0^N, P1^N)/2, summed over the types of N draws.

    Raises :class:`ResourceCapError` when the C(N+K-1, K-1) types exceed ``cap``.
    """
    return 0.5 - 0.5 * product_tv_exact(pair.p0, mix(pair), n, cap)


def near_indistinguishable_pair(gamma: float, n: int, epsilon: float) -> DistributionPair:
    """Uniform pair with TV <= 2*epsilon/(gamma*n), forcing risk >= 1/2 - epsilon.

    p0 is uniform on {0, ..., m} and pb uniform on {1, ..., m} with
    m = floor(gamma*n / (2*epsilon)), so TV(p0, pb) = 1/(m+1). The pair's
    beta is set to 1 - TV, making it exactly marginally admissible.
    """
    if epsilon <= 0.0:
        raise ParameterError("epsilon must be positive")
    if not 0.0 < gamma <= 1.0 or n < 1:
        raise ParameterError("gamma must be in (0, 1] and n >= 1")
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


def min_n_exponent(min_n: LogNumber) -> int:
    """Reporting exponent: floor(log10 N_min), never below 0."""
    if min_n.is_zero:
        return 0
    return max(0, math.floor(min_n.log10_value))


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
                log10_alphabet=log_alphabet.log10_value,
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
