"""Argument rules: what counts as a number, a JSON field, a range, a count.

Each rule is stated here once and every module imports it from here. The
module imports no numpy, so the closed-form bounds and the command line's
argument handling load without it. It also names the built-in detectors a
command may select; :data:`bdlimits.harness.DETECTORS` maps each name to
its factory.
"""

from __future__ import annotations

import numbers
from typing import Callable

from .errors import ParameterError

#: names of the built-in harness detectors, in the order of ``DETECTORS``
DETECTOR_NAMES = ("np", "type2-tv")


def is_number(value: object) -> bool:
    """Whether ``value`` is a real number; booleans are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def json_fields(data: object, kind: str, **convert: Callable) -> list:
    """The named fields of the JSON object ``data``, each through its converter;
    any failure raises a ParameterError that names ``kind`` and the field."""
    if not isinstance(data, dict):
        raise ParameterError(f"{kind} must be a JSON object, got {type(data).__name__}")
    values = []
    for key, to_value in convert.items():
        if key not in data:
            raise ParameterError(f"{kind} has no {key!r} field")
        try:
            values.append(to_value(data[key]))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{kind} field {key!r}: {exc}") from exc
    return values


def within(
    name: str, value: float, low: float, high: float, open_low: bool = False, open_high: bool = False
) -> float:
    """``value`` + 0.0 when it lies between ``low`` and ``high``, each end closed
    unless marked open; raises :class:`ParameterError` "{name} must be in
    {interval}, got {value}" otherwise. NaN fails both comparisons, an end may
    be +-inf, the + 0.0 gives -0.0 the config hash of 0.0, and the interval's
    text is built only for the error."""
    if (low < value if open_low else low <= value) and (value < high if open_high else value <= high):
        return value + 0.0
    interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    raise ParameterError(f"{name} must be in {interval}, got {value}")


def at_least(name: str, value: int, low: int = 1) -> None:
    """Raise :class:`ParameterError` naming ``name`` when the count ``value``
    is below ``low``."""
    if value < low:
        raise ParameterError(f"{name} must be >= {low}")
