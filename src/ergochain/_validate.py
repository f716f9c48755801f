"""Parameter domains, each declared once for the whole package.

One rule decides what a number is: Python and numpy integers are integers,
those plus Python and numpy floats are reals, and ``bool`` is neither. Each
scalar validator returns a plain Python ``int`` or ``float`` (JSON bytes and
configuration hashes depend on that) and raises ``error``:
InvalidInputError for library arguments, InvalidConfigError where
``ChainConfig`` or the CLI passes it in.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInputError

ENCODINGS = ("coherent", "mixed")

# Roundoff slack of the unit interval: values within it are clipped onto
# [0, 1], values beyond it are errors.
UNIT_SLACK = 1e-12

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_REAL_KINDS = "iuf"  # numpy dtype kinds of integer and floating arrays


def integer(
    name: str, value, low: int, high: int | None = None, error: type = InvalidInputError
) -> int:
    """An integer in [low, high] (no upper end when ``high`` is None)."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        upper = "" if high is None else f" and <= {high}"
        raise error(f"{name} must be >= {low}{upper}, got {value}")
    return int(value)


def real(
    name: str,
    value,
    low: float = -math.inf,
    high: float = math.inf,
    error: type = InvalidInputError,
) -> float:
    """A finite real number in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise error(f"{name} must be finite, got {value!r}") from None
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if not low <= value <= high:
        raise error(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def angle(name: str, value, error: type = InvalidInputError) -> float:
    """A preparation angle in [0, pi]."""
    return real(name, value, 0.0, math.pi, error)


def positive(name: str, value, error: type = InvalidInputError) -> float:
    """A finite real number > 0."""
    value = real(name, value, error=error)
    if value <= 0:
        raise error(f"{name} must be > 0, got {value}")
    return value


def reals(name: str, values, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """``real`` elementwise: a float array of finite values in [low, high]."""
    array = np.asarray(values)
    if array.dtype.kind not in _REAL_KINDS:
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {array.dtype}")
    array = array.astype(float)
    if not np.all(np.isfinite(array) & (array >= low) & (array <= high)):
        raise InvalidInputError(f"{name} must be finite and lie in [{low}, {high}]")
    return array


def unit_interval(name: str, value) -> float:
    """[0, 1] up to UNIT_SLACK, then clipped."""
    return min(max(real(name, value, -UNIT_SLACK, 1.0 + UNIT_SLACK), 0.0), 1.0)


def unit_intervals(name: str, values):
    """``unit_interval`` of a scalar, or of each entry of an array of one or
    more dimensions, which gives a float array."""
    if isinstance(values, np.ndarray) and values.ndim:
        return np.clip(reals(name, values, -UNIT_SLACK, 1.0 + UNIT_SLACK), 0.0, 1.0)
    return unit_interval(name, values)


def complex_number(name: str, value) -> complex:
    """A finite complex number; reals count as complex, ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, (*_REALS, complex, np.complexfloating)):
        raise InvalidInputError(f"{name} must be a complex number, got {value!r}")
    try:
        value = complex(value)
    except OverflowError:
        raise InvalidInputError(f"{name} must be finite, got {value!r}") from None
    if not cmath.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return value


def encoding(value) -> str:
    """One of ENCODINGS."""
    if not isinstance(value, str) or value not in ENCODINGS:
        raise InvalidInputError(f"encoding must be one of {ENCODINGS}, got {value!r}")
    return value
