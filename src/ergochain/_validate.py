"""Parameter domains, arrays and object types, each declared once for the whole package.

One rule decides what a number is: Python and numpy integers are integers,
those plus Python and numpy floats are reals, and ``bool`` is neither. Each
scalar validator returns a plain Python ``int`` or ``float`` (JSON bytes and
configuration hashes depend on that). Every rule raises InvalidInputError.
Two boundaries turn it into InvalidConfigError with the same message, each
in one place: ``ChainConfig`` for its fields, and ``cli.resolve_config`` for
the keys of a configuration file and the seed.

Arrays follow the same rule entry by entry (``reals``). ``frozen`` is the one
rule for the arrays a value type holds: a nonempty float array of finite
reals, flagged read-only. It sets no flag on the caller's array and copies
it, so no write to the array the caller passed, made writable again or not,
reaches the value type. Only an array that ``sealed`` registered, one the
package has just made, is taken without that copy. Neither rule guards the
held array against whoever reads it out: numpy lets that reader set
``flags.writeable = True`` again and write, and the write then reaches the
value type and every array that shares it (``build_hamiltonian`` takes a
``BondSet``'s values as its offdiagonal without a copy). Read-only is a
guard against an accidental write, not a seal.
``instance`` is the one check of an object's type.
"""

from __future__ import annotations

import cmath
import math
import sys
import weakref

import numpy as np

from .errors import InvalidInputError

ENCODINGS = ("coherent", "mixed")

# Roundoff slack of the unit interval: values within it are clipped onto
# [0, 1], values beyond it are errors.
UNIT_SLACK = 1e-12

# The largest value ``positive`` takes (and a disorder half-width): twice it,
# as in 2J, 2B and a draw's 2 delta, stays finite.
HALF_MAX = sys.float_info.max / 2

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_REAL_KINDS = "iuf"  # numpy dtype kinds of integer and floating arrays

# The arrays ``sealed`` made read-only, by id; an entry goes with its array.
_SEALED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """An integer in [low, high] (no upper end when ``high`` is None)."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        upper = "" if high is None else f" and <= {high}"
        raise InvalidInputError(f"{name} must be >= {low}{upper}, got {value}")
    return int(value)


def real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """A finite real number in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} must be finite, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    if not low <= value <= high:
        raise InvalidInputError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def angle(name: str, value) -> float:
    """A preparation angle in [0, pi]."""
    return real(name, value, 0.0, math.pi)


def positive(name: str, value) -> float:
    """A real number in (0, HALF_MAX]."""
    value = real(name, value, high=HALF_MAX)
    if value <= 0:
        raise InvalidInputError(f"{name} must be > 0, got {value}")
    return value


def reals(name: str, values, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """``real`` elementwise: a float array of finite values in [low, high].

    A float array is returned as it is, not copied. Its range is read from
    its least and largest entries, so the check makes no array-sized
    temporary; a NaN propagates into both and fails. (A sum would not do:
    [1e308, 1e308] overflows.)
    """
    array = np.asarray(values)
    if array.dtype.kind not in _REAL_KINDS:
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {array.dtype}")
    array = array.astype(float, copy=False)
    if array.size:
        lowest, highest = float(array.min()), float(array.max())
        finite = math.isfinite(lowest) and math.isfinite(highest)
        if not (finite and low <= lowest and highest <= high):
            raise InvalidInputError(f"{name} must be finite and lie in [{low}, {high}]")
    return array


def frozen(name: str, values, ndim: int = 1) -> np.ndarray:
    """A nonempty ``ndim``-D float array of finite reals (``reals``), read-only.

    An array that ``sealed`` registered is taken as it is. Any other, a
    read-only one or a view included, is copied once and the copy sealed:
    the caller's array keeps its flags, and a later write to it, after
    making it writable again too, cannot reach the value type that holds
    the copy.
    """
    array = reals(name, values)
    if array.ndim != ndim or array.size < 1:
        raise InvalidInputError(f"{name} must be a nonempty {ndim}-D array, got {array.shape}")
    return array if _SEALED.get(id(array)) is array else sealed(array.copy())


def sealed(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only in place and registered, for an array the package
    has just made and hands to a value type, which then holds it without a copy."""
    array.setflags(write=False)
    _SEALED[id(array)] = array
    return array


def instance(name: str, value, kind: type):
    """``value`` itself if it is a ``kind``, else InvalidInputError."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidInputError(f"{name} must be {article} {kind.__name__}")
    return value


def unit_interval(name: str, value):
    """[0, 1] up to UNIT_SLACK, then clipped: a float for a scalar, a float
    array for an array of one or more dimensions, entry by entry."""
    if isinstance(value, np.ndarray) and value.ndim:
        return np.clip(reals(name, value, -UNIT_SLACK, 1.0 + UNIT_SLACK), 0.0, 1.0)
    return min(max(real(name, value, -UNIT_SLACK, 1.0 + UNIT_SLACK), 0.0), 1.0)


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
