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
reals, copied once into immutable memory. The copy is a read-only array over
a ``bytes`` object, and numpy makes it writable again neither through the
array, nor through its ``.base``, nor through ``as_strided``. So no write to
the array the caller passed reaches the value type, and no reader of the
held array can write to it, or to another value type that holds the same
numbers. Every array a value type holds takes this one copy, the (N, N)
eigenvectors of the package's own routes included.
``instance`` is the one check of an object's type.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import InvalidInputError

ENCODINGS = ("coherent", "mixed")

# Roundoff slack of the unit interval: values within it are clipped onto
# [0, 1], values beyond it are errors.
UNIT_SLACK = 1e-12

# The largest value ``positive`` takes (and a disorder half-width): twice it,
# as in 2J, 2B and a draw's 2 delta, stays finite.
HALF_MAX = sys.float_info.max / 2

# The longest chain ``sites`` takes: 2^53, the largest integer a float holds
# exactly, so every N converts to a float exactly, and a float formula of N
# (``gn_factor``, ``reflection_time``) cannot raise a raw OverflowError.
MAX_SITES = 2**53

# The largest count of realizations or bins (and of the CLI's angles), so a
# count that cannot be allocated is an InvalidInputError, not a MemoryError.
MAX_COUNT = 2**20

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_REAL_KINDS = "iuf"  # numpy dtype kinds of integer and floating arrays


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """An integer in [low, high] (no upper end when ``high`` is None)."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        upper = "" if high is None else f" and <= {high}"
        raise InvalidInputError(f"{name} must be >= {low}{upper}, got {value}")
    return int(value)


def sites(value) -> int:
    """A chain length ``n_sites``: an integer in [2, MAX_SITES]."""
    return integer("n_sites", value, 2, MAX_SITES)


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
    """A nonempty ``ndim``-D float array of finite reals (``reals``), copied once
    into immutable memory.

    The copy is C-ordered and read-only over a ``bytes`` object, which numpy
    will not make writable again. The caller's array keeps its flags, and
    no later write to it reaches the copy. The copy is one more array of
    the input's size beside it (``array.tobytes()``).
    """
    array = reals(name, values)
    if array.ndim != ndim or array.size < 1:
        raise InvalidInputError(f"{name} must be a nonempty {ndim}-D array, got {array.shape}")
    return np.frombuffer(array.tobytes(), dtype=float).reshape(array.shape)


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
