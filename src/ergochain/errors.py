"""Exception taxonomy for the ergochain package.

Every error raised deliberately by the library derives from ErgochainError so
callers can catch the whole family at once. The CLI maps configuration-shaped
failures to exit code 2 and numerical failures to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "ErgochainError",
    "InvalidConfigError",
    "InvalidInputError",
    "MisuseError",
    "NumericalFailureError",
    "UndefinedEfficiencyError",
    "UndefinedMetricError",
]


class ErgochainError(Exception):
    """Base class for all deliberate ergochain errors."""


class InvalidConfigError(ErgochainError):
    """A run configuration is malformed: unknown key, missing field, bad value."""


class InvalidInputError(ErgochainError):
    """A function argument is outside its documented domain."""


class MisuseError(ErgochainError):
    """An API was called in a way that is structurally wrong (not a value issue).

    Example: requesting the engineered-coupling closed form for a chain whose
    bonds are not engineered couplings.
    """


class NumericalFailureError(ErgochainError):
    """A numerical routine failed to meet its accuracy contract.

    Carries the offending residual so callers can report how far the result
    was from acceptable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class UndefinedEfficiencyError(ErgochainError):
    """Rescaled efficiency requested for a state with zero initial ergotropy."""


class UndefinedMetricError(ErgochainError):
    """An ensemble comparison metric is undefined for the given inputs."""
