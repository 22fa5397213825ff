"""Exception types shared across the library, and the rule for reading a real number.

A real number is a ``numbers.Real`` that is not a bool; it is read as a
float, and an integer past the float range reads as +-inf, so that the
range check that follows refuses it with its own message instead of an
``OverflowError``.  The rule needs no numpy, so the CLI reads its
run-configuration files by it without loading the numeric modules.
"""

import math
import numbers

__all__ = ["ConfigError", "DegenerateInput", "DomainError", "MeanIneqError"]


class MeanIneqError(Exception):
    """Base class for all library errors."""


class ConfigError(MeanIneqError):
    """Raised when a sample/weight configuration is malformed."""


class DomainError(MeanIneqError):
    """Raised when arguments fall outside an operation's stated domain."""


class DegenerateInput(MeanIneqError):
    """Raised when an expression degenerates to 0/0 (e.g. constant samples)."""


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _to_float(value: numbers.Real) -> float:
    """A real number as a float; an integer past the float range reads as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(value, what: str) -> float:
    """``value`` read as a float, or :class:`DomainError` naming ``what``; a float passes as is."""
    if type(value) is float:
        return value
    if not _is_real(value):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return _to_float(value)


def _is_tolerance(value) -> bool:
    """Whether ``value`` is a real number, finite and >= 0; a float skips the ABC check."""
    if type(value) is not float:
        if not _is_real(value):
            return False
        value = _to_float(value)
    return 0.0 <= value < math.inf
