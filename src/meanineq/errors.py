"""Exception types shared across the library, the rule for reading arguments,
and ``_Record``, the base of every record with a hand-written ``__init__``.

Every public entry reads its numeric arguments through the readers here,
and no other module imports ``numbers``:

* ``_real``: a ``numbers.Real`` that is not a bool, read as a finite
  float; an integer past the float range reads as +-inf and is refused;
* ``_integer``: a ``numbers.Integral`` that is not a bool, of at most 64
  bits (a seed's width), read as an int;
* ``_reals``: what ``numpy.asarray`` makes an array of kind f, i or u,
  with no bool element (numpy reads one as 0 or 1), read as float64.

Each raises :class:`DomainError` naming the argument, in one form:
``<name> must be a finite real number, got <value>``, ``<name> must be an
integer of at most 64 bits, got <value>`` or ``<name> must be real
numbers, got <value>``.  A range test that follows, such as r > 1, is the
caller's.  A message shows a caller's value by ``_show``, reprlib's
abbreviation, which names an int too long for ``repr`` by its bit length.
This module imports no numpy; the CLI reads the numbers of its
run-configuration files with ``_to_float``, without loading numpy.
"""

import math
import numbers
import reprlib

__all__ = ["ConfigError", "DegenerateInput", "DomainError", "MeanIneqError"]


class MeanIneqError(Exception):
    """Base class for all library errors."""


class ConfigError(MeanIneqError):
    """Raised when a sample/weight configuration is malformed."""


class DomainError(MeanIneqError):
    """Raised when arguments fall outside an operation's stated domain."""


class DegenerateInput(MeanIneqError):
    """Raised when an expression degenerates to 0/0 (e.g. constant samples)."""


class _Shower(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than int-to-str conversion allows
            return f"<int of {x.bit_length()} bits>"


_show = _Shower().repr


class _Record:
    """An immutable record, a frozen dataclass without ``dataclasses``: its fields are
    its instance dict, which a subclass's ``__init__`` sets with one update.  A record
    whose ``__init__`` the package writes by hand is an ``_Record``; one whose
    ``__init__`` is generated stays a frozen dataclass."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def _to_float(value: numbers.Real) -> float:
    """A real number as a float; an integer past the float range reads as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(value, what: str) -> float:
    """``value`` read as a finite float, or :class:`DomainError` naming ``what``."""
    if type(value) is not float and isinstance(value, numbers.Real) and type(value) is not bool:
        value = _to_float(value)
    if type(value) is not float or not math.isfinite(value):
        raise DomainError(f"{what} must be a finite real number, got {_show(value)}")
    return value


def _integer(value, what: str) -> int:
    """``value`` read as an int of at most 64 bits, or :class:`DomainError` naming ``what``."""
    # an int skips the ABC check, which costs about 0.4 us
    if type(value) is int or type(value) is not bool and isinstance(value, numbers.Integral):
        if int(value).bit_length() <= 64:
            return int(value)
    raise DomainError(f"{what} must be an integer of at most 64 bits, got {_show(value)}")


def _reals(values, what: str):
    """``values`` read as a float64 array (a float64 ndarray is not copied),
    or :class:`DomainError` naming ``what``."""
    import numpy as np

    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting: refused below as an object array
        array = np.asarray(values, dtype=object)
    if array.dtype.kind not in "fiu" or values is not array and not {
            bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
        raise DomainError(f"{what} must be real numbers, got {_show(values)}")
    return array.astype(float, copy=False)
