"""Exception types raised across the package, and the checks of integer and
real arguments, of lists of reals and of arrays, that raise them."""

import math

import numpy as np


class SpinPathError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(SpinPathError, ValueError):
    """An argument lies outside the documented domain."""


class PreconditionError(SpinPathError, ValueError):
    """An input object violates a documented precondition or invariant."""


class InsufficientDataError(SpinPathError):
    """Too few (distinct) data points for the requested reduction."""


class SingularFitError(SpinPathError):
    """Degenerate fit geometry, e.g. all phases equal modulo pi."""


class CsvFormatError(SpinPathError):
    """A scan CSV file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(SpinPathError):
    """A run-configuration file could not be parsed or validated."""


_REALS = (int, float, np.integer, np.floating)

def _shown(value) -> str:
    # An int of more than 30 digits by its digit count: Python refuses to
    # print one of more than 4,300, and a long one would swamp the message.
    if type(value) is not int or abs(value) < 10**30:
        return repr(value)
    digits = int(abs(value).bit_length() * math.log10(2))  # the digit count or one below
    return f"an integer of {digits + (abs(value) >= 10**digits)} digits"


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a plain int: a Python or numpy integer, never a bool, in
    [low, high]. Anything else is a :class:`DomainError` naming ``name``."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise DomainError(f"{name} must be at least {low}, got {_shown(value)}")
    if high is not None and value > high:
        # A bound one below a large power of two reads as one: 2**63 - 1.
        if high > 2**32 and (high + 1) & high == 0:
            high = f"2**{high.bit_length()} - 1 = {high}"
        raise DomainError(f"{name} must not exceed {high}, got {_shown(value)}")
    return value


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float: a finite int, float or numpy real, never a bool
    or a string, in [low, high]. Anything else is a :class:`DomainError`."""
    if type(value) is not float:
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, _REALS)):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"{name} must be finite, got {_shown(value)}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be at least {low:g}, got {value!r}")
    if value > high:
        raise DomainError(f"{name} must not exceed {high:g}, got {value!r}")
    return value


def check_reals(values, name: str, low: float = -math.inf, high: float = math.inf) -> tuple:
    """``values`` as a tuple of floats, each entry checked by
    :func:`check_real` in [low, high]. A ``str``, ``bytes`` or anything that
    is not iterable is a :class:`DomainError` naming its type."""
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        entries = iter(values)
    except TypeError:
        kind = type(values).__name__
        raise DomainError(f"{name} must be a sequence of reals, got {kind}") from None
    entry = f"an entry of {name}"
    return tuple([check_real(value, entry, low, high) for value in entries])


def check_array(values, message: str, dtype=float) -> np.ndarray:
    """``values`` as a numpy array of ``dtype``, or a :class:`DomainError` with ``message``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(message) from None
