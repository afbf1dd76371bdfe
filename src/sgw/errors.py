"""Exception types shared across the package, and the argument rules that several modules share."""

from fractions import Fraction


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedError(DomainError):
    """The requested combination of parameters is not implemented."""


class DimensionError(ValueError):
    """Operands disagree on the number of torus variables."""


class InconsistencyError(RuntimeError):
    """Internal cross-check failed; indicates an implementation bug, not a zero."""


def integer(value, name: str, low: int | None = None) -> int:
    """``value`` if it is an ``int``, and at least ``low`` if given; a float or a bool is refused, not truncated."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}")
    return value


def rational(value):
    """``value`` if it is an ``int`` or a ``Fraction``, a coefficient that stays exact; a float or a bool is refused."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise DomainError(f"coefficients must be integers or Fractions, got {value!r}")
    return value


def as_tuple(value, what: str) -> tuple:
    """``value`` as a tuple; a value that is not iterable is refused with ``DomainError``, not ``TypeError``."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"expected {what}, got {value!r}") from None


def instance(value, kind: type, what: str):
    """``value`` if it is a ``kind``; anything else is refused by its type's name before an attribute is read."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} needs a {kind.__name__}, got {type(value).__name__}")
    return value


class ResampleSignal(Exception):
    """A graph's Euler denominator vanishes at the given characters.

    ``sample_tau`` draws pairwise distinct characters, so its samples never
    raise this; a caller that passes repeated characters gets the error
    raised through to it, and nothing redraws.
    """
