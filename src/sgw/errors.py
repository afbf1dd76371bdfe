"""Exception types shared across the package, and the one check that a value is an integer."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedError(DomainError):
    """The requested combination of parameters is not implemented."""


class DimensionError(ValueError):
    """Operands disagree on the number of torus variables."""


class InconsistencyError(RuntimeError):
    """Internal cross-check failed; indicates an implementation bug, not a zero."""


def integer(value, name: str) -> int:
    """``value`` if its type is ``int``; anything else, a float or a bool included, is refused, not truncated."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


class ResampleSignal(Exception):
    """A graph's Euler denominator vanishes at the given characters.

    ``sample_tau`` draws pairwise distinct characters, so its samples never
    raise this; a caller that passes repeated characters gets the error
    raised through to it, and nothing redraws.
    """
