"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedError(DomainError):
    """The requested combination of parameters is not implemented."""


class DimensionError(ValueError):
    """Operands disagree on the number of torus variables."""


class InconsistencyError(RuntimeError):
    """Internal cross-check failed; indicates an implementation bug, not a zero."""


class ResampleSignal(Exception):
    """A graph's Euler denominator vanishes at the given characters.

    ``sample_tau`` draws pairwise distinct characters, so its samples never
    raise this; a caller that passes repeated characters gets the error
    raised through to it, and nothing redraws.
    """
