"""Super Gromov-Witten numbers of a point.

The k-point number of a point is, up to the sign (-1)^(k-3) and the
normalisation 2^(k-3), the sum over all weak compositions (i_4, .., i_k)
of k - 3 of the integrals of prod_j ((f^*)^(k-j) psi_j)^(i_j), attached to
the kappa-power 5 - 2k.  Compositions whose prefix sums i_4 + .. + i_l
exceed l - 3, the dimension of the l-pointed space, integrate to zero and
are pruned.  ``taut.point_sum`` takes the sum on the pushforward kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, integer, rational
from .taut import point_sum

# Largest k that ``sgw_point`` accepts: each further k takes about 1.5x longer,
# and k = 24 still runs within a fraction of a second (README lists the timings).
MAX_K = 24


class _InvariantFields(NamedTuple):
    coeff: Fraction
    kappa_exp: int


class Invariant(_InvariantFields):
    """Either zero, ``Invariant(0, 0)``, or ``Fraction(coeff)`` times kappa^kappa_exp."""

    __slots__ = ()

    def __new__(cls, coeff: int | Fraction, kappa_exp: int):
        coeff = Fraction(rational(coeff))
        integer(kappa_exp, "kappa_exp")
        return super().__new__(cls, coeff, 0 if coeff == 0 else kappa_exp)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.coeff} * kappa^{self.kappa_exp}"

    def to_json(self) -> dict:
        if self.is_zero:
            return {"zero": True}
        return {"coefficient": str(self.coeff), "kappa_exponent": self.kappa_exp}


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts whose prefix sum over the first j parts is at most j.

    The branches dropped are monomials that integrate to zero.  Both arguments are checked at the call.  The
    compositions come in lexicographic order; the walk keeps its own stack, so no ``parts`` meets the recursion limit.
    """
    integer(total, "total", 0)
    integer(parts, "parts", 0)
    if total > parts:  # the prefix sum over all the parts is at most parts
        return iter(())

    def walk():
        stack = [((), 0)]  # (prefix, its sum); the prefix to extend next on top
        while stack:
            prefix, used = stack.pop()
            slot = len(prefix)
            if slot == parts:
                if used == total:
                    yield prefix
                continue
            # the last part takes what is left; every part keeps the prefix sum at most slot + 1
            low = total - used if slot == parts - 1 else 0
            high = min(total - used, slot + 1 - used)
            stack.extend((prefix + (value,), used + value) for value in range(high, low - 1, -1))

    return walk()


def sgw_point(k: int) -> Invariant:
    """k-point super Gromov-Witten number of a point, 3 <= k <= MAX_K."""
    if integer(k, "k") > MAX_K:
        raise DomainError(f"k must be at most {MAX_K}, got {k}")
    return Invariant(Fraction((-1) ** (k - 3) * point_sum(k), 2 ** (k - 3)), 5 - 2 * k)
