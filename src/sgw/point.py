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

# Largest k that ``sgw_point`` accepts: k = 24 takes 0.16-0.30 s (median
# 0.17-0.19 s) and 21 MB as a whole process on a shared 2-core Xeon, 0.06-0.10 s
# of it in ``point_sum`` with a cold node table, and each further k about 1.5x longer.
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

    The branches dropped are monomials that integrate to zero.  Both arguments are checked at the call.
    """
    integer(total, "total", 0)
    integer(parts, "parts", 0)

    def rec(prefix: tuple[int, ...], remaining: int, slot: int):
        if slot == parts:
            if remaining == 0:
                yield prefix
            return
        for value in range(remaining + 1):
            if sum(prefix) + value > slot + 1:
                continue
            if slot == parts - 1 and value != remaining:
                continue
            yield from rec(prefix + (value,), remaining - value, slot + 1)

    return rec((), total, 0)


def sgw_point(k: int) -> Invariant:
    """k-point super Gromov-Witten number of a point, 3 <= k <= MAX_K."""
    if integer(k, "k") > MAX_K:
        raise DomainError(f"k must be at most {MAX_K}, got {k}")
    return Invariant(Fraction((-1) ** (k - 3) * point_sum(k), 2 ** (k - 3)), 5 - 2 * k)
