"""Super Gromov-Witten numbers of a point.

The k-point number of a point is, up to the sign (-1)^(k-3) and the
normalisation 2^(k-3), the sum over all weak compositions (i_4, .., i_k)
of k - 3 of the integrals of prod_j ((f^*)^(k-j) psi_j)^(i_j), attached to
the kappa-power 5 - 2k.  Compositions whose prefix sums i_4 + .. + i_l
exceed l - 3, the dimension of the l-pointed space, integrate to zero and
are pruned.

The sum is not taken one composition at a time.  Integration pushes
forward along the map forgetting the last point, and every psi_j with
j < l is pulled back along that map, so by the projection formula it
passes through the pushforward unchanged.  Once the points above l are
pushed forward, the summand is therefore the prefix monomial in
psi_4 .. psi_l times a kappa-only expression, and the sum of those
kappa-only expressions over all suffixes (i_(l+1), .., i_k) depends only
on the prefix sum P = i_4 + .. + i_l.  ``point_sum`` keeps one map from
interned kappa node to coefficient per (level l, prefix sum P), starting
from and reading back the node of the empty key: at each level it
pushes the map of P times psi_l^i forward with ``taut._push``, the
kernel that ``taut.integrate_monomial`` walks one monomial with, and adds
the result into the map of P - i one level down, for every i <= P that
the pruning keeps (P - i <= l - 4).  At k = 12 that is 165 kernel calls
in place of 4862 integrals of nine steps each.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, integer
from .taut import _KappaNode, _node, _push

# Largest k that ``sgw_point`` accepts: k = 24 takes 0.16-0.30 s (median
# 0.17-0.19 s) and 21 MB as a whole process on a shared 2-core Xeon, 0.06-0.10 s
# of it in ``point_sum`` with a cold node table, and each further k about 1.5x longer.
MAX_K = 24


class _InvariantFields(NamedTuple):
    coeff: Fraction
    kappa_exp: int


class Invariant(_InvariantFields):
    """Either zero, or an exact rational coefficient times kappa^kappa_exp."""

    __slots__ = ()

    def __new__(cls, coeff: Fraction, kappa_exp: int):
        return super().__new__(cls, coeff, 0 if coeff == 0 else kappa_exp)

    @classmethod
    def zero(cls) -> "Invariant":
        return cls(Fraction(0), 0)

    @classmethod
    def of(cls, coeff, kappa_exp: int) -> "Invariant":
        return cls(Fraction(coeff), kappa_exp)

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

    The branches dropped are monomials that integrate to zero.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return

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

    yield from rec((), total, 0)


def point_sum(k: int) -> Fraction:
    """Sum of the composition integrals entering the k-point number.

    ``states[P]`` maps the node of each kappa key of the kappa-only
    expression on the l-pointed space, summed over the exponents of the
    points above l, to its coefficient, for prefix sum P.
    """
    root = _node(())
    states: dict[int, dict[_KappaNode, int]] = {k - 3: {root: 1}}
    for l in range(k, 3, -1):
        down: dict[int, dict[_KappaNode, int]] = {}
        for prefix_sum, kappas in states.items():
            # pruning keeps prefix sums of at most l - 4 one level down
            low = max(0, prefix_sum - (l - 4))
            for i in range(low, prefix_sum + 1):
                _push(kappas, l, i, down.setdefault(prefix_sum - i, {}))
        states = down
    # on the 3-pointed space only the empty kappa key has degree zero
    return Fraction(states.get(0, {}).get(root, 0))


def sgw_point(k: int) -> Invariant:
    """k-point super Gromov-Witten number of a point, 3 <= k <= MAX_K."""
    if integer(k, "k") < 3:
        raise DomainError("k must be >= 3")
    if k > MAX_K:
        raise DomainError(f"k must be at most {MAX_K}, got {k}")
    return Invariant.of(Fraction((-1) ** (k - 3) * point_sum(k), 2 ** (k - 3)), 5 - 2 * k)
