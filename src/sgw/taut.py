"""Integrals of pullback psi-classes and kappa-classes on genus-zero moduli.

A monomial on the l-pointed space is a product of factors
((f^*)^m psi_{l-m})^p, one per pull depth m, times kappa-class powers.
Integration repeatedly pushes forward along the map forgetting the last
marked point: kappa_a upstairs equals f^* kappa_a + psi_l^a, pushing
f^*(x) * psi_l^s forward gives x * kappa_{s-1}, and kappa_0 on the
l-pointed space is the scalar l - 2.  A term with no psi_l factor pushes
to zero.  Each step lowers the degree by one, so only the monomials of
degree l - 3 reach the degree-zero part on the three-pointed space; the
rest are dropped before the first step.

Every factor but psi_l and the kappa classes is pulled back, so it passes
through the step unchanged (projection formula).  One kernel, ``_push``,
pushes a kappa-only expression times psi_l^s0 down one level; the kappa
expansion and the kappa bump it uses are cached per kappa key.  It has
three callers: ``integrate_monomial`` walks a kappa-only state from k
points down to 4, taking one psi exponent per level; ``point.point_sum``
does the same for many monomials at once; ``pushforward_step``, behind
``integrate``, groups a ``TautExpr`` by psi key and pushes each group.
Coefficients stay in the ring they come in (integers from ``monomial``'s
default), and the integrals become a ``Fraction`` at their return.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .errors import DomainError

PsiFactors = tuple[tuple[int, int], ...]  # (pull depth, power >= 1), depths ascending and distinct
KappaFactors = tuple[tuple[int, int], ...]  # (index >= 1, power >= 1), indices ascending
Key = tuple[PsiFactors, KappaFactors]


def _check_exponents(k: int, exponents: Sequence[int]) -> None:
    """Refuse (e_4, .., e_k) unless k >= 3, there are k - 3 of them and the nonzero ones are >= 1."""
    if k < 3:
        raise DomainError("k >= 3 required")
    if len(exponents) != k - 3:
        raise DomainError(f"expected {k - 3} exponents for k={k}")
    if any(p < 1 for p in [int(e) for e in exponents if e]):
        raise DomainError("psi factors need depth >= 0 and power >= 1")


class TautExpr:
    """Linear combination of monomials over a common l.

    ``_terms`` maps a canonical (psi, kappa) key to its nonzero coefficient.
    Every constructor refuses l < 3; ``monomial`` and ``from_exponents``
    also check the factors, whose keys the pushforward builds canonically.
    """

    __slots__ = ("l", "_terms")

    def __init__(self, l: int, terms: dict[Key, int | Fraction] | None = None):
        if l < 3:
            raise DomainError("monomials live on a moduli space with l >= 3 points")
        self.l = l
        self._terms = {key: coeff for key, coeff in (terms or {}).items() if coeff}

    @classmethod
    def monomial(cls, l: int, psi: Iterable = (), kappa: Iterable = (), coeff=1) -> "TautExpr":
        """One monomial, given as (depth, power) and (index, power) pairs; zero powers are dropped."""
        psi_t = tuple(sorted((int(m), int(p)) for m, p in psi if p))
        merged: dict[int, int] = {}
        for a, p in kappa:
            if p:
                merged[int(a)] = merged.get(int(a), 0) + int(p)
        kappa_t = tuple(sorted(merged.items()))
        result = cls(l, {(psi_t, kappa_t): coeff})  # refuses l < 3 before the factor checks
        if len({m for m, _ in psi_t}) != len(psi_t):
            raise DomainError("pull depths must be pairwise distinct")
        for m, p in psi_t:
            if p < 1 or m < 0:
                raise DomainError("psi factors need depth >= 0 and power >= 1")
            if l - m < 4:
                raise DomainError(f"depth {m} names a psi-class missing from the {l}-pointed space")
        for a, p in kappa_t:
            if a < 1 or p < 1:
                raise DomainError("kappa factors need index >= 1 and power >= 1")
        return result

    @classmethod
    def from_exponents(cls, k: int, exponents: Sequence[int]) -> "TautExpr":
        """Monomial prod_j ((f^*)^(k-j) psi_j)^(e_j) on the k-pointed space.

        ``exponents`` lists (e_4, .., e_k); psi_j carries pull depth k - j.
        """
        _check_exponents(k, exponents)
        return cls.monomial(k, psi=zip(range(k - 4, -1, -1), exponents))

    def scale(self, value) -> "TautExpr":
        return TautExpr(self.l, {key: value * coeff for key, coeff in self._terms.items()})

    def __add__(self, other: "TautExpr") -> "TautExpr":
        if other.l != self.l:
            raise DomainError("mixed moduli spaces in one expression")
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return TautExpr(self.l, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TautExpr) and self.l == other.l and self._terms == other._terms

    def __repr__(self) -> str:
        return f"TautExpr({self.l}, {self._terms!r})"


def _degree(key: Key) -> int:
    psi, kappa = key
    return sum(p for _, p in psi) + sum(a * p for a, p in kappa)


# Every kappa key that a monomial with k <= 24 reaches fits in the caches
# (792 and 2087 entries, about 2 MB); the bound stops arbitrary
# ``pushforward_step`` input from growing them for the life of the process.
@lru_cache(maxsize=4096)
def _kappa_branches(kappa: KappaFactors) -> tuple[tuple[KappaFactors, int, int], ...]:
    """Expand every kappa_a^p as sum_t C(p,t) f^*(kappa_a^(p-t)) psi_l^(a*t).

    Returns (remaining kappa factors, extra psi_l power, binomial weight)
    triples, as a tuple so that no caller can change a cached entry.
    """
    branches: list[tuple[KappaFactors, int, int]] = [((), 0, 1)]
    for a, p in kappa:
        branches = [
            (rest + ((a, p - t),) if p - t else rest, s_extra + a * t, weight * comb(p, t))
            for rest, s_extra, weight in branches
            for t in range(p + 1)
        ]
    return tuple(branches)


@lru_cache(maxsize=4096)
def _times_kappa(kappa: KappaFactors, a: int) -> KappaFactors:
    """The canonical key of kappa times kappa_a: one scan of the sorted key bumps or inserts kappa_a."""
    for i, (b, power) in enumerate(kappa):
        if b == a:
            return kappa[:i] + ((a, power + 1),) + kappa[i + 1 :]
        if b > a:
            return kappa[:i] + ((a, 1),) + kappa[i:]
    return kappa + ((a, 1),)


def _push(
    kappas: dict[KappaFactors, int], l: int, s0: int, down: dict[KappaFactors, int] | None = None
) -> dict[KappaFactors, int]:
    """Push sum_K c_K K psi_l^s0 from l points down to l - 1, for kappa-only keys K.

    The module's only copy of the pushforward rule; factors pulled back
    from l - 1 points are kept aside by the callers.  Adds into ``down``
    if given, and returns it.
    """
    if down is None:
        down = {}
    for kappa, coeff in kappas.items():
        for rest, s_extra, weight in _kappa_branches(kappa):
            s = s0 + s_extra
            if s == 0:
                continue
            if s == 1:  # kappa_0 downstairs is the scalar (l - 1) - 2
                key, term = rest, coeff * weight * (l - 3)
            else:
                key, term = _times_kappa(rest, s - 1), coeff * weight
            down[key] = down.get(key, 0) + term
    return down


def pushforward_step(expr: TautExpr) -> TautExpr:
    """Push an expression on the l-pointed space down to l - 1 points: one ``_push`` per psi key."""
    l = expr.l
    if l == 3:
        raise DomainError("already on the 3-pointed space")
    by_psi: dict[PsiFactors, dict[KappaFactors, int | Fraction]] = {}
    for (psi, kappa), coeff in expr._terms.items():
        by_psi.setdefault(psi, {})[kappa] = coeff
    by_down: dict[PsiFactors, dict[KappaFactors, int | Fraction]] = {}
    for psi, kappas in by_psi.items():
        # depths are ascending, so a psi_l factor (depth 0) comes first
        s0 = psi[0][1] if psi and psi[0][0] == 0 else 0
        _push(kappas, l, s0, by_down.setdefault(tuple((m - 1, p) for m, p in psi if m), {}))
    return TautExpr(l - 1, {(psi, kappa): c for psi, kappas in by_down.items() for kappa, c in kappas.items()})


def integrate(expr: TautExpr) -> Fraction:
    """Integrate over the moduli space; exact rational.  Monomials of degree other than l - 3 are dropped first."""
    current = TautExpr(expr.l, {key: c for key, c in expr._terms.items() if _degree(key) == expr.l - 3})
    while current.l > 3:
        current = pushforward_step(current)
    return Fraction(sum(current._terms.values()))


def integrate_monomial(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of the depth-graded psi monomial with the given exponents; level l pushes psi_l^(e_l)."""
    _check_exponents(k, exponents)  # as ``TautExpr.from_exponents``, building no expression
    if sum(exponents) != k - 3:
        return Fraction(0)
    kappas: dict[KappaFactors, int] = {(): 1}
    for l, e in zip(range(k, 3, -1), reversed(exponents)):
        kappas = _push(kappas, l, e)
    return Fraction(kappas.get((), 0))
