"""Integrals of pullback psi-classes and kappa-classes on genus-zero moduli.

A monomial on the l-pointed space is a product of factors
((f^*)^m psi_{l-m})^p, one per pull depth m, times kappa-class powers.
Integration repeatedly pushes forward along the map forgetting the last
marked point: kappa_a upstairs equals f^* kappa_a + psi_l^a, pushing
f^*(x) * psi_l^s forward gives x * kappa_{s-1}, and kappa_0 on the
l-pointed space is the scalar l - 2.  A term with no psi_l factor pushes
to zero.  Each step lowers the degree by one, so only the monomials of
degree l - 3 reach the degree-zero part on the three-pointed space; the
rest are dropped before the first step.  Coefficients stay in the ring
they come in (integers from ``make``'s default), and ``integrate`` turns
the result into a ``Fraction`` at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import DomainError

PsiFactors = tuple[tuple[int, int], ...]  # (pull depth, power), depths distinct
KappaFactors = tuple[tuple[int, int], ...]  # (index >= 1, power)


@dataclass(frozen=True)
class TautMonomial:
    l: int
    psi: PsiFactors
    kappa: KappaFactors
    coeff: int | Fraction  # as given; pushforward keeps integers integral

    def __post_init__(self):
        if self.l < 3:
            raise DomainError("monomials live on a moduli space with l >= 3 points")
        depths = [m for m, _ in self.psi]
        if len(set(depths)) != len(depths):
            raise DomainError("pull depths must be pairwise distinct")
        for m, p in self.psi:
            if p < 1 or m < 0:
                raise DomainError("psi factors need depth >= 0 and power >= 1")
            if self.l - m < 4:
                raise DomainError(f"depth {m} names a psi-class missing from the {self.l}-pointed space")
        for a, p in self.kappa:
            if a < 1 or p < 1:
                raise DomainError("kappa factors need index >= 1 and power >= 1")

    @classmethod
    def make(cls, l: int, psi=(), kappa=(), coeff=1) -> "TautMonomial":
        psi_t = tuple(sorted((int(m), int(p)) for m, p in psi if p))
        kappa_t = _merge_kappa((int(a), int(p)) for a, p in kappa if p)
        return cls(l, psi_t, kappa_t, coeff)

    @classmethod
    def from_exponents(cls, k: int, exponents: Sequence[int], coeff=1) -> "TautMonomial":
        """Monomial prod_j ((f^*)^(k-j) psi_j)^(e_j) on the k-pointed space.

        ``exponents`` lists (e_4, .., e_k); psi_j carries pull depth k - j.
        """
        if k < 3:
            raise DomainError("k >= 3 required")
        if len(exponents) != k - 3:
            raise DomainError(f"expected {k - 3} exponents for k={k}")
        psi = [(k - j, e) for j, e in zip(range(4, k + 1), exponents) if e]
        return cls.make(k, psi=psi, coeff=coeff)

    def degree(self) -> int:
        return sum(p for _, p in self.psi) + sum(a * p for a, p in self.kappa)

    def key(self) -> tuple:
        return (self.psi, self.kappa)

    def __str__(self) -> str:
        factors = [
            (f"(f^{m})psi" if m else "psi") + (f"^{p}" if p > 1 else "")
            for m, p in self.psi
        ]
        factors += [f"kappa{a}" + (f"^{p}" if p > 1 else "") for a, p in self.kappa]
        body = "*".join(factors) if factors else "1"
        return f"{self.coeff}*{body}[l={self.l}]"


def _merge_kappa(pairs: Iterable[tuple[int, int]]) -> KappaFactors:
    acc: dict[int, int] = {}
    for a, p in pairs:
        acc[a] = acc.get(a, 0) + p
    return tuple(sorted(acc.items()))


class TautExpr:
    """Linear combination of monomials over a common l, in merged form."""

    __slots__ = ("l", "_terms")

    def __init__(self, l: int, monomials: Iterable[TautMonomial] = ()):
        self.l = l
        self._terms: dict[tuple, TautMonomial] = {}
        for mono in monomials:
            self._add(mono)

    def _add(self, mono: TautMonomial) -> None:
        if mono.l != self.l:
            raise DomainError("mixed moduli spaces in one expression")
        key = mono.key()
        if key in self._terms:
            coeff = self._terms[key].coeff + mono.coeff
            if coeff:
                self._terms[key] = TautMonomial(self.l, mono.psi, mono.kappa, coeff)
            else:
                del self._terms[key]
        elif mono.coeff:
            self._terms[key] = mono

    @property
    def monomials(self) -> list[TautMonomial]:
        return sorted(self._terms.values(), key=lambda m: m.key())

    def scale(self, value) -> "TautExpr":
        return TautExpr(
            self.l,
            (TautMonomial(self.l, m.psi, m.kappa, value * m.coeff) for m in self._terms.values()),
        )

    def __add__(self, other: "TautExpr") -> "TautExpr":
        out = TautExpr(self.l, self._terms.values())
        for mono in other._terms.values():
            out._add(mono)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TautExpr) and self.l == other.l and self._terms == other._terms

    def __str__(self) -> str:
        return " + ".join(str(m) for m in self.monomials) if self._terms else "0"


def _kappa_branches(kappa: KappaFactors):
    """Expand every kappa_a^p as sum_t C(p,t) f^*(kappa_a^(p-t)) psi_l^(a*t).

    Yields (remaining kappa factors, extra psi_l power, binomial weight).
    """
    branches: list[tuple[list[tuple[int, int]], int, int]] = [([], 0, 1)]
    for a, p in kappa:
        grown = []
        for rest, s_extra, weight in branches:
            for t in range(p + 1):
                kept = rest + ([(a, p - t)] if p - t else [])
                grown.append((kept, s_extra + a * t, weight * comb(p, t)))
        branches = grown
    return branches


def pushforward_step(expr: TautExpr) -> TautExpr:
    """Push an expression on the l-pointed space down to l - 1 points."""
    if expr.l == 3:
        raise DomainError("already on the 3-pointed space")
    down = TautExpr(expr.l - 1)
    for mono in expr.monomials:
        p0 = 0
        rest_psi = []
        for m, p in mono.psi:
            if m == 0:
                p0 = p
            else:
                rest_psi.append((m - 1, p))
        for kappa_rest, s_extra, weight in _kappa_branches(mono.kappa):
            s = p0 + s_extra
            if s == 0:
                continue
            coeff = mono.coeff * weight
            kappa_down = list(kappa_rest)
            if s == 1:
                coeff *= expr.l - 3  # kappa_0 downstairs is the scalar (l-1) - 2
            else:
                kappa_down.append((s - 1, 1))
            down._add(TautMonomial.make(expr.l - 1, psi=rest_psi, kappa=kappa_down, coeff=coeff))
    return down


def integrate(expr: TautExpr) -> Fraction:
    """Integrate over the moduli space; exact rational.  Monomials of degree other than l - 3 are dropped first."""
    current = TautExpr(expr.l, (m for m in expr.monomials if m.degree() == expr.l - 3))
    while current.l > 3:
        current = pushforward_step(current)
    return Fraction(sum(mono.coeff for mono in current.monomials))


def integrate_monomial(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of the depth-graded psi monomial with the given exponents."""
    mono = TautMonomial.from_exponents(k, exponents)
    return integrate(TautExpr(k, [mono]))
