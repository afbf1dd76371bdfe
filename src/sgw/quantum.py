"""Super small quantum product of P^n, truncated at first order in q.

Elements live on the basis of hyperplane powers L^0 .. L^n with
coefficients that are Laurent polynomials in kappa^-1 times a q-power in
{0, 1}; q^2 and L^(n+1) are unrepresentable.  The product of two basis
powers has the classical cup product at q^0 (the degree-zero three-point
invariants collapse to the pairing) and, at q^1, for each dual basis
element L^(n-c) the degree-one three-point invariant with third insertion
L^c rescaled by kappa^(n+2).  All of them come from one localization
sweep per (n, seed), which is kept for the products that follow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .localize import DEFAULT_SEED, table
from .point import Invariant

Laurent = dict[int, Fraction]  # kappa exponent -> coefficient


class QElement:
    """Linear combination of L^j * q^e with Laurent-in-kappa coefficients."""

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: dict[tuple[int, int], Laurent] | None = None):
        self.n = n
        self.comps: dict[tuple[int, int], Laurent] = {}
        for (lam_pow, q_pow), laurent in (comps or {}).items():
            if q_pow >= 2 or lam_pow > n:
                continue
            clean = {e: Fraction(c) for e, c in laurent.items() if c}
            if clean:
                self.comps[(lam_pow, q_pow)] = clean

    @classmethod
    def basis(cls, n: int, power: int) -> "QElement":
        if not 0 <= power <= n:
            raise DomainError(f"basis power {power} outside [0, {n}]")
        return cls(n, {(power, 0): {0: Fraction(1)}})

    @classmethod
    def zero(cls, n: int) -> "QElement":
        return cls(n)

    def __eq__(self, other) -> bool:
        return isinstance(other, QElement) and self.n == other.n and self.comps == other.comps

    def __add__(self, other: "QElement") -> "QElement":
        if self.n != other.n:
            raise DomainError("mixed targets")
        out = {key: dict(val) for key, val in self.comps.items()}
        for key, laurent in other.comps.items():
            acc = out.setdefault(key, {})
            for e, c in laurent.items():
                acc[e] = acc.get(e, Fraction(0)) + c
        return QElement(self.n, out)

    def coefficient(self, lam_pow: int, q_pow: int) -> Laurent:
        return dict(self.comps.get((lam_pow, q_pow), {}))

    def q_part(self, q_pow: int) -> "QElement":
        return QElement(
            self.n,
            {key: val for key, val in self.comps.items() if key[1] == q_pow},
        )

    @staticmethod
    def _laurent_str(laurent: Laurent) -> str:
        parts = []
        for e in sorted(laurent, reverse=True):
            c = laurent[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"kappa^{e}")
            else:
                parts.append(f"{c}*kappa^{e}")
        return " + ".join(parts)

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        pieces = []
        for lam_pow, q_pow in sorted(self.comps, key=lambda key: (key[1], key[0])):
            laurent = self.comps[(lam_pow, q_pow)]
            factors = []
            if q_pow:
                factors.append("q")
            if lam_pow:
                factors.append(f"L^{lam_pow}")
            body = self._laurent_str(laurent)
            if body != "1" or not factors:
                factors.append(body if body.isdigit() else f"({body})")
            pieces.append("*".join(factors))
        return " + ".join(pieces)


def _laurent_mul(x: Laurent, y: Laurent) -> Laurent:
    out: dict[int, Fraction] = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            out[ex + ey] = out.get(ex + ey, Fraction(0)) + cx * cy
    return out


@lru_cache(maxsize=8)
def _three_point(n: int, seed: int) -> dict[tuple[int, int, int], Invariant]:
    """<L^a, L^b, L^c> for all a <= b and every c, from one localization sweep."""
    tuples = [(a, b, c) for a in range(n + 1) for b in range(a, n + 1) for c in range(n + 1)]
    return table(n, 3, tuples, seed=seed)


def structure_table(n: int, seed: int = DEFAULT_SEED) -> dict[tuple[int, int], list[tuple[int, Invariant]]]:
    """Degree-one three-point invariants <L^a, L^b, L^c> for all a <= b, c."""
    if n < 1:
        raise DomainError("n must be >= 1")
    values = _three_point(n, seed)
    return {
        (a, b): [(c, values[(a, b, c)]) for c in range(n + 1)]
        for a in range(n + 1)
        for b in range(a, n + 1)
    }


def _basis_star(n: int, a: int, b: int, seed: int) -> QElement:
    comps: dict[tuple[int, int], Laurent] = {}
    if a + b <= n:
        comps[(a + b, 0)] = {0: Fraction(1)}
    values = _three_point(n, seed)
    for c in range(n + 1):
        inv = values[(min(a, b), max(a, b), c)]
        if not inv.is_zero:
            comps[(n - c, 1)] = {inv.kappa_exp + n + 2: inv.coeff}
    return QElement(n, comps)


def star(n: int, x: QElement, y: QElement, seed: int = DEFAULT_SEED) -> QElement:
    """Super quantum product, bilinear over the Laurent coefficients."""
    if x.n != n or y.n != n:
        raise DomainError("operands must live on the same target")
    result = QElement.zero(n)
    for (la, qa), ca in x.comps.items():
        for (lb, qb), cb in y.comps.items():
            if qa + qb >= 2:
                continue
            base = _basis_star(n, la, lb, seed)
            scale = _laurent_mul(ca, cb)
            shifted: dict[tuple[int, int], Laurent] = {}
            for (lam_pow, q_pow), laurent in base.comps.items():
                if q_pow + qa + qb >= 2:
                    continue
                shifted[(lam_pow, q_pow + qa + qb)] = _laurent_mul(laurent, scale)
            result = result + QElement(n, shifted)
    return result
