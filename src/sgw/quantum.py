"""Super small quantum product of P^n, truncated at first order in q.

Elements live on the basis of hyperplane powers L^0 .. L^n with
coefficients that are Laurent polynomials in kappa^-1 times a q-power in
{0, 1}; the constructor drops L^(n+1) and above and q^2 and above, so the
truncation happens in one place.  The product of two basis powers has the
classical cup product at q^0 (the degree-zero three-point invariants
collapse to the pairing) and, at q^1, for each dual basis element L^(n-c)
the degree-one three-point invariant with third insertion L^c rescaled by
kappa^(n+2).  ``star`` reads those invariants straight from one
localization sweep per (n, seed), which is kept for the products that follow.
Hyperplane powers are even classes, so a three-point invariant does not
depend on the order of its insertions (the S_3 symmetry of the
Kontsevich-Manin axioms): the sweep computes each unordered triple once,
and every cell is read through its sorted key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import DomainError, instance, integer, rational
from .localize import DEFAULT_SEED, table
from .point import Invariant

Laurent = dict[int, Fraction]  # kappa exponent -> coefficient


class QElement:
    """Linear combination of L^j * q^e with Laurent-in-kappa coefficients."""

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: dict[tuple[int, int], Laurent] | None = None):
        self.n = integer(n, "n", 1)
        self.comps: dict[tuple[int, int], Laurent] = {}
        for key, laurent in ({} if comps is None else instance(comps, dict, "QElement")).items():
            if type(key) is not tuple or len(key) != 2:
                raise DomainError(f"every QElement key must be an (L-power, q-power) pair, got {key!r}")
            lam_pow, q_pow = key
            if not all(type(p) is int and p >= 0 for p in (lam_pow, q_pow)):
                raise DomainError(f"L- and q-powers must be non-negative integers, got L^{lam_pow!r} q^{q_pow!r}")
            for e, c in instance(laurent, dict, "QElement").items():
                if type(e) is not int:
                    raise DomainError(f"kappa exponents must be integers, got kappa^{e!r}")
                rational(c)
            if q_pow >= 2 or lam_pow > n:
                continue
            clean = {e: c if isinstance(c, Fraction) else Fraction(c) for e, c in laurent.items() if c}
            if clean:
                self.comps[(lam_pow, q_pow)] = clean

    @classmethod
    def basis(cls, n: int, power: int) -> "QElement":
        integer(n, "n")
        if not 0 <= integer(power, "basis power") <= n:
            raise DomainError(f"basis power {power} outside [0, {n}]")
        return cls(n, {(power, 0): {0: Fraction(1)}})

    def __eq__(self, other) -> bool:
        return isinstance(other, QElement) and self.n == other.n and self.comps == other.comps

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


@lru_cache(maxsize=8)
def _three_point(n: int, seed: int) -> dict[tuple[int, int, int], Invariant]:
    """<L^a, L^b, L^c> for every sorted triple a <= b <= c, from one localization sweep.

    The invariant is symmetric in its insertions, so the C(n+3, 3) sorted
    triples hold every value; ``_cell`` reads any order through them.
    The symmetry is assumed here only: ``table`` itself computes every
    tuple it is given, in any order, so it can be checked there.
    """
    return table(n, 3, combinations_with_replacement(range(n + 1), 3), seed=seed)


def _cell(values: dict[tuple[int, int, int], Invariant], a: int, b: int, c: int) -> Invariant:
    """<L^a, L^b, L^c> from the sorted triples of ``_three_point``."""
    return values[tuple(sorted((a, b, c)))]


def structure_table(n: int, seed: int = DEFAULT_SEED) -> dict[tuple[int, int], list[tuple[int, Invariant]]]:
    """Degree-one three-point invariants <L^a, L^b, L^c> for all a <= b, c."""
    values = _three_point(integer(n, "n", 1), integer(seed, "seed"))
    return {
        (a, b): [(c, _cell(values, a, b, c)) for c in range(n + 1)]
        for a in range(n + 1)
        for b in range(a, n + 1)
    }


def star(n: int, x: QElement, y: QElement, seed: int = DEFAULT_SEED) -> QElement:
    """Super quantum product, bilinear over the Laurent coefficients.

    Each pair of components L^a q^qa and L^b q^qb contributes the cup product
    L^(a+b) q^(qa+qb) and, for every c, <L^a, L^b, L^c> kappa^(n+2) as
    L^(n-c) q^(qa+qb+1), each times both coefficients, summed into one map;
    the one ``QElement`` built from it drops what the truncation removes.
    """
    if not (isinstance(x, QElement) and isinstance(y, QElement)):
        raise DomainError(f"operands must be QElements, got {type(x).__name__} and {type(y).__name__}")
    if x.n != integer(n, "n") or y.n != n:
        raise DomainError("operands must live on the same target")
    values = _three_point(n, integer(seed, "seed"))
    acc: dict[tuple[int, int], Laurent] = {}
    for (la, qa), ca in x.comps.items():
        for (lb, qb), cb in y.comps.items():
            terms = [((la + lb, qa + qb), 0, 1)]
            for c in range(n + 1):
                inv = _cell(values, la, lb, c)
                if not inv.is_zero:
                    terms.append(((n - c, qa + qb + 1), inv.kappa_exp + n + 2, inv.coeff))
            for key, shift, coeff in terms:
                laurent = acc.setdefault(key, {})
                for ea, a in ca.items():
                    for eb, b in cb.items():
                        e = shift + ea + eb
                        laurent[e] = laurent.get(e, 0) + coeff * a * b
    return QElement(n, acc)
