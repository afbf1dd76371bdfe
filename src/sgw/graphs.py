"""Torus fixed-point graphs for degree-one stable maps to P^n.

A fixed locus is labelled by a pair of target fixed points q_a, q_b
(a < b), the subset A of marked points sitting over q_a, and the map
degree.  For one edge of degree d the equivariant weights of the odd
normal directions come in two families,

    (2d - 2q - 1)/(2d) * (tau_a - tau_b)            q = 0 .. 2d-1,
    (2q - 1)/(2d) tau_a - (2d - 2q - 1)/(2d) tau_b + tau_m
                                                    m != a, b, q = 0 .. d-1,

where the first family drops q = d when the a-end of the edge carries a
special point but the b-end does not, and drops q = d - 1 in the opposite
case.  Marked points clustered at one end sit on a contracted component,
which contributes weight 0 (three special points) or weights {0, -lam/2}
(four special points, moduli a projective line with hyperplane class lam).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import DomainError, UnsupportedError
from .exact import LinForm, Poly


class EdgeConfig(enum.Enum):
    NO_MARK = "no_mark"          # special point only at the b-end
    MARK_AT_A = "mark_at_a"      # special point only at the a-end
    MARKS_AT_BOTH = "marks_at_both"


@dataclass(frozen=True)
class FixedGraph:
    n: int
    d: int
    a: int
    b: int
    A: frozenset[int]
    k: int

    def __post_init__(self):
        if not 0 <= self.a < self.b <= self.n:
            raise DomainError("need 0 <= a < b <= n")
        if not self.A <= set(range(1, self.k + 1)):
            raise DomainError("A must be a subset of the marked-point labels")

    def label(self) -> str:
        members = ",".join(str(i) for i in sorted(self.A))
        return f"G(k={self.k},d={self.d},a={self.a},b={self.b},A={{{members}}})"


@dataclass(frozen=True)
class GraphGeometry:
    moduli_kind: str  # "point" or "m04"
    has_lambda: bool


@dataclass(frozen=True)
class EulerData:
    """Per-graph equivariant data.

    The inverse Euler class of the fixed locus is
    (num_lambda_free + lam * num_lambda_coeff) / (den_sign * prod (tau_i - tau_j)^m)
    over ``den_factors``, the canonical pairs i < j with multiplicities m.
    """

    susy_weights: tuple[LinForm, ...]
    num_lambda_free: Poly
    num_lambda_coeff: Poly
    den_factors: tuple[tuple[tuple[int, int], int], ...]
    den_sign: int


def enumerate_graphs(n: int, k: int) -> list[FixedGraph]:
    """All degree-one fixed graphs, (a, b) ascending then A by bitmask."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if k not in (1, 2, 3):
        raise UnsupportedError("localization graphs implemented for k in {1, 2, 3}")
    graphs = []
    for a, b in combinations(range(n + 1), 2):
        for mask in range(2**k):
            members = frozenset(i + 1 for i in range(k) if mask >> i & 1)
            graphs.append(FixedGraph(n=n, d=1, a=a, b=b, A=members, k=k))
    return graphs


def geometry(g: FixedGraph) -> GraphGeometry:
    if g.k == 3 and len(g.A) in (0, 3):
        return GraphGeometry(moduli_kind="m04", has_lambda=True)
    return GraphGeometry(moduli_kind="point", has_lambda=False)


def single_edge_weights(n: int, d: int, a: int, b: int, config: EdgeConfig) -> list[LinForm]:
    """Odd normal weights of a single degree-d edge through q_a and q_b."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if not 0 <= a < b <= n:
        raise DomainError("need 0 <= a < b <= n")
    skip = {EdgeConfig.MARK_AT_A: d, EdgeConfig.NO_MARK: d - 1}.get(config)
    weights = []
    for q in range(2 * d):
        if q == skip:
            continue
        c = Fraction(2 * d - 2 * q - 1, 2 * d)
        weights.append(LinForm.make({a: c, b: -c}))
    for m in range(n + 1):
        if m in (a, b):
            continue
        for q in range(d):
            weights.append(
                LinForm.make({
                    a: Fraction(2 * q - 1, 2 * d),
                    b: -Fraction(2 * d - 2 * q - 1, 2 * d),
                    m: Fraction(1),
                })
            )
    return weights


def _edge_config(num_at_a: int, num_at_b: int) -> EdgeConfig:
    if num_at_a and num_at_b:
        return EdgeConfig.MARKS_AT_BOTH
    if num_at_a:
        return EdgeConfig.MARK_AT_A
    return EdgeConfig.NO_MARK


def _vertex_factors(count: int) -> list[LinForm]:
    """Weights of the contracted component carrying ``count`` marked points."""
    if count <= 1:
        return []
    if count == 2:
        return [LinForm.zero()]
    if count == 3:
        return [LinForm.zero(), LinForm.make(lam=Fraction(-1, 2))]
    raise UnsupportedError("contracted components with five or more special points")


def _canonical_factors(ordered: list[tuple[int, int]]) -> tuple[dict[tuple[int, int], int], int]:
    """Rewrite a list of differences (tau_x - tau_y) over canonical pairs x < y."""
    factors: dict[tuple[int, int], int] = {}
    sign = 1
    for x, y in ordered:
        if x > y:
            x, y = y, x
            sign = -sign
        factors[(x, y)] = factors.get((x, y), 0) + 1
    return factors, sign


def _den_structure(g: FixedGraph) -> tuple[list[tuple[int, int]], int]:
    """Ordered difference factors of e^T(N_Gamma) and the residual sign."""
    others = [j for j in range(g.n + 1) if j not in (g.a, g.b)]
    num_at_a = len(g.A)
    if g.k == 1:
        # (tau_b - tau_a) (resp. reversed) times prod (tau_a - tau_j)(tau_b - tau_j)
        head = [(g.b, g.a)] if num_at_a == 0 else [(g.a, g.b)]
        ordered = head + [(g.a, j) for j in others] + [(g.b, j) for j in others]
        return ordered, 1
    prods = [(g.a, j) for j in range(g.n + 1) if j != g.a]
    prods += [(g.b, j) for j in range(g.n + 1) if j != g.b]
    if g.k == 2:
        sign = -1 if num_at_a in (0, 2) else 1
        return prods, sign
    head = [(g.b, g.a)] if num_at_a in (0, 1) else [(g.a, g.b)]
    return head + prods, 1


@lru_cache(maxsize=None)
def euler_data(g: FixedGraph) -> EulerData:
    """Odd-normal weight multiset and inverse fixed-locus Euler class, d = 1."""
    if g.d != 1 or g.k not in (1, 2, 3):
        raise UnsupportedError("euler data implemented for d = 1 and k in {1, 2, 3}")
    num_at_a = len(g.A)
    num_at_b = g.k - num_at_a
    weights = single_edge_weights(g.n, 1, g.a, g.b, _edge_config(num_at_a, num_at_b))
    weights += _vertex_factors(num_at_a)
    weights += _vertex_factors(num_at_b)

    num_tau = g.n + 1
    u = Poly.tau(num_tau, g.b) - Poly.tau(num_tau, g.a)
    if g.k == 3 and num_at_a == 0:
        numerator = -u - Poly.lam(num_tau)
    elif g.k == 3 and num_at_a == 3:
        numerator = u - Poly.lam(num_tau)
    else:
        numerator = Poly.one(num_tau)

    ordered, extra_sign = _den_structure(g)
    factors, flip = _canonical_factors(ordered)
    num0, num1 = numerator.lambda_parts()
    return EulerData(
        susy_weights=tuple(weights),
        num_lambda_free=num0,
        num_lambda_coeff=num1,
        den_factors=tuple(sorted(factors.items())),
        den_sign=extra_sign * flip,
    )


def ev_exponents(g: FixedGraph, classes: Sequence[int]) -> tuple[int, int]:
    """Powers of tau_a and tau_b in the evaluation pullback: classes over A go to tau_a."""
    if len(classes) != g.k:
        raise DomainError(f"expected {g.k} classes")
    at_a = sum(power for i, power in enumerate(classes, start=1) if i in g.A)
    return at_a, sum(classes) - at_a


def ev_pullback(g: FixedGraph, classes: Sequence[int]) -> Poly:
    """Evaluation pullback of hyperplane powers: tau_a over A, tau_b elsewhere."""
    at_a, at_b = ev_exponents(g, classes)
    exp = [0] * (g.n + 2)
    exp[g.a] = at_a
    exp[g.b] = at_b
    return Poly(g.n + 1, {tuple(exp): Fraction(1)})
