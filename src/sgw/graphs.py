"""Torus fixed-point graphs for degree-one stable maps to P^n.

A fixed locus is labelled by a pair of target fixed points q_a, q_b
(a < b) and the subset A of marked points sitting over q_a.  The
equivariant weights of the odd normal directions of its one edge are

    1/2 (tau_a - tau_b),  -1/2 (tau_a - tau_b),
    -1/2 tau_a - 1/2 tau_b + tau_m                  m != a, b,

where the first weight is dropped when only the b-end of the edge carries
a special point and the second when only the a-end does.  Marked points
clustered at one end sit on a contracted component, which contributes
weight 0 (three special points) or weights {0, -lam/2} (four special
points, moduli a projective line with hyperplane class lam).  The pure
lam weight is kept apart from the lam-free ones, as
``EulerData.lam_weight``.
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
        return f"G(k={self.k},d=1,a={self.a},b={self.b},A={{{members}}})"


@dataclass(frozen=True)
class GraphGeometry:
    moduli_kind: str  # "point" or "m04"


@dataclass(frozen=True)
class EulerData:
    """Per-graph equivariant data.

    The odd normal weights are the lam-free ``susy_weights`` and, on m04
    loci, the pure weight ``lam_weight * lam`` (``lam_weight`` is -1/2
    there and 0 elsewhere).  The inverse Euler class of the fixed locus is
    (num_one + num_u * u + num_lam * lam) / (den_sign * prod (tau_i - tau_j)^m)
    with u = tau_b - tau_a, over ``den_factors``, the canonical pairs i < j
    with multiplicities m.
    """

    susy_weights: tuple[LinForm, ...]
    lam_weight: Fraction
    num_one: int
    num_u: int
    num_lam: int
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
            graphs.append(FixedGraph(n=n, a=a, b=b, A=members, k=k))
    return graphs


def geometry(g: FixedGraph) -> GraphGeometry:
    if g.k == 3 and len(g.A) in (0, 3):
        return GraphGeometry(moduli_kind="m04")
    return GraphGeometry(moduli_kind="point")


def single_edge_weights(n: int, a: int, b: int, config: EdgeConfig) -> list[LinForm]:
    """Odd normal weights of the degree-one edge through q_a and q_b."""
    if not 0 <= a < b <= n:
        raise DomainError("need 0 <= a < b <= n")
    half = Fraction(1, 2)
    weights = []
    if config != EdgeConfig.NO_MARK:
        weights.append(LinForm.make({a: half, b: -half}))
    if config != EdgeConfig.MARK_AT_A:
        weights.append(LinForm.make({a: -half, b: half}))
    weights += [LinForm.make({a: -half, b: -half, m: 1}) for m in range(n + 1) if m not in (a, b)]
    return weights


def _edge_config(num_at_a: int, num_at_b: int) -> EdgeConfig:
    if num_at_a and num_at_b:
        return EdgeConfig.MARKS_AT_BOTH
    if num_at_a:
        return EdgeConfig.MARK_AT_A
    return EdgeConfig.NO_MARK


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
    """Odd-normal weights and inverse fixed-locus Euler class of a degree-one graph."""
    if g.k not in (1, 2, 3):
        raise UnsupportedError("euler data implemented for k in {1, 2, 3}")
    num_at_a = len(g.A)
    num_at_b = g.k - num_at_a
    weights = single_edge_weights(g.n, g.a, g.b, _edge_config(num_at_a, num_at_b))
    # a contracted component (two or three marked points) adds the weight 0;
    # with three, it also carries the pure weight lam_weight * lam
    weights += [LinForm.zero()] * sum(count >= 2 for count in (num_at_a, num_at_b))
    if geometry(g).moduli_kind == "m04":
        # numerator u - lam when the marked points sit over q_a, -u - lam over q_b
        lam_weight, num_one, num_u, num_lam = Fraction(-1, 2), 0, (1 if num_at_a else -1), -1
    else:
        lam_weight, num_one, num_u, num_lam = Fraction(0), 1, 0, 0

    ordered, extra_sign = _den_structure(g)
    factors, flip = _canonical_factors(ordered)
    return EulerData(
        susy_weights=tuple(weights),
        lam_weight=lam_weight,
        num_one=num_one,
        num_u=num_u,
        num_lam=num_lam,
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
