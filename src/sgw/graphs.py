"""Torus fixed-point graphs for degree-one stable maps to P^n.

A fixed locus is labelled by a pair of target fixed points q_a, q_b
(a < b) and the subset A of marked points sitting over q_a.  The
equivariant weights of the odd normal directions of its one edge are

    1/2 (tau_a - tau_b),  -1/2 (tau_a - tau_b),
    -1/2 tau_a - 1/2 tau_b + tau_m                  m != a, b,

where the first weight is dropped when the a-end of the edge carries no
marked point and the second when the b-end carries none.  Marked points
clustered at one end sit on a contracted component, which contributes
weight 0 (three special points) or weights {0, -lam/2} (four special
points, moduli a projective line with hyperplane class lam).  The pure
lam weight is kept apart from the lam-free ones, as
``EulerData.lam_weight``.

Every locus has the same closed-form Euler denominator
u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j), u = tau_b - tau_a;
``EulerData`` stores only the numerator over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import DomainError, UnsupportedError
from .exact import LinForm, Poly


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

    @property
    def m04(self) -> bool:
        """Whether the locus is the four-pointed moduli curve (all three marks at one end)."""
        return self.k == 3 and len(self.A) in (0, 3)

    def label(self) -> str:
        members = ",".join(str(i) for i in sorted(self.A))
        return f"G(k={self.k},d=1,a={self.a},b={self.b},A={{{members}}})"


@dataclass(frozen=True)
class EulerData:
    """Per-graph equivariant data.

    The odd normal weights are the lam-free ``susy_weights`` and, on m04
    loci, the pure weight ``lam_weight * lam`` (``lam_weight`` is -1/2
    there and 0 elsewhere).  With u = tau_b - tau_a the inverse Euler class
    of the fixed locus is

        (num_one + num_u * u + num_lam * lam) / (u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j)).
    """

    susy_weights: tuple[LinForm, ...]
    lam_weight: Fraction
    num_one: int
    num_u: int
    num_lam: int


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


def single_edge_weights(n: int, a: int, b: int, marks_at_a: int, marks_at_b: int) -> list[LinForm]:
    """Odd normal weights of the degree-one edge through q_a and q_b.

    The weight of an end is dropped when that end carries no marked point.
    """
    if not 0 <= a < b <= n:
        raise DomainError("need 0 <= a < b <= n")
    half = Fraction(1, 2)
    weights = []
    if marks_at_a:
        weights.append(LinForm.make({a: half, b: -half}))
    if marks_at_b:
        weights.append(LinForm.make({a: -half, b: half}))
    weights += [LinForm.make({a: -half, b: -half, m: 1}) for m in range(n + 1) if m not in (a, b)]
    return weights


@lru_cache(maxsize=None)
def euler_data(g: FixedGraph) -> EulerData:
    """Odd-normal weights and inverse fixed-locus Euler class of a degree-one graph."""
    if g.k not in (1, 2, 3):
        raise UnsupportedError("euler data implemented for k in {1, 2, 3}")
    num_at_a = len(g.A)
    num_at_b = g.k - num_at_a
    weights = single_edge_weights(g.n, g.a, g.b, num_at_a, num_at_b)
    # a contracted component (two or three marked points) adds the weight 0;
    # with three, it also carries the pure weight lam_weight * lam
    weights += [LinForm.zero()] * sum(count >= 2 for count in (num_at_a, num_at_b))
    # Virtual localization: the edge gives 1 / (-u^2 prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j)),
    # and an end with flag weight w (-u at q_a, u at q_b) and m marked points
    # gives w, 1, 1/w or (w + lam)/w^2 for m = 0, 1, 2, 3.  Against the
    # closed form the product is (-1)^|A| on a point locus, and
    # (u - lam) over q_a or (u + lam) over q_b on an m04 locus.
    if g.m04:
        lam_weight, num_one, num_u, num_lam = Fraction(-1, 2), 0, 1, (-1 if num_at_a else 1)
    else:
        lam_weight, num_one, num_u, num_lam = Fraction(0), (-1) ** num_at_a, 0, 0
    return EulerData(
        susy_weights=tuple(weights),
        lam_weight=lam_weight,
        num_one=num_one,
        num_u=num_u,
        num_lam=num_lam,
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
