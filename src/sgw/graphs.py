"""Torus fixed-point graphs for degree-one stable maps to P^n.

A fixed locus is labelled by a pair of target fixed points q_a, q_b
(a < b) and the subset A of marked points sitting over q_a.  With
u = tau_b - tau_a, twice the equivariant weights of the odd normal
directions of its one edge are

    -u,  u,  2 tau_m - tau_a - tau_b                m != a, b,

where the first is dropped when the a-end of the edge carries no marked
point and the second when the b-end carries none.  Marked points
clustered at one end sit on a contracted component, which contributes
weight 0 (three special points) or weights {0, -lam/2} (four special
points, moduli a projective line with hyperplane class lam).  The pure
lam weight is ``EulerData.lam_weight``; ``localize`` builds the lam-free
weights from the characters.

Every locus has the same closed-form Euler denominator
u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j); ``EulerData``
stores only the numerator over it, which takes one of four values.
Graphs and their data are named tuples: hashing and comparing a graph,
as every ``euler_data`` lookup does, runs in C.  ``check_size`` alone
refuses sizes other than n >= 1, k in {1, 2, 3}, for every caller.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DomainError, UnsupportedError, as_tuple, instance, integer

if TYPE_CHECKING:
    from .exact import Poly


def check_size(n: int, k: int) -> None:
    """Refuse (n, k) unless n is an integer >= 1 and k is 1, 2 or 3: the sizes degree-one localization takes."""
    integer(n, "n", 1)
    if integer(k, "k") not in (1, 2, 3):
        raise UnsupportedError("localization implemented for k in {1, 2, 3}")


class _GraphFields(NamedTuple):
    n: int
    a: int
    b: int
    A: frozenset[int]
    k: int


class FixedGraph(_GraphFields):
    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int, A: frozenset[int], k: int):
        check_size(n, k)
        if not 0 <= integer(a, "a") < integer(b, "b") <= n:  # b is checked wherever the chain reads it
            raise DomainError("need 0 <= a < b <= n")
        if not {integer(i, "every mark in A") for i in instance(A, frozenset, "A")} <= set(range(1, k + 1)):
            raise DomainError("A must be a subset of the marked-point labels")
        return super().__new__(cls, n, a, b, A, k)

    @property
    def m04(self) -> bool:
        """Whether the locus is the four-pointed moduli curve (all three marks at one end)."""
        return self.k == 3 and len(self.A) in (0, 3)

    def label(self) -> str:
        members = ",".join(str(i) for i in sorted(self.A))
        return f"G(k={self.k},d=1,a={self.a},b={self.b},A={{{members}}})"


class EulerData(NamedTuple):
    """Per-graph equivariant data, in integers: one of four values, by locus type.

    Twice the lam-free odd normal weights are those of the module
    docstring; twice the pure lam weight is ``lam_weight * lam``
    (``lam_weight`` is -1 on m04 loci and 0 elsewhere).  With
    u = tau_b - tau_a the inverse Euler class of the fixed locus is

        (num_one + num_u * u + num_lam * lam) / (u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j)).
    """

    lam_weight: int
    num_one: int
    num_u: int
    num_lam: int


# Virtual localization: the edge gives 1 / (-u^2 prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j)),
# and an end with flag weight w (-u at q_a, u at q_b) and m marked points
# gives w, 1, 1/w or (w + lam)/w^2 for m = 0, 1, 2, 3.  Against the
# closed form the product is (-1)^|A| on a point locus, and
# (u - lam) over q_a or (u + lam) over q_b on an m04 locus, whose
# contracted component carries the pure weight -lam/2 (lam_weight is
# twice its coefficient).
_POINT_LOCUS = (EulerData(0, 1, 0, 0), EulerData(0, -1, 0, 0))  # by the parity of |A|
_M04_OVER_A = EulerData(-1, 0, 1, -1)
_M04_OVER_B = EulerData(-1, 0, 1, 1)


def enumerate_graphs(n: int, k: int) -> list[FixedGraph]:
    """All degree-one fixed graphs, (a, b) ascending then A by bitmask."""
    check_size(n, k)
    subsets = [frozenset(i + 1 for i in range(k) if mask >> i & 1) for mask in range(2**k)]
    # valid by construction, so built without ``FixedGraph.__new__``'s checks
    return [tuple.__new__(FixedGraph, (n, a, b, A, k)) for a, b in combinations(range(n + 1), 2) for A in subsets]


@lru_cache(maxsize=None)
def euler_data(g: FixedGraph) -> EulerData:
    """Pure lam weight and inverse Euler class of a degree-one graph: one of the four values above, cached per graph."""
    check_size(instance(g, FixedGraph, "euler_data").n, g.k)  # runs on cache misses only
    if g.m04:
        return _M04_OVER_A if g.A else _M04_OVER_B
    return _POINT_LOCUS[len(g.A) % 2]


def check_classes(n: int, k: int, classes: Sequence[int]) -> tuple[int, ...]:
    """``classes`` as a tuple of k class exponents, each an integer in [0, n]: the rule of a job and of a pullback."""
    if len(classes := as_tuple(classes, f"{k} classes")) != k:
        raise DomainError(f"expected {k} classes")
    for a in classes:
        if not 0 <= integer(a, "every class exponent") <= n:
            raise DomainError(f"class exponent {a} outside [0, {n}]")
    return classes


def ev_exponents(g: FixedGraph, classes: Sequence[int]) -> tuple[int, int]:
    """Powers of tau_a and tau_b in the evaluation pullback: classes over A go to tau_a."""
    classes = check_classes(instance(g, FixedGraph, "ev_exponents").n, g.k, classes)
    at_a = sum(power for i, power in enumerate(classes, start=1) if i in g.A)
    return at_a, sum(classes) - at_a


def ev_pullback(g: FixedGraph, classes: Sequence[int]) -> Poly:
    """Evaluation pullback of hyperplane powers as a ``Poly``: tau_a over A, tau_b elsewhere."""
    from .exact import Poly  # imported here: no runtime path needs exact.py

    exp = [0] * (instance(g, FixedGraph, "ev_pullback").n + 2)
    exp[g.a], exp[g.b] = ev_exponents(g, classes)
    return Poly(g.n + 1, {tuple(exp): 1})
