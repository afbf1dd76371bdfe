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
pushes a kappa-only expression times psi_l^s0 down one level.  Its states
are keyed by interned kappa nodes, one per canonical kappa key, so a push
hashes no tuple: each node carries its branch expansion, its kappa bumps
and one push plan per s0, built on first use.  It has three callers:
``integrate_monomial`` walks a kappa-only state from k points down to 4,
taking one psi exponent per level; ``point_sum`` does the same for
many monomials at once; ``pushforward_step``, behind ``integrate``, groups
a ``TautExpr`` by psi key and pushes each group, turning its kappa keys
into nodes and back.
Coefficients stay in the ring they come in (integers from ``monomial``'s
default), and the integrals become a ``Fraction`` at their return.

``point_sum`` is the composition sum of ``point.sgw_point``, not taken
one composition at a time.  Integration pushes forward along the map
forgetting the last point, and every psi_j with j < l is pulled back
along that map, so by the projection formula it passes through the
pushforward unchanged.  Once the points above l are pushed forward, the
summand is therefore the prefix monomial in psi_4 .. psi_l times a
kappa-only expression, and the sum of those kappa-only expressions over
all suffixes (i_(l+1), .., i_k) depends only on the prefix sum
P = i_4 + .. + i_l.  ``point_sum`` keeps one map from interned kappa
node to coefficient per (level l, prefix sum P), starting from and
reading back the node of the empty key: at each level it pushes the map
of P times psi_l^i forward with ``_push``, the kernel that
``integrate_monomial`` walks one monomial with, and adds the result into
the map of P - i one level down, for every i <= P that the pruning of
``point`` keeps (P - i <= l - 4).  At k = 12 that is 165 kernel calls in
place of 4862 integrals of nine steps each.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import DomainError, as_tuple, instance, integer, rational

PsiFactors = tuple[tuple[int, int], ...]  # (pull depth, power >= 1), depths ascending and distinct
KappaFactors = tuple[tuple[int, int], ...]  # (index >= 1, power >= 1), indices ascending
Key = tuple[PsiFactors, KappaFactors]


def _check_exponents(k: int, exponents: Sequence[int]) -> tuple[int, ...]:
    """(e_4, .., e_k) as a tuple, once k >= 3, there are k - 3 of them and they are integers >= 0."""
    count = integer(k, "k", 3) - 3
    if type(exponents) is not tuple:  # ``as_tuple`` and its message off the tuple path: this runs on every call
        exponents = as_tuple(exponents, f"{count} exponents")
    if len(exponents) != count:
        raise DomainError(f"expected {count} exponents for k={k}")
    for e in exponents:
        if type(e) is not int:  # ``integer`` inline: this runs on every call
            integer(e, "every exponent")
        if e < 0:
            raise DomainError("psi factors need depth >= 0 and power >= 1")
    return exponents


class TautExpr:
    """Linear combination of monomials over a common l.

    ``_terms`` maps a canonical (psi, kappa) key to its nonzero coefficient,
    an int or a ``Fraction``.  The constructor refuses l < 3, a key that
    ``monomial`` could not have built and any other coefficient, zero
    included; sums and pushforwards build from checked keys, via ``_raw``.
    """

    __slots__ = ("l", "_terms")

    def __init__(self, l: int, terms: dict[Key, int | Fraction] | None = None):
        if integer(l, "l") < 3:
            raise DomainError("monomials live on a moduli space with l >= 3 points")
        terms = {} if terms is None else instance(terms, dict, "TautExpr")
        for key, coeff in terms.items():
            _check_key(key, l)
            rational(coeff)
        self.l, self._terms = l, {key: coeff for key, coeff in terms.items() if coeff}

    @classmethod
    def _raw(cls, l: int, terms: dict[Key, int | Fraction]) -> "TautExpr":
        """An expression from keys and coefficients already checked on the l-pointed space; zeros are dropped."""
        expr = cls.__new__(cls)
        expr.l, expr._terms = l, {key: coeff for key, coeff in terms.items() if coeff}
        return expr

    @classmethod
    def monomial(cls, l: int, psi: Iterable = (), kappa: Iterable = (), coeff=1) -> "TautExpr":
        """One monomial, given as (depth, power) and (index, power) pairs.

        Each factor is checked on its own, a zero power included; then zero powers are dropped and the powers of
        a repeated kappa index are added.
        """
        cls(l)  # a bad l is refused before any factor is read
        factors = [(integer(m, "every depth"), integer(p, "every power")) for m, p in _pairs(psi, "psi")]
        for m, p in factors:
            _check_key((((m, p or 1),), ()), l)  # a zero power is read as 1, so its depth is still checked
        merged: dict[int, int] = {}
        for a, p in _pairs(kappa, "kappa"):
            a, p = integer(a, "every kappa index"), integer(p, "every power")
            _check_key(((), ((a, p or 1),)), l)
            if p:
                merged[a] = merged.get(a, 0) + p
        return cls(l, {(tuple(sorted((m, p) for m, p in factors if p)), tuple(sorted(merged.items()))): coeff})

    def __add__(self, other: "TautExpr") -> "TautExpr":
        if instance(other, TautExpr, "addition").l != self.l:
            raise DomainError("mixed moduli spaces in one expression")
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return self._raw(self.l, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TautExpr) and self.l == other.l and self._terms == other._terms

    def __repr__(self) -> str:
        return f"TautExpr({self.l}, {self._terms!r})"


_UNSORTED = "depths must be ascending and kappa indices strictly ascending, got {!r}"


def _check_key(key, l: int) -> None:
    """Refuse a key that ``monomial`` could not have built on the l-pointed space, before it is unpacked."""
    psi, kappa = key if type(key) is tuple and len(key) == 2 else (None, None)
    if not (type(psi) is type(kappa) is tuple and all(type(f) is tuple and len(f) == 2 for f in psi + kappa)):
        raise DomainError(f"a TautExpr key must be a pair of tuples of (int, int) pairs, got {key!r}")
    if not all(type(m) is int and type(p) is int for m, p in psi + kappa):
        raise DomainError(f"every depth, kappa index and power must be an integer, got {key!r}")
    last = -1
    for m, p in psi:
        if p < 1 or m < 0:
            raise DomainError("psi factors need depth >= 0 and power >= 1")
        if l - m < 4:
            raise DomainError(f"depth {m} names a psi-class missing from the {l}-pointed space")
        if m <= last:
            raise DomainError("pull depths must be pairwise distinct" if m == last else _UNSORTED.format(key))
        last = m
    last = 0
    for a, p in kappa:
        if a < 1 or p < 1:
            raise DomainError("kappa factors need index >= 1 and power >= 1")
        if a <= last:
            raise DomainError(_UNSORTED.format(key))
        last = a


def _pairs(factors: Iterable, what: str) -> list:
    """``factors`` as a list, once each is a tuple or list of two; anything else is refused, not unpacked."""
    try:
        pairs = list(factors)
    except TypeError:  # not iterable: refused below as a factor of its own
        pairs = [factors]
    for pair in pairs:
        if type(pair) not in (tuple, list) or len(pair) != 2:
            raise DomainError(f"every {what} factor must be a pair, got {pair!r}")
    return pairs


def _degree(key: Key) -> int:
    psi, kappa = key
    return sum(p for _, p in psi) + sum(a * p for a, p in kappa)


class _KappaNode:
    """One canonical kappa key, interned in ``_NODES``, with what ``_push`` reads off it.

    ``branches`` expands every kappa_a^p as sum_t C(p,t) f^*(kappa_a^(p-t))
    psi_l^(a*t), as (rest node, extra psi_l power, binomial weight) triples;
    ``bumped[a]`` is the node of key * kappa_a; ``plans[s0]`` lists (node, a, b):
    pushing the key times psi_l^s0 adds coeff * (a + b * (l - 3)) to that
    node, as kappa_0 downstairs is the scalar (l - 1) - 2.  All are built on
    first use, and all are tuples but the two maps.  A node hashes by identity.
    """

    __slots__ = ("key", "branches", "bumped", "plans")

    def __init__(self, key: KappaFactors):
        self.key, self.branches, self.bumped, self.plans = key, None, {}, {}

    def times(self, a: int) -> "_KappaNode":
        """The node of this key times kappa_a: one scan of the sorted key bumps or inserts kappa_a."""
        node = self.bumped.get(a)
        if node is None:
            kappa, i = self.key, 0
            while i < len(kappa) and kappa[i][0] < a:
                i += 1
            if i < len(kappa) and kappa[i][0] == a:
                kappa = kappa[:i] + ((a, kappa[i][1] + 1),) + kappa[i + 1 :]
            else:
                kappa = kappa[:i] + ((a, 1),) + kappa[i:]
            node = self.bumped[a] = _node(kappa)
        return node

    def plan(self, s0: int) -> tuple[tuple["_KappaNode", int, int], ...]:
        """Build ``plans[s0]``: one entry per node that the push reaches."""
        if self.branches is None:
            branches: list[tuple[KappaFactors, int, int]] = [((), 0, 1)]
            for a, p in self.key:
                branches = [
                    (rest + ((a, p - t),) if p - t else rest, s_extra + a * t, weight * comb(p, t))
                    for rest, s_extra, weight in branches
                    for t in range(p + 1)
                ]
            self.branches = tuple((_node(rest), s_extra, weight) for rest, s_extra, weight in branches)
        merged: dict[_KappaNode, tuple[int, int]] = {}
        for rest, s_extra, weight in self.branches:
            s = s0 + s_extra
            if s:
                target, a, b = (rest, 0, weight) if s == 1 else (rest.times(s - 1), weight, 0)
                old_a, old_b = merged.get(target, (0, 0))
                merged[target] = (old_a + a, old_b + b)
        plan = self.plans[s0] = tuple((target, a, b) for target, (a, b) in merged.items())
        return plan


# Never evicted: a second node for one key would split its coefficient over
# two state entries.  The table holds each kappa key a computation reaches;
# a cold ``sgw_point(24)`` interns 792 of them, with 3505 plans.
_NODES: dict[KappaFactors, _KappaNode] = {}


def _node(kappa: KappaFactors) -> _KappaNode:
    node = _NODES.get(kappa)
    if node is None:
        node = _NODES[kappa] = _KappaNode(kappa)
    return node


def _push(
    kappas: dict[_KappaNode, int], l: int, s0: int, down: dict[_KappaNode, int] | None = None
) -> dict[_KappaNode, int]:
    """Push sum_K c_K K psi_l^s0 from l points down to l - 1, for kappa-only keys K.

    The module's only copy of the pushforward rule; factors pulled back
    from l - 1 points are kept aside by the callers.  Adds into ``down``
    if given, and returns it.
    """
    if down is None:
        down = {}
    m = l - 3
    for node, coeff in kappas.items():
        plan = node.plans.get(s0)
        if plan is None:
            plan = node.plan(s0)
        for target, a, b in plan:
            down[target] = down.get(target, 0) + coeff * (a + b * m)
    return down


def pushforward_step(expr: TautExpr) -> TautExpr:
    """Push an expression on the l-pointed space down to l - 1 points: one ``_push`` per psi key."""
    l = instance(expr, TautExpr, "pushforward_step").l
    if l == 3:
        raise DomainError("already on the 3-pointed space")
    by_psi: dict[PsiFactors, dict[_KappaNode, int | Fraction]] = {}
    for (psi, kappa), coeff in expr._terms.items():
        by_psi.setdefault(psi, {})[_node(kappa)] = coeff
    by_down: dict[PsiFactors, dict[_KappaNode, int | Fraction]] = {}
    for psi, kappas in by_psi.items():
        # depths are ascending, so a psi_l factor (depth 0) comes first
        s0 = psi[0][1] if psi and psi[0][0] == 0 else 0
        _push(kappas, l, s0, by_down.setdefault(tuple((m - 1, p) for m, p in psi if m), {}))
    return TautExpr._raw(l - 1, {(psi, node.key): c for psi, nodes in by_down.items() for node, c in nodes.items()})


def integrate(expr: TautExpr) -> Fraction:
    """Integrate over the moduli space; exact rational.  Monomials of degree other than l - 3 are dropped first."""
    instance(expr, TautExpr, "integrate")
    current = TautExpr._raw(expr.l, {key: c for key, c in expr._terms.items() if _degree(key) == expr.l - 3})
    while current.l > 3:
        current = pushforward_step(current)
    return Fraction(sum(current._terms.values()))


def integrate_monomial(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of the depth-graded psi monomial with the given exponents; level l pushes psi_l^(e_l)."""
    exponents = _check_exponents(k, exponents)
    if sum(exponents) != k - 3:
        return Fraction(0)
    root = _node(())
    kappas = {root: 1}
    for l, e in zip(range(k, 3, -1), reversed(exponents)):
        kappas = _push(kappas, l, e)
    return Fraction(kappas.get(root, 0))


def point_sum(k: int) -> Fraction:
    """Sum of the composition integrals entering the k-point number, k >= 3.

    ``states[P]`` maps the node of each kappa key of the kappa-only
    expression on the l-pointed space, summed over the exponents of the
    points above l, to its coefficient, for prefix sum P.
    """
    integer(k, "k", 3)
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
