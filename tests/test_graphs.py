"""Fixed-point graph enumeration and equivariant weight data."""

import random
from fractions import Fraction as F
from typing import Sequence

import pytest

from sgw.exact import Poly
from sgw.graphs import EulerData, FixedGraph, enumerate_graphs, euler_data, ev_pullback

from .test_exact import linear


# Reference odd weights, listed one by one: ``localize`` never lists them,
# but reads their h off the characters and takes a missing flag weight out
# inline, and its tests compare both against these.
def pair_weights(n: int, a: int, b: int, tau: Sequence) -> list:
    """Twice the lam-free odd normal weights of every graph on the pair (a, b), in the ring of ``tau``.

    The list is -u, then 2 tau_m - tau_a - tau_b for m != a, b, then u: a
    graph with marks at both ends has them all, and one with every mark at
    one end lacks only the flag weight of its bare end.  As a multiset it
    is 2 tau_m - tau_a - tau_b for every m: m = a gives -u and m = b gives u.
    """
    tau_a, tau_b = tau[a], tau[b]
    u = tau_b - tau_a
    return [-u] + [2 * tau[m] - tau_a - tau_b for m in range(n + 1) if m != a and m != b] + [u]


def odd_weights(g: FixedGraph, tau: Sequence) -> list:
    """Twice the lam-free odd normal weights of ``g``, in the ring of the characters ``tau``.

    A slice of ``pair_weights``: -u goes when no mark is over q_a, u when
    none is over q_b.  The weight 0 of a contracted component is left out:
    it leaves every h_c unchanged.
    """
    weights = pair_weights(g.n, g.a, g.b, tau)
    return weights[(0 if g.A else 1) : len(weights) - (len(g.A) == g.k)]


def characters(num_tau):
    return [Poly.tau(num_tau, i) for i in range(num_tau)]


def diff(num_tau, i, j):
    return Poly.tau(num_tau, i) - Poly.tau(num_tau, j)


def inverse_euler_parts(g, num_tau):
    """(closed-form denominator multiplied out, lam-free numerator, lam coefficient)."""
    data = euler_data(g)
    u = diff(num_tau, g.b, g.a)
    den = u ** g.k
    for j in range(num_tau):
        if j not in (g.a, g.b):
            den = den * diff(num_tau, g.a, j) * diff(num_tau, g.b, j)
    return den, Poly.const(num_tau, data.num_one) + u.scale(data.num_u), Poly.const(num_tau, data.num_lam)


def graph(n, k, a, b, members):
    return FixedGraph(n=n, a=a, b=b, A=frozenset(members), k=k)


def test_enumeration_counts():
    assert len(enumerate_graphs(1, 1)) == 2
    assert len(enumerate_graphs(1, 3)) == 8
    assert len(enumerate_graphs(5, 2)) == 60


def test_enumeration_order():
    found = enumerate_graphs(2, 2)
    assert found[0] == graph(2, 2, 0, 1, [])
    assert found[1] == graph(2, 2, 0, 1, [1])
    assert found[2] == graph(2, 2, 0, 1, [2])
    assert found[3] == graph(2, 2, 0, 1, [1, 2])
    assert found[4] == graph(2, 2, 0, 2, [])
    assert found[-1] == graph(2, 2, 1, 2, [1, 2])


def test_graph_label():
    assert graph(3, 3, 0, 1, [1, 3]).label() == "G(k=3,d=1,a=0,b=1,A={1,3})"


def test_graphs_built_separately_are_equal_values():
    # enumerate_graphs builds its graphs without the checks; each equals,
    # and hashes as, the graph built through them, so both find one
    # euler_data entry.
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            enumerated = enumerate_graphs(n, k)
            assert enumerated == enumerate_graphs(n, k)
            for g in enumerated:
                again = graph(n, k, g.a, g.b, sorted(g.A))
                assert type(g) is type(again) is FixedGraph
                assert g == again and hash(g) == hash(again), g
                assert euler_data(again) is euler_data(g)
            assert len(set(enumerated)) == len(enumerated)


def test_odd_weights_agree_across_rings():
    # The same formula at integer characters and at Poly characters evaluated there.
    rng = random.Random(41)
    for n in range(1, 5):
        taus = rng.sample(range(-99, 100), n + 1)
        for k in (1, 2, 3):
            for g in enumerate_graphs(n, k):
                symbolic = odd_weights(g, characters(n + 1))
                assert odd_weights(g, taus) == [w.eval(taus) for w in symbolic], g


# One graph per end configuration on P^3 with (a, b) = (1, 3): twice the odd
# weights are -u for a marked a-end, u for a marked b-end, and
# 2 tau_m - tau_1 - tau_3 for m = 0, 2, with u = tau_3 - tau_1.
_U = {1: -1, 3: 1}
_OTHERS = [{0: 2, 1: -1, 3: -1}, {2: 2, 1: -1, 3: -1}]
PINNED_WEIGHTS = [
    (1, [], [_U] + _OTHERS),
    (3, [], [_U] + _OTHERS),
    (1, [1], [{1: 1, 3: -1}] + _OTHERS),
    (3, [1, 2, 3], [{1: 1, 3: -1}] + _OTHERS),
    (2, [2], [{1: 1, 3: -1}, _U] + _OTHERS),
    (3, [1, 3], [{1: 1, 3: -1}, _U] + _OTHERS),
]


@pytest.mark.parametrize("k,members,expected", PINNED_WEIGHTS)
def test_odd_weights_pinned_per_end_configuration(k, members, expected):
    got = odd_weights(graph(3, k, 1, 3, members), characters(4))
    assert sorted(got, key=repr) == sorted((linear(4, taus) for taus in expected), key=repr)


def test_euler_data_one_point_empty():
    g = graph(1, 1, 0, 1, [])
    data = euler_data(g)
    u = Poly.tau(2, 1) - Poly.tau(2, 0)
    assert odd_weights(g, characters(2)) == [u]
    assert data.lam_weight == 0
    assert inverse_euler_parts(g, 2) == (u, Poly.one(2), Poly.zero(2))


def test_euler_data_two_point_empty():
    g = graph(1, 2, 0, 1, [])
    data = euler_data(g)
    u = Poly.tau(2, 1) - Poly.tau(2, 0)
    # the weight 0 of the contracted component is left out
    assert odd_weights(g, characters(2)) == [u]
    assert data.lam_weight == 0
    assert inverse_euler_parts(g, 2) == (u * u, Poly.one(2), Poly.zero(2))


def test_euler_data_three_point_empty():
    g = graph(1, 3, 0, 1, [])
    data = euler_data(g)
    u = Poly.tau(2, 1) - Poly.tau(2, 0)
    # the odd weights are {0, -lam/2, u/2}: odd_weights gives twice the
    # nonzero lam-free one, lam_weight twice the coefficient of the lam one
    assert odd_weights(g, characters(2)) == [u]
    assert data.lam_weight == -1
    # (u + lam) / u^3: all three marked points over q_b
    assert inverse_euler_parts(g, 2) == (u * u * u, u, Poly.one(2))


# One graph per (k, |A|) with |A| >= 1, on P^3 with (a, b) = (1, 3) so that
# one other index lies below a and one between a and b: the inverse Euler
# class written out factor by factor, as sign / prod (tau_x - tau_y) times a
# numerator (one, u, lam).
_P1 = [(1, 0), (1, 2), (3, 0), (3, 2)]
_P2 = [(1, 0), (1, 2), (1, 3), (3, 0), (3, 1), (3, 2)]
PINNED = [
    (1, [1], 1, [(1, 3)] + _P1, (1, 0, 0)),
    (2, [1], 1, _P2, (1, 0, 0)),
    (2, [1, 2], -1, _P2, (1, 0, 0)),
    (3, [2], 1, [(3, 1)] + _P2, (1, 0, 0)),
    (3, [1, 3], 1, [(1, 3)] + _P2, (1, 0, 0)),
    (3, [1, 2, 3], 1, [(1, 3)] + _P2, (0, 1, -1)),
]


@pytest.mark.parametrize("k,members,sign,factors,numerator", PINNED)
def test_euler_data_pinned_per_sign_row(k, members, sign, factors, numerator):
    den, lam_free, lam_coeff = inverse_euler_parts(graph(3, k, 1, 3, members), 4)
    expected_den = Poly.const(4, sign)
    for x, y in factors:
        expected_den = expected_den * diff(4, x, y)
    one, u_coeff, lam_coeff_expected = numerator
    expected_num = Poly.const(4, one) + diff(4, 3, 1).scale(u_coeff) + Poly.lam(4).scale(lam_coeff_expected)
    assert (lam_free + lam_coeff * Poly.lam(4)) * expected_den == expected_num * den


def test_euler_data_rank():
    for n in range(1, 6):
        taus = list(range(n + 1))
        for k in (1, 2, 3):
            for g in enumerate_graphs(n, k):
                # each contracted component (two or more marks at one end) has one weight 0
                contracted = sum(count >= 2 for count in (len(g.A), k - len(g.A)))
                pure_lam = euler_data(g).lam_weight != 0
                assert len(odd_weights(g, taus)) + contracted + pure_lam == (n + 1) + k - 2


def test_lambda_appears_iff_m04():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for g in enumerate_graphs(n, k):
                data = euler_data(g)
                assert all(mono[-1] == 0 for w in odd_weights(g, characters(n + 1)) for mono in w.terms)
                assert (data.lam_weight != 0) == g.m04 == (k == 3 and len(g.A) in (0, 3))
                assert (data.num_lam != 0) == g.m04


def _virtual_localization_numerator(g, u):
    """The numerator of the closed form at the flag value u, as (lam-free part, lam coefficient), lam^2 = 0.

    Recomputed from the comment on the four ``EulerData`` values: the edge
    gives 1 / (-u^2 prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j)), and an
    end with flag weight w (-u at q_a, u at q_b) and m marked points gives
    w, 1, 1/w or (w + lam) / w^2 for m = 0, 1, 2, 3.  Times the closed-form
    denominator u^k prod_{j != a, b} (...), the product over j cancels.
    """

    def times(x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])

    value = (F(u**g.k, -(u**2)), F(0))
    for w, m in ((-u, len(g.A)), (u, g.k - len(g.A))):
        end = [(F(w), F(0)), (F(1), F(0)), (F(1, w), F(0)), (F(1, w), F(1, w**2))][m]
        value = times(value, end)
    return value


def test_euler_data_is_the_virtual_localization_formula():
    # Every graph with n <= 3 and k <= 3: the stored numerator
    # num_one + num_u * u + num_lam * lam is the formula's, at three values
    # of u (it is of degree <= 1 in u), and lam_weight is -1 exactly on m04
    # loci.  The data take four values, one object each.
    values = set()
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for g in enumerate_graphs(n, k):
                data = euler_data(g)
                values.add(id(data))
                assert type(data) is EulerData and data.lam_weight == (-1 if g.m04 else 0), g
                for u in (2, 3, -5):
                    assert (data.num_one + data.num_u * u, data.num_lam) == _virtual_localization_numerator(g, u), g
    assert len(values) == 4


def test_ev_pullback():
    assert ev_pullback(graph(1, 3, 0, 1, []), (1, 1, 1)) == Poly(2, {(0, 3, 0): F(1)})
    assert ev_pullback(graph(1, 3, 0, 1, [1]), (1, 1, 1)) == Poly(2, {(1, 2, 0): F(1)})
    assert ev_pullback(graph(2, 3, 0, 2, [2]), (0, 0, 0)) == Poly.one(3)
