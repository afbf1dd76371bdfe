"""Pushforward calculus on genus-zero moduli spaces."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgw.taut
from sgw.errors import DomainError
from sgw.tables import TAUT_ENTRIES
from sgw.taut import TautExpr, integrate, integrate_monomial, point_sum, pushforward_step


def expr(l, psi=(), kappa=(), coeff=1):
    return TautExpr.monomial(l, psi=psi, kappa=kappa, coeff=coeff)


def test_psi4_pushes_to_the_point_count():
    down = pushforward_step(expr(4, psi=[(0, 1)]))
    assert down == expr(3, coeff=1)
    assert integrate(expr(4, psi=[(0, 1)])) == 1


def test_pulled_psi_times_top_psi():
    down = pushforward_step(expr(5, psi=[(1, 1), (0, 1)]))
    assert down == expr(4, psi=[(0, 1)], coeff=2)


def test_pullback_alone_pushes_to_zero():
    down = pushforward_step(expr(5, psi=[(1, 1)]))
    assert down == TautExpr(4)


def test_pushforward_needs_four_points():
    with pytest.raises(DomainError):
        pushforward_step(expr(3))


def test_worked_integrals():
    assert integrate(expr(5, psi=[(0, 2)])) == 1
    assert integrate(expr(6, psi=[(2, 1), (1, 1), (0, 1)])) == 6
    assert integrate(expr(6, psi=[(1, 1), (0, 2)])) == 3
    assert integrate(expr(3)) == 1


def test_degree_gate():
    rng = random.Random(13)
    for _ in range(60):
        l = rng.randint(4, 8)
        psi = []
        for depth in rng.sample(range(l - 3), rng.randint(0, l - 3)):
            psi.append((depth, rng.randint(1, 2)))
        kappa = [(rng.randint(1, 3), 1)] if rng.random() < 0.5 else []
        degree = sum(p for _, p in psi) + sum(a * p for a, p in kappa)
        if degree != l - 3:
            assert integrate(expr(l, psi=psi, kappa=kappa)) == 0


def test_linearity():
    rng = random.Random(14)
    for _ in range(20):
        l = rng.randint(4, 7)
        psi1 = [(0, rng.randint(1, l - 3))]
        psi2 = [(rng.randint(0, l - 4), 1)]
        kappa2 = [(1, 1)] if rng.random() < 0.5 else []
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        combined = expr(l, psi=psi1, coeff=a) + expr(l, psi=psi2, kappa=kappa2, coeff=b)
        assert integrate(combined) == a * integrate(expr(l, psi=psi1)) + b * integrate(expr(l, psi=psi2, kappa=kappa2))


def test_pushforward_keeps_integer_coefficients():
    # Pushforward only multiplies by integers, so integer coefficients stay
    # integers; integrate forms a Fraction once, at its return.
    rng = random.Random(17)
    for _ in range(40):
        l = rng.randint(4, 8)
        psi = [(depth, rng.randint(1, 2)) for depth in rng.sample(range(l - 3), rng.randint(0, l - 3))]
        kappa = [(rng.randint(1, 3), rng.randint(1, 2))] if rng.random() < 0.5 else []
        current = expr(l, psi=psi, kappa=kappa, coeff=rng.choice([-3, -1, 2, 5]))
        while current.l > 3:
            current = pushforward_step(current)
            assert all(type(c) is int for c in current._terms.values()), current
    assert type(integrate_monomial(6, (1, 1, 1))) is F
    assert type(integrate_monomial(6, (3, 3, 3))) is F


@st.composite
def _expressions(draw):
    """A sum of a few checked monomials with nonzero integer coefficients on one l."""
    l = draw(st.integers(4, 9))
    total = TautExpr(l)
    for _ in range(draw(st.integers(1, 4))):
        depths = draw(st.lists(st.integers(0, l - 4), unique=True, max_size=3))
        psi = [(m, draw(st.integers(1, 3))) for m in depths]
        kappa = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2))
        coeff = draw(st.integers(-4, 4).filter(bool))
        total = total + expr(l, psi=psi, kappa=kappa, coeff=coeff)
    return total


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(start=_expressions())
def test_pushforward_emits_canonical_terms(start):
    # Only the checked constructors validate their input; every key a step
    # builds must already be what they would accept, on the smaller space.
    current = start
    while current.l > 3:
        current = pushforward_step(current)
        for (psi, kappa), coeff in current._terms.items():
            assert type(coeff) is int and coeff != 0, current
            depths = [m for m, _ in psi]
            assert depths == sorted(set(depths)) and all(0 <= m <= current.l - 4 for m in depths), current
            indices = [a for a, _ in kappa]
            assert indices == sorted(set(indices)) and all(a >= 1 for a in indices), current
            assert all(p >= 1 for _, p in psi + kappa), current
            assert expr(current.l, psi=psi, kappa=kappa, coeff=coeff) == TautExpr(current.l, {(psi, kappa): coeff})


def test_integrate_monomial_builds_no_expression(monkeypatch):
    # integrate_monomial checks its own input: with every way to build a
    # TautExpr broken it still gives the published integrals.
    def broken(*args, **kwargs):
        raise AssertionError("integrate_monomial built a TautExpr")

    monkeypatch.setattr(TautExpr, "__init__", broken)
    monkeypatch.setattr(TautExpr, "monomial", broken)
    assert len(TAUT_ENTRIES) == 7
    for entry in TAUT_ENTRIES:
        assert integrate_monomial(entry.k, entry.exps) == entry.value, entry


@pytest.mark.parametrize(
    "k,exps,error,message",
    [
        (2, (), DomainError, "k must be >= 3"),
        (-1, (1,), DomainError, "k must be >= 3"),
        (5, (1,), DomainError, "expected 2 exponents for k=5"),
        (4, (), DomainError, "expected 1 exponents for k=4"),
        (6, (1, -1, 3), DomainError, "psi factors need depth >= 0 and power >= 1"),
        (5, (-2, 4), DomainError, "psi factors need depth >= 0 and power >= 1"),
        (5, (1, "x"), DomainError, "every exponent must be an integer, got 'x'"),
        (5, (1, [2]), DomainError, "every exponent must be an integer, got [2]"),
    ],
)
def test_integrate_monomial_refuses_bad_input(k, exps, error, message):
    # integrate_monomial refuses bad input with exactly these types and messages.
    with pytest.raises(error) as info:
        integrate_monomial(k, exps)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "build,args,kwargs,message",
    [
        (integrate_monomial, (6, (1.5, 0, 1.5)), {}, "every exponent must be an integer, got 1.5"),
        (integrate_monomial, (6, (True, 1, 1)), {}, "every exponent must be an integer, got True"),
        (integrate_monomial, (6.0, (1, 1, 1)), {}, "k must be an integer, got 6.0"),
        (integrate_monomial, (6, (1, 1, 1.0)), {}, "every exponent must be an integer, got 1.0"),
        (TautExpr.monomial, (6,), {"psi": [(0, 1.5)]}, "every power must be an integer, got 1.5"),
        (TautExpr.monomial, (6,), {"psi": [(0.5, 1)]}, "every depth must be an integer, got 0.5"),
        (TautExpr.monomial, (6,), {"psi": [(1, 0.0)]}, "every power must be an integer, got 0.0"),
        (TautExpr.monomial, (6,), {"kappa": [(1.0, 1)]}, "every kappa index must be an integer, got 1.0"),
        (TautExpr.monomial, (6,), {"kappa": [(1, True)]}, "every power must be an integer, got True"),
        (TautExpr, (6.0,), {}, "l must be an integer, got 6.0"),
        (TautExpr.monomial, (4,), {"psi": [(0, 1)], "coeff": 0.1}, "coefficients must be integers or Fractions, got 0.1"),
        (TautExpr, (4, {(((0, 1),), ()): 0.0}), {}, "coefficients must be integers or Fractions, got 0.0"),
        (TautExpr.monomial, (4,), {"psi": [(0, 1)], "coeff": True}, "coefficients must be integers or Fractions, got True"),
        (TautExpr, (4, {(((0, 1),), ()): "1"}), {}, "coefficients must be integers or Fractions, got '1'"),
        (integrate, (None,), {}, "integrate needs a TautExpr, got NoneType"),
        (integrate, (3,), {}, "integrate needs a TautExpr, got int"),
        (TautExpr.monomial, (4,), {"psi": "2"}, "every psi factor must be a pair, got '2'"),
        (TautExpr.monomial, (4,), {"kappa": [1]}, "every kappa factor must be a pair, got 1"),
        (TautExpr.monomial, (5,), {"psi": [(0, 1, 1)]}, "every psi factor must be a pair, got (0, 1, 1)"),
        (TautExpr.monomial, (5,), {"kappa": None}, "every kappa factor must be a pair, got None"),
    ],
)
def test_non_integers_are_refused_not_truncated(build, args, kwargs, message):
    # int() used to truncate: integrate_monomial(6, (1.5, 0, 1.5)) read 1, and
    # psi=[(0, 1.5)] stored power 1.  A float coefficient would integrate to its
    # binary expansion, and 0.0 is refused before zero terms are dropped.  A bool
    # is an int to Python, not here.  A factor that is not a pair used to be
    # unpacked: psi="2" raised ValueError and kappa=[1] TypeError.
    with pytest.raises(DomainError) as info:
        build(*args, **kwargs)
    assert type(info.value) is DomainError and str(info.value) == message


# -- independent oracle --------------------------------------------------
# A from-scratch recursion over explicit dictionaries, no TautExpr machinery.


def oracle_integrate(l, psi, kappa, coeff=F(1)):
    psi = {m: p for m, p in psi.items() if p}
    kappa = {a: p for a, p in kappa.items() if p}
    if l == 3:
        return coeff if not psi and not kappa else F(0)
    branches = [({}, 0, 1)]
    for a, p in kappa.items():
        grown = []
        for rest, extra, weight in branches:
            for t in range(p + 1):
                kept = dict(rest)
                if p - t:
                    kept[a] = kept.get(a, 0) + (p - t)
                grown.append((kept, extra + a * t, weight * comb(p, t)))
        branches = grown
    total = F(0)
    top = psi.get(0, 0)
    for rest_kappa, extra, weight in branches:
        s = top + extra
        if s == 0:
            continue
        down_psi = {m - 1: p for m, p in psi.items() if m >= 1}
        down_kappa = dict(rest_kappa)
        scale = F(1)
        if s == 1:
            scale = F(l - 3)
        else:
            down_kappa[s - 1] = down_kappa.get(s - 1, 0) + 1
        total += oracle_integrate(l - 1, down_psi, down_kappa, coeff * weight * scale)
    return total


def oracle_monomial(k, exps):
    psi = {k - j: e for j, e in zip(range(4, k + 1), exps) if e}
    return oracle_integrate(k, psi, {})


def test_oracle_agrees_on_random_monomials():
    rng = random.Random(15)
    for _ in range(80):
        l = rng.randint(4, 8)
        psi = {}
        for depth in rng.sample(range(l - 3), rng.randint(0, l - 3)):
            psi[depth] = rng.randint(1, 3)
        kappa = {}
        if rng.random() < 0.6:
            kappa[rng.randint(1, 3)] = rng.randint(1, 2)
        assert integrate(expr(l, psi=psi.items(), kappa=kappa.items())) == oracle_integrate(l, psi, kappa)


@st.composite
def _weak_exponents(draw):
    """(k, exponents) with k <= 9; the total degree is k - 3 about half the time, anything up to 3 per point otherwise."""
    k = draw(st.integers(3, 9))
    if k > 3 and draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, k - 3), min_size=k - 4, max_size=k - 4)))
        bounds = [0, *cuts, k - 3]
        return k, tuple(b - a for a, b in zip(bounds, bounds[1:]))
    return k, tuple(draw(st.lists(st.integers(0, 3), min_size=k - 3, max_size=k - 3)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_weak_exponents())
def test_integrate_monomial_matches_integrate_and_oracle(case):
    # integrate_monomial runs the kernel on kappa-only states; integrate
    # pushes whole TautExprs; the oracle shares no code with either.
    k, exps = case
    value = integrate_monomial(k, exps)
    assert type(value) is F
    assert value == integrate(expr(k, psi=zip(range(k - 4, -1, -1), exps))) == oracle_monomial(k, exps)


def test_cold_caches_give_the_warm_values():
    # The node table is the kernel's only cache: emptied, it fills again on
    # the next calls and gives the values it gave warm.
    def values():
        return [point_sum(k) for k in range(3, 13)] + [integrate_monomial(9, (1, 0, 2, 1, 0, 2))]

    warm = values()
    sgw.taut._NODES.clear()
    cold = values()
    assert sgw.taut._NODES and cold == warm
    assert all(node.key == key for key, node in sgw.taut._NODES.items())


def test_cached_branch_tables_are_tuples():
    node = sgw.taut._node
    for kappa in [(), ((1, 1),), ((1, 2), (3, 1)), ((2, 3),)]:
        for s0 in range(4):
            plan = node(kappa).plan(s0)
            assert type(plan) is tuple and all(type(entry) is tuple for entry in plan)
            assert node(kappa).plans[s0] is plan
        table = node(kappa).branches
        assert type(table) is tuple and all(type(branch) is tuple for branch in table)
        assert node(kappa) is node(kappa) and all(rest is node(rest.key) for rest, _, _ in table)
    # kappa_1^2 kappa_3 = sum_t C(2, t) kappa_1^(2-t) psi^t times (kappa_3 + psi^3)
    assert [(rest.key, s, weight) for rest, s, weight in node(((1, 2), (3, 1))).branches] == [
        (((1, 2), (3, 1)), 0, 1),
        (((1, 2),), 3, 1),
        (((1, 1), (3, 1)), 1, 2),
        (((1, 1),), 4, 2),
        (((3, 1),), 2, 1),
        ((), 5, 1),
    ]
    # kappa_1^2 psi^0: psi^1 meets kappa_0 twice (b = 2), psi^2 gives kappa_1 once (a = 1)
    assert node(((1, 2),)).plan(0) == ((node(((1, 1),)), 1, 2),)
    assert node(((1, 1),)).times(2) is node(((1, 1), (2, 1)))
    assert node(((1, 1), (3, 2))).times(3) is node(((1, 1), (3, 3)))


def _reference_push(kappas, l, s0):
    """The module docstring's rule, one branch at a time, on tuple keys."""
    down = {}
    for kappa, coeff in kappas.items():
        # kappa_a^p = sum_t C(p, t) f^*(kappa_a^(p-t)) psi_l^(a*t), factor by factor
        branches = [({}, 0, 1)]
        for a, p in kappa:
            branches = [
                ({**rest, a: p - t} if p - t else rest, s + a * t, weight * comb(p, t))
                for rest, s, weight in branches
                for t in range(p + 1)
            ]
        for rest, s, weight in branches:
            s += s0
            if s == 0:  # no psi_l factor pushes to zero
                continue
            if s == 1:  # f^*(x) psi_l pushes to x kappa_0, the scalar (l - 1) - 2
                term = coeff * weight * (l - 3)
            else:  # f^*(x) psi_l^s pushes to x kappa_(s-1)
                rest = {**rest, s - 1: rest.get(s - 1, 0) + 1}
                term = coeff * weight
            key = tuple(sorted(rest.items()))
            down[key] = down.get(key, 0) + term
    return {key: c for key, c in down.items() if c}


_kappa_keys = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kappas=st.dictionaries(_kappa_keys, st.integers(-5, 5).filter(bool), min_size=1, max_size=4),
    l=st.integers(4, 24),
    data=st.data(),
)
def test_push_matches_a_per_branch_reference(kappas, l, data):
    s0 = data.draw(st.integers(0, l))
    node = sgw.taut._node
    pushed = sgw.taut._push({node(kappa): c for kappa, c in kappas.items()}, l, s0)
    assert {target.key: c for target, c in pushed.items() if c} == _reference_push(kappas, l, s0)
