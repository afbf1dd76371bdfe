"""Point-target invariants and the composition-sum enumerator."""

from fractions import Fraction as F
from itertools import product

import sgw.point
import sgw.taut
from sgw.point import MAX_K, Invariant, compositions, sgw_point
from sgw.tables import TAUT_ENTRIES
from sgw.taut import integrate_monomial, point_sum
from .test_taut import oracle_monomial


def unpruned(total, parts):
    """Every weak composition of ``total`` into ``parts`` parts, with no pruning."""
    return [comp for comp in product(range(total + 1), repeat=parts) if sum(comp) == total]


def oracle_point_sum(k):
    """Unpruned term-by-term evaluation through the independent recursion."""
    total = F(0)
    for comp in unpruned(k - 3, k - 3):
        total += oracle_monomial(k, comp)
    return total


def test_k_six_sum_includes_dilaton_composition():
    # The printed six-point value -3/2 sums only the four k=6 integrals of
    # the reference tables. The fifth pruned composition (0,2,1) gives, by
    # the dilaton equation, (5 - 2) * <psi_5^2 on M_0,5> = 3.
    printed = {e.exps: e.value for e in TAUT_ENTRIES if e.k == 6}
    assert set(compositions(3, 3)) == set(printed) | {(0, 2, 1)}
    assert integrate_monomial(6, (0, 2, 1)) == 3
    assert sum(printed.values()) == 12
    assert sum(printed.values()) + integrate_monomial(6, (0, 2, 1)) == point_sum(6) == 15


def test_closed_form_oracle():
    # sgw_point(k) = (-1)^(k-3) (2k-7)!! / 2^(k-3) kappa^(5-2k); the pushforward
    # computes it, the double factorial only checks it, up to the ceiling.
    for k in range(3, MAX_K + 1):
        double_factorial = 1
        for odd in range(2 * k - 7, 0, -2):
            double_factorial *= odd
        assert sgw_point(k) == Invariant(F((-1) ** (k - 3) * double_factorial, 2 ** (k - 3)), 5 - 2 * k), k


def test_sum_matches_per_composition_integrals():
    # The reference integrates every pruned composition on its own, k - 3
    # pushforward steps each; point_sum shares the steps between them.
    for k in range(3, 11):
        total = point_sum(k)
        assert type(total) is F and total == sum(integrate_monomial(k, c) for c in compositions(k - 3, k - 3)), k


def test_k_twelve_takes_one_pushforward_per_level_and_split(monkeypatch):
    # Nine levels, one step per (prefix sum, psi power) pair whose new prefix
    # sum survives the pruning one level down: 165 steps, where
    # integrating the 4862 compositions one by one takes 9 steps each.
    calls = []
    push = sgw.taut._push

    def counting(kappas, l, s0, down=None):
        calls.append(l)
        return push(kappas, l, s0, down)

    def forbidden(*args):
        raise AssertionError("integrate_monomial is not on the point path")

    monkeypatch.setattr(sgw.taut, "_push", counting)
    monkeypatch.setattr(sgw.point, "integrate_monomial", forbidden, raising=False)
    monkeypatch.setattr(sgw.taut, "integrate_monomial", forbidden)
    assert sgw_point(12) == Invariant(F(-1, 512) * 3 * 5 * 7 * 9 * 11 * 13 * 15 * 17, -19)
    assert len(calls) == 165
    assert sorted(set(calls)) == list(range(4, 13))


def test_node_table_holds_each_key_once(monkeypatch):
    # A cold sgw_point(24) interns every kappa key it reaches, 792 of them
    # with 3505 push plans; a second call interns none and plans none.
    nodes = sgw.taut._NODES
    nodes.clear()
    sgw_point(MAX_K)
    sizes = (len(nodes), sum(len(node.plans) for node in nodes.values()))
    assert sizes == (792, 3505)
    sgw_point(MAX_K)
    assert (len(nodes), sum(len(node.plans) for node in nodes.values())) == sizes
    # Both callers start from the interned () node and read it back: the last
    # push leaves every coefficient on it.
    pushed = []
    push = sgw.taut._push

    def recording(kappas, l, s0, down=None):
        pushed.append((l, push(kappas, l, s0, down)))
        return pushed[-1][1]

    monkeypatch.setattr(sgw.taut, "_push", recording)
    root = nodes[()]
    assert integrate_monomial(6, (1, 1, 1)) == 6 and pushed[-1] == (4, {root: 6})
    assert point_sum(6) == 15
    assert {key for l, down in pushed if l == 4 for key in down} == {root}
    assert len(nodes) == sizes[0]


def test_pruning_skips_only_zero_terms():
    for k in range(4, 8):
        pruned = set(compositions(k - 3, k - 3))
        assert pruned <= set(unpruned(k - 3, k - 3)), k
        for comp in unpruned(k - 3, k - 3):
            if comp not in pruned:
                assert oracle_monomial(k, comp) == 0
    # one part per level: a walk that recursed once per part would stop at the recursion limit
    assert list(compositions(0, 1200)) == [(0,) * 1200]
    assert list(compositions(30, 29)) == []


def test_invariant_canonical_zero():
    assert Invariant(0, -5) == Invariant(0, 0)
    # however a zero is built, its exponent is 0, so all zeros are one value
    for exponent in (-5, 0, 3):
        assert Invariant(0, exponent).kappa_exp == 0
        assert Invariant(F(0), exponent) == Invariant(0, 0) == (F(0), 0)
        assert hash(Invariant(F(0), exponent)) == hash(Invariant(0, 0))
    assert (Invariant(F(3, 4), -5).coeff, Invariant(F(3, 4), -5).kappa_exp) == (F(3, 4), -5)
    # the one constructor takes every coefficient through Fraction
    assert type(Invariant(0, 0).coeff) is type(Invariant(3, -1).coeff) is F
    assert str(Invariant(0, 0)) == "0"
    assert Invariant(0, 0).to_json() == {"zero": True}
    assert Invariant(F(-1, 2), -3).to_json() == {
        "coefficient": "-1/2",
        "kappa_exponent": -3,
    }
