"""First-order quantum product of hyperplane powers."""

from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from sgw.localize import table
from sgw.point import Invariant
from sgw.quantum import QElement, _three_point, star, structure_table


def basis(n, a):
    return QElement.basis(n, a)


def q_unit(n):
    return QElement(n, {(0, 1): {0: F(1)}})


def test_classical_part_is_cup_product():
    n = 2
    for a in range(n + 1):
        for b in range(n + 1):
            product = star(n, basis(n, a), basis(n, b))
            classical = {key: laurent for key, laurent in product.comps.items() if key[1] == 0}
            assert classical == (basis(n, a + b).comps if a + b <= n else {}), (a, b)


def test_commutativity():
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(a, n + 1):
                assert star(n, basis(n, a), basis(n, b)) == star(n, basis(n, b), basis(n, a))


def test_star_is_associative():
    # The super small quantum product modulo q^2 is a ring, so every basis
    # triple must associate; this ties the stored three-point values together
    # through star alone, however the table was summed.
    triples = 0
    for n in range(1, 9):
        for a, b, c in product(range(n + 1), repeat=3):
            x, y, z = basis(n, a), basis(n, b), basis(n, c)
            assert star(n, star(n, x, y), z) == star(n, x, star(n, y, z)), (n, a, b, c)
            triples += 1
    assert triples == 2024


def test_two_minus_e_is_the_unit():
    # L^0 is not the unit: e = L^0 * L^0 = 1 + q*(...).  The unit is u = 2 - e, on either side of every L^a.
    for n in (1, 2, 3):
        e = star(n, basis(n, 0), basis(n, 0))
        assert e != basis(n, 0) and e.comps[(0, 0)] == {0: 1}
        comps = {key: {exp: -c for exp, c in laurent.items()} for key, laurent in e.comps.items()}
        comps[(0, 0)] = {0: F(1)}
        u = QElement(n, comps)
        for a in range(n + 1):
            assert star(n, u, basis(n, a)) == basis(n, a) == star(n, basis(n, a), u), (n, a)


def test_q_squared_unrepresentable():
    n = 1
    q_line = star(n, basis(n, 1), basis(n, 1))
    assert q_line == q_unit(n)
    assert star(n, q_line, q_line) == QElement(n)
    assert QElement(n, {(0, 2): {0: F(1)}}) == QElement(n)
    assert QElement(2, {(3, 0): {0: 1}}) == QElement(2)


def test_structure_table_entries():
    table1 = structure_table(1)
    assert table1[(1, 1)] == [(0, Invariant(0, 0)), (1, Invariant(1, -3))]
    table2 = structure_table(2)
    assert table2[(2, 2)][1] == (1, Invariant(1, -4))
    assert table2[(1, 2)][1] == (1, Invariant(F(3, 2), -5))
    table3 = structure_table(3)
    assert table3[(3, 3)][0] == (0, Invariant(0, 0))
    assert table3[(3, 3)][1] == (1, Invariant(1, -5))


@pytest.mark.parametrize("seed", [1729, 5])
def test_structure_table_is_symmetric_in_its_insertions(seed):
    # The quantum table sweeps only the sorted triples and reads every other
    # order through them; each cell must equal the value that table computes
    # for that ordered triple itself.
    for n in range(1, 5):
        assert len(_three_point(n, seed)) == comb(n + 3, 3)
        ordered = table(n, 3, product(range(n + 1), repeat=3), seed=seed)
        cells = structure_table(n, seed=seed)
        assert len(cells) == (n + 1) * (n + 2) // 2
        for (a, b), entries in cells.items():
            assert [c for c, _ in entries] == list(range(n + 1))
            for c, inv in entries:
                assert inv == ordered[(a, b, c)], (n, a, b, c)


def test_star_rendering():
    assert str(star(1, basis(1, 1), basis(1, 1))) == "q"
    text = str(star(2, basis(2, 1), basis(2, 1)))
    assert text.startswith("L^2 + q*(3/2*kappa^-1)")
    assert str(QElement(1, {(0, 0): {-1: F(1)}})) == "(kappa^-1)"


def test_star_is_bilinear_over_laurent_coefficients():
    # x = (1 + 2 kappa^-1) L + (-3/2 kappa^-2) q, y = 5 kappa L^2 + (1 + 7 kappa^-3) L^3:
    # star(x, y) is the sum over component pairs of the basis product,
    # times both coefficients, shifted by both q-powers.
    n = 3
    x_comps = {(1, 0): {0: F(1), -1: F(2)}, (0, 1): {-2: F(-3, 2)}}
    y_comps = {(2, 0): {1: F(5)}, (3, 0): {0: F(1), -3: F(7)}}
    expected = {}
    for ((la, qa), ca), ((lb, qb), cb) in product(x_comps.items(), y_comps.items()):
        for (lam_pow, q_pow), laurent in star(n, basis(n, la), basis(n, lb)).comps.items():
            acc = expected.setdefault((lam_pow, q_pow + qa + qb), {})
            for (e, c), (ea, a), (eb, b) in product(laurent.items(), ca.items(), cb.items()):
                acc[e + ea + eb] = acc.get(e + ea + eb, 0) + c * a * b
    x, y = QElement(n, x_comps), QElement(n, y_comps)
    assert star(n, x, y) == QElement(n, expected)
    assert star(n, x, y).comps.get((0, 1), {})  # the q-terms are not all zero

    def times_q(element):
        return QElement(n, {(lam_pow, q_pow + 1): laurent for (lam_pow, q_pow), laurent in element.comps.items()})

    assert star(n, times_q(x), times_q(y)) == QElement(n)


def test_coefficients_stay_exact():
    # An int coefficient becomes a Fraction; a Fraction is kept as the same object.
    third = F(1, 3)
    kept = QElement(2, {(1, 0): {0: third, -1: 2}}).comps[(1, 0)]
    assert kept[0] is third and kept[-1] == 2 and type(kept[-1]) is F
