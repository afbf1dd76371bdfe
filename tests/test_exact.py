"""Polynomial and symmetric-function arithmetic."""

import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import sgw
from sgw.errors import DimensionError
from sgw.exact import Poly, complete_homogeneous


def tau(i, num_tau=2):
    return Poly.tau(num_tau, i)


def linear(num_tau, taus=None, lam=0):
    """The degree-one Poly sum_i taus[i] * tau_i + lam * lam."""
    p = Poly.lam(num_tau).scale(lam)
    for i, coeff in (taus or {}).items():
        p = p + Poly.tau(num_tau, i).scale(coeff)
    return p


def test_monomial_product():
    assert tau(0) * tau(1) == Poly(2, {(1, 1, 0): F(1)})


def test_lambda_squares_to_zero():
    lam = Poly.lam(2)
    assert not lam * lam


def test_difference_of_squares():
    a, b = tau(0), tau(1)
    assert (a - b) * (a + b) == a * a - b * b


def test_scalar_times_poly_is_scale():
    # The localization integrand multiplies ring elements by Fraction and int
    # coefficients, which must act on Polys as they do on numbers.
    p = tau(0) - Poly.lam(2)
    assert F(-1, 2) * p == p.scale(F(-1, 2))
    assert 3 * p == p + p + p
    assert not 0 * p


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        Poly.tau(1, 0) * Poly.tau(2, 0)


def test_poly_eval_examples():
    assert (tau(1, 2) - tau(0, 2)).eval([0, 1]) == 1
    assert (tau(0, 2) * tau(1, 2)).eval([F(2, 3), 3]) == 2
    assert Poly.lam(2).eval([5, 7], 0) == 0


# -- complete homogeneous ----------------------------------------------


def brute_force_h(c, weights, num_tau):
    """Coefficient of t^c in prod_i sum_{j<=c} (w_i t)^j, truncated at t^c."""
    series = [Poly.one(num_tau)] + [Poly.zero(num_tau)] * c
    for w in weights:
        powers = [Poly.one(num_tau)]
        for _ in range(c):
            powers.append(powers[-1] * w)
        new = [Poly.zero(num_tau) for _ in range(c + 1)]
        for i in range(c + 1):
            for j in range(c + 1 - i):
                new[i + j] = new[i + j] + series[i] * powers[j]
        series = new
    return series[c]


def test_h_zero_is_one():
    assert complete_homogeneous(0, [linear(1, {0: 3})], 1) == Poly.one(1)
    assert complete_homogeneous(0, [], 4) == Poly.one(4)


def test_h_one_is_sum():
    w1 = linear(2, {0: 1})
    w2 = linear(2, {1: F(1, 2)}, lam=1)
    assert complete_homogeneous(1, [w1, w2], 2) == Poly(2, {(1, 0, 0): 1, (0, 1, 0): F(1, 2), (0, 0, 1): 1})


def test_h_two_nilpotent_pair_vanishes():
    weights = [Poly.zero(1), linear(1, lam=F(-1, 2))]
    assert not complete_homogeneous(2, weights, 1)


def test_h_two_single_weight_squares():
    w = linear(2, {0: 2, 1: -1})
    assert complete_homogeneous(2, [w], 2) == w * w


def random_weight(rng, num_tau):
    taus = {i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(num_tau)}
    lam = F(rng.randint(-2, 2), 2) if rng.random() < 0.4 else F(0)
    return linear(num_tau, taus, lam=lam)


def test_h_matches_brute_force_series():
    rng = random.Random(20)
    for _ in range(60):
        num_tau = rng.randint(1, 3)
        weights = [random_weight(rng, num_tau) for _ in range(rng.randint(0, 6))]
        c = rng.randint(0, 4)
        assert complete_homogeneous(c, weights, num_tau) == brute_force_h(c, weights, num_tau)


# -- ring laws and lambda truncation ------------------------------------


def random_poly(rng, num_tau):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.randint(0, 2) for _ in range(num_tau)) + (rng.randint(0, 1),)
        terms[mono] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(num_tau, terms)


def mul_without_truncation(a, b):
    """Reference product keeping all lam powers."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, F(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_poly_ring_laws():
    rng = random.Random(7)
    for _ in range(40):
        num_tau = rng.randint(1, 3)
        a, b, c = (random_poly(rng, num_tau) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_drops_exactly_high_lambda():
    rng = random.Random(8)
    for _ in range(40):
        num_tau = rng.randint(1, 3)
        a, b = random_poly(rng, num_tau), random_poly(rng, num_tau)
        reference = mul_without_truncation(a, b)
        truncated = {m: c for m, c in reference.items() if m[-1] < 2}
        assert (a * b).terms == truncated


def test_sgw_does_not_import_exact():
    # No runtime path uses Poly, so a process that imports sgw and its CLI
    # never loads exact.py.
    src = Path(sgw.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import sgw, sgw.cli; print('sgw.exact' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.stdout == "False\n", result.stderr
