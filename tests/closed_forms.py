"""Closed forms of every degree-one invariant of P^n for k <= 3, and the check of ``localize.table`` against them.

    PYTHONPATH=src python3 tests/closed_forms.py

The forms are empirical: they are fitted to this code's own output, neither
derived nor printed in the paper.  They cross-check localization, nothing in
``sgw`` computes a value from them, and they are never a reason to edit
``tables.py``.  A value of negative codegree is zero, and 1/m! = 0 for m < 0:

  <H^a>_1 = v(n, a) kappa^(a-3n+1) with
      v(n, n) = (C(2n, n) - C(2n-2, n-1)) / 2^(n-1),
      v(n, a) / v(n, a+1) = (3a-2)(3n-a-2) / ((6a+2)(n-a));
  <H^a, H^b>_2 with codegree c = 2n - a - b is
      [(n+c)! / (n! (n-a)! (n-b)!) - 3n (n+c-1)! / (n!^2 (c-n)!)] / 2^c kappa^(a+b-3n-1);
  <H^a, H^b, H^c>_3 with codegree e = 2n + 1 - a - b - c is
      [C(n+e, e) S - (2n+1-e) (n+e-2)! / (n!^2 (e-n-1)!)] / 2^e kappa^(a+b+c-3n-3),
      S = -1/2 [x^n y^n] (x - y)^2 h_{a-1} h_{b-1} h_{c-1} (x + y)^e,

with h_j(x, y) = sum_{i <= j} x^i y^(j-i) and h_{-1} = 0.  S is the Schubert
number of sigma_{a-1} sigma_{b-1} sigma_{c-1} sigma_1^e on the Grassmannian
G(2, n+1) of lines in P^n.  Every golden entry of ``sgw.tables`` equals its
form as printed, and none of the suspect or discrepant ones does.

Run as a script, the module checks every sorted tuple of ``table(n, k, ...)``
for 1 <= n <= 20 and k <= 3, the whole domain the CLI admits, at the default
seed.  It prints each mismatch and the number of cells, and exits 1 on any
mismatch; a sum that is not constant in the characters raises, as ``table``
does.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from math import comb, factorial
from typing import Iterable, Sequence

from sgw.localize import table
from sgw.point import Invariant


def one_point(n: int, a: int) -> Invariant:
    """<H^a>_1 on P^n."""
    if a > 2 * n - 1:
        return Invariant(0, 0)
    v = F(comb(2 * n, n) - comb(2 * n - 2, n - 1), 2 ** (n - 1))
    for j in range(n - 1, a - 1, -1):
        v *= F((3 * j - 2) * (3 * n - j - 2), (6 * j + 2) * (n - j))
    return Invariant(v, a - 3 * n + 1)


def two_point(n: int, a: int, b: int) -> Invariant:
    """<H^a, H^b>_2 on P^n."""
    c = 2 * n - a - b
    if c < 0:
        return Invariant(0, 0)
    value = F(factorial(n + c), factorial(n) * factorial(n - a) * factorial(n - b))
    if c >= n:
        value -= F(3 * n * factorial(n + c - 1), factorial(n) ** 2 * factorial(c - n))
    return Invariant(value / 2**c, a + b - 3 * n - 1)


def three_point(n: int, a: int, b: int, c: int) -> Invariant:
    """<H^a, H^b, H^c>_3 on P^n.

    The polynomial of S is homogeneous of degree 2n, so [x^n y^n] is [x^n]
    at y = 1, and each factor is its list of coefficients of x^0, x^1, ...
    """
    e = 2 * n + 1 - a - b - c
    if e < 0:
        return Invariant(0, 0)
    schubert = F(0)
    if min(a, b, c) > 0:
        poly = [comb(e, i) for i in range(e + 1)]
        for factor in ([1, -2, 1], [1] * a, [1] * b, [1] * c):
            out = [0] * (len(poly) + len(factor) - 1)
            for i, u in enumerate(poly):
                for j, v in enumerate(factor):
                    out[i + j] += u * v
            poly = out
        schubert = F(-poly[n], 2)
    value = comb(n + e, e) * schubert
    if e > n:
        value -= F((2 * n + 1 - e) * factorial(n + e - 2), factorial(n) ** 2 * factorial(e - n - 1))
    return Invariant(value / 2**e, a + b + c - 3 * n - 3)


FORMS = {1: one_point, 2: two_point, 3: three_point}


def mismatches(n: int, k: int, tuples: Iterable[Sequence[int]]) -> list[tuple[tuple[int, ...], Invariant, Invariant]]:
    """(tuple, value, form) of each cell of one ``table(n, k, tuples)`` that differs from its sorted tuple's form."""
    form = FORMS[k]
    broken = []
    for classes, value in table(n, k, tuples).items():
        expected = form(n, *sorted(classes))
        if value != expected:
            broken.append((classes, value, expected))
    return broken


if __name__ == "__main__":
    cells = broken = 0
    for n, k in product(range(1, 21), (1, 2, 3)):
        tuples = list(combinations_with_replacement(range(n + 1), k))
        cells += len(tuples)
        for classes, value, expected in mismatches(n, k, tuples):
            broken += 1
            print(f"n={n} k={k} {classes}: table {value}, closed form {expected}")
    print(f"{cells} cells, {broken} mismatches")
    sys.exit(1 if broken else 0)
