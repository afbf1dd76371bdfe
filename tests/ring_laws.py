"""Ring laws of the super small quantum product, checked through ``star`` on every target the CLI admits.

    PYTHONPATH=src python3 tests/ring_laws.py

For every 1 <= n <= ``MAX_QUANTUM_N`` (10) and the basis L^0 .. L^n it checks:

  associativity   (L^a * L^b) * L^c = L^a * (L^b * L^c) for every triple;
  commutativity   L^a * L^b = L^b * L^a;
  the e-law       L^0 * x = cup(e, x) for x = L^a and x = q L^a, where e = L^0 * L^0
                  and ``cup`` is the cup product, truncated at L^(n+1) and q^2 as
                  ``QElement`` truncates every product;
  the unit        u = 2 - e satisfies u * L^a = L^a = L^a * u.

L^0 is not the unit: e = 1 + q (...).  The laws are empirical, like the forms
of ``closed_forms.py``: nothing in ``sgw`` relies on them, and they are never a
reason to edit ``tables.py``.  The script prints each broken law and the
number of checks, and exits 1 if any law breaks.
"""

from __future__ import annotations

import sys
from itertools import product

from sgw.cli import MAX_QUANTUM_N
from sgw.quantum import QElement, star


def cup(n: int, x: QElement, y: QElement) -> QElement:
    """The cup product: L^i q^s times L^j q^t is L^(i+j) q^(s+t), times both Laurent coefficients."""
    acc: dict = {}
    for ((i, s), cx), ((j, t), cy) in product(x.comps.items(), y.comps.items()):
        laurent = acc.setdefault((i + j, s + t), {})
        for (ex, a), (ey, b) in product(cx.items(), cy.items()):
            laurent[ex + ey] = laurent.get(ex + ey, 0) + a * b
    return QElement(n, acc)


def broken_laws(n: int) -> tuple[int, list[str]]:
    """The number of checks on P^n and a line for each one that fails."""
    basis = [QElement.basis(n, a) for a in range(n + 1)]
    q = QElement(n, {(0, 1): {0: 1}})
    products = [[star(n, x, y) for y in basis] for x in basis]
    e = products[0][0]
    two_minus_e = {key: {exp: -c for exp, c in laurent.items()} for key, laurent in e.comps.items()}
    constant = two_minus_e.setdefault((0, 0), {})
    constant[0] = constant.get(0, 0) + 2
    unit = QElement(n, two_minus_e)
    checks = [
        *((f"commutativity {a}, {b}", products[a][b], products[b][a]) for a, b in product(range(n + 1), repeat=2)),
        *((f"associativity {a}, {b}, {c}", star(n, products[a][b], basis[c]), star(n, basis[a], products[b][c]))
          for a, b, c in product(range(n + 1), repeat=3)),
        *((f"e-law {name}", star(n, basis[0], x), cup(n, e, x))
          for a in range(n + 1) for name, x in [(f"L^{a}", basis[a]), (f"q L^{a}", cup(n, q, basis[a]))]),
        *((f"unit {side} L^{a}", value, basis[a]) for a in range(n + 1)
          for side, value in [("left of", star(n, unit, basis[a])), ("right of", star(n, basis[a], unit))]),
    ]
    return len(checks), [f"n={n} {law}: {left} != {right}" for law, left, right in checks if left != right]


if __name__ == "__main__":
    total, broken = 0, 0
    for n in range(1, MAX_QUANTUM_N + 1):
        count, lines = broken_laws(n)
        total += count
        broken += len(lines)
        for line in lines:
            print(line)
    print(f"{total} checks, {broken} broken")
    sys.exit(1 if broken else 0)
