"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single "criterion N: PASS/FAIL" line and then asserts
that no comparison in the criterion failed, listing every deviation.
Golden reference values are asserted as printed. Every other entry is
checked against the exact recomputation pinned in ``sgw.tables``, and its
printed value is reported on a "note" line, not asserted. That covers the
values flagged suspect up front (kappa-exponent off the grading formula, or
corrupted denominator digits) and the discrepant ones, whose printed value
plain reckoning shows to be wrong: the six-point value of a point omits one
composition, and the P^3/P^4 two-point cells break relations that every
golden cell satisfies. The printed-versus-recomputed disagreement itself is
pinned by label in ``tests/test_cli.py::test_reproduce_paper``.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations, product

from sgw.exact import complete_homogeneous
from sgw.localize import LocalizationJob, invariant, table
from sgw.point import Invariant, sgw_point
from sgw.quantum import QElement, star
from sgw.tables import ALL_INVARIANT_ENTRIES, GOLDEN, ONE_POINT_ENTRIES, POINT_ENTRIES, THREE_POINT_ENTRIES, TWO_POINT_ENTRIES
from sgw.taut import integrate_monomial, point_sum

from .test_exact import brute_force_h, random_weight
from .test_point import oracle_point_sum


def _finish(criterion: str, failures: list[str], started: float, budget: float | None = None):
    elapsed = time.monotonic() - started
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:.0f}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"criterion {criterion}: {status} ({elapsed:.2f}s)")
    assert not failures, f"criterion {criterion}: " + " | ".join(failures)


def _check(failures: list[str], label: str, got, want):
    if got != want:
        failures.append(f"{label}: computed {got}, expected {want}")


def _check_entry(failures: list[str], label: str, got, entry):
    """Assert a golden entry as printed, any other against its recomputed value."""
    if entry.status == GOLDEN:
        _check(failures, label, got, entry.printed)
    else:
        _check(failures, f"{label} (recomputed)", got, entry.recomputed)
        print(f"note {label}: recomputed {got}; printed {entry.printed} ({entry.note})")


def test_criterion_1_point_values():
    started = time.monotonic()
    failures: list[str] = []
    for entry in POINT_ENTRIES:
        _check_entry(failures, f"point k={entry.k}", sgw_point(entry.k), entry)
    _finish("1 (point values)", failures, started, budget=1.0)


def test_criterion_2_tautological_integrals():
    started = time.monotonic()
    failures: list[str] = []
    expected = {
        (4, (1,)): 1,
        (5, (1, 1)): 2,
        (5, (0, 2)): 1,
        (6, (1, 1, 1)): 6,
        (6, (1, 0, 2)): 2,
        (6, (0, 1, 2)): 3,
        (6, (0, 0, 3)): 1,
    }
    for (k, exps), want in expected.items():
        _check(failures, f"integral k={k} exps={exps}", integrate_monomial(k, exps), F(want))
    _finish("2 (tautological integrals)", failures, started, budget=1.0)


def test_criterion_3_one_point_tables():
    started = time.monotonic()
    failures: list[str] = []
    for entry in ONE_POINT_ENTRIES:
        _check_entry(failures, entry.label, invariant(entry.n, entry.k, entry.classes), entry)
    grading = {(1,): -13, (0,): -14}
    for classes, exp in grading.items():
        got = invariant(5, 1, classes)
        if got.kappa_exp != exp:
            failures.append(f"P^5 {classes}: exponent {got.kappa_exp}, grading demands {exp}")
    _finish("3 (one-point tables)", failures, started, budget=30.0)


def test_criterion_4_two_point_tables():
    started = time.monotonic()
    failures: list[str] = []
    for entry in TWO_POINT_ENTRIES:
        _check_entry(failures, entry.label, invariant(entry.n, entry.k, entry.classes), entry)
    _finish("4 (two-point tables)", failures, started)


def test_criterion_5_three_point_tables():
    started = time.monotonic()
    failures: list[str] = []
    for entry in THREE_POINT_ENTRIES:
        _check_entry(failures, entry.label, invariant(entry.n, entry.k, entry.classes), entry)
    _finish("5 (three-point tables)", failures, started, budget=60.0)


def test_criterion_6_property_suites():
    started = time.monotonic()
    failures: list[str] = []

    # One sweep per (n, k, seed) serves every tuple of a group.
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for e in ALL_INVARIANT_ENTRIES:
        groups.setdefault((e.n, e.k), []).append(e.classes)

    for (n, k), tuples in groups.items():
        # (a) weight independence: three distinct seeded sample sets agree.
        by_seed = [table(n, k, tuples, seed=seed) for seed in (11, 22, 33)]
        for classes in tuples:
            if len({values[classes] for values in by_seed}) != 1:
                failures.append(f"(a) {n},{k},{classes}: seeds disagree")

        # (b) permutation invariance over the golden set.
        if k > 1:
            orbits = {classes: set(permutations(classes)) for classes in tuples}
            values = table(n, k, [perm for orbit in orbits.values() for perm in orbit])
            for classes, orbit in orbits.items():
                if len({values[perm] for perm in orbit}) != 1:
                    failures.append(f"(b) {n},{k},{classes}: permutations disagree")

        # (c) grading exponent for every nonzero result.
        values = table(n, k, tuples)
        for classes in tuples:
            job = LocalizationJob(n=n, k=k, classes=classes)
            got = values[classes]
            if not got.is_zero and got.kappa_exp != job.kappa_exp:
                failures.append(f"(c) {n},{k},{classes}: exponent {got.kappa_exp} != {job.kappa_exp}")

    # (d) extension: codegree-zero three-point values are kappa^-(n+2).
    for n in range(1, 5):
        for classes in product(range(n + 1), repeat=3):
            if sum(classes) != 2 * n + 1:
                continue
            if invariant(n, 3, classes) != Invariant(1, -(n + 2)):
                failures.append(f"(d) n={n} {classes}: extension value differs")

    # (e) symbolic and evaluate strategies agree on every n <= 2 job.
    for n in (1, 2):
        for k in (1, 2, 3):
            tuples = list(product(range(n + 1), repeat=k))
            evaluated = table(n, k, tuples)
            for classes in tuples:
                sym = invariant(n, k, classes, strategy="symbolic")
                ev = evaluated[classes]
                if sym != ev:
                    failures.append(f"(e) {n},{k},{classes}: {sym} != {ev}")

    _finish("6 (property suites)", failures, started)


def test_criterion_7_quantum_structure():
    started = time.monotonic()
    failures: list[str] = []
    for n in (1, 2, 3):
        for a in range(n + 1):
            for b in range(n + 1):
                if a + b <= n:
                    continue
                prod = star(n, QElement.basis(n, a), QElement.basis(n, b))
                lead = prod.comps.get((a + b - n - 1, 1), {})
                if lead.get(0) != 1:
                    failures.append(f"n={n} ({a},{b}): leading q-term coefficient {lead.get(0)}")
                top = max((e for laurent in prod.comps.values() for e in laurent), default=None)
                if top != 0:
                    failures.append(f"n={n} ({a},{b}): top kappa power {top}")
    lam_sq = star(1, QElement.basis(1, 1), QElement.basis(1, 1))
    _check(failures, "n=1 L^1*L^1", lam_sq, QElement(1, {(0, 1): {0: F(1)}}))
    _finish("7 (quantum structure)", failures, started)


def test_criterion_8_oracles():
    started = time.monotonic()
    failures: list[str] = []

    rng = random.Random(424242)
    for trial in range(200):
        num_tau = rng.randint(1, 3)
        weights = [random_weight(rng, num_tau) for _ in range(rng.randint(0, 6))]
        c = rng.randint(0, 5)
        fast = complete_homogeneous(c, weights, num_tau)
        slow = brute_force_h(c, weights, num_tau)
        if fast != slow:
            failures.append(f"h_c trial {trial}: DP and series oracle disagree")

    for k in range(3, 9):
        if point_sum(k) != oracle_point_sum(k):
            failures.append(f"point sum k={k}: the programme and the unpruned term-by-term recursion disagree")

    _finish("8 (oracles)", failures, started)
