"""Localization sums: worked examples, reference tables, cross-checks."""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations, product
from math import comb

import pytest

import sgw.localize as localize
from sgw.errors import DomainError, InconsistencyError, ResampleSignal, UnsupportedError
from sgw.exact import Poly, complete_homogeneous
from sgw.graphs import FixedGraph, enumerate_graphs, euler_data, odd_weights
from sgw.localize import LocalizationJob, check_extension, graph_contribution, invariant
from sgw.point import Invariant
from sgw.tables import ALL_INVARIANT_ENTRIES, GOLDEN, entries_for

from .test_exact import linear


def graph(n, k, a, b, members):
    return FixedGraph(n=n, a=a, b=b, A=frozenset(members), k=k)


def test_job_derived_quantities():
    job = LocalizationJob(n=3, k=3, classes=(2, 1, 1))
    assert job.d_kd == 7
    assert job.r_kd == 5
    assert job.c == 3
    assert job.kappa_exp == -8
    assert not job.graded_zero
    assert LocalizationJob(n=2, k=3, classes=(2, 2, 2)).graded_zero


def test_job_validation():
    with pytest.raises(UnsupportedError):
        LocalizationJob(n=2, k=4, classes=(1, 1, 1, 1))
    with pytest.raises(DomainError):
        LocalizationJob(n=2, k=2, classes=(3, 0))
    with pytest.raises(DomainError):
        LocalizationJob(n=2, k=2, classes=(1,))


def test_graph_contribution_one_point():
    job = LocalizationJob(n=1, k=1, classes=(1,))
    assert graph_contribution(graph(1, 1, 0, 1, []), [job], (F(0), F(1))) == [1]


def test_graph_contribution_three_point_codegree_zero():
    job = LocalizationJob(n=1, k=3, classes=(1, 1, 1))
    tau = (F(3), F(11))
    t0, t1 = tau
    value = graph_contribution(graph(1, 3, 0, 1, [1]), [job], tau)
    assert value == [-t0 * t1**2 / (t1 - t0) ** 3]


def test_graph_contribution_m04_codegree_two():
    job = LocalizationJob(n=1, k=3, classes=(1, 1, 0))
    assert graph_contribution(graph(1, 3, 0, 1, []), [job], (F(2), F(9))) == [0]


def test_graph_contribution_one_value_per_job():
    # Jobs of different codegrees share one h_0..h_cmax pass; each value is
    # the one the job gets alone, in job order, repeats included.
    g = graph(1, 3, 0, 1, [1])
    tau = (F(3), F(11))
    jobs = [LocalizationJob(n=1, k=3, classes=c) for c in [(1, 1, 1), (0, 0, 0), (1, 0, 1), (1, 1, 1)]]
    together = graph_contribution(g, jobs, tau)
    assert together == [graph_contribution(g, [job], tau)[0] for job in jobs]
    assert together[0] == -F(3) * F(11) ** 2 / F(8) ** 3
    assert graph_contribution(g, [], tau) == []


def test_graph_contribution_rejects_foreign_job():
    jobs = [LocalizationJob(n=1, k=3, classes=(1, 1, 1)), LocalizationJob(n=2, k=3, classes=(1, 1, 1))]
    with pytest.raises(DomainError):
        graph_contribution(graph(1, 3, 0, 1, [1]), jobs, (F(3), F(11)))


def test_h_values_is_the_reference_recurrence():
    # One recurrence serves both strategies: over Polys it gives the reference
    # h_c, over numbers its value at the characters; adding a pure lam weight
    # e*lam to lam-free weights W follows the nilpotent rule
    # h_c(W + {e*lam}) = h_c(W) + e*lam*h_{c-1}(W).
    rng = random.Random(2311)
    for _ in range(60):
        num_tau = rng.randint(1, 3)
        weights = [
            linear(num_tau, {i: F(rng.randint(-4, 4), rng.randint(1, 2)) for i in range(num_tau)})
            for _ in range(rng.randint(1, 5))
        ]
        c = rng.randint(0, 5)
        h = localize._h_values(c, weights)
        assert h[c] == complete_homogeneous(c, weights, num_tau)
        taus = [rng.randint(-9, 9) for _ in range(num_tau)]
        assert localize._h_values(c, [w.eval(taus) for w in weights]) == [p.eval(taus) for p in h]
        eps = F(rng.choice([-3, -1, 1, 2]), 2)
        rule = h[c] + eps * Poly.lam(num_tau) * h[c - 1] if c else h[c]
        assert complete_homogeneous(c, weights + [linear(num_tau, lam=eps)], num_tau) == rule


def test_integrand_parts_apply_the_lam_weight():
    # Against the reference: h_c of every odd weight (half of the doubled
    # ones), the pure lam one included, times the whole numerator; m04 loci
    # take its lam coefficient.  The parts carry 2^c h_c and no sign: the
    # callers divide by (-2)^c.
    rng = random.Random(7)
    for g in enumerate_graphs(2, 3):
        data = euler_data(g)
        taus = [rng.randint(-50, 50) for _ in range(3)]
        u = taus[g.b] - taus[g.a]
        parts = localize._integrand_parts(g, data, range(5), odd_weights(g, taus), u)
        lam_free, lam_coeff = data.num_one + data.num_u * u, data.num_lam
        halves = [w.scale(F(1, 2)) for w in odd_weights(g, [Poly.tau(3, i) for i in range(3)])]
        for c in range(5):
            full = complete_homogeneous(c, halves + [linear(3, lam=F(data.lam_weight, 2))], 3)
            h, h_lam = full.eval(taus, 0), full.eval(taus, 1) - full.eval(taus, 0)
            if g.m04:
                expected = h_lam * lam_free + h * lam_coeff
            else:
                expected = h * lam_free
            assert parts[c] == 2**c * expected, (g, c)


def test_graph_contribution_resample_signal():
    job = LocalizationJob(n=1, k=1, classes=(1,))
    with pytest.raises(ResampleSignal):
        graph_contribution(graph(1, 1, 0, 1, []), [job], (F(5), F(5)))


WORKED_EXAMPLES = [
    (1, 1, (1,), Invariant.of(1, -1)),
    (1, 1, (0,), Invariant.of(-1, -2)),
    (1, 2, (0, 0), Invariant.zero()),
    (1, 3, (1, 0, 0), Invariant.of(F(-1, 4), -5)),
    (2, 1, (2,), Invariant.of(2, -3)),
    (2, 3, (2, 2, 2), Invariant.zero()),
    (3, 3, (2, 1, 1), Invariant.of(5, -8)),
]


@pytest.mark.parametrize("n,k,classes,expected", WORKED_EXAMPLES)
def test_invariant_examples(n, k, classes, expected):
    assert invariant(n, k, classes) == expected


def test_reference_tables_match_recomputation():
    for entry in ALL_INVARIANT_ENTRIES:
        got = invariant(entry.n, entry.k, entry.classes)
        assert got == entry.expected, entry.label


def test_weight_independence_across_seeds():
    for seed in (1, 2, 3):
        assert invariant(2, 3, (2, 1, 1), seed=seed) == Invariant.of(F(3, 2), -5)
        assert invariant(3, 2, (2, 1), seed=seed) == Invariant.of(F(15, 4), -7)


def test_discrepant_entries_survive_deep_sampling():
    # The entries recomputation pins against the printed tables get extra
    # scrutiny: ten independent character tuples each, two seeds.
    for entry in ALL_INVARIANT_ENTRIES:
        if entry.status == "golden":
            continue
        for seed in (5, 50):
            got = invariant(entry.n, entry.k, entry.classes, samples=10, seed=seed)
            assert got == entry.expected, entry.label


def test_two_point_cells_follow_one_point_relations():
    # Every golden cell of the two-point tables satisfies
    #   <H^a, H>_2 = (2a-1)/(3a-2) <H^a>_1 kappa^-1   and   <H, 1>_2 = 1/2 <1>_1 kappa^-1.
    # The pinned recomputed values satisfy them too; the printed values of
    # the non-golden cells do not. Reads the tables only.
    one_point = {(e.n, e.classes[0]): e.expected for e in entries_for(1)}
    golden = 0
    for entry in entries_for(2):
        a, b = entry.classes
        if b == 1:
            factor, base = F(2 * a - 1, 3 * a - 2), one_point[entry.n, a]
        elif (a, b) == (1, 0):
            factor, base = F(1, 2), one_point[entry.n, 0]
        else:
            continue
        predicted = Invariant.of(factor * base.coeff, base.kappa_exp - 1)
        assert entry.expected == predicted, entry.label
        if entry.status == GOLDEN:
            golden += 1
        else:
            assert entry.printed != predicted, entry.label
    assert golden == 14


@lru_cache(maxsize=None)
def one_point_table(n):
    return localize.table(n, 1, [(a,) for a in range(n + 1)])


def test_divisor_relations_hold_beyond_the_tables():
    # The two relations above, computed for every 1 <= a <= n <= 10 rather
    # than read from the table cells: 55 relations <H^a, H>_2 and 10
    # relations <H, 1>_2.  Every one-point value is nonzero, so a sum that
    # collapses to zero cannot satisfy them by accident.
    checked, broken = 0, []
    for n in range(1, 11):
        one = one_point_table(n)
        assert not any(v.is_zero for v in one.values()), n
        relations = [((a, 1), F(2 * a - 1, 3 * a - 2), one[a,]) for a in range(1, n + 1)]
        relations.append(((1, 0), F(1, 2), one[0,]))
        two = localize.table(n, 2, [classes for classes, _, _ in relations])
        for classes, factor, base in relations:
            checked += 1
            if two[classes] != Invariant.of(factor * base.coeff, base.kappa_exp - 1):
                broken.append((n, classes, str(two[classes])))
    assert checked == 65
    assert not broken


def test_top_one_point_value_empirical():
    # An empirical check, fitted to this code's own output: it is neither
    # derived nor printed in the paper, and it is never a reason to edit
    # tables.py.  <H^n>_1 = (C(2n, n) - C(2n-2, n-1)) / 2^(n-1) kappa^-(2n-1).
    broken = [
        (n, str(one_point_table(n)[n,]))
        for n in range(1, 11)
        if one_point_table(n)[n,] != Invariant.of(F(comb(2 * n, n) - comb(2 * n - 2, n - 1), 2 ** (n - 1)), 1 - 2 * n)
    ]
    assert not broken


def test_integer_core_divides_once():
    # Integers go in and integers come out until the one division per value:
    # the integrand parts at int characters, every coefficient of the
    # symbolic numerator and denominator, and nothing is ever a float.
    rng = random.Random(5)
    for n, k in product((1, 2, 3), (1, 2, 3)):
        for g in enumerate_graphs(n, k):
            taus = rng.sample(range(-50, 51), n + 1)
            u = taus[g.b] - taus[g.a]
            parts = localize._integrand_parts(g, euler_data(g), range(5), odd_weights(g, taus), u)
            assert all(type(v) is int for v in parts.values()), g
    symbolic = 0
    for entry in ALL_INVARIANT_ENTRIES:
        job = LocalizationJob(n=entry.n, k=entry.k, classes=entry.classes)
        if job.n > 2 or job.graded_zero:
            continue
        symbolic += 1
        total, shared = localize._symbolic_sum(enumerate_graphs(job.n, job.k), job)
        coeffs = list(total.terms.values()) + list(shared.terms.values())
        assert all(type(c) is int for c in coeffs), entry.label
    assert symbolic > 0
    jobs = [LocalizationJob(n=2, k=3, classes=c) for c in [(1, 1, 0), (2, 1, 1), (0, 0, 0)]]
    for g in enumerate_graphs(2, 3):
        assert all(type(v) is F for v in graph_contribution(g, jobs, (3, -7, 11))), g
    for strategy in ("evaluate", "symbolic"):
        assert type(invariant(2, 3, (1, 1, 0), strategy=strategy).coeff) is F
        assert type(invariant(2, 3, (2, 2, 2), strategy=strategy).coeff) is F


@pytest.mark.parametrize("seed", [localize.DEFAULT_SEED, 4])
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_table_matches_invariant(n, k, seed):
    tuples = list(product(range(n + 1), repeat=k))  # includes the graded-zero tuples
    swept = localize.table(n, k, tuples, seed=seed)
    assert list(swept) == tuples
    assert any(LocalizationJob(n=n, k=k, classes=c).graded_zero for c in tuples) == (k == 3 and n >= 2)
    for classes in tuples:
        assert swept[classes] == invariant(n, k, classes, seed=seed), classes


def test_table_permuted_and_repeated_tuples():
    tuples = [(2, 1, 0), (0, 1, 2), (2, 1, 0), [1, 2, 0], (2, 2, 2), (0, 1, 2)]
    swept = localize.table(2, 3, tuples)
    assert list(swept) == [(2, 1, 0), (0, 1, 2), (1, 2, 0), (2, 2, 2)]
    assert swept[(2, 2, 2)] == Invariant.zero()
    assert {swept[c] for c in [(2, 1, 0), (0, 1, 2), (1, 2, 0)]} == {invariant(2, 3, (2, 1, 0))}


def test_table_validation():
    assert localize.table(2, 3, []) == {}
    assert localize.table(1, 3, [(1, 1, 1)], samples=10) == {(1, 1, 1): Invariant.of(1, -3)}
    with pytest.raises(DomainError):
        localize.table(1, 3, [(1, 1, 1)], samples=1)
    with pytest.raises(DomainError):
        localize.table(1, 3, [(1, 1, 1), (2, 0, 0)])
    with pytest.raises(UnsupportedError):
        localize.table(1, 4, [(1, 1, 1, 1)])


def test_permutation_invariance():
    for classes in [(2, 1, 0), (3, 1, 1), (2, 2, 1)]:
        values = {invariant(3, 3, perm) for perm in permutations(classes)}
        assert len(values) == 1


def test_symbolic_matches_evaluate():
    for n, k, classes in [(1, 3, (1, 1, 1)), (1, 3, (1, 0, 0)), (2, 2, (2, 1)), (2, 3, (1, 1, 0))]:
        assert invariant(n, k, classes, strategy="symbolic") == invariant(n, k, classes)


def test_symbolic_non_constant_sum_raises(monkeypatch):
    monkeypatch.setattr(localize, "_h_values", lambda c, weights: [Poly.tau(weights[0].num_tau, 0)] * (c + 1))
    with pytest.raises(InconsistencyError, match="not constant"):
        invariant(1, 2, (1, 1), strategy="symbolic")


# The argument checks come before the shortcut for tuples of negative
# codegree, such as (2, 2, 2) on P^2 and (4, 4, 4) on P^4.
def test_symbolic_rejects_large_n():
    with pytest.raises(DomainError):
        invariant(3, 2, (1, 1), strategy="symbolic")
    with pytest.raises(DomainError, match="n <= 2"):
        invariant(4, 3, (4, 4, 4), strategy="symbolic")


def test_evaluate_needs_two_samples():
    with pytest.raises(DomainError):
        invariant(1, 1, (1,), samples=1)
    with pytest.raises(DomainError, match="at least 2 samples"):
        invariant(2, 3, (2, 2, 2), samples=-4)
    with pytest.raises(DomainError, match="at least 2 samples"):
        localize.table(2, 3, [(2, 2, 2)], samples=1)
    with pytest.raises(DomainError, match="at least 2 samples"):
        invariant(2, 3, (1, 1, 0), strategy="symbolic", samples=-4)


def test_unknown_strategy_rejected():
    with pytest.raises(DomainError):
        invariant(1, 1, (1,), strategy="guess")
    with pytest.raises(DomainError, match="unknown strategy"):
        invariant(2, 3, (2, 2, 2), strategy="guess")


def test_disagreeing_samples_raise(monkeypatch):
    calls = {"count": 0}

    def fake_contribution(g, jobs, tau):
        calls["count"] += 1
        return [F(calls["count"])] * len(jobs)

    monkeypatch.setattr(localize, "graph_contribution", fake_contribution)
    with pytest.raises(InconsistencyError):
        invariant(1, 1, (1,))
    with pytest.raises(InconsistencyError, match=r"\(0,\)"):
        localize.table(1, 1, [(0,), (1,)])


def test_table_checks_each_tuple_on_its_own(monkeypatch):
    # Only the second tuple's values move between samples; the table must
    # still reject it although the first tuple agrees with itself.
    samples = {"count": 0}

    def fake_contribution(g, jobs, tau):
        return [F(1), F(samples["count"])]

    def counting_tau(rng, n):
        samples["count"] += 1
        return (F(samples["count"]), F(-samples["count"]))

    monkeypatch.setattr(localize, "graph_contribution", fake_contribution)
    monkeypatch.setattr(localize, "sample_tau", counting_tau)
    with pytest.raises(InconsistencyError, match=r"\(1,\)"):
        localize.table(1, 1, [(0,), (1,)])


def test_resampling_retries_degenerate_tuples(monkeypatch):
    # No longer retried: sample_tau never repeats a character, so a forced
    # repeat is a pole that invariant reports instead of redrawing.
    monkeypatch.setattr(localize, "sample_tau", lambda rng, n: (F(5), F(5)))
    with pytest.raises(ResampleSignal):
        invariant(1, 1, (1,))


def test_sample_tau_distinct_beyond_default_range():
    tau = localize.sample_tau(random.Random(0), 2500)
    assert len(set(tau)) == 2501


def test_trace_records_samples():
    trace = []
    invariant(1, 2, (1, 1), trace=trace)
    assert len(trace) == 3
    assert all(set(entry) == {"tau", "value", "per_graph"} for entry in trace)
    assert {entry["value"] for entry in trace} == {"1"}
    job = LocalizationJob(n=1, k=2, classes=(1, 1))
    for entry in trace:
        tau = [F(t) for t in entry["tau"]]
        assert entry["per_graph"] == [
            {"graph": g.label(), "value": str(graph_contribution(g, [job], tau)[0])}
            for g in enumerate_graphs(1, 2)
        ]


def test_table_trace_matches_invariant_trace():
    alone = []
    invariant(2, 3, (2, 1, 0), seed=9, trace=alone)
    traces = {(2, 1, 0): []}
    localize.table(2, 3, [(1, 1, 1), (2, 1, 0), (2, 2, 2)], seed=9, trace=traces)
    assert traces == {(2, 1, 0): alone}


def test_check_extension():
    assert check_extension(1, 3, (1, 1, 1))
    assert check_extension(2, 3, (2, 2, 1))
    assert check_extension(3, 3, (3, 3, 1))
    with pytest.raises(DomainError):
        check_extension(2, 3, (1, 1, 1))
    with pytest.raises(DomainError):
        check_extension(2, 2, (2, 2))
