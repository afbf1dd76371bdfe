"""Localization sums: per-graph parts, reference tables, cross-checks."""

import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm, prod

import pytest

import sgw.localize as localize
from sgw.errors import InconsistencyError, ResampleSignal
from sgw.exact import Poly, complete_homogeneous
from sgw.graphs import EulerData, enumerate_graphs, euler_data, ev_exponents
from sgw.localize import LocalizationJob, graph_contribution, invariant
from sgw.point import Invariant
from sgw.tables import ALL_INVARIANT_ENTRIES, GOLDEN, ONE_POINT_ENTRIES, TWO_POINT_ENTRIES

from .closed_forms import FORMS, mismatches
from .test_exact import linear
from .test_graphs import graph, odd_weights, pair_weights


def pinned(entry):
    """The value recomputation is pinned to: an entry's recomputed value if it has one, else its printed one."""
    return entry.recomputed if entry.recomputed is not None else entry.printed


def contribution(g, codegrees, tau):
    """``graph_contribution`` of ``g`` at ``tau`` and the Euler denominator, both off the ``_pair`` of its (a, b)."""
    codegrees = tuple(codegrees)
    den, h = localize._pair(g, localize._point(codegrees, tau), tau)
    return graph_contribution(g, codegrees, tau, h), den


def contributions(g, jobs, tau):
    """Each job's summand of ``g`` at ``tau``, divided on its own: tau_a^x tau_b^y parts[c] / (den * (-2)^c)."""
    parts, den = contribution(g, {job.c for job in jobs}, tau)
    values = []
    for job in jobs:
        at_a, at_b = ev_exponents(g, job.classes)
        values.append(F(tau[g.a] ** at_a * tau[g.b] ** at_b * parts[job.c], den * (-2) ** job.c))
    return values


def test_job_derived_quantities():
    job = LocalizationJob(n=3, k=3, classes=(2, 1, 1))
    assert job.d_kd == 7
    assert job.r_kd == 5
    assert job.c == 3
    assert job.kappa_exp == -8
    assert not job.graded_zero
    assert LocalizationJob(n=2, k=3, classes=(2, 2, 2)).graded_zero


def test_graph_contribution_one_point():
    job = LocalizationJob(n=1, k=1, classes=(1,))
    assert contribution(graph(1, 1, 0, 1, []), {job.c}, (F(0), F(1))) == ({0: 1}, 1)
    assert contributions(graph(1, 1, 0, 1, []), [job], (F(0), F(1))) == [1]


def test_graph_contribution_three_point_codegree_zero():
    job = LocalizationJob(n=1, k=3, classes=(1, 1, 1))
    tau = (F(3), F(11))
    t0, t1 = tau
    value = contributions(graph(1, 3, 0, 1, [1]), [job], tau)
    assert value == [-t0 * t1**2 / (t1 - t0) ** 3]
    assert contribution(graph(1, 3, 0, 1, [1]), {job.c}, tau)[1] == (t1 - t0) ** 3


def test_graph_contribution_m04_codegree_two():
    job = LocalizationJob(n=1, k=3, classes=(1, 1, 0))
    assert contribution(graph(1, 3, 0, 1, []), {job.c}, (F(2), F(9)))[0] == {job.c: 0}
    assert contributions(graph(1, 3, 0, 1, []), [job], (F(2), F(9))) == [0]


def test_graph_contribution_one_value_per_job():
    # Jobs of different codegrees share one h_0..h_cmax pass: one part per
    # distinct codegree, each the one the job gets alone, and one
    # denominator; each value is the one the job gets alone, in job order,
    # repeats included.
    g = graph(1, 3, 0, 1, [1])
    tau = (F(3), F(11))
    jobs = [LocalizationJob(n=1, k=3, classes=c) for c in [(1, 1, 1), (0, 0, 0), (1, 0, 1), (1, 1, 1)]]
    parts, den = contribution(g, {job.c for job in jobs}, tau)
    assert sorted(parts) == [0, 1, 3]
    for job in jobs:
        assert contribution(g, {job.c}, tau) == ({job.c: parts[job.c]}, den)
    together = contributions(g, jobs, tau)
    assert together == [contributions(g, [job], tau)[0] for job in jobs]
    assert together[0] == -F(3) * F(11) ** 2 / F(8) ** 3
    assert contribution(g, set(), tau) == ({}, 8**3)


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


@pytest.mark.parametrize("ring", ["int", "Poly"])
def test_graph_parts_read_their_own_h_off_the_pair(ring, monkeypatch):
    # Each graph reads its h off its pair's, taking a missing flag weight
    # out inline; its parts must be those built from h of its own odd
    # weights: h_c * lam_free on point loci and
    # num_lam * h_c + lam_weight * h_{c-1} * lam_free on m04 loci.  Over
    # seeded ints graph_contribution gives them at every c up to 2n + 1,
    # the largest codegree, and the same part in a plan of that one
    # codegree.  Over Polys (n <= 3, c <= 3: they grow fast) the pair's h
    # and constant Euler data go in directly, so the check is an identity.
    rng = random.Random(2024)
    sizes = range(1, 7) if ring == "int" else range(1, 4)
    checked = 0
    for n in sizes:
        if ring == "int":
            tau, cmax = rng.sample(range(-999, 1000), n + 1), 2 * n + 1
        else:
            tau, cmax = [Poly.tau(n + 1, i) for i in range(n + 1)], 3
        codegrees = range(cmax + 1)
        for k in (1, 2, 3):
            for g in enumerate_graphs(n, k):
                data, u = euler_data(g), tau[g.b] - tau[g.a]
                if ring == "int":
                    parts = contribution(g, codegrees, tau)[0]
                    c = rng.choice(codegrees)
                    assert contribution(g, (c,), tau)[0] == {c: parts[c]}, (g, c)
                else:
                    data = EulerData(*(Poly.const(n + 1, v) for v in data))
                    monkeypatch.setattr(localize, "euler_data", lambda _, data=data: data)
                    h = localize._h_values(cmax, pair_weights(n, g.a, g.b, tau))
                    parts = graph_contribution(g, codegrees, tau, h)
                lam_weight, num_one, num_u, num_lam = data
                lam_free = num_one + num_u * u
                h = localize._h_values(cmax, odd_weights(g, tau))
                for c in codegrees:
                    if not g.m04:
                        expected = h[c] * lam_free
                    elif c:
                        expected = num_lam * h[c] + lam_weight * h[c - 1] * lam_free
                    else:
                        expected = num_lam * h[c]
                    assert parts[c] == expected, (g, c)
                checked += 1
    assert checked == sum(comb(n + 1, 2) for n in sizes) * (2 + 4 + 8)


def test_one_point_gives_every_pair_its_h_and_denominator():
    # As a multiset, pair_weights(n, a, b, tau) is {2 tau_m - s : m = 0..n},
    # s = tau_a + tau_b, so h_j of it is sum_i C(n + j, i) (-s)^i h_{j-i}(2 tau):
    # the per-point route must give every pair the h of its own weight list,
    # at every c up to 2n + 1, and the Euler denominator
    # u^k prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j) from the vertex
    # products.  Over Polys (n <= 3) both are identities, not coincidences:
    # there the denominator is checked against u^k V_a V_b = -u^2 den.
    rng = random.Random(2111)
    checked = 0
    for n in range(1, 21):
        tau = rng.sample(range(-999, 1000), n + 1)
        point = localize._point(tuple(range(2 * n + 2)), tau)
        for a, b in combinations(range(n + 1), 2):
            k = rng.choice((1, 2, 3))
            den, h = localize._pair(graph(n, k, a, b, []), point, tau)
            assert h == localize._h_values(2 * n + 1, pair_weights(n, a, b, tau)), (n, a, b)
            u = tau[b] - tau[a]
            assert den == u**k * prod((tau[a] - t) * (tau[b] - t) for j, t in enumerate(tau) if j not in (a, b))
            c = rng.randint(0, 2 * n + 1)
            sparse = localize._pair(graph(n, k, a, b, []), localize._point((c,), tau), tau)
            assert sparse == (den, [h[j] if c - 2 <= j else 0 for j in range(c + 1)]), (n, a, b, c)
            checked += 1
    assert checked == sum(comb(n + 1, 2) for n in range(1, 21)) == 1540
    for n in range(1, 4):
        tau = [Poly.tau(n + 1, i) for i in range(n + 1)]
        cmax, reads, coefficients, vertex = localize._point(tuple(range(2 * n + 2)), tau)
        assert reads == tuple(range(2 * n + 2))
        for a, b in combinations(range(n + 1), 2):
            t = -(tau[a] + tau[b])
            h = [sum((c * t**p for p, c in enumerate(reversed(row))), Poly.zero(n + 1)) for row in coefficients]
            assert h == localize._h_values(cmax, pair_weights(n, a, b, tau)), (n, a, b)
            u = tau[b] - tau[a]
            rest = [(tau[a] - t) * (tau[b] - t) for j, t in enumerate(tau) if j not in (a, b)]
            for k in (1, 2, 3):
                den = u**k * prod(rest, start=Poly.one(n + 1))
                assert u**k * vertex[a] * vertex[b] == -(u * u) * den, (n, a, b, k)


def test_h_recurrence_runs_once_per_point(monkeypatch):
    # table runs the h recurrence once per sample, over the n + 1 doubled
    # characters, and the symbolic grid once per grid point on a cold cache
    # and never on a warm one; every pair and its 2^k graphs read it.
    lengths = []
    h_values = localize._h_values

    def counting(c, weights):
        lengths.append(len(weights))
        return h_values(c, weights)

    monkeypatch.setattr(localize, "_h_values", counting)
    for n, k in product((1, 2, 3, 5), (1, 2, 3)):
        lengths.clear()
        localize.table(n, k, list(product(range(n + 1), repeat=k)), samples=3)
        assert lengths == [n + 1] * 3, (n, k)
        if n <= 2:
            localize._symbolic_sum.cache_clear()
            lengths.clear()
            invariant(n, k, (0,) * k, strategy="symbolic")
            points = comb(k * n * (n + 1) // 2 + n, n)
            assert lengths == [n + 1] * points, (n, k)
            lengths.clear()
            invariant(n, k, (0,) * k, strategy="symbolic")
            assert lengths == [], (n, k)


def test_integrand_parts_apply_the_lam_weight():
    # Against the reference: h_c of every odd weight (half of the doubled
    # ones), the pure lam one included, times the whole numerator; m04 loci
    # take its lam coefficient.  The parts, read off the h of the pair's
    # weights, carry 2^c h_c and no sign: the callers divide by (-2)^c.
    rng = random.Random(7)
    for g in enumerate_graphs(2, 3):
        data = euler_data(g)
        taus = [rng.randint(-50, 50) for _ in range(3)]
        u = taus[g.b] - taus[g.a]
        h = localize._h_values(4, pair_weights(2, g.a, g.b, taus))
        parts = graph_contribution(g, range(5), taus, h)
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


def test_integrand_parts_reject_lam_on_a_point_locus(monkeypatch):
    # A point locus takes its lam-free part; lam data that leave a lam
    # coefficient there are inconsistent, whichever of the two is nonzero.
    g = graph(2, 2, 0, 1, [1])
    tau, h = (0, 3, 9), [1, 5, 7]  # u = 3

    def parts(g, data):
        monkeypatch.setattr(localize, "euler_data", lambda _: data)
        return graph_contribution(g, range(3), tau, h)

    assert parts(g, EulerData(0, -1, 0, 0)) == {0: -1, 1: -5, 2: -7}
    message = r"^lam survived on the point-type locus G\(k=2,d=1,a=0,b=1,A=\{1\}\)$"
    for data in (EulerData(0, -1, 0, 1), EulerData(-1, -1, 0, 0), EulerData(-1, 0, 1, 1)):
        with pytest.raises(InconsistencyError, match=message):
            parts(g, data)
    # an m04 locus takes the lam coefficient, zero when there is no lam
    assert parts(graph(2, 3, 0, 1, []), EulerData(0, 1, 0, 0)) == {0: 0, 1: 0, 2: 0}


def test_graph_contribution_resample_signal():
    # Repeated characters are poles of every pair denominator: the point
    # that the pairs and their graphs read is refused.
    job = LocalizationJob(n=1, k=1, classes=(1,))
    with pytest.raises(ResampleSignal):
        contribution(graph(1, 1, 0, 1, []), {job.c}, (F(5), F(5)))


def test_discrepant_entries_survive_deep_sampling():
    # The entries recomputation pins against the printed tables get extra
    # scrutiny: ten independent character tuples each, two seeds.
    for entry in ALL_INVARIANT_ENTRIES:
        if entry.status == "golden":
            continue
        for seed in (5, 50):
            got = invariant(entry.n, entry.k, entry.classes, samples=10, seed=seed)
            assert got == pinned(entry), entry.label


def test_two_point_cells_follow_one_point_relations():
    # Every golden cell of the two-point tables satisfies
    #   <H^a, H>_2 = (2a-1)/(3a-2) <H^a>_1 kappa^-1   and   <H, 1>_2 = 1/2 <1>_1 kappa^-1.
    # The pinned recomputed values satisfy them too; the printed values of
    # the non-golden cells do not. Reads the tables only.
    one_point = {(e.n, e.classes[0]): pinned(e) for e in ONE_POINT_ENTRIES}
    golden = 0
    for entry in TWO_POINT_ENTRIES:
        a, b = entry.classes
        if b == 1:
            factor, base = F(2 * a - 1, 3 * a - 2), one_point[entry.n, a]
        elif (a, b) == (1, 0):
            factor, base = F(1, 2), one_point[entry.n, 0]
        else:
            continue
        predicted = Invariant(factor * base.coeff, base.kappa_exp - 1)
        assert pinned(entry) == predicted, entry.label
        if entry.status == GOLDEN:
            golden += 1
        else:
            assert entry.printed != predicted, entry.label
    assert golden == 14


def test_divisor_relations_hold_beyond_the_tables():
    # The two relations above, computed for every 1 <= a <= n <= 10 rather
    # than read from the table cells: 55 relations <H^a, H>_2 and 10
    # relations <H, 1>_2.  Every one-point value is nonzero, so a sum that
    # collapses to zero cannot satisfy them by accident.
    checked, broken = 0, []
    for n in range(1, 11):
        one = localize.table(n, 1, [(a,) for a in range(n + 1)])
        assert not any(v.is_zero for v in one.values()), n
        relations = [((a, 1), F(2 * a - 1, 3 * a - 2), one[a,]) for a in range(1, n + 1)]
        relations.append(((1, 0), F(1, 2), one[0,]))
        two = localize.table(n, 2, [classes for classes, _, _ in relations])
        for classes, factor, base in relations:
            checked += 1
            if two[classes] != Invariant(factor * base.coeff, base.kappa_exp - 1):
                broken.append((n, classes, str(two[classes])))
    assert checked == 65
    assert not broken


# Every ordered tuple for n <= 8, so permutation invariance and the zeros of
# negative codegree stay pinned, and every sorted tuple above: k <= 2 up to
# the CLI's n = 20, k = 3 up to n = 12.  At k = 2 two unsorted cells, (2, 0)
# and (n, n - 1), keep permutation invariance pinned up to n = 20.
# tests/closed_forms.py, run as a script, checks k = 3 up to n = 20 too.
@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 21) for k in (1, 2, 3) if k < 3 or n <= 12])
def test_table_matches_the_closed_forms(n, k):
    if n <= 8:
        tuples = list(product(range(n + 1), repeat=k))
    else:
        tuples = list(combinations_with_replacement(range(n + 1), k)) + ([(2, 0), (n, n - 1)] if k == 2 else [])
    broken = mismatches(n, k, tuples)
    assert not broken, broken[:5]


def test_closed_forms_hold_on_the_golden_entries_only():
    # Every golden entry equals its form as printed; each of the others
    # differs from it as printed, and its recomputed value equals it.
    golden = 0
    for entry in ALL_INVARIANT_ENTRIES:
        form = FORMS[entry.k](entry.n, *sorted(entry.classes))
        if entry.status == GOLDEN:
            assert entry.printed == form, entry.label
            golden += 1
        else:
            assert entry.printed != form and entry.recomputed == form, entry.label
    assert (golden, len(ALL_INVARIANT_ENTRIES) - golden) == (95, 9)


def test_integer_core_divides_once():
    # Integers go in and integers come out until the one division per value:
    # the integrand parts at int characters, every number of the symbolic
    # grid, and nothing is ever a float.
    rng = random.Random(5)
    for n, k in product((1, 2, 3), (1, 2, 3)):
        for g in enumerate_graphs(n, k):
            taus = rng.sample(range(-50, 51), n + 1)
            h = localize._h_values(4, pair_weights(n, g.a, g.b, taus))
            parts = graph_contribution(g, range(5), taus, h)
            assert all(type(v) is int for v in h), g
            assert all(type(v) is int for v in parts.values()), g
    symbolic = 0
    for entry in ALL_INVARIANT_ENTRIES:
        job = LocalizationJob(n=entry.n, k=entry.k, classes=entry.classes)
        if job.n > 2 or job.graded_zero:
            continue
        symbolic += 1
        _, grid = localize._symbolic_sum(job.n, job.k)
        for powers, common, columns in grid:
            numbers = [common] + [v for row in powers for v in row] + [v for column in columns.values() for v in column]
            assert all(type(v) is int for v in numbers), entry.label
    assert symbolic > 0
    jobs = [LocalizationJob(n=2, k=3, classes=c) for c in [(1, 1, 0), (2, 1, 1), (0, 0, 0)]]
    for g in enumerate_graphs(2, 3):
        parts, den = contribution(g, {job.c for job in jobs}, (3, -7, 11))
        assert type(den) is int and all(type(v) is int for v in parts.values()), g
    for strategy in ("evaluate", "symbolic"):
        assert type(invariant(2, 3, (1, 1, 0), strategy=strategy).coeff) is F
        assert type(invariant(2, 3, (2, 2, 2), strategy=strategy).coeff) is F


@pytest.mark.parametrize("n,k", [(n, k) for n in (3, 6) for k in (1, 2, 3)])
def test_table_matches_per_graph_fraction_sum(n, k):
    # An independent summation of the same samples: every graph's summand is
    # divided on its own by its pair's den * (-2)^c and the Fractions are added, where
    # table adds integers over one common denominator and divides once.
    rng = random.Random(100 * n + k)
    tuples = [tuple(rng.randint(0, n) for _ in range(k)) for _ in range(12)]
    swept = localize.table(n, k, tuples)
    jobs = [LocalizationJob(n=n, k=k, classes=c) for c in dict.fromkeys(tuples)]
    jobs = [job for job in jobs if not job.graded_zero]
    tau_rng = random.Random(localize.DEFAULT_SEED)
    for _ in range(3):
        tau = localize.sample_tau(tau_rng, n)
        columns = zip(*(contributions(g, jobs, tau) for g in enumerate_graphs(n, k)))
        for job, column in zip(jobs, columns):
            assert swept[job.classes] == Invariant(sum(column, F(0)), job.kappa_exp), (job.classes, tau)
    assert sum(not swept[job.classes].is_zero for job in jobs) >= 4


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
    assert swept[(2, 2, 2)] == Invariant(0, 0)
    assert {swept[c] for c in [(2, 1, 0), (0, 1, 2), (1, 2, 0)]} == {invariant(2, 3, (2, 1, 0))}


def test_sweep_reads_graphs_by_the_bitmask_of_a():
    # _sweep takes graphs[m::2^k] as the graphs whose marked set A has
    # bitmask m, and their ev exponent at q_a from the subset sums.
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            graphs = enumerate_graphs(n, k)
            for i, g in enumerate(graphs):
                assert g.A == {bit + 1 for bit in range(k) if i % 2**k >> bit & 1}, (n, k, i)
            for classes in product(range(n + 1), repeat=k):
                x = localize._subset_sums(classes)
                assert [x[i % 2**k] for i in range(len(graphs))] == [ev_exponents(g, classes)[0] for g in graphs]


def test_table_validation():
    assert localize.table(2, 3, []) == {}
    assert localize.table(1, 3, [(1, 1, 1)], samples=10) == {(1, 1, 1): Invariant(1, -3)}


def test_symbolic_non_constant_sum_raises(monkeypatch):
    # Every h_c of the doubled characters is 2 tau_n: the wrong degree for c != 1.
    monkeypatch.setattr(localize, "_h_values", lambda c, weights: [weights[-1]] * (c + 1))
    with pytest.raises(InconsistencyError, match="not constant"):
        invariant(1, 2, (1, 1), strategy="symbolic")


def double_one_graph(monkeypatch, wrong):
    """Make ``graph_contribution`` return twice the parts of the graph ``wrong``, and the parts of every other graph."""
    contribution_of = localize.graph_contribution

    def doubled(g, *args):
        parts = contribution_of(g, *args)
        return {c: 2 * v for c, v in parts.items()} if g == wrong else parts

    monkeypatch.setattr(localize, "graph_contribution", doubled)


def test_symbolic_grid_catches_one_wrong_graph(monkeypatch):
    # Doubling the parts of one graph, (a, b) = (0, 2) with one mark over
    # q_a, breaks every tuple of (2, 3) but the graded-zero (2, 2, 2).
    double_one_graph(monkeypatch, graph(2, 3, 0, 2, [1]))
    raised = []
    for classes in product(range(3), repeat=3):
        try:
            invariant(2, 3, classes, strategy="symbolic")
        except InconsistencyError:
            raised.append(classes)
    assert len(raised) == 26 and (2, 2, 2) not in raised


def test_evaluate_catches_one_wrong_graph_at_n10(monkeypatch):
    # The same doubled graph at n = 10: the seeded samples of the evaluate
    # strategy disagree on every tuple tried but the graded-zero (10, 10, 10).
    double_one_graph(monkeypatch, graph(10, 3, 0, 2, [1]))
    for classes in [(2, 1, 1), (5, 3, 0), (0, 0, 0)]:
        with pytest.raises(InconsistencyError, match="not constant"):
            invariant(10, 3, classes)
    assert invariant(10, 3, (10, 10, 10)).is_zero


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2) for k in (1, 2, 3)])
def test_symbolic_grid_is_homogeneous(n, k):
    # The certificate's premises, at seeded int tau: every pair denominator
    # divides D = prod_{i<j} (tau_i - tau_j)^k, so a tuple's sum is N / D;
    # and each summand tau_a^x tau_b^y parts[c] / den of codegree c, with
    # x + y = d_kd - c, takes the same value at 2 tau, so N has degree delta.
    rng = random.Random(10 * n + k)
    codegrees = range(LocalizationJob(n=n, k=k, classes=(0,) * k).c + 1)
    nonzero = 0
    for _ in range(3):
        tau = tuple(rng.sample(range(-30, 31), n + 1))
        doubled = tuple(2 * t for t in tau)
        D = prod((tau[i] - tau[j]) ** k for i, j in combinations(range(n + 1), 2))
        for g in enumerate_graphs(n, k):
            parts, den = contribution(g, codegrees, tau)
            parts_2, den_2 = contribution(g, codegrees, doubled)
            assert D % den == 0, (g, tau)
            for c in codegrees:
                degree = codegrees[-1] - c
                for x in range(degree + 1):
                    value = F(tau[g.a] ** x * tau[g.b] ** (degree - x) * parts[c], den)
                    assert F(doubled[g.a] ** x * doubled[g.b] ** (degree - x) * parts_2[c], den_2) == value, (g, c, x)
                    nonzero += value != 0
    assert nonzero > 0


def test_symbolic_grid_points():
    # The grid is tau = (1, tau_1 .. tau_n), tau_j = 1 + j + n x_j, over the
    # C(delta + n, n) points x of the simplex |x| <= delta: distinct
    # characters at every point, and one value of x_j per value of tau_j.
    # Each point records L, the lcm of the pair denominators, and, per
    # codegree, every graph's graph_contribution part scaled by L // den.
    for n, k in product((1, 2), (1, 2, 3)):
        delta = k * n * (n + 1) // 2
        simplex = {x for x in product(range(delta + 1), repeat=n) if sum(x) <= delta}
        graphs, grid = localize._symbolic_sum(n, k)
        codegrees = range(LocalizationJob(n=n, k=k, classes=(0,) * k).c + 1)
        assert graphs == tuple(enumerate_graphs(n, k))
        assert len(grid) == len(simplex) == comb(delta + n, n), (n, k)
        xs = set()
        for powers, common, columns in grid:
            tau = tuple(p[1] for p in powers)
            assert tau[0] == 1 and len(set(tau)) == n + 1, tau
            assert all((t - 1 - j) % n == 0 for j, t in enumerate(tau[1:], start=1)), tau
            xs.add(tuple((t - 1 - j) // n for j, t in enumerate(tau[1:], start=1)))
            assert set(columns) == set(codegrees), tau
            assert all(len(column) == len(graphs) for column in columns.values()), tau
            dens = []
            for i, g in enumerate(graphs):
                parts, den = contribution(g, codegrees, tau)
                assert [columns[c][i] for c in codegrees] == [parts[c] * (common // den) for c in codegrees], (g, tau)
                dens.append(den)
            assert common == lcm(*dens), tau
        assert xs == simplex, (n, k)


def test_points_carry_their_power_tables():
    # Every point holds powers[j] = (1, tau_j, .., tau_j^d_kd) as a tuple,
    # d_kd = 2n + k - 2 being the largest ev degree a tuple reads: on every
    # point of the n <= 2 grids, and on the sampled points at n <= 6.
    for n, k in product(range(1, 7), (1, 2, 3)):
        d_kd = LocalizationJob(n=n, k=k, classes=(0,) * k).d_kd
        codegrees = tuple(range(d_kd + 1))
        points = list(localize._points(n, k, codegrees, "evaluate", 3, 1729)[1])
        assert [tuple(p[1] for p in powers) for powers, _, _ in points] == localize.sample_taus(n, 3, 1729)
        if n <= 2:
            points += localize._points(n, k, codegrees, "symbolic", 3, 1729)[1]
        for powers, _, _ in points:
            assert type(powers) is tuple and len(powers) == n + 1, (n, k)
            for row in powers:
                assert type(row) is tuple and len(row) == d_kd + 1, (n, k, row)
                assert all(type(v) is int and v == row[1] ** e for e, v in enumerate(row)), (n, k, row)


def test_disagreeing_samples_raise(monkeypatch):
    calls = {"count": 0}

    def fake_contribution(g, codegrees, tau, h):
        calls["count"] += 1
        return {c: calls["count"] for c in codegrees}

    monkeypatch.setattr(localize, "graph_contribution", fake_contribution)
    with pytest.raises(InconsistencyError):
        invariant(1, 1, (1,), samples=10)
    # the sweep stops at the second sample, the first to disagree: 2 graphs each
    assert calls["count"] == 4
    with pytest.raises(InconsistencyError, match=r"\(0,\)"):
        localize.table(1, 1, [(0,), (1,)])


def test_table_checks_each_tuple_on_its_own(monkeypatch):
    # Only the second tuple's values move between samples; the table must
    # still reject it although the first tuple agrees with itself.
    samples = {"count": 0}

    # (0,) has codegree 1 and (1,) codegree 0.  The characters are
    # (t, t + 1), so u = 1 and the pair denominator is 1 at every sample,
    # and (1,) gets t times its part on A = {1} and t + 1 times it on
    # A = {}: only the first of the two carries the moving part.
    def fake_contribution(g, codegrees, tau, h):
        return {1: F(1), 0: F(samples["count"]) if g.A else F(0)}

    def counting_tau(rng, n):
        samples["count"] += 1
        return (samples["count"], samples["count"] + 1)

    monkeypatch.setattr(localize, "graph_contribution", fake_contribution)
    monkeypatch.setattr(localize, "sample_tau", counting_tau)
    with pytest.raises(InconsistencyError, match=r"\(1,\)"):
        localize.table(1, 1, [(0,), (1,)])


def test_repeated_characters_raise_without_resampling(monkeypatch):
    # No longer retried: sample_tau never repeats a character, so a forced
    # repeat is a pole that invariant reports instead of redrawing.
    monkeypatch.setattr(localize, "sample_tau", lambda rng, n: (F(5), F(5)))
    with pytest.raises(ResampleSignal):
        invariant(1, 1, (1,))


def test_sample_tau_distinct_beyond_default_range():
    tau = localize.sample_tau(random.Random(0), 2500)
    assert len(set(tau)) == 2501


def test_per_graph_at_first_sample():
    # The summands at the first seeded sample, each divided on its own:
    # every one is the reference summand and together they are the invariant.
    for n, k, classes, seed in [(1, 2, (1, 1), 1729), (2, 3, (2, 1, 0), 9), (3, 2, (2, 1), 5)]:
        job = LocalizationJob(n=n, k=k, classes=classes)
        tau = localize.sample_taus(n, 3, seed)[0]
        swept, summands = localize.traced_invariant(n, k, classes, seed=seed)
        assert [g for g, _ in summands] == enumerate_graphs(n, k)
        assert [value for _, value in summands] == [contributions(g, [job], tau)[0] for g in enumerate_graphs(n, k)]
        assert Invariant(sum(value for _, value in summands), job.kappa_exp) == swept
        assert swept == invariant(n, k, classes, seed=seed)
    for strategy in ("evaluate", "symbolic"):  # a graded-zero tuple has no summands
        assert localize.traced_invariant(2, 3, (2, 2, 2), strategy=strategy) == (Invariant(0, 0), [])


def test_symbolic_per_graph_at_first_grid_point():
    # The first grid point is tau = (1, 2, .., n + 1); the grid-wide scale
    # and column identities are in test_symbolic_grid_points.
    for n, k, classes in [(1, 1, (1,)), (1, 3, (1, 1, 0)), (2, 2, (2, 1)), (2, 3, (2, 1, 1))]:
        job = LocalizationJob(n=n, k=k, classes=classes)
        tau = tuple(range(1, n + 2))
        powers = localize._symbolic_sum(n, k)[1][0][0]
        assert tuple(p[1] for p in powers) == tau
        swept, summands = localize.traced_invariant(n, k, classes, strategy="symbolic")
        assert [g for g, _ in summands] == enumerate_graphs(n, k)
        assert [value for _, value in summands] == [contributions(g, [job], tau)[0] for g in enumerate_graphs(n, k)]
        assert Invariant(sum(value for _, value in summands), job.kappa_exp) == swept
        assert swept == invariant(n, k, classes, strategy="symbolic")


def test_symbolic_table_matches_invariant():
    groups = {}
    for entry in ALL_INVARIANT_ENTRIES:
        if entry.n <= 2:
            groups.setdefault((entry.n, entry.k), []).append(entry.classes)
    assert len(groups) == 6
    for (n, k), tuples in groups.items():
        swept = localize.table(n, k, tuples, strategy="symbolic")
        assert swept == {classes: invariant(n, k, classes, strategy="symbolic") for classes in tuples}, (n, k)


def test_three_point_boundary_laws_empirical():
    # An empirical check, fitted to this code's own output: it is neither
    # derived nor printed in the paper, and it is never a reason to edit
    # tables.py.  For n <= 12, over cells b <= c:
    #   <1, H^b, H^c>_3 = 0                              for b + c >= n + 1,
    #   <1, H^b, H^c>_3 = 1/2 kappa^-2 <1, H^(b+c)>_2    for b + c <= n.
    counts, broken = [0, 0], []
    for n in range(1, 13):
        two = localize.table(n, 2, [(0, m) for m in range(n + 1)])
        expected = {}
        for b, c in combinations_with_replacement(range(n + 1), 2):
            if b + c > n:
                expected[0, b, c], law = Invariant(0, 0), 0
            else:
                half = two[0, b + c]
                expected[0, b, c], law = Invariant(half.coeff / 2, half.kappa_exp - 2), 1
            counts[law] += 1
        got = localize.table(n, 3, list(expected))
        broken += [(n, classes, str(got[classes])) for classes in expected if got[classes] != expected[classes]]
    assert counts == [203, 251]
    assert not broken


def test_per_graph_call_counts_in_process(monkeypatch):
    # The counts perfbench/selfcheck.py reads through its tracer: a cold
    # invariant(1, 3, (1, 1, 1)) evaluates its 8 graphs at 3 samples, with
    # one graph_contribution and one euler_data call each, and misses the
    # euler_data cache once per graph.
    calls = {"graph_contribution": 0, "euler_data": 0}
    contribution, data_of = localize.graph_contribution, localize.euler_data

    def counting_contribution(*args, **kwargs):
        calls["graph_contribution"] += 1
        return contribution(*args, **kwargs)

    def counting_data(g):
        calls["euler_data"] += 1
        return data_of(g)

    monkeypatch.setattr(localize, "graph_contribution", counting_contribution)
    monkeypatch.setattr(localize, "euler_data", counting_data)
    euler_data.cache_clear()
    misses = euler_data.cache_info().misses
    assert invariant(1, 3, (1, 1, 1)) == Invariant(1, -3)
    misses = euler_data.cache_info().misses - misses
    assert (calls, misses) == ({"graph_contribution": 24, "euler_data": 24}, 8), (
        f"cold invariant(1, 3, (1, 1, 1)) made {calls} calls with {misses} euler_data misses; "
        "perfbench/selfcheck.py expects 24 of each and 8 misses"
    )
