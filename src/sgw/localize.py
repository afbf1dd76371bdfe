"""Degree-one localization sums for super Gromov-Witten numbers of P^n.

Each fixed graph contributes

    (-1)^c * h_c(odd normal weights) * ev-pullback * (inverse Euler class)

where c is the codegree in hyperplane-power units; the result is a single
kappa-monomial with exponent -(rank) - (dimension) + (total insertion
degree).  Point-type loci take the lam-free part, loci isomorphic to the
four-pointed moduli curve take the lam-coefficient.  The inverse Euler
class is the numerator stored in ``EulerData`` over the closed form
u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j), u = tau_b - tau_a,
shared by every locus.  Both strategies build this integrand the same
way, once per pair (a, b) for its 2^k graphs, which share all but the
flag weights -u, u: ``_h_values`` runs the h recurrence over twice the
lam-free odd weights ``graphs.pair_weights``, which gives 2^c h_c;
``_own_h`` takes out a flag weight a graph lacks, and
``_integrand_parts`` alone adds the pure lam weight by
h_c(W + {e*lam}) = h_c(W) + e*lam*h_{c-1}(W).  All is an integer, and
so is each strategy's sum: both add the graphs over one common
denominator and divide once per value, by that denominator times (-2)^c,
which turns 2^c h_c into (-1)^c h_c.

The sum is a constant rational function of the torus characters, so the
default strategy evaluates it at several seeded generic integer tuples
and insists the values agree.  ``table`` does so for many class tuples of
one (n, k) at once: per sample, each pair's denominator and h are
evaluated once (``_pair``), each graph's parts once
(``graph_contribution``), and only the ev pullback and the codegree
differ between tuples.  Each tuple's sample is an integer sum over
L = lcm of the graph denominators, which ``table`` divides once, by
L * (-2)^c; ``invariant`` is its one-tuple case.  The symbolic strategy
(n <= 2) proves the sum constant: its numerator N over
D = prod_{i<j} (tau_i - tau_j)^k is a fixed multiple of D at every point
of a grid on which no nonzero polynomial of their degree vanishes.  The
grid's integer data is built once per (n, k) (``_symbolic_sum``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, groupby, product
from math import lcm, prod
from operator import mul
from typing import Collection, Iterable, Sequence

from .errors import DomainError, InconsistencyError, ResampleSignal, UnsupportedError
from .graphs import EulerData, FixedGraph, enumerate_graphs, euler_data, ev_exponents, pair_weights
from .point import Invariant

DEFAULT_SEED = 1729
SAMPLE_RANGE = 1000


@dataclass(frozen=True)
class LocalizationJob:
    n: int
    k: int
    classes: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.k not in (1, 2, 3):
            raise UnsupportedError("localization implemented for k in {1, 2, 3}")
        if len(self.classes) != self.k:
            raise DomainError(f"expected {self.k} classes")
        for a in self.classes:
            if not 0 <= a <= self.n:
                raise DomainError(f"class exponent {a} outside [0, {self.n}]")

    # dimension n + d(n + 1) + k - 3 and odd rank d(n + 1) + k - 2 at degree d = 1
    @cached_property
    def d_kd(self) -> int:
        return self.n + (self.n + 1) + self.k - 3

    @cached_property
    def r_kd(self) -> int:
        return (self.n + 1) + self.k - 2

    @cached_property
    def total_class_degree(self) -> int:
        return sum(self.classes)

    @cached_property
    def c(self) -> int:
        return self.d_kd - self.total_class_degree

    @property
    def kappa_exp(self) -> int:
        return -self.r_kd - self.d_kd + self.total_class_degree

    @property
    def graded_zero(self) -> bool:
        return self.c < 0


def _h_values(c: int, weights: Sequence) -> list:
    """h_0 .. h_c of lam-free weights in any ring with + and * (integers, Fractions or Polys)."""
    one = weights[0] ** 0
    h = [one] + [one - one] * c
    for w in weights:
        for j in range(1, c + 1):
            h[j] = h[j] + w * h[j - 1]
    return h


def _own_h(g: FixedGraph, h: list, u) -> list:
    """h_0 .. h_cmax of the odd weights of ``g`` from ``h`` of its pair's ``pair_weights``.

    If all marks are at one end, ``g`` lacks the flag weight w of the bare
    end (-u at q_a, u at q_b): h_c(W) = h_c(W + w) - w h_{c-1}(W + w).
    """
    if g.A and len(g.A) < g.k:
        return h
    w = u if g.A else -u
    return h[:1] + [h_c - w * h_prev for h_prev, h_c in zip(h, h[1:])]


def _integrand_parts(g: FixedGraph, data: EulerData, codegrees: Collection[int], h: list, u) -> dict:
    """Part of one graph's integrand numerator that its locus integrates, per codegree c.

    ``h`` is h_0 .. h_cmax of twice the lam-free odd weights of ``g`` and
    ``data.lam_weight * lam`` is twice the pure lam weight, so h_c of them
    all is 2^c times h_c of the odd weights; since lam^2 = 0, the pure
    weight only adds lam_weight * lam * h_{c-1}.  The part is that h_c
    times (num_one + num_u * u + num_lam * lam): an m04 locus takes its
    lam coefficient, a point locus its lam-free part, and lam must not
    survive on a point locus.  Each part is an integer: 2^c times the
    integrand part without its sign (-1)^c.  The caller divides by (-2)^c
    along with the Euler denominator.
    """
    lam_free = data.num_one + data.num_u * u
    m04 = g.m04
    parts = {}
    for c in codegrees:
        coeff = data.num_lam * h[c]
        if c and data.lam_weight:
            coeff = coeff + data.lam_weight * h[c - 1] * lam_free
        if not m04 and coeff:
            raise InconsistencyError(f"lam survived on the point-type locus {g.label()}")
        parts[c] = coeff if m04 else h[c] * lam_free
    return parts


def _pair(g: FixedGraph, jobs: Sequence[LocalizationJob], tau: Sequence[int]) -> tuple[set[int], int, list]:
    """The codegrees of ``jobs``, the Euler denominator and h_0 .. h_cmax of ``pair_weights`` on the pair of ``g``."""
    if any(job.n != g.n or job.k != g.k for job in jobs):
        raise DomainError("graph and job disagree on (n, k)")
    codegrees = {job.c for job in jobs}
    tau_a, tau_b = tau[g.a], tau[g.b]
    den = (tau_b - tau_a) ** g.k
    for j, tau_j in enumerate(tau):
        if j != g.a and j != g.b:
            den *= (tau_a - tau_j) * (tau_b - tau_j)
    if den == 0:
        raise ResampleSignal(f"denominator of {g.label()} vanishes at {tau}")
    return codegrees, den, _h_values(max(codegrees, default=0), pair_weights(g.n, g.a, g.b, tau))


def graph_contribution(
    g: FixedGraph, jobs: Sequence[LocalizationJob], tau: Sequence[int], pair: tuple | None = None
) -> tuple[dict[int, int], int]:
    """One graph's integer parts at the given characters, per codegree of ``jobs``, and its Euler denominator.

    ``pair`` is the ``_pair`` that ``g`` shares with the graphs on its pair
    (a, b) at ``tau``, computed here if not given; the graph's own h takes
    O(cmax) from it.  Nothing is divided: a job of codegree c whose ev
    pullback is tau_a^x tau_b^y gets the summand
    tau_a^x tau_b^y parts[c] / (den * (-2)^c), which ``table`` adds up
    over one common denominator.
    """
    codegrees, den, h = _pair(g, jobs, tau) if pair is None else pair
    u = tau[g.b] - tau[g.a]
    return _integrand_parts(g, euler_data(g), codegrees, _own_h(g, h, u), u), den


def _grid_point(graphs: Sequence[FixedGraph], tau: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple]:
    """``tau``, D = prod_{i<j} (tau_i - tau_j)^k and, per codegree c <= cmax, each graph's cofactor * parts[c].

    Each graph denominator times its cofactor, a product of differences, is
    D, so coincident characters are no pole.  The graphs on a pair (a, b)
    share its h and cofactor, and the parts are linear in h.
    """
    n, k = graphs[0].n, graphs[0].k
    codegrees = range(LocalizationJob(n=n, k=k, classes=(0,) * k).c + 1)
    diffs = {(i, j): tau[i] - tau[j] for i, j in combinations(range(n + 1), 2)}
    rows = []
    for (a, b), on_pair in groupby(graphs, key=lambda g: (g.a, g.b)):
        # Over the pairs i < j the graph denominator is (tau_a - tau_b)^k times
        # each pair {j, a} and {j, b}, j != a, b, once.  Its sign is (-1)^k from
        # u = -(tau_a - tau_b), times -1 for each such j below a and each below
        # b: a + (b - 1) of them.
        cofactor = (-1) ** (k + a + b - 1)
        for pair, diff in diffs.items():
            touching = (a in pair) + (b in pair)
            cofactor *= diff ** (0 if touching == 2 else k - touching)
        u = tau[b] - tau[a]
        h = [cofactor * h_c for h_c in _h_values(codegrees[-1], pair_weights(n, a, b, tau))]
        rows += [_integrand_parts(g, euler_data(g), codegrees, _own_h(g, h, u), u).values() for g in on_pair]
    return tau, prod(diff**k for diff in diffs.values()), tuple(zip(*rows))


@lru_cache(maxsize=None)
def _symbolic_sum(n: int, k: int) -> tuple[tuple[FixedGraph, ...], tuple]:
    """The graphs of (n, k) and their ``_grid_point`` at tau = (1, x) for x in S = {x >= 0 : |x| <= delta}.

    A tuple of codegree c sums to N / (D * (-2)^c) with N from ``_numerator``.
    N and D are homogeneous of degree delta = k n (n + 1) / 2 (the grading
    formula), so N - r D, r rational, is zero once it vanishes at every
    (1, x), x in S: no nonzero polynomial of degree <= delta vanishes on S.
    """
    graphs = tuple(enumerate_graphs(n, k))
    delta = k * n * (n + 1) // 2
    points = [x for x in product(range(delta + 1), repeat=n) if sum(x) <= delta]
    return graphs, tuple(_grid_point(graphs, (1,) + x) for x in points)


def _numerator(graphs: Sequence[FixedGraph], point: tuple, exponents: Sequence[tuple[int, int]], c: int) -> int:
    """N = sum_g tau_a^x tau_b^y (cofactor * parts[c]) at one ``_grid_point``."""
    tau, _, columns = point
    return sum(tau[g.a] ** x * tau[g.b] ** y * v for g, (x, y), v in zip(graphs, exponents, columns[c]))


def sample_tau(rng: random.Random, n: int) -> tuple[int, ...]:
    """n + 1 distinct integer characters in [-R, R], R = max(SAMPLE_RANGE, n)."""
    bound = max(SAMPLE_RANGE, n)
    return tuple(rng.sample(range(-bound, bound + 1), n + 1))


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise DomainError(f"localization needs at least 2 samples, got {samples}")


def _evaluate_once(
    graphs: Sequence[FixedGraph], jobs: Sequence[LocalizationJob], tau
) -> list[tuple[dict[int, int], int]]:
    """Each graph's integer parts per codegree and Euler denominator at one character tuple, in graph order.

    The graphs on a pair (a, b) are adjacent and share one ``_pair``.
    """
    rows = []
    for _, on_pair in groupby(graphs, key=lambda g: (g.a, g.b)):
        on_pair = list(on_pair)
        pair = _pair(on_pair[0], jobs, tau)
        rows += [graph_contribution(g, jobs, tau, pair) for g in on_pair]
    return rows


def table(
    n: int,
    k: int,
    class_tuples: Iterable[Sequence[int]],
    samples: int = 3,
    seed: int = DEFAULT_SEED,
    trace: dict[tuple[int, ...], list] | None = None,
) -> dict[tuple[int, ...], Invariant]:
    """Degree-one k-point invariants of P^n for many class tuples in one sweep.

    Every tuple sees the same seeded character tuples it would see alone,
    so each sample evaluates the per-graph data once for all tuples; the
    values of each tuple must agree exactly across its samples.  Per
    sample, a tuple of codegree c adds the integers
    (L // den_g) tau_a^x tau_b^y parts_g[c] over the graphs g, with
    L = lcm(den_g), and divides once, by L * (-2)^c.  Tuples with negative
    codegree are zero and take no part in the sweep.  ``trace``, if given,
    maps class tuples to lists that receive one record per sample: its
    characters, its value and the per-graph contributions, each divided
    on its own (only traced tuples pay for that).  The result maps each
    distinct tuple, in first-seen order, to its invariant.
    """
    _check_samples(samples)
    jobs: dict[tuple[int, ...], LocalizationJob] = {}
    for classes in map(tuple, class_tuples):
        if classes not in jobs:
            jobs[classes] = LocalizationJob(n=n, k=k, classes=classes)
    result = {classes: Invariant.zero() for classes in jobs}
    live = [job for job in jobs.values() if not job.graded_zero]
    if not live:
        return result
    graphs = enumerate_graphs(n, k)
    codegrees = [job.c for job in live]
    # A graph's parts depend on a job only through its codegree, and its ev
    # exponents only through A, so graphs of one A are summed together.
    by_codegree = {c: job for c, job in zip(codegrees, live)}
    kinds: dict[frozenset[int], list[int]] = {}
    for i, g in enumerate(graphs):
        kinds.setdefault(g.A, []).append(i)
    exponents = {A: [ev_exponents(graphs[idx[0]], job.classes) for job in live] for A, idx in kinds.items()}
    top = max(job.total_class_degree for job in live)
    rng = random.Random(seed)
    values: list[list[Fraction]] = [[] for _ in live]
    for _ in range(samples):
        # Denominators are products of tau_i - tau_j and the characters are
        # distinct, so no sample hits a pole.
        tau = sample_tau(rng, n)
        rows = _evaluate_once(graphs, list(by_codegree.values()), tau)
        common = lcm(*{den for _, den in rows})
        powers = [[t**e for e in range(top + 1)] for t in tau]
        sums = [0] * len(live)
        for A, idx in kinds.items():
            ends = [(graphs[i].a, graphs[i].b) for i in idx]
            scales = [common // rows[i][1] for i in idx]
            scaled = {c: [s * rows[i][0][c] for s, i in zip(scales, idx)] for c in by_codegree}
            monomials: dict[tuple[int, int], list] = {}
            for j, (xy, c) in enumerate(zip(exponents[A], codegrees)):
                if xy not in monomials:
                    x, y = xy
                    monomials[xy] = [powers[a][x] * powers[b][y] for a, b in ends]
                sums[j] += sum(map(mul, monomials[xy], scaled[c]))
        for j, (job, c, job_values) in enumerate(zip(live, codegrees, values)):
            value = Fraction(sums[j], common * (-2) ** c)
            job_values.append(value)
            if trace is not None and job.classes in trace:
                per_graph = []
                for g, (parts, den) in zip(graphs, rows):
                    x, y = exponents[g.A][j]
                    contribution = Fraction(powers[g.a][x] * powers[g.b][y] * parts[c], den * (-2) ** c)
                    per_graph.append({"graph": g.label(), "value": str(contribution)})
                trace[job.classes].append({"tau": [str(t) for t in tau], "value": str(value), "per_graph": per_graph})
    for job, job_values in zip(live, values):
        if len(set(job_values)) != 1:
            raise InconsistencyError(
                f"evaluations of {job.classes} disagree across samples: {[str(v) for v in job_values]}"
            )
        result[job.classes] = Invariant.of(job_values[0], job.kappa_exp)
    return result


def invariant(
    n: int,
    k: int,
    classes: Sequence[int],
    strategy: str = "evaluate",
    samples: int = 3,
    seed: int = DEFAULT_SEED,
    trace: list | None = None,
) -> Invariant:
    """Degree-one k-point invariant of P^n with hyperplane-power insertions.

    ``strategy`` is "evaluate" (seeded generic evaluations, all required to
    agree: the one-tuple case of ``table``) or "symbolic" (n <= 2: N = r D
    checked on the grid of ``_symbolic_sum``, which proves it); either
    needs ``samples`` >= 2.
    ``trace``, if given, receives one record per sample: its characters,
    its value and the per-graph contributions.
    """
    classes = tuple(classes)
    _check_samples(samples)
    if strategy == "evaluate":
        traces = None if trace is None else {classes: trace}
        return table(n, k, [classes], samples=samples, seed=seed, trace=traces)[classes]
    if strategy != "symbolic":
        raise DomainError(f"unknown strategy {strategy!r}")
    if n > 2:
        raise DomainError("symbolic strategy supported for n <= 2")
    job = LocalizationJob(n=n, k=k, classes=classes)
    if job.graded_zero:
        return Invariant.zero()
    graphs, grid = _symbolic_sum(n, k)
    exponents = [ev_exponents(g, classes) for g in graphs]
    values = [(point[0], _numerator(graphs, point, exponents, job.c), point[1]) for point in grid]
    ref_tau, ref_num, ref_den = next(value for value in values if value[2])
    for tau, num, den in values:
        if num * ref_den != ref_num * den:
            raise InconsistencyError(
                f"symbolic sum is not constant: {num}/{den} at tau = {tau}, {ref_num}/{ref_den} at tau = {ref_tau}"
            )
    return Invariant.of(Fraction(ref_num, ref_den * (-2) ** job.c), job.kappa_exp)


def check_extension(n: int, k: int, classes: Sequence[int], seed: int = DEFAULT_SEED) -> bool:
    """Codegree-zero three-point values must be exactly kappa^-(n+2)."""
    job = LocalizationJob(n=n, k=k, classes=tuple(classes))
    if k != 3:
        raise DomainError("extension check applies to three-point invariants")
    if job.c != 0:
        raise DomainError("extension check needs codegree zero")
    result = invariant(n, k, classes, seed=seed)
    return result == Invariant.of(1, -job.r_kd)
