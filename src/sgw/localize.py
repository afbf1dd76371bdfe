"""Degree-one localization sums for super Gromov-Witten numbers of P^n.

Each fixed graph contributes

    (-1)^c * h_c(odd normal weights) * ev-pullback * (inverse Euler class)

where c is the codegree in hyperplane-power units; the result is a single
kappa-monomial with exponent -(rank) - (dimension) + (total insertion
degree).  Point-type loci take the lam-free part, loci isomorphic to the
four-pointed moduli curve take the lam-coefficient.  The inverse Euler
class is the numerator stored in ``EulerData`` over the closed form
u^k * prod_{j != a, b} (tau_a - tau_j)(tau_b - tau_j), u = tau_b - tau_a.

One builder evaluates the sum at integer characters tau:
``_evaluate_once`` runs the h recurrence once per point, over 2 tau
(``_point``).  Twice the lam-free odd weights of a graph on the pair
(a, b) with marks at both ends are {2 tau_m - s : m = 0..n}, s = tau_a + tau_b,
so their h_j, 2^j times that of the odd weights, is sum_i C(n+j, i)
(-s)^i h_{j-i}(2 tau) (``_pair``).  Each of the pair's 2^k graphs reads
it at c, c - 1 and c - 2, takes out inline a flag weight it lacks, and
adds the pure lam weight by h_c(W + {e*lam}) = h_c(W) + e*lam*h_{c-1}(W)
(``graph_contribution``; point loci have none).  Its graphs share the
pair's one Euler denominator den, so their integer parts come out scaled
by L // den, L = lcm of the pair denominators, one division per pair,
and the point keeps its table of powers tau_j^e, e <= d_kd, next to them.

One sum, two point sets.  ``table`` (``invariant`` is its one-tuple case)
runs ``_sweep``, which adds up each tuple's scaled summands at every
point once per key (bitmask of A, ev exponents), from the point's own
powers, so a tuple's value at tau is one integer sum over L * (-2)^c,
the sign turning 2^c h_c into (-1)^c h_c.  It checks that each point
agrees with the first as it arrives: the sum is constant in the characters.
``_points`` alone chooses them: seeded generic samples for "evaluate",
or for "symbolic" (n <= 2) the grid built once per (n, k) by
``_symbolic_sum``, on which agreement proves the sum constant; the grid
keeps each point's powers, so no tuple builds them again.
``traced_invariant`` also divides each graph's summand on its own at the
first point of the tuple's sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, cycle, product, repeat
from math import comb, lcm
from operator import itemgetter, mul
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import DomainError, InconsistencyError, ResampleSignal, as_tuple, integer
from .graphs import FixedGraph, check_classes, check_size, enumerate_graphs, euler_data
from .point import Invariant

DEFAULT_SEED = 1729
SAMPLE_RANGE = 1000


class _JobFields(NamedTuple):
    n: int
    k: int
    classes: tuple[int, ...]


class LocalizationJob(_JobFields):
    __slots__ = ()

    def __new__(cls, n: int, k: int, classes: tuple[int, ...]):
        check_size(n, k)
        return super().__new__(cls, n, k, check_classes(n, k, classes))

    # dimension n + d(n + 1) + k - 3 and odd rank d(n + 1) + k - 2 at degree d = 1
    @property
    def d_kd(self) -> int:
        return self.n + (self.n + 1) + self.k - 3

    @property
    def r_kd(self) -> int:
        return (self.n + 1) + self.k - 2

    @property
    def total_class_degree(self) -> int:
        return sum(self.classes)

    @property
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
    degrees = range(1, c + 1)
    for w in weights:
        prev = one
        for j in degrees:
            prev = h[j] = h[j] + w * prev
    return h


@lru_cache(maxsize=None)
def _shift_plan(n: int, codegrees: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """cmax, the indices j of a pair's h that ``graph_contribution`` reads, and C(n+j, j-i), i = 0 .. j."""
    reads = sorted({j for c in codegrees for j in (c - 2, c - 1, c) if j >= 0})
    rows = tuple(tuple(comb(n + j, j - i) for i in range(j + 1)) for j in reads)
    return max(codegrees, default=0), tuple(reads), rows


def _point(codegrees: tuple[int, ...], tau: Sequence[int]) -> tuple[int, tuple, list, list]:
    """cmax, the read j, the coefficients C(n+j, j-i) h_i(2 tau) of h_j in -s, V_j = prod_{i != j} (tau_j - tau_i)."""
    cmax, reads, rows = _shift_plan(len(tau) - 1, codegrees)
    h = _h_values(cmax, [2 * t for t in tau])
    vertex = [1] * len(tau)
    for j, tau_j in enumerate(tau):
        for i in range(j):
            vertex[i] *= tau[i] - tau_j
            vertex[j] *= tau_j - tau[i]
    if 0 in vertex:
        raise ResampleSignal(f"repeated characters, poles of the Euler denominators: {tau}")
    return cmax, reads, [list(map(mul, row, h)) for row in rows], vertex


def _pair(g: FixedGraph, point: tuple, tau: Sequence[int]) -> tuple[int, list]:
    """The Euler denominator u^k (V_a / -u) (V_b / u) and h_0 .. h_cmax of the pair's weights, 0 if unread, of g's pair.

    Every graph on the pair (a, b) shares both.  Each read h_j is one
    Horner evaluation at -s; V_a = -u prod_{j != a, b} (tau_a - tau_j).
    """
    cmax, reads, coefficients, vertex = point
    tau_a, tau_b = tau[g.a], tau[g.b]
    u, t = tau_b - tau_a, -tau_a - tau_b
    h = [0] * (cmax + 1)
    for j, row in zip(reads, coefficients):
        value = 0
        for coefficient in row:
            value = value * t + coefficient
        h[j] = value
    return u**g.k * (vertex[g.a] // -u) * (vertex[g.b] // u), h


def graph_contribution(g: FixedGraph, codegrees: Collection[int], tau: Sequence[int], h: Sequence) -> dict[int, int]:
    """Part of one graph's integrand numerator that its locus integrates, per codegree c.

    ``h`` is the ``_pair`` h that ``g`` shares with every graph on its pair
    (a, b) at ``tau``, as it shares the pair's Euler denominator den: h of
    twice the lam-free odd weights of every graph on (a, b), read at c,
    c - 1 and c - 2.  A graph with every mark at one end lacks the flag
    weight w of its bare end (-u at q_a, u at q_b, u = tau_b - tau_a): its
    own h_j is h_j - w h_{j-1}.  Twice the pure lam weight is
    ``lam_weight * lam`` (``euler_data``) and lam^2 = 0, so it only adds
    lam_weight * lam * h_{c-1}.  The part is h_c times
    (num_one + num_u * u + num_lam * lam), by locus type, read off |A| and
    k: a point locus has no lam data and takes h_c * lam_free; an m04 locus
    (k = 3, every mark at one end) takes num_lam * h_c + lam_weight * h_{c-1} * lam_free.
    Each part is 2^c times the integrand part without its sign (-1)^c, an
    integer, and nothing is divided: a tuple of codegree c whose ev
    pullback is tau_a^x tau_b^y gets the summand
    tau_a^x tau_b^y parts[c] / (den * (-2)^c).
    """
    lam_weight, num_one, num_u, num_lam = euler_data(g)
    u = tau[g.b] - tau[g.a]
    lam_free = num_one + num_u * u
    marks, k = len(g.A), g.k
    parts = {}
    if k == 3 and marks in (0, 3):
        w = u if marks else -u
        for c in codegrees:
            if c:
                below = h[c - 1] - w * h[c - 2] if c > 1 else h[0]
                parts[c] = num_lam * (h[c] - w * h[c - 1]) + lam_weight * below * lam_free
            else:
                parts[c] = num_lam * h[0]
        return parts
    if lam_weight or num_lam:
        raise InconsistencyError(f"lam survived on the point-type locus {g.label()}")
    w = 0 if 0 < marks < k else u if marks else -u  # 0: marks at both ends, h is the graph's own
    for c in codegrees:
        parts[c] = (h[c] - w * h[c - 1] if c and w else h[c]) * lam_free
    return parts


def _evaluate_once(
    graphs: Sequence[FixedGraph], codegrees: tuple[int, ...], tau
) -> tuple[tuple[tuple[int, ...], ...], int, dict[int, tuple[int, ...]]]:
    """The point (powers, L, columns): powers[j] = (1, tau_j, .., tau_j^d_kd), L = lcm of the pair denominators.

    d_kd = 2n + k - 2 is the largest ev degree x + y = d_kd - c that a
    tuple reads, so ``_sweep`` takes every tau_a^x tau_b^y from ``powers``
    and builds no table of its own.  ``columns`` maps each codegree c to
    every graph's scaled part parts_g[c] * (L // den), one division per
    pair.  One ``_point`` serves every pair; the 2^k graphs on a pair
    (a, b), adjacent as ``enumerate_graphs`` lists them, share its one
    ``_pair`` (den, h).
    """
    point = _point(codegrees, tau)
    k = graphs[0].k
    width = 2**k
    dens, rows = [], []
    for start in range(0, len(graphs), width):
        den, h = _pair(graphs[start], point, tau)
        dens.append(den)
        for g in graphs[start : start + width]:
            rows.append(graph_contribution(g, codegrees, tau, h))
    common = lcm(*dens)
    scales = [scale for den in dens for scale in repeat(common // den, width)]
    d_kd = 2 * (len(tau) - 1) + k - 2
    powers = tuple(tuple(accumulate(repeat(t, d_kd), mul, initial=1)) for t in tau)
    return powers, common, {c: tuple(map(mul, map(itemgetter(c), rows), scales)) for c in codegrees}


@lru_cache(maxsize=None)
def _symbolic_sum(n: int, k: int) -> tuple[tuple[FixedGraph, ...], tuple]:
    """The graphs of (n, k) and ``_evaluate_once`` of every codegree on a grid where agreement is a proof.

    The points are tau = (1, tau_1 .. tau_n), tau_j = 1 + j + n x_j, for x
    in S = {x >= 0 : |x| <= delta}, delta = k n (n + 1) / 2; their
    characters are distinct, so no denominator vanishes.  A tuple's sum
    is N / D with D = prod_{i<j} (tau_i - tau_j)^k and N homogeneous of
    degree delta (the grading formula).  If it equals r at every point,
    P = N - r D vanishes there.  Q(x) = P(1, tau(x)) has degree <= delta
    and vanishes on S, so it is zero: by induction on n it vanishes where
    x_n = 0, so x_n divides it, and by induction on delta the quotient,
    which vanishes on the points of S with x_n >= 1, is zero.  So P = 0,
    as P is homogeneous.
    """
    graphs = tuple(enumerate_graphs(n, k))
    codegrees = tuple(range(LocalizationJob(n=n, k=k, classes=(0,) * k).c + 1))
    delta = k * n * (n + 1) // 2
    points = [x for x in product(range(delta + 1), repeat=n) if sum(x) <= delta]
    taus = [(1,) + tuple(1 + j + n * x_j for j, x_j in enumerate(x, start=1)) for x in points]
    return graphs, tuple(_evaluate_once(graphs, codegrees, tau) for tau in taus)


def sample_tau(rng: random.Random, n: int) -> tuple[int, ...]:
    """n + 1 distinct integer characters in [-R, R], R = max(SAMPLE_RANGE, n)."""
    bound = max(SAMPLE_RANGE, n)
    return tuple(rng.sample(range(-bound, bound + 1), n + 1))


def _check_samples(samples: int) -> None:
    """Refuse ``samples`` unless it is an ``int`` >= 2: agreement needs a second point."""
    if integer(samples, "samples") < 2:
        raise DomainError(f"localization needs at least 2 samples, got {samples}")


def sample_taus(n: int, samples: int, seed: int) -> list[tuple[int, ...]]:
    """The seeded character tuples that ``table`` evaluates at; n >= 1, samples >= 2 and seed must be ``int``s."""
    integer(n, "n", 1)
    _check_samples(samples)
    rng = random.Random(integer(seed, "seed"))
    return [sample_tau(rng, n) for _ in range(samples)]


def _points(n: int, k: int, codegrees: tuple[int, ...], strategy: str, samples: int, seed: int) -> tuple:
    """The graphs of (n, k) and the ``_evaluate_once`` points that ``strategy`` sums them at.

    "evaluate" draws ``samples`` seeded characters: they are distinct and
    the denominators are products of tau_i - tau_j, so no sample hits a pole.
    """
    if strategy == "symbolic":
        return _symbolic_sum(n, k)
    graphs = enumerate_graphs(n, k)
    return graphs, (_evaluate_once(graphs, codegrees, tau) for tau in sample_taus(n, samples, seed))


def _jobs(
    n: int, k: int, class_tuples: Iterable[Sequence[int]], strategy: str, samples: int, seed: int
) -> dict[tuple, LocalizationJob]:
    """The job of each distinct class tuple, in first-seen order, once ``samples``, ``strategy`` and ``seed``
    are valid for n; the seed is checked last, so a bad seed never hides another error."""
    _check_samples(samples)
    if strategy not in ("evaluate", "symbolic"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if strategy == "symbolic" and integer(n, "n") > 2:
        raise DomainError("symbolic strategy supported for n <= 2")
    check_size(n, k)
    jobs = [LocalizationJob(n=n, k=k, classes=classes) for classes in as_tuple(class_tuples, "a list of class tuples")]
    integer(seed, "seed")
    return {job.classes: job for job in jobs}


def _subset_sums(classes: Sequence[int]) -> list[int]:
    """x[m], the sum of classes[i] over the bits 2^i of m, for every bitmask m: one addition each."""
    x = [0] * 2 ** len(classes)
    for m in range(1, len(x)):
        low = m & -m
        x[m] = x[m ^ low] + classes[low.bit_length() - 1]
    return x


def _sweep(graphs: Sequence[FixedGraph], jobs: list[LocalizationJob], points: Iterable) -> dict:
    """The invariant of each job from its sum at every ``_evaluate_once`` point (powers, L, columns).

    A graph's summand depends on a job only through the ev exponents (x, y)
    on its marked set A, and x + y fixes the codegree.  ``enumerate_graphs``
    lists the 2^k graphs of each pair by the bitmask m of A (mark i + 1 in
    A for bit 2^i), so ``graphs[m::2^k]`` are the graphs of one A, and a
    job's x on every mask is its ``_subset_sums``.  Each point sums
    tau_a^x tau_b^y times the scaled part over the graphs of m once per key
    (m, x, y), reading the powers from the point's own table, and each job
    adds up its keys into one integer N over L * (-2)^c.  Each later point
    must give a job the N / L of the first, or it raises as it arrives.
    """
    width = 2 ** jobs[0].k
    indexed = [(g.a, g.b, i) for i, g in enumerate(graphs)]
    members = [indexed[m::width] for m in range(width)]  # the graphs whose A has bitmask m
    keys: dict[tuple[int, int, int], int] = {}  # (m, x, y) -> its place in the partial sums
    picks = []  # per job, the place of its key on each mask
    for job in jobs:
        total = job.total_class_degree
        picks.append([keys.setdefault((m, x, total - x), len(keys)) for m, x in enumerate(_subset_sums(job.classes))])
    d_kd = jobs[0].d_kd
    first = None  # per job, its (N, L) at the first point
    for powers, common, columns in points:
        partial = []
        for m, x, y in keys:
            column = columns[d_kd - x - y]
            total = 0
            for a, b, i in members[m]:
                total += powers[a][x] * powers[b][y] * column[i]
            partial.append(total)
        sums = [sum(map(partial.__getitem__, pick)) for pick in picks]
        if first is None:
            first = [(num, common) for num in sums]
            continue
        for job, other, (num, den) in zip(jobs, sums, first):
            if other * den != num * common:
                sign = (-2) ** job.c
                raise InconsistencyError(
                    f"evaluations of {job.classes} are not constant: "
                    f"{Fraction(num, den * sign)} and {Fraction(other, common * sign)}"
                )
    return {
        job.classes: Invariant(Fraction(num, den * (-2) ** job.c), job.kappa_exp)
        for job, (num, den) in zip(jobs, first)
    }


def table(
    n: int,
    k: int,
    class_tuples: Iterable[Sequence[int]],
    *,
    strategy: str = "evaluate",
    samples: int = 3,
    seed: int = DEFAULT_SEED,
) -> dict[tuple[int, ...], Invariant]:
    """Degree-one k-point invariants of P^n for many class tuples in one ``_sweep``.

    ``strategy`` "evaluate" sums at ``samples`` seeded generic characters,
    "symbolic" (n <= 2) on the grid of ``_symbolic_sum``, which proves the
    values; either needs ``samples`` >= 2.  Every tuple sees the points it
    would see alone, and all its values must agree; tuples with negative
    codegree are zero and take no part.  Each distinct tuple, in first-seen
    order, maps to its invariant.
    """
    jobs = _jobs(n, k, class_tuples, strategy, samples, seed)
    result = {classes: Invariant(0, 0) for classes in jobs}
    live = [job for job in jobs.values() if not job.graded_zero]
    if live:
        graphs, points = _points(n, k, tuple(sorted({job.c for job in live})), strategy, samples, seed)
        result.update(_sweep(graphs, live, points))
    return result


def invariant(
    n: int, k: int, classes: Sequence[int], strategy: str = "evaluate", samples: int = 3, seed: int = DEFAULT_SEED
) -> Invariant:
    """Degree-one k-point invariant of P^n with hyperplane-power insertions: the one-tuple ``table``."""
    (value,) = table(n, k, [classes], strategy=strategy, samples=samples, seed=seed).values()
    return value


def traced_invariant(
    n: int, k: int, classes: Sequence[int], strategy: str = "evaluate", samples: int = 3, seed: int = DEFAULT_SEED
) -> tuple[Invariant, list[tuple[FixedGraph, Fraction]]]:
    """``invariant`` of ``classes`` and each graph's summand at the first point of its sweep, divided on its own.

    That point is the first seeded sample, or the grid point (1, 2, .., n + 1), where each
    scaled part times tau_a^x tau_b^y, read from the point's powers, is divided by L * (-2)^c.
    The summands add up to the invariant; a graded-zero tuple has none.
    """
    (job,) = _jobs(n, k, [classes], strategy, samples, seed).values()
    if job.graded_zero:
        return Invariant(0, 0), []
    graphs, points = _points(n, k, (job.c,), strategy, samples, seed)
    points = iter(points)
    powers, common, columns = first = next(points)
    den = common * (-2) ** job.c
    total = job.total_class_degree
    xs = cycle(_subset_sums(job.classes))  # graphs[i] marks A by the bitmask i % 2^k, as in ``_sweep``
    summands = [
        (g, Fraction(powers[g.a][x] * powers[g.b][total - x] * part, den))
        for g, x, part in zip(graphs, xs, columns[job.c])
    ]
    return _sweep(graphs, [job], chain([first], points))[job.classes], summands

