"""Degree-one localization sums for super Gromov-Witten numbers of P^n.

Each fixed graph contributes

    (-1)^c * h_c(odd normal weights) * ev-pullback * (inverse Euler class)

where c is the codegree in hyperplane-power units; the result is a single
kappa-monomial with exponent -(rank) - (dimension) + (total insertion
degree).  Point-type loci take the lam-free part, loci isomorphic to the
four-pointed moduli curve take the lam-coefficient.  The sum is a constant
rational function of the torus characters, so the default strategy
evaluates it at several seeded generic integer tuples and insists the
values agree.  ``table`` does so for many class tuples of one (n, k) at
once: per sample, each graph's Euler data, weights and h_0 .. h_cmax are
evaluated once and only the ev pullback and the codegree differ between
tuples; ``invariant`` is its one-tuple case.  The symbolic strategy (three or fewer characters) builds the
sum as one numerator over the shared denominator and checks that the
quotient is a constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, InconsistencyError, ResampleSignal, UnsupportedError
from .exact import Poly, complete_homogeneous
from .graphs import FixedGraph, enumerate_graphs, euler_data, ev_exponents, ev_pullback, geometry
from .point import Invariant

DEFAULT_SEED = 1729
SAMPLE_RANGE = 1000

LamValue = tuple[Fraction, Fraction]  # value a + b*lam with lam^2 = 0


@dataclass(frozen=True)
class LocalizationJob:
    n: int
    k: int
    classes: tuple[int, ...]
    d: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.k not in (1, 2, 3):
            raise UnsupportedError("localization implemented for k in {1, 2, 3}")
        if self.d != 1:
            raise UnsupportedError("localization implemented for degree 1")
        if len(self.classes) != self.k:
            raise DomainError(f"expected {self.k} classes")
        for a in self.classes:
            if not 0 <= a <= self.n:
                raise DomainError(f"class exponent {a} outside [0, {self.n}]")

    @property
    def d_kd(self) -> int:
        return self.n + self.d * (self.n + 1) + self.k - 3

    @property
    def r_kd(self) -> int:
        return self.d * (self.n + 1) + self.k - 2

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


def _lam_mul(x: LamValue, y: LamValue) -> LamValue:
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])


def _h_values(c: int, weights: Sequence[LamValue]) -> list[LamValue]:
    """h_0 .. h_c of numeric weights in the ring Q[lam]/(lam^2)."""
    h: list[LamValue] = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * c
    for w in weights:
        for j in range(1, c + 1):
            prod = _lam_mul(w, h[j - 1])
            h[j] = (h[j][0] + prod[0], h[j][1] + prod[1])
    return h


def _integrand_part(g: FixedGraph, c: int, lam_free, lam_coeff):
    """Signed part of h_c * ev * e^-1 = lam_free + lam * lam_coeff that the locus integrates.

    The sign is (-1)^c; an m04 locus takes the lam coefficient, a point
    locus the lam-free part, and lam must not survive on a point locus.
    Works on numbers and on polynomials alike.
    """
    if c % 2:
        lam_free, lam_coeff = -lam_free, -lam_coeff
    if geometry(g).moduli_kind == "m04":
        return lam_coeff
    if lam_coeff:
        raise InconsistencyError(f"lam survived on the point-type locus {g.label()}")
    return lam_free


def graph_contribution(
    g: FixedGraph, jobs: Sequence[LocalizationJob], tau: Sequence[Fraction]
) -> list[Fraction]:
    """Exact value of one graph's summand at the given character tuple, one per job.

    The Euler data, the odd weights and h_0 .. h_cmax are evaluated once;
    each job adds only its ev pullback and picks h at its codegree.
    """
    if any(job.n != g.n or job.k != g.k for job in jobs):
        raise DomainError("graph and job disagree on (n, k)")
    taus = [Fraction(t) for t in tau]
    data = euler_data(g)
    den = Fraction(data.den_sign)
    for (i, j), mult in data.den_factors:
        den *= (taus[i] - taus[j]) ** mult
    if den == 0:
        raise ResampleSignal(f"denominator of {g.label()} vanishes at {taus}")
    et: LamValue = (
        data.num_lambda_free.eval(taus, 0) / den,
        data.num_lambda_coeff.eval(taus, 0) / den,
    )

    weights: list[LamValue] = [(w.eval_tau(taus), w.lam) for w in data.susy_weights]
    h = _h_values(max((job.c for job in jobs), default=0), weights)
    parts: dict[int, Fraction] = {}
    values = []
    for job in jobs:
        if job.c not in parts:
            parts[job.c] = _integrand_part(g, job.c, *_lam_mul(h[job.c], et))
        at_a, at_b = ev_exponents(g, job.classes)
        values.append(taus[g.a] ** at_a * taus[g.b] ** at_b * parts[job.c])
    return values


def _symbolic_sum(graphs: Sequence[FixedGraph], job: LocalizationJob) -> tuple[Poly, Poly]:
    """Exact sum as (numerator, shared denominator).

    Every graph denominator divides prod_{i<j} (tau_i - tau_j)^k, so the
    sum is accumulated as one numerator over that fixed product; this
    avoids the degree blow-up of pairwise cross-multiplication.
    """
    num_tau = job.n + 1
    pairs = list(combinations(range(num_tau), 2))
    shared = Poly.one(num_tau)
    diffs = {pair: Poly.tau(num_tau, pair[0]) - Poly.tau(num_tau, pair[1]) for pair in pairs}
    for pair in pairs:
        shared = shared * diffs[pair] ** job.k

    total = Poly.zero(num_tau)
    for g in graphs:
        data = euler_data(g)
        mults = dict(data.den_factors)
        cofactor = Poly.const(num_tau, data.den_sign)
        for pair in pairs:
            cofactor = cofactor * diffs[pair] ** (job.k - mults.get(pair, 0))
        numerator = data.num_lambda_free + Poly.lam(num_tau) * data.num_lambda_coeff
        integrand = complete_homogeneous(job.c, data.susy_weights, num_tau)
        integrand = integrand * ev_pullback(g, job.classes) * numerator * cofactor
        total = total + _integrand_part(g, job.c, *integrand.lambda_parts())
    return total, shared


def sample_tau(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """n + 1 distinct integer characters in [-R, R], R = max(SAMPLE_RANGE, n)."""
    bound = max(SAMPLE_RANGE, n)
    return tuple(Fraction(v) for v in rng.sample(range(-bound, bound + 1), n + 1))


def _evaluate_once(
    graphs: Sequence[FixedGraph], jobs: Sequence[LocalizationJob], tau
) -> list[list[Fraction]]:
    """Per-graph contributions at one character tuple: one row per graph, one column per job."""
    return [graph_contribution(g, jobs, tau) for g in graphs]


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
    values of each tuple must agree exactly across its samples.  Tuples
    with negative codegree are zero and take no part in the sweep.
    ``trace``, if given, maps class tuples to lists that receive one
    record per sample: its characters, its value and the per-graph
    contributions.  The result maps each distinct tuple, in first-seen
    order, to its invariant.
    """
    jobs: dict[tuple[int, ...], LocalizationJob] = {}
    for classes in map(tuple, class_tuples):
        if classes not in jobs:
            jobs[classes] = LocalizationJob(n=n, k=k, classes=classes)
    result = {classes: Invariant.zero() for classes in jobs}
    live = [job for job in jobs.values() if not job.graded_zero]
    if not live:
        return result
    if samples < 2:
        raise DomainError("evaluate strategy needs at least 2 samples")
    graphs = enumerate_graphs(n, k)
    rng = random.Random(seed)
    values: list[list[Fraction]] = [[] for _ in live]
    for _ in range(samples):
        # Denominators are products of tau_i - tau_j and the characters are
        # distinct, so no sample hits a pole.
        tau = sample_tau(rng, n)
        rows = _evaluate_once(graphs, live, tau)
        for job, column, job_values in zip(live, zip(*rows), values):
            value = sum(column, Fraction(0))
            job_values.append(value)
            if trace is not None and job.classes in trace:
                trace[job.classes].append({
                    "tau": [str(t) for t in tau],
                    "value": str(value),
                    "per_graph": [{"graph": g.label(), "value": str(v)} for g, v in zip(graphs, column)],
                })
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
    agree: the one-tuple case of ``table``) or "symbolic" (one numerator
    over the shared denominator, n <= 2).  ``trace``, if given, receives
    one record per sample: its characters, its value and the per-graph
    contributions.
    """
    classes = tuple(classes)
    if strategy == "evaluate":
        traces = None if trace is None else {classes: trace}
        return table(n, k, [classes], samples=samples, seed=seed, trace=traces)[classes]
    job = LocalizationJob(n=n, k=k, classes=classes)
    if job.graded_zero:
        return Invariant.zero()
    if strategy != "symbolic":
        raise DomainError(f"unknown strategy {strategy!r}")
    if n > 2:
        raise DomainError("symbolic strategy supported for n <= 2")
    total, shared = _symbolic_sum(enumerate_graphs(n, k), job)
    constant = total.leading_coeff() / shared.leading_coeff() if total else Fraction(0)
    if total != shared.scale(constant):
        raise InconsistencyError(f"symbolic sum is not constant: ({total}) / ({shared})")
    return Invariant.of(constant, job.kappa_exp)


def check_extension(n: int, k: int, classes: Sequence[int], seed: int = DEFAULT_SEED) -> bool:
    """Codegree-zero three-point values must be exactly kappa^-(n+2)."""
    job = LocalizationJob(n=n, k=k, classes=tuple(classes))
    if k != 3:
        raise DomainError("extension check applies to three-point invariants")
    if job.c != 0:
        raise DomainError("extension check needs codegree zero")
    result = invariant(n, k, classes, seed=seed)
    return result == Invariant.of(1, -job.r_kd)
