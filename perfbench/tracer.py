"""Per-layer tracing of the sgw library from outside it.

``install`` replaces each traced function in every ``sgw`` module namespace
that binds it, since the modules import each other's functions by name
(``sgw.localize.euler_data`` is the object ``graphs.euler_data`` was at
import time).  Nothing under ``src/`` changes.  A wrapper either records a
span (name, start, end, parent) and its time, or only counts.

A span's self time is its duration minus the time of the timed calls made
inside it.  Timed leaf calls (``Poly.__mul__``, ``Poly.eval``,
``ev_pullback``) are not kept as spans, which bounds the memory spans take,
but their time is still taken out of their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from sgw import exact, graphs, localize, point, quantum, taut
from sgw.errors import ResampleSignal

PER_LAYER = (
    "graphs.euler_data.calls",
    "graphs.euler_data.misses",
    "graphs.euler_data.hit_ratio",
    "graphs.euler_data.miss_s",
    "exact.poly_mul.calls",
    "exact.poly_mul.terms_out",
    "exact.poly_mul.s",
    "exact.poly_eval.calls",
    "exact.poly_eval.s",
    "exact.complete_homogeneous.s",
    "localize.invariant.calls",
    "localize.invariant.distinct_ratio",
    "localize.invariant.s",
    "localize.graph_contribution.calls",
    "localize.graph_contribution.self_s",
    "localize.h_multiply_adds",
    "localize.samples_drawn",
    "localize.resamples",
    "localize.symbolic.s",
    "quantum.structure_table.s",
    "quantum.star.calls",
    "quantum.star.s",
    "taut.pushforward_step.calls",
    "taut.pushforward_step.terms_in",
    "taut.pushforward_step.s",
    "point.integrate_calls",
    "point.sgw_point.s",
    "cli.self_s",
)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[tuple] = []  # (id, name, start, end, parent id), times from origin
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.invariant_keys: set = set()
        self._ids = itertools.count()
        self._stack: list[list] = []  # [time of timed children, id of the innermost span]

    def timed(self, name: str, fn, spanned: bool = True, before=None, after=None):
        """Wrap ``fn``: time each call; ``before(*args)`` feeds ``after``."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            parent = stack[-1][1] if stack else None
            sid = next(self._ids) if spanned else parent
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.own[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if spanned:
                    self.spans.append((sid, name, start - self.origin, end - self.origin, parent))
            if after:
                after(token, result, duration)
            return result

        return traced

    def counted(self, fn, count):
        """Wrap ``fn`` so ``count(*args)`` runs first; no time is taken."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            count(*args, **kwargs)
            return fn(*args, **kwargs)

        return counting

    def metrics(self) -> dict:
        calls, total, own, counts = self.calls, self.total, self.own, self.counts
        euler_calls = calls["graphs.euler_data"]
        misses = int(counts["graphs.euler_data.misses"])
        invariant_calls = calls["localize.invariant"]
        values = {
            "graphs.euler_data.calls": euler_calls,
            "graphs.euler_data.misses": misses,
            "graphs.euler_data.hit_ratio": (euler_calls - misses) / euler_calls if euler_calls else 0.0,
            "graphs.euler_data.miss_s": counts["graphs.euler_data.miss_s"],
            "exact.poly_mul.calls": calls["exact.poly_mul"],
            "exact.poly_mul.terms_out": int(counts["exact.poly_mul.terms_out"]),
            "exact.poly_mul.s": total["exact.poly_mul"],
            "exact.poly_eval.calls": calls["exact.poly_eval"],
            "exact.poly_eval.s": total["exact.poly_eval"],
            "exact.complete_homogeneous.s": total["exact.complete_homogeneous"],
            "localize.invariant.calls": invariant_calls,
            "localize.invariant.distinct_ratio": (
                len(self.invariant_keys) / invariant_calls if invariant_calls else 0.0
            ),
            "localize.invariant.s": total["localize.invariant"],
            "localize.graph_contribution.calls": calls["localize.graph_contribution"],
            "localize.graph_contribution.self_s": own["localize.graph_contribution"],
            "localize.h_multiply_adds": int(counts["localize.h_multiply_adds"]),
            "localize.samples_drawn": int(counts["localize.samples_drawn"]),
            "localize.resamples": int(counts["localize.resamples"]),
            "localize.symbolic.s": total["localize.symbolic"],
            "quantum.structure_table.s": total["quantum.structure_table"],
            "quantum.star.calls": calls["quantum.star"],
            "quantum.star.s": total["quantum.star"],
            "taut.pushforward_step.calls": calls["taut.pushforward_step"],
            "taut.pushforward_step.terms_in": int(counts["taut.pushforward_step.terms_in"]),
            "taut.pushforward_step.s": total["taut.pushforward_step"],
            "point.integrate_calls": int(counts["point.integrate_calls"]),
            "point.sgw_point.s": total["point.sgw_point"],
            "cli.self_s": own["cli"],
        }
        assert tuple(values) == PER_LAYER
        return values

    def self_times(self) -> dict:
        """{name: [calls, total seconds, self seconds]} of every timed name."""
        return {name: [self.calls[name], self.total[name], self.own[name]] for name in sorted(self.calls)}

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")


def _rebind(orig, replacement, extra_modules=()) -> None:
    """Point every binding of ``orig`` in the sgw modules at ``replacement``."""
    modules = [m for name, m in sys.modules.items() if name == "sgw" or name.startswith("sgw.")]
    for module in modules + list(extra_modules):
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def install(bench, clock=perf_counter) -> Tracer:
    """Trace the sgw layers and the CLI entry ``bench.run_cli``; returns the tracer."""
    t = Tracer(clock)
    counts = t.counts

    def add(name, amount=1):
        counts[name] += amount

    # graphs: a miss is a call that grew the lru cache's miss count
    euler = graphs.euler_data

    def euler_after(misses_before, result, duration):
        if euler.cache_info().misses != misses_before:
            add("graphs.euler_data.misses")
            add("graphs.euler_data.miss_s", duration)

    traced_euler = t.timed(
        "graphs.euler_data", euler, before=lambda g: euler.cache_info().misses, after=euler_after
    )
    traced_euler.cache_clear = euler.cache_clear
    traced_euler.cache_info = euler.cache_info
    _rebind(euler, traced_euler)
    _rebind(graphs.ev_pullback, t.timed("graphs.ev_pullback", graphs.ev_pullback, spanned=False))

    # exact
    exact.Poly.__mul__ = t.timed(
        "exact.poly_mul",
        exact.Poly.__mul__,
        spanned=False,
        after=lambda _, result, __: add("exact.poly_mul.terms_out", len(result.terms)),
    )
    exact.Poly.eval = t.timed("exact.poly_eval", exact.Poly.eval, spanned=False)
    homogeneous = exact.complete_homogeneous
    _rebind(homogeneous, t.timed("exact.complete_homogeneous", homogeneous))

    # localize
    signature = inspect.signature(localize.invariant)

    def invariant_key(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        t.invariant_keys.add((a["n"], a["k"], tuple(a["classes"]), a["strategy"], a["samples"], a["seed"]))

    _rebind(localize.invariant, t.timed("localize.invariant", localize.invariant, before=invariant_key))
    _rebind(localize.graph_contribution, t.timed("localize.graph_contribution", localize.graph_contribution))
    _rebind(localize._symbolic_sum, t.timed("localize.symbolic", localize._symbolic_sum))
    _rebind(
        localize._h_values,
        t.counted(localize._h_values, lambda c, weights: add("localize.h_multiply_adds", c * len(weights))),
    )
    _rebind(localize.sample_tau, t.counted(localize.sample_tau, lambda *_: add("localize.samples_drawn")))
    evaluate_once = localize._evaluate_once

    @functools.wraps(evaluate_once)
    def counting_resamples(*args, **kwargs):
        try:
            return evaluate_once(*args, **kwargs)
        except ResampleSignal:
            add("localize.resamples")
            raise

    _rebind(evaluate_once, counting_resamples)

    # quantum
    _rebind(quantum.structure_table, t.timed("quantum.structure_table", quantum.structure_table))
    _rebind(quantum.star, t.timed("quantum.star", quantum.star))

    # taut and point: calls from point_sum are the ones through sgw.point's binding
    integrate = taut.integrate_monomial
    point.integrate_monomial = t.timed(
        "taut.integrate_monomial", integrate, before=lambda *_: add("point.integrate_calls")
    )
    _rebind(integrate, t.timed("taut.integrate_monomial", integrate))
    _rebind(
        taut.pushforward_step,
        t.timed(
            "taut.pushforward_step",
            taut.pushforward_step,
            before=lambda expr: add("taut.pushforward_step.terms_in", len(expr._terms)),
        ),
    )
    _rebind(point.sgw_point, t.timed("point.sgw_point", point.sgw_point))

    # cli: the in-process command, whose self time excludes the library spans
    _rebind(bench.run_cli, t.timed("cli", bench.run_cli), extra_modules=[bench])
    return t
