"""Command-line interface.

Exit codes: 0 on success, 2 on usage or domain errors, 3 when an internal
consistency check fails (evaluations disagreeing across samples - an
implementation-bug signal, never a mathematical zero).  With
``--format json`` every command emits one self-describing record per line;
given the same seed the bytes are identical between runs.  Each option is
declared once: a size's ceiling is its ``click.IntRange``, and ``--seed``
falls back to an environment variable, so click refuses a size above its
ceiling or a non-integer seed while parsing, before any work starts.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import click

from . import localize, point, quantum, tables, taut
from .errors import DomainError, InconsistencyError
from .point import Invariant

# Measured on a shared 2-core Xeon as whole processes: point --k 24 takes
# 0.16-0.30 s (median 0.17-0.19 s) and grows about 1.5x per k; taut --k 24
# takes 0.10-0.18 s, nearly all of it start-up, and shares the point ceiling;
# invariant --n 20 --k 3 takes 0.22-0.29 s and quantum --n 10 0.17-0.25 s, and
# quantum grows about n^4.  A larger value is refused up front instead of
# running for hours or running out of memory.
MAX_POINT_K = point.MAX_K
MAX_N = 20
MAX_QUANTUM_N = 10
MAX_SAMPLES = 100


class _Capped(click.IntRange):
    name = "integer"  # a non-integer reads "is not a valid integer", as with type=int


_FORMAT = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
_SEED = click.option(
    "--seed", type=int, envvar="SGW_SEED", default=localize.DEFAULT_SEED, show_default=True, show_envvar=True,
    help="Random seed.",
)


def _emit_json(record: dict) -> None:
    click.echo(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _record(command: str, inputs: dict, result: Invariant, diagnostics: dict | None = None) -> dict:
    record: dict = {"command": command, "inputs": inputs}
    record.update(result.to_json())
    record["diagnostics"] = diagnostics or {}
    return record


def _parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise click.UsageError(f"{what} must be a comma-separated integer list, got {raw!r}") from exc


@contextmanager
def _one_line_errors(ctx):
    try:
        yield
    except click.UsageError as exc:
        click.echo(f"Error: {exc.format_message()}", err=True)
        ctx.exit(2)
    except DomainError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(2)
    except InconsistencyError as exc:
        click.echo(f"internal inconsistency: {exc}", err=True)
        ctx.exit(3)


class _OneLineErrors(click.Group):
    """The one error boundary: every error becomes one stderr line and an exit code.

    A usage error prints ``Error: ...`` without click's usage block, for the
    group's own arguments (``sgw --bogus``) and every subcommand's; a bare
    ``sgw`` still prints the help.  A domain error prints its message and
    exits 2, a failed consistency check exits 3.
    """

    def parse_args(self, ctx, args):
        if not args:
            return super().parse_args(ctx, args)
        with _one_line_errors(ctx):
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _one_line_errors(ctx):
            return super().invoke(ctx)


@click.group(cls=_OneLineErrors)
def main():
    """Exact super Gromov-Witten numbers for a point target and degree-one P^n."""


@main.command("point")
@click.option("--k", "k", type=_Capped(max=MAX_POINT_K), required=True, help="Number of marked points, k >= 3.")
@_FORMAT
def cmd_point(k: int, fmt: str):
    """k-point super Gromov-Witten number of a point."""
    result = point.sgw_point(k)
    if fmt == "json":
        _emit_json(_record("point", {"k": k}, result))
    else:
        click.echo(str(result))


@main.command("invariant")
@click.option("--n", "n", type=_Capped(max=MAX_N), required=True, help="Target dimension, n >= 1.")
@click.option("--k", "k", type=int, required=True, help="Marked points, 1..3.")
@click.option("--classes", required=True, help="Comma-separated hyperplane powers a1,..,ak.")
@click.option("--strategy", type=click.Choice(["evaluate", "symbolic"]), default="evaluate")
@click.option("--samples", type=_Capped(max=MAX_SAMPLES), default=3, show_default=True, help="Character samples, >= 2.")
@_SEED
@click.option("--trace", is_flag=True, help="JSON only: per-graph summands at the first sample or grid point.")
@_FORMAT
def cmd_invariant(n: int, k: int, classes: str, strategy: str, samples: int, seed: int, trace: bool, fmt: str):
    """Degree-one k-point invariant of P^n via localization."""
    class_tuple = _parse_int_list(classes, "--classes")
    options = {"strategy": strategy, "samples": samples, "seed": seed}
    if trace and fmt == "json":  # one sweep, whose first point gives the summands
        result, summands = localize.traced_invariant(n, k, class_tuple, **options)
    else:
        result, summands = localize.invariant(n, k, class_tuple, **options), []
    if fmt != "json":
        click.echo(str(result))
        return
    diagnostics: dict = {"strategy": strategy, "seed": seed}
    if strategy == "evaluate":
        diagnostics["samples"] = samples
        live = not localize.LocalizationJob(n=n, k=k, classes=class_tuple).graded_zero
        taus = localize.sample_taus(n, samples, seed) if live else []
        diagnostics["tau_samples"] = [[str(t) for t in tau] for tau in taus]
    if summands:  # a graded-zero tuple has none
        diagnostics["per_graph"] = [{"graph": g.label(), "value": str(value)} for g, value in summands]
    _emit_json(_record("invariant", {"n": n, "k": k, "d": 1, "classes": list(class_tuple)}, result, diagnostics))


@main.command("taut")
@click.option("--k", "k", type=_Capped(max=MAX_POINT_K), required=True, help="Points on the moduli space, k >= 3.")
@click.option("--exps", default="", help="Comma-separated exponents i4,..,ik (empty for k=3).")
@_FORMAT
def cmd_taut(k: int, exps: str, fmt: str):
    """Integrate a pullback psi-class monomial over the k-pointed moduli space."""
    exponents = _parse_int_list(exps, "--exps")
    value = taut.integrate_monomial(k, exponents)
    if fmt == "json":
        _emit_json({"command": "taut", "inputs": {"k": k, "exps": list(exponents)}, "value": str(value)})
    else:
        click.echo(str(value))


@main.command("quantum")
@click.option("--n", "n", type=_Capped(max=MAX_QUANTUM_N), required=True, help="Target dimension, n >= 1.")
@_SEED
@_FORMAT
def cmd_quantum(n: int, seed: int, fmt: str):
    """Structure table and first-order quantum products of hyperplane powers."""
    table = quantum.structure_table(n, seed=seed)
    if fmt == "json":
        for (a, b), entries in sorted(table.items()):
            for c, inv in entries:
                record = {"command": "quantum", "inputs": {"n": n, "a": a, "b": b, "c": c}}
                record.update(inv.to_json())
                _emit_json(record)
        return
    click.echo(f"# degree-one three-point invariants <L^a, L^b, L^c> for P^{n}")
    rows = {ab: [(c, str(inv)) for c, inv in entries] for ab, entries in sorted(table.items())}
    width = max(len(text) for cells in rows.values() for _, text in cells)
    for (a, b), cells in rows.items():
        click.echo(f"a={a} b={b}  " + "  ".join(f"c={c}: {text:<{width}}" for c, text in cells))
    click.echo(f"# products L^a * L^b modulo q^2 for P^{n}")
    for a in range(n + 1):
        for b in range(a, n + 1):
            product = quantum.star(n, quantum.QElement.basis(n, a), quantum.QElement.basis(n, b), seed=seed)
            click.echo(f"L^{a} * L^{b} = {product}")


def _compare_line(label: str, got, entry) -> tuple[str, str]:
    printed = entry.printed
    if entry.status == tables.SUSPECT:
        return (
            "SKIP",
            f"{label}: printed {printed} suspect ({entry.note}); recomputed {got}",
        )
    if got == printed:
        return ("PASS", f"{label}: computed {got}, printed {printed}")
    note = f" ({entry.note})" if entry.note else ""
    return ("FAIL", f"{label}: computed {got}, printed {printed}{note}")


def _reproduce_lines(seed: int):
    lines: list[tuple[str, str]] = []
    for te in tables.TAUT_ENTRIES:
        got = taut.integrate_monomial(te.k, te.exps)
        status = "PASS" if got == te.value else "FAIL"
        lines.append((status, f"taut k={te.k} exps={list(te.exps)}: computed {got}, printed {te.value}"))
    for pe in tables.POINT_ENTRIES:
        got = point.sgw_point(pe.k)
        lines.append(_compare_line(f"point k={pe.k}", got, pe))
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for entry in tables.ALL_INVARIANT_ENTRIES:
        groups.setdefault((entry.n, entry.k), []).append(entry.classes)
    values = {(n, k): localize.table(n, k, classes, seed=seed) for (n, k), classes in groups.items()}
    for entry in tables.ALL_INVARIANT_ENTRIES:
        got = values[(entry.n, entry.k)][entry.classes]
        lines.append(_compare_line(entry.label, got, entry))
    product = quantum.star(1, quantum.QElement.basis(1, 1), quantum.QElement.basis(1, 1), seed=seed)
    expected = quantum.QElement(1, {(0, 1): {0: Fraction(1)}})
    status = "PASS" if product == expected else "FAIL"
    lines.append((status, f"quantum n=1: L^1 * L^1 = {product}, expected q"))
    return lines


@main.command("reproduce-paper")
@_SEED
def cmd_reproduce_paper(seed: int):
    """Recompute every published reference value and report PASS/FAIL/SKIP."""
    lines = _reproduce_lines(seed)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for status, message in lines:
        counts[status] += 1
        click.echo(f"{status}  {message}")
    click.echo(f"summary: {counts['PASS']} pass, {counts['FAIL']} fail, {counts['SKIP']} skip")
    if counts["FAIL"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
