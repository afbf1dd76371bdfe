"""Command-line interface.

Exit codes: 0 on success, 1 when reproduce-paper prints a FAIL, 2 on usage or domain errors, 3 when an internal
consistency check fails (evaluations disagreeing across samples - an implementation-bug signal, never a
mathematical zero).  ``--format json`` emits one self-describing record per line, byte-identical between runs
with the same seed.  Each option is declared once, in ``COMMANDS``; one loop parses a command line against it
and refuses, in click's words, a size above its ceiling or a non-integer seed before any work starts.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from . import localize, point, quantum, tables, taut
from .errors import DomainError, InconsistencyError
from .point import Invariant

# Each ceiling keeps a whole process at the ceiling within a fraction of a second (README lists the
# timings): point --k grows about 1.5x per k, quantum --n about n^4, and taut --k shares point's ceiling.
# A larger value is refused up front instead of running for hours or out of memory.
MAX_POINT_K = point.MAX_K
MAX_N = 20
MAX_QUANTUM_N = 10
MAX_SAMPLES = 100


class UsageError(Exception):
    """A malformed command line: one ``Error: ...`` line on stderr and exit 2."""


_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # what json.dumps builds per call


def _record(command: str, inputs: dict, result: Invariant, diagnostics: dict | None = None) -> str:
    return _json({"command": command, "inputs": inputs} | result.to_json() | {"diagnostics": diagnostics or {}})


def _parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    raw = raw.strip()
    try:
        return tuple(int(part) for part in raw.split(",")) if raw else ()
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list, got {raw!r}") from exc


def cmd_point(k: int, format: str) -> list[str]:
    """k-point super Gromov-Witten number of a point."""
    result = point.sgw_point(k)
    return [_record("point", {"k": k}, result) if format == "json" else str(result)]


def cmd_invariant(n: int, k: int, classes: str, strategy: str, samples: int, seed: int, trace: bool, format: str):
    """Degree-one k-point invariant of P^n via localization."""
    class_tuple = _parse_int_list(classes, "--classes")
    options = {"strategy": strategy, "samples": samples, "seed": seed}
    if trace and format == "json":  # one sweep, whose first point gives the summands
        result, summands = localize.traced_invariant(n, k, class_tuple, **options)
    else:
        result, summands = localize.invariant(n, k, class_tuple, **options), []
    if format != "json":
        return [str(result)]
    diagnostics: dict = {"strategy": strategy, "seed": seed}
    if strategy == "evaluate":
        diagnostics["samples"] = samples
        live = not localize.LocalizationJob(n=n, k=k, classes=class_tuple).graded_zero
        taus = localize.sample_taus(n, samples, seed) if live else []
        diagnostics["tau_samples"] = [[str(t) for t in tau] for tau in taus]
    if summands:  # a graded-zero tuple has none
        diagnostics["per_graph"] = [{"graph": g.label(), "value": str(value)} for g, value in summands]
    return [_record("invariant", {"n": n, "k": k, "d": 1, "classes": list(class_tuple)}, result, diagnostics)]


def cmd_taut(k: int, exps: str, format: str) -> list[str]:
    """Integrate a pullback psi-class monomial over the k-pointed moduli space."""
    exponents = _parse_int_list(exps, "--exps")
    value = taut.integrate_monomial(k, exponents)
    record = {"command": "taut", "inputs": {"k": k, "exps": list(exponents)}, "value": str(value)}
    return [_json(record) if format == "json" else str(value)]


def cmd_quantum(n: int, seed: int, format: str) -> list[str]:
    """Structure table and first-order quantum products of hyperplane powers."""
    table = quantum.structure_table(n, seed=seed)
    if format == "json":
        return [_json({"command": "quantum", "inputs": {"n": n, "a": a, "b": b, "c": c}} | inv.to_json())
                for (a, b), entries in sorted(table.items()) for c, inv in entries]
    lines = [f"# degree-one three-point invariants <L^a, L^b, L^c> for P^{n}"]
    rows = {ab: [(c, str(inv)) for c, inv in entries] for ab, entries in sorted(table.items())}
    width = max(len(text) for cells in rows.values() for _, text in cells)
    for (a, b), cells in rows.items():
        lines.append(f"a={a} b={b}  " + "  ".join(f"c={c}: {text:<{width}}" for c, text in cells))
    lines.append(f"# products L^a * L^b modulo q^2 for P^{n}")
    for a in range(n + 1):
        for b in range(a, n + 1):
            product = quantum.star(n, quantum.QElement.basis(n, a), quantum.QElement.basis(n, b), seed=seed)
            lines.append(f"L^{a} * L^{b} = {product}")
    return lines


def cmd_reproduce_paper(seed: int) -> tuple[list[str], int]:
    """Recompute every published reference value and report PASS/FAIL/SKIP."""
    rows = [(f"taut k={e.k} exps={list(e.exps)}", taut.integrate_monomial(e.k, e.exps), e.value, "", "")
            for e in tables.TAUT_ENTRIES]  # (label, computed, printed, status, note)
    rows += [(f"point k={e.k}", point.sgw_point(e.k), e.printed, e.status, e.note) for e in tables.POINT_ENTRIES]
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for e in tables.ALL_INVARIANT_ENTRIES:
        groups.setdefault((e.n, e.k), []).append(e.classes)
    values = {(n, k): localize.table(n, k, classes, seed=seed) for (n, k), classes in groups.items()}
    rows += [(e.label, values[e.n, e.k][e.classes], e.printed, e.status, e.note) for e in tables.ALL_INVARIANT_ENTRIES]
    lines = [
        f"SKIP  {label}: printed {printed} suspect ({note}); recomputed {got}" if status == tables.SUSPECT
        else f"PASS  {label}: computed {got}, printed {printed}" if got == printed
        else f"FAIL  {label}: computed {got}, printed {printed}" + (f" ({note})" if note else "")
        for label, got, printed, status, note in rows
    ]
    product = quantum.star(1, quantum.QElement.basis(1, 1), quantum.QElement.basis(1, 1), seed=seed)
    status = "PASS" if product == quantum.QElement(1, {(0, 1): {0: Fraction(1)}}) else "FAIL"
    lines.append(f"{status}  quantum n=1: L^1 * L^1 = {product}, expected q")
    counts = [sum(line.startswith(status) for line in lines) for status in ("PASS", "FAIL", "SKIP")]
    return lines + ["summary: {} pass, {} fail, {} skip".format(*counts)], 1 if counts[1] else 0


# An option is (name, converter, ceiling, default, environment variable, help): the converter is int, str,
# bool for a flag or a tuple of choices, and a default of None marks a required option.  Each command takes
# its options by name (--format as ``format``) and returns its lines, reproduce-paper with its exit code.
_SEED = ("--seed", int, None, localize.DEFAULT_SEED, "SGW_SEED", "Random seed.")
_FORMAT = ("--format", ("text", "json"), None, "text", None, "")
_HELP = ("--help", bool, None, False, None, "Show this message and exit.")
COMMANDS = {
    "point": (cmd_point, [("--k", int, MAX_POINT_K, None, None, "Number of marked points, k >= 3."), _FORMAT]),
    "invariant": (cmd_invariant, [
        ("--n", int, MAX_N, None, None, "Target dimension, n >= 1."),
        ("--k", int, None, None, None, "Marked points, 1..3."),
        ("--classes", str, None, None, None, "Comma-separated hyperplane powers a1,..,ak."),
        ("--strategy", ("evaluate", "symbolic"), None, "evaluate", None, ""),
        ("--samples", int, MAX_SAMPLES, 3, None, "Character samples, >= 2."),
        _SEED,
        ("--trace", bool, None, False, None, "JSON only: per-graph summands at the first sample or grid point."),
        _FORMAT,
    ]),
    "taut": (cmd_taut, [
        ("--k", int, MAX_POINT_K, None, None, "Points on the moduli space, k >= 3."),
        ("--exps", str, None, "", None, "Comma-separated exponents i4,..,ik (empty for k=3)."),
        _FORMAT,
    ]),
    "quantum": (cmd_quantum, [("--n", int, MAX_QUANTUM_N, None, None, "Target dimension, n >= 1."), _SEED, _FORMAT]),
    "reproduce-paper": (cmd_reproduce_paper, [_SEED]),
}


def _no_such(kind: str, name: str, known) -> UsageError:
    from difflib import get_close_matches  # only a refused name pays for the import
    close = sorted(get_close_matches(name, known))
    names = ", ".join(map(repr, close))
    hint = (f" Did you mean {names}?" if len(close) == 1 else f" (Did you mean one of: {names}?)") if close else ""
    return UsageError(f"No such {kind} {name!r}.{hint}")


def _parse(args: list[str], options: list, interspersed: bool = True) -> tuple[dict | None, list[str]]:
    """Each option's value by name (None for --help) and the positional arguments, in click's words and order:
    all arguments are read, then the given options checked as first given and the rest as declared."""
    known = {option[0]: option for option in options + [_HELP]}
    given, rest, args = {}, [], iter(args)
    for arg in args:
        if arg == "--":
            rest += args
        elif arg[:1] != "-" or arg == "-":
            rest += [arg] if interspersed else [arg, *args]  # a group's options end at its command
        elif arg[:2] != "--":
            raise UsageError(f"No such option {arg[:2]!r}.")
        else:
            name, eq, value = arg.partition("=")
            if name not in known:
                raise _no_such("option", name, known)
            flag = known[name][1] is bool
            if flag and eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            if not flag and not eq and (value := next(args, None)) is None:
                raise UsageError(f"Option {name!r} requires an argument.")
            given[name] = True if flag else value
    if "--help" in given:
        return None, rest
    values = {}
    for option in [known[name] for name in given] + [option for option in options if option[0] not in given]:
        name, convert, ceiling, default, envvar, _ = option
        raw = given.get(name)
        if raw is None and envvar:
            raw = os.environ.get(envvar) or None  # an empty variable counts as unset
        if raw is None and default is None:
            raise UsageError(f"Missing option {name!r}.")
        raw = default if raw is None else raw
        where = f"{name!r}" + (f" (env var: {envvar!r})" if envvar else "")
        if convert is int:
            try:
                raw = int(raw)
            except ValueError:
                raise UsageError(f"Invalid value for {where}: {raw!r} is not a valid integer.") from None
            if ceiling is not None and raw > ceiling:
                raise UsageError(f"Invalid value for {where}: {raw} is not in the range x<={ceiling}.")
        if type(convert) is tuple and raw not in convert:
            raise UsageError(f"Invalid value for {where}: {raw!r} is not one of {', '.join(map(repr, convert))}.")
        values[name[2:]] = raw
    return values, rest


def _help(prog: str, name: str | None = None) -> str:
    """The usage, summary and options of the group, or of command ``name``, rendered from ``COMMANDS``."""
    function, options = COMMANDS[name] if name else (main, [])
    rows = []
    for option, kind, ceiling, default, envvar, text in options + [_HELP]:
        metavar = f" [{'|'.join(kind)}]" if type(kind) is tuple else {int: " INTEGER", str: " TEXT", bool: ""}[kind]
        notes = [f"env var: {envvar}"] * bool(envvar) + [f"default: {default}"] * (default not in (None, False, ""))
        notes += [f"x<={ceiling}"] * (ceiling is not None) + ["required"] * (default is None)
        rows.append((option + metavar, f"{text}  [{'; '.join(notes)}]".strip() if notes else text))
    commands = [] if name else [(command, COMMANDS[command][0].__doc__) for command in sorted(COMMANDS)]
    text = f"Usage: {prog} {f'{name} [OPTIONS]' if name else '[OPTIONS] COMMAND [ARGS]...'}\n\n  {function.__doc__}\n"
    for title, rows in [("Options", rows), ("Commands", commands)][: 1 if name else 2]:
        width = max(len(label) for label, _ in rows)
        text += f"\n{title}:\n" + "".join(f"  {label:<{width}}  {note}".rstrip() + "\n" for label, note in rows)
    return text


def _run(args: list[str], prog: str) -> int:
    """Run one command line and return its exit code; each error is one stderr line."""
    try:
        values, rest = _parse(args, [], interspersed=False)
        if values is not None and rest and rest[0] not in COMMANDS:  # as click, read an unknown name as an option
            values, _ = _parse(rest, [], interspersed=False)
        if not args or values is None:  # a bare ``sgw`` is a usage error that shows the help
            (sys.stdout if args else sys.stderr).write(_help(prog))
            return 0 if args else 2
        if not rest or rest[0] not in COMMANDS:
            raise _no_such("command", rest[0], COMMANDS) if rest else UsageError("Missing command.")
        function, options = COMMANDS[rest[0]]
        values, extra = _parse(rest[1:], options)
        if values is None:
            sys.stdout.write(_help(prog, rest[0]))
            return 0
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
        lines, code = out if isinstance(out := function(**values), tuple) else (out, 0)
        sys.stdout.write("".join(line + "\n" for line in lines))
        return code
    except (UsageError, DomainError, InconsistencyError) as exc:
        prefix = {UsageError: "Error: ", InconsistencyError: "internal inconsistency: "}.get(type(exc), "")
        sys.stderr.write(f"{prefix}{exc}\n")
        return 3 if isinstance(exc, InconsistencyError) else 2


def main(args=None, prog_name: str = "sgw") -> None:
    """Exact super Gromov-Witten numbers for a point target and degree-one P^n."""
    sys.exit(_run(sys.argv[1:] if args is None else list(args), prog_name))


# click.testing.CliRunner.invoke(main, argv) reads main.name and calls main.main(args=..., prog_name=...).
main.name = "sgw"
main.main = main

if __name__ == "__main__":
    main()
