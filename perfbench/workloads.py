"""The four sgw workloads: inputs made from a seed, the calls, and their checks.

Each workload has three parts:

* ``inputs(seed)`` builds everything the calls need from the workload seed;
* ``run(inputs)`` makes the library or CLI calls and is the only timed part.
  A call that raises leaves its exception in the outputs, so one failure
  never stops the rest of the workload;
* ``check(inputs, outputs, pins, checks)`` compares every computed value
  with something other than the same run: the pinned values in
  ``pinned.json`` and ``golden/``, and independent oracles (the point
  closed form, the grading formula of the kappa exponent, the symbolic
  strategy).

Library functions are always looked up through their module at call time
(``localize.invariant``, never a name bound at import), so the traced run
sees every call once ``tracer.install`` has replaced those attributes.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

import sgw.cli
from sgw import graphs, localize, point, taut

HERE = Path(__file__).resolve().parent
PAPER_SUMMARY = "summary: 106 pass, 5 fail, 5 skip"
PAPER_EXIT_CODE = 1  # reproduce-paper exits 1 because of its five FAIL lines, by design
LARGE_N_CASES = tuple(product((5, 6), (1, 2, 3)))
POINT_KS = tuple(range(3, 13))
SINGLE_MONOMIALS = 201  # drawn evenly over k = 10, 11, 12


# -- checking -------------------------------------------------------------


@dataclass
class Checks:
    """Counts checked values; a failed one is recorded and the run goes on."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def value(self, got, what: str):
        """Unwrap a call's output; an exception counts as one failed value."""
        if isinstance(got, BaseException):
            self.expect(False, f"{what}: {type(got).__name__}: {got}")
            return None
        return got


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded as a failed value by Checks.value
        return exc


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``sgw`` command in this process; returns (exit code, stdout)."""
    result = CliRunner().invoke(sgw.cli.main, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code, result.stdout


def load_pins() -> dict:
    pins = json.loads((HERE / "pinned.json").read_text())
    pins["golden"] = {
        name: (HERE / "golden" / f"{name}.txt").read_text() for name in ("reproduce-paper", "quantum-n3")
    }
    return pins


# -- independent oracles --------------------------------------------------


def grading_exponent(n: int, k: int, classes) -> int:
    """kappa exponent -r - d + deg of a degree-one k-point invariant of P^n."""
    d_kd = n + (n + 1) + k - 3
    r_kd = (n + 1) + k - 2
    return -r_kd - d_kd + sum(classes)


def point_closed_form(k: int) -> tuple[Fraction, int]:
    """(-1)^(k-3) (2k-7)!! / 2^(k-3) * kappa^(5-2k)."""
    double_factorial = 1
    for odd in range(2 * k - 7, 0, -2):
        double_factorial *= odd
    return Fraction((-1) ** (k - 3) * double_factorial, 2 ** (k - 3)), 5 - 2 * k


def invariant_key(n: int, k: int, classes) -> str:
    """Pin key; classes are sorted, so pins also test permutation invariance."""
    return f"{n}/{k}/" + ",".join(str(a) for a in sorted(classes))


def pinned_invariant(pins: dict, n: int, k: int, classes) -> tuple[Fraction, int] | None:
    """Pinned (coeff, kappa exponent); zero off the grading (codegree < 0)."""
    if grading_codegree(n, k, classes) < 0:
        return Fraction(0), 0
    pinned = pins["invariants"].get(invariant_key(n, k, classes))
    return None if pinned is None else parse_value(pinned)


def grading_codegree(n: int, k: int, classes) -> int:
    """Codegree d - deg; a negative one forces the invariant to vanish."""
    return (2 * n + k - 2) - sum(classes)


_VALUE = re.compile(r"^(-?\d+(?:/\d+)?) \* kappa\^(-?\d+)$")


def parse_value(text: str) -> tuple[Fraction, int] | None:
    """Parse the CLI's ``<coeff> * kappa^<e>`` (or ``0``) into (coeff, e)."""
    text = text.strip()
    if text == "0":
        return Fraction(0), 0
    match = _VALUE.match(text)
    return (Fraction(match.group(1)), int(match.group(2))) if match else None


def _expect_graded(checks: Checks, n: int, k: int, classes, parsed, what: str) -> None:
    if parsed is not None and parsed[0] != 0:
        checks.expect(parsed[1] == grading_exponent(n, k, classes), f"{what}: kappa exponent off the grading formula")


def _expect_text(checks: Checks, got: str, golden: str, what: str) -> list[str]:
    """Byte-identical text as one value, then each golden line as one value."""
    checks.expect(got == golden, f"{what}: text differs from golden")
    lines = got.splitlines()
    for i, want in enumerate(golden.splitlines()):
        have = lines[i] if i < len(lines) else None
        checks.expect(have == want, f"{what} line {i + 1}: {have!r} != {want!r}")
    return lines


# -- paper-tables ---------------------------------------------------------

PAPER_LINE = re.compile(r"^(PASS|FAIL|SKIP)  (\d)-point P\^(\d) \(([\d,]+)\): (.*)$")
_POINT_LINE = re.compile(r"^(PASS|FAIL|SKIP)  point k=(\d+): computed (.*), printed ")


def _localization_value(rest: str) -> str:
    if rest.startswith("computed "):
        return rest[len("computed "):].split(", printed ")[0]
    return rest.rsplit("; recomputed ", 1)[1]


def paper_inputs(seed: int, pins: dict) -> dict:
    symbolic = [(n, k, tuple(classes)) for n, k, classes in pins["paper_symbolic"]]
    return {"argv": ["reproduce-paper", "--seed", str(seed)], "symbolic": symbolic}


def paper_run(inp: dict) -> dict:
    return {
        "cli": _call(run_cli, inp["argv"]),
        "symbolic": [_call(localize.invariant, n, k, classes, strategy="symbolic") for n, k, classes in inp["symbolic"]],
    }


def paper_check(inp: dict, out: dict, pins: dict, checks: Checks) -> None:
    symbolic = {
        (n, k, classes): checks.value(got, f"symbolic {n}/{k}/{classes}")
        for (n, k, classes), got in zip(inp["symbolic"], out["symbolic"])
    }
    cli = checks.value(out["cli"], "reproduce-paper")
    if cli is None:
        return
    code, text = cli
    checks.expect(code == PAPER_EXIT_CODE, f"reproduce-paper exit code {code}")
    lines = _expect_text(checks, text, pins["golden"]["reproduce-paper"], "reproduce-paper")
    checks.expect(bool(lines) and lines[-1] == PAPER_SUMMARY, "reproduce-paper summary")
    evaluated = {}
    for line in lines:
        if m := _POINT_LINE.match(line):
            k = int(m.group(2))
            checks.expect(parse_value(m.group(3)) == point_closed_form(k), f"point k={k}: closed form")
        elif m := PAPER_LINE.match(line):
            k, n = int(m.group(2)), int(m.group(3))
            classes = tuple(int(a) for a in m.group(4).split(","))
            parsed = parse_value(_localization_value(m.group(5)))
            checks.expect(parsed is not None, f"unparsable value in {line!r}")
            _expect_graded(checks, n, k, classes, parsed, line)
            evaluated[(n, k, classes)] = parsed
    for key, inv in symbolic.items():
        if inv is not None:
            checks.expect((inv.coeff, inv.kappa_exp) == evaluated.get(key), f"symbolic {key}: differs from evaluate")


# -- quantum-n3 -----------------------------------------------------------

_TABLE_CELL = re.compile(r"c=(\d): (.*?)(?=\s+c=\d:|\s*$)")
_TABLE_ROW = re.compile(r"^a=(\d) b=(\d)  (.*)$")


def quantum_inputs(seed: int, pins: dict) -> dict:
    return {"argv": ["quantum", "--n", "3", "--seed", str(seed)]}


def quantum_run(inp: dict) -> dict:
    return {"cli": _call(run_cli, inp["argv"])}


def quantum_check(inp: dict, out: dict, pins: dict, checks: Checks) -> None:
    cli = checks.value(out["cli"], "quantum --n 3")
    if cli is None:
        return
    code, text = cli
    checks.expect(code == 0, f"quantum --n 3 exit code {code}")
    lines = _expect_text(checks, text, pins["golden"]["quantum-n3"], "quantum --n 3")
    for line in lines:
        row = _TABLE_ROW.match(line)
        if not row:
            continue
        a, b = int(row.group(1)), int(row.group(2))
        for c, value in _TABLE_CELL.findall(row.group(3)):
            classes = (a, b, int(c))
            what = f"<L^{a}, L^{b}, L^{c}> on P^3"
            parsed = parse_value(value)
            want = pinned_invariant(pins, 3, 3, classes)
            checks.expect(parsed is not None and parsed == want, f"{what}: {value} != pinned {want}")
            _expect_graded(checks, 3, 3, classes, parsed, what)


# -- large-n-cold ---------------------------------------------------------


def large_n_inputs(seed: int, pins: dict) -> dict:
    rng = random.Random(seed)
    calls = []
    for n, k in LARGE_N_CASES:
        tuples = [t for t in product(range(n + 1), repeat=k) if grading_codegree(n, k, t) >= 0]
        calls.append((n, k, rng.choice(tuples)))
    return {"seed": seed, "calls": calls}


def large_n_run(inp: dict) -> dict:
    values = []
    for n, k, classes in inp["calls"]:
        graphs.euler_data.cache_clear()  # every `sgw invariant` process starts cold
        values.append(_call(localize.invariant, n, k, classes, seed=inp["seed"]))
    return {"values": values}


def large_n_check(inp: dict, out: dict, pins: dict, checks: Checks) -> None:
    for (n, k, classes), got in zip(inp["calls"], out["values"]):
        what = f"invariant({n}, {k}, {classes})"
        inv = checks.value(got, what)
        if inv is None:
            continue
        want = pinned_invariant(pins, n, k, classes)
        checks.expect((inv.coeff, inv.kappa_exp) == want, f"{what} = {inv}, pinned {want}")
        _expect_graded(checks, n, k, classes, (inv.coeff, inv.kappa_exp), what)


# -- point-k12 ------------------------------------------------------------


def point_inputs(seed: int, pins: dict) -> dict:
    rng = random.Random(seed)
    pools = {int(k): sorted(pool) for k, pool in pins["taut_pool"].items()}
    ks = sorted(pools)
    monomials = []
    for i in range(SINGLE_MONOMIALS):
        k = ks[i % len(ks)]
        monomials.append((k, tuple(int(e) for e in rng.choice(pools[k]).split(","))))
    return {"ks": POINT_KS, "monomials": monomials}


def point_run(inp: dict) -> dict:
    return {
        "points": [_call(point.sgw_point, k) for k in inp["ks"]],
        "singles": [_call(taut.integrate_monomial, k, exps) for k, exps in inp["monomials"]],
    }


def point_check(inp: dict, out: dict, pins: dict, checks: Checks) -> None:
    for k, got in zip(inp["ks"], out["points"]):
        inv = checks.value(got, f"sgw_point({k})")
        if inv is not None:
            checks.expect((inv.coeff, inv.kappa_exp) == point_closed_form(k), f"sgw_point({k}) = {inv}: closed form")
    for (k, exps), got in zip(inp["monomials"], out["singles"]):
        what = f"integrate_monomial({k}, {exps})"
        value = checks.value(got, what)
        if value is not None:
            pinned = pins["taut_pool"][str(k)].get(",".join(map(str, exps)))
            checks.expect(str(value) == pinned, f"{what} = {value}, pinned {pinned}")


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, dict], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict, dict, Checks], None]


WORKLOADS = {
    "paper-tables": Workload(paper_inputs, paper_run, paper_check),
    "quantum-n3": Workload(quantum_inputs, quantum_run, quantum_check),
    "large-n-cold": Workload(large_n_inputs, large_n_run, large_n_check),
    "point-k12": Workload(point_inputs, point_run, point_check),
}
