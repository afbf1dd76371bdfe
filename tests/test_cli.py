"""Command-line interface contract."""

import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sgw.cli
import sgw.graphs
import sgw.localize
import sgw.quantum
import sgw.taut
from sgw.cli import MAX_N, MAX_POINT_K, MAX_QUANTUM_N, MAX_SAMPLES, main
from sgw.errors import InconsistencyError
from sgw.point import Invariant


@pytest.fixture
def runner():
    return CliRunner()


def test_invariant_text(runner):
    result = runner.invoke(main, ["invariant", "--n", "1", "--k", "3", "--classes", "1,1,1"])
    assert result.exit_code == 0
    assert result.output.strip() == "1 * kappa^-3"

    result = runner.invoke(main, ["invariant", "--n", "2", "--k", "2", "--classes", "2,1"])
    assert result.output.strip() == "3/2 * kappa^-4"

    result = runner.invoke(main, ["invariant", "--n", "1", "--k", "3", "--classes", "0,0,0"])
    assert result.output.strip() == "0"


def test_invariant_json_deterministic(runner):
    args = ["invariant", "--n", "2", "--k", "1", "--classes", "1", "--seed", "5", "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    record = json.loads(first.output)
    assert record["coefficient"] == "3/4"
    assert record["kappa_exponent"] == -4
    assert record["inputs"] == {"classes": [1], "d": 1, "k": 1, "n": 2}
    assert len(record["diagnostics"]["tau_samples"]) == 3


def test_invariant_seed_changes_samples(runner):
    base = ["invariant", "--n", "1", "--k", "1", "--classes", "1", "--format", "json"]
    first = json.loads(runner.invoke(main, base + ["--seed", "1"]).output)
    second = json.loads(runner.invoke(main, base + ["--seed", "2"]).output)
    assert first["diagnostics"]["tau_samples"] != second["diagnostics"]["tau_samples"]
    assert first["coefficient"] == second["coefficient"] == "1"


def test_env_seed_used(runner):
    args = ["invariant", "--n", "1", "--k", "1", "--classes", "1", "--format", "json"]
    via_env = runner.invoke(main, args, env={"SGW_SEED": "77"})
    via_flag = runner.invoke(main, args + ["--seed", "77"])
    assert via_env.output == via_flag.output


@pytest.mark.parametrize(
    "argv,module,callee,fake,exit_code",
    [
        (
            ["invariant", "--n", "1", "--k", "1", "--classes", "1"],
            sgw.localize,
            "invariant",
            lambda *args: Invariant(0, 0),
            0,
        ),
        (
            ["quantum", "--n", "1", "--format", "json"],
            sgw.quantum,
            "structure_table",
            lambda n: {(0, 0): [(0, Invariant(0, 0))]},
            0,
        ),
        # every localized entry reads zero, so some FAIL: exit 1
        (["reproduce-paper"], sgw.localize, "table", lambda n, k, classes: dict.fromkeys(classes, Invariant(0, 0)), 1),
    ],
    ids=["invariant", "quantum", "reproduce-paper"],
)
def test_seed_reaches_the_library(runner, monkeypatch, argv, module, callee, fake, exit_code):
    # Neither quantum's nor reproduce-paper's output shows the seed, so the
    # library callee of each seeded command records the seed it is handed.
    seeds = []

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return fake(*args)

    monkeypatch.setattr(module, callee, recording)
    for env, flag, expected in (
        ({"SGW_SEED": "77"}, [], 77),
        ({"SGW_SEED": "77"}, ["--seed", "5"], 5),
        ({"SGW_SEED": "abc"}, ["--seed", "5"], 5),
        ({"SGW_SEED": None}, [], 1729),
    ):
        seeds.clear()
        result = runner.invoke(main, argv + flag, env=env)
        assert result.exit_code == exit_code and result.stderr == "", (env, flag, result.output)
        assert seeds and set(seeds) == {expected}, (env, flag, seeds)


def test_invariant_trace(runner):
    result = runner.invoke(
        main,
        ["invariant", "--n", "1", "--k", "1", "--classes", "1", "--trace", "--format", "json"],
    )
    record = json.loads(result.output)
    per_graph = record["diagnostics"]["per_graph"]
    assert len(per_graph) == 2
    assert per_graph[0]["graph"] == "G(k=1,d=1,a=0,b=1,A={})"


def test_invariant_symbolic_trace(runner):
    base = ["invariant", "--strategy", "symbolic", "--trace", "--format", "json", "--n", "2"]
    record = json.loads(runner.invoke(main, base + ["--k", "2", "--classes", "2,1"]).output)
    per_graph = record["diagnostics"]["per_graph"]
    assert len(per_graph) == 12
    assert sum(Fraction(entry["value"]) for entry in per_graph) == Fraction(record["coefficient"])
    zero = json.loads(runner.invoke(main, base + ["--k", "3", "--classes", "2,2,2"]).output)
    assert zero["zero"] and "per_graph" not in zero["diagnostics"]


# Whole records pinned byte for byte, so that the per-graph value strings and
# tau_samples keep their text whatever number types compute them.
GOLDEN_TRACE = (
    '{"coefficient":"1","command":"invariant","diagnostics":{"per_graph":['
    '{"graph":"G(k=3,d=1,a=0,b=1,A={})","value":"66923416/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={1})","value":"-27857284/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={2})","value":"-27857284/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={1,2})","value":"11595766/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={3})","value":"-27857284/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={1,3})","value":"11595766/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={2,3})","value":"11595766/13312053"},'
    '{"graph":"G(k=3,d=1,a=0,b=1,A={1,2,3})","value":"-4826809/13312053"}],'
    '"samples":3,"seed":1729,"strategy":"evaluate","tau_samples":[["338","812"],["-908","-159"],["26","-63"]]},'
    '"inputs":{"classes":[1,1,1],"d":1,"k":3,"n":1},"kappa_exponent":-3}'
    "\n"
)


def test_invariant_inconsistency_exit_code(runner, monkeypatch):
    def explode(*args, **kwargs):
        raise InconsistencyError("samples disagree")

    monkeypatch.setattr(sgw.localize, "invariant", explode)
    monkeypatch.setattr("sgw.cli.localize.invariant", explode)
    result = runner.invoke(main, ["invariant", "--n", "1", "--k", "1", "--classes", "1"])
    assert result.exit_code == 3


def test_json_without_trace_forms_no_per_graph_values(runner, monkeypatch):
    # tau_samples are the seeded characters themselves: without --trace no
    # graph is labelled and no per-graph value is formed.
    labelled = []
    label = sgw.graphs.FixedGraph.label

    def counting(g):
        labelled.append(g)
        return label(g)

    monkeypatch.setattr(sgw.graphs.FixedGraph, "label", counting)
    base = ["invariant", "--format", "json", "--seed", "1729", "--n", "1", "--k", "3", "--classes", "1,1,1"]
    plain = runner.invoke(main, base)
    assert plain.exit_code == 0
    assert labelled == []
    expected = json.loads(GOLDEN_TRACE)
    del expected["diagnostics"]["per_graph"]
    assert plain.stdout == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
    assert runner.invoke(main, base + ["--trace"]).stdout == GOLDEN_TRACE
    assert len(labelled) == 8  # every graph once, at the first sample only


def test_trace_evaluates_the_first_sample_once(runner, monkeypatch):
    # 8 graphs of (n, k) = (1, 3) at 3 samples: the summands come from the
    # sweep's own first point, not from a second evaluation of it.
    calls = []
    contribution = sgw.localize.graph_contribution

    def counting(*args, **kwargs):
        calls.append(args[0])
        return contribution(*args, **kwargs)

    monkeypatch.setattr(sgw.localize, "graph_contribution", counting)
    base = ["invariant", "--format", "json", "--seed", "1729", "--n", "1", "--k", "3", "--classes", "1,1,1"]
    result = runner.invoke(main, base + ["--trace"])
    assert result.exit_code == 0
    assert result.stdout == GOLDEN_TRACE
    assert len(calls) == 24


def test_taut(runner):
    result = runner.invoke(main, ["taut", "--k", "6", "--exps", "1,1,1"])
    assert result.exit_code == 0
    assert result.output.strip() == "6"

    result = runner.invoke(main, ["taut", "--k", "3"])
    assert result.output.strip() == "1"


def test_taut_skips_monomials_of_the_wrong_degree(runner, monkeypatch):
    # Exponents summing to 231 on the 24-pointed space, of dimension 21,
    # integrate to zero: the monomial may not reach the pushforward kernel,
    # where its kappa expansion would run away.
    def forbidden(*args):
        raise RuntimeError(f"pushed forward a monomial of the wrong degree: {args}")

    monkeypatch.setattr(sgw.taut, "_push", forbidden)
    result = runner.invoke(main, ["taut", "--k", "24", "--exps", ",".join(str(e) for e in range(1, 22))])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_quantum_sweeps_each_graph_once_per_sample(runner, monkeypatch):
    # 48 graphs of (n, k) = (3, 3) times 3 samples: one sweep serves all 20
    # sorted class tuples of the table and every product printed after it.
    calls = []
    contribution = sgw.localize.graph_contribution

    def counting(g, codegrees, tau, h):
        calls.append(g)
        return contribution(g, codegrees, tau, h)

    monkeypatch.setattr(sgw.localize, "graph_contribution", counting)
    sgw.quantum._three_point.cache_clear()
    result = runner.invoke(main, ["quantum", "--n", "3"])
    assert result.exit_code == 0
    assert len(calls) == 144


_RANGE = "Error: Invalid value for '--{}': {} is not in the range x<={}."
_NOT_INT = "Error: Invalid value for {}: {!r} is not a valid integer."
# Every refusal of the command line: (argv, env, the one stderr line).  Each row exits 2 with an empty stdout,
# and the no_work fixture shows that the input is refused before any localization point, quantum sweep or
# pushforward is formed.
REFUSALS = [
    # the parser, branch by branch
    (["--bogus"], {}, "Error: No such option '--bogus'."),
    (["-x"], {}, "Error: No such option '-x'."),
    (["point", "-k", "3"], {}, "Error: No such option '-k'."),
    (["--", "--bogus"], {}, "Error: No such option '--bogus'."),
    (["--"], {}, "Error: Missing command."),
    (["poin", "--k", "3"], {}, "Error: No such command 'poin'. Did you mean 'point'?"),
    (["point"], {}, "Error: Missing option '--k'."),
    (["point", "--k"], {}, "Error: Option '--k' requires an argument."),
    (["invariant", "--n", "1", "--k", "1", "--classes", "1", "--trace=1"], {},
     "Error: Option '--trace' does not take a value."),
    (["point", "--k", "3", "--format", "xml"], {},
     "Error: Invalid value for '--format': 'xml' is not one of 'text', 'json'."),
    (["point", "--k", "3", "extra"], {}, "Error: Got unexpected extra argument (extra)"),
    (["point", "--k", "3", "a", "b"], {}, "Error: Got unexpected extra arguments (a b)"),
    # values that are not integers, from a flag or from SGW_SEED
    (["invariant", "--n", "x", "--k", "1", "--classes", "1"], {}, _NOT_INT.format("'--n'", "x")),
    (["invariant", "--n", "1", "--k", "1.5", "--classes", "1"], {}, _NOT_INT.format("'--k'", "1.5")),
    (["invariant", "--n", "1", "--k", "1", "--classes", "1", "--samples", "s"], {},
     _NOT_INT.format("'--samples'", "s")),
    (["point", "--k", "twelve"], {}, _NOT_INT.format("'--k'", "twelve")),
    # a capped option words a non-integer as type=int does
    (["quantum", "--n", "x"], {}, _NOT_INT.format("'--n'", "x")),
    (["invariant", "--n", "1", "--k", "1", "--classes", "1"], {"SGW_SEED": "abc"},
     _NOT_INT.format("'--seed' (env var: 'SGW_SEED')", "abc")),
    (["quantum", "--n", "1"], {"SGW_SEED": "1e3"}, _NOT_INT.format("'--seed' (env var: 'SGW_SEED')", "1e3")),
    (["invariant", "--n", "1", "--k", "1", "--classes", "a"], {},
     "Error: --classes must be a comma-separated integer list, got 'a'"),
    (["invariant", "--n", "2", "--k", "2", "--classes", "1,x"], {},
     "Error: --classes must be a comma-separated integer list, got '1,x'"),
    # sizes above their ceilings
    (["point", "--k", "25"], {}, _RANGE.format("k", 25, MAX_POINT_K)),
    (["point", "--k", "1500"], {}, _RANGE.format("k", 1500, MAX_POINT_K)),
    (["taut", "--k", "60", "--exps", ""], {}, _RANGE.format("k", 60, MAX_POINT_K)),
    (["invariant", "--n", "100000", "--k", "1", "--classes", "0"], {}, _RANGE.format("n", 100000, MAX_N)),
    (["invariant", "--n", "2", "--k", "1", "--classes", "0", "--samples", "100000000"], {},
     _RANGE.format("samples", 100000000, MAX_SAMPLES)),
    (["quantum", "--n", "40"], {}, _RANGE.format("n", 40, MAX_QUANTUM_N)),
    # the library's refusals, printed without a prefix
    (["point", "--k", "2"], {}, "k must be >= 3"),
    (["taut", "--k", "5", "--exps", "-1,3"], {}, "psi factors need depth >= 0 and power >= 1"),
    (["taut", "--k", "5", "--exps", "1"], {}, "expected 2 exponents for k=5"),
    (["quantum", "--n", "0"], {}, "n must be >= 1"),
    (["invariant", "--n", "1", "--k", "4", "--classes", "1,1,1,1"], {}, "localization implemented for k in {1, 2, 3}"),
    (["invariant", "--n", "2", "--k", "2", "--classes", "3,0"], {}, "class exponent 3 outside [0, 2]"),
    (["invariant", "--n", "3", "--k", "2", "--classes", "1,1", "--strategy", "symbolic"], {},
     "symbolic strategy supported for n <= 2"),
    (["invariant", "--n", "2", "--k", "2", "--classes", "1,1", "--samples", "1"], {},
     "localization needs at least 2 samples, got 1"),
    # (2, 2, 2) has negative codegree on P^2, so its value is zero without a sweep; the samples are still checked
    (["invariant", "--n", "2", "--k", "3", "--classes", "2,2,2", "--samples", "-4", "--format", "json"], {},
     "localization needs at least 2 samples, got -4"),
    (["invariant", "--n", "2", "--k", "3", "--classes", "1,1,0", "--strategy", "symbolic", "--samples", "-4"], {},
     "localization needs at least 2 samples, got -4"),
]


@pytest.mark.parametrize("argv,env,stderr", REFUSALS,
                         ids=[shlex.join([*(f"{k}={v}" for k, v in env.items()), *argv]) for argv, env, _ in REFUSALS])
def test_command_line_refused(runner, no_work, argv, env, stderr):
    result = runner.invoke(main, argv, env=env)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr + "\n")


def test_readme_ceilings_match_the_cli():
    # Every row of the README ceilings table names the constant it documents.
    constants = {
        "point --k": MAX_POINT_K,
        "taut --k": MAX_POINT_K,
        "invariant --n": MAX_N,
        "invariant --samples": MAX_SAMPLES,
        "quantum --n": MAX_QUANTUM_N,
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z]+ --[a-z]+)` \| (\d+) \|", readme, flags=re.MULTILINE))
    assert {option: int(value) for option, value in rows.items()} == constants


def test_bare_group_prints_help(runner):
    # a bare ``sgw`` is refused with the group's help on stderr; --help prints it on stdout and exits 0
    bare, group, command = (runner.invoke(main, argv) for argv in ([], ["--help"], ["point", "--help"]))
    assert (bare.exit_code, bare.stdout) == (2, "") and "Commands:" in bare.stderr
    assert (group.exit_code, group.stdout, group.stderr) == (0, bare.stderr, "")
    assert group.stdout.startswith("Usage: sgw [OPTIONS] COMMAND [ARGS]...\n")
    assert (command.exit_code, command.stderr) == (0, "") and command.stdout.startswith("Usage: sgw point [OPTIONS]\n")


def test_sizes_at_the_ceilings_are_accepted(runner, monkeypatch):
    # The work itself is replaced: only the argument checks run for real.
    monkeypatch.setattr(sgw.cli.point, "sgw_point", lambda k: Invariant(0, 0))
    monkeypatch.setattr(sgw.cli.localize, "invariant", lambda *args, **kwargs: Invariant(0, 0))
    monkeypatch.setattr(sgw.cli.quantum, "structure_table", lambda n, seed: {(0, 0): [(0, Invariant(0, 0))]})
    monkeypatch.setattr(sgw.cli.quantum, "star", lambda n, x, y, seed: sgw.quantum.QElement(n))
    monkeypatch.setattr(sgw.cli.taut, "integrate_monomial", lambda k, exps: 0)
    for argv in (
        ["point", "--k", str(MAX_POINT_K)],
        ["taut", "--k", str(MAX_POINT_K)],
        ["invariant", "--n", str(MAX_N), "--k", "1", "--classes", "0", "--samples", str(MAX_SAMPLES)],
        ["quantum", "--n", str(MAX_QUANTUM_N)],
    ):
        assert runner.invoke(main, argv).exit_code == 0, argv


_JUNK = st.text(alphabet="0123,-x ", max_size=8)


def _small_or_huge(low, high, ceiling):
    return st.one_of(st.integers(low, high), st.integers(ceiling + 1, 10**12))


_ARGV = st.one_of(
    st.tuples(
        st.just("invariant"),
        st.just("--n"), _small_or_huge(-2, 3, MAX_N).map(str),
        st.just("--k"), st.integers(-1, 4).map(str),
        st.just("--classes"), _JUNK,
        st.just("--samples"), _small_or_huge(-2, 4, MAX_SAMPLES).map(str),
    ),
    st.tuples(st.just("taut"), st.just("--k"), st.integers(-1, 7).map(str), st.just("--exps"), _JUNK),
    st.tuples(st.just("quantum"), st.just("--n"), _small_or_huge(-2, 2, MAX_QUANTUM_N).map(str)),
    st.tuples(st.just("point"), st.just("--k"), _small_or_huge(-2, 8, MAX_POINT_K).map(str)),
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_ARGV)
def test_malformed_or_out_of_range_arguments_never_crash(runner, argv):
    result = runner.invoke(main, list(argv))
    assert result.exit_code in (0, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output


def test_reproduce_paper(runner):
    result = runner.invoke(main, ["reproduce-paper"])
    lines = result.output.splitlines()
    statuses = [line.split()[0] for line in lines if line and not line.startswith("summary")]
    assert set(statuses) <= {"PASS", "FAIL", "SKIP"}
    # Five reference entries are inconsistent with exact recomputation and
    # five are flagged suspect up front; everything else must pass.
    assert statuses.count("FAIL") == 5
    assert statuses.count("SKIP") == 5
    assert statuses.count("PASS") == len(statuses) - 10
    # The acceptance gate asserts the recomputed values of these entries, so
    # the disagreement with the printed values is pinned here, by label.
    labels = {"FAIL": set(), "SKIP": set()}
    for line in lines:
        status, _, message = line.partition("  ")
        if status in labels:
            labels[status].add(message.split(":")[0])
    assert labels["FAIL"] == {
        "point k=6",
        "2-point P^3 (2,1)",
        "2-point P^4 (1,1)",
        "2-point P^4 (1,0)",
        "2-point P^5 (1,1)",
    }
    assert labels["SKIP"] == {
        "1-point P^5 (1)",
        "1-point P^5 (0)",
        "2-point P^5 (3,1)",
        "2-point P^5 (1,0)",
        "3-point P^2 (1,0,0)",
    }
    assert lines[-1].startswith("summary: ")
    assert result.exit_code == 1


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize(
    "argv,golden,exit_code",
    [(["quantum", "--n", "3"], "quantum-n3.txt", 0), (["reproduce-paper"], "reproduce-paper.txt", 1)],
    ids=["quantum-n3", "reproduce-paper"],
)
def test_output_matches_the_benchmark_golden_text(runner, argv, golden, exit_code):
    result = runner.invoke(main, argv + ["--seed", "1729"])
    assert result.exit_code == exit_code
    assert result.stdout == (GOLDEN_DIR / golden).read_text()


def test_sgw_does_not_import_dataclasses():
    # The value types are named tuples, so a process that imports sgw and
    # its CLI never pays for the dataclasses module.
    src = Path(sgw.cli.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import sgw, sgw.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.stdout == "False\n", result.stderr


def test_no_command_needs_click():
    # click is a test dependency only: with its import blocked, main(argv) runs a
    # command and refuses a bad one, with the bytes and codes of the runner.
    src = Path(sgw.cli.__file__).resolve().parent.parent
    runner = CliRunner()
    for argv, exit_code in [(["quantum", "--n", "1"], 0), (["point", "--k", "25"], 2), (["poin", "--k", "3"], 2)]:
        code = (
            f"import sys; sys.modules['click'] = None; sys.path.insert(0, {str(src)!r}); "
            f"import sgw.cli; sgw.cli.main({argv!r})"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        expected = runner.invoke(main, argv)
        assert (result.returncode, result.stdout, result.stderr) == (exit_code, expected.stdout, expected.stderr)
        assert expected.exit_code == exit_code


def test_importing_one_module_loads_only_its_dependencies():
    # The package binds no names, so importing it loads no sgw module, and
    # the point target loads neither the localization sums nor their users.
    src = Path(sgw.cli.__file__).resolve().parent.parent
    for imports, absent in [("sgw", "sgw."), ("sgw.taut, sgw.point", ("sgw.localize", "sgw.graphs", "sgw.quantum"))]:
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import {imports}; "
            f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert result.stdout == "[]\n", (imports, result.stdout, result.stderr)
