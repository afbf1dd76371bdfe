"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds:

* ``BENCHMARK.json``, ``run.py``, ``workloads.py``, ``tracer.py`` and
  ``predictions.json`` name the same workloads and per-layer metrics;
* a corrupted pinned value, and a call that raises, each count as exactly
  one failed value while the rest of the workload is still checked;
* a traced cold ``invariant(1, 3, (1, 1, 1))`` reports exactly 8
  ``euler_data`` misses, 16 hits and 24 ``graph_contribution`` calls.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sgw import graphs, localize  # noqa: E402
from sgw.errors import InconsistencyError  # noqa: E402

TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def check_names(problems: list[str]) -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in bench["workloads"])
    if not names == run.WORKLOADS == tuple(workloads.WORKLOADS):
        problems.append(f"workload names disagree: {names}, {run.WORKLOADS}, {tuple(workloads.WORKLOADS)}")
    per_layer = tuple(m["name"] for m in bench["per_layer"])
    if per_layer != tracer.PER_LAYER + TRACE_METRICS:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    for metric in bench["per_layer"]:
        if metric["unit"] != run.unit(metric["name"]):
            problems.append(f"{metric['name']}: unit {metric['unit']} in BENCHMARK.json, {run.unit(metric['name'])} in run.py")
    for entry in json.loads((HERE / "predictions.json").read_text()):
        for name in entry["metrics"]:
            if name not in per_layer:
                problems.append(f"predictions.json names unknown metric {name}")
        for prediction in entry["predictions"]:
            if prediction["workload"] not in names:
                problems.append(f"predictions.json names unknown workload {prediction['workload']}")


def check_failure_counting(problems: list[str]) -> None:
    pins = workloads.load_pins()
    workload = workloads.WORKLOADS["point-k12"]
    inputs = workload.inputs(1, pins)
    outputs = workload.run(inputs)

    def failed(pins_used, outputs_used) -> tuple[int, int]:
        checks = workloads.Checks()
        workload.check(inputs, outputs_used, pins_used, checks)
        return checks.attempted, len(checks.failures)

    clean = failed(pins, outputs)
    if clean[1] != 0:
        problems.append(f"point-k12 fails with the true pins: {clean}")
    corrupted = copy.deepcopy(pins)
    k, exps = inputs["monomials"][0]
    key = ",".join(map(str, exps))
    corrupted["taut_pool"][str(k)][key] = str(int(corrupted["taut_pool"][str(k)][key]) + 1)
    hits = sum(1 for m in inputs["monomials"] if m == (k, exps))
    if failed(corrupted, outputs) != (clean[0], hits):
        problems.append(f"a corrupted pin gave {failed(corrupted, outputs)}, want ({clean[0]}, {hits})")
    raising = dict(outputs, points=[InconsistencyError("injected")] + outputs["points"][1:])
    if failed(pins, raising) != (clean[0], 1):
        problems.append(f"an exception gave {failed(pins, raising)}, want ({clean[0]}, 1)")


def check_trace_counts(problems: list[str]) -> None:
    t = tracer.install(workloads)
    graphs.euler_data.cache_clear()
    localize.invariant(1, 3, (1, 1, 1))
    m = t.metrics()
    got = (
        m["graphs.euler_data.misses"],
        m["graphs.euler_data.calls"] - m["graphs.euler_data.misses"],
        m["localize.graph_contribution.calls"],
    )
    if got != (8, 16, 24):
        problems.append(f"traced invariant(1, 3, (1, 1, 1)): misses, hits, graph calls = {got}, want (8, 16, 24)")


def main() -> int:
    problems: list[str] = []
    check_names(problems)
    check_failure_counting(problems)
    check_trace_counts(problems)  # last: installing the tracer rebinds sgw for the process
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check passed" if not problems else f"{len(problems)} self-check failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
