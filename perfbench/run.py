"""The sgw benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``sgw`` is imported from its ``src/``.
One closed-loop client makes the workload's calls one after another.  Each
pass runs in a fresh single-threaded process (``worker.py``), so every pass
starts as ``sgw`` does for a user: caches cold, modules just imported.
Passes repeat while another one fits in the time given.

With ``--trace 0`` the end-to-end metrics are printed:

* ``setup_s``: from process start until ``sgw`` and ``sgw.cli`` are
  imported and the inputs made; the median over every pass and extra
  set-up-only processes, at least ``SETUP_SAMPLES`` of them;
* ``wall_s``: median time of the workload's calls over the passes;
* ``peak_rss_mb``: median peak resident memory of a pass process.

Both times are seconds at a nominal host speed, as ``worker.py`` explains:
the shared machine's speed drifts too much for raw seconds to compare
between runs minutes apart.  The raw pass times are printed as well.

With ``--trace 1`` half the time goes to untraced passes and then one
traced pass reports the per-layer metrics of ``tracer.py``, its own
``wall_s`` and the tracing overhead (traced minus untraced ``wall_s``).
Its spans are written to ``.bench_out/``; span and per-layer times are raw
seconds of the traced pass.

Every value a pass computes is checked.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` (so ``failed / attempted``
is the failure rate) and ``metrics``.  The exit code is 0 whenever that
line is printed; it is not printed, and the exit code is not 0, when the
sources are missing or a pass process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper-tables", "quantum-n3", "large-n-cold", "point-k12")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every process of one run must end within this


class PassFailed(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run one worker process to its end; returns its record plus timings."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - now(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassFailed(f"{workload} pass did not finish before the run's time limit")
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_raw_s"] = record["ready_at"] - started
    record["setup_s"] = record["setup_raw_s"] * record["setup_scale"]
    record["duration_s"] = now() - started
    return record


def measure(args) -> dict:
    start = now()
    deadline = start + RUN_LIMIT_S
    budget = args.seconds / 2 if args.trace else args.seconds
    passes: list[dict] = []
    while not passes or now() - start + statistics.mean(p["duration_s"] for p in passes) <= budget:
        passes.append(spawn(args.workload, args.seed, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, deadline, "--setup-only")["setup_s"])
    wall_s = statistics.median(p["wall_s"] for p in passes)
    runs = list(passes)
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = spawn(args.workload, args.seed, deadline, "--spans", str(spans))
        runs.append(traced)
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall_s, "unit": "s"}
        print(f"traced pass: wall_s {traced['wall_s']:.3f}, untraced median {wall_s:.3f}, spans in {spans}")
        for name, (calls, total, own) in traced["self_times"].items():
            print(f"  {name:30s} calls {calls:8d}  total {total:9.4f} s  self {own:9.4f} s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, wall_s "
        f"{[round(p['wall_s'], 3) for p in passes]}, raw {[round(p['wall_raw_s'], 3) for p in passes]}, "
        f"{len(setups)} set-ups, fail_rate {len(failures)}/{attempted}"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sgw" / "__init__.py").is_file():
        print(f"no sgw sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
