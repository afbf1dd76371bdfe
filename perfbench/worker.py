"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--spans PATH]

Imports ``sgw`` and ``sgw.cli`` from the checkout's ``src/``, makes the
inputs from the seed and records that moment (CLOCK_MONOTONIC, which the
parent shares) as ``ready_at``.  Unless ``--setup-only``, it then runs the
workload, checks every value, and prints one JSON line: ``ready_at``,
``setup_scale``, ``wall_s``, ``wall_raw_s``, ``peak_rss_mb``,
``attempted``, ``failures`` and, with ``--spans``, the per-layer metrics and
self times of a traced pass (its spans go to PATH).

Host speed.  The machine this runs on is shared, and its speed for pure
Python code drifts by tens of percent over seconds and minutes.  So each
process also times a fixed reference loop, and times are reported at a
nominal host speed: measured seconds times ``NOMINAL_REFERENCE_S`` over the
mean reference time.  During a pass the loop runs every
``REFERENCE_PERIOD_S`` of wall time from a SIGALRM handler, between two
bytecodes of the workload, so it samples the seconds the workload runs in;
its own time is left out of the pass time and of every span.  Set-up is
scaled by ``REFERENCE_SAMPLES`` loops run right after ``ready_at``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NOMINAL_REFERENCE_S = 0.008  # about a mid-pass reference() time on the 2-core Xeon this was set up on
REFERENCE_PERIOD_S = 0.2
REFERENCE_SAMPLES = 10


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference() -> float:
    """Time one fixed pure-Python loop of Fraction arithmetic, collector off."""
    collecting = gc.isenabled()
    gc.disable()  # a collection here would be the workload's garbage
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2000):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(samples: list[float]) -> float:
    return NOMINAL_REFERENCE_S / statistics.mean(samples)


class HostClock:
    """perf_counter minus the time spent in reference samples."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.paused += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Take a reference sample every REFERENCE_PERIOD_S inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if not (SRC / "sgw" / "__init__.py").is_file():
        print(f"no sgw sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports sgw and sgw.cli

    pins = workloads.load_pins()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, pins)
    record: dict = {"ready_at": now()}
    record["setup_scale"] = scale([reference() for _ in range(REFERENCE_SAMPLES)])
    if not args.setup_only:
        host = HostClock()
        tracer = None
        if args.spans:
            import tracer as tracing

            tracer = tracing.install(workloads, clock=host.now)
        with host.sampling():
            start = host.now()
            outputs = workload.run(inputs)
            record["wall_raw_s"] = host.now() - start
        samples = host.samples + [reference() for _ in range(max(0, REFERENCE_SAMPLES - len(host.samples)))]
        record["wall_s"] = record["wall_raw_s"] * scale(samples)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = workloads.Checks()
        workload.check(inputs, outputs, pins, checks)
        record["attempted"] = checks.attempted
        record["failures"] = checks.failures
        if tracer is not None:
            record["layers"] = tracer.metrics()
            record["self_times"] = tracer.self_times()
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
