"""One benchmark process: set up one workload, run it repeatedly, check it.

Started by ``run.py`` in a fresh single-threaded process per run, so peak
RSS never carries over from another workload.  Prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seconds S [--trace] [--setup-only]

``--setup-only`` stops after imports and input construction and reports
their time.  With ``--trace`` the first half of the time runs untraced
calls and the second half traced ones, which gives the tracing overhead.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CALLS = 3
MIN_TRACED_CALLS = 2  # two traced calls give the count determinism check
MIN_COVERAGE = 0.95
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


class Ledger:
    """Operations and checks attempted, and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def compare(values: dict, reference: dict, ledger: Ledger) -> None:
    """Each output value against its reference, within its relative tolerance."""
    for name in sorted(set(values) | set(reference)):
        if name not in reference or name not in values:
            ledger.record(f"reference has {name}" if name in values else f"output has {name}", False)
            continue
        ref = reference[name]
        within = abs(values[name] - ref["value"]) <= ref["rtol"] * abs(ref["value"])
        ledger.record(f"{name} matches reference", within)


def timed_call(workload, inputs, reference: dict, ledger: Ledger, tracer=None) -> tuple[float, float]:
    """Run one call, check its output, and return its (wall, cpu) seconds.

    A call that raises is counted as a failed operation, not fatal.  With a
    tracer, spans are recorded for the call and not for its checks."""
    if tracer is not None:
        tracer.begin_call()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = workload.run(inputs)
    except Exception as exc:
        output = exc
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.end_call()
    ledger.record(f"call raised {output!r}" if isinstance(output, Exception) else "call",
                  not isinstance(output, Exception))
    if isinstance(output, Exception):
        return wall, cpu
    try:
        checks, values = workload.inspect(inputs, output)
    except Exception as exc:  # an output the checks cannot read is a failed check
        ledger.record(f"inspect raised {exc!r}", False)
        return wall, cpu
    for name, ok in checks.items():
        ledger.record(name, ok)
    compare(values, reference, ledger)
    return wall, cpu


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import gdnls

    source = Path(gdnls.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"worker: gdnls imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    work = HERE / "runs" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = workload.prepare(work)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ledger = Ledger()
        result = {"setup_s": setup_s, "env": environment()}
        start = time.perf_counter()
        budget, min_calls = (args.seconds / 2, MIN_TRACED_CALLS) if args.trace else (args.seconds, MIN_CALLS)
        samples = []
        while len(samples) < min_calls or time.perf_counter() - start < budget:
            samples.append(timed_call(workload, inputs, reference, ledger))
        result["wall_s"] = [w for w, _ in samples]
        result["cpu_s"] = [c for _, c in samples]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            tracer = tracing.Tracer(workload.name)
            tracer.instrument(extra_modules=[workloads])
            walls = []
            while len(walls) < MIN_TRACED_CALLS or time.perf_counter() - start < args.seconds:
                walls.append(timed_call(workload, inputs, reference, ledger, tracer)[0])
            layers, deterministic = tracing.layer_metrics(tracer, walls)
            ledger.record("traced counts identical across calls", deterministic)
            ledger.record(f"root spans cover >= {MIN_COVERAGE:.0%} of traced wall",
                          layers["trace.coverage"] >= MIN_COVERAGE)
            layers["trace.wall_s"] = median(walls)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - median(result["wall_s"])
            result["layers"] = layers
            result["spans"] = tracer.spans_json()
        result["attempted"] = ledger.attempted
        result["failures"] = ledger.failures
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
