"""Benchmark entry point for gdnls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src/``.  Workload names, metric names and
units come from ``BENCHMARK.json`` at the checkout root.

``--trace 0`` reports the end-to-end metrics: two set-up probes in fresh
processes, then one measuring process that sets up once more and repeats the
workload's timed call for S seconds.  ``--trace 1`` reports the per-layer
metrics from a separate process with the layer wrappers installed.

Every workload input is fixed by its parameters, so ``--seed`` is recorded
but changes nothing.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it gives the samples, the failed checks and the
environment.  Each run also writes them, with any trace spans, to
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
DEADLINE_S = 170.0  # a run must end within 180 s
# the program's FFTs are serial pocketfft; keep any BLAS/OpenMP pool to one
# thread so cpu_s and wall_s measure the same work on every machine
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} did not finish before the run deadline", 3)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"worker {' '.join(args)} exited with code {done.returncode}", 3)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gdnls" / "__init__.py").is_file():
        fail(f"no gdnls source tree at {ROOT / 'src' / 'gdnls'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    if args.trace:
        res = worker([*common, "--trace"], deadline)
        samples = {"wall_s": res["wall_s"]}
        wanted, measured = spec["per_layer"], res["layers"]
    else:
        probes = [worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(common, deadline)
        samples = {"setup_s": [*probes, res["setup_s"]], "wall_s": res["wall_s"], "cpu_s": res["cpu_s"]}
        wanted = spec["end_to_end"]
        measured = {
            "wall_s": median(res["wall_s"]),
            "cpu_s": median(res["cpu_s"]),
            "setup_s": median(samples["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {missing}", 3)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": res["env"], "samples": samples, "failures": res["failures"],
    }
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**context, "layers": res.get("layers"), "spans": res.get("spans")}))

    failed = len(res["failures"])
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
