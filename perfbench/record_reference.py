"""Write ``reference.json``: each workload's output values, computed once
from the program as it stands, with the relative tolerance the benchmark
allows them.  Run on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# outputs are bitwise deterministic for fixed inputs; the tolerance leaves
# room only for a reordered floating-point sum
RTOL = 1e-9


def main() -> None:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        work = HERE / "runs" / f"record-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            inputs = workload.prepare(work)
            checks, values = workload.inspect(inputs, workload.run(inputs))
        finally:
            shutil.rmtree(work)
        failed = [check for check, ok in checks.items() if not ok]
        if failed:
            raise SystemExit(f"{name}: checks failed, not recording: {failed}")
        reference[name] = {key: {"value": v, "rtol": RTOL} for key, v in values.items()}
        print(name, len(values), "values")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
