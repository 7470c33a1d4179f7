"""Record the stored reference values of the output checks.

    python3 benchmarks/record_expected.py

Writes ``benchmarks/expected.json``: for every input variant, J1, J2
and the 8 K* of iteration 1 of each optimization workload, and the nine
tiled J1 values of ``validate_sweep``. Re-record only when the benchmark
inputs change; a program change that moves these values is what the
checks exist to catch.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from workload import run_rep  # noqa: E402


def record(workload: str, variant: int, workdir: Path) -> dict:
    if workload.startswith("opt_"):
        r = run_rep(workload, variant, False, workdir, mode="first")
        return checks.first_iteration_record(r["iterations"][0])
    r = run_rep(workload, variant, False, workdir)
    if r["error"]:
        raise RuntimeError(r["error"])
    return {"tiled_j1": [op["j1"] for op in r["tiled"]]}


def main() -> int:
    path = checks.EXPECTED_PATH
    expected = {}
    workdir = HERE.parent / ".bench_work" / "record"
    for workload in sorted(spec.WORKLOADS):
        table = {}
        for v in range(inputs.N_VARIANTS):
            table[str(v)] = record(workload, v, workdir / f"{workload}-{v}")
            print(workload, v, flush=True)
        expected[workload] = table
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
