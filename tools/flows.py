"""The program's traffic: the one list of flows that ``compare_outputs.py``
hashes and ``traffic_audit.py`` traces.

    python tools/flows.py WORK

runs :func:`run` on one BLAS thread in the directory WORK (made if
missing), with the ``cloakopt`` that Python imports and the configs and
benchmark of the tree holding this script. The flows, in order:

* for each config in ``configs/``, in a run directory named after it:
  ``cloakopt optimize`` stopped at iteration 10, with the transition
  width switching at iteration 11, then resumed (``--resume``) to
  iteration 20 with only ``optimizer.max_iter`` raised, and resumed once
  more, a finished run that comes back unchanged; the w=1/2 runs take
  ``--threads 2``. Then ``cloakopt homogenize`` on the run's
  ``final/cell_1.csv``; and ``cloakopt validate`` at the default
  eps0 = 1/9, or at 1 for Appendix B, whose plate is 4x wider (1/9 would
  mesh ~693k fine nodes, 1 meshes 8.7k);
* ``cloakopt sweep`` of the w=1 and w=1/2 runs at the default angles;
* the benchmark's three workloads at seed 7, each a call of
  ``benchmarks/workload.py``'s ``run_rep`` writing into the directory of
  its name, and its probe records in hex into ``<workload>/probes.txt``:
  per iteration J1, J2, the temperature overshoot and each homogenized
  K* (k11, k12, k22), per tiled evaluation J1 and J2.

A config's commands append their standard output to ``<config>.txt``,
the sweep's to ``sweep.txt`` and a workload's to ``<workload>.txt``. A
command that exits non-zero, or a workload that reports an error, raises
with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STOP, ITERATIONS, SWITCH = 10, 20, 11
THREADS = {"scenario_whalf": "2"}
VALIDATE_FLAGS = {"scenario_appendixB": ["--epsilon0", "1"]}
SWEPT = ("scenario_w1", "scenario_whalf")
SEED = 7


def cloakopt(log: Path, *argv: str) -> None:
    from cloakopt import cli
    err = io.StringIO()
    with log.open("a") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"cloakopt {' '.join(argv)} exited with {code}: {err.getvalue()}")


def probes(result: dict) -> str:
    rows = [[r["j1"], r["j2"], r["overshoot"], *(k for cell in r["cells"] for k in cell["k"])]
            for r in result["iterations"]]
    rows += [[r["j1"], r["j2"]] for r in result["tiled"]]
    return "".join(" ".join(float(v).hex() for v in row) + "\n" for row in rows)


def run() -> None:
    """Every flow, in the current directory."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        name, raw = path.stem, json.loads(path.read_text())
        log = Path(f"{name}.txt")
        widths = [d for _, d in raw["levelset"]["d_schedule"]]
        raw["levelset"]["d_schedule"] = [[1, widths[0]], [SWITCH, widths[-1]]]
        for max_iter, resume in ((STOP, []), (ITERATIONS, ["--resume"]),
                                 (ITERATIONS, ["--resume"])):
            raw["optimizer"]["max_iter"] = max_iter
            config = Path(f"{name}_{max_iter}.json")
            config.write_text(json.dumps(raw))
            cloakopt(log, "optimize", "--config", str(config), "--out", name,
                     "--threads", THREADS.get(name, "1"), *resume)
        m = raw["materials"]
        cloakopt(log, "homogenize", "--phi", f"{name}/final/cell_1.csv",
                 "--k-a", str(m["cell_a"]), "--k-b", str(m["cell_b"]))
        cloakopt(log, "validate", "--run", name, *VALIDATE_FLAGS.get(name, []))
    runs = (f for name in SWEPT for f in ("--run", f"{name}={name}"))
    cloakopt(Path("sweep.txt"), "sweep", *runs, "--out", "sweep.csv")

    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workload
    for name in workload.spec.WORKLOADS:
        with Path(f"{name}.txt").open("w") as out, contextlib.redirect_stdout(out):
            result = workload.run_rep(name, SEED, False, Path(name))
        if result["error"]:
            raise RuntimeError(f"workload {name}: {result['error']}")
        Path(name, "probes.txt").write_text(probes(result))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in BLAS_THREADS})    # before numpy loads
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    run()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
