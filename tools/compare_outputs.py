"""Check that two source trees produce bit-identical outputs.

    python tools/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the tree holding this script. Each check runs in
a subprocess on one BLAS thread, with ``src/`` of the tree under test on
``PYTHONPATH``; the inputs come from CHANGE_ROOT for both trees:

* every config in ``configs/``, run by ``cloakopt optimize`` for 20
  iterations with the transition width switching at iteration 11:
  ``history.csv`` without its ``wall_ms`` column, ``tensors.csv``,
  ``macro_fields.vtk``, the per-cell ``cell_<l>.vtk``, and the last
  checkpoint in ``final/``: the per-cell phi files ``cell_<l>.csv`` and
  ``state.json`` with each history entry's ``wall_ms`` dropped;
* ``cloakopt validate`` (eps0 = 1/9) on the 20-iteration run directory
  of ``VALIDATED``: ``validation/report.csv`` and ``validation/tiled.vtk``;
* the ``validate_sweep`` benchmark's inputs at seed 7, read from
  ``benchmarks/inputs.py``: the direct tiled J1, J2 and temperature field
  of the design, the J1 of its 8 condensed sweep angles as the sweep
  reports them, and the J2 and temperature field of each condensed angle.

Prints one SHA-256 per output and exits 1 if any differs. If the sweep's
J1 values differ, it also prints their largest relative change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ITERATIONS = 20
SWITCH = 11
SEED = 7
VALIDATED = "scenario_w1"       # the config whose run directory is validated

# run in the tree under test; prints {output: sha256}, then the sweep's J1 values
SWEEP_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import inputs
from cloakopt import validation
from cloakopt.geometry import (MacroGeometry, SECTOR_FIRST, SECTOR_LAST,
                               UnitCellGeometry, build_cell_mesh)
from cloakopt.levelset import LevelSetField
from cloakopt.macro_solver import BoundaryData

seed = int(sys.argv[2])
mesh = build_cell_mesh(UnitCellGeometry(inputs.SWEEP_CELL_RESOLUTION))
cells = range(SECTOR_FIRST, SECTOR_LAST + 1)
design = [LevelSetField(phi=phi, mesh=mesh, cell_index=l, d=inputs.SWEEP_D) for l, phi in
          zip(cells, inputs.sweep_phis(mesh.nodes, mesh.periodic_pairs, seed))]
m = inputs.MATERIALS
spec = validation.TilingSpec(
    epsilon0=inputs.EPSILON0, phis=design, d=inputs.SWEEP_D,
    geometry=MacroGeometry(**inputs.GEOMETRY), k_cell_a=m["cell_a"], k_cell_b=m["cell_b"],
    k_exterior=m["exterior"], k_obstacle=m["obstacle"], bc=BoundaryData(**inputs.BOUNDARY))
j1, j2, temp = validation.evaluate_tiled(spec)
temp = np.ascontiguousarray(getattr(temp, "values", temp), dtype="<f8")  # earlier versions wrap T
rows = validation.robustness_sweep({"design": spec}, list(inputs.SWEEP_PSI), 1.0,
                                   k_obstacle_insert=inputs.SWEEP_OBSTACLE_K)

def sha(data):
    return hashlib.sha256(data).hexdigest()

sweep = " ".join(r["j1"].hex() for r in rows)
hashes = {"tiled J1": sha(j1.hex().encode()), "tiled J2": sha(j2.hex().encode()),
          "tiled T": sha(temp.tobytes()), "sweep J1 x8": sha(sweep.encode())}
del temp
mesh = validation.fine_mesh(spec)
obstacles = [validation.ObstacleSpec(psi_deg=psi, k=inputs.SWEEP_OBSTACLE_K)
             for psi in inputs.SWEEP_PSI]
condensation = validation.sweep_condensation(spec, mesh, obstacles[0])
for obstacle in obstacles:
    _, j2, temp = validation.evaluate_tiled(spec, mesh, obstacle, condensation=condensation)
    temp = np.ascontiguousarray(getattr(temp, "values", temp), dtype="<f8")
    hashes[f"sweep psi={obstacle.psi_deg:g} J2"] = sha(j2.hex().encode())
    hashes[f"sweep psi={obstacle.psi_deg:g} T"] = sha(temp.tobytes())
print(json.dumps(hashes))
print(sweep)
"""


def environment(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")})
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def history_without_wall_time(path: Path) -> bytes:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def state_without_wall_time(path: Path) -> bytes:
    payload = json.loads(path.read_text())
    for entry in payload["history"]:
        entry.pop("wall_ms", None)
    return json.dumps(payload).encode()


def optimize_outputs(root: Path, config: Path, work: Path) -> dict:
    raw = json.loads(config.read_text())
    widths = [d for _, d in raw["levelset"]["d_schedule"]]
    raw["levelset"]["d_schedule"] = [[1, widths[0]], [SWITCH, widths[-1]]]
    raw["optimizer"]["max_iter"] = ITERATIONS
    short = work / f"{config.stem}.json"
    short.write_text(json.dumps(raw))
    out = work / config.stem
    subprocess.run([sys.executable, "-m", "cloakopt.cli", "optimize", "--config", str(short),
                    "--out", str(out)], env=environment(root), check=True,
                   stdout=subprocess.DEVNULL)
    files = [out / "tensors.csv", out / "macro_fields.vtk", *sorted(out.glob("cell_*.vtk")),
             *sorted((out / "final").glob("cell_*.csv"))]
    hashes = {f"{config.stem} history.csv": sha256(history_without_wall_time(
        out / "history.csv"))}
    hashes.update({f"{config.stem} {path.relative_to(out).as_posix()}":
                   sha256(path.read_bytes()) for path in files})
    hashes[f"{config.stem} final/state.json"] = sha256(state_without_wall_time(
        out / "final" / "state.json"))
    if config.stem == VALIDATED:
        subprocess.run([sys.executable, "-m", "cloakopt.cli", "validate", "--run", str(out)],
                       env=environment(root), check=True, stdout=subprocess.DEVNULL)
        for name in ("report.csv", "tiled.vtk"):
            hashes[f"{config.stem} validation/{name}"] = sha256(
                (out / "validation" / name).read_bytes())
    return hashes


def outputs(root: Path, inputs_root: Path) -> tuple[dict, list[float]]:
    """The output hashes of the tree ``root``, and its sweep J1 values."""
    hashes = {}
    with tempfile.TemporaryDirectory() as work:
        for config in sorted((inputs_root / "configs").glob("*.json")):
            hashes.update(optimize_outputs(root, config, Path(work)))
    sweep = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT,
                            str(inputs_root / "benchmarks"), str(SEED)],
                           env=environment(root), check=True, capture_output=True, text=True)
    *_, line, values = sweep.stdout.strip().splitlines()
    hashes.update(json.loads(line))
    return hashes, [float.fromhex(v) for v in values.split()]


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    (want, want_j1), (got, got_j1) = outputs(parent, change), outputs(change, change)
    names = [*got, *(name for name in want if name not in got)]
    differ = 0
    for name in names:
        same = want.get(name) == got.get(name)
        differ += not same
        print(f"{name:36} {got.get(name)}"
              + ("" if same else f"  DIFFERS: parent {want.get(name)}"))
    print(f"{len(names) - differ} of {len(names)} outputs identical")
    if want_j1 != got_j1:
        largest = max(abs(g - w) / abs(w) for g, w in zip(got_j1, want_j1, strict=True))
        print(f"sweep J1: largest relative change {largest:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
