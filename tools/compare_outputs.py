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
  of the mirrored disk seed (the benchmark's first evaluation, solved on
  the x >= 0 half), those of the random design (solved whole), the J1 of
  its 8 condensed sweep angles as the sweep reports them, and the J2 and
  temperature field of each condensed angle.

Prints one SHA-256 per output and exits 1 if any differs. If the sweep's
J1 values or the disk seed's J1, J2 or temperature differ, it also prints
their largest relative change (the temperature's against its largest
magnitude), and if a config's ``history.csv`` differs, the relative change
of its J1 and J2 at iteration 1 and at the last iteration, so a re-draw at
roundoff can be told from a defect.
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

import numpy as np

ITERATIONS = 20
SWITCH = 11
SEED = 7
VALIDATED = "scenario_w1"       # the config whose run directory is validated

# run in the tree under test; prints {output: sha256}, then the sweep's J1
# values, then the disk seed's J1 and J2, and saves its temperatures to argv[3]
SWEEP_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import inputs
from cloakopt import levelset, validation
from cloakopt.geometry import (MacroGeometry, SECTOR_FIRST, SECTOR_LAST,
                               UnitCellGeometry, build_cell_mesh)
from cloakopt.levelset import LevelSetField
from cloakopt.macro_solver import BoundaryData

seed = int(sys.argv[2])
mesh = build_cell_mesh(UnitCellGeometry(inputs.SWEEP_CELL_RESOLUTION))
cells = range(SECTOR_FIRST, SECTOR_LAST + 1)
design = [LevelSetField(phi=phi, mesh=mesh, cell_index=l, d=inputs.SWEEP_D) for l, phi in
          zip(cells, inputs.sweep_phis(mesh.nodes, mesh.periodic_pairs, seed))]
disk = [levelset.initialize(mesh, ("disk", inputs.INITIAL_RADIUS), cell_index=l)
        for l in cells]
m = inputs.MATERIALS

def tiling(phis):
    return validation.TilingSpec(
        epsilon0=inputs.EPSILON0, phis=phis, d=inputs.SWEEP_D,
        geometry=MacroGeometry(**inputs.GEOMETRY), k_cell_a=m["cell_a"],
        k_cell_b=m["cell_b"], k_exterior=m["exterior"], k_obstacle=m["obstacle"],
        bc=BoundaryData(**inputs.BOUNDARY))

def sha(data):
    return hashlib.sha256(data).hexdigest()

def nodal(temp):        # earlier versions wrap T
    return np.ascontiguousarray(getattr(temp, "values", temp), dtype="<f8")

disk_j1, disk_j2, temp = validation.evaluate_tiled(tiling(disk))
temp = nodal(temp)
np.save(sys.argv[3], temp)
hashes = {"disk seed tiled J1": sha(disk_j1.hex().encode()),
          "disk seed tiled J2": sha(disk_j2.hex().encode()),
          "disk seed tiled T": sha(temp.tobytes())}
spec = tiling(design)
j1, j2, temp = validation.evaluate_tiled(spec)
temp = nodal(temp)
rows = validation.robustness_sweep({"design": spec}, list(inputs.SWEEP_PSI), 1.0,
                                   k_obstacle_insert=inputs.SWEEP_OBSTACLE_K)
sweep = " ".join(r["j1"].hex() for r in rows)
hashes.update({"tiled J1": sha(j1.hex().encode()), "tiled J2": sha(j2.hex().encode()),
               "tiled T": sha(temp.tobytes()), "sweep J1 x8": sha(sweep.encode())})
del temp
mesh = validation.fine_mesh(spec)
obstacles = [validation.ObstacleSpec(psi_deg=psi, k=inputs.SWEEP_OBSTACLE_K)
             for psi in inputs.SWEEP_PSI]
condensation = validation.sweep_condensation(spec, mesh, obstacles[0])
for obstacle in obstacles:
    _, j2, temp = validation.evaluate_tiled(spec, mesh, obstacle, condensation=condensation)
    temp = nodal(temp)
    hashes[f"sweep psi={obstacle.psi_deg:g} J2"] = sha(j2.hex().encode())
    hashes[f"sweep psi={obstacle.psi_deg:g} T"] = sha(temp.tobytes())
print(json.dumps(hashes))
print(sweep)
print(disk_j1.hex(), disk_j2.hex())
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


def first_and_last_objectives(path: Path) -> np.ndarray:
    """J1 and J2 of a ``history.csv`` at iteration 1 and at the last one,
    rows in that order."""
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    return np.array([[float(row["J1"]), float(row["J2"])] for row in (rows[0], rows[-1])])


def state_without_wall_time(path: Path) -> bytes:
    payload = json.loads(path.read_text())
    for entry in payload["history"]:
        entry.pop("wall_ms", None)
    return json.dumps(payload).encode()


def optimize_outputs(root: Path, config: Path, work: Path) -> tuple[dict, np.ndarray]:
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
    return hashes, first_and_last_objectives(out / "history.csv")


def outputs(root: Path, inputs_root: Path) -> tuple[dict, dict]:
    """The output hashes of the tree ``root``, and the values whose change
    is reported: each config's J1 and J2 at iteration 1 and the last, the
    sweep's J1 values and the disk seed's J1, J2 and T."""
    hashes, values = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for config in sorted((inputs_root / "configs").glob("*.json")):
            config_hashes, values[f"{config.stem} history.csv"] = optimize_outputs(
                root, config, Path(work))
            hashes.update(config_hashes)
        disk_t = Path(work) / "disk_t.npy"
        sweep = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT,
                                str(inputs_root / "benchmarks"), str(SEED), str(disk_t)],
                               env=environment(root), check=True, capture_output=True,
                               text=True)
        values["disk seed T"] = np.load(disk_t)
    *_, line, sweep_j1, disk = sweep.stdout.strip().splitlines()
    hashes.update(json.loads(line))
    values["sweep J1"] = np.array([float.fromhex(v) for v in sweep_j1.split()])
    values["disk seed J1"], values["disk seed J2"] = (np.array([float.fromhex(v)])
                                                      for v in disk.split())
    return hashes, values


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    (want, want_values), (got, got_values) = outputs(parent, change), outputs(change, change)
    names = [*got, *(name for name in want if name not in got)]
    differ = 0
    for name in names:
        same = want.get(name) == got.get(name)
        differ += not same
        print(f"{name:36} {got.get(name)}"
              + ("" if same else f"  DIFFERS: parent {want.get(name)}"))
    print(f"{len(names) - differ} of {len(names)} outputs identical")
    for name, w in want_values.items():
        g = got_values[name]
        if name.endswith("history.csv"):
            if want[name] != got[name]:
                (j1, j2), (j1_last, j2_last) = np.abs(g - w) / np.abs(w)
                print(f"{name}: relative change of J1 {j1:.3g} and J2 {j2:.3g} at "
                      f"iteration 1, J1 {j1_last:.3g} and J2 {j2_last:.3g} at the last")
        elif not np.array_equal(g, w):
            scale = np.abs(w).max() if name.endswith(" T") else np.abs(w)
            print(f"{name}: largest relative change {np.max(np.abs(g - w) / scale):.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
