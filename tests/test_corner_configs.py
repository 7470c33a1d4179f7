"""Corner cases of the config space, each run end to end through
``cloakopt optimize``: the run must finish with finite objectives, and
the condensed state operator it factors must solve the state and an
adjoint that loads the condensed block G as a direct factorization of
the same half mesh does."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cloakopt import cli, fem, macro_solver, optimizer
from cloakopt.config import parse_config
from cloakopt.levelset import LevelSetField

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# "section.key": value changes to the base config, one row per corner
CORNERS = {
    "base": {},
    "ring-touching-lx": {"geometry.lx": 2.7},
    "ring-touching-lx-and-ly": {"geometry.lx": 2.7, "geometry.ly": 2.7},
    "large-plate": {"geometry.lx": 20.0, "geometry.ly": 32.0, "geometry.r_ring": 5.0,
                    "geometry.r_obstacle": 3.0},
    "w-0": {"objective.w": 0.0},
    "w-half": {"objective.w": 0.5},
    "reversed-edges": {"boundary.t_low": 1.0, "boundary.t_high": 0.0},
    "uniform-init": {"levelset.init": {"pattern": "uniform", "sign": 1}},
    "equal-cell-phases": {"materials.cell_a": 67.0, "materials.cell_b": 67.0},
    "extreme-cell-contrast": {"materials.cell_a": 1e6, "materials.cell_b": 1e-6},
    "cell-resolution-18": {"mesh.cell_resolution": 18},
    "single-width": {"levelset.d_schedule": [[1, 0.2]]},
    "tau-0": {"levelset.tau": 0.0},
    "thin-ring": {"geometry.r_obstacle": 1.1},
    "normalized": {"objective.mode": "normalized", "materials.normalization_fill": 0.15},
}


def corner_config(tmp_path, changes) -> Path:
    raw = json.loads((CONFIG_DIR / "scenario_w1.json").read_text())
    raw["optimizer"]["max_iter"] = 3
    raw["mesh"] = {"cell_resolution": 16, "macro_h": 0.125}
    for name, value in changes.items():
        section, key = name.split(".")
        raw[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def relative_difference(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("changes", CORNERS.values(), ids=CORNERS.keys())
def test_corner_config_runs_and_condenses_exactly(tmp_path, changes):
    config = corner_config(tmp_path, changes)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(config), "--out", str(out)]) == 0
    state = optimizer.resume(out / "final")
    for r in state.history:
        assert all(math.isfinite(v) for v in (r.j1, r.j2, r.j, r.j1_ratio, r.j2_ratio)), r

    sc = parse_config(config).scenario
    ws = optimizer.Workspace(sc)
    phis = [LevelSetField(phi=f.phi, mesh=ws.cell_mesh, cell_index=f.cell_index, d=f.d)
            for f in state.phis]
    ev = optimizer.evaluate(ws, phis, sc.d_at(state.iteration))
    matmap = macro_solver.MacroMaterialMap(ev.tensors, sc.k_exterior, sc.k_obstacle)
    direct = fem.Factorization(macro_solver.state_system(ws.macro_mesh, matmap, ws.bc))
    assert relative_difference(ev.temp, direct.solve()) <= 1e-10

    load = macro_solver.adjoint_load(ws.macro_mesh, sc.derivative_weights(), ev.temp,
                                     ws.t_steel)
    c = ev.state_fact.condensation
    assert c.constraints.restrict(load)[c.g].any()
    assert relative_difference(ev.state_fact.solve(load, homogeneous=True),
                               direct.solve(load, homogeneous=True)) <= 1e-10
