"""Acceptance suite: one test per criterion, each printing its measured
values against the pinned tolerance. Run with ``pytest -v`` for the
per-criterion pass/fail lines (add ``-s`` to see the measurements of
passing criteria too). The three optimization scenarios are shared
session fixtures, so the whole suite costs three full runs plus the
validation solves.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cloakopt import fem
from cloakopt import homogenization as hom
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt import objectives as obj
from cloakopt import sensitivity as sens
from cloakopt import validation as val
from cloakopt.config import parse_config
from cloakopt.geometry import (MacroGeometry, UnitCellGeometry,
                               build_cell_mesh, build_macro_mesh)
from cloakopt.homogenization import CellMaterialField
from cloakopt.macro_solver import BoundaryData, MacroMaterialMap
from cloakopt.optimizer import Scenario, checkpoint, resume, run
from cloakopt.validation import ObstacleSpec, TilingSpec

COPPER, PDMS, STEEL = 386.0, 0.15, 67.0
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EPSILON0 = 1.0 / 9.0


def report(criterion: str, detail: str, passed: bool) -> None:
    print(f"[acceptance] {criterion}: {detail} -> {'PASS' if passed else 'FAIL'}",
          flush=True)


def scenario_from_config(name: str) -> Scenario:
    return parse_config(CONFIG_DIR / f"{name}.json").scenario


@pytest.fixture(scope="session")
def w1_state():
    return run(scenario_from_config("scenario_w1"))


@pytest.fixture(scope="session")
def whalf_state():
    return run(scenario_from_config("scenario_whalf"))


@pytest.fixture(scope="session")
def appb_state():
    return run(scenario_from_config("scenario_appendixB"))


def tiling_spec(phis, d, k_obstacle=COPPER, epsilon0=EPSILON0) -> TilingSpec:
    geom = MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)
    return TilingSpec(epsilon0=epsilon0, phis=phis, d=d, geometry=geom,
                      k_cell_a=COPPER, k_cell_b=PDMS, k_exterior=STEEL,
                      k_obstacle=k_obstacle, bc=BoundaryData(0.0, 1.0))


def initial_phis(resolution=64):
    mesh = build_cell_mesh(UnitCellGeometry(resolution))
    return [ls.initialize(mesh, ("disk", 0.25), cell_index=l, d=0.2)
            for l in range(1, 9)]


# --- criterion 1: homogenization exactness ---------------------------------

def test_criterion_01_homogenization_exactness():
    mesh = build_cell_mesh(UnitCellGeometry(64))
    mat = CellMaterialField(chi=np.ones(mesh.n_elements), k_a=COPPER, k_b=PDMS)
    tensor, _, _ = hom.homogenize(mesh, mat)
    iso_err = np.abs(tensor.matrix - COPPER * np.eye(2)).max() / COPPER

    arith = 0.5 * (COPPER + PDMS)
    harm = 2.0 * COPPER * PDMS / (COPPER + PDMS)
    lam_errs = {}
    for res, tol in ((64, 0.01), (128, 0.0025)):
        m = build_cell_mesh(UnitCellGeometry(res))
        chi = (m.centroids[:, 1] < 0.5).astype(float)
        t, _, _ = hom.homogenize(m, CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS))
        lam_errs[res] = max(abs(t.k11 - arith) / arith, abs(t.k22 - harm) / harm)
        assert lam_errs[res] <= tol

    passed = iso_err <= 1e-8
    report("criterion 1",
           f"homogeneous err={iso_err:.2e} (<=1e-8), laminate err 64={lam_errs[64]:.2e}"
           f" (<=1e-2), 128={lam_errs[128]:.2e} (<=2.5e-3)", passed)
    assert passed


# --- criterion 2: bounds and symmetry over random fields --------------------

def test_criterion_02_bounds_and_symmetry():
    mesh = build_cell_mesh(UnitCellGeometry(32))
    c = mesh.centroids
    rng = np.random.default_rng(2024)
    worst_sym, worst_slack = 0.0, -np.inf
    for _ in range(100):
        chi = np.full(mesh.n_elements, rng.uniform(0.3, 0.7))
        for _ in range(3):
            kx, ky = rng.integers(1, 5, size=2)
            ph = rng.uniform(0, 2 * np.pi, size=2)
            chi = chi + rng.uniform(-0.4, 0.4) * (
                np.sin(2 * np.pi * kx * c[:, 0] + ph[0])
                * np.sin(2 * np.pi * ky * c[:, 1] + ph[1]))
        mat = CellMaterialField(chi=np.clip(chi, 0, 1), k_a=COPPER, k_b=PDMS)
        t, _, _ = hom.homogenize(mesh, mat)
        worst_sym = max(worst_sym, abs(t.k12 - t.matrix[1, 0]))
        assert t.is_spd()
        lo, hi = hom.voigt_reuss_bounds(mat.volume_fraction(mesh), COPPER, PDMS)
        for eig in (t.kbar1, t.kbar2):
            worst_slack = max(worst_slack, lo - eig, eig - hi)
    passed = worst_sym <= 1e-12 and worst_slack <= 1e-6
    report("criterion 2",
           f"symmetry err={worst_sym:.2e} (<=1e-12), "
           f"bound slack={worst_slack:.2e} (<=1e-6), SPD all", passed)
    assert passed


# --- criterion 3: adjoint correctness (finite differences) ------------------

def test_criterion_03_adjoint_matches_finite_differences():
    geom = MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)
    mesh = build_macro_mesh(geom, 0.25)          # ~600 elements
    bc = BoundaryData(0.0, 1.0)
    steel = ms.reference_field(mesh, bc)

    tensors = []
    for l in range(1, 9):
        th = np.radians(15.0 * l)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        tensors.append(r @ np.diag([5.0 + l, 1.0 + 0.3 * l]) @ r.T)

    def objective_pair(ts):
        mm = MacroMaterialMap(list(ts), k_exterior=STEEL, k_obstacle=COPPER)
        temp = ms.solve_state(mesh, mm, bc)
        return ms.evaluate_objectives(temp, steel, mesh)

    # the optimizer's adjoint path: both adjoints on the factored state operator
    matmap = MacroMaterialMap(list(tensors), k_exterior=STEEL, k_obstacle=COPPER)
    fact = fem.Factorization(ms.state_system(mesh, matmap, bc))
    temp = fem.ScalarField(fact.solve(), mesh)
    adjoints = {"j1": ms.solve_adjoint(fact, {"j1": 1.0}, temp, steel),
                "j2": ms.solve_adjoint(fact, {"j2": 1.0}, temp)}

    worst = 0.0
    for kind, idx in (("j1", 0), ("j2", 1)):
        for l in range(1, 9):
            s = sens.sector_sensitivities(mesh, temp, adjoints[kind])[l - 1]
            h = 1e-4 * np.linalg.norm(tensors[l - 1])
            for (i, j) in ((0, 0), (0, 1), (1, 1)):
                dk = np.zeros((2, 2))
                dk[i, j] += h
                if i != j:
                    dk[j, i] += h
                plus = [t.copy() for t in tensors]
                plus[l - 1] = tensors[l - 1] + dk
                minus = [t.copy() for t in tensors]
                minus[l - 1] = tensors[l - 1] - dk
                fd = (objective_pair(plus)[idx] - objective_pair(minus)[idx]) / (2 * h)
                predicted = s[i, j] if i == j else 2.0 * s[i, j]
                worst = max(worst, abs(fd - predicted) / max(abs(fd), 1e-30))
    passed = worst <= 1e-3
    report("criterion 3",
           f"worst relative FD error over both objectives, all (l,i,j): "
           f"{worst:.2e} (<=1e-3)", passed)
    assert passed


# --- criteria 4-5: the two published optimization scenarios -----------------

def test_criterion_04_scenario_w1(w1_state):
    j1_init = w1_state.j1_init
    ratio = w1_state.history[-1].j1_ratio
    init_ok = 2.22e-2 / 2 <= j1_init <= 2.22e-2 * 2
    ratio_ok = ratio <= 1e-2
    report("criterion 4",
           f"initial J1={j1_init:.3e} (2x of 2.22e-2), final J1/J1_init="
           f"{ratio:.3e} (<=1e-2; published run reached 1.1e-4)",
           init_ok and ratio_ok)
    assert init_ok and ratio_ok


def test_criterion_05_scenario_whalf(whalf_state):
    last = whalf_state.history[-1]
    ok = last.j1_ratio <= 1e-2 and last.j2_ratio <= 1e-3
    report("criterion 5",
           f"final J1/J1_init={last.j1_ratio:.3e} (<=1e-2; published 1.9e-4), "
           f"J2/J2_init={last.j2_ratio:.3e} (<=1e-3; published 1.72e-6)", ok)
    assert ok


# --- criterion 6: finite-cell tiling of the optimized designs ---------------

@pytest.fixture(scope="session")
def tiled_initials():
    spec = tiling_spec(initial_phis(), d=0.2)
    mesh = val.fine_mesh(spec)
    j1, j2, _ = val.evaluate_tiled(spec, mesh)
    return j1, j2, mesh


def test_criterion_06_tiling_validation(w1_state, whalf_state, tiled_initials):
    j1_init, j2_init, mesh = tiled_initials
    init_ok = (2.0e-2 / 2 <= j1_init <= 2.0e-2 * 2
               and 1.5e-3 / 2 <= j2_init <= 1.5e-3 * 2)

    d_final = 0.01
    w1_spec = tiling_spec(w1_state.phis, d=d_final)
    j1_w1, _, _ = val.evaluate_tiled(w1_spec, mesh)
    whalf_spec = tiling_spec(whalf_state.phis, d=d_final)
    j1_wh, j2_wh, _ = val.evaluate_tiled(whalf_spec, mesh)

    w1_ok = j1_w1 / j1_init <= 1e-2
    wh_ok = j2_wh / j2_init <= 1e-3
    report("criterion 6",
           f"tiled initial J1={j1_init:.3e} (2x of 2.0e-2) J2={j2_init:.3e} "
           f"(2x of 1.5e-3); tiled w=1 J1 ratio={j1_w1 / j1_init:.3e} "
           f"(<=1e-2; published 2.3e-4); tiled w=1/2 J2 ratio="
           f"{j2_wh / j2_init:.3e} (<=1e-3; published 3.0e-6)",
           init_ok and w1_ok and wh_ok)
    assert init_ok and w1_ok and wh_ok


# --- criterion 7: robustness sweep over the obstacle angle ------------------

def test_criterion_07_robustness_sweep(w1_state, whalf_state, tiled_initials):
    j1_init, _, _ = tiled_initials
    psi = [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]
    designs = {
        "w1": tiling_spec(w1_state.phis, d=0.01),
        "whalf": tiling_spec(whalf_state.phis, d=0.01),
    }
    rows = val.robustness_sweep(designs, psi, j1_init, k_obstacle_insert=PDMS)
    by_design = {name: [r["j1_ratio"] for r in rows if r["design"] == name]
                 for name in designs}
    wh = by_design["whalf"]
    w1 = by_design["w1"]
    flat_ok = max(wh) <= 10.0 * min(wh)
    order_ok = max(wh) < max(w1)
    report("criterion 7",
           f"w=1/2 ratios in [{min(wh):.3e}, {max(wh):.3e}] "
           f"(max <= 10x min: {flat_ok}); w=1 max={max(w1):.3e} "
           f"(> w=1/2 max: {order_ok})", flat_ok and order_ok)
    assert flat_ok and order_ok


# --- criterion 8: benchmark scenario with the normalized objective ----------

def test_criterion_08_appendix_scenario(appb_state):
    final = appb_state.history[-1].j
    passed = final <= 1e-3
    report("criterion 8",
           f"final normalized J={final:.3e} (<=1e-3; published 6.33e-6 vs "
           f"prior-work baseline 1.59e-4)", passed)
    assert passed


# --- criterion 9: finite-cell limit approaches the homogenized model --------

def test_criterion_09_epsilon_convergence():
    geom = MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)
    macro = build_macro_mesh(geom, 0.0625)
    bc = BoundaryData(0.0, 1.0)
    steel = ms.reference_field(macro, bc)
    cell = build_cell_mesh(UnitCellGeometry(64))
    f = ls.initialize(cell, ("disk", 0.25), d=0.2)
    mat = hom.material_from_levelset(f, COPPER, PDMS)
    tensor, _, _ = hom.homogenize(cell, mat)
    matmap = MacroMaterialMap([tensor] * 8, k_exterior=STEEL, k_obstacle=COPPER)
    temp = ms.solve_state(macro, matmap, bc)
    j1_hom, _ = ms.evaluate_objectives(temp, steel, macro)

    gaps = {}
    for denom in (9, 18, 36):
        spec = tiling_spec(initial_phis(), d=0.2, epsilon0=1.0 / denom)
        j1, _, _ = val.evaluate_tiled(spec)
        gaps[denom] = abs(j1 - j1_hom) / j1_hom
    passed = gaps[36] <= 0.5
    report("criterion 9",
           "tiled-vs-homogenized J1 gap: " +
           ", ".join(f"eps=1/{d}: {g:.3f}" for d, g in gaps.items()) +
           " (final <=0.5)", passed)
    assert passed


# --- criterion 10: determinism and checkpoint/resume ------------------------

def test_criterion_10_determinism_and_resume(tmp_path):
    sc = dataclasses.replace(scenario_from_config("scenario_w1"),
                             max_iter=8, d_schedule=((1, 0.2), (5, 0.1)),
                             macro_h=0.25, cell_resolution=16)

    def signature(state):
        return [(r.iteration, r.j1, r.j2, r.j, r.j1_ratio, r.j2_ratio, r.d)
                for r in state.history]

    a = run(sc)
    b = run(sc)
    identical = signature(a) == signature(b)

    half = run(dataclasses.replace(sc, max_iter=4))
    checkpoint(half, tmp_path / "ck")
    resumed = run(sc, resume_from=resume(tmp_path / "ck"))
    resume_ok = signature(resumed) == signature(a)
    phis_ok = all(np.array_equal(x.phi, y.phi)
                  for x, y in zip(a.phis, resumed.phis))
    passed = identical and resume_ok and phis_ok
    report("criterion 10",
           f"repeat histories bit-identical: {identical}; "
           f"checkpoint/resume trajectory identical: {resume_ok and phis_ok}",
           passed)
    assert passed
