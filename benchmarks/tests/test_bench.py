"""Tests of the benchmark's own code (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import copy
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, Calibrator, scaled  # noqa: E402
import inputs  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracer import Tracer, inclusive_times, self_times, unattributed  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # run [0, 10]; a [1, 9] holds b [2, 5] (which holds c [3, 4]) and b [6, 8]
    tr = Tracer("t", clock=fake_clock([1, 2, 3, 4, 5, 6, 8, 9]))
    with tr.span("a"):
        with tr.span("b"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    own = self_times(tr.spans)
    assert own == {"a": 8 - 3 - 2, "b": (3 - 1) + 2, "c": 1}
    assert sum(own.values()) == 8
    assert unattributed(tr.spans, 0, 10) == 2
    assert inclusive_times(tr.spans) == {"a": (8, 1), "b": (5, 2), "c": (1, 1)}
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]


def test_recursive_span_counted_once_inclusive():
    tr = Tracer("t", clock=fake_clock([0, 1, 2, 3]))
    with tr.span("geometry.mesh"):
        with tr.span("geometry.mesh"):
            pass
    assert inclusive_times(tr.spans) == {"geometry.mesh": (3, 1)}
    assert self_times(tr.spans) == {"geometry.mesh": 3}


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 10)) is None          # 9 samples: median only
    assert tail_percentile(range(1, 20)) is None          # 19: 9 beyond the median
    assert tail_percentile(range(1, 21)) == (50, 10)      # 20: 10 beyond the median
    pct, value = tail_percentile(range(1, 61))            # 60 samples
    assert (pct, value) == (83, 50)
    assert sum(1 for x in range(1, 61) if x > value) == 10


def test_tail_with_ties_keeps_ten_strictly_beyond():
    values = [1.0] * 30 + [2.0] * 10
    assert tail_percentile(values) == (75, 1.0)


def test_operations_leave_calibration_out_and_scale_by_it():
    # iteration entries: calibrate [t_cal, t), then the iteration runs until the next t_cal
    its = [{"t_cal": 0.0, "t": 0.1, "cal": 0.01}, {"t_cal": 1.1, "t": 1.2, "cal": 0.03},
           {"t_cal": 2.2, "t": 2.3, "cal": 0.03}]
    ops = run.operations({"workload": "opt_cell", "iterations": its})
    assert np.allclose(ops, [(1.0, 0.02), (1.0, 0.03)])
    tiled = [{"t0": 0.5, "t1": 2.5, "cal": 0.02, "cal_exit": 0.04}]
    assert np.allclose(run.operations({"workload": "validate_sweep", "tiled": tiled}),
                       [(2.0, 0.03)])
    # a machine running at half the reference speed reads as the reference
    assert scaled(2.0, 2 * REFERENCE_S) == pytest.approx(1.0)


def test_calibrator_reports_time_spent_in_a_window():
    cal = Calibrator(clock=fake_clock([1.0, 1.5, 3.0, 4.0]))
    cal.sample()
    cal.sample()
    assert cal.spans == [(1.0, 1.5), (3.0, 4.0)]
    assert cal.time_within(1.2, 3.5) == pytest.approx(0.3 + 0.5)


def _opt_result(j1=0.5, j2=0.25, tensors=None):
    tensors = tensors or [[10.0 + l, 0.1 * l, 20.0 - l] for l in range(8)]
    it = {"t": 0.0, "j1": j1, "j2": j2, "overshoot": 0.0,
          "cells": [{"k": k, "ok": True} for k in tensors]}
    later = copy.deepcopy(it)
    later["j1"] = 0.1         # later iterations are not compared to stored values
    return {"workload": "opt_cell", "variant": 3, "planned_ops": 2, "error": None,
            "iterations": [it, later], "tiled": []}


def _expected_for(result):
    return {"opt_cell": {"3": checks.first_iteration_record(result["iterations"][0])}}


def test_output_check_passes_on_stored_values():
    r = _opt_result()
    verdict = checks.check_rep(r, _expected_for(r))
    assert verdict == {"attempted": 2, "failed": 0, "failures": []}


@pytest.mark.parametrize("field", ["j1", "j2", "k12"])
def test_output_check_fails_on_perturbed_stored_value(field):
    r = _opt_result()
    expected = _expected_for(r)
    ref = expected["opt_cell"]["3"]
    if field == "k12":
        ref["tensors"][5][1] += 1e-6 * ref["tensors"][5][0]
    else:
        ref[field] *= 1 + 1e-7
    verdict = checks.check_rep(r, expected)
    assert verdict["failed"] == 1 and "iteration 1" in verdict["failures"][0]


def test_output_check_counts_unreached_and_bad_iterations():
    r = _opt_result()
    expected = _expected_for(r)
    r["planned_ops"] = 5
    r["error"] = "SolverError: singular"
    r["iterations"][1]["overshoot"] = 1e-3
    verdict = checks.check_rep(r, expected)
    assert verdict["attempted"] == 5 and verdict["failed"] == 1 + 3


def test_tiled_check_compares_every_value():
    r = {"workload": "validate_sweep", "variant": 0, "planned_ops": 2, "error": None,
         "iterations": [], "tiled": [{"j1": 1.0, "j2": 2.0}, {"j1": 3.0, "j2": 4.0}]}
    good = {"validate_sweep": {"0": {"tiled_j1": [1.0, 3.0]}}}
    bad = {"validate_sweep": {"0": {"tiled_j1": [1.0, 3.0 * (1 + 1e-7)]}}}
    assert checks.check_rep(r, good)["failed"] == 0
    assert checks.check_rep(r, bad)["failed"] == 1


def test_same_seed_same_inputs():
    nodes = np.array(list(itertools.product(np.linspace(0, 1, 9), repeat=2)))
    pairs = np.array([[0, 8], [0, 72]])
    for seed in (0, 7, 123456789):
        assert inputs.opt_config("opt_cell", seed, 16) == inputs.opt_config("opt_cell", seed, 16)
        a = inputs.sweep_phis(nodes, pairs, seed)
        b = inputs.sweep_phis(nodes, pairs, seed)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(np.abs(x).max() == 1.0 and (x < 0).any() and (x > 0).any() for x in a)
    assert not np.array_equal(inputs.sweep_phis(nodes, pairs, 1)[0],
                              inputs.sweep_phis(nodes, pairs, 2)[0])


def test_seed_selects_radius_and_mid_run_switch():
    radii = {inputs.disk_radius(s) for s in range(inputs.N_VARIANTS)}
    assert len(radii) == inputs.N_VARIANTS
    assert min(radii) == pytest.approx(0.2) and max(radii) == pytest.approx(0.3)
    cfg = inputs.opt_config("opt_macro", 5, 12)
    assert cfg["levelset"]["d_schedule"] == [[1, 0.2], [7, 0.01]]
    assert cfg["objective"]["w"] == 0.5 and cfg["mesh"]["macro_h"] == 0.015625


def test_instrument_traces_a_cell_solve_and_restores_modules():
    from cloakopt import fem, homogenization, optimizer
    from cloakopt.geometry import UnitCellGeometry, build_cell_mesh
    from cloakopt.macro_solver import BoundaryData
    from tracer import Instrument

    originals = (homogenization.homogenize, fem.Factorization, optimizer.Workspace)
    mesh = build_cell_mesh(UnitCellGeometry(16))
    chi = (mesh.centroids[:, 0] > 0.5).astype(float)
    mat = homogenization.CellMaterialField(chi=chi, k_a=386.0, k_b=0.15)
    tracer = Tracer("test")
    probe = Instrument(BoundaryData(), tracer).install()
    try:
        tensor, _, _ = homogenization.homogenize(mesh, mat)
    finally:
        probe.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "homogenization.homogenize"
    assert names.count("fem.factor.cell") == 1 and names.count("fem.solve") == 2
    assert tracer.counts["fem.factorizations"] == 1 and tracer.counts["fem.solves"] == 2
    assert tracer.counts["fem.factor_fill_nnz.cell"] > 0
    assert probe._pending_cells == [{"k": [tensor.k11, tensor.k12, tensor.k22], "ok": True}]
    assert (homogenization.homogenize, fem.Factorization, optimizer.Workspace) == originals
