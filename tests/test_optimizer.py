import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from cloakopt import fem, levelset, macro_solver, optimizer, sensitivity
from cloakopt.geometry import MacroGeometry, TriMesh, UnitCellGeometry, build_cell_mesh
from cloakopt.macro_solver import BoundaryData
from cloakopt.optimizer import (DesignState, Scenario, Workspace, checkpoint, evaluate,
                                resume, run, step)

from conftest import COPPER, PDMS, STEEL


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
        geometry=MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4),
        k_cell_a=COPPER, k_cell_b=PDMS, k_exterior=STEEL, k_obstacle=COPPER,
        bc=BoundaryData(0.0, 1.0), w=1.0, max_iter=4,
        d_schedule=((1, 0.2), (3, 0.1)),
        macro_h=0.25, cell_resolution=16,
    )
    base.update(overrides)
    return Scenario(**base)


def history_signature(state: DesignState):
    return [(r.iteration, r.j1, r.j2, r.j, r.j1_ratio, r.j2_ratio, r.d)
            for r in state.history]


def adjoint_weights(monkeypatch, scenario):
    """The run's final state and the weights of each adjoint it solved."""
    weights = []
    solve_adjoint = macro_solver.solve_adjoint

    def record(state_fact, w, *args):
        weights.append(dict(w))
        return solve_adjoint(state_fact, w, *args)

    monkeypatch.setattr(macro_solver, "solve_adjoint", record)
    return run(scenario), weights


def test_max_iter_validation():
    with pytest.raises(ValueError):
        tiny_scenario(max_iter=0).validate()


@pytest.mark.parametrize("key, value", [
    ("k_phi", 0.0), ("k_phi", float("nan")), ("k_phi", float("inf")),
    ("dt", -0.1), ("dt", float("nan")), ("dt", float("inf")),
    ("tau", -1e-4), ("tau", float("nan")), ("tau", float("inf")),
])
def test_level_set_constants_validation(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        tiny_scenario(**{key: value}).validate()


def test_single_iteration_reports_initial_objectives(monkeypatch):
    state, weights = adjoint_weights(monkeypatch, tiny_scenario(max_iter=1))
    assert state.iteration == 1
    assert len(state.history) == 1
    assert state.j1 == state.j1_init
    assert state.history[0].j1_ratio == 1.0
    # no update happened, so no adjoint was needed
    assert weights == []


def test_d_schedule_lookup():
    sc = tiny_scenario(d_schedule=((1, 0.2), (71, 0.01)))
    assert sc.d_at(1) == 0.2
    assert sc.d_at(70) == 0.2
    assert sc.d_at(71) == 0.01
    assert sc.d_at(150) == 0.01
    assert [sc.width_age(i) for i in (1, 2, 70, 71, 72, 150)] == [1, 2, 70, 1, 2, 80]


def test_step_diminishes_within_each_width(monkeypatch):
    """With the move limiter slack, the k-th step at a width is dt / sqrt(k)."""
    dts = []
    update = levelset.ReactionDiffusionUpdater.step

    def record_dt(self, phi, jprime, dt):
        dts.append(dt)
        return update(self, phi, jprime, dt)

    monkeypatch.setattr(levelset.ReactionDiffusionUpdater, "step", record_dt)
    monkeypatch.setattr(optimizer, "MOVE_LIMIT", 1e9)
    run(tiny_scenario(max_iter=5))    # widths start at 1 and 3
    steps = dts[::4]                  # one step per design cell 1-4
    assert dts == [dt for dt in steps for _ in range(4)]
    assert steps == [0.1, 0.1 * 2 ** -0.5, 0.1, 0.1 * 2 ** -0.5]


@pytest.mark.parametrize("schedule", [((1, 0.2), (71, 0.01), (50, 0.1)),
                                      ((1, 0.2), (70.7, 0.01))])
def test_d_schedule_starts_must_be_increasing_integers(schedule):
    with pytest.raises(ValueError, match="d_schedule starts"):
        tiny_scenario(d_schedule=schedule).validate()


def test_normalization_fill_equal_to_reference_rejected():
    # fill = exterior = obstacle makes the normalization field the
    # reference itself, so the normalized objective has no denominator
    sc = tiny_scenario(objective_mode="normalized", normalization_fill=STEEL,
                       k_obstacle=STEEL)
    with pytest.raises(ValueError, match="coincides with the reference"):
        Workspace(sc)
    assert Workspace(tiny_scenario(objective_mode="normalized",
                                   normalization_fill=PDMS)).norm_denominator > 0


def test_d_schedule_recorded_in_history():
    state = run(tiny_scenario())
    assert [r.d for r in state.history] == [0.2, 0.2, 0.1, 0.1]


def test_w1_skips_flux_adjoint(monkeypatch):
    _, weights = adjoint_weights(monkeypatch, tiny_scenario(w=1.0))
    assert weights == [{"j1": 1.0}] * 3


def test_w0_skips_mismatch_adjoint(monkeypatch):
    _, weights = adjoint_weights(monkeypatch, tiny_scenario(w=0.0))
    assert weights == [{"j2": 1.0}] * 3


@pytest.mark.parametrize("overrides", [
    dict(w=0.0), dict(w=0.3), dict(w=1.0),
    dict(w=1.0, objective_mode="normalized", normalization_fill=PDMS),
], ids=["w0", "w0.3", "w1", "normalized"])
def test_each_step_solves_one_adjoint(monkeypatch, overrides):
    """One homogeneous solve on the state operator and one contraction of
    the 8 sectors' dJ/dK*, whatever the weights."""
    homogeneous_flags, contractions = [], []
    sector_sensitivities = sensitivity.sector_sensitivities

    def recording_solve(solve):
        def wrapped(self, rhs_full=None, homogeneous=False):
            homogeneous_flags.append(homogeneous)
            return solve(self, rhs_full, homogeneous)
        return wrapped

    def record_sectors(*args):
        contractions.append(sector_sensitivities(*args))
        return contractions[-1]

    for cls in (fem.Factorization, fem.CondensedFactorization):
        monkeypatch.setattr(cls, "solve", recording_solve(cls.solve))
    monkeypatch.setattr(sensitivity, "sector_sensitivities", record_sectors)
    run(tiny_scenario(max_iter=3, **overrides))
    assert homogeneous_flags.count(True) == 2
    assert [s.shape for s in contractions] == [(8, 2, 2)] * 2


def test_determinism_bit_identical_histories():
    a = run(tiny_scenario())
    b = run(tiny_scenario())
    assert history_signature(a) == history_signature(b)
    for fa, fb in zip(a.phis, b.phis):
        np.testing.assert_array_equal(fa.phi, fb.phi)


def test_threads_do_not_change_results():
    a = run(tiny_scenario())
    b = run(tiny_scenario(), threads=4)
    assert history_signature(a) == history_signature(b)


def test_checkpoint_resume_bit_identical(tmp_path):
    sc = tiny_scenario(max_iter=6, d_schedule=((1, 0.2), (4, 0.1)))
    full = run(sc)

    half = run(dataclasses.replace(sc, max_iter=3))
    checkpoint(half, tmp_path / "ck")
    reloaded = resume(tmp_path / "ck")
    assert reloaded.iteration == 3
    for fa, fb in zip(half.phis, reloaded.phis):
        np.testing.assert_array_equal(fa.phi, fb.phi)

    resumed = run(sc, resume_from=reloaded)
    assert history_signature(resumed) == history_signature(full)
    for fa, fb in zip(full.phis, resumed.phis):
        np.testing.assert_array_equal(fa.phi, fb.phi)


def test_resume_ignores_counters_of_older_checkpoints(tmp_path):
    sc = tiny_scenario(max_iter=3)
    checkpoint(run(dataclasses.replace(sc, max_iter=2)), tmp_path / "ck")
    state_file = tmp_path / "ck" / "state.json"
    payload = json.loads(state_file.read_text())
    assert "counters" not in payload
    payload["counters"] = {"cell_solves": 32, "state_solves": 2,
                           "adjoint_solves_j1": 1, "adjoint_solves_j2": 0}
    state_file.write_text(json.dumps(payload))
    resumed = run(sc, resume_from=resume(tmp_path / "ck"))
    assert history_signature(resumed) == history_signature(run(sc))


def test_resume_rejects_a_checkpoint_without_a_mirrored_design(tmp_path):
    """A checkpoint of 8 independent cells, as earlier versions wrote, is
    refused by name rather than resumed onto another design."""
    sc = tiny_scenario(max_iter=3)
    checkpoint(run(dataclasses.replace(sc, max_iter=2)), tmp_path / "ck")
    path = tmp_path / "ck" / "cell_6.csv"
    f = levelset.read_phi_field(path)
    f.phi[f.mesh.n_nodes // 2] += 1e-12
    levelset.write_phi_csv(f, path)
    with pytest.raises(ValueError, match="cell 6 is not the reflection of cell 3"):
        run(sc, resume_from=resume(tmp_path / "ck"))


def assert_mirrored(phis):
    mirror = levelset.mirror_nodes(phis[0].mesh)
    for l in range(1, 5):
        np.testing.assert_array_equal(phis[8 - l].phi, phis[l - 1].phi[mirror])


def test_every_checkpoint_holds_a_mirrored_design(tmp_path):
    """Cell 9 - l is cell l reflected, bit for bit, at every checkpoint of a
    w=1/2 run on a macro mesh that is not mirror-symmetric (21 divisions
    across lx), where roundoff would not keep the 8-cell design so."""
    out = tmp_path / "run"
    sc = tiny_scenario(w=0.5, macro_h=5.0 / 21)
    final = run(sc, out_dir=out, checkpoint_every=1)
    for it in range(1, sc.max_iter + 1):
        assert_mirrored(resume(out / "checkpoints" / f"iter_{it:04d}").phis)
    assert_mirrored(final.phis)
    mirror = levelset.mirror_nodes(final.phis[0].mesh)
    assert not np.array_equal(final.phis[0].phi, final.phis[0].phi[mirror])


def test_file_init_reflects_the_file_onto_cells_5_to_8(tmp_path):
    mesh = build_cell_mesh(UnitCellGeometry(16))
    x, y = mesh.nodes.T
    f = levelset.LevelSetField(phi=0.8 * np.sin(2 * np.pi * (x + 0.1)) * np.cos(2 * np.pi * y),
                               mesh=mesh)
    levelset.write_phi_csv(f, tmp_path / "cell.csv")
    phis = tiny_scenario(init=("file", str(tmp_path / "cell.csv"))).initial_phis()
    assert [g.cell_index for g in phis] == list(range(1, 9))
    for g in phis[:4]:
        np.testing.assert_array_equal(g.phi, f.phi)
    assert_mirrored(phis)
    assert not np.array_equal(phis[7].phi, f.phi)


def test_mirrored_reaction_terms_equal_the_eight_cell_ones_on_a_symmetric_design(monkeypatch):
    """On a mirrored design and a mirror-symmetric macro mesh (20 divisions
    across lx), cell l's reaction term from dJ/dK*_l + S dJ/dK*_(9-l) S is,
    after normalization, the one the 8-cell step gave it from dJ/dK*_l, and
    the 8-cell term of cell 9 - l is its reflection."""
    ws = Workspace(tiny_scenario(w=0.5))
    mesh = ws.cell_mesh
    x, y = mesh.nodes.T
    design = [0.6 * np.sin(2 * np.pi * (x + 0.1 * l)) * np.cos(2 * np.pi * (y - x)) + 0.2
              for l in range(1, 5)]
    phis = [levelset.LevelSetField(phi=p, mesh=mesh, cell_index=l)
            for l, p in enumerate(optimizer.mirrored(mesh, design), start=1)]
    ev = evaluate(ws, phis, 0.2)
    sector_sensitivities = sensitivity.sector_sensitivities
    combined_sensitivity = sensitivity.combined_sensitivity
    raw, restricted = [], []
    monkeypatch.setattr(sensitivity, "sector_sensitivities",
                        lambda *a: raw.append(sector_sensitivities(*a)) or raw[-1])
    monkeypatch.setattr(sensitivity, "combined_sensitivity",
                        lambda *a: restricted.append(combined_sensitivity(*a)) or restricted[-1])
    step(ws, ev, phis, 1)
    assert len(raw) == 1 and len(restricted) == 4

    eight = []
    for dj_dk, f, (mat, _, w1, w2) in zip(raw[0], phis, ev.cells, strict=True):
        ins_a, ins_b = sensitivity.topological_tensor_fields(mesh, mat, w1, w2)
        eight.append(combined_sensitivity(mesh, dj_dk, ins_a, ins_b, f.chi_nodes(0.2)))
    mirror = levelset.mirror_nodes(mesh)
    scale = max(np.abs(g).max() for g in eight)
    for l in range(1, 5):
        np.testing.assert_allclose(restricted[l - 1], eight[l - 1], rtol=0.0, atol=1e-9 * scale)
        np.testing.assert_allclose(eight[8 - l], eight[l - 1][mirror], rtol=0.0,
                                   atol=1e-9 * scale)


def test_resume_finished_run_is_noop(tmp_path):
    sc = tiny_scenario()
    state = run(sc)
    checkpoint(state, tmp_path / "done")
    reloaded = resume(tmp_path / "done")
    again = run(sc, resume_from=reloaded)
    assert again is reloaded


def test_resume_missing_checkpoint(tmp_path):
    with pytest.raises(FileNotFoundError):
        resume(tmp_path / "nope")


def test_run_writes_progress_artifacts(tmp_path):
    out = tmp_path / "run"
    run(tiny_scenario(), out_dir=out, checkpoint_every=2)
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].split(",")[:7] == ["iter", "J1", "J2", "J",
                                         "J1_ratio", "J2_ratio", "d"]
    assert len(history) == 1 + 4
    assert (out / "final" / "state.json").exists()
    assert (out / "checkpoints" / "iter_0002" / "cell_1.csv").exists()


def test_final_checkpoint_is_a_copy_of_the_last(tmp_path):
    out = tmp_path / "run"
    run(tiny_scenario(max_iter=3), out_dir=out, checkpoint_every=2)
    last, final = out / "checkpoints" / "iter_0003", out / "final"
    names = sorted(p.name for p in last.iterdir())
    assert names == sorted(p.name for p in final.iterdir()) and "state.json" in names
    for name in names:
        assert (final / name).read_bytes() == (last / name).read_bytes()


def test_objectives_decrease_even_in_short_run():
    state = run(tiny_scenario(max_iter=4, w=1.0))
    assert state.history[-1].j1 < state.history[0].j1


def test_mixed_weight_contracts_derivative_of_recorded_objective(monkeypatch):
    # for 0 < w < 1 each cell's reaction term must come from the derivative
    # of the recorded J = w*J1 + (1-w)*J2, normalized once, not from two
    # separately normalized objective terms; the one adjoint of the
    # weighted load gives w*s1 + (1-w)*s2 of the single-objective adjoints,
    # and each design cell 1-4 contracts its mirrored derivative
    solve_adjoint = macro_solver.solve_adjoint
    sector_sensitivities = sensitivity.sector_sensitivities
    combined_sensitivity = sensitivity.combined_sensitivity
    adjoints, derivatives, contracted = [], [], []

    def record_adjoint(state_fact, weights, state, reference):
        adjoints.append((state_fact, weights, state, reference))
        return solve_adjoint(state_fact, weights, state, reference)

    def record_sectors(*args):
        derivatives.append(sector_sensitivities(*args))
        return derivatives[-1]

    def record_combined(mesh, dj_dk, *args):
        contracted.append(dj_dk)
        return combined_sensitivity(mesh, dj_dk, *args)

    monkeypatch.setattr(macro_solver, "solve_adjoint", record_adjoint)
    monkeypatch.setattr(sensitivity, "sector_sensitivities", record_sectors)
    monkeypatch.setattr(sensitivity, "combined_sensitivity", record_combined)
    w = 0.3
    run(tiny_scenario(w=w, max_iter=2))
    assert len(adjoints) == 1 and len(derivatives) == 1 and len(contracted) == 4
    state_fact, weights, temp, reference = adjoints[0]
    assert weights == {"j1": w, "j2": 1.0 - w}
    single = [solve_adjoint(state_fact, {k: 1.0}, temp, reference) for k in ("j1", "j2")]
    s1, s2 = (sector_sensitivities(temp.mesh, temp, v) for v in single)
    mirrored = sensitivity.mirrored_sensitivities
    for s_j, s, want in zip(contracted, mirrored(derivatives[0]),
                            mirrored(w * s1 + (1.0 - w) * s2), strict=True):
        assert np.array_equal(s_j, s)
        assert np.abs(s - want).max() <= 1e-10 * np.abs(want).max()


def test_evaluate_condenses_once_and_factors_only_the_ring(monkeypatch):
    """The fixed blocks are factored once per mesh (K_FF to read S_I, then
    K_GG for the solves); each evaluate factors one reduced ring system,
    which the adjoints reuse; the full macro operator is never factored
    after set-up."""
    ws = Workspace(tiny_scenario())
    condensations, building, fixed_factors, factored = [], [], [], []
    factor = fem._factor

    def counting_factor(matrix, **options):
        if building:
            fixed_factors.append(matrix.shape[0])
        return factor(matrix, **options)

    class CountingCondensation(fem.Condensation):
        def __init__(self, *args):
            building.append(self)
            super().__init__(*args)
            building.pop()
            condensations.append(self)

    class CountingFactorization(fem.Factorization):
        def __init__(self, system):
            super().__init__(system)
            factored.append(system)

    monkeypatch.setattr(fem, "_factor", counting_factor)
    monkeypatch.setattr(fem, "Condensation", CountingCondensation)
    monkeypatch.setattr(fem, "Factorization", CountingFactorization)
    phis = ws.scenario.initial_phis(ws.cell_mesh)
    for it, d in enumerate((0.2, 0.2, 0.1), start=1):
        step(ws, evaluate(ws, phis, d), phis, it)
    assert len(condensations) == 1
    c = condensations[0]
    assert fixed_factors == [len(c.g) + len(c.i), len(c.g)]
    macro = [s for s in factored if s.mesh is ws.macro_mesh]
    assert len(macro) == 3
    assert all(s.structure is c.varying for s in macro)


def test_iterations_neither_order_nor_assemble_the_ring_again(monkeypatch):
    """Over a 4-iteration run: orderings come only from the first
    homogenization (the cell template) and the condensation's build,
    nothing assembles the ring through assemble_diffusion, and no
    gradient is taken over all of the macro mesh's elements."""
    building, iteration, orders, assembled, gradients = [], [0], [], [], []
    order, evaluate_ = fem.minimum_degree_order, optimizer.evaluate
    gradient, assemble = TriMesh.element_gradient, fem.assemble_diffusion

    class BuildingCondensation(fem.Condensation):
        def __init__(self, *args):
            building.append(self)
            super().__init__(*args)
            building.pop()

    def counted_evaluate(*args, **kwargs):
        iteration[0] += 1
        return evaluate_(*args, **kwargs)

    def recorded_gradient(self, values, elements=slice(None)):
        out = gradient(self, values, elements)
        if self.element_region.max() > 0:           # a macro mesh
            gradients.append((len(out), self.n_elements))
        return out

    monkeypatch.setattr(fem, "Condensation", BuildingCondensation)
    monkeypatch.setattr(fem, "minimum_degree_order",
                        lambda m: orders.append((iteration[0], bool(building))) or order(m))
    monkeypatch.setattr(fem, "assemble_diffusion",
                        lambda *a, **kw: assembled.append(1) or assemble(*a, **kw))
    monkeypatch.setattr(optimizer, "evaluate", counted_evaluate)
    monkeypatch.setattr(TriMesh, "element_gradient", recorded_gradient)
    run(tiny_scenario(max_iter=4))
    assert iteration[0] == 4
    assert sorted(orders) == [(1, False), (1, True), (1, True)]   # cell; K_GG and ring
    assert assembled == []
    assert len(gradients) == 2 * 3 and all(n < total for n, total in gradients)


def test_evaluated_meshes_freed_without_the_cycle_collector():
    """Nothing an evaluation caches on the macro or cell mesh holds the
    mesh, so dropping the workspace frees both at once."""
    gc.disable()
    try:
        ws = Workspace(tiny_scenario(w=0.5))
        phis = ws.scenario.initial_phis(ws.cell_mesh)
        step(ws, evaluate(ws, phis, 0.2), phis, 1)
        meshes = [weakref.ref(ws.macro_mesh), weakref.ref(ws.cell_mesh)]
        assert all(len(m().cache) > 1 for m in meshes)
        del ws, phis
        assert [m() for m in meshes] == [None, None]
    finally:
        gc.enable()
