import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cloakopt import fem, optimizer
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt import validation as val
from cloakopt.geometry import (REGION_OBSTACLE, UnitCellGeometry,
                               build_cell_mesh, build_macro_mesh)
from cloakopt.macro_solver import BoundaryData

from conftest import COPPER, PDMS, STEEL


@pytest.fixture(scope="module")
def cell_mesh():
    return build_cell_mesh(UnitCellGeometry(16))


def make_spec(paper_geometry, cell_mesh, pattern=("disk", 0.25), epsilon0=0.25):
    phis = [ls.initialize(cell_mesh, pattern, cell_index=l, d=0.2)
            for l in range(1, 9)]
    return val.TilingSpec(epsilon0=epsilon0, phis=phis, d=0.2,
                          geometry=paper_geometry, k_cell_a=COPPER,
                          k_cell_b=PDMS, k_exterior=STEEL, k_obstacle=COPPER,
                          bc=BoundaryData(0.0, 1.0))


def test_uniform_copper_cells_tile_to_copper(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh, pattern=("uniform", 1.0))
    mesh = val.fine_mesh(spec)
    k = val.tile_conductivity(spec, mesh)
    ring = np.isin(mesh.element_region, range(1, 9))
    np.testing.assert_allclose(k[ring], COPPER)
    assert np.allclose(k[mesh.region_mask(REGION_OBSTACLE)], COPPER)
    assert np.allclose(k[mesh.element_region == 0], STEEL)


def test_tiled_conductivity_range(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    k = val.tile_conductivity(spec, mesh)
    ring = np.isin(mesh.element_region, range(1, 9))
    assert k[ring].min() >= PDMS - 1e-12
    assert k[ring].max() <= COPPER + 1e-12


def test_tiling_periodic_in_cell_size(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    k = val.tile_conductivity(spec, mesh)
    # pair every element with the one whose centroid lies one cell further in x
    h = spec.epsilon0 / val.ELEMENTS_PER_CELL
    grid = [tuple(p) for p in np.rint(3.0 * mesh.centroids / h).astype(int)]
    index = {p: e for e, p in enumerate(grid)}
    shift = round(3.0 * spec.epsilon0 / h)
    pairs = np.array([(e, index[(x + shift, y)]) for e, (x, y) in enumerate(grid)
                      if (x + shift, y) in index])
    region = mesh.element_region
    pairs = pairs[(region[pairs[:, 0]] == region[pairs[:, 1]])
                  & np.isin(region[pairs[:, 0]], range(1, 9))]
    assert len(pairs) > 1000
    assert np.ptp(k[pairs[:, 0]]) > 0.5 * (COPPER - PDMS)
    np.testing.assert_allclose(k[pairs[:, 1]], k[pairs[:, 0]], rtol=1e-12)


def test_under_resolved_mesh_rejected(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh, epsilon0=0.25)
    coarse = build_macro_mesh(paper_geometry, 0.0625)   # 4 elements per cell
    with pytest.raises(ValueError, match="under-resolves"):
        val.tile_conductivity(spec, coarse)


def test_all_steel_tiling_reproduces_reference(paper_geometry, cell_mesh):
    phis = [ls.initialize(cell_mesh, ("uniform", 1.0), cell_index=l)
            for l in range(1, 9)]
    spec = val.TilingSpec(epsilon0=0.25, phis=phis, d=0.2,
                          geometry=paper_geometry, k_cell_a=STEEL,
                          k_cell_b=STEEL, k_exterior=STEEL, k_obstacle=STEEL,
                          bc=BoundaryData(0.0, 1.0))
    j1, j2, _ = val.evaluate_tiled(spec)
    assert j1 == pytest.approx(0.0, abs=1e-18)
    assert j2 > 0.0   # uniform conduction still has a gradient inside


def test_obstacle_spec_default_radius(paper_geometry):
    obstacle = val.ObstacleSpec(psi_deg=45.0, k=PDMS)
    assert obstacle.resolved_radius(paper_geometry) == pytest.approx(0.12)


def test_obstacle_changes_objective(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    j1_plain, _, _ = val.evaluate_tiled(spec, mesh)
    obstacle = val.ObstacleSpec(psi_deg=0.0, k=PDMS)
    j1_blocked, _, _ = val.evaluate_tiled(spec, mesh, obstacle)
    assert j1_blocked != pytest.approx(j1_plain, rel=1e-6)


def test_empty_sweep(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    assert val.robustness_sweep({"d": spec}, [], 1.0, PDMS) == []


def test_sweep_rows_complete(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    rows = val.robustness_sweep({"init": spec}, [0.0, 180.0], j1_init=2e-2,
                                k_obstacle_insert=PDMS)
    assert len(rows) == 2
    assert {r["psi"] for r in rows} == {0.0, 180.0}
    for r in rows:
        assert r["j1_ratio"] == pytest.approx(r["j1"] / 2e-2)


def test_sweep_reuses_the_evaluated_mesh_and_reference(paper_geometry, cell_mesh,
                                                       monkeypatch):
    """A sweep of a design on the layout just evaluated builds no second
    fine mesh, and no tiled evaluation solves a reference field."""
    monkeypatch.setattr(val, "_FINE_MESHES", weakref.WeakValueDictionary(),
                        raising=False)
    builds, solves = [], []
    build_mesh, solve_state = val.build_macro_mesh, ms.solve_state
    monkeypatch.setattr(val, "build_macro_mesh",
                        lambda *a, **kw: builds.append(a) or build_mesh(*a, **kw))
    monkeypatch.setattr(ms, "solve_state",
                        lambda *a, **kw: solves.append(a) or solve_state(*a, **kw))
    init = make_spec(paper_geometry, cell_mesh)
    # an equal geometry in a new object, as every caller builds its own
    design = make_spec(dataclasses.replace(paper_geometry), cell_mesh,
                       pattern=("disk", 0.35))
    mesh = val.fine_mesh(init)
    j1_init, _, _ = val.evaluate_tiled(init, mesh)
    rows = val.robustness_sweep({"design": design}, [0.0, 90.0], j1_init, PDMS)
    assert len(rows) == 2
    assert (len(builds), len(solves)) == (1, 0)


def test_solved_fine_mesh_freed_without_the_cycle_collector(paper_geometry, cell_mesh):
    """Nothing a tiled solve caches on its mesh holds the mesh, so the
    mesh goes with its last outside reference."""
    spec = make_spec(paper_geometry, cell_mesh)
    gc.collect()        # so no earlier test's mesh of this layout is still around
    mesh = val.fine_mesh(spec)
    gc.disable()
    try:
        val.evaluate_tiled(spec, mesh)
        assert len(mesh.cache) >= 2    # structure, region operators
        released = weakref.ref(mesh)
        del mesh
        assert released() is None
    finally:
        gc.enable()


def test_fine_mesh_shared_only_while_held(paper_geometry, cell_mesh):
    mesh = val.fine_mesh(make_spec(paper_geometry, cell_mesh))
    other = make_spec(dataclasses.replace(paper_geometry), cell_mesh, pattern=("uniform", 1.0))
    assert val.fine_mesh(other) is mesh
    released = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert released() is None


def test_condensed_sweep_matches_direct_evaluations(paper_geometry, cell_mesh):
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    psi = [0.0, 90.0, 180.0, 270.0]
    rows = val.robustness_sweep({"design": spec}, psi, 1.0, PDMS)
    assert [r["psi"] for r in rows] == psi
    for r in rows:
        want, _, _ = val.evaluate_tiled(spec, mesh, val.ObstacleSpec(r["psi"], PDMS))
        assert r["j1"] == pytest.approx(want, rel=1e-10)


def test_sweep_condenses_each_design_once(paper_geometry, cell_mesh, monkeypatch):
    """Two designs at three angles: one condensation per design, freed
    before the next design's is built, and no factorization of the whole
    fine operator."""
    specs = {"a": make_spec(paper_geometry, cell_mesh),
             "b": make_spec(paper_geometry, cell_mesh, pattern=("disk", 0.35))}
    mesh = val.fine_mesh(specs["a"])
    n_free = ms.conduction_system(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)),
                                  specs["a"].bc).n_free
    built, factored = [], []
    factor = fem._factor

    class CountingCondensation(fem.Condensation):
        def __init__(self, *args):
            assert all(ref() is None for ref in built)
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(fem, "Condensation", CountingCondensation)
    monkeypatch.setattr(fem, "_factor",
                        lambda matrix, **kw: factored.append(matrix.shape[0])
                        or factor(matrix, **kw))
    gc.collect()
    gc.disable()
    try:
        rows = val.robustness_sweep(specs, [0.0, 120.0, 240.0], 1.0, PDMS)
    finally:
        gc.enable()
    assert len(rows) == 6 and len(built) == 2
    assert len(factored) == 2 + 6          # one K_GG per design, one reduced per angle
    assert max(factored) < n_free


def test_insert_schur_complement_matches_explicit(paper_geometry, cell_mesh, monkeypatch):
    """On a layout small enough for dense algebra, the insert still takes
    the solve route, and its S_I is the explicit Schur complement."""
    spec = make_spec(paper_geometry, cell_mesh, epsilon0=1.0)
    mesh = val.fine_mesh(spec)
    read = []
    monkeypatch.setattr(fem, "_interface_schur", lambda *a: read.append(a))
    c = val.sweep_condensation(spec, mesh, val.ObstacleSpec(0.0, PDMS)).condensation
    assert read == [] and len(c.i) > 0
    k = c.fixed_matrix.toarray()
    g, i = c.g, c.i
    want = k[np.ix_(i, i)] - k[np.ix_(i, g)] @ np.linalg.solve(k[np.ix_(g, g)], k[np.ix_(g, i)])
    got = c.schur.toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_evaluate_tiled_rejects_a_condensation_of_another_mesh(paper_geometry, cell_mesh):
    coarse = make_spec(paper_geometry, cell_mesh, epsilon0=1.0)
    other = val.fine_mesh(coarse)
    c = val.sweep_condensation(coarse, other, val.ObstacleSpec(0.0, PDMS))
    spec = make_spec(paper_geometry, cell_mesh, epsilon0=0.5)
    with pytest.raises(ValueError, match="another mesh"):
        val.evaluate_tiled(spec, val.fine_mesh(spec), val.ObstacleSpec(0.0, PDMS),
                           condensation=c)


def test_evaluate_tiled_rejects_a_condensation_of_another_design(paper_geometry, cell_mesh):
    a = make_spec(paper_geometry, cell_mesh)
    b = make_spec(paper_geometry, cell_mesh, pattern=("disk", 0.35))
    mesh = val.fine_mesh(a)
    c = val.sweep_condensation(a, mesh, val.ObstacleSpec(0.0, PDMS))
    with pytest.raises(ValueError, match="another design"):
        val.evaluate_tiled(b, mesh, val.ObstacleSpec(0.0, PDMS), condensation=c)


def test_condensed_angles_tile_only_the_insert(paper_geometry, cell_mesh, monkeypatch):
    """The whole structure is tiled once per design, for its condensation;
    each angle assembles the disk with exactly the conductivities that
    tiling the whole structure gives it."""
    spec = make_spec(paper_geometry, cell_mesh)
    psi = [0.0, 45.0, 200.0]
    tiled, assembled = [], []
    tile, assemble = val.tile_conductivity, fem.assemble_diffusion
    monkeypatch.setattr(val, "tile_conductivity",
                        lambda *a, **kw: tiled.append(1) or tile(*a, **kw))
    monkeypatch.setattr(fem, "assemble_diffusion",
                        lambda mesh, tensors, on=None: assembled.append((tensors, on))
                        or assemble(mesh, tensors, on))
    val.robustness_sweep({"design": spec}, psi, 1.0, PDMS)
    assert len(tiled) == 1 and len(assembled) == len(psi)
    mesh = val.fine_mesh(spec)
    for p, (tensors, on) in zip(psi, assembled):
        want = tile(spec, mesh, val.ObstacleSpec(p, PDMS))[on.element_ids]
        np.testing.assert_array_equal(tensors[:, 0, 0], want)


@pytest.mark.parametrize("fill", ["k_exterior", "k_obstacle"])
def test_sweep_rejects_a_non_spd_fill(paper_geometry, cell_mesh, fill):
    """The condensed sweep checks its tensors as the one-off tiled solve does."""
    spec = make_spec(paper_geometry, cell_mesh)
    spec = dataclasses.replace(spec, **{fill: -getattr(spec, fill)})
    with pytest.raises(ValueError, match="not SPD"):
        val.evaluate_tiled(spec)
    with pytest.raises(ValueError, match="not SPD"):
        val.robustness_sweep({"design": spec}, [0.0, 90.0], 1.0, PDMS)


@pytest.mark.parametrize("psi, k", [(np.nan, PDMS), (np.inf, PDMS), (0.0, np.nan),
                                    (0.0, np.inf), (0.0, 0.0), (0.0, -1.0)])
def test_obstacle_spec_rejects_bad_values(psi, k):
    with pytest.raises(ValueError, match="obstacle"):
        val.ObstacleSpec(psi_deg=psi, k=k)


def test_every_factorization_uses_the_supernode_constants(paper_geometry, cell_mesh,
                                                          monkeypatch):
    """Cell, ring, fixed-block, throwaway, one-off tiled and sweep
    factorizations all reach SuperLU through ``fem._factor``, with its
    relaxation and panel size."""
    calls = []
    splu = spla.splu

    def recording_splu(matrix, **kw):
        calls.append((matrix.shape[0], kw))
        return splu(matrix, **kw)

    monkeypatch.setattr(spla, "splu", recording_splu)
    scenario = optimizer.Scenario(geometry=paper_geometry, k_cell_a=COPPER, k_cell_b=PDMS,
                                  k_exterior=STEEL, k_obstacle=COPPER, max_iter=2,
                                  macro_h=0.25, cell_resolution=16)
    optimizer.run(scenario)
    optimize = len(calls)
    spec = make_spec(paper_geometry, cell_mesh)
    val.evaluate_tiled(spec)
    tiled = len(calls)
    val.robustness_sweep({"design": spec}, [0.0], 1.0, PDMS)
    # 16 cells, the throwaway K_FF, K_GG and 2 rings; one fine operator;
    # the sweep's K_GG and one reduced system
    assert (optimize, tiled - optimize, len(calls) - tiled) == (16 + 4, 1, 2)
    assert fem.SUPERNODE_RELAX <= fem.PANEL_SIZE
    for n, kw in calls:
        assert (kw.get("relax"), kw.get("panel_size")) == (
            fem.SUPERNODE_RELAX, fem.PANEL_SIZE), n
