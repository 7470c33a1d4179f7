import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cloakopt import fem, objectives, optimizer
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt import validation as val
from cloakopt.geometry import (REGION_OBSTACLE, MacroGeometry, UnitCellGeometry,
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


@pytest.mark.parametrize("r_obstacle", [0.0, 0.02, 0.04])
def test_sweep_refuses_an_insert_disk_without_elements(paper_geometry, cell_mesh, monkeypatch,
                                                       r_obstacle):
    """An insert disk that holds no element of the fine mesh (radius
    0.3 * r_obstacle under the 1/32 m elements of eps0 = 1/4) is refused
    by name before anything is factored, also when another design of the
    sweep has a disk."""
    empty = make_spec(MacroGeometry(5.0, 8.0, 1.35, r_obstacle), cell_mesh, epsilon0=0.25)
    designs = {"disk": make_spec(paper_geometry, cell_mesh, epsilon0=0.25), "empty": empty}
    factored = []
    monkeypatch.setattr(fem, "_factor", lambda *a, **kw: factored.append(a))
    radius = f"0.3 * r_obstacle = {0.3 * r_obstacle:.4g} m (r_obstacle = {r_obstacle:.4g} m)"
    with pytest.raises(ValueError) as raised:
        val.robustness_sweep(designs, [0.0, 90.0], 1.0, PDMS)
    assert radius in str(raised.value)
    assert "holds no element of the fine mesh (0.03125 m elements)" in str(raised.value)
    assert factored == []


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
    """J1, J2 and the whole temperature field of every condensed angle
    match the direct solve of the whole tiled operator."""
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    psi = [0.0, 90.0, 180.0, 270.0]
    rows = val.robustness_sweep({"design": spec}, psi, 1.0, PDMS)
    assert [r["psi"] for r in rows] == psi
    condensation = val.sweep_condensation(spec, mesh, val.ObstacleSpec(0.0, PDMS))
    for r in rows:
        obstacle = val.ObstacleSpec(r["psi"], PDMS)
        want_j1, want_j2, want_t = val.evaluate_tiled(spec, mesh, obstacle)
        j1, j2, temp = val.evaluate_tiled(spec, mesh, obstacle, condensation=condensation)
        assert r["j1"] == pytest.approx(want_j1, rel=1e-10)
        assert j1 == pytest.approx(want_j1, rel=1e-10)
        assert j2 == pytest.approx(want_j2, rel=1e-10)
        assert (np.abs(temp - want_t).max()
                <= 1e-10 * np.abs(want_t).max())


def test_sweep_angles_make_no_fixed_block_solve(paper_geometry, cell_mesh, monkeypatch):
    """The insert's build solves K_GG once per block of interface
    responses and once for the zero load, then frees the factor; no
    angle solves K_GG again. The responses are kept on full rows, zero
    off G."""
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = val.fine_mesh(spec)
    calls = []
    solve_g = fem.Condensation.solve_g
    monkeypatch.setattr(fem.Condensation, "solve_g",
                        lambda self, b: calls.append(np.shape(b)) or solve_g(self, b))
    c = val.sweep_condensation(spec, mesh, val.ObstacleSpec(0.0, PDMS))
    n_i, n_g = len(c.condensation.i), len(c.condensation.g)
    assert n_i > fem.RESPONSE_BLOCK
    assert len(calls) == -(-n_i // fem.RESPONSE_BLOCK) + 1
    assert sum(shape[1] for shape in calls[:-1]) == n_i and calls[-1] == (n_g,)
    n_free = c.condensation.constraints.n_free
    assert c.condensation.responses.shape == (n_free, n_i)
    off_g = np.ones(n_free, dtype=bool)
    off_g[c.condensation.g] = False
    assert not c.condensation.responses[off_g].any()
    calls.clear()
    for psi in (0.0, 90.0, 225.0):
        val.evaluate_tiled(spec, mesh, val.ObstacleSpec(psi, PDMS), condensation=c)
    assert calls == []


def test_insert_condensation_refuses_a_load_on_its_fixed_block(paper_geometry, cell_mesh):
    """With its K_GG factor freed, an insert condensation solves the
    zero load, as the direct solve does, and refuses every load before
    solving, homogeneous or not, even one that vanishes on G; ``solve_g``
    raises instead of returning its input."""
    spec = make_spec(paper_geometry, cell_mesh, epsilon0=0.5)
    mesh = val.fine_mesh(spec)
    obstacle = val.ObstacleSpec(45.0, PDMS)
    c = val.sweep_condensation(spec, mesh, obstacle).condensation
    k = val.tile_conductivity(spec, mesh, obstacle)
    fact = c.factor(fem.isotropic_tensors(k[c.varying_elements]))
    direct = fem.Factorization(ms.conduction_system(mesh, fem.isotropic_tensors(k), spec.bc))
    node_of = np.full(c.constraints.n_free, -1)
    free = np.flatnonzero(c.constraints.dof_of_node >= 0)
    node_of[c.constraints.dof_of_node[free]] = free
    on_insert = np.zeros(mesh.n_nodes)
    on_insert[node_of[c.reduced_dofs]] = np.linspace(1.0, 2.0, len(c.reduced_dofs))
    want = direct.solve()
    assert np.abs(fact.solve() - want).max() <= 1e-10 * np.abs(want).max()
    on_g = on_insert.copy()
    on_g[node_of[c.g[len(c.g) // 2]]] = 1.0
    for load in (on_insert, on_g):
        for homogeneous in (False, True):
            with pytest.raises(ValueError, match="solves the zero load"):
                fact.solve(load, homogeneous=homogeneous)
    with pytest.raises(ValueError, match="factor is freed"):
        c.solve_g(np.ones(len(c.g)))


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
    """On a layout small enough for dense algebra, the insert forms S_I
    from the interface responses it keeps, not off a throwaway factor, and
    its S_I is the explicit Schur complement."""
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
    responses = np.linalg.solve(k[np.ix_(g, g)], k[np.ix_(g, i)])
    assert np.abs(c.responses[g] - responses).max() <= 1e-12 * np.abs(responses).max()


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
    tile, factor = val.tile_conductivity, fem.Condensation.factor
    monkeypatch.setattr(val, "tile_conductivity",
                        lambda *a, **kw: tiled.append(1) or tile(*a, **kw))
    monkeypatch.setattr(fem.Condensation, "factor",
                        lambda self, tensors: assembled.append((tensors, self.varying_elements))
                        or factor(self, tensors))
    val.robustness_sweep({"design": spec}, psi, 1.0, PDMS)
    assert len(tiled) == 1 and len(assembled) == len(psi)
    mesh = val.fine_mesh(spec)
    for p, (tensors, insert) in zip(psi, assembled):
        want = tile(spec, mesh, val.ObstacleSpec(p, PDMS))[insert]
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
    relaxation and panel size and its one pivoting policy: diagonal pivots
    in symmetric mode."""
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
        assert (kw.get("diag_pivot_thresh"), kw.get("options")) == (
            0.0, {"SymmetricMode": True}), n


def test_the_reference_ramp_is_computed_once_per_mesh(paper_geometry, cell_mesh,
                                                      monkeypatch):
    """The fine mesh caches its reference ramp: a direct evaluation and two
    designs at three angles build it once, and every angle's J1 is the
    mismatch against a ramp computed afresh, bit for bit."""
    monkeypatch.setattr(val, "_FINE_MESHES", weakref.WeakValueDictionary())
    specs = {"a": make_spec(paper_geometry, cell_mesh),
             "b": make_spec(paper_geometry, cell_mesh, pattern=("disk", 0.35))}
    psi = [0.0, 120.0, 240.0]
    mesh = val.fine_mesh(specs["a"])
    built = []
    cached = fem.cached
    monkeypatch.setattr(fem, "cached", lambda m, key, build: cached(
        m, key, lambda: built.append(key) or build()))
    val.evaluate_tiled(specs["a"], mesh)
    rows = val.robustness_sweep(specs, psi, 1.0, PDMS)
    monkeypatch.undo()
    bc = specs["a"].bc
    assert [key for key in built if key[0] == "reference"] == [
        ("reference", bc.t_low, bc.t_high)]
    # a copy of the mesh has an empty cache, so its ramp is computed afresh
    reference = ms.reference_field(dataclasses.replace(mesh), bc)
    assert reference is not ms.reference_field(mesh, bc)
    for name, spec in specs.items():
        c = val.sweep_condensation(spec, mesh, val.ObstacleSpec(0.0, PDMS))
        for p, row in zip(psi, [r for r in rows if r["design"] == name], strict=True):
            temp = val.evaluate_tiled(spec, mesh, val.ObstacleSpec(p, PDMS), condensation=c)[2]
            assert row["j1"] == objectives.mismatch(temp, reference, mesh)


def test_a_fine_mesh_builds_its_fixed_edge_structure_once(paper_geometry, cell_mesh,
                                                          structures_built):
    """A direct tiled evaluation, the sweep's condensation, its condensed
    angles and both objectives of one fine mesh read one slot table,
    built once and cached on the mesh."""
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = build_macro_mesh(spec.geometry, spec.epsilon0 / val.ELEMENTS_PER_CELL,
                            allow_oversize=True)
    val.evaluate_tiled(spec, mesh)
    obstacle = val.ObstacleSpec(0.0, PDMS)
    c = val.sweep_condensation(spec, mesh, obstacle)
    val.evaluate_tiled(spec, mesh, obstacle, condensation=c)
    assert len(structures_built) == 1 and structures_built[0] is mesh
    assert [key for key, value in mesh.cache.items()
            if isinstance(value, fem.Structure)] == ["structure"]


def mirrored_random_phis(cell_mesh, seed=3):
    """Cells 1-4 smooth random periodic fields, cells 5-8 their reflections."""
    rng = np.random.default_rng(seed)
    x, y = cell_mesh.nodes.T
    design = []
    for _ in range(4):
        g = np.full(cell_mesh.n_nodes, rng.uniform(-0.3, 0.3))
        for _ in range(3):
            kx, ky = rng.integers(1, 5, size=2)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
            g += rng.uniform(0.3, 1.0) * (np.sin(2 * np.pi * kx * x + ph[0])
                                          * np.sin(2 * np.pi * ky * y + ph[1]))
        g[cell_mesh.periodic_pairs[:, 1]] = g[cell_mesh.periodic_pairs[:, 0]]
        design.append(g / np.abs(g).max())
    return [ls.LevelSetField(phi=phi, mesh=cell_mesh, cell_index=l, d=0.01)
            for l, phi in enumerate(optimizer.mirrored(cell_mesh, design), start=1)]


@pytest.fixture
def half_solves(monkeypatch):
    """A list that grows by one entry per tiled solve on the x >= 0 half."""
    calls = []
    system = ms.mirrored_conduction_system
    monkeypatch.setattr(ms, "mirrored_conduction_system",
                        lambda *a, **kw: calls.append(a) or system(*a, **kw))
    return calls


def whole_state(spec, mesh, obstacle=None):
    """The direct solve of the whole tiled operator."""
    k = val.tile_conductivity(spec, mesh, obstacle)
    return fem.Factorization(ms.conduction_system(mesh, fem.isotropic_tensors(k),
                                                  spec.bc)).solve()


@pytest.mark.parametrize("epsilon0", [1.0 / 9.0, 1.0 / 18.0], ids=["eps-1/9", "eps-1/18"])
def test_a_mirrored_design_is_solved_on_the_half(paper_geometry, cell_mesh, half_solves,
                                                 epsilon0):
    """The disk seed at both transition widths and a mirrored random
    design at d = 0.01 (between edge temperatures 0.2 and 1.5) are solved
    on the x >= 0 half, and their J1, J2 and temperatures match the whole
    operator's direct solve to rel 1e-9."""
    specs = {f"disk d={d}": dataclasses.replace(make_spec(paper_geometry, cell_mesh,
                                                          epsilon0=epsilon0), d=d)
             for d in (0.2, 0.01)}
    specs["random d=0.01"] = dataclasses.replace(
        make_spec(paper_geometry, cell_mesh, epsilon0=epsilon0),
        phis=mirrored_random_phis(cell_mesh), d=0.01, bc=BoundaryData(0.2, 1.5))
    mesh = val.fine_mesh(specs["disk d=0.2"])
    for name, spec in specs.items():
        reference = ms.reference_field(mesh, spec.bc)
        j1, j2, temp = val.evaluate_tiled(spec, mesh)
        assert len(half_solves) == 1, name
        half_solves.clear()
        want = whole_state(spec, mesh)
        want_j1 = objectives.mismatch(want, reference, mesh)
        want_j2 = objectives.gradient_energy(want, mesh)
        assert j1 == pytest.approx(want_j1, rel=1e-9), name
        assert j2 == pytest.approx(want_j2, rel=1e-9), name
        assert np.abs(temp - want).max() <= 1e-9 * np.abs(want).max(), name


def unmirrored(spec):
    phis = list(spec.phis)
    phis[-1] = ls.initialize(phis[0].mesh, ("disk", 0.35), cell_index=8)
    return dataclasses.replace(spec, phis=phis)


def on_two_cell_meshes(spec):
    """Cells 5-8 on a second, equal cell mesh."""
    other = dataclasses.replace(spec.phis[0].mesh)
    return dataclasses.replace(spec, phis=[*spec.phis[:4], *(
        dataclasses.replace(f, mesh=other) for f in spec.phis[4:])])


@pytest.mark.parametrize("case", ["unmirrored", "two-cell-meshes", "obstacle", "odd-columns"])
def test_other_structures_take_the_whole_operator(paper_geometry, cell_mesh, half_solves,
                                                  case):
    """A spec that is not mirrored (a changed cell, or cells on two mesh
    objects), any obstacle, and a fine mesh with an odd column count
    (eps0 = 0.3: 133 columns) are solved on the whole operator: bit for
    bit its direct solve."""
    spec = make_spec(paper_geometry, cell_mesh, epsilon0=0.3 if case == "odd-columns" else 0.25)
    spec = {"unmirrored": unmirrored, "two-cell-meshes": on_two_cell_meshes}.get(
        case, lambda s: s)(spec)
    obstacle = val.ObstacleSpec(90.0, PDMS) if case == "obstacle" else None
    mesh = val.fine_mesh(spec)
    assert (mesh.structured_shape[0] == 133) == (case == "odd-columns")
    _, _, temp = val.evaluate_tiled(spec, mesh, obstacle)
    assert half_solves == []
    np.testing.assert_array_equal(temp, whole_state(spec, mesh, obstacle))


def test_the_half_solve_caches_nothing_new_on_the_mesh(paper_geometry, cell_mesh,
                                                      half_solves, structures_built):
    """A half solve reads the fine mesh's one slot table and caches nothing
    that a whole solve does not: no second structure, constraints or mesh."""
    spec = make_spec(paper_geometry, cell_mesh)
    mesh = build_macro_mesh(spec.geometry, spec.epsilon0 / val.ELEMENTS_PER_CELL,
                            allow_oversize=True)
    val.evaluate_tiled(spec, mesh)
    assert len(half_solves) == 1
    assert structures_built == [mesh]
    whole = dataclasses.replace(mesh)
    val.evaluate_tiled(unmirrored(spec), whole)
    assert len(half_solves) == 1 and len(structures_built) == 2
    assert set(mesh.cache) < set(whole.cache)
