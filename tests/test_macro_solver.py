import numpy as np
import pytest
import scipy.sparse as sp

from cloakopt import fem, geometry
from cloakopt import homogenization as hom
from cloakopt import objectives
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt.geometry import (GAMMA_A, GAMMA_B, REGION_EXTERIOR, REGION_OBSTACLE,
                               SECTOR_FIRST, SECTOR_LAST, MacroGeometry, UnitCellGeometry,
                               build_cell_mesh, build_macro_mesh)
from cloakopt.macro_solver import BoundaryData, MacroMaterialMap

from conftest import COPPER, PDMS, STEEL, SlotTable, edge_reaction


@pytest.fixture(scope="module")
def bc():
    return BoundaryData(0.0, 1.0)


@pytest.fixture(scope="module")
def steel_field(macro_mesh, bc):
    return ms.reference_field(macro_mesh, bc)


@pytest.fixture(scope="module")
def oversize_mesh():
    """A tiling layout whose ring covers the whole domain."""
    return build_macro_mesh(MacroGeometry(lx=2.0, ly=2.0, r_ring=5.0, r_obstacle=0.3),
                            0.05, allow_oversize=True)


@pytest.mark.parametrize("k", [STEEL, 1.0])
@pytest.mark.parametrize("t_low, t_high", [(0.0, 1.0), (0.5, 2.0)])
@pytest.mark.parametrize("mesh_name", ["macro_mesh", "oversize_mesh"])
def test_uniform_steel_is_linear_profile(mesh_name, t_low, t_high, k, request):
    """The closed-form reference is the direct solve of any uniform plate."""
    mesh = request.getfixturevalue(mesh_name)
    bc = BoundaryData(t_low, t_high)
    ramp = ms.reference_field(mesh, bc)
    direct = ms.solve_state(mesh, ms.ring_filled_map(k, k, k), bc)
    assert np.abs(ramp - direct).max() <= 1e-10
    assert np.all(ramp[np.unique(mesh.boundary_edges["gamma_a"])] == t_low)
    assert np.all(ramp[np.unique(mesh.boundary_edges["gamma_b"])] == t_high)


def test_reference_field_is_one_read_only_ramp_per_edge_values(coarse_macro_mesh):
    """Equal edge values share one cached ramp, which refuses writes;
    other edge values get their own."""
    ramp = ms.reference_field(coarse_macro_mesh, BoundaryData(0.0, 1.0))
    assert ms.reference_field(coarse_macro_mesh, BoundaryData(0.0, 1.0)) is ramp
    assert not ramp.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ramp[0] = 0.5
    other = ms.reference_field(coarse_macro_mesh, BoundaryData(0.5, 2.0))
    assert other is not ramp and not np.shares_memory(other, ramp)
    assert (other[0], other[-1]) == (0.5, 2.0)


def assert_identical(got, want):
    """Two sparse matrices of one format with the same pattern and the
    same data, bit for bit."""
    for attr in ("format", "shape", "indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr), err_msg=attr)


@pytest.mark.parametrize("mesh_of, bc, weight", [
    (lambda g: build_macro_mesh(g, 0.25, half=True), BoundaryData(0.5, 1.0), 2.0),
    (lambda g: build_macro_mesh(g, 1.0 / 16, allow_oversize=True), BoundaryData(0.2, 1.5), 1.0),
], ids=["half-macro", "fine"])
def test_mesh_table_operators_match_per_region_and_per_constraint_tables(
        paper_geometry, mesh_of, bc, weight):
    """Both objective regions' operators, the fixed-edge system and a
    condensation's fixed part, read from the mesh's one slot table, equal
    those of a reference slot table built per region or per constraint
    set, bit for bit: on the half macro mesh (mirror weight 2, the mean
    temperature on the mirror line) and on a small tiled fine mesh. The
    region operators and the fixed part are kept in CSR, for their
    mat-vecs, and equal the reference converted exactly."""
    mesh = mesh_of(paper_geometry)
    assert mesh.mirror_half == (weight == 2.0)
    none = fem.Constraints.none(mesh.n_nodes)
    exterior = np.flatnonzero(mesh.region_mask(REGION_EXTERIOR))
    obstacle = np.flatnonzero(mesh.region_mask(REGION_OBSTACLE))
    m_e, a_c = objectives.region_operators(mesh)
    assert_identical(m_e, SlotTable(mesh, none, exterior).matrix(
        weight * fem.element_mass(mesh, elements=exterior)).tocsr())
    assert_identical(a_c, SlotTable(mesh, none, obstacle).matrix(
        weight * fem.element_stiffness(mesh, fem.isotropic_tensors(np.ones(len(obstacle))),
                                       obstacle)).tocsr())

    rng = np.random.default_rng(21)
    tensors = rng.uniform(0.5, 5.0, (mesh.n_elements, 1, 1)) * np.eye(2)
    tensors[:, 0, 1] = tensors[:, 1, 0] = 0.2
    ke = fem.element_stiffness(mesh, tensors)
    reference = SlotTable(mesh, ms._fixed_edges(mesh, bc))
    system = ms.conduction_system(mesh, tensors, bc)
    assert_identical(system.matrix, reference.matrix(ke))
    np.testing.assert_array_equal(system.lift, reference.lift(ke))

    ring = (mesh.element_region >= SECTOR_FIRST) & (mesh.element_region <= SECTOR_LAST)
    condensed = ms.condensed_conduction(mesh, tensors, ring, bc)
    ke[ring] = 0.0
    assert_identical(condensed.fixed_matrix, reference.matrix(ke).tocsr())
    np.testing.assert_array_equal(condensed.zero_load, -reference.lift(ke))


@pytest.mark.parametrize("bc", [BoundaryData(0.0, 1.0), BoundaryData(0.2, 1.5)])
def test_the_mirrored_half_of_a_whole_mesh_is_the_half_meshs_system(paper_geometry, bc):
    """Reduced onto the x >= 0 half of the whole mesh's slot table, with
    the mirror line at the mean edge temperature and the nodes left of it
    eliminated, conduction is the half mesh's fixed-edge system under
    (mean, t_high), bit for bit."""
    mesh = build_macro_mesh(paper_geometry, 0.125, allow_oversize=True)
    half = build_macro_mesh(paper_geometry, 0.125, half=True)
    line, first, _ = geometry.mirror_line(mesh)
    rng = np.random.default_rng(5)
    tensors = rng.uniform(0.5, 5.0, (half.n_elements, 1, 1)) * np.eye(2)
    tensors[:, 0, 1] = tensors[:, 1, 0] = 0.2
    got = ms.mirrored_conduction_system(mesh, tensors, bc, line, first)
    want = ms.conduction_system(half, tensors,
                                BoundaryData(0.5 * (bc.t_low + bc.t_high), bc.t_high))
    assert_identical(got.matrix, want.matrix)
    np.testing.assert_array_equal(got.lift, want.lift)
    assert not (got.constraints.dof_of_node[:line + half.structured_shape[1] + 1] >= 0).any()
    np.testing.assert_array_equal(got.constraints.fixed_values[line:],
                                  want.constraints.fixed_values)


def test_the_mesh_table_reduces_only_eliminations(coarse_macro_mesh):
    """A periodic fold or a renumbering is no gather of the mesh's table."""
    mesh = coarse_macro_mesh
    tensors = fem.isotropic_tensors(np.ones(mesh.n_elements))
    none = fem.Constraints.none(mesh.n_nodes)
    reversed_order = fem.Constraints(none.dof_of_node[::-1].copy(), none.fixed_values)
    with pytest.raises(ValueError, match="eliminate nodes"):
        fem.assemble_diffusion(mesh, tensors, reversed_order)


@pytest.mark.parametrize("count", [7, 9])
def test_material_map_refuses_a_sector_tensor_count_other_than_8(count):
    with pytest.raises(ValueError, match=f"one tensor per sector \\(8\\), got {count}"):
        MacroMaterialMap([STEEL * np.eye(2)] * count, k_exterior=STEEL, k_obstacle=STEEL)


def test_sector_tensors_equal_steel_reproduces_reference(macro_mesh, bc, steel_field):
    matmap = MacroMaterialMap([STEEL * np.eye(2)] * 8,
                              k_exterior=STEEL, k_obstacle=STEEL)
    field = ms.solve_state(macro_mesh, matmap, bc)
    assert np.abs(field - steel_field).max() < 1e-12


def test_initial_structure_objectives_near_published(macro_mesh, bc, steel_field):
    cell = build_cell_mesh(UnitCellGeometry(64))
    f = ls.initialize(cell, ("disk", 0.25), d=0.2)
    mat = hom.material_from_levelset(f, COPPER, PDMS)
    tensor, _, _ = hom.homogenize(cell, mat)
    matmap = MacroMaterialMap([tensor] * 8, k_exterior=STEEL, k_obstacle=COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    j1, j2 = ms.evaluate_objectives(temp, steel_field, macro_mesh)
    assert 2.22e-2 / 2 < j1 < 2.22e-2 * 2
    assert 1.4e-3 / 2 < j2 < 1.4e-3 * 2


def test_copper_ring_objective_scale(macro_mesh, bc, steel_field):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    j1, _ = ms.evaluate_objectives(temp, steel_field, macro_mesh)
    assert 1e-3 < j1 < 1e-1


def test_state_flux_balance_and_bounds(macro_mesh, bc):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    ke = fem.element_stiffness(macro_mesh, matmap.element_tensors(macro_mesh))
    fa, fb = (edge_reaction(macro_mesh, ke, temp, tag) for tag in (GAMMA_A, GAMMA_B))
    assert abs(fa + fb) / max(abs(fa), abs(fb)) < 1e-8
    assert ms.temperature_bounds_violation(temp, bc) <= 1e-6


def direct_factorization(mesh, matmap, bc):
    return fem.Factorization(ms.state_system(mesh, matmap, bc))


def test_adjoint_zero_when_state_matches_reference(macro_mesh, bc, steel_field):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(STEEL, STEEL, STEEL), bc)
    v = ms.solve_adjoint(fact, macro_mesh, {"j1": 1.0}, steel_field, steel_field)
    assert np.abs(v).max() < 1e-12


def test_adjoint_j2_zero_for_flat_interior(macro_mesh, bc):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(STEEL, STEEL, STEEL), bc)
    flat = np.full(macro_mesh.n_nodes, 0.25)
    v = ms.solve_adjoint(fact, macro_mesh, {"j2": 1.0}, flat)
    assert np.abs(v).max() < 1e-12


def test_adjoint_vanishes_on_fixed_edges(macro_mesh, bc, steel_field):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(COPPER, STEEL, COPPER), bc)
    temp = fact.solve()
    v = ms.solve_adjoint(fact, macro_mesh, {"j1": 1.0}, temp, steel_field)
    for tag in ("gamma_a", "gamma_b"):
        nodes = np.unique(macro_mesh.boundary_edges[tag])
        assert np.abs(v[nodes]).max() == 0.0


def test_adjoint_load_scaling_linearity(macro_mesh, steel_field, bc):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    base = ms.adjoint_load(macro_mesh, {"j2": 1.0}, temp)
    scaled_state = 3.0 * temp
    np.testing.assert_allclose(ms.adjoint_load(macro_mesh, {"j2": 1.0}, scaled_state),
                               3.0 * base, rtol=1e-9,
                               atol=1e-12 * np.abs(base).max())


def test_adjoint_load_is_the_weighted_sum(macro_mesh, steel_field, bc):
    temp = ms.solve_state(macro_mesh, ms.ring_filled_map(COPPER, STEEL, COPPER), bc)
    l1, l2 = (ms.adjoint_load(macro_mesh, {k: 1.0}, temp, steel_field) for k in ("j1", "j2"))
    np.testing.assert_allclose(
        ms.adjoint_load(macro_mesh, {"j1": 0.3, "j2": 0.7}, temp, steel_field),
        0.3 * l1 + 0.7 * l2, rtol=1e-15, atol=0.0)
    for bad in ({}, {"j3": 1.0}):
        with pytest.raises(ValueError, match="j1 and/or j2"):
            ms.adjoint_load(macro_mesh, bad, temp, steel_field)


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        BoundaryData(1.0, 1.0).validate()
    with pytest.raises(ValueError):
        BoundaryData(np.nan, 1.0).validate()


def test_export_fields_writes_vtk(tmp_path, macro_mesh, bc, steel_field):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    out = tmp_path / "fields.vtk"
    ms.export_fields(out, macro_mesh, temp, steel_field, matmap)
    text = out.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert "SCALARS T_sub" in text
    assert "VECTORS flux" in text


def anisotropic_map():
    tensors = []
    for l in range(1, 9):
        th = np.radians(20.0 * l)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        tensors.append(r @ np.diag([300.0 / l, 0.2 * l]) @ r.T)
    return MacroMaterialMap(tensors, k_exterior=STEEL, k_obstacle=COPPER)


@pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
def test_element_tensors_are_the_per_region_assignment(paper_geometry, half):
    """The one table of region tensors gives, bit for bit, one masked
    assignment per region, on the whole mesh and on its x >= 0 half, and
    read through ``elements`` the state's ring is its sectors' matrices."""
    mesh = build_macro_mesh(paper_geometry, 0.25, half=half)
    matmap = anisotropic_map()
    want = np.zeros((mesh.n_elements, 2, 2))
    want[mesh.region_mask(REGION_EXTERIOR)] = STEEL * np.eye(2)
    want[mesh.region_mask(REGION_OBSTACLE)] = COPPER * np.eye(2)
    for l, mat in enumerate(matmap.sector_matrices(), start=SECTOR_FIRST):
        want[mesh.region_mask(l)] = mat
    assert np.array_equal(matmap.element_tensors(mesh), want)
    ring = ms.state_factorization(mesh, matmap, BoundaryData()).condensation.varying_elements
    assert np.array_equal(matmap.element_tensors(mesh, ring),
                          matmap.sector_matrices()[mesh.element_region[ring] - SECTOR_FIRST])


def relative_difference(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("mesh_name", ["coarse_macro_mesh", "macro_mesh"])
def test_condensed_solves_match_the_direct_factorization(mesh_name, request):
    """State (with its Dirichlet lift) and homogeneous adjoint loads of
    each objective and of a weighted sum."""
    mesh = request.getfixturevalue(mesh_name)
    bc = BoundaryData(0.5, 2.0)
    matmap = anisotropic_map()
    condensed = ms.state_factorization(mesh, matmap, bc)
    direct = direct_factorization(mesh, matmap, bc)
    state = direct.solve()
    assert relative_difference(condensed.solve(), state) <= 1e-12

    temp = state
    reference = ms.reference_field(mesh, bc)
    for weights in ({"j1": 1.0}, {"j2": 1.0}, {"j1": 0.3, "j2": 0.7}):
        load = ms.adjoint_load(mesh, weights, temp, reference)
        want = direct.solve(load, homogeneous=True)
        assert relative_difference(condensed.solve(load, homogeneous=True), want) <= 1e-12
        v = ms.solve_adjoint(condensed, mesh, weights, temp, reference)
        assert relative_difference(v, want) <= 1e-12


def isotropic_map():
    tensors = [k * np.eye(2) for k in (3.0, 50.0, 0.4, 200.0, 7.0, 1.0, 90.0, 12.0)]
    return MacroMaterialMap(tensors, k_exterior=STEEL, k_obstacle=COPPER)


@pytest.mark.parametrize("maps", [[anisotropic_map], [isotropic_map],
                                  [isotropic_map, anisotropic_map]],
                         ids=["anisotropic", "isotropic", "isotropic-then-anisotropic"])
def test_ordered_condensation_matches_the_direct_solve(paper_geometry, maps):
    """The ring's numbering is fixed when the condensation is built, for
    the first tensors it sees; it must also hold for later ones, whose
    k12 fills the hypotenuse slots that an isotropic ring leaves at zero."""
    mesh = build_macro_mesh(paper_geometry, 0.125)     # its own cache: built for maps[0]
    bc = BoundaryData(0.5, 2.0)
    patterns = []
    for make in maps:
        matmap = make()
        fact = ms.state_factorization(mesh, matmap, bc)
        assert fact.reduced.system.ordered
        want = ms.solve_state(mesh, matmap, bc)
        assert relative_difference(fact.solve(), want) <= 1e-12
        patterns.append(fact.reduced.system.matrix.indices)
    assert sum(key[0] == "condensed state" for key in mesh.cache) == 1
    assert all(np.array_equal(p, patterns[0]) for p in patterns)


def test_ordered_condensation_lifts_a_ring_on_the_fixed_edges(paper_geometry):
    """With r_ring = lx/2 ring elements touch the Dirichlet edges, so the
    varying part carries a lift of its own."""
    geometry = MacroGeometry(lx=paper_geometry.lx, ly=paper_geometry.ly,
                             r_ring=paper_geometry.lx / 2, r_obstacle=paper_geometry.r_obstacle)
    mesh = build_macro_mesh(geometry, 0.0625)
    bc = BoundaryData(0.5, 2.0)
    matmap = anisotropic_map()
    fact = ms.state_factorization(mesh, matmap, bc)
    assert np.count_nonzero(fact.varying.lift) > 0
    direct = fem.Factorization(ms.state_system(mesh, matmap, bc))
    assert relative_difference(fact.solve(), direct.solve()) <= 1e-12
    load = np.linspace(-1.0, 1.0, mesh.n_nodes)
    assert relative_difference(fact.solve(load, homogeneous=True),
                               direct.solve(load, homogeneous=True)) <= 1e-12


@pytest.mark.parametrize("keep_responses", [False, True])
def test_interface_schur_complement_matches_explicit(coarse_macro_mesh, keep_responses):
    """Both ways of forming S_I: read off the throwaway K_FF factor, and
    from the interface responses kept in place of the K_GG factor."""
    mesh = coarse_macro_mesh
    region = mesh.element_region
    ring = (region >= 1) & (region <= 8)
    c = ms.condensed_conduction(mesh, anisotropic_map().element_tensors(mesh), ring,
                                BoundaryData(), keep_responses)
    assert (c.responses is not None) == keep_responses
    k = c.fixed_matrix.toarray()
    g, i = c.g, c.i
    want = k[np.ix_(i, i)] - k[np.ix_(i, g)] @ np.linalg.solve(k[np.ix_(g, g)], k[np.ix_(g, i)])
    assert len(i) > 0
    assert relative_difference(c.schur.toarray(), want) <= 1e-12


def test_ring_assembly_is_the_slot_assembly_plus_the_condensed_block(coarse_macro_mesh):
    """The ring's ScaledAssembly, whose constant is the condensed fixed
    block C, against element matrices assembled on a reference slot table
    in its numbering plus C formed from the fixed operator and S_I; its
    numbering covers I and R once each."""
    mesh = coarse_macro_mesh
    region = mesh.element_region
    ring = (region >= 1) & (region <= 8)
    c = ms.condensed_conduction(mesh, anisotropic_map().element_tensors(mesh), ring,
                                BoundaryData())
    a = c.assembly
    np.testing.assert_array_equal(c.varying_elements, np.flatnonzero(ring))
    on = SlotTable(mesh, a.constraints, c.varying_elements)
    r = c.constraints.dof_of_node[mesh.elements[ring]]
    np.testing.assert_array_equal(np.sort(c.reduced_dofs), np.union1d(c.i, r[r >= 0]))

    p = c.reduced_dofs
    position = np.empty(c.constraints.n_free, dtype=int)
    position[p] = np.arange(len(p))
    constant = c.fixed_matrix[p][:, p].toarray()
    constant[np.ix_(position[c.i], position[c.i])] = c.schur.toarray()
    scales = np.random.default_rng(5).uniform(0.5, 2.0, (len(c.varying_elements), 3))
    ke = np.einsum("ec,ecij->eij", scales, fem.tensor_components(mesh, c.varying_elements))
    want = on.matrix(ke) + sp.csc_matrix(constant)
    system = a.system(scales)
    assert system.ordered and system.constraints is a.constraints
    got = system.matrix
    got.data += a.constant
    assert abs(got - want).max() <= 1e-13 * abs(want).max()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)


@pytest.mark.parametrize("mesh_name", ["coarse_macro_mesh", "macro_mesh"])
def test_macro_ring_reads_the_schur_complement_off_a_throwaway_factor(mesh_name, request,
                                                                     monkeypatch):
    mesh = request.getfixturevalue(mesh_name)
    read = []
    schur = fem._interface_schur
    monkeypatch.setattr(fem, "_interface_schur", lambda *a: read.append(a) or schur(*a))
    region = mesh.element_region
    ring = (region >= 1) & (region <= 8)
    ms.condensed_conduction(mesh, anisotropic_map().element_tensors(mesh), ring, BoundaryData())
    assert len(read) == 1


def test_ring_of_a_wide_plate_keeps_its_factor_for_loads_on_the_fixed_block(monkeypatch):
    """On a plate ~4x the paper's with the paper's ring, whose interface is
    small against its fixed block, the optimizer's half-mesh ring still
    reads S_I off a throwaway factor and keeps the K_GG factor (the
    condensation's mode decides, not the interface's size): the adjoint's
    load on the exterior and obstacle (G) solves as the direct
    factorization's homogeneous solve does."""
    geometry = MacroGeometry(lx=20.0, ly=32.0, r_ring=1.35, r_obstacle=0.4)
    mesh = build_macro_mesh(geometry, 0.25, half=True)
    read = []
    schur = fem._interface_schur
    monkeypatch.setattr(fem, "_interface_schur", lambda *a: read.append(a) or schur(*a))
    bc, matmap = BoundaryData(0.5, 2.0), anisotropic_map()
    condensed = ms.state_factorization(mesh, matmap, bc)
    c = condensed.condensation
    assert len(read) == 1 and len(c.i) > 0
    assert c.responses is None
    direct = direct_factorization(mesh, matmap, bc)
    state = direct.solve()
    assert relative_difference(condensed.solve(), state) <= 1e-12
    load = ms.adjoint_load(mesh, {"j1": 0.3, "j2": 0.7}, state,
                           ms.reference_field(mesh, bc))
    assert c.constraints.restrict(load)[c.g].any()
    want = direct.solve(load, homogeneous=True)
    assert relative_difference(condensed.solve(load, homogeneous=True), want) <= 1e-12


def test_system_load_reuses_its_fixed_block_solve(paper_geometry, monkeypatch):
    """The condensation solves K_GG for the zero load once, at its build.
    Each state solve of every varying part then makes 1 K_GG solve and
    each adjoint solve 2."""
    mesh = build_macro_mesh(paper_geometry, 0.25)     # its own cache: the build is seen
    calls = []
    solve_g = fem.Condensation.solve_g
    monkeypatch.setattr(fem.Condensation, "solve_g",
                        lambda self, b: calls.append(len(b)) or solve_g(self, b))
    matmap, bc = anisotropic_map(), BoundaryData(0.5, 2.0)
    condensation = ms.state_factorization(mesh, matmap, bc).condensation
    assert len(calls) == 1          # the ring reads S_I off a throwaway factor
    load = np.ones(mesh.n_nodes)
    for scale in (1.0, 1.5):
        matmap.sector_tensors = [scale * t for t in anisotropic_map().sector_tensors]
        fact = ms.state_factorization(mesh, matmap, bc)
        assert fact.condensation is condensation
        calls.clear()
        fact.solve()
        assert len(calls) == 1
        fact.solve(load, homogeneous=True)
        assert len(calls) == 3


def test_corrupted_reduced_system_fails_the_full_residual(paper_geometry):
    mesh = build_macro_mesh(paper_geometry, 0.25)     # its own cache, corrupted below
    matmap, bc = anisotropic_map(), BoundaryData()
    c = ms.state_factorization(mesh, matmap, bc).condensation
    c.assembly.constant = c.assembly.constant * 1.01
    fact = ms.state_factorization(mesh, matmap, bc)
    fact.reduced.solve_free(np.ones(len(c.reduced_dofs)))   # the reduced solve itself holds
    with pytest.raises(fem.SolverError, match="residual"):
        fact.solve()


def ring_condensation(mesh, keep_responses):
    """The ring of ``mesh`` condensed in either mode, and the ring's
    sector tensors in the order of its varying elements."""
    ring = (mesh.element_region >= SECTOR_FIRST) & (mesh.element_region <= SECTOR_LAST)
    matmap = anisotropic_map()
    c = ms.condensed_conduction(mesh, matmap.element_tensors(mesh), ring,
                                BoundaryData(0.5, 2.0), keep_responses)
    return c, matmap.sector_matrices()[mesh.element_region[c.varying_elements] - SECTOR_FIRST]


@pytest.mark.parametrize("keep_responses", [False, True])
@pytest.mark.parametrize("mesh_name", ["coarse_macro_mesh", "oversize_mesh"])
def test_the_zero_load_formed_at_the_build_is_an_explicit_zero_load(mesh_name, keep_responses,
                                                                  request):
    """The zero load's full and reduced right-hand sides, formed once at
    the build, solve as an explicit zero load on a direct factorization of
    the same operator does, in both modes and for two varying parts: on
    the macro ring, and on a ring that covers the domain, whose fixed
    edges lift its varying block."""
    mesh = request.getfixturevalue(mesh_name)
    c, tensors = ring_condensation(mesh, keep_responses)
    assert (c.responses is not None) == keep_responses and len(c.g) and len(c.i)
    whole = anisotropic_map().element_tensors(mesh)
    for scale in (1.0, 1.5):
        fact = c.factor(scale * tensors)
        assert fact.varying.lift.any() == (mesh_name == "oversize_mesh")
        whole[c.varying_elements] = scale * tensors
        direct = fem.Factorization(ms.conduction_system(mesh, whole, BoundaryData(0.5, 2.0)))
        assert relative_difference(fact.solve(), direct.solve(np.zeros(mesh.n_nodes))) <= 1e-12


@pytest.mark.parametrize("keep_responses", [False, True])
def test_a_condensed_factorization_refuses_other_loads_before_solving(coarse_macro_mesh,
                                                                      keep_responses,
                                                                      monkeypatch):
    """A condensed factorization solves the zero load with the fixed values
    and, keeping its K_GG factor, a load with zero fixed values; every
    other call raises before any reduced or fixed-block solve."""
    c, tensors = ring_condensation(coarse_macro_mesh, keep_responses)
    fact = c.factor(tensors)
    calls = []
    solve_free, solve_g = fem.Factorization.solve_free, fem.Condensation.solve_g
    monkeypatch.setattr(fem.Factorization, "solve_free",
                        lambda self, b: calls.append("free") or solve_free(self, b))
    monkeypatch.setattr(fem.Condensation, "solve_g",
                        lambda self, b: calls.append("g") or solve_g(self, b))
    load = np.linspace(-1.0, 1.0, coarse_macro_mesh.n_nodes)
    refused = [(load, False), (None, True)] + [(load, True)] * keep_responses
    for rhs_full, homogeneous in refused:
        with pytest.raises(ValueError, match="solves the zero load"):
            fact.solve(rhs_full, homogeneous)
    assert calls == []
    fact.solve()
    assert calls


@pytest.mark.parametrize("keep_responses", [False, True])
def test_a_corrupted_build_fails_the_full_residual(coarse_macro_mesh, keep_responses):
    """The residual is measured on the formed x at every solve: a response
    column, or the zero load's reduced right-hand side, corrupted after the
    build fails the next solve."""
    c, tensors = ring_condensation(coarse_macro_mesh, keep_responses)
    fact = c.factor(tensors)
    fact.solve()
    if keep_responses:
        c.responses[:, len(c.i) // 2] *= 1.01
    else:
        c.zero_load_reduced *= 1.01
    with pytest.raises(fem.SolverError, match="residual"):
        fact.solve()


@pytest.mark.parametrize("r_obstacle", [0.0, 0.3])
def test_condensation_of_a_ring_covering_the_domain(r_obstacle):
    """An oversize ring leaves no fixed DOF (r_obstacle 0) or only a few."""
    mesh = build_macro_mesh(MacroGeometry(lx=2.0, ly=2.0, r_ring=5.0, r_obstacle=r_obstacle),
                            0.1, allow_oversize=True)
    matmap, bc = anisotropic_map(), BoundaryData()
    condensed = ms.state_factorization(mesh, matmap, bc)
    assert (len(condensed.condensation.g) == 0) == (r_obstacle == 0.0)
    want = direct_factorization(mesh, matmap, bc).solve()
    assert relative_difference(condensed.solve(), want) <= 1e-12
