import numpy as np
import pytest

from cloakopt import fem
from cloakopt import homogenization as hom
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt.geometry import (REGION_OBSTACLE, MacroGeometry, UnitCellGeometry,
                               build_cell_mesh, build_macro_mesh)
from cloakopt.macro_solver import BoundaryData, MacroMaterialMap

from conftest import COPPER, PDMS, STEEL


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
    ramp = ms.reference_field(mesh, bc).values
    direct = ms.solve_state(mesh, ms.ring_filled_map(k, k, k), bc).values
    assert np.abs(ramp - direct).max() <= 1e-10
    assert np.all(ramp[np.unique(mesh.boundary_edges["gamma_a"])] == t_low)
    assert np.all(ramp[np.unique(mesh.boundary_edges["gamma_b"])] == t_high)


def test_sector_tensors_equal_steel_reproduces_reference(macro_mesh, bc, steel_field):
    matmap = MacroMaterialMap([STEEL * np.eye(2)] * 8,
                              k_exterior=STEEL, k_obstacle=STEEL)
    field = ms.solve_state(macro_mesh, matmap, bc)
    assert np.abs(field.values - steel_field.values).max() < 1e-12


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
    assert ms.flux_balance_error(macro_mesh, matmap, bc, temp) < 1e-8
    assert ms.temperature_bounds_violation(temp, bc) <= 1e-6


def direct_factorization(mesh, matmap, bc):
    return fem.Factorization(ms.state_system(mesh, matmap, bc))


def test_adjoint_zero_when_state_matches_reference(macro_mesh, bc, steel_field):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(STEEL, STEEL, STEEL), bc)
    v = ms.solve_adjoint(fact, {"j1": 1.0}, steel_field, steel_field)
    assert np.abs(v.values).max() < 1e-12


def test_adjoint_j2_zero_for_flat_interior(macro_mesh, bc):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(STEEL, STEEL, STEEL), bc)
    flat = fem.ScalarField(np.full(macro_mesh.n_nodes, 0.25), macro_mesh)
    v = ms.solve_adjoint(fact, {"j2": 1.0}, flat)
    assert np.abs(v.values).max() < 1e-12


def test_adjoint_vanishes_on_fixed_edges(macro_mesh, bc, steel_field):
    fact = direct_factorization(macro_mesh, ms.ring_filled_map(COPPER, STEEL, COPPER), bc)
    temp = fem.ScalarField(fact.solve(), macro_mesh)
    v = ms.solve_adjoint(fact, {"j1": 1.0}, temp, steel_field)
    for tag in ("gamma_a", "gamma_b"):
        nodes = np.unique(macro_mesh.boundary_edges[tag])
        assert np.abs(v.values[nodes]).max() == 0.0


def test_adjoint_load_scaling_linearity(macro_mesh, steel_field, bc):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    base = ms.adjoint_load(macro_mesh, {"j2": 1.0}, temp)
    scaled_state = fem.ScalarField(3.0 * temp.values, macro_mesh)
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

    temp = fem.ScalarField(state, mesh)
    reference = ms.reference_field(mesh, bc)
    for weights in ({"j1": 1.0}, {"j2": 1.0}, {"j1": 0.3, "j2": 0.7}):
        load = ms.adjoint_load(mesh, weights, temp, reference)
        want = direct.solve(load, homogeneous=True)
        assert relative_difference(condensed.solve(load, homogeneous=True), want) <= 1e-12
        v = ms.solve_adjoint(condensed, weights, temp, reference)
        assert relative_difference(v.values, want) <= 1e-12


def test_interface_schur_complement_matches_explicit(coarse_macro_mesh):
    c = ms.state_factorization(coarse_macro_mesh, anisotropic_map(), BoundaryData()).condensation
    k = c.fixed_matrix.toarray()
    g, i = c.g, c.i
    want = k[np.ix_(i, i)] - k[np.ix_(i, g)] @ np.linalg.solve(k[np.ix_(g, g)], k[np.ix_(g, i)])
    assert len(i) > 0
    assert relative_difference(c.schur.toarray(), want) <= 1e-12


@pytest.mark.parametrize("mesh_name", ["coarse_macro_mesh", "macro_mesh"])
def test_macro_ring_reads_the_schur_complement_off_a_throwaway_factor(mesh_name, request,
                                                                     monkeypatch):
    """The ring's interface is too large for |I| solves on the K_GG factor."""
    mesh = request.getfixturevalue(mesh_name)
    read = []
    schur = fem._interface_schur
    monkeypatch.setattr(fem, "_interface_schur", lambda *a: read.append(a) or schur(*a))
    region = mesh.element_region
    ring = (region >= 1) & (region <= 8)
    c = ms.condensed_conduction(mesh, anisotropic_map().element_tensors(mesh), ring,
                                BoundaryData())
    assert len(read) == 1
    assert 4 * len(c.i) > np.sqrt(len(c.g))


def test_system_load_reuses_its_fixed_block_solve(paper_geometry, monkeypatch):
    """The condensation solves K_GG for the zero load once, at its build.
    Each state solve then makes 1 K_GG solve and each adjoint solve 2,
    and the state solve of every varying part is bit-identical to one
    that solves that b_G afresh (an explicit zero load)."""
    mesh = build_macro_mesh(paper_geometry, 0.25)     # its own cache: the build is seen
    calls = []
    solve_g = fem.Condensation.solve_g
    monkeypatch.setattr(fem.Condensation, "solve_g",
                        lambda self, b: calls.append(len(b)) or solve_g(self, b))
    matmap, bc = anisotropic_map(), BoundaryData(0.5, 2.0)
    condensation = ms.state_factorization(mesh, matmap, bc).condensation
    assert len(calls) == 1          # the ring reads S_I off a throwaway factor
    zero, load = np.zeros(mesh.n_nodes), np.ones(mesh.n_nodes)
    for scale in (1.0, 1.5):
        matmap.sector_tensors = [scale * t for t in anisotropic_map().sector_tensors]
        fact = ms.state_factorization(mesh, matmap, bc)
        assert fact.condensation is condensation
        calls.clear()
        state = fact.solve()
        assert len(calls) == 1
        assert np.array_equal(state, fact.solve(zero))
        assert len(calls) == 3
        fact.solve(load, homogeneous=True)
        assert len(calls) == 5


def test_corrupted_reduced_system_fails_the_full_residual(paper_geometry):
    mesh = build_macro_mesh(paper_geometry, 0.25)     # its own cache, corrupted below
    matmap, bc = anisotropic_map(), BoundaryData()
    c = ms.state_factorization(mesh, matmap, bc).condensation
    c.reduced_fixed = c.reduced_fixed * 1.01
    fact = ms.state_factorization(mesh, matmap, bc)
    fact.reduced.solve_free(np.ones(c.varying.n_free))   # the reduced solve itself holds
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
