import numpy as np
import pytest

from cloakopt import fem
from cloakopt import homogenization as hom
from cloakopt import levelset as ls
from cloakopt import macro_solver as ms
from cloakopt.geometry import REGION_OBSTACLE, UnitCellGeometry, build_cell_mesh
from cloakopt.macro_solver import BoundaryData, MacroMaterialMap

from conftest import COPPER, PDMS, STEEL


@pytest.fixture(scope="module")
def bc():
    return BoundaryData(0.0, 1.0)


@pytest.fixture(scope="module")
def steel_field(macro_mesh, bc):
    return ms.solve_state(macro_mesh, ms.uniform_map(STEEL), bc)


def test_uniform_steel_is_linear_profile(macro_mesh, bc, steel_field):
    exact = (macro_mesh.nodes[:, 0] + 2.5) / 5.0
    assert np.abs(steel_field.values - exact).max() < 1e-10


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


def state_factorization(mesh, matmap, bc):
    return fem.Factorization(ms.state_system(mesh, matmap, bc))


def test_adjoint_zero_when_state_matches_reference(macro_mesh, bc, steel_field):
    fact = state_factorization(macro_mesh, ms.uniform_map(STEEL), bc)
    v = ms.solve_adjoint(fact, "j1", steel_field, steel_field)
    assert np.abs(v.values).max() < 1e-12


def test_adjoint_j2_zero_for_flat_interior(macro_mesh, bc):
    fact = state_factorization(macro_mesh, ms.uniform_map(STEEL), bc)
    flat = fem.ScalarField(np.full(macro_mesh.n_nodes, 0.25), macro_mesh)
    v = ms.solve_adjoint(fact, "j2", flat)
    assert np.abs(v.values).max() < 1e-12


def test_adjoint_vanishes_on_fixed_edges(macro_mesh, bc, steel_field):
    fact = state_factorization(macro_mesh, ms.ring_filled_map(COPPER, STEEL, COPPER), bc)
    temp = fem.ScalarField(fact.solve(), macro_mesh)
    v = ms.solve_adjoint(fact, "j1", temp, steel_field)
    for tag in ("gamma_a", "gamma_b"):
        nodes = np.unique(macro_mesh.boundary_edges[tag])
        assert np.abs(v.values[nodes]).max() == 0.0


def test_adjoint_load_scaling_linearity(macro_mesh, steel_field, bc):
    matmap = ms.ring_filled_map(COPPER, STEEL, COPPER)
    temp = ms.solve_state(macro_mesh, matmap, bc)
    base = ms.adjoint_load(macro_mesh, "j2", temp)
    scaled_state = fem.ScalarField(3.0 * temp.values, macro_mesh)
    np.testing.assert_allclose(ms.adjoint_load(macro_mesh, "j2", scaled_state),
                               3.0 * base, rtol=1e-9,
                               atol=1e-12 * np.abs(base).max())


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
