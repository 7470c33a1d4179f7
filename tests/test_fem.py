import numpy as np
import pytest

from cloakopt import fem
from cloakopt.geometry import (GAMMA_A, GAMMA_B, MacroGeometry, TriMesh,
                               UnitCellGeometry, build_cell_mesh,
                               build_macro_mesh)


def unit_square_mesh(n=8):
    g = MacroGeometry(lx=1.0, ly=2.0, r_ring=0.45, r_obstacle=0.05)
    return build_macro_mesh(g, 1.0 / n, allow_oversize=True)


def test_stiffness_row_sums_vanish():
    mesh = unit_square_mesh()
    k = fem.stiffness_matrix(mesh, fem.isotropic_tensors(np.full(mesh.n_elements, 3.0)))
    rows = np.asarray(abs(k @ np.ones(mesh.n_nodes))).ravel()
    assert rows.max() < 1e-12


def test_uniform_scaling_linearity():
    mesh = unit_square_mesh()
    k1 = fem.stiffness_matrix(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    k5 = fem.stiffness_matrix(mesh, fem.isotropic_tensors(np.full(mesh.n_elements, 5.0)))
    assert abs(k5 - 5.0 * k1).max() < 1e-12


def test_single_right_triangle_identity_tensor():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(nodes=nodes, elements=np.array([[0, 1, 2]], dtype=np.int32),
                   element_region=np.zeros(1, dtype=np.int16), boundary_edges={})
    k = fem.stiffness_matrix(mesh, fem.isotropic_tensors([1.0])).toarray()
    assert np.abs(k.sum(axis=0)).max() < 1e-14
    assert np.abs(k.sum(axis=1)).max() < 1e-14
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(k, expected, atol=1e-14)


def test_non_spd_tensor_rejected():
    mesh = unit_square_mesh(8)
    tensors = fem.isotropic_tensors(np.ones(mesh.n_elements))
    tensors[3] = np.array([[1.0, 2.0], [2.0, 1.0]])   # indefinite
    with pytest.raises(ValueError, match="SPD"):
        fem.assemble_diffusion(mesh, tensors)


def patch_solution(mesh):
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    boundary = np.unique(np.concatenate([e.ravel() for e in
                                         mesh.boundary_edges.values()]))
    system = fem.apply_dirichlet(system, boundary, mesh.nodes[boundary, 0])
    return fem.solve(system)


def test_patch_test_reproduces_linear_field():
    mesh = unit_square_mesh(9)
    field = patch_solution(mesh)
    assert np.abs(field.values - mesh.nodes[:, 0]).max() < 1e-10


def test_dirichlet_strip_profile():
    mesh = unit_square_mesh(8)
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    system = fem.apply_dirichlet(system, left, 0.0)
    system = fem.apply_dirichlet(system, right, 1.0)
    field = fem.solve(system)
    want = mesh.nodes[:, 0] + 0.5
    assert np.abs(field.values - want).max() < 1e-10


def test_dirichlet_idempotent():
    mesh = unit_square_mesh(8)
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    once = fem.apply_dirichlet(system, left, 2.0)
    twice = fem.apply_dirichlet(once, left, 2.0)
    assert twice.n_free == once.n_free
    np.testing.assert_array_equal(twice.dof_of_node, once.dof_of_node)
    with pytest.raises(fem.ConstraintError):
        fem.apply_dirichlet(once, left, 3.0)


def test_dirichlet_node_outside_mesh():
    mesh = unit_square_mesh(8)
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    with pytest.raises(fem.ConstraintError):
        fem.apply_dirichlet(system, [mesh.n_nodes + 5], 0.0)


def test_constrain_all_nodes_returns_data():
    mesh = unit_square_mesh(8)
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    values = mesh.nodes[:, 0] * 2.5
    system = fem.apply_dirichlet(system, np.arange(mesh.n_nodes), values)
    assert system.n_free == 0
    field = fem.solve(system)
    np.testing.assert_array_equal(field.values, values)


def test_periodic_fold_keeps_symmetry_and_constants():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    folded = fem.apply_periodic(system, mesh.periodic_pairs)
    a, _ = folded.reduced()
    assert abs(a - a.T).max() < 1e-12
    # constants lie in the kernel after folding too
    assert np.abs(a @ np.ones(a.shape[0])).max() < 1e-12


def test_periodic_duplicate_slave_rejected():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    pairs = np.vstack([mesh.periodic_pairs, mesh.periodic_pairs[-1]])
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    with pytest.raises(fem.ConstraintError, match="slave"):
        fem.apply_periodic(system, pairs)


def test_singular_solve_names_missing_gauge():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    system = fem.assemble_diffusion(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
    folded = fem.apply_periodic(system, mesh.periodic_pairs)   # no gauge
    rhs = np.zeros(mesh.n_nodes)
    rhs[0] = 1.0
    with pytest.raises(fem.SolverError, match="gauge"):
        fem.Factorization(folded).solve(rhs)


def test_solve_residual_contract():
    mesh = unit_square_mesh(12)
    rng = np.random.default_rng(3)
    k = fem.isotropic_tensors(rng.uniform(0.5, 5.0, mesh.n_elements))
    system = fem.assemble_diffusion(mesh, k)
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    system = fem.apply_dirichlet(system, left, 0.0)
    system = fem.apply_dirichlet(system, right, 1.0)
    field = fem.solve(system)
    a, b = system.reduced()
    free = system.dof_of_node >= 0
    x = field.values[free]
    res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert res < 1e-10


def test_series_resistance_flux():
    # two materials in series along x: k=2 for x<0, k=1 for x>0
    g = MacroGeometry(lx=2.0, ly=2.0, r_ring=0.45, r_obstacle=0.05)
    mesh = build_macro_mesh(g, 0.1, allow_oversize=True)
    k = np.where(mesh.centroids[:, 0] < 0.0, 2.0, 1.0)
    system = fem.assemble_diffusion(mesh, fem.isotropic_tensors(k))
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    system = fem.apply_dirichlet(system, left, 0.0)
    system = fem.apply_dirichlet(system, right, 1.0)
    field = fem.solve(system)
    flux_in = fem.boundary_reaction(system, field.values, GAMMA_B)
    # series resistance per unit height: 1/2 + 1/1, height 1, dT = 1
    expected = 1.0 / (1.0 / 2.0 + 1.0 / 1.0) * 1.0
    assert flux_in == pytest.approx(expected, rel=1e-10)
    flux_out = fem.boundary_reaction(system, field.values, GAMMA_A)
    assert flux_in + flux_out == pytest.approx(0.0, abs=1e-10 * abs(flux_in))
