import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from cloakopt import fem, homogenization, macro_solver
from cloakopt.geometry import (GAMMA_A, GAMMA_B, MacroGeometry, TriMesh,
                               UnitCellGeometry, build_cell_mesh,
                               build_macro_mesh)


def unit_square_mesh(n=8):
    g = MacroGeometry(lx=1.0, ly=2.0, r_ring=0.45, r_obstacle=0.05)
    return build_macro_mesh(g, 1.0 / n, allow_oversize=True)


def unit_system(mesh, constraints, k=None):
    """Diffusion system with conductivity k (default 1) under the given constraints."""
    k = np.ones(mesh.n_elements) if k is None else k
    return fem.assemble_diffusion(mesh, fem.isotropic_tensors(k),
                                  on=fem.Structure(mesh, constraints))


def free(mesh):
    return fem.Constraints.none(mesh.n_nodes)


def test_stiffness_row_sums_vanish():
    mesh = unit_square_mesh()
    k = fem.assemble_diffusion(mesh, fem.isotropic_tensors(np.full(mesh.n_elements, 3.0))).matrix
    rows = np.asarray(abs(k @ np.ones(mesh.n_nodes))).ravel()
    assert rows.max() < 1e-12


def test_uniform_scaling_linearity():
    mesh = unit_square_mesh()
    k1 = fem.assemble_diffusion(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements))).matrix
    k5 = fem.assemble_diffusion(mesh, fem.isotropic_tensors(np.full(mesh.n_elements, 5.0))).matrix
    assert abs(k5 - 5.0 * k1).max() < 1e-12


def test_single_right_triangle_identity_tensor():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(nodes=nodes, elements=np.array([[0, 1, 2]], dtype=np.int32),
                   element_region=np.zeros(1, dtype=np.int16), boundary_edges={})
    k = fem.assemble_diffusion(mesh, fem.isotropic_tensors([1.0])).matrix.toarray()
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(value):
    mesh = unit_square_mesh(8)
    tensors = fem.isotropic_tensors(np.ones(mesh.n_elements))
    tensors[5, 0, 0] = value
    with pytest.raises(ValueError, match="element 5: conductivity tensor is not finite"):
        fem.assemble_diffusion(mesh, tensors)


def patch_solution(mesh):
    boundary = np.unique(np.concatenate([e.ravel() for e in
                                         mesh.boundary_edges.values()]))
    c = fem.apply_dirichlet(free(mesh), boundary, mesh.nodes[boundary, 0])
    return fem.solve(unit_system(mesh, c))


def test_patch_test_reproduces_linear_field():
    mesh = unit_square_mesh(9)
    field = patch_solution(mesh)
    assert np.abs(field.values - mesh.nodes[:, 0]).max() < 1e-10


def test_dirichlet_strip_profile():
    mesh = unit_square_mesh(8)
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    c = fem.apply_dirichlet(free(mesh), left, 0.0)
    c = fem.apply_dirichlet(c, right, 1.0)
    field = fem.solve(unit_system(mesh, c))
    want = mesh.nodes[:, 0] + 0.5
    assert np.abs(field.values - want).max() < 1e-10


def test_dirichlet_idempotent():
    mesh = unit_square_mesh(8)
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    once = fem.apply_dirichlet(free(mesh), left, 2.0)
    twice = fem.apply_dirichlet(once, left, 2.0)
    assert twice.n_free == once.n_free
    np.testing.assert_array_equal(twice.dof_of_node, once.dof_of_node)
    with pytest.raises(fem.ConstraintError):
        fem.apply_dirichlet(once, left, 3.0)


def test_dirichlet_node_outside_mesh():
    mesh = unit_square_mesh(8)
    with pytest.raises(fem.ConstraintError):
        fem.apply_dirichlet(free(mesh), [mesh.n_nodes + 5], 0.0)


def test_constrain_all_nodes_returns_data():
    mesh = unit_square_mesh(8)
    values = mesh.nodes[:, 0] * 2.5
    system = unit_system(mesh, fem.apply_dirichlet(free(mesh), np.arange(mesh.n_nodes),
                                                   values))
    assert system.n_free == 0
    field = fem.solve(system)
    np.testing.assert_array_equal(field.values, values)


def test_periodic_fold_keeps_symmetry_and_constants():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    a = unit_system(mesh, fem.apply_periodic(free(mesh), mesh.periodic_pairs)).matrix
    assert abs(a - a.T).max() < 1e-12
    # constants lie in the kernel after folding too
    assert np.abs(a @ np.ones(a.shape[0])).max() < 1e-12


def test_periodic_duplicate_slave_rejected():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    pairs = np.vstack([mesh.periodic_pairs, mesh.periodic_pairs[-1]])
    with pytest.raises(fem.ConstraintError, match="slave"):
        fem.apply_periodic(free(mesh), pairs)


def test_singular_solve_names_missing_gauge():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    folded = unit_system(mesh, fem.apply_periodic(free(mesh), mesh.periodic_pairs))
    rhs = np.zeros(mesh.n_nodes)
    rhs[0] = 1.0
    with pytest.raises(fem.SolverError, match="gauge"):
        fem.Factorization(folded).solve(rhs)


def test_singular_ordering_raises_solver_error():
    """The ordering's incomplete factorization fails on a singular matrix
    the way a factorization does, not with SuperLU's bare RuntimeError."""
    singular = sp.csc_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(fem.SolverError, match="singular"):
        fem.minimum_degree_order(singular)


def test_solve_residual_contract():
    mesh = unit_square_mesh(12)
    rng = np.random.default_rng(3)
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    c = fem.apply_dirichlet(free(mesh), left, 0.0)
    c = fem.apply_dirichlet(c, right, 1.0)
    system = unit_system(mesh, c, rng.uniform(0.5, 5.0, mesh.n_elements))
    field = fem.solve(system)
    a, b = system.matrix, system.reduced_load()
    x = field.values[c.dof_of_node >= 0]
    res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert res < 1e-10


def test_series_resistance_flux():
    # two materials in series along x: k=2 for x<0, k=1 for x>0
    g = MacroGeometry(lx=2.0, ly=2.0, r_ring=0.45, r_obstacle=0.05)
    mesh = build_macro_mesh(g, 0.1, allow_oversize=True)
    k = np.where(mesh.centroids[:, 0] < 0.0, 2.0, 1.0)
    tensors = fem.isotropic_tensors(k)
    system = fem.assemble_diffusion(
        mesh, tensors, on=fem.structure(mesh, dirichlet=((GAMMA_A, 0.0), (GAMMA_B, 1.0))))
    field = fem.solve(system)
    ke = fem.element_stiffness(mesh, tensors)
    flux_in = fem.boundary_reaction(mesh, ke, field.values, GAMMA_B)
    # series resistance per unit height: 1/2 + 1/1, height 1, dT = 1
    expected = 1.0 / (1.0 / 2.0 + 1.0 / 1.0) * 1.0
    assert flux_in == pytest.approx(expected, rel=1e-10)
    flux_out = fem.boundary_reaction(mesh, ke, field.values, GAMMA_A)
    assert flux_in + flux_out == pytest.approx(0.0, abs=1e-10 * abs(flux_in))


def galerkin_reduction(system, element_matrices, load):
    """R^T A R and R^T (f - A g) for the nodal load f, with A assembled by
    COO from the element matrices and R from the DOF map: the definition
    the slots must meet."""
    mesh, c = system.mesh, system.constraints
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    a = sp.coo_matrix((element_matrices.ravel(), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    kept = np.flatnonzero(c.dof_of_node >= 0)
    r = sp.csr_matrix((np.ones(len(kept)), (kept, c.dof_of_node[kept])),
                      shape=(mesh.n_nodes, c.n_free))
    return r.T @ a @ r, r.T @ (load - a @ c.fixed_values)


def cell_operator(mesh):
    """The cell system and its element matrices."""
    rng = np.random.default_rng(11)
    mat = homogenization.CellMaterialField(rng.uniform(0, 1, mesh.n_elements), 386.0, 0.15)
    ke = fem.element_stiffness(mesh, fem.isotropic_tensors(mat.conductivities()))
    return homogenization.cell_system(mesh, mat), ke


def macro_operator(mesh):
    rng = np.random.default_rng(12)
    k = rng.uniform(0.5, 5.0, (mesh.n_elements, 1, 1)) * np.eye(2)
    k[:, 0, 1] = k[:, 1, 0] = 0.3     # anisotropic: every element entry couples
    system = macro_solver.conduction_system(mesh, k, macro_solver.BoundaryData(0.5, 2.0))
    return system, fem.element_stiffness(mesh, k)


def levelset_operator(mesh):
    k_phi, tau, dt = 1.5, 0.05, 0.1
    ke = (fem.element_mass(mesh, lumped=True) + dt * k_phi * tau
          * fem.element_stiffness(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements))))
    return fem.assemble(fem.structure(mesh, periodic=True), ke), ke


@pytest.mark.parametrize("build, mesh_of", [
    (cell_operator, lambda: build_cell_mesh(UnitCellGeometry(16))),
    (macro_operator, lambda: unit_square_mesh(8)),
    (levelset_operator, lambda: build_cell_mesh(UnitCellGeometry(16))),
], ids=["cell", "macro", "levelset"])
def test_reduced_operator_matches_galerkin_reduction(build, mesh_of):
    system, ke = build(mesh_of())
    load = np.random.default_rng(13).normal(size=system.mesh.n_nodes)
    want_a, want_b = galerkin_reduction(system, ke, load)
    assert abs(system.matrix - want_a).max() <= 1e-13 * abs(want_a).max()
    got_b = system.reduced_load(load)
    assert np.abs(got_b - want_b).max() <= 1e-13 * max(np.abs(want_b).max(), 1.0)
    zero = np.zeros(system.mesh.n_nodes)
    assert np.array_equal(system.reduced_load(), system.reduced_load(zero))


def test_constraint_sets_of_the_three_operators():
    cell = build_cell_mesh(UnitCellGeometry(16))
    m, s = cell.periodic_pairs.T
    c = cell_operator(cell)[0].constraints
    gauge = cell.periodic_pairs[0, 0]
    assert c.dof_of_node[gauge] == -1 and c.fixed_values[gauge] == 0.0
    np.testing.assert_array_equal(c.dof_of_node[m], c.dof_of_node[s])
    assert c.n_free == cell.n_nodes - len(np.unique(s)) - 1

    c = levelset_operator(cell)[0].constraints
    np.testing.assert_array_equal(c.dof_of_node[m], c.dof_of_node[s])
    assert c.n_free == cell.n_nodes - len(np.unique(s))

    mesh = unit_square_mesh(8)
    c = macro_operator(mesh)[0].constraints
    left = np.unique(mesh.boundary_edges[GAMMA_A])
    right = np.unique(mesh.boundary_edges[GAMMA_B])
    np.testing.assert_array_equal(np.flatnonzero(c.dof_of_node < 0),
                                  np.union1d(left, right))
    assert (c.fixed_values[left] == 0.5).all() and (c.fixed_values[right] == 2.0).all()


def counting(monkeypatch, name):
    """A list that grows by one at every call of ``fem.<name>``."""
    calls = []
    original = getattr(fem, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, name, counted)
    return calls


def test_homogenize_folds_periodic_pairs_once_per_mesh(monkeypatch):
    calls = counting(monkeypatch, "apply_periodic")
    mesh = build_cell_mesh(UnitCellGeometry(16))
    mat = homogenization.CellMaterialField(np.linspace(0, 1, mesh.n_elements), 386.0, 0.15)
    first = homogenization.homogenize(mesh, mat)[0]
    second = homogenization.homogenize(mesh, mat)[0]
    assert len(calls) == 1
    assert first == second


def test_concurrent_first_use_builds_structure_once(monkeypatch):
    calls = counting(monkeypatch, "apply_periodic")
    orders = counting(monkeypatch, "minimum_degree_order")
    mesh = build_cell_mesh(UnitCellGeometry(16))
    rng = np.random.default_rng(4)
    mats = [homogenization.CellMaterialField(rng.uniform(0, 1, mesh.n_elements), 386.0, 0.15)
            for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda m: homogenization.homogenize(mesh, m)[0],
                                     mats, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [homogenization.homogenize(mesh, m)[0] for m in mats]
    assert len(calls) == 1 and len(orders) == 1


def test_cell_factor_fill_at_resolution_64(cell_mesh_64):
    """The symmetric minimum-degree ordering keeps the L+U fill of the
    resolution-64 cell operator near 2e5 entries (COLAMD: ~4.2e5)."""
    fact = fem.Factorization(cell_operator(cell_mesh_64)[0])
    assert fact._lu.nnz <= 2.0e5


@pytest.mark.parametrize("resolution", [16, 32])
def test_cell_operator_is_the_slot_assembly_in_minimum_degree_order(resolution):
    """The conductivity-to-data map of the cell template against
    element_stiffness assembled on a plain Structure in the template's
    numbering. That numbering is SuperLU's own minimum-degree order: the
    template's factor, kept in it, has the fill of an MMD factor of the
    operator in mesh numbering."""
    mesh = build_cell_mesh(UnitCellGeometry(resolution))
    system, ke = cell_operator(mesh)
    assert system.structure.ordered
    want = fem.Structure(mesh, system.constraints).matrix(ke)
    got = system.matrix
    assert abs(got - want).max() <= 1e-13 * abs(want).max()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)

    folded = fem.apply_periodic(free(mesh), mesh.periodic_pairs, gauge=mesh.periodic_pairs[0, 0])
    plain = fem.Structure(mesh, folded).matrix(ke)
    mmd = fem._factor(plain, permc_spec=fem.ORDERING)
    np.testing.assert_array_equal(fem.minimum_degree_order(plain), np.argsort(mmd.perm_c))
    assert fem.Factorization(system)._lu.nnz == mmd.nnz
