import numpy as np
import pytest

from cloakopt import fem, objectives
from cloakopt import macro_solver as ms
from cloakopt import sensitivity as sens
from cloakopt.geometry import TriMesh, UnitCellGeometry, build_cell_mesh, build_macro_mesh
from cloakopt.homogenization import CellMaterialField, homogenize
from cloakopt.macro_solver import BoundaryData, MacroMaterialMap

from conftest import COPPER, PDMS, STEEL, rotation

BC = BoundaryData(0.0, 1.0)
W = 0.3           # weight of J1 in the recorded J = W*J1 + (1-W)*J2


def synthetic_sector_tensors():
    tensors = []
    for l in range(1, 9):
        r = rotation(15.0 * l)
        tensors.append(r @ np.diag([5.0 + l, 1.0 + 0.3 * l]) @ r.T)
    return tensors


@pytest.fixture(scope="module")
def fd_setup(coarse_macro_mesh):
    mesh = coarse_macro_mesh
    steel = ms.reference_field(mesh, BC)
    tensors = synthetic_sector_tensors()
    matmap = MacroMaterialMap(list(tensors), k_exterior=STEEL, k_obstacle=COPPER)
    fact = fem.Factorization(ms.state_system(mesh, matmap, BC))
    temp = fact.solve()
    weights = {"j1": {"j1": 1.0}, "j2": {"j2": 1.0}, "recorded": {"j1": W, "j2": 1.0 - W}}
    adjoints = {k: ms.solve_adjoint(fact, mesh, w, temp, steel) for k, w in weights.items()}
    return mesh, steel, tensors, temp, adjoints


def objective_pair(mesh, steel, tensors):
    matmap = MacroMaterialMap(list(tensors), k_exterior=STEEL, k_obstacle=COPPER)
    temp = ms.solve_state(mesh, matmap, BC)
    return ms.evaluate_objectives(temp, steel, mesh)


def assert_matches_centred_differences(mesh, steel, tensors, s, l, objective):
    """Criterion 3's recipe: each independent entry of dJ/dK* of sector l
    against a centred difference of ``objective(J1, J2)`` to 1e-3."""
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
        fd = (objective(*objective_pair(mesh, steel, plus))
              - objective(*objective_pair(mesh, steel, minus))) / (2 * h)
        predicted = s[i, j] if i == j else 2.0 * s[i, j]
        assert fd == pytest.approx(predicted, rel=1e-3), (l, i, j)


def test_tensor_sensitivity_matches_finite_differences(fd_setup):
    mesh, steel, tensors, temp, adjoints = fd_setup
    for kind, idx in (("j1", 0), ("j2", 1)):
        for l in (1, 4, 7):
            s = sens.sector_sensitivities(mesh, temp, adjoints[kind])[l - 1]
            assert_matches_centred_differences(mesh, steel, tensors, s, l,
                                               lambda *j: j[idx])


def test_weighted_adjoint_differentiates_the_recorded_objective(fd_setup):
    """The one adjoint of the weighted load gives W*s1 + (1-W)*s2 of the
    single-objective adjoints, and the derivative of the recorded J."""
    mesh, steel, tensors, temp, adjoints = fd_setup
    for l in range(1, 9):
        s = sens.sector_sensitivities(mesh, temp, adjoints["recorded"])[l - 1]
        s1, s2 = (sens.sector_sensitivities(mesh, temp, adjoints[k])[l - 1]
                  for k in ("j1", "j2"))
        want = W * s1 + (1.0 - W) * s2
        assert np.abs(s - want).max() <= 1e-10 * np.abs(want).max()
        assert_matches_centred_differences(mesh, steel, tensors, s, l,
                                           lambda j1, j2: objectives.compose(j1, j2, W))


def test_first_order_prediction_of_objective_change(fd_setup):
    mesh, steel, tensors, temp, adjoints = fd_setup
    j0 = objective_pair(mesh, steel, tensors)
    rng = np.random.default_rng(9)
    for kind, idx in (("j1", 0), ("j2", 1)):
        l = 3
        s = sens.sector_sensitivities(mesh, temp, adjoints[kind])[l - 1]
        sym = rng.normal(size=(2, 2))
        sym = 0.5 * (sym + sym.T)
        dk = 1e-3 * np.linalg.norm(tensors[l - 1]) * sym / np.linalg.norm(sym)
        perturbed = [t.copy() for t in tensors]
        perturbed[l - 1] = tensors[l - 1] + dk
        dj = objective_pair(mesh, steel, perturbed)[idx] - j0[idx]
        predicted = float(np.tensordot(s, dk))
        assert dj == pytest.approx(predicted, rel=0.05)


FLIP = np.diag([-1.0, 1.0])
HALF_BC = BoundaryData(0.5, 1.0)       # the mean edge value on the mirror line


def mirrored_tensors():
    """Sectors 1-4 synthetic, sector 9 - l the reflection S K*_l S."""
    design = synthetic_sector_tensors()[:4]
    return design + [FLIP @ k @ FLIP for k in reversed(design)]


def test_half_mesh_sensitivities_match_centred_differences_of_the_whole(
        paper_geometry, coarse_macro_mesh):
    """On the half mesh, sector l's contraction is the derivative of the
    mirrored design: a centred difference of the whole mesh's J that moves
    K*_l by dE and K*_(9-l) by d S E S together (criterion 3's step and
    tolerance)."""
    whole = coarse_macro_mesh
    half = build_macro_mesh(paper_geometry, 0.25, half=True)
    tensors = mirrored_tensors()
    matmap = MacroMaterialMap(list(tensors), k_exterior=STEEL, k_obstacle=COPPER)
    fact = fem.Factorization(ms.state_system(half, matmap, HALF_BC))
    temp = fact.solve()
    adjoint = ms.solve_adjoint(fact, half, {"j1": W, "j2": 1.0 - W}, temp,
                               ms.reference_field(half, HALF_BC))
    g = sens.sector_sensitivities(half, temp, adjoint)
    assert g.shape == (4, 2, 2)
    steel = ms.reference_field(whole, BC)

    def objective(ks):
        return objectives.compose(*objective_pair(whole, steel, ks), W)

    for l in range(1, 5):
        h = 1e-4 * np.linalg.norm(tensors[l - 1])
        for (i, j) in ((0, 0), (0, 1), (1, 1)):
            dk = np.zeros((2, 2))
            dk[i, j] += h
            if i != j:
                dk[j, i] += h
            plus, minus = list(tensors), list(tensors)
            plus[l - 1], minus[l - 1] = tensors[l - 1] + dk, tensors[l - 1] - dk
            plus[8 - l] = tensors[8 - l] + FLIP @ dk @ FLIP
            minus[8 - l] = tensors[8 - l] - FLIP @ dk @ FLIP
            fd = (objective(plus) - objective(minus)) / (2 * h)
            factor = 1.0 if i == j else 2.0
            assert fd == pytest.approx(factor * g[l - 1, i, j], rel=1e-3), (l, i, j)


@pytest.mark.parametrize("h", [0.25, 0.0625])
def test_half_mesh_state_and_objectives_equal_the_whole(paper_geometry, h):
    """For mirrored tensors the half mesh with the mean edge value on the
    mirror line carries the whole mesh's state on its nodes, and its
    doubled integrals give the whole mesh's J1 and J2."""
    whole = build_macro_mesh(paper_geometry, h)
    half = build_macro_mesh(paper_geometry, h, half=True)
    matmap = MacroMaterialMap(mirrored_tensors(), k_exterior=STEEL, k_obstacle=COPPER)
    t_whole = ms.solve_state(whole, matmap, BC)
    t_half = ms.solve_state(half, matmap, HALF_BC)
    on_half = t_whole[whole.n_nodes - half.n_nodes:]
    assert np.abs(t_half - on_half).max() <= 1e-10 * np.abs(on_half).max()
    j_whole = ms.evaluate_objectives(t_whole, ms.reference_field(whole, BC), whole)
    j_half = ms.evaluate_objectives(t_half, ms.reference_field(half, HALF_BC), half)
    for a, b in zip(j_half, j_whole, strict=True):
        assert a == pytest.approx(b, rel=1e-10)


def test_zero_adjoint_gives_zero_sensitivity(fd_setup):
    mesh, _, _, temp, _ = fd_setup
    zero = np.zeros(mesh.n_nodes)
    s = sens.sector_sensitivities(mesh, temp, zero)
    assert np.all(s == 0.0)


def test_sensitivity_linear_in_adjoint(fd_setup):
    mesh, _, _, temp, adjoints = fd_setup
    v = adjoints["j1"]
    scaled = 4.0 * v
    s1 = sens.sector_sensitivities(mesh, temp, v)
    s4 = sens.sector_sensitivities(mesh, temp, scaled)
    np.testing.assert_allclose(s4, 4.0 * s1, rtol=1e-12)


def test_sector_sensitivities_equal_the_masked_contraction(macro_mesh, monkeypatch):
    """Bit for bit the per-sector contraction of full-mesh gradients,
    while no gradient is taken over the whole mesh."""
    rng = np.random.default_rng(5)
    temp, adjoint = (rng.normal(size=macro_mesh.n_nodes) for _ in range(2))
    want = []
    for l in range(1, 9):
        mask = macro_mesh.region_mask(l)
        gt = macro_mesh.element_gradient(temp)[mask]
        gv = macro_mesh.element_gradient(adjoint)[mask]
        s = -np.einsum("e,ei,ej->ij", macro_mesh.areas[mask], gt, gv)
        want.append(0.5 * (s + s.T))

    sizes = []
    gradient = TriMesh.element_gradient
    monkeypatch.setattr(TriMesh, "element_gradient", lambda self, values, elements=slice(None):
                        sizes.append(len(gradient(self, values, elements)))
                        or gradient(self, values, elements))
    got = sens.sector_sensitivities(macro_mesh, temp, adjoint)
    assert got.shape == (8, 2, 2)
    np.testing.assert_array_equal(got, np.array(want))
    ring = (macro_mesh.element_region >= 1) & (macro_mesh.element_region <= 8)
    assert sizes == [ring.sum()] * 2


def test_insertion_prefactors_published_values():
    assert sens.insertion_prefactor(COPPER, PDMS) == pytest.approx(-771.41, abs=0.01)
    assert sens.insertion_prefactor(PDMS, COPPER) == pytest.approx(0.29977, abs=1e-5)


def test_topological_fields_homogeneous_cell(cell_mesh_32):
    mat = CellMaterialField(chi=np.ones(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    insertion = sens.topological_tensor_fields(cell_mesh_32, w1, w2)
    np.testing.assert_allclose(insertion, np.broadcast_to(np.eye(2), insertion.shape),
                               atol=1e-9)


def test_topological_fields_periodic_consistency(cell_mesh_32):
    c = cell_mesh_32.centroids
    chi = np.clip(0.5 + 0.5 * np.sin(2 * np.pi * c[:, 0]), 0, 1)
    mat = CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    insertion = sens.topological_tensor_fields(cell_mesh_32, w1, w2)
    m, s = cell_mesh_32.periodic_pairs.T
    np.testing.assert_array_equal(insertion[m], insertion[s])


def test_combined_sensitivity_normalization_identity(cell_mesh_32):
    c = cell_mesh_32.centroids
    chi = np.clip(0.5 + 0.5 * np.sin(2 * np.pi * (c[:, 0] + c[:, 1])), 0, 1)
    mat = CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    insertion = sens.topological_tensor_fields(cell_mesh_32, w1, w2)
    chi_nodes = np.clip(0.5 + 0.5 * np.sin(
        2 * np.pi * (cell_mesh_32.nodes[:, 0] + cell_mesh_32.nodes[:, 1])), 0, 1)
    # derivative of w*J1 + (1-w)*J2, as the optimizer contracts it
    w = 0.7
    s = (w * np.array([[1.0, 0.2], [0.2, 0.5]])
         + (1 - w) * np.array([[-0.3, 0.1], [0.1, 0.8]]))
    jprime = sens.combined_sensitivity(cell_mesh_32, s, insertion, mat, chi_nodes)
    # insert copper where PDMS sits, minus insert PDMS where copper sits
    contraction = np.einsum("ij,nij->n", s, insertion)
    g = (sens.insertion_prefactor(PDMS, COPPER) * contraction * (1.0 - chi_nodes)
         - sens.insertion_prefactor(COPPER, PDMS) * contraction * chi_nodes)
    assert sens.nodal_abs_integral(cell_mesh_32, jprime) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(jprime, g / sens.nodal_abs_integral(cell_mesh_32, g),
                               rtol=1e-12)
    # a positive rescaling of dJ/dK* leaves the reaction term unchanged
    np.testing.assert_allclose(
        sens.combined_sensitivity(cell_mesh_32, 3.0 * s, insertion, mat, chi_nodes),
        jprime, rtol=1e-12)


def test_combined_sensitivity_single_objective_weights(cell_mesh_32):
    mat = CellMaterialField(chi=np.zeros(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    insertion = sens.topological_tensor_fields(cell_mesh_32, w1, w2)
    chi_nodes = np.zeros(cell_mesh_32.n_nodes)
    jprime = sens.combined_sensitivity(cell_mesh_32, np.eye(2), insertion, mat, chi_nodes)
    # uniform insulating cell with dJ/dK = +I: inserting the conducting
    # phase raises the objective, so the reaction is positive everywhere
    assert jprime.min() > 0.0
    assert sens.nodal_abs_integral(cell_mesh_32, jprime) == pytest.approx(1.0, abs=1e-10)


def test_degenerate_norm_drops_term(cell_mesh_32, caplog):
    mat = CellMaterialField(chi=np.zeros(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    insertion = sens.topological_tensor_fields(cell_mesh_32, w1, w2)
    with caplog.at_level("WARNING"):
        jprime = sens.combined_sensitivity(
            cell_mesh_32, np.zeros((2, 2)), insertion, mat,
            np.zeros(cell_mesh_32.n_nodes))
    assert np.all(jprime == 0.0)
    assert any("degenerate" in r.message for r in caplog.records)


def jittered_cell_mesh(seed=5):
    """A 16x16 periodic cell mesh with interior nodes moved, so element
    areas differ."""
    base = build_cell_mesh(UnitCellGeometry(16))
    nodes = base.nodes.copy()
    inner = np.all((nodes > 0.0) & (nodes < 1.0), axis=1)
    nodes[inner] += np.random.default_rng(seed).uniform(-0.01, 0.01, (inner.sum(), 2))
    return TriMesh(nodes=nodes, elements=base.elements, element_region=base.element_region,
                   boundary_edges=base.boundary_edges, periodic_pairs=base.periodic_pairs)


def test_average_to_nodes_matches_the_accumulating_loop():
    """The cached sparse transfer against a per-element loop; the
    summation order differs, so they agree to a few ulps."""
    mesh = jittered_cell_mesh()
    values = np.random.default_rng(6).normal(size=(mesh.n_elements, 2, 2))
    master = np.arange(mesh.n_nodes)
    master[mesh.periodic_pairs[:, 1]] = mesh.periodic_pairs[:, 0]
    acc, wsum = np.zeros((mesh.n_nodes, 2, 2)), np.zeros(mesh.n_nodes)
    for e, tri in enumerate(mesh.elements):
        for node in master[tri]:
            acc[node] += mesh.areas[e] * values[e]
            wsum[node] += mesh.areas[e]
    want = acc[master] / wsum[master][:, None, None]
    got = sens._average_to_nodes(mesh, values)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    np.testing.assert_array_equal(got[mesh.periodic_pairs[:, 1]],
                                  got[mesh.periodic_pairs[:, 0]])
