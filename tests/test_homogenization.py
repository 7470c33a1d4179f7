import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cloakopt import fem, levelset, optimizer
from cloakopt.geometry import TriMesh, UnitCellGeometry, build_cell_mesh
from cloakopt.homogenization import (CellMaterialField, EffectiveTensor, cell_loads,
                                     cell_system, diagonalize, element_conductivity,
                                     homogenize, material_from_levelset,
                                     voigt_reuss_bounds)

from conftest import COPPER, PDMS, STEEL


def laminate_material(mesh, horizontal=True):
    c = mesh.centroids
    chi = (c[:, 1] < 0.5) if horizontal else (c[:, 0] < 0.5)
    return CellMaterialField(chi=chi.astype(float), k_a=COPPER, k_b=PDMS)


def test_element_conductivity_endpoints_and_midpoint():
    assert element_conductivity(1.0, COPPER, PDMS) == pytest.approx(386.0)
    assert element_conductivity(0.0, COPPER, PDMS) == pytest.approx(0.15)
    assert element_conductivity(0.5, COPPER, PDMS) == pytest.approx(193.075)


@pytest.mark.parametrize("chi, k_a, k_b", [
    (np.nan, COPPER, PDMS),
    (0.5, np.nan, PDMS),
    (0.5, np.inf, PDMS),
    (0.5, COPPER, np.nan),
    (0.5, COPPER, np.inf),
], ids=["chi-nan", "k_a-nan", "k_a-inf", "k_b-nan", "k_b-inf"])
def test_material_rejects_non_finite_values(chi, k_a, k_b):
    values = np.full(8, 0.5)
    values[3] = chi
    with pytest.raises(ValueError):
        CellMaterialField(chi=values, k_a=k_a, k_b=k_b)


def test_cell_system_rejects_chi_of_another_mesh(cell_mesh_32):
    mat = CellMaterialField(chi=np.ones(cell_mesh_32.n_elements - 1), k_a=COPPER, k_b=PDMS)
    with pytest.raises(ValueError, match="chi must have shape"):
        cell_system(cell_mesh_32, mat)


def test_cell_factorizations_keep_the_template_order(paper_geometry, monkeypatch):
    """Over a 2-iteration run every cell factorization keeps the template's
    minimum-degree numbering; so do the condensation's fixed blocks and
    the two ring factorizations, which keep the condensation's numbering."""
    calls = []
    splu = spla.splu

    def recording_splu(matrix, **kw):
        calls.append((matrix.shape[0], kw["permc_spec"]))
        return splu(matrix, **kw)

    monkeypatch.setattr(spla, "splu", recording_splu)
    scenario = optimizer.Scenario(geometry=paper_geometry, k_cell_a=COPPER, k_cell_b=PDMS,
                                  k_exterior=STEEL, k_obstacle=COPPER, max_iter=2,
                                  macro_h=0.25, cell_resolution=16)
    optimizer.run(scenario)
    n_cell = 16 * 16 - 1
    assert [spec for n, spec in calls if n == n_cell] == ["NATURAL"] * 16
    assert [spec for n, spec in calls if n != n_cell] == ["NATURAL"] * 4


def test_homogeneous_cell_corrector_vanishes(cell_mesh_32):
    mat = CellMaterialField(chi=np.ones(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    _, w1, _ = homogenize(cell_mesh_32, mat)
    assert np.abs(w1.values).max() < 1e-12


def test_homogeneous_cell_tensor_is_isotropic(cell_mesh_32):
    mat = CellMaterialField(chi=np.ones(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    t, _, _ = homogenize(cell_mesh_32, mat)
    err = np.abs(t.matrix - COPPER * np.eye(2)).max() / COPPER
    assert err < 1e-8


def test_laminate_series_parallel(cell_mesh_64):
    mat = laminate_material(cell_mesh_64)
    t, w1, w2 = homogenize(cell_mesh_64, mat)
    arith = 0.5 * (COPPER + PDMS)
    harm = 2.0 * COPPER * PDMS / (COPPER + PDMS)
    assert t.k11 == pytest.approx(arith, rel=1e-10)
    assert t.k22 == pytest.approx(harm, rel=1e-10)
    assert abs(t.k12) < 1e-10
    # field along the layers needs no correction
    assert np.abs(w1.values).max() < 1e-10


def test_laminate_transverse_corrector_profile(cell_mesh_32):
    # closed form: w2 piecewise linear in y2 with slopes making the total
    # gradient inversely proportional to k in each layer
    mat = laminate_material(cell_mesh_32)
    _, _, w2 = homogenize(cell_mesh_32, mat)
    harm = 2.0 * COPPER * PDMS / (COPPER + PDMS)
    grads = cell_mesh_32.element_gradient(w2.values)
    total = grads[:, 1] + 1.0
    k = mat.conductivities()
    np.testing.assert_allclose(k * total, harm, rtol=1e-9)
    assert np.abs(grads[:, 0]).max() < 1e-9


def test_phase_swap_duality(cell_mesh_32):
    c = cell_mesh_32.centroids
    chi = 0.5 + 0.4 * np.sin(2 * np.pi * c[:, 0]) * np.cos(2 * np.pi * c[:, 1])
    a = CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS)
    b = CellMaterialField(chi=1.0 - chi, k_a=PDMS, k_b=COPPER)
    ta, _, _ = homogenize(cell_mesh_32, a)
    tb, _, _ = homogenize(cell_mesh_32, b)
    np.testing.assert_allclose(ta.matrix, tb.matrix, rtol=1e-12, atol=1e-12)


def test_rotation_equivariance_on_laminate(cell_mesh_32):
    t_h, _, _ = homogenize(cell_mesh_32, laminate_material(cell_mesh_32, True))
    t_v, _, _ = homogenize(cell_mesh_32, laminate_material(cell_mesh_32, False))
    assert t_h.k11 == pytest.approx(t_v.k22, rel=1e-12)
    assert t_h.k22 == pytest.approx(t_v.k11, rel=1e-12)


def test_off_diagonal_symmetry_identical(cell_mesh_32):
    c = cell_mesh_32.centroids
    chi = np.clip(0.5 + 0.5 * np.sin(2 * np.pi * (c[:, 0] + 2 * c[:, 1])), 0, 1)
    mat = CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    e1 = w1.gradient() + (1.0, 0.0)
    e2 = w2.gradient() + (0.0, 1.0)
    ka = mat.conductivities() * cell_mesh_32.areas
    k12 = (ka * np.einsum("ei,ei->e", e1, e2)).sum()
    k21 = (ka * np.einsum("ei,ei->e", e2, e1)).sum()
    assert k12 == pytest.approx(k21, abs=1e-12 * abs(k12))


def random_smooth_chi(mesh, rng):
    c = mesh.centroids
    chi = np.full(mesh.n_elements, 0.5)
    for _ in range(3):
        kx, ky = rng.integers(1, 4, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        chi += rng.uniform(-0.4, 0.4) * (
            np.sin(2 * np.pi * kx * c[:, 0] + phase[0])
            * np.sin(2 * np.pi * ky * c[:, 1] + phase[1]))
    return np.clip(chi, 0.0, 1.0)


def test_bounds_and_symmetry_randomized(cell_mesh_32):
    rng = np.random.default_rng(42)
    for _ in range(20):
        mat = CellMaterialField(chi=random_smooth_chi(cell_mesh_32, rng),
                                k_a=COPPER, k_b=PDMS)
        t, _, _ = homogenize(cell_mesh_32, mat)
        assert t.k12 == pytest.approx(t.matrix[1, 0], abs=1e-12)
        f = mat.volume_fraction(cell_mesh_32)
        lower, upper = voigt_reuss_bounds(f, COPPER, PDMS)
        for eig in (t.kbar1, t.kbar2):
            assert lower - 1e-6 <= eig <= upper + 1e-6
        assert t.is_spd()


def test_disk_cell_isotropic_and_mesh_converged():
    vals = []
    for res in (32, 64):
        mesh = build_cell_mesh(UnitCellGeometry(res))
        c = mesh.centroids
        chi = (np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5) > 0.25).astype(float)
        t, _, _ = homogenize(mesh, CellMaterialField(chi=chi, k_a=COPPER, k_b=PDMS))
        assert t.k11 == pytest.approx(t.k22, rel=1e-10)   # square symmetry
        assert abs(t.k12) < 1e-8 * t.k11
        vals.append(t.k11)
    assert vals[1] == pytest.approx(vals[0], rel=0.01)


def test_diagonalize_examples():
    assert diagonalize(np.array([[2.0, 0.0], [0.0, 1.0]])) == (2.0, 1.0, 0.0)
    k1, k2, th = diagonalize(np.array([[3.0, 1.0], [1.0, 3.0]]))
    assert (k1, k2, th) == pytest.approx((4.0, 2.0, 45.0))


def test_diagonalize_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, c = rng.uniform(0.1, 10.0, size=2)
        b = rng.uniform(-3.0, 3.0)
        k = np.array([[a, b], [b, c]])
        k1, k2, th = diagonalize(k)
        assert -45.0 < th <= 45.0
        r = np.radians(th)
        rot = np.array([[math.cos(r), math.sin(r)],
                        [-math.sin(r), math.cos(r)]])
        rec = rot.T @ np.diag([k1, k2]) @ rot
        assert np.abs(rec - k).max() < 1e-10 * max(1.0, np.abs(k).max())


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        diagonalize(np.array([[1.0, 0.5], [-0.5, 1.0]]))


def test_effective_tensor_from_matrix_fields():
    t = EffectiveTensor.from_matrix(np.array([[5.0, 1.0], [1.0, 2.0]]))
    assert t.kbar1 > t.kbar2 > 0
    assert t.is_spd()


def test_corrector_rhs_matches_the_accumulating_loop(cell_mesh_32):
    """The per-mesh map of both corrector loads against a per-element loop,
    to a few ulps."""
    mesh = cell_mesh_32
    k = np.random.default_rng(2).uniform(PDMS, COPPER, mesh.n_elements)
    got = (cell_loads(mesh) @ (k * mesh.areas)).reshape(2, mesh.n_nodes)
    for direction in (1, 2):
        want = np.zeros(mesh.n_nodes)
        for e, tri in enumerate(mesh.elements):
            want[tri] -= k[e] * mesh.areas[e] * mesh.grads[e, :, direction - 1]
        assert np.abs(got[direction - 1] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("resolution", [32, 64])
def test_tensor_equals_the_gram_product_of_its_correctors(resolution):
    """K* from the loads equals sum_e k_e a_e (e_i + grad w_i).(e_j + grad w_j)
    of the returned correctors."""
    mesh = build_cell_mesh(UnitCellGeometry(resolution))
    rng = np.random.default_rng(resolution)
    for _ in range(3):
        mat = CellMaterialField(chi=random_smooth_chi(mesh, rng), k_a=COPPER, k_b=PDMS)
        t, w1, w2 = homogenize(mesh, mat)
        e = np.stack([w1.gradient() + (1.0, 0.0), w2.gradient() + (0.0, 1.0)])
        ka = mat.conductivities() * mesh.areas
        gram = np.einsum("e,iek,jek->ij", ka, e, e)
        assert np.abs(t.matrix - gram).max() <= 1e-12 * np.abs(gram).max()


def test_reflected_cell_homogenizes_to_the_reflected_tensor(cell_mesh_64):
    """The cell reflected by y1 -> 1 - y1 gives S K* S, S = diag(-1, 1)."""
    mesh = cell_mesh_64
    x, y = mesh.nodes.T
    phi = (np.sin(2 * np.pi * (x + 2 * y) + 0.3) + 0.5 * np.cos(2 * np.pi * (3 * x - y))
           + 0.2)
    mats = [material_from_levelset(levelset.LevelSetField(p, mesh), COPPER, PDMS, 0.2)
            for p in (phi, phi[levelset.mirror_nodes(mesh)])]
    k, k_refl = (homogenize(mesh, m)[0].matrix for m in mats)
    s = np.diag([-1.0, 1.0])
    assert abs(k[0, 1]) > 1e-3 * np.abs(k).max()        # the reflection shows
    assert np.abs(k_refl - s @ k @ s).max() <= 1e-12 * np.abs(k).max()


def count_calls(monkeypatch, owner, name, mesh=None):
    """Record each call of owner.name (on ``mesh`` alone, if given)."""
    calls, original = [], getattr(owner, name)

    def counted(self, *args, **kwargs):
        if mesh is None or self is mesh:
            calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_homogenize_factors_once_solves_twice_and_takes_no_gradient(cell_mesh_32,
                                                                    monkeypatch):
    mat = CellMaterialField(chi=random_smooth_chi(cell_mesh_32, np.random.default_rng(3)),
                            k_a=COPPER, k_b=PDMS)
    homogenize(cell_mesh_32, mat)                       # build the per-mesh caches
    factorizations = count_calls(monkeypatch, fem.Factorization, "__init__")
    solves = count_calls(monkeypatch, fem.Factorization, "solve")
    gradients = count_calls(monkeypatch, TriMesh, "element_gradient", cell_mesh_32)
    _, w1, w2 = homogenize(cell_mesh_32, mat)
    assert (len(factorizations), len(solves), len(gradients)) == (1, 2, 0)
    w1.gradient(), w2.gradient(), w1.gradient()
    assert len(gradients) == 2


def test_a_step_takes_corrector_gradients_of_the_design_cells_only(paper_geometry,
                                                                   monkeypatch):
    """An evaluation takes no corrector gradient; its step takes those of
    cells 1-4, and cells 5-8 never need theirs."""
    ws = optimizer.Workspace(optimizer.Scenario(
        geometry=paper_geometry, k_cell_a=COPPER, k_cell_b=PDMS, k_exterior=STEEL, k_obstacle=COPPER,
        macro_h=0.25, cell_resolution=16))
    phis = ws.scenario.initial_phis(ws.cell_mesh)
    gradients = count_calls(monkeypatch, TriMesh, "element_gradient", ws.cell_mesh)
    ev = optimizer.evaluate(ws, phis, 0.2)
    assert len(ev.cells) == 8 and gradients == []
    optimizer.step(ws, ev, phis, 1)
    assert len(gradients) == 2 * optimizer.DESIGN_CELLS == 8
    assert all(c[2]._gradient is None and c[3]._gradient is None for c in ev.cells[4:])


@pytest.mark.parametrize("factor", [-1.0, 1e3], ids=["above-voigt", "not-spd"])
def test_corrupted_corrector_trips_the_tensor_guard(cell_mesh_32, monkeypatch, factor):
    """Correctors scaled by c give K* = (sum k_e a_e) I - c [w_i . b_j]: above
    the Voigt bound for c = -1, indefinite for a large c."""
    mat = CellMaterialField(chi=random_smooth_chi(cell_mesh_32, np.random.default_rng(4)),
                            k_a=COPPER, k_b=PDMS)
    solve = fem.Factorization.solve
    monkeypatch.setattr(fem.Factorization, "solve",
                        lambda self, rhs: factor * solve(self, rhs))
    with pytest.raises(fem.SolverError, match="Voigt-Reuss"):
        homogenize(cell_mesh_32, mat)

