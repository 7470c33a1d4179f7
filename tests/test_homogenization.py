import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cloakopt import fem, optimizer
from cloakopt.geometry import UnitCellGeometry, build_cell_mesh
from cloakopt.homogenization import (CellMaterialField, EffectiveTensor, _corrector_rhs,
                                     cell_system, corrector_pair, diagonalize,
                                     effective_tensor, element_conductivity,
                                     homogenize, voigt_reuss_bounds)

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
    minimum-degree numbering; the two ring factorizations still order at
    factor time."""
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
    assert [spec for n, spec in calls if n != n_cell].count(fem.ORDERING) == 2


def test_homogeneous_cell_corrector_vanishes(cell_mesh_32):
    mat = CellMaterialField(chi=np.ones(cell_mesh_32.n_elements),
                            k_a=COPPER, k_b=PDMS)
    w1, _ = corrector_pair(cell_mesh_32, mat)
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
    _, w2 = corrector_pair(cell_mesh_32, mat)
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
    w1, w2 = corrector_pair(cell_mesh_32, mat)
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
    """The bincount load against a per-element loop, to a few ulps."""
    mesh = cell_mesh_32
    k = np.random.default_rng(2).uniform(PDMS, COPPER, mesh.n_elements)
    for direction in (1, 2):
        want = np.zeros(mesh.n_nodes)
        for e, tri in enumerate(mesh.elements):
            want[tri] -= k[e] * mesh.areas[e] * mesh.grads[e, :, direction - 1]
        got = _corrector_rhs(mesh, k, direction)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
