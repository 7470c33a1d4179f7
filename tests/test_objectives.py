import numpy as np
import pytest

from cloakopt import macro_solver as ms
from cloakopt import objectives as obj
from cloakopt.geometry import REGION_EXTERIOR, REGION_OBSTACLE


def test_mismatch_zero_iff_equal(coarse_macro_mesh):
    mesh = coarse_macro_mesh
    ref = mesh.nodes[:, 0].copy()
    assert obj.mismatch(ref, ref, mesh) == 0.0
    bumped = ref.copy()
    ext_nodes = np.unique(mesh.elements[mesh.region_mask(REGION_EXTERIOR)])
    bumped[ext_nodes[0]] += 1e-3
    assert obj.mismatch(bumped, ref, mesh) > 0.0


def test_gradient_energy_zero_for_constant(coarse_macro_mesh):
    const = np.full(coarse_macro_mesh.n_nodes, 3.0)
    assert obj.gradient_energy(const, coarse_macro_mesh) == pytest.approx(0.0, abs=1e-20)


def test_gradient_energy_of_linear_field(coarse_macro_mesh):
    mesh = coarse_macro_mesh
    values = 2.0 * mesh.nodes[:, 0]
    want = 4.0 * mesh.region_area(REGION_OBSTACLE)
    assert obj.gradient_energy(values, mesh) == pytest.approx(want, rel=1e-12)


def test_compose_weights():
    assert obj.compose(3.0, 5.0, 1.0) == 3.0
    assert obj.compose(3.0, 5.0, 0.0) == 5.0
    # half weighting of the two published optimum values
    j = obj.compose(4.22e-6, 2.47e-9, 0.5)
    assert j == pytest.approx(2.11e-6 + 1.235e-9, rel=1e-3)
    with pytest.raises(ValueError):
        obj.compose(1.0, 1.0, 1.5)


def test_mismatch_quadrature_matches_exact_quadratic(coarse_macro_mesh):
    # (T - ref) linear in x makes the integrand quadratic: the mass-matrix
    # quadrature must integrate it exactly over the region
    mesh = coarse_macro_mesh
    diff = 0.75 * mesh.nodes[:, 0] - 0.2 * mesh.nodes[:, 1]
    ref = np.zeros(mesh.n_nodes)
    got = obj.mismatch(diff, ref, mesh)
    mask = mesh.region_mask(REGION_EXTERIOR)
    p = mesh.nodes[mesh.elements[mask]]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    vals = 0.75 * mids[..., 0] - 0.2 * mids[..., 1]
    want = float((mesh.areas[mask] / 3.0 * (vals ** 2).sum(axis=1)).sum())
    assert got == pytest.approx(want, rel=1e-12)
