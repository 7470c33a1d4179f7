"""Objective functionals on the macroscale temperature field.

J1 measures the squared mismatch to the uniform-material reference field
over the evaluation region; J2 measures the gradient energy (heat-flux
proxy) inside the shielded region. Both are evaluated with quadrature
that is exact for the P1 fields involved, which keeps the discrete
adjoint consistent with finite differences of these values.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .geometry import REGION_EXTERIOR, REGION_OBSTACLE, TriMesh


def region_mass(mesh: TriMesh, region: int):
    """Consistent mass matrix of one region, built once per mesh."""
    return fem.cached(mesh, ("region_mass", region),
                      lambda: fem.mass_matrix(mesh, mesh.region_mask(region)))


def region_laplacian(mesh: TriMesh, region: int):
    """Unit-conductivity stiffness of one region, built once per mesh."""
    return fem.cached(mesh, ("region_laplacian", region), lambda: fem.stiffness_matrix(
        mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)), mesh.region_mask(region)))


def mismatch(values: np.ndarray, reference: np.ndarray, mesh: TriMesh,
             region: int = REGION_EXTERIOR) -> float:
    """J1-type integral of (T - T_ref)^2 over a region (exact for P1 fields)."""
    d = values - reference
    return float(d @ (region_mass(mesh, region) @ d))


def gradient_energy(values: np.ndarray, mesh: TriMesh,
                    region: int = REGION_OBSTACLE) -> float:
    """J2-type integral of grad T . grad T over a region."""
    return float(values @ (region_laplacian(mesh, region) @ values))


def compose(j1: float, j2: float, w: float) -> float:
    """Weighted combination w*J1 + (1-w)*J2 (units heterogeneous by design)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight w must lie in [0, 1]")
    return w * j1 + (1.0 - w) * j2

