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


def region_operators(mesh: TriMesh):
    """(M_E, A_C): the evaluation region's consistent mass matrix and the
    obstacle region's unit-conductivity stiffness, built once per mesh,
    each from its region's elements alone on an unconstrained structure
    that is then dropped (nothing else uses it)."""
    def region_matrix(region, element_matrices):
        elements = np.flatnonzero(mesh.region_mask(region))
        on = fem.Structure(mesh, fem.Constraints.none(mesh.n_nodes), elements)
        return on.matrix(element_matrices(elements))

    def build():
        return (region_matrix(REGION_EXTERIOR, lambda e: fem.element_mass(mesh, elements=e)),
                region_matrix(REGION_OBSTACLE, lambda e: fem.element_stiffness(
                    mesh, fem.isotropic_tensors(np.ones(len(e))), e)))
    return fem.cached(mesh, "region_operators", build)


def mismatch(values: np.ndarray, reference: np.ndarray, mesh: TriMesh) -> float:
    """J1: integral of (T - T_ref)^2 over the evaluation region (exact for P1 fields)."""
    d = values - reference
    return float(d @ (region_operators(mesh)[0] @ d))


def gradient_energy(values: np.ndarray, mesh: TriMesh) -> float:
    """J2: integral of grad T . grad T over the obstacle region."""
    return float(values @ (region_operators(mesh)[1] @ values))


def compose(j1: float, j2: float, w: float) -> float:
    """Weighted combination w*J1 + (1-w)*J2 (units heterogeneous by design)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight w must lie in [0, 1]")
    return w * j1 + (1.0 - w) * j2

