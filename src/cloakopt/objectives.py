"""Objective functionals on the macroscale temperature field.

J1 measures the squared mismatch to the uniform-material reference field
over the evaluation region; J2 measures the gradient energy (heat-flux
proxy) inside the shielded region. On a ``mirror_half`` mesh both
stand for the whole (top-half) domain. Both are evaluated with quadrature
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
    each one ``np.bincount`` of its region's element matrices into their
    slots of the mesh's slot table (:func:`fem.structure`), which the
    mesh's fixed-edge systems read too. The elements of a
    ``mirror_half`` mesh weigh 2, so its integrals are those of both
    halves.

    Both are only multiplied, so they are kept in CSR, whose mat-vec sums
    each row in the CSC's column order (every product is bit-identical)
    and writes each row once instead of scattering into it. Each is
    symmetric entry for entry, as slots (i, j) and (j, i) sum the same
    elements' equal entries in the same order, so the CSR is the CSC's
    transpose: a view of the same arrays, with no copy to convert. On the
    eps0 = 1/9 tiled sweep a converted copy, freeing its CSC during the
    first evaluation, moved glibc's later heap placement enough to raise
    the peak RSS by 13 MB."""
    weight = 2.0 if mesh.mirror_half else 1.0

    def build():
        table = fem.structure(mesh)
        exterior = np.flatnonzero(mesh.region_mask(REGION_EXTERIOR))
        obstacle = np.flatnonzero(mesh.region_mask(REGION_OBSTACLE))
        unit = fem.isotropic_tensors(np.ones(len(obstacle)))
        return (table.matrix(weight * fem.element_mass(mesh, elements=exterior), exterior).T,
                table.matrix(weight * fem.element_stiffness(mesh, unit, obstacle), obstacle).T)
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

