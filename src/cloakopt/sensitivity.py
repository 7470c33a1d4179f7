"""Design sensitivities: macro tensor derivatives contracted with the
cell-level insertion derivatives, normalized into the level-set reaction.

The macro half carries dJ/dK* per sector (a symmetric 2x2 from the state
and adjoint gradients), for all 8 sectors in one call that takes the
gradients on the design ring's elements only (:func:`sector_sensitivities`).
The cell half carries the pointwise derivative of K* when a small
inclusion of the other phase appears, built from the corrector
gradients. Their contraction, split by insertion direction and blended
by the smoothed indicator, is L1-normalized per cell. The
optimizer contracts the derivative of the objective it records,
w*dJ1/dK* + (1-w)*dJ2/dK*, which is linear in the adjoint load and so
comes from one adjoint of the weighted load; each cell's reaction term
is normalized once and follows the derivative of that weighted sum.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp

from . import fem
from .geometry import SECTOR_FIRST, SECTOR_LAST, TriMesh
from .homogenization import CellMaterialField

log = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-300


def sector_sensitivities(mesh: TriMesh, state: fem.ScalarField,
                         adjoint: fem.ScalarField) -> np.ndarray:
    """Symmetrized dJ/dK* of every design sector, -int grad T (x) grad v
    over its elements; shape (8, 2, 2), sector l at index l - 1.

    The gradients are taken on the design ring's elements alone, whose
    per-sector indices are cached on the mesh. Only the symmetric part is
    identifiable since K* is symmetric; the off-diagonal entry is the
    derivative along half of a symmetric (1,2)+(2,1) perturbation.
    """
    ring, sectors = fem.cached(mesh, "sector elements", lambda: _sector_elements(mesh))
    gt = mesh.element_gradient(state.values, ring)
    gv = mesh.element_gradient(adjoint.values, ring)
    a = mesh.areas[ring]
    out = np.empty((len(sectors), 2, 2))
    for k, e in enumerate(sectors):
        s = -np.einsum("e,ei,ej->ij", a[e], gt[e], gv[e])
        out[k] = 0.5 * (s + s.T)
    return out


# the name under which benchmarks/tracer.py times the contraction
tensor_sensitivity = sector_sensitivities


def _sector_elements(mesh: TriMesh) -> tuple[np.ndarray, list[np.ndarray]]:
    """The design ring's elements, ascending, and each sector's positions
    among them."""
    region = mesh.element_region
    ring = np.flatnonzero((region >= SECTOR_FIRST) & (region <= SECTOR_LAST))
    return ring, [np.flatnonzero(region[ring] == l)
                  for l in range(SECTOR_FIRST, SECTOR_LAST + 1)]


def insertion_prefactor(k_host: float, k_insert: float) -> float:
    """Scalar factor of the tensor insertion derivative for a small disk."""
    return 2.0 * k_host * (k_insert - k_host) / (k_insert + k_host)


def topological_tensor_fields(mesh: TriMesh, mat: CellMaterialField,
                              w1: fem.ScalarField, w2: fem.ScalarField):
    """Nodal insertion derivatives of K* for both phase swaps.

    Returns (insert_a, insert_b): (n_nodes, 2, 2) arrays for inserting
    phase a into b-host and phase b into a-host. Element values
    prefactor * (e_i + grad w_i).(e_j + grad w_j) are transferred to
    nodes by area-weighted averaging, accumulated on periodic masters so
    paired boundary nodes agree exactly.
    """
    e1 = w1.gradient() + (1.0, 0.0)
    e2 = w2.gradient() + (0.0, 1.0)
    outer = np.empty((mesh.n_elements, 2, 2))
    outer[:, 0, 0] = np.einsum("ei,ei->e", e1, e1)
    outer[:, 0, 1] = np.einsum("ei,ei->e", e1, e2)
    outer[:, 1, 0] = outer[:, 0, 1]
    outer[:, 1, 1] = np.einsum("ei,ei->e", e2, e2)

    nodal = _average_to_nodes(mesh, outer)
    pref_insert_a = insertion_prefactor(mat.k_b, mat.k_a)
    pref_insert_b = insertion_prefactor(mat.k_a, mat.k_b)
    return pref_insert_a * nodal, pref_insert_b * nodal


def _average_to_nodes(mesh: TriMesh, element_values: np.ndarray) -> np.ndarray:
    """Area-weighted element-to-node transfer honouring periodic pairing."""
    flat = element_values.reshape(mesh.n_elements, -1)
    nodal = fem.cached(mesh, "element_to_node", lambda: _element_to_node(mesh)) @ flat
    return nodal.reshape((mesh.n_nodes,) + element_values.shape[1:])


def _element_to_node(mesh: TriMesh):
    """Sparse (n_nodes, n_elements) operator of the area-weighted average
    over each node's elements; periodic slaves are averaged with their
    masters, and a slave's row repeats its master's."""
    nodes = np.arange(mesh.n_nodes)
    if mesh.periodic_pairs is not None:
        nodes[mesh.periodic_pairs[:, 1]] = mesh.periodic_pairs[:, 0]
    rows = nodes[mesh.elements.ravel()]
    cols = np.repeat(np.arange(mesh.n_elements), 3)
    weights = np.repeat(mesh.areas, 3)
    wsum = np.bincount(rows, weights=weights, minlength=mesh.n_nodes)
    op = sp.csr_matrix((weights / wsum[rows], (rows, cols)),
                       shape=(mesh.n_nodes, mesh.n_elements))
    return op[nodes]


def nodal_abs_integral(mesh: TriMesh, field: np.ndarray) -> float:
    """Lumped-mass integral of |field| over the cell."""
    return float((mesh.lumped_mass * np.abs(field)).sum())


def phase_blend(contraction_insert_a: np.ndarray, contraction_insert_b: np.ndarray,
                chi_nodes: np.ndarray) -> np.ndarray:
    """Directional sensitivity: insert-a where phase b sits, minus insert-b where a sits."""
    return (contraction_insert_a * (1.0 - chi_nodes)
            - contraction_insert_b * chi_nodes)


def combined_sensitivity(mesh: TriMesh, dj_dk: np.ndarray,
                         insert_a: np.ndarray, insert_b: np.ndarray,
                         chi_nodes: np.ndarray) -> np.ndarray:
    """Normalized reaction term for one cell.

    The blended contraction of ``dj_dk`` (the derivative of the recorded
    objective with respect to this cell's K*) is scaled to unit L1 mass
    over the cell. A degenerate L1 norm gives a zero reaction with a
    logged warning.
    """
    g = phase_blend(np.einsum("ij,nij->n", dj_dk, insert_a),
                    np.einsum("ij,nij->n", dj_dk, insert_b), chi_nodes)
    norm = nodal_abs_integral(mesh, g)
    if norm < DEGENERATE_NORM:
        log.warning("degenerate sensitivity norm; dropping the reaction term")
        return np.zeros(mesh.n_nodes)
    return (1.0 / norm) * g
