"""Design sensitivities: the two scales meet in dJ/dK*.

The macro half gives dJ/dK* of every design sector (a symmetric 2x2 from
the state and adjoint gradients on the ring's elements,
:func:`sector_sensitivities`). The optimizer's design is mirrored, cells
1-4 carrying it and cell 9 - l reflecting cell l, and it solves on the
x >= 0 half of the macro mesh (a ``mirror_half`` mesh), which holds
sectors 1-4 and weighs its objective integrals by 2. There the adjoint of
the full-domain objective is twice the whole mesh's, and sector l's
contraction is dJ/dK*_l + S dJ/dK*_{9-l} S (S = diag(-1, 1)), the
derivative of the mirrored design itself. The optimizer contracts the
derivative of the objective it records, w*dJ1/dK* + (1-w)*dJ2/dK*, which
is linear in the adjoint load and so comes from one adjoint of the
weighted load.

The cell half turns a cell's dJ/dK*, from the macro adjoint or any
objective with an explicit derivative, into its reaction term. One nodal
field from the corrector gradients (:func:`topological_tensor_fields`),
scaled by each phase swap's :func:`insertion_prefactor`, is the
derivative of K* when a small inclusion of the other phase appears; the
contraction, blended by the smoothed indicator, is L1-normalized once
per cell (:func:`combined_sensitivity`).
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


def sector_sensitivities(mesh: TriMesh, state: np.ndarray,
                         adjoint: np.ndarray) -> np.ndarray:
    """Symmetrized dJ/dK* of every design sector of the mesh, -int grad T
    (x) grad v over its elements; shape (8, 2, 2), or (4, 2, 2) for sectors
    1-4 of a ``mirror_half`` mesh, sector l at index l - 1.

    The gradients are taken on the design ring's elements alone, whose
    per-sector indices are cached on the mesh. Only the symmetric part is
    identifiable since K* is symmetric; the off-diagonal entry is the
    derivative along half of a symmetric (1,2)+(2,1) perturbation.
    """
    ring, sectors = fem.cached(mesh, "sector elements", lambda: _sector_elements(mesh))
    gt = mesh.element_gradient(state, ring)
    gv = mesh.element_gradient(adjoint, ring)
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
    last = SECTOR_LAST // 2 if mesh.mirror_half else SECTOR_LAST
    ring = np.flatnonzero((region >= SECTOR_FIRST) & (region <= last))
    return ring, [np.flatnonzero(region[ring] == l) for l in range(SECTOR_FIRST, last + 1)]


def insertion_prefactor(k_host: float, k_insert: float) -> float:
    """Scalar factor of the tensor insertion derivative for a small disk."""
    return 2.0 * k_host * (k_insert - k_host) / (k_insert + k_host)


def topological_tensor_fields(mesh: TriMesh, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Nodal (e_i + grad w_i).(e_j + grad w_j), shape (n_nodes, 2, 2), from
    the correctors' nodal values: the field that each insertion derivative
    of K* scales by its :func:`insertion_prefactor`. Element values are
    averaged to nodes by area, accumulated on periodic masters so paired
    boundary nodes agree exactly."""
    e1 = mesh.element_gradient(w1) + (1.0, 0.0)
    e2 = mesh.element_gradient(w2) + (0.0, 1.0)
    outer = np.column_stack([np.einsum("ei,ei->e", e1, e1),
                             np.einsum("ei,ei->e", e1, e2),
                             np.einsum("ei,ei->e", e2, e2)])
    # the 3 distinct components are averaged, then laid out as 2x2 tensors
    return _average_to_nodes(mesh, outer)[:, [0, 1, 1, 2]].reshape(mesh.n_nodes, 2, 2)


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


def combined_sensitivity(mesh: TriMesh, dj_dk: np.ndarray, insertion: np.ndarray,
                         mat: CellMaterialField, chi_nodes: np.ndarray) -> np.ndarray:
    """Normalized reaction term for one cell.

    ``dj_dk`` (the derivative of the objective with respect to this cell's
    K*) is contracted with both insertion derivatives, ``insertion``
    (:func:`topological_tensor_fields`) scaled by each swap's prefactor:
    inserting phase a where phase b sits minus inserting b where a sits,
    blended by ``chi_nodes``. The blend is scaled to unit L1 mass over the
    cell. A degenerate L1 norm gives a zero reaction with a logged warning.
    """
    def contraction(k_host, k_insert):
        return np.einsum("ij,nij->n", dj_dk, insertion_prefactor(k_host, k_insert) * insertion)

    g = (contraction(mat.k_b, mat.k_a) * (1.0 - chi_nodes)
         - contraction(mat.k_a, mat.k_b) * chi_nodes)
    norm = nodal_abs_integral(mesh, g)
    if norm < DEGENERATE_NORM:
        log.warning("degenerate sensitivity norm; dropping the reaction term")
        return np.zeros(mesh.n_nodes)
    return (1.0 / norm) * g
