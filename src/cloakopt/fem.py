"""P1 finite-element core: assembly, constraints, sparse solves.

Scalar diffusion with element-constant 2x2 symmetric conductivity
tensors. Constraints (Dirichlet, periodic master-slave folding, gauge
pinning) are represented by an affine reconstruction

    u_nodes = R @ u_free + g

where R is a 0/1 matrix with at most one nonzero per row. Reducing the
assembled system through R keeps it symmetric positive definite, which
the direct factorization relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import TriMesh

SOLVE_RTOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed (singular or did not meet the residual contract)."""


class ConstraintError(ValueError):
    """Inconsistent Dirichlet values or periodic pairing."""


@dataclass
class ScalarField:
    """Nodal scalar field (temperature, corrector, adjoint, ...)."""

    values: np.ndarray
    mesh: TriMesh
    bc_record: str = ""

    def gradient(self) -> np.ndarray:
        return self.mesh.element_gradient(self.values)


@dataclass
class SparseSystem:
    """Assembled system plus the affine constraint reconstruction."""

    matrix: sp.csr_matrix          # full nodal stiffness
    rhs: np.ndarray                # full nodal load
    mesh: TriMesh
    dof_of_node: np.ndarray        # node -> free-DOF column, -1 if eliminated
    fixed_values: np.ndarray       # value for eliminated nodes, 0 elsewhere
    bc_record: str = ""

    @property
    def n_free(self) -> int:
        return int(self.dof_of_node.max(initial=-1)) + 1

    def reduction(self) -> sp.csr_matrix:
        n = len(self.dof_of_node)
        rows = np.flatnonzero(self.dof_of_node >= 0)
        cols = self.dof_of_node[rows]
        data = np.ones(len(rows))
        return sp.csr_matrix((data, (rows, cols)), shape=(n, self.n_free))

    def reduced(self) -> tuple[sp.csc_matrix, np.ndarray]:
        r = self.reduction()
        a = (r.T @ self.matrix @ r).tocsc()
        b = r.T @ (self.rhs - self.matrix @ self.fixed_values)
        return a, b

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        u = self.fixed_values.copy()
        free = self.dof_of_node >= 0
        u[free] = x_free[self.dof_of_node[free]]
        return u


def isotropic_tensors(values) -> np.ndarray:
    """(M,) scalar conductivities -> (M, 2, 2) isotropic tensor array."""
    values = np.asarray(values, dtype=float)
    t = np.zeros((len(values), 2, 2))
    t[:, 0, 0] = values
    t[:, 1, 1] = values
    return t


def _check_spd(tensors: np.ndarray) -> None:
    tr = tensors[:, 0, 0] + tensors[:, 1, 1]
    det = tensors[:, 0, 0] * tensors[:, 1, 1] - tensors[:, 0, 1] * tensors[:, 1, 0]
    asym = np.abs(tensors[:, 0, 1] - tensors[:, 1, 0])
    scale = np.abs(tensors).max(axis=(1, 2)) + 1e-300
    if np.any(asym > 1e-10 * scale):
        raise ValueError("element conductivity tensors must be symmetric")
    if np.any(tr <= 0) or np.any(det <= 0):
        bad = int(np.flatnonzero((tr <= 0) | (det <= 0))[0])
        raise ValueError(f"element {bad}: conductivity tensor is not SPD")


def stiffness_matrix(mesh: TriMesh, tensors: np.ndarray,
                     element_mask: np.ndarray | None = None) -> sp.csr_matrix:
    """Assemble the P1 diffusion stiffness sum_e a_e grad_i . K_e grad_j.

    Exact for element-constant tensors. ``element_mask`` restricts the
    assembly to a subset of elements (used for region-wise operators).
    """
    if element_mask is None:
        elems = mesh.elements
        grads = mesh.grads
        areas = mesh.areas
        tens = tensors
    else:
        elems = mesh.elements[element_mask]
        grads = mesh.grads[element_mask]
        areas = mesh.areas[element_mask]
        tens = tensors[element_mask] if len(tensors) == mesh.n_elements else tensors
    ke = np.einsum("e,eik,ekl,ejl->eij", areas, grads, tens, grads, optimize=True)
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    mat = sp.coo_matrix((ke.ravel(), (rows, cols)),
                        shape=(mesh.n_nodes, mesh.n_nodes))
    return mat.tocsr()


def mass_matrix(mesh: TriMesh, element_mask: np.ndarray | None = None) -> sp.csr_matrix:
    """Consistent P1 mass matrix, optionally restricted to a region."""
    elems = mesh.elements if element_mask is None else mesh.elements[element_mask]
    areas = mesh.areas if element_mask is None else mesh.areas[element_mask]
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    me = areas[:, None, None] * local
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    return sp.coo_matrix((me.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def assemble_diffusion(mesh: TriMesh, tensors: np.ndarray) -> SparseSystem:
    """Unconstrained diffusion system with zero load."""
    tensors = np.asarray(tensors, dtype=float)
    if tensors.shape != (mesh.n_elements, 2, 2):
        raise ValueError("tensors must have shape (n_elements, 2, 2)")
    _check_spd(tensors)
    return SparseSystem(
        matrix=stiffness_matrix(mesh, tensors),
        rhs=np.zeros(mesh.n_nodes),
        mesh=mesh,
        dof_of_node=np.arange(mesh.n_nodes),
        fixed_values=np.zeros(mesh.n_nodes),
    )


def apply_dirichlet(system: SparseSystem, nodes, values) -> SparseSystem:
    """Eliminate the given nodes symmetrically; idempotent for equal values.

    A node already folded onto a master constrains the whole periodic
    group. Conflicting values for one DOF are rejected.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    values = np.broadcast_to(np.asarray(values, dtype=float), nodes.shape)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= system.mesh.n_nodes):
        raise ConstraintError("Dirichlet node index outside the mesh")

    n_free = system.n_free
    fix_value = np.full(n_free, np.nan)
    for node, val in zip(nodes, values):
        col = system.dof_of_node[node]
        if col < 0:
            if not np.isclose(system.fixed_values[node], val, rtol=0, atol=1e-14):
                raise ConstraintError(f"node {node} already fixed to a different value")
            continue
        if not np.isnan(fix_value[col]) and fix_value[col] != val:
            raise ConstraintError(f"conflicting Dirichlet values for node {node}")
        fix_value[col] = val

    fixed_cols = ~np.isnan(fix_value)
    new_col = np.cumsum(~fixed_cols) - 1
    dof = system.dof_of_node.copy()
    fixed_values = system.fixed_values.copy()
    had_dof = dof >= 0
    col_of = dof[had_dof]
    newly_fixed = fixed_cols[col_of]
    fixed_values[np.flatnonzero(had_dof)[newly_fixed]] = fix_value[col_of[newly_fixed]]
    dof[had_dof] = np.where(newly_fixed, -1, new_col[col_of])
    return replace(system, dof_of_node=dof, fixed_values=fixed_values,
                   bc_record=system.bc_record + f"|dirichlet[{nodes.size}]")


def apply_periodic(system: SparseSystem, pairs: np.ndarray,
                   gauge: int | None = None) -> SparseSystem:
    """Fold slave DOFs onto masters; optionally pin one gauge node to 0.

    ``pairs`` rows are (master, slave). Chained pairs are resolved by
    union-find so corner nodes may fold transitively. A slave listed
    twice with different masters is rejected.
    """
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConstraintError("periodic pairs must be an (P, 2) array")
    slaves = pairs[:, 1]
    uniq, counts = np.unique(slaves, return_counts=True)
    if np.any(counts > 1):
        raise ConstraintError(
            f"node {int(uniq[counts > 1][0])} appears as slave more than once"
        )

    n_free = system.n_free
    parent = np.arange(n_free)

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for m, s in pairs:
        cm, cs = system.dof_of_node[m], system.dof_of_node[s]
        if cm < 0 or cs < 0:
            raise ConstraintError("periodic pairing touches an eliminated node")
        rm, rs = find(cm), find(cs)
        if rm != rs:
            parent[rs] = rm

    roots = np.array([find(c) for c in range(n_free)])
    uniq, new_col = np.unique(roots, return_inverse=True)
    dof = system.dof_of_node.copy()
    free = dof >= 0
    dof[free] = new_col[dof[free]]
    out = replace(system, dof_of_node=dof,
                  bc_record=system.bc_record + f"|periodic[{len(pairs)}]")
    if gauge is not None:
        out = apply_dirichlet(out, [gauge], [0.0])
    return out


class Factorization:
    """Direct sparse factorization of a reduced system, reusable across loads."""

    def __init__(self, system: SparseSystem):
        self.system = system
        a, self._rhs0 = system.reduced()
        self._reduction = system.reduction()
        if a.shape[0] == 0:
            self._lu = None
            return
        try:
            self._lu = spla.splu(a.tocsc())
        except RuntimeError as exc:
            raise SolverError(
                "factorization failed (matrix singular); a Dirichlet or gauge "
                f"constraint is likely missing: {exc}"
            ) from exc
        self._a = a

    def solve(self, rhs_full: np.ndarray | None = None,
              homogeneous: bool = False) -> np.ndarray:
        """Solve for the given full-size load (default: the system's own).

        With ``homogeneous=True`` the eliminated DOFs are taken as zero
        instead of the system's fixed values (adjoint solves reuse the
        state factorization this way).
        """
        if rhs_full is None:
            b = self._rhs0
        elif homogeneous:
            b = self._reduction.T @ rhs_full
        else:
            b = self._reduction.T @ (rhs_full - self.system.matrix
                                     @ self.system.fixed_values)
        if self._lu is None:
            return np.zeros(len(self.system.fixed_values)) if homogeneous \
                else self.system.expand(np.zeros(0))
        x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError(
                "solve produced non-finite values; a gauge constraint is likely missing"
            )
        res = np.linalg.norm(self._a @ x - b)
        scale = np.linalg.norm(b)
        if res > SOLVE_RTOL * max(scale, 1e-300) and res > 1e-14:
            raise SolverError(
                f"residual {res:.3e} exceeds contract {SOLVE_RTOL} * {scale:.3e}; "
                "if the operator is singular, a Dirichlet or gauge constraint "
                "is likely missing"
            )
        if homogeneous:
            return self._reduction @ x
        return self.system.expand(x)


def solve(system: SparseSystem) -> ScalarField:
    """Direct solve honouring the relative-residual contract."""
    values = Factorization(system).solve()
    return ScalarField(values=values, mesh=system.mesh, bc_record=system.bc_record)


def boundary_reaction(system: SparseSystem, values: np.ndarray, tag: str) -> float:
    """Discrete reaction (net flux) through a tagged boundary.

    Sum of stiffness residual entries over the boundary's nodes; for a
    zero-source conduction solve this is the heat inflow through the tag.
    """
    edges = system.mesh.boundary_edges[tag]
    nodes = np.unique(edges)
    r = system.matrix @ values - system.rhs
    return float(r[nodes].sum())
