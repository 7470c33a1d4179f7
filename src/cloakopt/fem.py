"""P1 finite-element core: assembly, constraints, sparse solves.

Scalar diffusion with element-constant 2x2 symmetric conductivity
tensors. Constraints (Dirichlet, periodic master-slave folding, gauge
pinning) are represented by an affine reconstruction

    u_nodes = R @ u_free + g

where R is a 0/1 matrix with at most one nonzero per row. Four objects
each hold one thing, and nothing that no reader reads:

- :class:`Constraints` is the numbering: R as ``dof_of_node``, g as
  ``fixed_values``. It expands free values to nodal ones (R x + g) and
  restricts nodal loads to free ones (R^T f).
- :class:`Structure` is the one slot table of a mesh: the unconstrained
  CSC pattern of all of its elements, and the data slot of every
  element-local 3x3 entry, built at first use and cached on the mesh
  (:func:`structure`). Every one-off operator is read from it: a
  region's (the objectives' mass and stiffness) is one in-place sum
  (``np.add.at``) of its elements' matrices into their slots, and a
  system whose constraints only eliminate nodes (the fixed-edge
  conduction systems of :mod:`cloakopt.macro_solver`, and the x >= 0
  half of a mirrored tiled structure, from its elements alone) is a
  gather of its free rows and columns (:func:`assemble`). So each mesh
  sorts and searches one pattern.
- :class:`ScaledAssembly` is the ordered assembly of an operator that is
  refactored again and again on one pattern, from a few values per
  element: the periodic cell operator (its conductivities) and a
  condensation's varying block (the macro design ring, the sweep's
  insert; a tensor's k11, k12, k22). It numbers the free DOFs once and
  assembles by one sparse mat-vec.
- :class:`SparseSystem` is an operator and nothing else: its
  constraints, R^T K R, the lift R^T K g of the fixed values, and
  whether the constraints number it in a fill-reducing order. Each
  solve is given its nodal load, ``None`` standing for the zero load.

A nodal field (a temperature, a corrector, an adjoint) is a plain array
indexed by mesh node, and every reader takes its mesh as an argument.
Objects cached on a mesh never hold the mesh strongly, so a mesh is
freed as soon as its last outside reference goes.

Reducing an assembled system through R keeps it symmetric positive
definite, so every factorization (:func:`_factor`) takes diagonal pivots
in SuperLU's symmetric mode and runs in its symmetric minimum-degree
order (MMD on A^T + A). SuperLU computes that order inside the
factorization (:data:`ORDERING`) for every matrix factored once: the
one-off direct solves (a single tiled evaluation, the normalized-mode
fill, exports) and the sweep's fixed block K_GG. Only two kinds are
given an explicit order (``NATURAL``), from
:func:`minimum_degree_order`: the systems of a :class:`ScaledAssembly`
come ``ordered``, as they are refactored on one pattern again and again,
and a default-mode condensation numbers its fixed block G once, because
the throwaway K_FF factor that yields S_I must take I last, and factors
K_GG in that numbering too. Every factorization also uses one supernode
setting, :data:`SUPERNODE_RELAX` and :data:`PANEL_SIZE`: scipy's defaults (relax
10, panel 20) pad the short supernodes of these 2D P1 operators with
explicit zeros that cost more than their dense kernels save. Relax 1 and
single-column panels factor every kind at least as fast as panel 4, with
the same fill and solve time (``BENCH_iterkernels.json``; interleaved
``splu`` medians on a 2-core Xeon VM, one BLAS thread): the cell at
resolution 32 (1,023 DOFs) 0.98 -> 0.84 ms and at 64 (4,095) 5.63 ->
5.30 ms, the macro ring's reduced [S_I, ring] (5,601) 7.03 -> 6.51 ms,
the macro K_GG (35,262) 65.4 -> 56.0 ms and its throwaway K_FF 73.0 ->
70.0 ms, the half fine mesh at eps0 = 1/9 (51,731) 114 -> 110 ms; the
sweep's K_GG (103,587) is within this VM's noise (293 -> 287 ms in
a 25-round pass).

Most solves factor the whole reduced operator (:class:`Factorization`).
The exception is an operator refactored many times with only a fixed
subset of its elements changing: the macro state operator across
optimizer iterations (only the design ring's tensors change) and the
tiled operator across the obstacle angles of a robustness sweep (only
the insert's disk changes). :class:`Condensation` factors the fixed part
once and condenses it onto the DOFs it shares with the varying part, and
each refactorization (:class:`CondensedFactorization`) factors only the
varying part plus that interface, assembled from the varying tensors
by one mat-vec and factored in the order fixed at the build. One-off
solves stay direct: they factor each operator once, so condensing it
would only add the fixed block's factorization. The level-set step is
no client: its operator is solved exactly by FFT on the periodic cell
grid (:mod:`cloakopt.levelset`), so nothing here is factored for it;
only the residual contract (:func:`_check_solution`) is shared.

A condensed factorization solves two loads: the zero load with the fixed
values (a state) and a load with zero fixed values (an adjoint). Its
condensation's mode decides how the interface Schur complement S_I is
formed and which of the two it takes. By default it keeps the K_GG
factor and takes both (the optimizer's adjoint loads the exterior and
obstacle, which are G); S_I is read off a throwaway factor of the whole
fixed part with the interface last. A caller that solves states alone
(the robustness sweep) asks instead to keep the interface responses
X = K_GG^-1 K_GI, the static constraint modes of substructuring (Guyan
1965; Craig & Bampton 1968), from which S_I is formed; the factor is
then freed, and x_G = K_GG^-1 b_G - X x_I needs no K_GG solve.

A condensed solve is memory-bound (on the sweep's insert: X, 22 MB, the
fixed operator and full-length vectors), so it reads each once. The
build forms what no varying part changes: the zero load's right-hand
sides, full and reduced (the I-correction K_IG K_GG^-1 b_G included),
and, with the responses kept, X and K_GG^-1 b_G on full rows (zero on I
and R), so an angle's x is y - X x_I with the reduced solution written
over I and R. The fixed operator is kept in CSR, as the objectives'
operators are: each row sums in the CSC's column order, so every product
is bit-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .geometry import TriMesh

SOLVE_RTOL = 1e-10
ORDERING = "MMD_AT_PLUS_A"       # symmetric fill-reducing ordering for SPD operators
SUPERNODE_RELAX = 1              # columns of a relaxed supernode at the tree's leaves
PANEL_SIZE = 1                   # columns factored together as one panel
RESPONSE_BLOCK = 2               # interface responses per multi-RHS solve of a fixed block

_LUMPED_MASS = np.eye(3) / 3.0
_CONSISTENT_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class SolverError(RuntimeError):
    """Linear solve failed (singular or did not meet the residual contract)."""


class ConstraintError(ValueError):
    """Inconsistent Dirichlet values or periodic pairing."""


@dataclass(frozen=True, eq=False)
class Constraints:
    """The numbering of one mesh's nodal values: u = R x + g."""

    dof_of_node: np.ndarray        # node -> free-DOF column, -1 if eliminated
    fixed_values: np.ndarray       # value for eliminated nodes, 0 elsewhere

    @classmethod
    def none(cls, n_nodes: int) -> "Constraints":
        return cls(np.arange(n_nodes), np.zeros(n_nodes))

    @cached_property
    def n_free(self) -> int:
        return int(self.dof_of_node.max(initial=-1)) + 1

    @cached_property
    def _free(self) -> np.ndarray:
        """The mask of the free nodes, found once."""
        return self.dof_of_node >= 0

    @cached_property
    def _in_mesh_order(self) -> bool:
        """Whether the free nodes are the free DOFs in mesh order."""
        dofs = self.dof_of_node[self._free]
        return bool(np.array_equal(dofs, np.arange(len(dofs))))

    def expand(self, x_free: np.ndarray, homogeneous: bool = False) -> np.ndarray:
        """R x + g, or R x alone with ``homogeneous``."""
        u = np.zeros(len(self.fixed_values)) if homogeneous else self.fixed_values.copy()
        free = self._free
        u[free] = x_free if self._in_mesh_order else x_free[self.dof_of_node[free]]
        return u

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        """R^T f for a nodal vector f: each free DOF sums its nodes' values."""
        free = self._free
        return np.bincount(self.dof_of_node[free], weights=nodal[free], minlength=self.n_free)


def apply_dirichlet(constraints: Constraints, nodes, values) -> Constraints:
    """Eliminate the given nodes; idempotent for equal values.

    A node already folded onto a master constrains the whole periodic
    group. Conflicting values for one DOF are rejected.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    values = np.broadcast_to(np.asarray(values, dtype=float), nodes.shape)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= len(constraints.dof_of_node)):
        raise ConstraintError("Dirichlet node index outside the mesh")

    cols = constraints.dof_of_node[nodes]
    done = cols < 0
    changed = np.abs(constraints.fixed_values[nodes[done]] - values[done]) > 1e-14
    if changed.any():
        raise ConstraintError(
            f"node {nodes[done][changed][0]} already fixed to a different value")
    cols, values, nodes = cols[~done], values[~done], nodes[~done]
    fix_value = np.full(constraints.n_free, np.nan)
    fix_value[cols] = values
    clash = fix_value[cols] != values
    if clash.any():
        raise ConstraintError(f"conflicting Dirichlet values for node {nodes[clash][0]}")

    fixed_cols = ~np.isnan(fix_value)
    new_col = np.cumsum(~fixed_cols) - 1
    dof = constraints.dof_of_node.copy()
    fixed_values = constraints.fixed_values.copy()
    had_dof = np.flatnonzero(dof >= 0)
    col_of = dof[had_dof]
    newly_fixed = fixed_cols[col_of]
    fixed_values[had_dof[newly_fixed]] = fix_value[col_of[newly_fixed]]
    dof[had_dof] = np.where(newly_fixed, -1, new_col[col_of])
    return replace(constraints, dof_of_node=dof, fixed_values=fixed_values)


def apply_periodic(constraints: Constraints, pairs: np.ndarray,
                   gauge: int | None = None) -> Constraints:
    """Fold slave DOFs onto masters; optionally pin one gauge node to 0.

    ``pairs`` rows are (master, slave). Chained pairs fold transitively
    (each connected group of DOFs becomes one), so corner nodes may
    pair through an edge node. A slave listed twice is rejected.
    """
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConstraintError("periodic pairs must be an (P, 2) array")
    uniq, counts = np.unique(pairs[:, 1], return_counts=True)
    if np.any(counts > 1):
        raise ConstraintError(
            f"node {int(uniq[counts > 1][0])} appears as slave more than once"
        )
    cols = constraints.dof_of_node[pairs]
    if np.any(cols < 0):
        raise ConstraintError("periodic pairing touches an eliminated node")

    n_free = constraints.n_free
    links = sp.coo_matrix((np.ones(len(cols)), (cols[:, 0], cols[:, 1])),
                          shape=(n_free, n_free))
    _, group = csgraph.connected_components(links, directed=False)
    dof = constraints.dof_of_node.copy()
    free = dof >= 0
    dof[free] = group[dof[free]]
    out = replace(constraints, dof_of_node=dof)
    if gauge is not None:
        out = apply_dirichlet(out, [gauge], [0.0])
    return out


class Structure:
    """The slot table of a mesh: the CSC pattern of the unconstrained
    operator sum_e K_e over all of its elements, and the data slot of
    each element-local entry (e, i, j).

    Every one-off operator of the mesh is read from it (:func:`structure`
    builds it at first use and caches it on the mesh): a region's
    operator is one in-place sum of its elements' matrices into their
    slots (:meth:`matrix`), and a system whose constraints only eliminate
    nodes is that of its elements (all, or a subset), gathered onto its
    free rows and columns (:func:`assemble`). It holds no mesh.
    """

    def __init__(self, mesh: TriMesh):
        n = self.n_nodes = mesh.n_nodes
        elements = mesh.elements

        def keys(i, j):
            """Column-major position of entry (i, j) of every element."""
            return elements[:, j].astype(np.int64) * n + elements[:, i]

        # one local pair at a time keeps the build's memory at a few
        # element-length arrays, which matters on the tiled fine mesh
        pairs = [(i, j) for i in range(3) for j in range(3)]
        pattern = np.concatenate([keys(i, j) for i, j in pairs])
        pattern.sort()
        pattern = pattern[np.r_[True, pattern[1:] != pattern[:-1]]]
        self.nnz = len(pattern)
        self._slots = np.empty((len(elements), 3, 3), dtype=np.int32)
        for i, j in pairs:
            self._slots[:, i, j] = np.searchsorted(pattern, keys(i, j))
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)

    def matrix(self, element_matrices: np.ndarray, elements=slice(None),
               free: np.ndarray | None = None) -> sp.csc_matrix:
        """The nodal operator of the selected elements' matrices
        (n_selected, 3, 3), all elements by default, on the rows and
        columns of the nodes ``free`` (a mask, default all), numbered in
        mesh order: a gather of the slots, with no table of its own.

        Entries that sum to exactly zero are dropped, so the pattern is
        that of the selected elements alone and, under an isotropic
        conductivity, the two ends of a right triangle's hypotenuse do
        not couple: a one-off factorization orders only true nonzeros.
        The arrays hold the kept entries alone, so a cached operator keeps
        nothing of the whole pattern. An operator assembled and factored
        many times on one pattern goes through :class:`ScaledAssembly`
        instead, which numbers its DOFs once and whose pattern holds no
        such slots.
        """
        if free is None:
            free = np.ones(self.n_nodes, dtype=bool)
        # summed in place and in element order, as np.bincount would sum
        # them, but without the intp copy of the int32 slots that bincount
        # makes (14 MB on the eps0 = 1/9 fine mesh, 0.24 GB at 1/36)
        data = np.zeros(self.nnz)
        np.add.at(data, self._slots[elements].ravel(), element_matrices.ravel())
        keep = (data != 0.0) & free[self._indices] & np.repeat(free, np.diff(self._indptr))
        kept = np.r_[0, np.cumsum(keep)][self._indptr]      # kept entries before each column
        indptr = np.r_[0, np.cumsum(np.diff(kept)[free])].astype(np.int32)
        number = (np.cumsum(free) - 1).astype(np.int32)
        n = len(indptr) - 1
        return sp.csc_matrix((data[keep], number[self._indices[keep]], indptr), shape=(n, n))


def structure(mesh: TriMesh) -> Structure:
    """The slot table of ``mesh``, built at first use and cached on it."""
    return cached(mesh, "structure", lambda: Structure(mesh))


class ScaledAssembly:
    """The ordered assembly of R^T K R for element matrices
    sum_c s_ec K_ec: fixed component matrices K_ec of a mesh's elements
    (all by default, else the indices ``elements``), scaled by element
    values s_ec, plus an optional constant matrix C, both given in the
    numbering of ``constraints``.

    Every operator factored again and again on one pattern (the periodic
    cell, a condensation's varying block) is built here, and numbered
    here alone. The pattern is every entry that some K_ec reaches with a
    nonzero value, plus C's: the zero couplings of a right triangle's
    hypotenuse under an isotropic K_e take no entry, but its k12
    component reaches them. The free DOFs are numbered once, in the
    :func:`minimum_degree_order` of that pattern (:attr:`order`: entry k
    is the input DOF numbered k-th), and :attr:`constraints` is the input
    renumbered so; its systems are ``ordered``, so no factorization of
    them orders again. It holds these, its maps and C's data, but no slot
    table and no mesh. Where the off-diagonal
    entries of every single-component K_e are <= 0 (no obtuse angle), no
    positive s cancels an entry, so the pattern is that of
    :meth:`Structure.matrix` for every s.

    The reduced matrix is linear in s, so its CSC data is one sparse
    mat-vec of s, through a map built once; so is the lift of nonzero
    fixed values, through a second map. With one component per element
    the s_e are the element conductivities (the cell); with the three of
    :func:`tensor_components`, a tensor's (k11, k12, k22).
    """

    def __init__(self, mesh: TriMesh, constraints: Constraints, element_matrices: np.ndarray,
                 elements: np.ndarray | None = None, constant: sp.spmatrix | None = None):
        nodes = mesh.elements if elements is None else mesh.elements[elements]
        n, n_e = constraints.n_free, len(nodes)
        matrices = element_matrices.reshape(n_e, -1, 3, 3)
        n_c = matrices.shape[1]
        local = constraints.dof_of_node[nodes]
        rows = np.broadcast_to(local[:, None, :, None], matrices.shape).ravel()
        cols = np.broadcast_to(local[:, None, None, :], matrices.shape).ravel()
        values = matrices.ravel()
        keep = (rows >= 0) & (cols >= 0) & (values != 0.0)
        rows, cols, values = rows[keep], cols[keep], values[keep]
        scales = np.repeat(np.arange(n_e * n_c), 9)[keep]
        del keep
        c = sp.coo_matrix((n, n)) if constant is None else constant.tocoo()

        self.order = minimum_degree_order(_pattern_matrix(n, np.r_[rows, c.row],
                                                          np.r_[cols, c.col]))
        position = np.empty_like(self.order)
        position[self.order] = np.arange(n)
        dof = np.where(constraints.dof_of_node >= 0, position[constraints.dof_of_node], -1)
        self.constraints = replace(constraints, dof_of_node=dof)

        # column-major positions of the entries in that numbering
        entry_keys = position[cols].astype(np.int64) * n + position[rows]
        constant_keys = position[c.col].astype(np.int64) * n + position[c.row]
        pattern = np.unique(np.r_[entry_keys, constant_keys])
        self._map = sp.csr_matrix((values, (np.searchsorted(pattern, entry_keys), scales)),
                                  shape=(len(pattern), n_e * n_c))
        del values, scales, entry_keys
        # C's data on the pattern; system() leaves it out, its callers add it
        self.constant = None if constant is None else np.bincount(
            np.searchsorted(pattern, constant_keys), weights=c.data, minlength=len(pattern))
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)

        lifting = np.flatnonzero((constraints.fixed_values[nodes] != 0.0).any(axis=1))
        self._lift = None
        if len(lifting):
            nodes = nodes[lifting]
            kg = matrices[lifting] @ constraints.fixed_values[nodes][:, None, :, None]
            rows = np.broadcast_to(dof[nodes][:, None], kg.shape[:3])
            cols = np.broadcast_to((lifting[:, None] * n_c + np.arange(n_c))[:, :, None],
                                   kg.shape[:3])
            free = rows >= 0
            self._lift = sp.csr_matrix((kg[..., 0][free], (rows[free], cols[free])),
                                       shape=(n, n_e * n_c))

    def system(self, scales: np.ndarray) -> SparseSystem:
        """R^T K R (without C, on the pattern that includes C's slots) and
        the lift R^T K g, for the element scales s (n_elements,) or
        (n_elements, n_components)."""
        s = np.asarray(scales, dtype=float).ravel()
        if s.shape != (self._map.shape[1],):
            raise ValueError(f"expected {self._map.shape[1]} element scales, got {s.size}")
        n = len(self.order)
        matrix = sp.csc_matrix((self._map @ s, self._indices.copy(), self._indptr.copy()),
                               shape=(n, n))
        lift = np.zeros(n) if self._lift is None else self._lift @ s
        return SparseSystem(self.constraints, matrix, lift, ordered=True)


_CACHE_LOCK = threading.RLock()


def cached(mesh: TriMesh, key, build):
    """``build()`` once per mesh and key; later calls return the same object.

    Kept on the mesh. The lock makes concurrent first uses (cells
    homogenized in threads) build once; it is reentrant because a build
    may need another cached object of the same mesh.
    """
    with _CACHE_LOCK:
        if key not in mesh.cache:
            mesh.cache[key] = build()
        return mesh.cache[key]


@dataclass
class SparseSystem:
    """An operator reduced onto a numbering, and nothing else: the
    constraints, R^T K R and the lift R^T K g of the fixed values. With
    ``ordered`` the constraints number the free DOFs in a fill-reducing
    order, which :class:`Factorization` keeps (only the systems of a
    :class:`ScaledAssembly` are). The load is no part of it: each solve
    is given its own."""

    constraints: Constraints
    matrix: sp.csc_matrix
    lift: np.ndarray
    ordered: bool = False

    @property
    def n_free(self) -> int:
        return len(self.lift)

    def reduced_load(self, rhs_full: np.ndarray | None = None,
                     homogeneous: bool = False) -> np.ndarray:
        """R^T (f - K g) for the nodal load f (``None``: zero); g is taken
        as zero with ``homogeneous``."""
        b = np.zeros(self.n_free) if rhs_full is None else self.constraints.restrict(rhs_full)
        return b if homogeneous else b - self.lift


def assemble(mesh: TriMesh, element_matrices: np.ndarray, constraints: Constraints,
             elements=slice(None)) -> SparseSystem:
    """Reduce the selected elements' matrices (n_selected, 3, 3), all of
    a mesh's by default, onto constraints that only eliminate nodes: the
    free nodes, numbered in mesh order, are the free DOFs, so R^T K R is
    the free rows and columns of the mesh's slot table
    (:meth:`Structure.matrix`). Every free node must lie on a selected
    element, else the operator is singular. The element matrices are not
    kept."""
    dof, g = constraints.dof_of_node, constraints.fixed_values
    free = dof >= 0
    if not np.array_equal(dof[free], np.arange(constraints.n_free)):
        raise ValueError("a mesh's slot table reduces only constraints that eliminate "
                         "nodes, with the free nodes numbered in mesh order")
    selected = mesh.elements[elements]
    # the elements that carry the lift of nonzero fixed values onto free rows
    lifting = np.flatnonzero((g[selected] != 0.0).any(axis=1))
    nodes = selected[lifting]
    kg = np.einsum("eij,ej->ei", element_matrices[lifting], g[nodes])
    lift = constraints.restrict(np.bincount(nodes.ravel(), weights=kg.ravel(), minlength=len(g)))
    return SparseSystem(constraints, structure(mesh).matrix(element_matrices, elements, free),
                        lift)


def isotropic_tensors(values) -> np.ndarray:
    """(M,) scalar conductivities -> (M, 2, 2) isotropic tensor array."""
    values = np.asarray(values, dtype=float)
    t = np.zeros((len(values), 2, 2))
    t[:, 0, 0] = values
    t[:, 1, 1] = values
    return t


def _check_spd(tensors: np.ndarray) -> None:
    if not np.isfinite(tensors).all():
        bad = int(np.flatnonzero(~np.isfinite(tensors).all(axis=(1, 2)))[0])
        raise ValueError(f"element {bad}: conductivity tensor is not finite")
    # entry-wise on the (M,) columns: reductions over the 2x2 axes cost ~5x more
    k11, k12, k21, k22 = tensors[:, 0, 0], tensors[:, 0, 1], tensors[:, 1, 0], tensors[:, 1, 1]
    tr = k11 + k22
    det = k11 * k22 - k12 * k21
    scale = np.maximum(np.maximum(np.abs(k11), np.abs(k12)),
                       np.maximum(np.abs(k21), np.abs(k22))) + 1e-300
    if np.any(np.abs(k12 - k21) > 1e-10 * scale):
        raise ValueError("element conductivity tensors must be symmetric")
    if np.any(tr <= 0) or np.any(det <= 0):
        bad = int(np.flatnonzero((tr <= 0) | (det <= 0))[0])
        raise ValueError(f"element {bad}: conductivity tensor is not SPD")


def element_stiffness(mesh: TriMesh, tensors: np.ndarray,
                      elements=slice(None)) -> np.ndarray:
    """Element matrices a_e grad_i . K_e grad_j of the selected elements
    (default all), one tensor each; shape (n_selected, 3, 3)."""
    grads = mesh.grads[elements]
    ke = grads @ (tensors @ grads.transpose(0, 2, 1))
    ke *= mesh.areas[elements][:, None, None]
    return ke


def tensor_components(mesh: TriMesh, elements=slice(None)) -> np.ndarray:
    """The element matrices of the selected elements (default all) under
    the unit tensors of k11, k12 (both off-diagonal entries) and k22;
    shape (n_selected, 3, 3, 3). Contracted with a symmetric tensor's
    (k11, k12, k22) they give :func:`element_stiffness`."""
    grads = mesh.grads[elements]
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    a = mesh.areas[elements][:, None, None]
    xy = gx[:, :, None] * gy[:, None, :]
    return np.stack([a * (gx[:, :, None] * gx[:, None, :]),
                     a * (xy + xy.transpose(0, 2, 1)),
                     a * (gy[:, :, None] * gy[:, None, :])], axis=1)


def element_mass(mesh: TriMesh, lumped: bool = False,
                 elements=slice(None)) -> np.ndarray:
    """Consistent (or row-sum lumped) P1 element mass matrices of the
    selected elements (default all)."""
    local = _LUMPED_MASS if lumped else _CONSISTENT_MASS
    return mesh.areas[elements][:, None, None] * local


def assemble_diffusion(mesh: TriMesh, tensors: np.ndarray, constraints: Constraints,
                       elements=slice(None)) -> SparseSystem:
    """Diffusion operator of the selected elements of a mesh (default
    all), one tensor each, reduced onto constraints that only eliminate
    nodes; see :func:`assemble`."""
    tensors = np.asarray(tensors, dtype=float)
    if tensors.shape != (len(mesh.elements[elements]), 2, 2):
        raise ValueError("tensors must have shape (n_selected_elements, 2, 2)")
    _check_spd(tensors)
    return assemble(mesh, element_stiffness(mesh, tensors, elements), constraints, elements)


def _superlu(routine, matrix: sp.csc_matrix, **options):
    """A SuperLU (complete or incomplete) factorization, whose singular
    matrix raises :class:`SolverError` instead of a bare RuntimeError."""
    try:
        return routine(matrix, **options)
    except RuntimeError as exc:
        raise SolverError(
            "factorization failed (matrix singular); a Dirichlet or gauge "
            f"constraint is likely missing: {exc}"
        ) from exc


def _factor(matrix: sp.csc_matrix, *, permc_spec: str):
    """SuperLU factorization of an SPD matrix: diagonal pivots in symmetric
    mode and the module's supernode constants, in the column order
    ``permc_spec``, given (``"NATURAL"``) or computed (:data:`ORDERING`)."""
    return _superlu(spla.splu, matrix, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                    relax=SUPERNODE_RELAX, panel_size=PANEL_SIZE,
                    options={"SymmetricMode": True})


def minimum_degree_order(matrix: sp.csc_matrix) -> np.ndarray:
    """The columns of an SPD matrix in SuperLU's symmetric minimum-degree
    order: entry k is the column eliminated k-th.

    SuperLU exposes the ordering only through a factorization; an
    incomplete one that drops every off-diagonal entry is the cheapest,
    and its ``perm_c`` (column j's position) is that of a complete one.
    """
    return np.argsort(_superlu(spla.spilu, matrix, drop_tol=1.0, fill_factor=1,
                               permc_spec=ORDERING).perm_c)


def _check_solution(x: np.ndarray, residual: np.ndarray, b: np.ndarray) -> None:
    """Enforce the relative-residual contract on a solve of A x = b."""
    if not np.all(np.isfinite(x)):
        raise SolverError(
            "solve produced non-finite values; a gauge constraint is likely missing"
        )
    res = np.linalg.norm(residual)
    scale = np.linalg.norm(b)
    if res > SOLVE_RTOL * max(scale, 1e-300) and res > 1e-14:
        raise SolverError(
            f"residual {res:.3e} exceeds contract {SOLVE_RTOL} * {scale:.3e}; "
            "if the operator is singular, a Dirichlet or gauge constraint "
            "is likely missing"
        )


class Factorization:
    """Direct sparse factorization of a reduced system, reusable across
    loads; in minimum-degree order, computed here unless the system is
    ``ordered``. Holds the system, for its constraints and the residual."""

    def __init__(self, system: SparseSystem):
        self.system = system
        order = "NATURAL" if system.ordered else ORDERING
        self._lu = _factor(system.matrix, permc_spec=order) if system.n_free else None

    def solve(self, rhs_full: np.ndarray | None = None,
              homogeneous: bool = False) -> np.ndarray:
        """Solve for the given full-size nodal load (``None``: zero).

        With ``homogeneous=True`` the eliminated DOFs are taken as zero
        instead of the system's fixed values (adjoint solves reuse the
        state factorization this way).
        """
        x = (np.zeros(0) if self._lu is None
             else self.solve_free(self.system.reduced_load(rhs_full, homogeneous)))
        return self.system.constraints.expand(x, homogeneous)

    def solve_free(self, b: np.ndarray) -> np.ndarray:
        """The free-DOF solution of A x = b, under the residual contract."""
        x = self._lu.solve(b)
        _check_solution(x, self.system.matrix @ x - b, b)
        return x


class Condensation:
    """The fixed part of a system condensed onto the DOFs it shares with a
    varying part, for operators refactored with new varying elements.

    ``fixed`` is assembled on ``mesh`` from the fixed elements alone;
    ``varying_elements`` indexes the others. The free DOFs split into R
    (on a varying element), I (off them but coupled to R by the fixed
    operator) and G (the rest of the fixed region). The fixed block K_GG
    is factored once, in minimum-degree order, and the interface Schur
    complement S_I = K_II - K_IG K_GG^-1 K_GI is formed once, in the way
    ``keep_responses`` (below) picks. By default G is numbered in that
    order first (:func:`minimum_degree_order`), as the throwaway K_FF
    factor takes G so with I last; with ``keep_responses`` nothing else
    factors G, so SuperLU orders K_GG inside its own factorization
    (:data:`ORDERING`) and no ordering pass is paid twice. A varying
    operator then needs only the SPD factorization of
    [[S_I, K_IR], [K_RI, K_RR]] (:meth:`factor`).
    It is assembled by one mat-vec of the tensors' components
    (:attr:`assembly`, a :class:`ScaledAssembly` over I and R with G
    eliminated, whose constant is the condensed fixed block), which
    numbers I and R once, in the minimum-degree order of every entry that
    SPD tensors on the varying elements can fill (:attr:`reduced_dofs`
    maps them back), so a refactorization neither assembles element
    matrices nor orders.

    Every state has the same load off R (the varying elements' lift
    touches only R), so the build forms its right-hand sides once:
    :attr:`zero_load` (-R^T K g) on the free DOFs, and
    :attr:`zero_load_reduced` on the reduced ones, with G eliminated by
    the one K_GG solve y_G = K_GG^-1 b_G of that load (b_I - K_IG y_G).
    :attr:`i_reduced` places I among the reduced DOFs. Holds the fixed
    system's :attr:`constraints` and operator (:attr:`fixed_matrix`, in
    CSR, for the residual's mat-vec), those loads, the
    :attr:`varying_elements` and their assembly, but not the mesh. By
    default it also holds the K_GG factor, for an adjoint's load on G,
    and reads S_I off a throwaway factor of K_FF (:func:`_interface_schur`).
    With ``keep_responses`` it forms S_I from the interface responses
    X = K_GG^-1 K_GI (:meth:`_solved_schur`), holds X instead
    (:attr:`responses`, on full rows: zero on I and R, filled once the
    factor that solved X and y_G is freed) and y_G on full rows
    (:attr:`zero_load_x`), and solves states alone, whose x_G needs no
    K_GG solve (the robustness sweep's insert).
    """

    def __init__(self, mesh: TriMesh, fixed: SparseSystem, varying_elements: np.ndarray,
                 keep_responses: bool = False):
        self.constraints = fixed.constraints
        self.varying_elements = varying_elements
        k = fixed.matrix
        dof = self.constraints.dof_of_node
        n = fixed.n_free

        local = dof[mesh.elements[varying_elements]]
        r = np.unique(local[local >= 0])
        in_r = np.zeros(n, dtype=bool)
        in_r[r] = True
        coupled = np.zeros(n, dtype=bool)
        coupled[k[:, r].indices] = True
        self.i = i = np.flatnonzero(coupled & ~in_r)
        g = np.flatnonzero(~coupled & ~in_r)

        if len(g) and not keep_responses:
            # the throwaway K_FF factor takes G in this order with I last
            g = g[minimum_degree_order(k[g][:, g])]
        self.g = g
        self.k_ig = k[i][:, g]
        self.responses: np.ndarray | None = None
        if not keep_responses:
            self.schur = _interface_schur(k, g, i)
        # factored after the K_FF factor behind a read S_I is freed: they never coexist
        self._lu = (_factor(k[g][:, g], permc_spec=ORDERING if keep_responses else "NATURAL")
                    if len(g) else None)
        if keep_responses:
            self.schur, blocks = self._solved_schur(k[i][:, i])
        # the zero load with the fixed values, R^T (0 - K g)
        self.zero_load = np.zeros(n) - fixed.lift
        y_g = self.solve_g(self.zero_load[g])
        self.zero_load_x = None
        if keep_responses:
            # X on full rows, column-major: X x_I then sums each row in the
            # same order whichever rows X has. Filled only once the factor
            # is freed, so the two never coexist: the blocks, solved while
            # it is held, fit the heap's free chunks, where one 22 MB array
            # allocated beside it raised the eps0 = 1/9 sweep's peak RSS by 19 MB
            self._lu = None
            self.responses = np.zeros((n, len(i)), order="F")
            for j, block in zip(range(0, len(i), RESPONSE_BLOCK), blocks):
                self.responses[g, j:j + block.shape[1]] = block
            del blocks
            self.zero_load_x = np.zeros(n)
            self.zero_load_x[g] = y_g

        ir = np.concatenate([i, r])
        n_ir = len(ir)

        def leading(block):
            block = block.tocoo()
            return sp.csc_matrix((block.data, (block.row, block.col)), shape=(n_ir, n_ir))

        # K_II is cancelled exactly before S_I replaces it
        reduced_fixed = (k[ir][:, ir] - leading(k[i][:, i])) + leading(self.schur)
        # I and R numbered as in ir, G eliminated (its fixed value is 0)
        reduced_of = np.full(n, -1)
        reduced_of[ir] = np.arange(n_ir)
        self.assembly = ScaledAssembly(
            mesh, Constraints(np.where(dof >= 0, reduced_of[dof], -1),
                              self.constraints.fixed_values),
            tensor_components(mesh, varying_elements), varying_elements,
            constant=reduced_fixed)
        self.reduced_dofs = ir[self.assembly.order]      # the free DOF of each reduced one
        # the position of each I DOF among the reduced ones
        self.i_reduced = np.argsort(self.assembly.order)[:len(i)]
        self.zero_load_reduced = self.zero_load[self.reduced_dofs]
        self.zero_load_reduced[self.i_reduced] -= self.k_ig @ y_g
        # CSR for the residual's mat-vec: each row sums in the CSC's column
        # order, so every product is bit-identical
        self.fixed_matrix = k.tocsr()

    def _solved_schur(self, k_ii: sp.csc_matrix) -> tuple[sp.csc_matrix, list[np.ndarray]]:
        """S_I = K_II - K_IG X, symmetrized, and the interface responses
        X = K_GG^-1 K_GI as blocks of :data:`RESPONSE_BLOCK` columns.

        Each block is one multi-RHS solve. Beside the K_GG factor and the
        blocks solved so far, it holds two more |G| x block arrays
        (scipy's copy of the load and SuperLU's zeroed work array), and
        that sum sets the tiled sweep's peak RSS. On the eps0 = 1/9 insert
        (|I| = 27, |G| = 103,587) blocks of 1, 2, 4 and 8 columns took
        ~0.33, ~0.25, ~0.2 and ~0.2 s for the 27 solves, and read about
        +2%, +3%, +4.5% and +10% in the sweep's peak RSS against a
        condensation that keeps only its factor.
        """
        k_ig = self.k_ig.tocsr()
        s = k_ii.toarray()
        blocks = []
        for j in range(0, len(self.i), RESPONSE_BLOCK):
            block = self.solve_g(k_ig[j:j + RESPONSE_BLOCK].T.toarray())
            s[:, j:j + block.shape[1]] -= k_ig @ block
            blocks.append(block)
        return sp.csc_matrix(0.5 * (s + s.T)), blocks

    def factor(self, tensors: np.ndarray) -> "CondensedFactorization":
        """Factor the condensed system for the varying elements' SPD
        tensors (n_varying, 2, 2), in the order of :attr:`varying_elements`."""
        tensors = np.asarray(tensors, dtype=float)
        if tensors.shape != (len(self.varying_elements), 2, 2):
            raise ValueError("tensors must have shape (n_varying_elements, 2, 2)")
        _check_spd(tensors)
        components = tensors[:, [0, 0, 1], [0, 1, 1]]      # k11, k12, k22
        return CondensedFactorization(self, self.assembly.system(components))

    def solve_g(self, b_g: np.ndarray) -> np.ndarray:
        """K_GG^-1 b_G (a vector, or one per column), in the order of
        :attr:`g`; ``ValueError`` once ``keep_responses`` has freed the factor."""
        if self._lu is not None:
            return self._lu.solve(b_g)
        if len(self.g):
            raise ValueError("the fixed block's factor is freed: this condensation "
                             "kept its interface responses instead")
        return b_g


def _pattern_matrix(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csc_matrix:
    """A nonsingular n x n matrix on the entries (rows, cols), for the
    :func:`minimum_degree_order` that numbers a :class:`ScaledAssembly`:
    the ordering reads only the pattern, the incomplete factorization
    behind it needs nonzero pivots, which diagonal dominance gives."""
    pattern = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    pattern.data[:] = -1.0
    pattern.setdiag(np.diff(pattern.indptr))
    return pattern


def _interface_schur(k: sp.csc_matrix, g: np.ndarray, i: np.ndarray) -> sp.csc_matrix:
    """S_I = K_II - K_IG K_GG^-1 K_GI, read off the trailing block of a
    factorization of K_FF (F = G + I) with I ordered last.

    Diagonal pivots on an SPD matrix give U = D L^T, so the trailing
    block L_II U_II is U_II^T D_I^-1 U_II and only U is copied out.
    SuperLU postorders the elimination tree, which may move the I columns
    but keeps the factor values, so the block is read at their positions.
    The factor, with the U copy scipy caches on it, is dropped on return.
    """
    if not len(i):
        return sp.csc_matrix((0, 0))
    f = np.concatenate([g, i])
    lu = _factor(k[f][:, f], permc_spec="NATURAL")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("the fixed block pivoted off its diagonal; it is not SPD")
    pos = lu.perm_c[len(g):]
    u_ii = lu.U[pos][:, pos]
    return (u_ii.T @ sp.diags(1.0 / u_ii.diagonal()) @ u_ii).tocsc()


class CondensedFactorization:
    """A condensed system factored for one varying part.

    It solves two loads, one path each, by one reduced solve, and checks
    the relative residual on the full system (K_fixed + K_varying) x = b,
    on the x it returns. ``solve()`` is the zero load with the fixed
    values (a state), from the right-hand sides its condensation formed
    at the build; x_G takes one K_GG solve, x_G = K_GG^-1 (b_G - K_GI x_I),
    or none with the responses kept, x = y - X x_I on full rows with the
    reduced solution written over I and R. ``solve(load, homogeneous=True)``
    is a load with zero fixed values (an adjoint), on a condensation that
    keeps its K_GG factor; it takes one more K_GG solve, y_G = K_GG^-1 b_G.
    Any other call raises ``ValueError`` before any solve. ``varying`` is
    the varying elements' operator alone, on the reduced DOFs; the reduced
    system factored adds the condensed fixed block to its data, in the
    given order.
    """

    def __init__(self, condensation: Condensation, varying: SparseSystem):
        self.condensation = condensation
        self.varying = varying
        reduced = varying.matrix.copy()
        reduced.data += condensation.assembly.constant
        self.reduced = Factorization(replace(varying, matrix=reduced))

    def solve(self, rhs_full: np.ndarray | None = None,
              homogeneous: bool = False) -> np.ndarray:
        """The state (no arguments) or an adjoint (its nodal load, with
        ``homogeneous``); see the class."""
        c = self.condensation
        reduced, i = c.reduced_dofs, c.i_reduced
        if rhs_full is None and not homogeneous:        # the zero load, formed at the build
            vlift = self.varying.lift
            b = c.zero_load.copy()
            b[reduced] -= vlift
            # vlift is zero on I, so it commutes with the build's I-correction
            b_reduced = c.zero_load_reduced - vlift
        elif rhs_full is None or not homogeneous:
            raise ValueError("a condensed factorization solves the zero load with the fixed "
                             "values, solve(), or a load with zero fixed values, "
                             "solve(load, homogeneous=True)")
        elif c.responses is not None:
            raise ValueError("this condensation keeps no K_GG factor, only its interface "
                             "responses: it solves the zero load alone")
        else:       # eliminate G from the load
            b = c.constraints.restrict(rhs_full)
            y_g = c.solve_g(b[c.g])
            b_reduced = b[reduced]
            b_reduced[i] -= c.k_ig @ y_g
        # solve the reduced system for x_I and x_R, then recover x_G
        z = self.reduced.solve_free(b_reduced)
        if c.responses is None:
            x = np.empty_like(b)
            x[c.g] = c.solve_g(b[c.g] - c.k_ig.T @ z[i])
        else:
            x = c.responses @ z[i]
            np.subtract(c.zero_load_x, x, out=x)
        x[reduced] = z

        residual = c.fixed_matrix @ x
        residual[reduced] += self.varying.matrix @ z
        residual -= b
        _check_solution(x, residual, b)
        return c.constraints.expand(x, homogeneous)


def boundary_reaction(mesh: TriMesh, element_matrices: np.ndarray, values: np.ndarray,
                      tag: str) -> float:
    """Discrete reaction (net flux) through a tagged boundary.

    Sum of the entries of K u over the boundary's nodes, with K the full
    nodal operator of the element matrices; for a zero-source conduction
    solve this is the heat inflow through the tag.
    """
    elems = mesh.elements
    ku = np.bincount(elems.ravel(), minlength=mesh.n_nodes,
                     weights=(element_matrices @ values[elems][:, :, None]).ravel())
    return float(ku[np.unique(mesh.boundary_edges[tag])].sum())
