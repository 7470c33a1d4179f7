"""P1 finite-element core: assembly, constraints, sparse solves.

Scalar diffusion with element-constant 2x2 symmetric conductivity
tensors. Constraints (Dirichlet, periodic master-slave folding, gauge
pinning) are represented by an affine reconstruction

    u_nodes = R @ u_free + g

where R is a 0/1 matrix with at most one nonzero per row
(:class:`Constraints`: R as ``dof_of_node``, g as ``fixed_values``).
Reducing an assembled system through R keeps it symmetric positive
definite, so every factorization runs in SuperLU's symmetric
minimum-degree order (MMD on A^T + A). The one-off direct solves (a
single tiled evaluation, the normalized-mode fill, exports) compute that
order at factor time. Every operator factored again and again keeps an
order given to it, with diagonal pivots, because its pattern is the same
each time and ordering it again would only repeat the work: a
condensation's fixed blocks (K_GG, and the throwaway K_FF that yields
S_I), and every system on an ``ordered`` :class:`Structure`, whose DOFs
are numbered in that order once per mesh. The periodic cell operator
(:func:`cloakopt.homogenization.cell_operator`) is one; a condensation's
varying block (the macro design ring, the sweep's insert) is the other,
numbered for every entry that SPD tensors can fill. All these orders
come from :func:`minimum_degree_order`. Every factorization also uses one
supernode setting, :data:`SUPERNODE_RELAX` and :data:`PANEL_SIZE`. The
elimination trees of these 2D P1 operators have short supernodes, which
scipy's defaults (relax 10, panel 20) pad with explicit zeros, and the
padding costs more than its dense kernels save. Relax 1 and panel 4, a
point of the flat optimum that interleaved timings of the cell, ring and
fine operators found for relax 1-2 and panels of 2-5, factor the
resolution-64 cell (with 6% less fill) and the macro ring ~20% faster,
the eps0 = 1/9 fine operator 12-20% and the fixed blocks of a
condensation 15-35%.

The constraint map and the sparsity of the reduced operator depend only
on the mesh and the constraint set. :func:`structure` builds them once
per mesh and constraint set, at first use: the node-to-DOF map, the
reduced CSC pattern, and the data slot of every element-local 3x3 entry
with periodic slaves folded onto their masters. Assembling a system on such
a :class:`Structure` is one ``np.bincount`` of its element matrices
into the fixed slots; where the element matrices are fixed combinations
of a few element values (the cell's conductivities, a tensor's k11, k12
and k22), :class:`ScaledAssembly` makes it one sparse mat-vec. Objects
cached on a mesh never hold the mesh strongly, so a mesh is freed as
soon as its last outside reference goes.
A :class:`SparseSystem` is an operator and nothing else: each solve is
given its nodal load, ``None`` standing for the zero load.

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

The interface Schur complement S_I comes by one of two routes, chosen by
size. Where the interface is small against the fixed block
(4 |I| <= sqrt(|G|), as for the sweep's insert), it is formed from |I|
solves on the fixed block's factor, which the condensation keeps anyway.
Otherwise (the macro design ring, whose interface is 1.2-1.4 sqrt(|G|)),
those solves would cost more than a second factorization, so S_I is read
off a throwaway factor of the whole fixed part with the interface last.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .geometry import TriMesh

SOLVE_RTOL = 1e-10
ORDERING = "MMD_AT_PLUS_A"       # symmetric fill-reducing ordering for SPD operators
SUPERNODE_RELAX = 1              # columns of a relaxed supernode at the tree's leaves
PANEL_SIZE = 4                   # columns factored together as one panel

_LUMPED_MASS = np.eye(3) / 3.0
_CONSISTENT_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class SolverError(RuntimeError):
    """Linear solve failed (singular or did not meet the residual contract)."""


class ConstraintError(ValueError):
    """Inconsistent Dirichlet values or periodic pairing."""


@dataclass(eq=False)
class ScalarField:
    """Nodal scalar field (temperature, corrector, adjoint, ...).

    ``values`` must not change after construction: the element gradient
    is computed once and handed out read-only.
    """

    values: np.ndarray
    mesh: TriMesh
    _gradient: np.ndarray | None = field(default=None, init=False, repr=False)

    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            g = self.mesh.element_gradient(self.values)
            g.flags.writeable = False
            self._gradient = g
        return self._gradient


@dataclass(frozen=True, eq=False)
class Constraints:
    """The affine reconstruction u = R x + g of one mesh's nodal values."""

    dof_of_node: np.ndarray        # node -> free-DOF column, -1 if eliminated
    fixed_values: np.ndarray       # value for eliminated nodes, 0 elsewhere

    @classmethod
    def none(cls, n_nodes: int) -> "Constraints":
        return cls(np.arange(n_nodes), np.zeros(n_nodes))

    @property
    def n_free(self) -> int:
        return int(self.dof_of_node.max(initial=-1)) + 1

    def expand(self, x_free: np.ndarray, homogeneous: bool = False) -> np.ndarray:
        """R x + g, or R x alone with ``homogeneous``."""
        u = np.zeros(len(self.fixed_values)) if homogeneous else self.fixed_values.copy()
        free = self.dof_of_node >= 0
        u[free] = x_free[self.dof_of_node[free]]
        return u


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
    """Reduced sparsity of one mesh, or of a subset of its elements, under
    one constraint set.

    Holds the CSC pattern of R^T K R for any element matrices K_e of the
    covered elements (all by default, else the indices ``elements``), and
    the data slot of each element-local entry (e, i, j); entries in an
    eliminated row or column go to a discarded extra slot. With
    ``ordered`` the constraints number the free DOFs in a fill-reducing
    order, which :class:`Factorization` keeps. The mesh is held by weak
    reference: structures are cached on their mesh.
    """

    def __init__(self, mesh: TriMesh, constraints: Constraints,
                 elements: np.ndarray | None = None, ordered: bool = False):
        self._mesh = weakref.ref(mesh)
        self.constraints = constraints
        self.ordered = ordered
        self.element_ids = slice(None) if elements is None else np.asarray(elements)
        self._elements = mesh.elements[self.element_ids]
        n = self.n_free = constraints.n_free
        local = constraints.dof_of_node[self._elements]

        def keys(i, j):
            """Column-major position of entry (i, j) of every element, -1 if dropped."""
            r, c = local[:, i], local[:, j]
            return np.where((r >= 0) & (c >= 0), c.astype(np.int64) * n + r, -1)

        # one local pair at a time keeps the build's memory at a few
        # element-length arrays, which matters on the tiled fine mesh
        pairs = [(i, j) for i in range(3) for j in range(3)]
        pattern = np.concatenate([keys(i, j) for i, j in pairs])
        pattern.sort()
        pattern = pattern[(pattern >= 0) & np.r_[True, pattern[1:] != pattern[:-1]]]
        self.nnz = len(pattern)
        self._slots = np.empty((len(local), 3, 3), dtype=np.int32)
        for i, j in pairs:
            k = keys(i, j)
            self._slots[:, i, j] = np.where(k >= 0, np.searchsorted(pattern, k), self.nnz)
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
        self._free_nodes = np.flatnonzero(constraints.dof_of_node >= 0)
        # elements that carry the lift of nonzero fixed values onto free rows
        self._lift_elements = np.flatnonzero(
            (constraints.fixed_values[self._elements] != 0.0).any(axis=1))

    @property
    def mesh(self) -> TriMesh:
        mesh = self._mesh()
        if mesh is None:
            raise ReferenceError("the structure's mesh has been freed")
        return mesh

    @property
    def n_elements(self) -> int:
        return len(self._elements)

    def matrix(self, element_matrices: np.ndarray) -> sp.csc_matrix:
        """R^T K R for the covered elements' matrices (n_elements, 3, 3).

        Entries that sum to exactly zero are dropped: under an isotropic
        conductivity the two ends of a right triangle's hypotenuse do not
        couple, and the fill-reducing ordering sees only true nonzeros.
        An operator assembled many times on one pattern is cheaper through
        :class:`ScaledAssembly`, whose pattern holds no such slots.
        """
        data = np.bincount(self._slots.ravel(), weights=element_matrices.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        a = sp.csc_matrix((data, self._indices.copy(), self._indptr.copy()),
                          shape=(self.n_free, self.n_free))
        a.eliminate_zeros()
        return a

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        """R^T f for a nodal vector f."""
        nodes = self._free_nodes
        return np.bincount(self.constraints.dof_of_node[nodes], weights=nodal[nodes],
                           minlength=self.n_free)

    def lift(self, element_matrices: np.ndarray) -> np.ndarray:
        """R^T K g: the fixed values' load on the free DOFs."""
        e = self._lift_elements
        elems = self._elements[e]
        g = self.constraints.fixed_values
        kg = np.einsum("eij,ej->ei", element_matrices[e], g[elems])
        return self.restrict(np.bincount(elems.ravel(), weights=kg.ravel(),
                                         minlength=len(g)))


class ScaledAssembly:
    """R^T K R for element matrices sum_c s_ec K_ec: fixed component
    matrices K_ec of a structure's covered elements, scaled by element
    values s_ec, plus an optional constant matrix C.

    The reduced matrix is linear in s, so its CSC data is one sparse
    mat-vec of s, through a map built once. With one component per
    element the s_e are the element conductivities (the cell); with the
    three of :func:`tensor_components` they are a tensor's (k11, k12, k22)
    (a condensation's varying block). The pattern holds the slots that
    some K_ec reaches with a nonzero entry, and those of C: the zero
    couplings of a right triangle's hypotenuse under an isotropic K_e
    take no slot, but its k12 component reaches them. Where the other
    off-diagonal entries of every single-component K_e are <= 0 (no
    obtuse angle), no positive s cancels an entry, so the pattern is that
    of :meth:`Structure.matrix` for every s. The lift of nonzero fixed
    values is linear in s too, and goes through a second map.
    """

    def __init__(self, on: Structure, element_matrices: np.ndarray,
                 constant: sp.spmatrix | None = None):
        self.structure = on
        n, n_e = on.n_free, on.n_elements
        matrices = element_matrices.reshape(n_e, -1, 3, 3)
        n_c = matrices.shape[1]
        self._n_scales = n_e * n_c
        slots = np.broadcast_to(on._slots[:, None], matrices.shape).ravel()
        values = matrices.ravel()
        keep = (slots < on.nnz) & (values != 0.0)
        slots, values = slots[keep], values[keep]
        scales = np.repeat(np.arange(n_e * n_c), 9)[keep]
        del keep

        # column-major position of every slot of the structure's pattern
        slot_keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(on._indptr)) + on._indices
        used = np.zeros(on.nnz, dtype=bool)
        used[slots] = True
        keys = slot_keys[used]
        del used
        if constant is not None:
            constant = constant.tocoo()
            constant_keys = constant.col.astype(np.int64) * n + constant.row
            keys = np.concatenate([keys, constant_keys])
            keys.sort()
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        self._map = sp.csr_matrix(
            (values, (np.searchsorted(keys, slot_keys)[slots], scales)),
            shape=(len(keys), n_e * n_c))
        del values, slots, scales
        # C's data on the pattern; system() leaves it out, its callers add it
        self.constant = None if constant is None else np.bincount(
            np.searchsorted(keys, constant_keys), weights=constant.data, minlength=len(keys))
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)

        lifting = on._lift_elements
        self._lift = None
        if len(lifting):
            nodes = on._elements[lifting]
            kg = matrices[lifting] @ on.constraints.fixed_values[nodes][:, None, :, None]
            rows = np.broadcast_to(on.constraints.dof_of_node[nodes][:, None], kg.shape[:3])
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
        if s.shape != (self._n_scales,):
            raise ValueError(f"expected {self._n_scales} element scales, got {s.size}")
        n = self.structure.n_free
        matrix = sp.csc_matrix((self._map @ s, self._indices.copy(), self._indptr.copy()),
                               shape=(n, n))
        lift = np.zeros(n) if self._lift is None else self._lift @ s
        return SparseSystem(self.structure, matrix, lift, self.structure.mesh)


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


def structure(mesh: TriMesh, periodic: bool = False, dirichlet: tuple = ()) -> Structure:
    """The mesh's structure under a constraint set, built at first use.

    ``periodic`` folds the mesh's periodic pairs; ``dirichlet`` is a
    tuple of (boundary tag, value) pairs fixing every node of the tagged
    edges. (The gauge-pinned cell structure is built by
    :func:`cloakopt.homogenization.cell_operator`.)
    """
    def build():
        c = Constraints.none(mesh.n_nodes)
        if periodic:
            c = apply_periodic(c, mesh.periodic_pairs)
        for tag, value in dirichlet:
            c = apply_dirichlet(c, np.unique(mesh.boundary_edges[tag]), value)
        return Structure(mesh, c)
    return cached(mesh, ("structure", periodic, tuple(dirichlet)), build)


@dataclass
class SparseSystem:
    """An operator reduced onto a constraint structure: R^T K R, the lift
    R^T K g of the fixed values, and the mesh (held here, as a system is
    never cached on its mesh). The load is no part of it: each solve is
    given its own."""

    structure: Structure
    matrix: sp.csc_matrix
    lift: np.ndarray
    mesh: TriMesh

    @property
    def constraints(self) -> Constraints:
        return self.structure.constraints

    @property
    def n_free(self) -> int:
        return self.structure.n_free

    def reduced_load(self, rhs_full: np.ndarray | None = None,
                     homogeneous: bool = False) -> np.ndarray:
        """R^T (f - K g) for the nodal load f (``None``: zero); g is taken
        as zero with ``homogeneous``."""
        b = np.zeros(self.n_free) if rhs_full is None else self.structure.restrict(rhs_full)
        return b if homogeneous else b - self.lift


def assemble(on: Structure, element_matrices: np.ndarray) -> SparseSystem:
    """Reduce the covered elements' matrices (n_elements, 3, 3) onto a
    structure; the element matrices are not kept."""
    return SparseSystem(on, on.matrix(element_matrices), on.lift(element_matrices), on.mesh)


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


def assemble_diffusion(mesh: TriMesh, tensors: np.ndarray,
                       on: Structure | None = None) -> SparseSystem:
    """Diffusion operator on a structure (default: unconstrained), one
    tensor per element the structure covers."""
    if on is None:
        on = structure(mesh)
    elif on.mesh is not mesh:
        raise ValueError("structure belongs to another mesh")
    tensors = np.asarray(tensors, dtype=float)
    if tensors.shape != (on.n_elements, 2, 2):
        raise ValueError("tensors must have shape (n_elements, 2, 2)")
    _check_spd(tensors)
    return assemble(on, element_stiffness(mesh, tensors, on.element_ids))


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


def _factor(matrix: sp.csc_matrix, **options):
    """SuperLU factorization with the module's supernode constants."""
    return _superlu(spla.splu, matrix, relax=SUPERNODE_RELAX, panel_size=PANEL_SIZE,
                    **options)


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


_SYMMETRIC_PIVOTS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                     "options": {"SymmetricMode": True}}   # keep a given order


class Factorization:
    """Direct sparse factorization of a reduced system, reusable across
    loads; in minimum-degree order, computed here unless the system's
    structure is ``ordered``."""

    def __init__(self, system: SparseSystem):
        self.system = system
        options = _SYMMETRIC_PIVOTS if system.structure.ordered else {"permc_spec": ORDERING}
        self._lu = _factor(system.matrix, **options) if system.n_free else None

    def solve(self, rhs_full: np.ndarray | None = None,
              homogeneous: bool = False) -> np.ndarray:
        """Solve for the given full-size nodal load (``None``: zero).

        With ``homogeneous=True`` the eliminated DOFs are taken as zero
        instead of the system's fixed values (adjoint solves reuse the
        state factorization this way).
        """
        constraints = self.system.constraints
        if self._lu is None:
            return constraints.expand(np.zeros(0), homogeneous)
        x = self.solve_free(self.system.reduced_load(rhs_full, homogeneous))
        return constraints.expand(x, homogeneous)

    def solve_free(self, b: np.ndarray) -> np.ndarray:
        """The free-DOF solution of A x = b, under the residual contract."""
        x = self._lu.solve(b)
        _check_solution(x, self.system.matrix @ x - b, b)
        return x


class Condensation:
    """The fixed part of a system condensed onto the DOFs it shares with a
    varying part, for operators refactored with new varying elements and
    the same fixed ones.

    ``fixed`` is assembled from the fixed elements alone;
    ``varying_elements`` indexes the others. The free DOFs split into R
    (on a varying element), I (off them but coupled to R by the fixed
    operator) and G (the rest of the fixed region). The fixed block K_GG
    is factored once, in minimum-degree order, and the interface Schur
    complement S_I = K_II - K_IG K_GG^-1 K_GI is formed once, by the
    route :func:`_solves_form_schur` picks. A varying operator then needs
    only the SPD factorization of [[S_I, K_IR], [K_RI, K_RR]] (:meth:`factor`).
    Its DOFs, I and R, are numbered once, in the minimum-degree order of
    every entry that SPD tensors on the varying elements can fill
    (:attr:`varying`, an ``ordered`` structure; :attr:`reduced_dofs` maps
    them back), and it is assembled by one mat-vec of the tensors'
    components (:attr:`assembly`, whose constant is the condensed fixed
    block), so a refactorization neither assembles element matrices nor
    orders.

    Every inhomogeneous solve of the zero load has the same b_G (the
    varying elements' lift touches only R), so K_GG^-1 b_G of that load is
    solved once, at the build. Holds the fixed operator, its lift, the
    K_GG factor, that solve and the varying block's assembly, but not the
    mesh.
    """

    def __init__(self, fixed: SparseSystem, varying_elements: np.ndarray):
        self.structure = on = fixed.structure
        self.fixed_matrix = k = fixed.matrix
        self.fixed_lift = fixed.lift
        mesh = fixed.mesh
        dof = on.constraints.dof_of_node
        n = on.n_free

        local = dof[mesh.elements[varying_elements]]
        r = np.unique(local[local >= 0])
        in_r = np.zeros(n, dtype=bool)
        in_r[r] = True
        coupled = np.zeros(n, dtype=bool)
        coupled[k[:, r].indices] = True
        self.i = i = np.flatnonzero(coupled & ~in_r)
        g = np.flatnonzero(~coupled & ~in_r)

        if len(g):
            g = g[minimum_degree_order(k[g][:, g])]
        self.g = g
        self.k_ig = k[i][:, g]
        solves = _solves_form_schur(len(i), len(g))
        if not solves:
            self.schur = _interface_schur(k, g, i)
        # factored after the K_FF factor behind a read S_I is freed: they never coexist
        self._lu = _factor(k[g][:, g], **_SYMMETRIC_PIVOTS) if len(g) else None
        if solves:
            self.schur = self._solved_schur(k[i][:, i])
        # formed as CondensedFactorization.solve forms b, so even signed zeros match
        self.zero_load_g = self.solve_g((np.zeros(n) - self.fixed_lift)[g])

        ir = np.concatenate([i, r])
        n_ir = len(ir)

        def leading(block):
            block = block.tocoo()
            return sp.csc_matrix((block.data, (block.row, block.col)), shape=(n_ir, n_ir))

        # K_II is cancelled exactly before S_I replaces it
        reduced_fixed = (k[ir][:, ir] - leading(k[i][:, i])) + leading(self.schur)
        # numbered once in the minimum-degree order of every slot that the
        # varying elements can fill (their hypotenuse couplings included,
        # which isotropic tensors leave at zero) and of the condensed block
        reduced_of = np.full(n, -1)
        reduced_of[ir] = np.arange(n_ir)
        local = np.where(local >= 0, reduced_of[local], -1)
        rows = np.repeat(local, 3, axis=1).ravel()
        cols = np.tile(local, 3).ravel()
        both = (rows >= 0) & (cols >= 0)
        order = minimum_degree_order(_pattern_matrix(reduced_fixed, rows[both], cols[both]))
        del local, rows, cols, both
        self.reduced_dofs = ir[order]          # the free DOF of each reduced one
        reduced_of[self.reduced_dofs] = np.arange(n_ir)
        self.varying = Structure(
            mesh, Constraints(np.where(dof >= 0, reduced_of[dof], -1),
                              on.constraints.fixed_values),
            varying_elements, ordered=True)
        position = reduced_of[ir]
        reduced_fixed = reduced_fixed.tocoo()
        self.assembly = ScaledAssembly(
            self.varying, tensor_components(mesh, varying_elements),
            constant=sp.coo_matrix((reduced_fixed.data, (position[reduced_fixed.row],
                                                         position[reduced_fixed.col])),
                                   shape=(n_ir, n_ir)))

    def _solved_schur(self, k_ii: sp.csc_matrix) -> sp.csc_matrix:
        """S_I from one K_GG solve per interface DOF, symmetrized. Column
        by column: solving the dense |G| x |I| block at once raised the
        tiled sweep's peak RSS by ~40 MB."""
        k_ig = self.k_ig.tocsr()
        s = k_ii.toarray()
        for j in range(len(self.i)):
            s[:, j] -= k_ig @ self.solve_g(k_ig[j].toarray().ravel())
        return sp.csc_matrix(0.5 * (s + s.T))

    def factor(self, tensors: np.ndarray) -> "CondensedFactorization":
        """Factor the condensed system for the varying elements' SPD
        tensors (n_varying, 2, 2), in the order of :attr:`varying`."""
        tensors = np.asarray(tensors, dtype=float)
        if tensors.shape != (self.varying.n_elements, 2, 2):
            raise ValueError("tensors must have shape (n_varying_elements, 2, 2)")
        _check_spd(tensors)
        components = tensors[:, [0, 0, 1], [0, 1, 1]]      # k11, k12, k22
        return CondensedFactorization(self, self.assembly.system(components))

    def solve_g(self, b_g: np.ndarray) -> np.ndarray:
        """K_GG^-1 b_G, both in the order of :attr:`g`."""
        return b_g if self._lu is None else self._lu.solve(b_g)


def _solves_form_schur(n_i: int, n_g: int) -> bool:
    """Whether S_I is formed from |I| solves on the K_GG factor rather than
    read off a throwaway factor of K_FF (:func:`_interface_schur`).

    The solves cost |I| K_GG solves, the throwaway route one more
    factorization; on a 2D mesh a factorization costs some sqrt(|G|)
    solves. Measured, they break even near |I| = 0.08 sqrt(|G|) for the
    tiled insert at eps0 = 1/9 and 0.12 sqrt(|G|) for the macro ring at
    h = 1/64. The threshold 1/4 leans to the solves because they also
    peak lower in memory (the throwaway factor coexists with the copy of
    its U that scipy makes); the insert (0.08) and the rings (1.2-1.4 from
    h = 1/4 to 1/64) lie to either side of it.
    """
    return 4 * n_i <= np.sqrt(n_g)


def _pattern_matrix(block: sp.spmatrix, rows: np.ndarray, cols: np.ndarray) -> sp.csc_matrix:
    """A nonsingular matrix on the union of ``block``'s pattern and the
    entries (rows, cols), for :func:`minimum_degree_order`: the ordering
    reads only the pattern, the incomplete factorization behind it needs
    nonzero pivots, which diagonal dominance gives."""
    n = block.shape[0]
    block = block.tocoo()
    pattern = sp.csc_matrix((np.ones(len(block.data) + len(rows)),
                             (np.r_[block.row, rows], np.r_[block.col, cols])), shape=(n, n))
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
    lu = _factor(k[f][:, f], **_SYMMETRIC_PIVOTS)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("the fixed block pivoted off its diagonal; it is not SPD")
    pos = lu.perm_c[len(g):]
    u_ii = lu.U[pos][:, pos]
    return (u_ii.T @ sp.diags(1.0 / u_ii.diagonal()) @ u_ii).tocsc()


class CondensedFactorization:
    """A condensed system factored for one varying part.

    Same contract as :class:`Factorization`: ``solve(rhs_full,
    homogeneous)`` takes two K_GG solves (one for the zero load with the
    fixed values, whose b_G the condensation has solved at its build) and
    one reduced solve, and checks the relative residual on the full system
    (K_fixed + K_varying) x = b. ``varying`` is the varying elements'
    operator alone, on the reduced DOFs; the reduced system factored adds
    the condensed fixed block to its data, in the given order.
    """

    def __init__(self, condensation: Condensation, varying: SparseSystem):
        self.condensation = condensation
        self.varying = varying
        reduced = varying.matrix.copy()
        reduced.data += condensation.assembly.constant
        self.reduced = Factorization(replace(varying, matrix=reduced))

    @property
    def constraints(self) -> Constraints:
        return self.condensation.structure.constraints

    def solve(self, rhs_full: np.ndarray | None = None,
              homogeneous: bool = False) -> np.ndarray:
        """Solve for the given full-size nodal load (``None``: zero);
        ``homogeneous`` as in :meth:`Factorization.solve`."""
        c = self.condensation
        reduced = c.reduced_dofs
        b = np.zeros(c.structure.n_free) if rhs_full is None else c.structure.restrict(rhs_full)
        if not homogeneous:
            b -= c.fixed_lift
            b[reduced] -= self.varying.lift
        # eliminate G from the load, solve the reduced system for x_I and
        # x_R, then recover x_G
        b_g = b[c.g]
        y_g = c.zero_load_g if rhs_full is None and not homogeneous else c.solve_g(b_g)
        b_ir = b.copy()
        b_ir[c.i] -= c.k_ig @ y_g
        z = self.reduced.solve_free(b_ir[reduced])
        x = np.empty_like(b)
        x[reduced] = z
        x[c.g] = c.solve_g(b_g - c.k_ig.T @ x[c.i])

        ax = c.fixed_matrix @ x
        ax[reduced] += self.varying.matrix @ z
        _check_solution(x, ax - b, b)
        return self.constraints.expand(x, homogeneous)


def solve(system: SparseSystem) -> ScalarField:
    """Direct solve honouring the relative-residual contract."""
    return ScalarField(Factorization(system).solve(), system.mesh)


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
