"""Level-set fields on the unit cell and their reaction-diffusion update.

Each design cell carries a nodal scalar in [-1, 1]; its sign selects the
material phase and a smoothed step of width ``d`` interpolates the
conductivity across the implicit interface.

The update is the reaction-diffusion step of the fictitious-interface-
energy regularization (Yamada et al., CMAME 199, 2010). On the periodic
checkerboard cell mesh its operator is diagonal in Fourier space up to
one 2x2 coupling, so each step is solved exactly with one FFT pair and
factors nothing (:class:`ReactionDiffusionUpdater`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import fem
from .geometry import TriMesh, UnitCellGeometry, build_cell_mesh


def characteristic(phi, d: float):
    """Smoothed step of the level-set value with transition half-width d.

    Quintic polynomial blend: 0 below -d, 1 above +d, C2-continuous at
    both ends. Non-decreasing in phi.
    """
    if not 0 < d < 1:
        raise ValueError("transition width d must lie in (0, 1)")
    s = np.clip(np.asarray(phi, dtype=float) / d, -1.0, 1.0)
    out = 0.5 + s * (15.0 / 16.0 + s * s * (-10.0 / 16.0 + s * s * (3.0 / 16.0)))
    if np.isscalar(phi):
        return float(out)
    return out


@dataclass
class LevelSetField:
    """Nodal level-set values for one design cell."""

    phi: np.ndarray
    mesh: TriMesh
    cell_index: int = 0
    d: float = 0.2

    def chi_nodes(self, d: float | None = None) -> np.ndarray:
        return characteristic(self.phi, self.d if d is None else d)

    def chi_elements(self, d: float | None = None) -> np.ndarray:
        """Smoothed indicator at element centroids (material evaluation point)."""
        e = self.mesh.elements
        phi_c = (self.phi[e[:, 0]] + self.phi[e[:, 1]] + self.phi[e[:, 2]]) / 3.0
        return characteristic(phi_c, self.d if d is None else d)


# signed-distance scaling for the disk seed; |phi| saturates within this
# distance of the interface
_DISK_PROFILE_WIDTH = 0.1


def initialize(mesh: TriMesh, pattern, cell_index: int = 0, d: float = 0.2) -> LevelSetField:
    """Seed a level-set field.

    ``pattern`` is one of ``("disk", radius)`` for a centred minority-phase
    disk (negative inside), ``("uniform", sign)``, or ``("file", path)``
    to reload a checkpoint written by :func:`write_phi_csv` (see
    :func:`read_phi_field`). The disk is mirrored exactly
    (:func:`mirror_nodes`), as rounding alone leaves it only at some
    resolutions: each node takes the larger of its value and its mirror
    node's.
    """
    kind = pattern[0]
    if kind == "disk":
        radius = float(pattern[1])
        dist = np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5)
        phi = np.clip((dist - radius) / _DISK_PROFILE_WIDTH, -1.0, 1.0)
        phi = np.maximum(phi, phi[mirror_nodes(mesh)])
    elif kind == "uniform":
        phi = np.full(mesh.n_nodes, float(np.sign(pattern[1]) or 1.0))
    elif kind == "file":
        return read_phi_field(pattern[1], mesh, cell_index=cell_index, d=d)
    else:
        raise ValueError(f"unknown init pattern {kind!r}")
    return LevelSetField(phi=phi, mesh=mesh, cell_index=cell_index, d=d)


class ReactionDiffusionUpdater:
    """Semi-implicit time stepper for the level-set evolution.

    One step solves (M + c A) phi_next = M (phi - dt*k*J'), c = dt*k*tau,
    under periodic constraints, with M the lumped P1 mass and A the
    Laplacian stiffness, then clamps nodal values to [-1, 1]. The
    diffusion term is implicit (unconditionally stable), the reaction
    term explicit. The lumped mass keeps the pure-diffusion step max-norm
    non-expansive and makes the tau=0 step pointwise.

    The solve is exact in Fourier space. On the n x n periodic grid of
    the cell mesh (n even) the right-triangle hypotenuses do not couple,
    so A is the 5-point Laplacian with symbol
    lambda(k) = 4 - 2 cos(2 pi k1/n) - 2 cos(2 pi k2/n), and the folded
    lumped mass is m + delta (-1)^(i+j): a node where the four quad
    diagonals meet carries 8 triangles, its neighbours 4. Multiplying by
    (-1)^(i+j) shifts frequency k to k' = k + (n/2, n/2), where
    lambda(k') = 8 - lambda(k), so the step couples only the pairs
    (k, k') and is one ``fft2``, a closed-form 2x2 solve per pair and one
    ``ifft2``. Every step still checks the relative residual against the
    assembled operators M and A, so a mesh that breaks these assumptions
    fails with :class:`fem.SolverError` rather than stepping wrongly.

    Everything but the load is built here, so concurrent steps share no
    mutable state.
    """

    def __init__(self, mesh: TriMesh, k_phi: float, tau: float):
        if k_phi <= 0 or tau < 0:
            raise ValueError("need k_phi > 0, tau >= 0")
        self.k_phi = k_phi
        self.tau = tau
        self.mass = mesh.lumped_mass
        n, self._grid = _periodic_grid(mesh)
        # M and A folded onto the periodic grid, in grid order; A serves
        # the residual check alone, so it is summed by COO, with no slot table
        folded = fem.apply_periodic(fem.Constraints.none(mesh.n_nodes), mesh.periodic_pairs)
        dof = folded.dof_of_node
        order = np.zeros(n * n, dtype=int)
        order[self._grid] = dof
        if folded.n_free != n * n or not np.array_equal(order[self._grid], dof):
            raise ValueError("the periodic fold does not match the cell grid")
        self._mass_grid = folded.restrict(self.mass)[order]
        grid = self._grid[mesh.elements]
        unit = fem.element_stiffness(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
        self._laplacian = sp.csr_matrix(
            (unit.ravel(), (np.repeat(grid, 3, axis=1).ravel(), np.tile(grid, 3).ravel())),
            shape=(n * n, n * n))

        i, j = np.indices((n, n))
        m = self._mass_grid.reshape(n, n)
        self._m_mean, self._m_alt = m.mean(), (m * (1 - 2 * ((i + j) % 2))).mean()
        wave = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        self._symbol = wave[:, None] + wave[None, :]

    def step(self, phi: np.ndarray, jprime: np.ndarray, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError("need dt > 0")
        c = dt * self.k_phi * self.tau
        n = len(self._symbol)
        b = np.bincount(self._grid, weights=self.mass * (phi - dt * self.k_phi * jprime),
                        minlength=n * n)
        b_hat = np.fft.fft2(b.reshape(n, n))
        a = self._m_mean + c * self._symbol                 # diagonal at k
        a_shift = self._m_mean + c * (8.0 - self._symbol)   # diagonal at k'
        delta = self._m_alt
        x_hat = ((a_shift * b_hat - delta * np.roll(b_hat, (n // 2, n // 2), axis=(0, 1)))
                 / (a * a_shift - delta * delta))
        x = np.fft.ifft2(x_hat).real.ravel()
        fem._check_solution(x, self._mass_grid * x + c * (self._laplacian @ x) - b, b)
        return np.clip(x[self._grid], -1.0, 1.0)


def mirror_nodes(mesh: TriMesh) -> np.ndarray:
    """Node map of the cell's reflection y1 -> 1 - y1, built once per mesh:
    ``phi[mirror_nodes(mesh)]`` is phi reflected, node (i, j) of the
    structured grid taking the value of node (n - i, j). The checkerboard
    of an even-resolution cell mesh maps onto itself under it."""
    def build():
        n, _ = _periodic_grid(mesh)
        i, j = np.divmod(np.arange(mesh.n_nodes), n + 1)
        return (n - i) * (n + 1) + j
    return fem.cached(mesh, "mirror nodes", build)


def _periodic_grid(mesh: TriMesh) -> tuple[int, np.ndarray]:
    """Resolution n and each node's index i*n + j on the n x n periodic grid
    of a structured cell mesh; ``ValueError`` for any other mesh."""
    shape = mesh.structured_shape
    if (mesh.periodic_pairs is None or shape is None or shape[0] != shape[1]
            or shape[0] % 2 or mesh.n_nodes != (shape[0] + 1) ** 2):
        raise ValueError("the level-set step needs the even-resolution periodic cell mesh")
    n = shape[0]
    x0, x1, y0, y1 = mesh.extent
    i, j = np.divmod(np.arange(mesh.n_nodes), n + 1)
    expected = np.column_stack([x0 + (x1 - x0) * i / n, y0 + (y1 - y0) * j / n])
    if not np.allclose(mesh.nodes, expected, rtol=0.0, atol=1e-9 * (x1 - x0)):
        raise ValueError("the cell mesh nodes are not on its structured grid")
    return n, (i % n) * n + j % n


def write_phi_csv(field: LevelSetField, path) -> None:
    """Checkpoint one cell: node_index, y1, y2, phi with round-trip precision,
    CRLF-terminated as the csv module writes.

    The header and each row's ``node_index,y1,y2,`` depend on the mesh
    alone. They are formatted once per mesh into a template kept in its
    cache (a plain string, so it keeps no mesh alive), and a write is one
    %-format of phi over it: a run checkpoints its eight cells, all on
    one mesh, every few iterations. Both formats run over the flat list
    (a format per row costs ~4x more)."""
    def build():
        table = np.column_stack([np.arange(field.mesh.n_nodes), field.mesh.nodes])
        # "%%" leaves each row a "%.17g" slot for its phi
        rows = ("%d,%.17g,%.17g,%%.17g\r\n" * len(table)) % tuple(table.ravel().tolist())
        return "node_index,y1,y2,phi\r\n" + rows
    template = fem.cached(field.mesh, "phi csv template", build)
    Path(path).write_bytes((template % tuple(field.phi.tolist())).encode())


def read_phi_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(coordinates, phi) of a :func:`write_phi_csv` file in node order;
    ``ValueError`` naming the file if it holds no rows of four columns."""
    with warnings.catch_warnings():     # an empty file is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not len(data) or data.shape[1] != 4:
        raise ValueError(f"{path}: expected rows of node_index, y1, y2, phi")
    data = data[np.argsort(data[:, 0])]
    return data[:, 1:3], data[:, 3]


def read_phi_field(path, mesh: TriMesh | None = None, cell_index: int = 0,
                   d: float = 0.2) -> LevelSetField:
    """Reload one cell written by :func:`write_phi_csv` onto ``mesh``, or,
    without one, onto the structured cell mesh its node count implies;
    ``ValueError`` naming the file when its nodes are not those of the
    mesh or a phi is not finite. Values beyond +-1 are kept: the smoothed
    step saturates them."""
    coords, phi = read_phi_csv(path)
    if not np.isfinite(phi).all():
        raise ValueError(f"{path}: phi of node {int(np.flatnonzero(~np.isfinite(phi))[0])} "
                         "is not finite")
    if mesh is None:
        mesh = build_cell_mesh(UnitCellGeometry(int(round(np.sqrt(len(phi)))) - 1))
    if len(phi) != mesh.n_nodes or not np.allclose(coords, mesh.nodes, atol=1e-9):
        raise ValueError(f"{path}: node coordinates do not match the "
                         f"{mesh.n_nodes}-node cell mesh")
    return LevelSetField(phi=phi, mesh=mesh, cell_index=cell_index, d=d)
