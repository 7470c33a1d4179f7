"""Unit-cell corrector problems and the homogenized conductivity tensor.

The correctors w_i solve the periodic cell problem A w_i = b_i driven by
a unit macroscopic gradient e_i, with b_i = -sum_e k_e a_e e_i . grad N.
On the unit cell the effective 2x2 tensor is the Gram product
K*_ij = sum_e k_e a_e (e_i + grad w_i) . (e_j + grad w_j). Testing the
corrector equation with w_j cancels its grad w_i . grad w_j term against
a cross term, and b_j . w_i = -sum_e k_e a_e d_j w_i, so

    K*_ij = (sum_e k_e a_e) delta_ij - b_j . w_i

(the flux-average form; Allaire, *Shape Optimization by the
Homogenization Method*, 2002). It is linear in the solve error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import fem
from .geometry import TriMesh
from .levelset import LevelSetField

BOUNDS_SLACK = 1e-6     # allowed excess of a principal value over its Voigt-Reuss bounds


@dataclass
class CellMaterialField:
    """Element-wise phase blend on a cell mesh: ``chi`` in [0, 1] selects
    material a (chi=1) against material b (chi=0); conductivity
    interpolates linearly between the two."""

    chi: np.ndarray
    k_a: float
    k_b: float

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=float)
        if not (0 < self.k_a < math.inf and 0 < self.k_b < math.inf):
            raise ValueError("phase conductivities must be positive and finite")
        if not np.all((self.chi >= -1e-12) & (self.chi <= 1 + 1e-12)):
            raise ValueError("chi must lie in [0, 1] element-wise")

    def conductivities(self) -> np.ndarray:
        return element_conductivity(self.chi, self.k_a, self.k_b)

    def volume_fraction(self, mesh: TriMesh) -> float:
        return float((mesh.areas * self.chi).sum() / mesh.areas.sum())


def element_conductivity(chi, k_a: float, k_b: float):
    """Linear two-phase interpolation: k_b + (k_a - k_b) * chi."""
    return k_b + (k_a - k_b) * np.asarray(chi, dtype=float)


def material_from_levelset(field: LevelSetField, k_a: float, k_b: float,
                           d: float | None = None) -> CellMaterialField:
    """Element material from nodal phi: centroid value through the smoothed step."""
    return CellMaterialField(chi=field.chi_elements(d), k_a=k_a, k_b=k_b)


@dataclass
class EffectiveTensor:
    """Symmetric homogenized conductivity and its principal-axis form."""

    k11: float
    k12: float
    k22: float
    kbar1: float
    kbar2: float
    theta_deg: float

    @classmethod
    def from_matrix(cls, k: np.ndarray) -> "EffectiveTensor":
        kbar1, kbar2, theta = diagonalize(k)
        return cls(k11=float(k[0, 0]), k12=float(k[0, 1]), k22=float(k[1, 1]),
                   kbar1=kbar1, kbar2=kbar2, theta_deg=theta)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.k11, self.k12], [self.k12, self.k22]])

    def is_spd(self) -> bool:
        return self.kbar1 > 0 and self.kbar2 > 0


def cell_operator(mesh: TriMesh) -> fem.ScaledAssembly:
    """The cell operator as a function of the element conductivities, built
    once per mesh: periodic, the first master pinned to 0 (so no lift), and
    its free DOFs in the minimum-degree order of the unit-conductivity
    operator, whose pattern every positive isotropic conductivity shares
    (:class:`fem.ScaledAssembly`); the structure is ``ordered``, so no
    cell factorization orders again."""
    if mesh.periodic_pairs is None:
        raise ValueError("cell problems require a mesh with periodic pairs")

    def build():
        gauge = int(mesh.periodic_pairs[0, 0])
        c = fem.apply_periodic(fem.Constraints.none(mesh.n_nodes), mesh.periodic_pairs,
                               gauge=gauge)
        unit = fem.element_stiffness(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
        order = fem.minimum_degree_order(fem.Structure(mesh, c).matrix(unit))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        dof = np.where(c.dof_of_node >= 0, position[c.dof_of_node], -1)
        on = fem.Structure(mesh, replace(c, dof_of_node=dof), ordered=True)
        return fem.ScaledAssembly(on, unit)
    return fem.cached(mesh, "cell_operator", build)


def cell_system(mesh: TriMesh, mat: CellMaterialField) -> fem.SparseSystem:
    """Cell operator for a material, on the structure of :func:`cell_operator`."""
    if mat.chi.shape != (mesh.n_elements,):
        raise ValueError(f"chi must have shape ({mesh.n_elements},), got {mat.chi.shape}")
    return cell_operator(mesh).system(mat.conductivities())


def cell_loads(mesh: TriMesh) -> sp.csr_matrix:
    """(2 n_nodes, n_elements) map from k_e a_e to the stacked loads b_1, b_2."""
    def build():
        rows = mesh.elements.ravel() + mesh.n_nodes * np.arange(2)[:, None]
        cols = np.broadcast_to(np.arange(mesh.n_elements).repeat(3), rows.shape)
        return sp.csr_matrix((-mesh.grads.transpose(2, 0, 1).ravel(),
                              (rows.ravel(), cols.ravel())),
                             shape=(2 * mesh.n_nodes, mesh.n_elements))
    return fem.cached(mesh, "cell_loads", build)


def homogenize(mesh: TriMesh, mat: CellMaterialField):
    """Tensor and both correctors of one cell on one factorization,
    (tensor, w1, w2), with K* from the loads (module docstring). Raises
    :class:`fem.SolverError` if K* is not SPD or a principal value leaves
    the Voigt-Reuss bounds of the volume fraction by over ``BOUNDS_SLACK``."""
    fact = fem.Factorization(cell_system(mesh, mat))
    ka = mat.conductivities() * mesh.areas
    loads = (cell_loads(mesh) @ ka).reshape(2, mesh.n_nodes)
    w = np.stack([fact.solve(b) for b in loads])
    k = ka.sum() * np.eye(2) - w @ loads.T
    tensor = EffectiveTensor.from_matrix(0.5 * (k + k.T))
    lower, upper = voigt_reuss_bounds(mat.volume_fraction(mesh), mat.k_a, mat.k_b)
    lo, hi = sorted((tensor.kbar1, tensor.kbar2))
    if not (tensor.is_spd() and lower - BOUNDS_SLACK <= lo and hi <= upper + BOUNDS_SLACK):
        raise fem.SolverError(f"cell tensor principal values {lo:.6g}, {hi:.6g} leave "
                              f"the Voigt-Reuss bounds [{lower:.6g}, {upper:.6g}]")
    return tensor, fem.ScalarField(w[0], mesh), fem.ScalarField(w[1], mesh)


def diagonalize(k: np.ndarray) -> tuple[float, float, float]:
    """Principal conductivities and rotation angle of a symmetric 2x2 tensor.

    Returns (kbar1, kbar2, theta_deg) with theta in (-45, 45] degrees and
    kbar1 the eigenvalue whose eigenvector is closest to the x1 axis, so
    R(theta)^T diag(kbar1, kbar2) R(theta) reconstructs the input with
    R = [[cos, sin], [-sin, cos]].
    """
    k = np.asarray(k, dtype=float)
    a, b, c = k[0, 0], k[0, 1], k[1, 1]
    if abs(k[1, 0] - b) > 1e-10 * (abs(a) + abs(c) + abs(b) + 1e-300):
        raise ValueError("diagonalize expects a symmetric tensor")
    if b == 0.0 and a == c:
        return float(a), float(c), 0.0
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    ct, st = math.cos(theta), math.sin(theta)
    kbar1 = a * ct * ct + 2.0 * b * st * ct + c * st * st
    kbar2 = a * st * st - 2.0 * b * st * ct + c * ct * ct
    # fold the angle into (-45, 45], swapping the principal values when
    # the quarter-turn is absorbed into the axis relabelling
    if theta > math.pi / 4:
        theta -= math.pi / 2
        kbar1, kbar2 = kbar2, kbar1
    elif theta <= -math.pi / 4:
        theta += math.pi / 2
        kbar1, kbar2 = kbar2, kbar1
    return float(kbar1), float(kbar2), math.degrees(theta)


def voigt_reuss_bounds(volume_fraction_a: float, k_a: float, k_b: float):
    """Arithmetic (upper) and harmonic (lower) two-phase bounds."""
    f = volume_fraction_a
    upper = f * k_a + (1.0 - f) * k_b
    lower = 1.0 / (f / k_a + (1.0 - f) / k_b)
    return lower, upper


def write_tensor_csv(path, tensors) -> None:
    """One row per sector tensor: l, K11, K12, K22, Kbar1, Kbar2, theta."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "K11", "K12", "K22", "Kbar1", "Kbar2", "theta"])
        writer.writerows([l, t.k11, t.k12, t.k22, t.kbar1, t.kbar2, t.theta_deg]
                         for l, t in enumerate(tensors, start=1))
