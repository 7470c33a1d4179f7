"""Unit-cell corrector problems and the homogenized conductivity tensor.

For a two-phase periodic cell the effective 2x2 tensor is

    K*_ij = sum_e k_e a_e (e_i + grad w_i) . (e_j + grad w_j)

with the correctors w_i solving the periodic cell problem driven by a
unit macroscopic gradient e_i. The unit cell has unit area, so no volume
normalization is needed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fem
from .geometry import TriMesh
from .levelset import LevelSetField


@dataclass
class CellMaterialField:
    """Element-wise phase blend on a cell mesh.

    ``chi`` in [0, 1] selects material a (chi=1) against material b
    (chi=0); conductivity interpolates linearly between the two.
    """

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
    """The cell operator of a mesh as a function of the element
    conductivities, built once per mesh.

    Periodic with the first master node pinned to 0, so no fixed value
    is nonzero and the operator has no lift. The free DOFs are numbered
    in the minimum-degree order of the unit-conductivity operator. That
    order holds for every positive isotropic conductivity, whose operator
    has the same pattern (see :class:`fem.ScaledAssembly`), so the
    structure is ``ordered`` and no cell factorization orders again.
    """
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


def _corrector_rhs(mesh: TriMesh, k: np.ndarray, direction: int) -> np.ndarray:
    """Load for the unit-gradient cell problem: -sum_e k_e a_e e_i . grad N."""
    contrib = -(k * mesh.areas)[:, None] * mesh.grads[:, :, direction - 1]
    return np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_nodes)


def corrector_pair(mesh: TriMesh, mat: CellMaterialField):
    """Both correctors, sharing one factorization of the cell operator."""
    fact = fem.Factorization(cell_system(mesh, mat))
    k = mat.conductivities()
    w1 = fact.solve(_corrector_rhs(mesh, k, 1))
    w2 = fact.solve(_corrector_rhs(mesh, k, 2))
    return fem.ScalarField(w1, mesh), fem.ScalarField(w2, mesh)


def effective_tensor(mesh: TriMesh, mat: CellMaterialField,
                     w1: fem.ScalarField, w2: fem.ScalarField) -> EffectiveTensor:
    """Homogenized tensor from the symmetric corrector formula: one Gram
    product of the (e_i + grad w_i) rows weighted by k_e a_e, symmetrized."""
    e = np.stack([w1.gradient() + (1.0, 0.0), w2.gradient() + (0.0, 1.0)])
    ka = mat.conductivities() * mesh.areas
    k = (e * ka[:, None]).reshape(2, -1) @ e.reshape(2, -1).T
    return EffectiveTensor.from_matrix(0.5 * (k + k.T))


def homogenize(mesh: TriMesh, mat: CellMaterialField):
    """Correctors plus tensor in one call; returns (tensor, w1, w2)."""
    w1, w2 = corrector_pair(mesh, mat)
    return effective_tensor(mesh, mat, w1, w2), w1, w2


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
