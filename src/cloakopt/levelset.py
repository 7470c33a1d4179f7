"""Level-set fields on the unit cell and their reaction-diffusion update.

Each design cell carries a nodal scalar in [-1, 1]; its sign selects the
material phase and a smoothed step of width ``d`` interpolates the
conductivity across the implicit interface.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem
from .geometry import TriMesh


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
        phi_c = self.phi[self.mesh.elements].mean(axis=1)
        return characteristic(phi_c, self.d if d is None else d)


# signed-distance scaling for the disk seed; |phi| saturates within this
# distance of the interface
_DISK_PROFILE_WIDTH = 0.1


def initialize(mesh: TriMesh, pattern, cell_index: int = 0, d: float = 0.2) -> LevelSetField:
    """Seed a level-set field.

    ``pattern`` is one of ``("disk", radius)`` for a centred minority-phase
    disk (negative inside), ``("uniform", sign)``, or ``("file", path)``
    to reload a checkpoint written by :func:`write_phi_csv`.
    """
    kind = pattern[0]
    if kind == "disk":
        radius = float(pattern[1])
        dist = np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5)
        phi = np.clip((dist - radius) / _DISK_PROFILE_WIDTH, -1.0, 1.0)
    elif kind == "uniform":
        phi = np.full(mesh.n_nodes, float(np.sign(pattern[1]) or 1.0))
    elif kind == "file":
        coords, phi = read_phi_csv(pattern[1])
        if len(phi) != mesh.n_nodes:
            raise ValueError(
                f"checkpoint has {len(phi)} nodes, mesh has {mesh.n_nodes}"
            )
        if not np.allclose(coords, mesh.nodes, atol=1e-9):
            raise ValueError("checkpoint node coordinates do not match the mesh")
    else:
        raise ValueError(f"unknown init pattern {kind!r}")
    return LevelSetField(phi=phi, mesh=mesh, cell_index=cell_index, d=d)


class ReactionDiffusionUpdater:
    """Semi-implicit time stepper for the level-set evolution.

    One step solves (M + dt*k*tau*A) phi_next = M (phi - dt*k*J') under
    periodic constraints, with M the lumped P1 mass and A the Laplacian
    stiffness, then clamps nodal values to [-1, 1]. The diffusion term is
    implicit (unconditionally stable), the reaction term explicit. The
    lumped mass keeps the pure-diffusion step max-norm non-expansive and
    makes the tau=0 step exactly pointwise. The factorization of the last
    time step is kept, so consecutive steps at one dt share it.
    """

    def __init__(self, mesh: TriMesh, k_phi: float, tau: float):
        if k_phi <= 0 or tau < 0:
            raise ValueError("need k_phi > 0, tau >= 0")
        self.mesh = mesh
        self.k_phi = k_phi
        self.tau = tau
        self.mass = mesh.lumped_mass
        self._element_mass = fem.element_mass(mesh, lumped=True)
        self._element_laplacian = fem.element_stiffness(
            mesh, fem.isotropic_tensors(np.ones(mesh.n_elements)))
        # (dt, factorization) as one tuple, read once per step, so a step
        # running in another thread never pairs a new dt with an old factor
        self._last: tuple[float, fem.Factorization] | None = None

    def system(self, dt: float) -> fem.SparseSystem:
        """The step operator M + dt*k*tau*A, periodic where the mesh is."""
        periodic = self.mesh.periodic_pairs is not None
        return fem.assemble(
            fem.structure(self.mesh, periodic=periodic),
            self._element_mass + dt * self.k_phi * self.tau * self._element_laplacian,
            np.zeros(self.mesh.n_nodes))

    def step(self, phi: np.ndarray, jprime: np.ndarray, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError("need dt > 0")
        last = self._last
        if last is None or last[0] != dt:
            last = self._last = (dt, fem.Factorization(self.system(dt)))
        rhs = self.mass * (phi - dt * self.k_phi * jprime)
        out = last[1].solve(rhs)
        return np.clip(out, -1.0, 1.0)


def write_phi_csv(field: LevelSetField, path) -> None:
    """Checkpoint one cell: node_index, y1, y2, phi with round-trip precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", "y1", "y2", "phi"])
        for i, ((y1, y2), p) in enumerate(zip(field.mesh.nodes, field.phi)):
            writer.writerow([i, f"{y1:.17g}", f"{y2:.17g}", f"{p:.17g}"])


def read_phi_csv(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim == 1:
        data = data[None, :]
    order = np.argsort(data[:, 0])
    data = data[order]
    return data[:, 1:3], data[:, 3]
