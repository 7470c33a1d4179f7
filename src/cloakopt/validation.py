"""Finite-cell validation: tile the design sectors with real unit cells
and re-solve raw conduction without homogenization.

The design annulus is paved with copies of each sector's cell at a
finite size; every fine-mesh element samples its sector's level-set
field at the wrapped cell coordinate of its centroid. Interfaces between
sectors are sampled as-is (cells from neighbouring sectors may clash),
matching how the finite structure would actually be assembled. A
robustness sweep re-solves with an asymmetric insulating obstacle at a
set of rotation angles.

Tilings of one layout share one fine mesh while it is held, and with it
the mesh's solver structure and objective operators. A single tiled
evaluation tiles and factors the whole fine operator. A sweep changes
only the insert's disk from one angle to the next, so it condenses each
design's tiled operator onto that disk once (:func:`sweep_condensation`,
through :func:`macro_solver.condensed_conduction`), and each angle
assigns conductivities to the disk's elements alone (the disk lies in
the obstacle region, where no level set is read) and factors only the
disk and its interface. A condensation is bound to the spec it was built
for; the first design's is freed before the next one is built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import fem, macro_solver, objectives
from .geometry import (MacroGeometry, REGION_OBSTACLE,
                       SECTOR_FIRST, SECTOR_LAST, TriMesh, build_macro_mesh,
                       interpolate_structured)
from .levelset import LevelSetField, characteristic
from .homogenization import element_conductivity
from .macro_solver import BoundaryData

ELEMENTS_PER_CELL = 8                          # fine-mesh elements across one tiled cell
_FINE_MESHES = weakref.WeakValueDictionary()   # layout key -> fine mesh still held


@dataclass
class TilingSpec:
    """Finite-cell layout: which fields to tile at what physical size."""

    epsilon0: float
    phis: list[LevelSetField]
    d: float
    geometry: MacroGeometry
    k_cell_a: float
    k_cell_b: float
    k_exterior: float
    k_obstacle: float
    bc: BoundaryData = field(default_factory=BoundaryData)

    def validate(self) -> None:
        if not 0 < self.epsilon0 < np.inf:
            raise ValueError("cell size epsilon0 must be positive and finite, "
                             f"got {self.epsilon0}")
        if len(self.phis) != SECTOR_LAST - SECTOR_FIRST + 1:
            raise ValueError("one level-set field per design sector is required")
        self.geometry.validate(allow_oversize=True)


@dataclass
class ObstacleSpec:
    """Insulating half-disk inside the shielded region, rotated by psi.

    The flat side passes through the domain centre and the radius is 0.3
    of the obstacle-region radius. The asymmetric shape makes the angle
    sweep meaningful. The angle must be finite and the conductivity
    finite and positive.
    """

    psi_deg: float
    k: float

    def __post_init__(self):
        if not np.isfinite(self.psi_deg):
            raise ValueError(f"obstacle angle must be finite, got {self.psi_deg}")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError(f"obstacle conductivity must be finite and positive, got {self.k}")

    def resolved_radius(self, geometry: MacroGeometry) -> float:
        return 0.3 * geometry.r_obstacle

    def disk(self, mesh: TriMesh, geometry: MacroGeometry) -> np.ndarray:
        """Obstacle-region elements within the radius of the centre: the
        union of the inserts of every angle."""
        c = mesh.centroids
        return ((np.hypot(c[:, 0], c[:, 1]) <= self.resolved_radius(geometry))
                & mesh.region_mask(REGION_OBSTACLE))

    def on_insert_side(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies on the insert's side of its flat edge."""
        psi = np.radians(self.psi_deg)
        return points[:, 0] * (-np.sin(psi)) + points[:, 1] * np.cos(psi) >= 0.0


def fine_mesh(spec: TilingSpec) -> TriMesh:
    """Macro mesh resolving the tiled cells; layouts with equal geometry
    values and cell size share one (immutable) mesh while a caller holds it."""
    spec.validate()
    g = spec.geometry
    h = spec.epsilon0 / ELEMENTS_PER_CELL
    key = (g.lx, g.ly, g.r_ring, g.r_obstacle, h)
    mesh = _FINE_MESHES.get(key)
    if mesh is None:
        mesh = _FINE_MESHES[key] = build_macro_mesh(g, h, allow_oversize=True)
    return mesh


def tile_conductivity(spec: TilingSpec, mesh: TriMesh,
                      obstacle: ObstacleSpec | None = None) -> np.ndarray:
    """Element-wise scalar conductivity of the tiled structure.

    Design-sector elements sample their sector's field at the wrapped
    coordinate centroid/epsilon0 mod 1; exterior elements get the
    exterior fill and obstacle-region elements the obstacle material
    (optionally overridden inside a rotated obstacle shape).
    """
    spec.validate()
    h = np.sqrt(2.0 * np.median(mesh.areas))
    if spec.epsilon0 / h < ELEMENTS_PER_CELL - 1e-9:
        raise ValueError(
            f"fine mesh ({h:.4g} m elements) under-resolves cells of {spec.epsilon0:.4g} m"
        )

    c = mesh.centroids
    k = np.full(mesh.n_elements, spec.k_exterior)
    k[mesh.region_mask(REGION_OBSTACLE)] = spec.k_obstacle

    y = np.mod(c / spec.epsilon0, 1.0)
    for l in range(SECTOR_FIRST, SECTOR_LAST + 1):
        mask = mesh.region_mask(l)
        if not mask.any():
            continue
        f = spec.phis[l - SECTOR_FIRST]
        phi = interpolate_structured(f.mesh, y[mask], f.phi)
        chi = characteristic(phi, spec.d)
        k[mask] = element_conductivity(chi, spec.k_cell_a, spec.k_cell_b)

    if obstacle is not None:
        k[obstacle.disk(mesh, spec.geometry) & obstacle.on_insert_side(c)] = obstacle.k
    return k


@dataclass(frozen=True, eq=False)
class SweepCondensation:
    """One design's tiled operator condensed onto the insert's disk, bound
    to the spec it was built for."""

    spec: TilingSpec
    condensation: fem.Condensation


def evaluate_tiled(spec: TilingSpec, mesh: TriMesh | None = None,
                   obstacle: ObstacleSpec | None = None, *,
                   condensation: SweepCondensation | None = None):
    """Solve raw conduction on the tiled structure; returns (J1, J2, T).

    ``mesh`` defaults to :func:`fine_mesh`; J1 compares against the
    reference ramp on that mesh (:func:`macro_solver.reference_field`).
    Without ``condensation`` the whole structure is tiled and its
    operator factored; with one (built by :func:`sweep_condensation` for
    this very spec and mesh, else ``ValueError``) only the disk's
    elements get conductivities and only they are assembled and factored.
    """
    if mesh is None:
        mesh = fine_mesh(spec)
    if condensation is None:
        k = tile_conductivity(spec, mesh, obstacle)
        temp = fem.solve(macro_solver.conduction_system(mesh, fem.isotropic_tensors(k),
                                                        spec.bc))
    else:
        insert = condensation.condensation.varying
        if insert.mesh is not mesh:
            raise ValueError("the condensation belongs to another mesh")
        if condensation.spec is not spec:
            raise ValueError("the condensation was built for another design")
        # the disk lies in the obstacle region: obstacle fill, or the insert
        k = np.full(insert.n_elements, spec.k_obstacle)
        if obstacle is not None:
            k[obstacle.on_insert_side(mesh.centroids[insert.element_ids])] = obstacle.k
        fact = condensation.condensation.factor(
            fem.assemble_diffusion(mesh, fem.isotropic_tensors(k), on=insert))
        temp = fem.ScalarField(fact.solve(), mesh)
    reference = macro_solver.reference_field(mesh, spec.bc)
    j1 = objectives.mismatch(temp.values, reference.values, mesh)
    j2 = objectives.gradient_energy(temp.values, mesh)
    return j1, j2, temp


def sweep_condensation(spec: TilingSpec, mesh: TriMesh,
                       obstacle: ObstacleSpec) -> SweepCondensation:
    """The tiled operator of ``spec`` condensed onto the obstacle's disk,
    the elements that differ between the angles of a sweep."""
    return SweepCondensation(spec, macro_solver.condensed_conduction(
        mesh, fem.isotropic_tensors(tile_conductivity(spec, mesh)),
        obstacle.disk(mesh, spec.geometry), spec.bc))


def robustness_sweep(designs: dict[str, TilingSpec], psi_values,
                     j1_init: float, k_obstacle_insert: float) -> list[dict]:
    """J1 ratio versus obstacle angle for each design.

    Returns rows {design, psi, j1, j1_ratio}; ``j1_init`` is the tiled
    initial-structure value used to normalize every entry. An empty
    angle list yields an empty table. Every angle is checked before the
    first solve; each design is condensed once and then evaluated at
    every angle.
    """
    obstacles = [ObstacleSpec(psi_deg=float(psi), k=k_obstacle_insert) for psi in psi_values]
    rows: list[dict] = []
    if not obstacles:
        return rows
    for name, spec in designs.items():
        mesh = fine_mesh(spec)
        condensation = sweep_condensation(spec, mesh, obstacles[0])
        for obstacle in obstacles:
            j1, _, _ = evaluate_tiled(spec, mesh, obstacle, condensation=condensation)
            rows.append({"design": name, "psi": obstacle.psi_deg,
                         "j1": j1, "j1_ratio": j1 / j1_init})
        del condensation    # its K_GG factor never coexists with the next design's
    return rows
