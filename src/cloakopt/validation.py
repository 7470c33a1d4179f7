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
the mesh's one slot table (:func:`fem.structure`), reference ramp
(:func:`macro_solver.reference_field`) and objective operators, each
cached on the mesh. A single tiled evaluation tiles the whole structure
and factors its operator directly (:func:`tiled_state`). A mirrored
design without an obstacle is solved on the x >= 0 half, gathered from
that same slot table, and written whole; no second mesh or table is
built for it. A sweep changes only the insert's disk from one
angle to the next, so it condenses each design's tiled operator onto
that disk once (:func:`sweep_condensation`, through
:func:`macro_solver.condensed_conduction`), and each angle
assigns conductivities to the disk's elements alone (the disk lies in
the obstacle region, where no level set is read) and factors only the
disk and its interface. The condensation keeps the fixed block's
responses to the interface temperatures, not the fixed block's factor
(:class:`fem.Condensation`), so an angle solves nothing off the disk. The
build also forms the zero load's right-hand sides and keeps the responses
and the zero load's temperature on full rows (zero on the disk and its
interface): an angle's temperature is that field minus the responses
times the interface temperatures, one mat-vec, with the disk's own
solution written over the disk, and no scatter onto the ~100k fixed
DOFs. The residual on the whole operator is still checked at every angle,
and J1 and J2 read CSR operators (:func:`objectives.region_operators`).
A condensation is bound to the spec it was built for; the first design's
is freed before the next one is built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import fem, macro_solver, objectives
from .geometry import (MacroGeometry, REGION_OBSTACLE,
                       SECTOR_FIRST, SECTOR_LAST, TriMesh, build_macro_mesh,
                       interpolate_structured, mirror_line)
from .levelset import LevelSetField, characteristic, mirror_nodes
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
    # half an element of slack: :func:`fine_mesh` rounds its division
    # counts, so its elements miss epsilon0 / 8 by up to ~1% either way
    if spec.epsilon0 / h < ELEMENTS_PER_CELL - 0.5:
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


def _mirrored(phis: list[LevelSetField]) -> bool:
    """Whether the level sets share one cell mesh and cell 9 - l is cell l
    reflected, exactly (:func:`levelset.mirror_nodes`)."""
    cell = phis[0].mesh
    if any(f.mesh is not cell for f in phis):
        return False
    try:
        mirror = mirror_nodes(cell)
    except ValueError:          # no even periodic grid: no reflection map
        return False
    return all(np.array_equal(phis[-1 - l].phi, phis[l].phi[mirror])
               for l in range(len(phis) // 2))


def tiled_state(spec: TilingSpec, mesh: TriMesh, conductivity: np.ndarray,
                obstacle: ObstacleSpec | None = None) -> np.ndarray:
    """Nodal temperatures of the tiled structure, for its element
    conductivities (:func:`tile_conductivity`, with ``obstacle`` if it
    was tiled with one), factored directly.

    A mirrored design (:func:`_mirrored`) without an obstacle, on a mesh
    with an even column count, tiles a conductivity mirror-symmetric
    about x = 0 (to roundoff: the tiling reads (x / eps0) mod 1), so its
    state is antisymmetric about the mean edge temperature. It is solved
    on the x >= 0 half alone (:func:`macro_solver.mirrored_conduction_system`,
    from the whole mesh's slot table) and written whole, the left half
    filled with T(-x) = t_low + t_high - T(x) through the grid's node
    mirror map (:func:`geometry.mirror_line`). Every other structure
    factors the whole operator.
    """
    split = None if obstacle is not None or not _mirrored(spec.phis) else mirror_line(mesh)
    if split is None:
        return fem.Factorization(macro_solver.conduction_system(
            mesh, fem.isotropic_tensors(conductivity), spec.bc)).solve()
    line, first, images = split
    temp = fem.Factorization(macro_solver.mirrored_conduction_system(
        mesh, fem.isotropic_tensors(conductivity[first:]), spec.bc, line, first)).solve()
    temp[:line] = (spec.bc.t_low + spec.bc.t_high) - temp[images]
    return temp


@dataclass(frozen=True, eq=False)
class SweepCondensation:
    """One design's tiled operator condensed onto the insert's disk, bound
    to the spec and fine mesh it was built for; it, not the condensation,
    holds the mesh."""

    spec: TilingSpec
    mesh: TriMesh
    condensation: fem.Condensation


def evaluate_tiled(spec: TilingSpec, mesh: TriMesh | None = None,
                   obstacle: ObstacleSpec | None = None, *,
                   condensation: SweepCondensation | None = None):
    """Solve raw conduction on the tiled structure; returns (J1, J2, T),
    T the nodal temperatures.

    ``mesh`` defaults to :func:`fine_mesh`; J1 compares against the
    mesh's cached reference ramp (:func:`macro_solver.reference_field`),
    built at its first tiled J1. Without ``condensation`` the whole
    structure is tiled and its operator factored (:func:`tiled_state`);
    with one (built by :func:`sweep_condensation` for this very spec and
    mesh, else ``ValueError``) only the disk's elements get
    conductivities and only they are assembled and factored.
    """
    if mesh is None:
        mesh = fine_mesh(spec)
    if condensation is None:
        temp = tiled_state(spec, mesh, tile_conductivity(spec, mesh, obstacle), obstacle)
    else:
        if condensation.mesh is not mesh:
            raise ValueError("the condensation belongs to another mesh")
        if condensation.spec is not spec:
            raise ValueError("the condensation was built for another design")
        insert = condensation.condensation.varying_elements
        # the disk lies in the obstacle region: obstacle fill, or the insert
        k = np.full(len(insert), spec.k_obstacle)
        if obstacle is not None:
            k[obstacle.on_insert_side(mesh.centroids[insert])] = obstacle.k
        temp = condensation.condensation.factor(fem.isotropic_tensors(k)).solve()
    j1 = objectives.mismatch(temp, macro_solver.reference_field(mesh, spec.bc), mesh)
    j2 = objectives.gradient_energy(temp, mesh)
    return j1, j2, temp


def insert_disk(spec: TilingSpec, mesh: TriMesh, obstacle: ObstacleSpec) -> np.ndarray:
    """The obstacle's disk on the fine mesh; ``ValueError`` if it holds no
    element, as a sweep then has nothing to condense onto."""
    disk = obstacle.disk(mesh, spec.geometry)
    if not disk.any():
        raise ValueError(
            f"the sweep's insert disk of radius 0.3 * r_obstacle = "
            f"{obstacle.resolved_radius(spec.geometry):.4g} m (r_obstacle = "
            f"{spec.geometry.r_obstacle:.4g} m) holds no element of the fine mesh "
            f"({spec.epsilon0 / ELEMENTS_PER_CELL:.4g} m elements)")
    return disk


def sweep_condensation(spec: TilingSpec, mesh: TriMesh,
                       obstacle: ObstacleSpec) -> SweepCondensation:
    """The tiled operator of ``spec`` condensed onto the obstacle's disk,
    the elements that differ between the angles of a sweep. Every angle
    solves the zero load, so the condensation keeps the interface
    responses in place of the fixed block's factor. ``ValueError`` if
    the disk holds no element of the mesh."""
    disk = insert_disk(spec, mesh, obstacle)
    return SweepCondensation(spec, mesh, macro_solver.condensed_conduction(
        mesh, fem.isotropic_tensors(tile_conductivity(spec, mesh)), disk, spec.bc,
        keep_responses=True))


def robustness_sweep(designs: dict[str, TilingSpec], psi_values,
                     j1_init: float, k_obstacle_insert: float) -> list[dict]:
    """J1 ratio versus obstacle angle for each design.

    Returns rows {design, psi, j1, j1_ratio}; ``j1_init`` is the tiled
    initial-structure value used to normalize every entry. An empty
    angle list yields an empty table. Every angle, and every design's
    insert disk (``ValueError`` if it holds no fine-mesh element), is
    checked before the first solve; each design is condensed once and
    then evaluated at every angle.
    """
    obstacles = [ObstacleSpec(psi_deg=float(psi), k=k_obstacle_insert) for psi in psi_values]
    rows: list[dict] = []
    if not obstacles:
        return rows
    # held through the sweep, so each layout is meshed once
    meshes = {name: fine_mesh(spec) for name, spec in designs.items()}
    for name, spec in designs.items():
        insert_disk(spec, meshes[name], obstacles[0])
    for name, spec in designs.items():
        mesh = meshes[name]
        condensation = sweep_condensation(spec, mesh, obstacles[0])
        for obstacle in obstacles:
            j1, _, _ = evaluate_tiled(spec, mesh, obstacle, condensation=condensation)
            rows.append({"design": name, "psi": obstacle.psi_deg,
                         "j1": j1, "j1_ratio": j1 / j1_init})
        del condensation    # its responses never coexist with the next design's
    return rows
