"""Computational domains and triangular meshes for both scales.

The macroscale domain is the top half of a rectangle centred on the
shielded obstacle: a half-disk obstacle region, an annular design ring
split into equal-angle sectors, and the surrounding evaluation region.
A design whose sector l and sector 9 - l are mirror images about x = 0
needs only the x >= 0 half of that domain, sectors 1-4
(``build_macro_mesh(..., half=True)``), whose integrals stand for both
halves (:attr:`TriMesh.mirror_half`).
The microscale domain is the unit square, meshed structurally so that
opposite edges carry matching node layouts for periodic constraints.
A macro mesh tags only its two fixed edges, where every macro solve
holds its Dirichlet data; a cell mesh tags none.

Sector numbering convention: sector 1 starts at the positive x1 axis and
the index increases counter-clockwise; each of the 8 sectors spans pi/8
of the half annulus. This convention is fixed and documented in the config
reference (README).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# element_region codes
REGION_EXTERIOR = 0          # evaluation region outside the design ring
REGION_OBSTACLE = 9          # shielded half-disk at the centre
CELL_INTERIOR = 0            # single-region unit-cell meshes
SECTOR_FIRST, SECTOR_LAST = 1, 8
MIN_CELL_RESOLUTION = 16     # elements per side of the coarsest unit-cell mesh

# fixed boundary edge tags (macro); the top edge and the bottom edge, the
# mirror plane, are adiabatic and carry no tag
GAMMA_A = "gamma_a"          # left edge, low-temperature Dirichlet (a half mesh: x = 0)
GAMMA_B = "gamma_b"          # right edge, high-temperature Dirichlet


class MeshError(ValueError):
    """Raised for invalid geometry or degenerate mesh resolution."""


@dataclass
class MacroGeometry:
    """Macroscale layout: rectangle size, design ring and obstacle radii.

    Lengths in metres. Eight equal-angle design sectors partition the
    half annulus ``r_obstacle < r < r_ring`` of the computational
    (top-half) domain.
    """

    lx: float
    ly: float
    r_ring: float
    r_obstacle: float

    def validate(self, allow_oversize: bool = False) -> None:
        if self.lx <= 0 or self.ly <= 0:
            raise MeshError("domain side lengths must be positive")
        if not 0 <= self.r_obstacle < self.r_ring:
            raise MeshError("need 0 <= r_obstacle < r_ring")
        if not allow_oversize:
            if self.r_ring > self.lx / 2 or self.r_ring > self.ly / 2:
                raise MeshError(
                    f"design ring extends past the domain (r_ring {self.r_ring} > "
                    f"lx/2 {self.lx / 2} or ly/2 {self.ly / 2}); only library callers "
                    "override this check, with allow_oversize=True"
                )

    def sector_of(self, x1, x2):
        """Sector index (1..8) for points inside the design ring.

        Vectorized; callers must mask to the annulus themselves. Angle 0
        (positive x1 axis) belongs to sector 1.
        """
        angle = np.arctan2(x2, x1)
        width = np.pi / SECTOR_LAST
        idx = np.floor(angle / width).astype(int) + 1
        return np.clip(idx, SECTOR_FIRST, SECTOR_LAST)


@dataclass
class UnitCellGeometry:
    """Unit periodic cell: the square (0,1)^2, whose unit area homogenization
    assumes, with a structured mesh hint."""

    resolution: int = 64


@dataclass
class TriMesh:
    """Linear triangular mesh shared by both scales.

    ``boundary_edges`` maps a fixed-edge tag (``GAMMA_A``, ``GAMMA_B``) to
    an (K, 2) array of node pairs; a cell mesh has none.
    ``periodic_pairs`` is an (P, 2) array of (master, slave) node indices
    (cell meshes only). ``structured_shape`` records (nx, ny) grid
    divisions when the mesh came from a structured generator; tiling
    interpolation relies on it. ``mirror_half`` marks the x >= 0 half of a
    macro mesh that is mirror-symmetric about x = 0: its integrals (the
    objectives) stand for both halves. Meshes are immutable after
    construction; ``cache`` holds the solver structures, operators and
    reference ramps built for the mesh at their first use.
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_region: np.ndarray
    boundary_edges: dict[str, np.ndarray]
    periodic_pairs: np.ndarray | None = None
    structured_shape: tuple[int, int] | None = None
    extent: tuple[float, float, float, float] | None = None  # (x0, x1, y0, y1)
    mirror_half: bool = False
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def areas(self) -> np.ndarray:
        p = self.nodes[self.elements]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def grads(self) -> np.ndarray:
        """Constant P1 shape-function gradients, shape (n_elements, 3, 2)."""
        p = self.nodes[self.elements]
        x, y = p[..., 0], p[..., 1]
        two_a = 2.0 * self.areas
        g = np.empty((self.n_elements, 3, 2))
        g[:, 0, 0] = y[:, 1] - y[:, 2]
        g[:, 1, 0] = y[:, 2] - y[:, 0]
        g[:, 2, 0] = y[:, 0] - y[:, 1]
        g[:, 0, 1] = x[:, 2] - x[:, 1]
        g[:, 1, 1] = x[:, 0] - x[:, 2]
        g[:, 2, 1] = x[:, 1] - x[:, 0]
        g /= two_a[:, None, None]
        return g

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row-sum (lumped) mass per node: each element spreads area/3."""
        m = np.zeros(self.n_nodes)
        np.add.at(m, self.elements.ravel(), np.repeat(self.areas / 3.0, 3))
        return m

    def region_mask(self, region: int) -> np.ndarray:
        return self.element_region == region

    def element_gradient(self, values: np.ndarray, elements=slice(None)) -> np.ndarray:
        """Per-element gradient of a nodal field on the selected elements
        (default all), shape (n_selected, 2)."""
        return np.einsum("eik,ei->ek", self.grads[elements],
                         values[self.elements[elements]])


def _grid_triangulation(xs: np.ndarray, ys: np.ndarray, parity: int = 0):
    """Triangulate a tensor grid; alternate quad diagonals checkerboard-wise.

    With an even number of divisions the pattern is invariant under 90
    degree rotation, which cell-level symmetry checks rely on. ``parity``
    1 starts the checkerboard on the other diagonal, as the grid's right
    part does when it begins at an odd column of the whole grid.
    """
    nx, ny = len(xs) - 1, len(ys) - 1
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I, J = I.ravel(), J.ravel()
    n00 = nid(I, J)
    n10 = nid(I + 1, J)
    n01 = nid(I, J + 1)
    n11 = nid(I + 1, J + 1)

    elements = np.empty((2 * nx * ny, 3), dtype=np.int32)
    even = (I + J + parity) % 2 == 0
    # even quads: diagonal n00-n11, odd quads: diagonal n10-n01
    elements[0::2][even] = np.column_stack([n00, n10, n11])[even]
    elements[1::2][even] = np.column_stack([n00, n11, n01])[even]
    odd = ~even
    elements[0::2][odd] = np.column_stack([n00, n10, n01])[odd]
    elements[1::2][odd] = np.column_stack([n10, n11, n01])[odd]
    return nodes, elements, (nx, ny)


def build_macro_mesh(geom: MacroGeometry, resolution: float,
                     allow_oversize: bool = False, half: bool = False) -> TriMesh:
    """Mesh the top-half rectangle and tag elements by region.

    ``resolution`` is the target element edge length in metres. Elements
    are tagged by centroid, so region interfaces are resolved to within
    one element diameter. Rejects resolutions with fewer than two
    elements across the design-ring thickness.

    ``half`` meshes only the x >= 0 half, built directly: its nodes,
    elements (in order, renumbered from 0), diagonals and regions are
    exactly the right half of the whole mesh, which must have an even
    number of divisions across lx to be mirror-symmetric. Its left edge,
    the mirror line, carries ``GAMMA_A``; the mesh is a ``mirror_half``.
    """
    geom.validate(allow_oversize=allow_oversize)
    if resolution <= 0:
        raise MeshError("resolution must be a positive element size")
    thickness = geom.r_ring - geom.r_obstacle
    if thickness < 2.0 * resolution:
        raise MeshError(
            f"element size {resolution} leaves fewer than 2 elements across "
            f"the design-ring thickness {thickness}"
        )
    nx = max(2, round(geom.lx / resolution))
    ny = max(2, round(geom.ly / 2.0 / resolution))
    xs = np.linspace(-geom.lx / 2.0, geom.lx / 2.0, nx + 1)
    ys = np.linspace(0.0, geom.ly / 2.0, ny + 1)
    first = 0
    if half:
        if nx % 2:
            raise MeshError(f"element size {resolution} gives {nx} divisions across lx "
                            f"{geom.lx}; only an even count is mirror-symmetric")
        first = nx // 2
    # the right half's columns of the whole grid, so its coordinates,
    # centroids and regions are those of the whole mesh bit for bit
    nodes, elements, shape = _grid_triangulation(xs[first:], ys, parity=first % 2)

    c = nodes[elements].mean(axis=1)
    r = np.hypot(c[:, 0], c[:, 1])
    region = np.full(len(elements), REGION_EXTERIOR, dtype=np.int16)
    inside_ring = (r >= geom.r_obstacle) & (r < geom.r_ring)
    region[inside_ring] = geom.sector_of(c[inside_ring, 0], c[inside_ring, 1])
    region[r < geom.r_obstacle] = REGION_OBSTACLE

    cols, rows = shape
    left = np.column_stack([np.arange(rows), np.arange(1, rows + 1)]).astype(np.int32)
    return TriMesh(
        nodes=nodes,
        elements=elements,
        element_region=region,
        boundary_edges={GAMMA_A: left, GAMMA_B: left + cols * (rows + 1)},
        structured_shape=shape,
        extent=(xs[first], xs[-1], ys[0], ys[-1]),
        mirror_half=half,
    )


def mirror_line(mesh: TriMesh) -> tuple[int, int, np.ndarray] | None:
    """Split a whole macro mesh (:func:`build_macro_mesh`) at x = 0 by its
    grid indices alone: the first node on the line, the first element
    right of it, and the mirror image of each node left of the line.
    Node (i, j) of the nx x ny grid is i * (ny + 1) + j, its image
    (nx - i, j), and quad (i, j) holds elements 2 * (i * ny + j) and the
    next, so the x >= 0 half is every node and every element from these
    on. ``None`` for a half mesh or an odd column count: neither is
    mirror-symmetric about x = 0."""
    if mesh.mirror_half or mesh.structured_shape is None or mesh.structured_shape[0] % 2:
        return None
    nx, ny = mesh.structured_shape
    mid = nx // 2
    i, j = np.divmod(np.arange(mid * (ny + 1)), ny + 1)
    return mid * (ny + 1), 2 * mid * ny, (nx - i) * (ny + 1) + j


def build_cell_mesh(cell: UnitCellGeometry) -> TriMesh:
    """Structured triangulation of the unit square with periodic pairing.

    Left/bottom boundary nodes are masters; right/top are slaves. All
    four corners fold onto the origin node. The resolution must be even:
    only then does the checkerboard of diagonals wrap periodically.
    """
    n = cell.resolution
    if n < MIN_CELL_RESOLUTION:
        raise MeshError(f"cell resolution must be at least {MIN_CELL_RESOLUTION} "
                        "elements per side")
    if n % 2:
        raise MeshError(f"cell resolution must be even, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    nodes, elements, shape = _grid_triangulation(xs, xs)

    def nid(i, j):
        return i * (n + 1) + j

    interior = np.arange(1, n)
    pairs = [
        np.column_stack([nid(0, interior), nid(n, interior)]),   # left -> right
        np.column_stack([nid(interior, 0), nid(interior, n)]),   # bottom -> top
        np.array([[nid(0, 0), nid(n, 0)],
                  [nid(0, 0), nid(0, n)],
                  [nid(0, 0), nid(n, n)]]),                      # corners -> origin
    ]
    periodic = np.vstack(pairs).astype(np.int32)

    return TriMesh(
        nodes=nodes,
        elements=elements,
        element_region=np.full(len(elements), CELL_INTERIOR, dtype=np.int16),
        boundary_edges={},
        periodic_pairs=periodic,
        structured_shape=shape,
        extent=(0.0, 1.0, 0.0, 1.0),
    )


def interpolate_structured(mesh: TriMesh, points: np.ndarray,
                           values: np.ndarray) -> np.ndarray:
    """P1-interpolate a nodal field at points of a structured mesh.

    Locates the containing triangle analytically from the grid layout
    (including the checkerboard diagonal pattern), so it is exact element
    location, not an approximation.
    """
    if mesh.structured_shape is None or mesh.extent is None:
        raise MeshError("interpolation requires a structured mesh")
    nx, ny = mesh.structured_shape
    x0, x1, y0, y1 = mesh.extent
    u = (points[:, 0] - x0) / (x1 - x0) * nx
    v = (points[:, 1] - y0) / (y1 - y0) * ny
    i = np.clip(np.floor(u).astype(int), 0, nx - 1)
    j = np.clip(np.floor(v).astype(int), 0, ny - 1)
    fu = u - i
    fv = v - j
    quad = i * ny + j
    # the first quad's diagonal fixes the checkerboard's phase (a half
    # mesh may start on the other diagonal)
    parity = int(mesh.elements[0, 2] != ny + 2)
    even = (i + j + parity) % 2 == 0
    # even quads split along the n00-n11 diagonal (fv <= fu -> first tri),
    # odd quads along n10-n01 (fu + fv <= 1 -> first tri)
    first = np.where(even, fv <= fu, fu + fv <= 1.0)
    elem = 2 * quad + np.where(first, 0, 1)
    tri = mesh.elements[elem]
    p = mesh.nodes[tri]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rx = points[:, 0] - p[:, 0, 0]
    ry = points[:, 1] - p[:, 0, 1]
    l1 = (rx * d2[:, 1] - ry * d2[:, 0]) / det
    l2 = (ry * d1[:, 0] - rx * d1[:, 1]) / det
    l0 = 1.0 - l1 - l2
    vals = values[tri]
    return l0 * vals[:, 0] + l1 * vals[:, 1] + l2 * vals[:, 2]
