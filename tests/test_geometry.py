import numpy as np
import pytest

from cloakopt.geometry import (GAMMA_A, GAMMA_B, MacroGeometry, MeshError,
                               REGION_EXTERIOR, REGION_OBSTACLE, SECTOR_LAST, TriMesh,
                               UnitCellGeometry, build_cell_mesh,
                               build_macro_mesh, interpolate_structured, mirror_line)


def region_area(mesh: TriMesh, region: int) -> float:
    return float(mesh.areas[mesh.region_mask(region)].sum())


def test_macro_mesh_regions_and_tags(paper_geometry, macro_mesh):
    """A macro mesh tags its two fixed edges, the left and the right one;
    the adiabatic top and bottom edges carry no tag."""
    mesh = macro_mesh
    assert set(mesh.boundary_edges) == {GAMMA_A, GAMMA_B}
    for tag, x in ((GAMMA_A, -paper_geometry.lx / 2), (GAMMA_B, paper_geometry.lx / 2)):
        edges = mesh.boundary_edges[tag]
        assert len(edges) == mesh.structured_shape[1]
        assert np.all(mesh.nodes[edges, 0] == x)
    for l in range(1, 9):
        assert mesh.region_mask(l).any(), f"sector {l} empty"
    assert mesh.region_mask(REGION_OBSTACLE).any()
    assert mesh.region_mask(REGION_EXTERIOR).any()


def test_total_area_partitions_domain(paper_geometry, macro_mesh):
    total = macro_mesh.areas.sum()
    assert total == pytest.approx(5.0 * 8.0 / 2.0, rel=1e-6)
    regions = set(np.unique(macro_mesh.element_region))
    per_region = sum(region_area(macro_mesh, r) for r in regions)
    assert per_region == pytest.approx(total, rel=1e-12)


def test_region_areas_converge_to_exact(paper_geometry):
    g = paper_geometry
    exact_c = np.pi * g.r_obstacle**2 / 2.0
    exact_d = np.pi * (g.r_ring**2 - g.r_obstacle**2) / 2.0
    errs = []
    for h in (0.1, 0.05):
        mesh = build_macro_mesh(g, h)
        area_c = region_area(mesh, REGION_OBSTACLE)
        area_d = sum(region_area(mesh, l) for l in range(1, 9))
        err = max(abs(area_c - exact_c) / exact_c, abs(area_d - exact_d) / exact_d)
        errs.append(err)
        for l in range(1, 9):
            assert region_area(mesh, l) == pytest.approx(exact_d / 8.0, rel=5 * h)
    assert errs[1] < errs[0]


def test_sector_rotational_consistency(paper_geometry):
    g = paper_geometry
    width = np.pi / SECTOR_LAST
    r = 0.8 * (g.r_ring + g.r_obstacle) / 2.0
    angles = np.linspace(0.01, np.pi - width - 0.01, 40)
    l0 = g.sector_of(r * np.cos(angles), r * np.sin(angles))
    l1 = g.sector_of(r * np.cos(angles + width), r * np.sin(angles + width))
    assert np.all(l1 == l0 + 1)


def test_positive_element_areas(macro_mesh, cell_mesh_32):
    assert np.all(macro_mesh.areas > 0)
    assert np.all(cell_mesh_32.areas > 0)


def test_boundary_edges_belong_to_one_element(coarse_macro_mesh):
    mesh = coarse_macro_mesh
    counts = {}
    for tri in mesh.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            counts[key] = counts.get(key, 0) + 1
    for edges in mesh.boundary_edges.values():
        for a, b in edges:
            assert counts[tuple(sorted((a, b)))] == 1


def test_degenerate_resolution_rejected(paper_geometry):
    with pytest.raises(MeshError, match="2 elements"):
        build_macro_mesh(paper_geometry, 0.6)


def test_zero_obstacle_radius(paper_geometry):
    g = MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.0)
    mesh = build_macro_mesh(g, 0.1)
    assert not mesh.region_mask(REGION_OBSTACLE).any()
    assert all(mesh.region_mask(l).any() for l in range(1, 9))


def test_oversize_ring_needs_override():
    g = MacroGeometry(lx=2.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)
    with pytest.raises(MeshError, match="override"):
        build_macro_mesh(g, 0.05)
    mesh = build_macro_mesh(g, 0.05, allow_oversize=True)
    assert mesh.n_elements > 0


def test_cell_mesh_counts():
    mesh = build_cell_mesh(UnitCellGeometry(64))
    assert mesh.n_elements == 64 * 64 * 2
    assert mesh.n_nodes == 65 * 65
    # edge-interior pairs on two sides plus three corner slaves
    assert len(mesh.periodic_pairs) == 2 * 63 + 3
    assert mesh.boundary_edges == {}


def test_cell_mesh_periodic_partner_coordinates(cell_mesh_32):
    mesh = cell_mesh_32
    mid = np.flatnonzero((mesh.nodes[:, 0] == 0.0) & (mesh.nodes[:, 1] == 0.5))[0]
    row = mesh.periodic_pairs[mesh.periodic_pairs[:, 0] == mid]
    assert len(row) == 1
    partner = mesh.nodes[row[0, 1]]
    assert partner[0] == pytest.approx(1.0)
    assert partner[1] == pytest.approx(0.5)


def test_cell_periodic_pairs_match_tangential_coordinate(cell_mesh_32):
    mesh = cell_mesh_32
    corners = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    for m, s in mesh.periodic_pairs:
        pm, ps = mesh.nodes[m], mesh.nodes[s]
        if tuple(ps) in corners:
            continue
        gap = np.abs(pm - ps)
        assert min(gap) < 1e-12 and abs(max(gap) - 1.0) < 1e-12


def test_cell_resolution_floor():
    with pytest.raises(MeshError):
        build_cell_mesh(UnitCellGeometry(8))


def test_odd_cell_resolution_rejected():
    # the checkerboard of diagonals wraps periodically only for even n
    with pytest.raises(MeshError, match="even"):
        build_cell_mesh(UnitCellGeometry(17))


def test_structured_interpolation_exact_for_linear(cell_mesh_32):
    mesh = cell_mesh_32
    values = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + 0.25
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    got = interpolate_structured(mesh, pts, values)
    want = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.25
    np.testing.assert_allclose(got, want, atol=1e-12)


APPENDIX_B = MacroGeometry(lx=20.0, ly=13.333333333333334, r_ring=5.0, r_obstacle=3.0)


@pytest.mark.parametrize("geometry, h, half_divisions", [
    (MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4), 1.0 / 16, 40),
    (APPENDIX_B, 0.2, 50),
], ids=["paper-h0.0625", "appendixB-h0.2"])
def test_half_mesh_is_the_right_half_of_the_whole(geometry, h, half_divisions):
    """Nodes, elements (renumbered, in order), diagonals and regions of the
    half mesh are those of the whole mesh's x >= 0 half, whether the half
    starts at an even (40) or odd (50) column of the whole grid."""
    whole = build_macro_mesh(geometry, h)
    half = build_macro_mesh(geometry, h, half=True)
    nx, ny = whole.structured_shape
    assert half.structured_shape == (nx // 2, ny) == (half_divisions, ny)
    first_node, first_element = (nx // 2) * (ny + 1), 2 * (nx // 2) * ny
    assert np.abs(half.nodes - whole.nodes[first_node:]).max() <= 1e-15 * geometry.lx
    assert np.abs(half.nodes[half.boundary_edges[GAMMA_A], 0]).max() <= 1e-15 * geometry.lx
    np.testing.assert_array_equal(half.elements, whole.elements[first_element:] - first_node)
    np.testing.assert_array_equal(half.element_region, whole.element_region[first_element:])
    assert set(np.unique(half.element_region)) == {REGION_EXTERIOR, REGION_OBSTACLE, 1, 2, 3, 4}
    np.testing.assert_array_equal(half.boundary_edges[GAMMA_B],
                                  whole.boundary_edges[GAMMA_B] - first_node)
    assert half.mirror_half and not whole.mirror_half
    assert half.areas.sum() == pytest.approx(0.5 * whole.areas.sum(), rel=1e-12)


def test_half_mesh_needs_an_even_division_count(paper_geometry):
    with pytest.raises(MeshError, match="21 divisions across lx"):
        build_macro_mesh(paper_geometry, paper_geometry.lx / 21, half=True)


def grid_oracle(geometry, h):
    """The whole macro mesh by its definition, one quad at a time: nodes
    column by column, two triangles per quad split along n00-n11 where
    i + j is even and along n10-n01 elsewhere, regions by centroid."""
    nx, ny = round(geometry.lx / h), round(geometry.ly / 2.0 / h)
    xs = np.linspace(-geometry.lx / 2.0, geometry.lx / 2.0, nx + 1)
    ys = np.linspace(0.0, geometry.ly / 2.0, ny + 1)
    nodes = np.array([(x, y) for x in xs for y in ys])
    elements = []
    for i in range(nx):
        for j in range(ny):
            n00, n10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            n01, n11 = n00 + 1, n10 + 1
            if (i + j) % 2 == 0:
                elements += [(n00, n10, n11), (n00, n11, n01)]
            else:
                elements += [(n00, n10, n01), (n10, n11, n01)]
    elements = np.array(elements)
    c = nodes[elements].mean(axis=1)
    r = np.hypot(c[:, 0], c[:, 1])
    sector = np.clip(np.floor(np.arctan2(c[:, 1], c[:, 0]) / (np.pi / 8)).astype(int) + 1, 1, 8)
    region = np.where(r < geometry.r_obstacle, REGION_OBSTACLE,
                      np.where(r < geometry.r_ring, sector, REGION_EXTERIOR))
    return nodes, elements, region


@pytest.mark.parametrize("geometry, h", [
    (MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4), 0.25),
    (MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4), 5.0 / 21),
    (APPENDIX_B, 0.4),
], ids=["paper-h0.25", "paper-21-divisions", "appendixB-h0.4"])
def test_whole_macro_mesh_follows_its_definition(geometry, h):
    """The whole mesh, which the tiled validation's fine mesh also is, is
    unchanged by the half-mesh option: bit for bit the grid oracle."""
    mesh = build_macro_mesh(geometry, h)
    nodes, elements, region = grid_oracle(geometry, h)
    np.testing.assert_array_equal(mesh.nodes, nodes)
    np.testing.assert_array_equal(mesh.elements, elements)
    np.testing.assert_array_equal(mesh.element_region, region)


def test_structured_interpolation_locates_the_elements_of_a_half_mesh():
    """A half mesh starting at an odd column of the whole grid flips the
    checkerboard; the element location follows it."""
    mesh = build_macro_mesh(APPENDIX_B, 0.4, half=True)
    assert mesh.structured_shape[0] % 2 == 1
    values = mesh.nodes[:, 0] * mesh.nodes[:, 1]
    x0, x1, y0, y1 = mesh.extent
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(x0, x1, 300), rng.uniform(y0, y1, 300)])
    got = interpolate_structured(mesh, pts, values)
    # x y is linear only inside a triangle, and its interpolant on a quad
    # depends on the diagonal: compare with the P1 interpolant of the
    # element found by brute force
    want = np.empty(len(pts))
    p = mesh.nodes[mesh.elements]
    for k, q in enumerate(pts):
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        r = q - p[:, 0]
        l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
        l2 = (r[:, 1] * d1[:, 0] - r[:, 0] * d1[:, 1]) / det
        inside = np.flatnonzero((l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1 + 1e-12))[0]
        v = values[mesh.elements[inside]]
        want[k] = (1 - l1[inside] - l2[inside]) * v[0] + l1[inside] * v[1] + l2[inside] * v[2]
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("geometry, h", [
    (MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4), 0.25),
    (APPENDIX_B, 0.5),
], ids=["paper-h0.25", "appendixB-h0.5"])
def test_mirror_line_splits_the_whole_mesh_at_x0(geometry, h):
    """By grid index alone: the nodes from the line on are the half
    mesh's nodes and its elements those from the first element on, bit
    for bit; each node left of the line maps to its mirror image."""
    mesh = build_macro_mesh(geometry, h)
    half = build_macro_mesh(geometry, h, half=True)
    line, first, images = mirror_line(mesh)
    np.testing.assert_array_equal(mesh.nodes[line:], half.nodes)
    np.testing.assert_array_equal(mesh.elements[first:] - line, half.elements)
    np.testing.assert_array_equal(mesh.element_region[first:], half.element_region)
    assert np.all(mesh.nodes[line:line + mesh.structured_shape[1] + 1, 0] == 0.0)
    assert len(images) == line and images.min() > line
    np.testing.assert_allclose(mesh.nodes[images], mesh.nodes[:line] * [-1.0, 1.0],
                               rtol=0.0, atol=1e-12 * geometry.lx)
    assert np.all(mesh.centroids[:first, 0] < 0.0) and np.all(mesh.centroids[first:, 0] > 0.0)


def test_no_mirror_line_on_a_half_mesh_or_an_odd_column_count():
    paper = MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)
    assert mirror_line(build_macro_mesh(paper, 5.0 / 21)) is None
    assert mirror_line(build_macro_mesh(paper, 0.25, half=True)) is None
