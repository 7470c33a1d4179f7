import numpy as np
import pytest

from cloakopt.geometry import (CELL_LEFT, CELL_RIGHT, GAMMA_A, GAMMA_B,
                               GAMMA_N, GAMMA_SYM, MacroGeometry, MeshError,
                               REGION_EXTERIOR, REGION_OBSTACLE, SECTOR_LAST, TriMesh,
                               UnitCellGeometry, build_cell_mesh,
                               build_macro_mesh, interpolate_structured)


def test_macro_mesh_regions_and_tags(paper_geometry, macro_mesh):
    mesh = macro_mesh
    for tag in (GAMMA_A, GAMMA_B, GAMMA_N, GAMMA_SYM):
        assert len(mesh.boundary_edges[tag]) > 0
    for l in range(1, 9):
        assert mesh.region_mask(l).any(), f"sector {l} empty"
    assert mesh.region_mask(REGION_OBSTACLE).any()
    assert mesh.region_mask(REGION_EXTERIOR).any()


def test_total_area_partitions_domain(paper_geometry, macro_mesh):
    total = macro_mesh.areas.sum()
    assert total == pytest.approx(5.0 * 8.0 / 2.0, rel=1e-6)
    regions = set(np.unique(macro_mesh.element_region))
    per_region = sum(macro_mesh.region_area(r) for r in regions)
    assert per_region == pytest.approx(total, rel=1e-12)


def test_region_areas_converge_to_exact(paper_geometry):
    g = paper_geometry
    exact_c = np.pi * g.r_obstacle**2 / 2.0
    exact_d = np.pi * (g.r_ring**2 - g.r_obstacle**2) / 2.0
    errs = []
    for h in (0.1, 0.05):
        mesh = build_macro_mesh(g, h)
        area_c = mesh.region_area(REGION_OBSTACLE)
        area_d = sum(mesh.region_area(l) for l in range(1, 9))
        err = max(abs(area_c - exact_c) / exact_c, abs(area_d - exact_d) / exact_d)
        errs.append(err)
        for l in range(1, 9):
            assert mesh.region_area(l) == pytest.approx(exact_d / 8.0, rel=5 * h)
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


def test_boundary_edges_belong_to_one_element(cell_mesh_32):
    mesh = cell_mesh_32
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
