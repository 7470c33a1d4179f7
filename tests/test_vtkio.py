import numpy as np

from cloakopt import vtkio
from cloakopt.geometry import UnitCellGeometry, build_cell_mesh


def test_vtk_layout_and_counts(tmp_path):
    mesh = build_cell_mesh(UnitCellGeometry(16))
    values = mesh.nodes[:, 0]
    flux = np.ones((mesh.n_elements, 2))
    out = tmp_path / "mesh.vtk"
    vtkio.write_vtk(out, mesh, point_data={"phi": values},
                    cell_data={"flux": flux, "k": np.ones(mesh.n_elements)})
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_elements} {4 * mesh.n_elements}" in lines
    assert f"CELL_DATA {mesh.n_elements}" in lines
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert "SCALARS region double 1" in lines
    assert "VECTORS flux double" in lines
    idx = lines.index(f"POINTS {mesh.n_nodes} double")
    first = lines[idx + 1].split()
    assert len(first) == 3 and first[2] == "0"


def per_row_vtk(mesh, point_data, cell_data) -> str:
    """The VTK text formatted one row at a time: the reference the block
    formatting of write_vtk must reproduce byte for byte."""
    lines = ["# vtk DataFile Version 3.0", "cloakopt", "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    lines += [f"{x:.12g} {y:.12g} 0" for x, y in mesh.nodes]
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.elements]
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines += ["5"] * mesh.n_elements
    for section, count, data in (("CELL_DATA", mesh.n_elements, cell_data),
                                 ("POINT_DATA", mesh.n_nodes, point_data)):
        lines.append(f"{section} {count}")
        for name, values in data.items():
            if values.ndim == 1:
                lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                lines += [f"{v:.12g}" for v in values]
            else:
                lines.append(f"VECTORS {name} double")
                lines += [f"{v[0]:.12g} {v[1]:.12g} 0" for v in values]
    return "\n".join(lines) + "\n"


def test_vtk_bytes_match_per_row_formatting(tmp_path):
    mesh = build_cell_mesh(UnitCellGeometry(16))
    rng = np.random.default_rng(8)
    scale = 10.0 ** rng.integers(-20, 20, size=mesh.n_nodes)
    phi = rng.normal(size=mesh.n_nodes) * scale
    phi[:3] = (-0.0, 0.0, 1.0 / 3.0)
    flux = rng.normal(size=(mesh.n_elements, 2))
    out = tmp_path / "mesh.vtk"
    vtkio.write_vtk(out, mesh, point_data={"phi": phi}, cell_data={"flux": flux})
    cell_data = {"region": mesh.element_region.astype(float), "flux": flux}
    assert out.read_bytes() == per_row_vtk(mesh, {"phi": phi}, cell_data).encode()


def test_flux_vectors_sign():
    mesh = build_cell_mesh(UnitCellGeometry(16))
    tensors = np.broadcast_to(2.0 * np.eye(2), (mesh.n_elements, 2, 2))
    values = mesh.nodes[:, 0]          # grad = (1, 0)
    flux = vtkio.flux_vectors(mesh, tensors, values)
    np.testing.assert_allclose(flux[:, 0], -2.0, atol=1e-12)
    np.testing.assert_allclose(flux[:, 1], 0.0, atol=1e-12)
