"""Legacy-VTK (ASCII unstructured grid) export of meshes and fields.

Every file carries the title ``cloakopt``; each table (points, cells,
one field) is formatted as one block.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import TriMesh

_VTK_TRIANGLE = 5


def _rows(fmt: str, values) -> str:
    """One ``fmt`` line per row of ``values``, from one %-format over the
    flat list (a format per row costs ~4x more)."""
    values = np.asarray(values)
    return (fmt * len(values)) % tuple(values.ravel().tolist())


def write_vtk(path, mesh: TriMesh, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Write the mesh with optional nodal and element fields.

    Scalar fields are (N,) arrays; vector fields are (N, 2) and padded
    with a zero third component.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [
        "# vtk DataFile Version 3.0\ncloakopt\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {mesh.n_nodes} double\n", _rows("%.12g %.12g 0\n", mesh.nodes),
        f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n",
        _rows("3 %d %d %d\n", mesh.elements),
        f"CELL_TYPES {mesh.n_elements}\n", f"{_VTK_TRIANGLE}\n" * mesh.n_elements,
    ]

    def emit(section: str, count: int, data: dict):
        parts.append(f"{section} {count}\n")
        for name, values in data.items():
            values = np.asarray(values)
            if values.ndim == 1:
                parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                parts.append(_rows("%.12g\n", values))
            else:
                parts.append(f"VECTORS {name} double\n")
                parts.append(_rows("%.12g %.12g 0\n", values))

    if cell_data is None:
        cell_data = {}
    cell_data = {"region": mesh.element_region.astype(float), **cell_data}
    emit("CELL_DATA", mesh.n_elements, cell_data)
    if point_data:
        emit("POINT_DATA", mesh.n_nodes, point_data)
    path.write_text("".join(parts))


def flux_vectors(mesh: TriMesh, tensors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Element-wise heat flux -K grad T for export."""
    g = mesh.element_gradient(values)
    return -np.einsum("eij,ej->ei", tensors, g)
