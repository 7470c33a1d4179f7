"""Legacy-VTK (ASCII unstructured grid) export of meshes and fields.

Every file carries the title ``cloakopt``; each table (points, cells,
one field) is formatted as one block. The text that depends on the mesh
alone (header, points, cells, cell types, the ``CELL_DATA`` line and the
``region`` field, always the first cell field) is formatted once per
mesh and kept in its cache, so a write formats only the caller's fields:
a run's eight cell VTKs share one cell mesh. The cached text is a plain
string, so it keeps no mesh alive.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import fem
from .geometry import TriMesh

_VTK_TRIANGLE = 5


def _rows(fmt: str, values) -> str:
    """One ``fmt`` line per row of ``values``, from one %-format over the
    flat list (a format per row costs ~4x more)."""
    values = np.asarray(values)
    return (fmt * len(values)) % tuple(values.ravel().tolist())


def _fields(data: dict):
    """The SCALARS or VECTORS block of each field, in order."""
    for name, values in data.items():
        values = np.asarray(values)
        if values.ndim == 1:
            yield f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
            yield _rows("%.12g\n", values)
        else:
            yield f"VECTORS {name} double\n"
            yield _rows("%.12g %.12g 0\n", values)


def _mesh_text(mesh: TriMesh) -> str:
    return "".join([
        "# vtk DataFile Version 3.0\ncloakopt\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {mesh.n_nodes} double\n", _rows("%.12g %.12g 0\n", mesh.nodes),
        f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n",
        _rows("3 %d %d %d\n", mesh.elements),
        f"CELL_TYPES {mesh.n_elements}\n", f"{_VTK_TRIANGLE}\n" * mesh.n_elements,
        f"CELL_DATA {mesh.n_elements}\n",
        *_fields({"region": mesh.element_region.astype(float)}),
    ])


def write_vtk(path, mesh: TriMesh, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Write the mesh with optional nodal and element fields.

    Scalar fields are (N,) arrays; vector fields are (N, 2) and padded
    with a zero third component. The mesh's ``region`` is always the
    first cell field, so ``cell_data`` may not name it.
    """
    cell_data = cell_data or {}
    if "region" in cell_data:
        raise ValueError("the region cell field is written from the mesh")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [fem.cached(mesh, "vtk mesh text", lambda: _mesh_text(mesh)), *_fields(cell_data)]
    if point_data:
        parts += [f"POINT_DATA {mesh.n_nodes}\n", *_fields(point_data)]
    path.write_text("".join(parts))


def flux_vectors(mesh: TriMesh, tensors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Element-wise heat flux -K grad T for export."""
    g = mesh.element_gradient(values)
    return -np.einsum("eij,ej->ei", tensors, g)
