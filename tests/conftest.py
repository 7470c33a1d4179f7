import numpy as np
import pytest
import scipy.sparse as sp

from cloakopt import fem
from cloakopt.geometry import (MacroGeometry, UnitCellGeometry,
                               build_cell_mesh, build_macro_mesh)

COPPER = 386.0
PDMS = 0.15
STEEL = 67.0


@pytest.fixture(scope="session")
def paper_geometry():
    return MacroGeometry(lx=5.0, ly=8.0, r_ring=1.35, r_obstacle=0.4)


@pytest.fixture(scope="session")
def coarse_macro_mesh(paper_geometry):
    return build_macro_mesh(paper_geometry, 0.25)


@pytest.fixture(scope="session")
def macro_mesh(paper_geometry):
    return build_macro_mesh(paper_geometry, 0.0625)


@pytest.fixture(scope="session")
def cell_mesh_32():
    return build_cell_mesh(UnitCellGeometry(32))


@pytest.fixture(scope="session")
def cell_mesh_64():
    return build_cell_mesh(UnitCellGeometry(64))


@pytest.fixture
def structures_built(monkeypatch):
    """A list that grows by the mesh of every Structure construction."""
    built = []
    init = fem.Structure.__init__

    def counted(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(fem.Structure, "__init__", counted)
    return built


class SlotTable:
    """A reference slot table, built per constraint set and per element
    subset: the CSC pattern of R^T K R for the selected elements (all by
    default) under ``constraints``, each element-local entry's slot found
    by one sorted search, entries in an eliminated row or column sent to
    a discarded extra slot. Summed by one bincount in element order, its
    operators are the bit-for-bit reference for those read from a mesh's
    one slot table, and it reduces periodic folds, which that table does
    not."""

    def __init__(self, mesh, constraints, elements=None):
        self.constraints = constraints
        self.nodes = mesh.elements if elements is None else mesh.elements[elements]
        n = self.n_free = constraints.n_free
        local = constraints.dof_of_node[self.nodes]
        rows, cols = local[:, :, None], local[:, None, :]
        keys = np.where((rows >= 0) & (cols >= 0), cols.astype(np.int64) * n + rows, -1)
        pattern = np.unique(keys[keys >= 0])
        self.nnz = len(pattern)
        self.slots = np.where(keys >= 0, np.searchsorted(pattern, keys), self.nnz)
        self.indices = pattern % n
        self.indptr = np.searchsorted(pattern, np.arange(n + 1) * n)

    def matrix(self, element_matrices):
        data = np.bincount(self.slots.ravel(), weights=element_matrices.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        a = sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n_free, self.n_free))
        a.eliminate_zeros()
        return a

    def lift(self, element_matrices):
        g = self.constraints.fixed_values
        lifting = np.flatnonzero((g[self.nodes] != 0.0).any(axis=1))
        nodes = self.nodes[lifting]
        kg = np.einsum("eij,ej->ei", element_matrices[lifting], g[nodes])
        return self.constraints.restrict(np.bincount(nodes.ravel(), weights=kg.ravel(),
                                                     minlength=len(g)))

    def system(self, element_matrices):
        return fem.SparseSystem(self.constraints, self.matrix(element_matrices),
                                self.lift(element_matrices))


def rotation(deg):
    th = np.radians(deg)
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -s], [s, c]])
