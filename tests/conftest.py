import numpy as np
import pytest

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
    """A list that grows by (mesh, elements) at every Structure construction."""
    built = []
    init = fem.Structure.__init__

    def counted(self, mesh, constraints, elements=None):
        built.append((mesh, elements))
        init(self, mesh, constraints, elements)

    monkeypatch.setattr(fem.Structure, "__init__", counted)
    return built


def rotation(deg):
    th = np.radians(deg)
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -s], [s, c]])
