"""Multiscale topology optimization of periodic microstructures for
2D thermal cloaking: periodic homogenization of eight unit cells,
adjoint-driven level-set evolution, and finite-cell validation."""

from .geometry import (MacroGeometry, MeshError, TriMesh, UnitCellGeometry,
                       build_cell_mesh, build_macro_mesh)
from .fem import ScalarField, SolverError, SparseSystem
from .homogenization import (CellMaterialField, EffectiveTensor, diagonalize,
                             element_conductivity, homogenize)
from .levelset import LevelSetField, characteristic, initialize
from .macro_solver import (BoundaryData, MacroMaterialMap, evaluate_objectives,
                           solve_adjoint, solve_state)
from .optimizer import DesignState, Scenario, checkpoint, resume, run
from .validation import ObstacleSpec, TilingSpec, evaluate_tiled, robustness_sweep

__version__ = "0.1.0"

__all__ = [
    "MacroGeometry", "MeshError", "TriMesh", "UnitCellGeometry",
    "build_cell_mesh", "build_macro_mesh",
    "ScalarField", "SolverError", "SparseSystem",
    "CellMaterialField", "EffectiveTensor", "diagonalize", "element_conductivity",
    "homogenize",
    "LevelSetField", "characteristic", "initialize",
    "BoundaryData", "MacroMaterialMap", "evaluate_objectives",
    "solve_adjoint", "solve_state",
    "DesignState", "Scenario", "checkpoint", "resume", "run",
    "ObstacleSpec", "TilingSpec", "evaluate_tiled", "robustness_sweep",
]
