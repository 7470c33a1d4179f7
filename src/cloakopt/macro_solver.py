"""Macroscale conduction state, its adjoints, and objective evaluation.

The state problem is steady conduction on the half domain with fixed
temperatures on the left/right edges and adiabatic top/bottom, the
conductivity being the per-region tensor map (homogenized tensors in the
design sectors, isotropic elsewhere). The adjoint problem reuses the
factored state operator but carries homogeneous Dirichlet data and, as
its load, the exact derivative of a weighted sum of the discrete
objectives, so one adjoint solve differentiates the recorded objective
and adjoint-based gradients match finite differences of the discrete
objectives to solver precision.

Across optimizer iterations only the sector tensors change, so
:func:`state_factorization` condenses the exterior and obstacle blocks
once per mesh, fills and edge temperatures, and numbers the design ring
with that interface once, in a minimum-degree order that holds for any
SPD sector tensors. Each iteration then only assembles the ring from the
8 tensors (one sparse mat-vec) and factors it in that order; nothing is
ordered or assembled element by element again. It shares the builder
:func:`condensed_conduction` with the tiled robustness sweep. One-off
solves (:func:`solve_state`) factor the whole operator, but for a tiled
structure mirrored about x = 0, whose x >= 0 half is gathered from the
same slot table (:func:`mirrored_conduction_system`); the reference
field is a closed form (:func:`reference_field`), cached on the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, objectives, vtkio
from .geometry import (GAMMA_A, GAMMA_B, REGION_EXTERIOR, REGION_OBSTACLE,
                       SECTOR_FIRST, SECTOR_LAST, TriMesh)


@dataclass
class BoundaryData:
    """Fixed edge temperatures; the remaining edges are adiabatic."""

    t_low: float = 0.0
    t_high: float = 1.0

    def validate(self) -> None:
        if not (np.isfinite(self.t_low) and np.isfinite(self.t_high)):
            raise ValueError("boundary temperatures must be finite")
        if self.t_low == self.t_high:
            raise ValueError("equal edge temperatures make the problem trivial")


@dataclass
class MacroMaterialMap:
    """Per-region conductivity: sector tensors plus two isotropic fills."""

    sector_tensors: list          # one 2x2 array (or EffectiveTensor) per sector
    k_exterior: float
    k_obstacle: float

    def __post_init__(self):
        if len(self.sector_tensors) != SECTOR_LAST:
            raise ValueError(f"need one tensor per sector ({SECTOR_LAST}), "
                             f"got {len(self.sector_tensors)}")

    def sector_matrices(self) -> np.ndarray:
        """The sector tensors as an (8, 2, 2) array."""
        return np.array([t.matrix if hasattr(t, "matrix") else np.asarray(t)
                         for t in self.sector_tensors])

    def element_tensors(self, mesh: TriMesh) -> np.ndarray:
        t = np.zeros((mesh.n_elements, 2, 2))
        ext = mesh.region_mask(REGION_EXTERIOR)
        t[ext] = self.k_exterior * np.eye(2)
        obs = mesh.region_mask(REGION_OBSTACLE)
        t[obs] = self.k_obstacle * np.eye(2)
        for l, mat in enumerate(self.sector_matrices(), start=SECTOR_FIRST):
            t[mesh.region_mask(l)] = mat
        return t


def ring_filled_map(k_ring: float, k_exterior: float, k_obstacle: float) -> MacroMaterialMap:
    return MacroMaterialMap(sector_tensors=[k_ring * np.eye(2)] * 8,
                            k_exterior=k_exterior, k_obstacle=k_obstacle)


def _fixed_edges(mesh: TriMesh, bc: BoundaryData) -> fem.Constraints:
    """Both edges fixed, numbered once per mesh and edge values. The
    constraints only eliminate nodes, so each fixed-edge system (a direct
    state solve, the direct tiled solve, a condensation's fixed part) is
    a gather of the free rows and columns of the mesh's one slot table
    (:func:`fem.assemble`)."""
    bc.validate()

    def build():
        c = fem.Constraints.none(mesh.n_nodes)
        for tag, value in ((GAMMA_A, bc.t_low), (GAMMA_B, bc.t_high)):
            c = fem.apply_dirichlet(c, np.unique(mesh.boundary_edges[tag]), value)
        return c
    return fem.cached(mesh, ("fixed edges", bc.t_low, bc.t_high), build)


def _mirror_edges(mesh: TriMesh, bc: BoundaryData, line: int) -> fem.Constraints:
    """The x >= 0 half of a whole mesh whose nodes from ``line`` on are
    that half, the first column on x = 0 (:func:`geometry.mirror_line`):
    the mirror line fixed to the mean edge temperature, ``GAMMA_B`` to
    t_high, every node left of the line eliminated (its value is the
    mirror's, filled after the solve). Built per call: it serves one-off
    solves, and nothing of it stays on the mesh."""
    bc.validate()
    column = mesh.structured_shape[1] + 1        # nodes per grid column
    c = fem.apply_dirichlet(fem.Constraints.none(mesh.n_nodes), np.arange(line), 0.0)
    c = fem.apply_dirichlet(c, np.arange(line, line + column), 0.5 * (bc.t_low + bc.t_high))
    return fem.apply_dirichlet(c, np.unique(mesh.boundary_edges[GAMMA_B]), bc.t_high)


def conduction_system(mesh: TriMesh, tensors: np.ndarray,
                      bc: BoundaryData) -> fem.SparseSystem:
    """Conduction with the given element tensors and fixed edge temperatures."""
    return fem.assemble_diffusion(mesh, tensors, _fixed_edges(mesh, bc))


def mirrored_conduction_system(mesh: TriMesh, tensors: np.ndarray, bc: BoundaryData,
                               line: int, first_element: int) -> fem.SparseSystem:
    """Conduction on the x >= 0 half of a whole mesh that is mirror-symmetric
    about x = 0, whose conductivity is too, so its state is antisymmetric
    about the mean edge temperature: ``tensors`` are those of the elements
    from ``first_element`` on, right of the line, assembled from the whole
    mesh's one slot table; nodes from ``line`` on are that half, the mirror
    line first (see :func:`geometry.mirror_line` and :func:`_mirror_edges`)."""
    return fem.assemble_diffusion(mesh, tensors, _mirror_edges(mesh, bc, line),
                                  slice(first_element, None))


def state_system(mesh: TriMesh, matmap: MacroMaterialMap,
                 bc: BoundaryData) -> fem.SparseSystem:
    return conduction_system(mesh, matmap.element_tensors(mesh), bc)


def condensed_conduction(mesh: TriMesh, tensors: np.ndarray, varying: np.ndarray,
                         bc: BoundaryData, keep_responses: bool = False) -> fem.Condensation:
    """Conduction with the given element tensors and fixed edge temperatures,
    its fixed elements condensed onto the elements of the mask ``varying``,
    whose own tensors are left out (see :class:`fem.Condensation`). Every
    tensor must be SPD, as :func:`fem.assemble_diffusion` requires.
    ``keep_responses`` picks the condensation's mode. Without it the
    condensation keeps the fixed block's factor, for the state and the
    adjoint, which loads the fixed block, and reads S_I off a throwaway
    factor (the optimizer's state operator). With it the condensation
    forms S_I from its interface responses, keeps them in place of the
    factor and solves the state alone (the robustness sweep)."""
    fem._check_spd(tensors)
    ke = fem.element_stiffness(mesh, tensors)
    ke[varying] = 0.0
    fixed = fem.assemble(mesh, ke, _fixed_edges(mesh, bc))
    # freed before the condensation's factorizations peak memory (a
    # temporary passed as ``tensors`` has no other reference); freeing
    # ``tensors`` before the assembly measured a 3 MB lower peak on the
    # macro mesh but 5-20 MB higher on the tiled one, through heap placement
    del ke, tensors
    return fem.Condensation(mesh, fixed, np.flatnonzero(varying), keep_responses)


def state_factorization(mesh: TriMesh, matmap: MacroMaterialMap,
                        bc: BoundaryData) -> fem.CondensedFactorization:
    """The factored state operator, its exterior and obstacle blocks
    condensed at first use for this mesh, fills and edge temperatures;
    the design ring is assembled from the sector tensors and factored in
    the order fixed by that condensation."""
    def condense():
        region = mesh.element_region
        ring = (region >= SECTOR_FIRST) & (region <= SECTOR_LAST)
        return condensed_conduction(mesh, matmap.element_tensors(mesh), ring, bc)

    condensed = fem.cached(mesh, ("condensed state", matmap.k_exterior, matmap.k_obstacle,
                                  bc.t_low, bc.t_high), condense)
    sectors = mesh.element_region[condensed.varying_elements] - SECTOR_FIRST
    return condensed.factor(matmap.sector_matrices()[sectors])


def solve_state(mesh: TriMesh, matmap: MacroMaterialMap,
                bc: BoundaryData) -> np.ndarray:
    """Nodal temperatures for the given material map and edge temperatures."""
    return fem.Factorization(state_system(mesh, matmap, bc)).solve()


def reference_field(mesh: TriMesh, bc: BoundaryData) -> np.ndarray:
    """The uniform-plate nodal temperatures J1 compares against: the
    linear ramp from t_low at x0 to t_high at x1, taking both edge values
    exactly.

    It is the discrete P1 solution for any uniform conductivity k: for
    grad u = (c, 0), the row of free node i is k c times the boundary
    integral of N_i n_x, zero at interior nodes and on the adiabatic edges.
    Cached on the mesh per edge values and shared, so it is read-only: a
    write into it fails instead of corrupting later solves.
    """
    bc.validate()

    def build():
        x0, x1 = mesh.extent[:2]
        s = (mesh.nodes[:, 0] - x0) / (x1 - x0)
        ramp = bc.t_low * (1.0 - s) + bc.t_high * s
        ramp.flags.writeable = False
        return ramp
    return fem.cached(mesh, ("reference", bc.t_low, bc.t_high), build)


def adjoint_load(mesh: TriMesh, weights: dict[str, float], state: np.ndarray,
                 reference: np.ndarray | None = None) -> np.ndarray:
    """Derivative of sum_k weights[k] * J_k w.r.t. nodal temperatures.

    ``weights`` maps "j1" and "j2" to their weights, as
    ``Scenario.derivative_weights`` gives them; ``{"j1": 1.0}`` asks for J1
    alone. dJ1/dT = 2 M_E (T - T_ref) on the evaluation region; dJ2/dT =
    2 A_C T with A_C the unit-conductivity stiffness of the obstacle region
    (the divergence-form load of the gradient-energy objective).
    """
    if not weights or set(weights) - {"j1", "j2"}:
        raise ValueError(f"adjoint weights must name j1 and/or j2, got {sorted(weights)}")
    m_e, a_c = objectives.region_operators(mesh)
    load = np.zeros(mesh.n_nodes)
    if "j1" in weights:
        if reference is None:
            raise ValueError("j1 adjoint needs the reference field")
        load += weights["j1"] * 2.0 * (m_e @ (state - reference))
    if "j2" in weights:
        load += weights["j2"] * 2.0 * (a_c @ state)
    return load


def solve_adjoint(state_fact: fem.Factorization | fem.CondensedFactorization,
                  mesh: TriMesh, weights: dict[str, float], state: np.ndarray,
                  reference: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of sum_k weights[k] * J_k on the factored state operator of
    ``mesh``: its derivative as the load, zero values on the fixed edges.
    dJ/dK* is linear in the load, so one solve differentiates the weighted sum."""
    return state_fact.solve(adjoint_load(mesh, weights, state, reference), homogeneous=True)


def evaluate_objectives(state: np.ndarray, reference: np.ndarray,
                        mesh: TriMesh) -> tuple[float, float]:
    """(J1, J2): exterior mismatch energy and obstacle gradient energy."""
    j1 = objectives.mismatch(state, reference, mesh)
    j2 = objectives.gradient_energy(state, mesh)
    return j1, j2


def flux_balance_error(mesh: TriMesh, matmap: MacroMaterialMap, bc: BoundaryData,
                       state: np.ndarray) -> float:
    """Relative mismatch between inflow and outflow through the fixed edges."""
    bc.validate()
    ke = fem.element_stiffness(mesh, matmap.element_tensors(mesh))
    fa = fem.boundary_reaction(mesh, ke, state, GAMMA_A)
    fb = fem.boundary_reaction(mesh, ke, state, GAMMA_B)
    scale = max(abs(fa), abs(fb), 1e-300)
    return abs(fa + fb) / scale


def temperature_bounds_violation(state: np.ndarray, bc: BoundaryData) -> float:
    """How far nodal temperatures overshoot the prescribed edge range."""
    lo, hi = sorted((bc.t_low, bc.t_high))
    return max(float(lo - state.min()), float(state.max() - hi), 0.0)


def export_fields(path, mesh: TriMesh, state: np.ndarray,
                  reference: np.ndarray, matmap: MacroMaterialMap) -> None:
    """VTK dump of T, the deviation from the reference, and the heat flux."""
    tensors = matmap.element_tensors(mesh)
    vtkio.write_vtk(
        path, mesh,
        point_data={"T": state, "T_sub": state - reference},
        cell_data={"flux": vtkio.flux_vectors(mesh, tensors, state)},
    )
