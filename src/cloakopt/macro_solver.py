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
once per mesh, fills and edge temperatures, and then assembles and
factors only the design ring with that interface. It shares the builder
:func:`condensed_conduction` with the tiled robustness sweep. One-off
solves (:func:`solve_state`) factor the whole operator; the reference
field is a closed form (:func:`reference_field`).
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


def _fixed_edges(mesh: TriMesh, bc: BoundaryData) -> fem.Structure:
    bc.validate()
    return fem.structure(mesh, dirichlet=((GAMMA_A, bc.t_low), (GAMMA_B, bc.t_high)))


def conduction_system(mesh: TriMesh, tensors: np.ndarray,
                      bc: BoundaryData) -> fem.SparseSystem:
    """Conduction with the given element tensors and fixed edge temperatures."""
    return fem.assemble_diffusion(mesh, tensors, on=_fixed_edges(mesh, bc))


def state_system(mesh: TriMesh, matmap: MacroMaterialMap,
                 bc: BoundaryData) -> fem.SparseSystem:
    return conduction_system(mesh, matmap.element_tensors(mesh), bc)


def condensed_conduction(mesh: TriMesh, tensors: np.ndarray, varying: np.ndarray,
                         bc: BoundaryData) -> fem.Condensation:
    """Conduction with the given element tensors and fixed edge temperatures,
    its fixed elements condensed onto the elements of the mask ``varying``,
    whose own tensors are left out (see :class:`fem.Condensation`). Every
    tensor must be SPD, as :func:`fem.assemble_diffusion` requires."""
    fem._check_spd(tensors)
    ke = fem.element_stiffness(mesh, tensors)
    ke[varying] = 0.0
    fixed = fem.assemble(_fixed_edges(mesh, bc), ke)
    # freed before the condensation's factorizations peak memory (a
    # temporary passed as ``tensors`` has no other reference); freeing
    # ``tensors`` before the assembly measured a 3 MB lower peak on the
    # macro mesh but 5-20 MB higher on the tiled one, through heap placement
    del ke, tensors
    return fem.Condensation(fixed, np.flatnonzero(varying))


def state_factorization(mesh: TriMesh, matmap: MacroMaterialMap,
                        bc: BoundaryData) -> fem.CondensedFactorization:
    """The factored state operator, its exterior and obstacle blocks
    condensed at first use for this mesh, fills and edge temperatures."""
    def condense():
        region = mesh.element_region
        ring = (region >= SECTOR_FIRST) & (region <= SECTOR_LAST)
        return condensed_conduction(mesh, matmap.element_tensors(mesh), ring, bc)

    condensed = fem.cached(mesh, ("condensed state", matmap.k_exterior, matmap.k_obstacle,
                                  bc.t_low, bc.t_high), condense)
    ring = condensed.varying
    sectors = mesh.element_region[ring.element_ids] - SECTOR_FIRST
    return condensed.factor(
        fem.assemble_diffusion(mesh, matmap.sector_matrices()[sectors], on=ring))


def solve_state(mesh: TriMesh, matmap: MacroMaterialMap,
                bc: BoundaryData) -> fem.ScalarField:
    """Temperature field for the given material map and edge temperatures."""
    return fem.solve(state_system(mesh, matmap, bc))


def reference_field(mesh: TriMesh, bc: BoundaryData) -> fem.ScalarField:
    """The uniform-plate temperature J1 compares against: the linear ramp
    from t_low at x0 to t_high at x1, taking both edge values exactly.

    It is the discrete P1 solution for any uniform conductivity k: for
    grad u = (c, 0), the row of free node i is k c times the boundary
    integral of N_i n_x, zero at interior nodes and on the adiabatic edges.
    """
    bc.validate()
    x0, x1 = mesh.extent[:2]
    s = (mesh.nodes[:, 0] - x0) / (x1 - x0)
    return fem.ScalarField(bc.t_low * (1.0 - s) + bc.t_high * s, mesh)


def adjoint_load(mesh: TriMesh, weights: dict[str, float], state: fem.ScalarField,
                 reference: fem.ScalarField | None = None) -> np.ndarray:
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
        load += weights["j1"] * 2.0 * (m_e @ (state.values - reference.values))
    if "j2" in weights:
        load += weights["j2"] * 2.0 * (a_c @ state.values)
    return load


def solve_adjoint(state_fact: fem.Factorization | fem.CondensedFactorization,
                  weights: dict[str, float], state: fem.ScalarField,
                  reference: fem.ScalarField | None = None) -> fem.ScalarField:
    """Adjoint of sum_k weights[k] * J_k on the factored state operator:
    its derivative as the load, zero values on the fixed edges. dJ/dK*
    is linear in the load, so one solve differentiates the weighted sum."""
    load = adjoint_load(state.mesh, weights, state, reference)
    return fem.ScalarField(state_fact.solve(load, homogeneous=True), state.mesh)


def evaluate_objectives(state: fem.ScalarField, reference: fem.ScalarField,
                        mesh: TriMesh) -> tuple[float, float]:
    """(J1, J2): exterior mismatch energy and obstacle gradient energy."""
    j1 = objectives.mismatch(state.values, reference.values, mesh)
    j2 = objectives.gradient_energy(state.values, mesh)
    return j1, j2


def flux_balance_error(mesh: TriMesh, matmap: MacroMaterialMap, bc: BoundaryData,
                       state: fem.ScalarField) -> float:
    """Relative mismatch between inflow and outflow through the fixed edges."""
    bc.validate()
    ke = fem.element_stiffness(mesh, matmap.element_tensors(mesh))
    fa = fem.boundary_reaction(mesh, ke, state.values, GAMMA_A)
    fb = fem.boundary_reaction(mesh, ke, state.values, GAMMA_B)
    scale = max(abs(fa), abs(fb), 1e-300)
    return abs(fa + fb) / scale


def temperature_bounds_violation(state: fem.ScalarField, bc: BoundaryData) -> float:
    """How far nodal temperatures overshoot the prescribed edge range."""
    lo, hi = sorted((bc.t_low, bc.t_high))
    return max(float(lo - state.values.min()), float(state.values.max() - hi), 0.0)


def export_fields(path, mesh: TriMesh, state: fem.ScalarField,
                  reference: fem.ScalarField, matmap: MacroMaterialMap) -> None:
    """VTK dump of T, the deviation from the reference, and the heat flux."""
    tensors = matmap.element_tensors(mesh)
    vtkio.write_vtk(
        path, mesh,
        point_data={"T": state.values, "T_sub": state.values - reference.values},
        cell_data={"flux": vtkio.flux_vectors(mesh, tensors, state.values)},
    )
