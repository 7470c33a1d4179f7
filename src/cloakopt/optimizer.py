"""Optimization loop tying the two scales together.

The macro problem is mirror-symmetric about the obstacle's vertical
axis, which maps sector l onto sector 9 - l and cell coordinate y1 onto
1 - y1. So cells 1-4 carry the design, and cell 9 - l holds the
reflection of cell l (:func:`mirrored`), exactly at every iteration.
The state of such a design is antisymmetric about x = 0, taking the
mean of the two edge temperatures there, so the macro problem is solved
on the x >= 0 half of the macro mesh (sectors 1-4, a ``mirror_half`` mesh
whose objective integrals stand for both halves) with that mean on the
mirror line (Kosaka & Swan, Computers & Structures 70, 1999).

Each iteration evaluates the design (:func:`evaluate`: both correctors
and the tensor of all 8 cells, the macro state, the objectives) and
then, unless it is the last, advances it (:func:`step`), which splits at
dJ/dK*, where the two scales meet. The macro half is one adjoint solve
on the factored state operator, whose load is the derivative of the
recorded objective J, and the mirrored design's dJ/dK*, which the half
mesh's sectors 1-4 give directly (:func:`sensitivity.sector_sensitivities`).
The cell half (:func:`cell_step`) contracts each design cell's dJ/dK*
with the cell's insertion field into a reaction term normalized once per
cell and steps the cell; cells 5-8 receive the reflections. The time step is
dt, capped so that no node moves by more than :data:`MOVE_LIMIT`, divided by
sqrt(k) at the k-th iteration of the current transition width: the
reaction term has unit L1 mass however close the design is to a
stationary point, so a constant step keeps the design swinging around
it instead of settling. The transition width follows a fixed iteration
schedule, and the run ends at the iteration cap.

J has one form in both objective modes: (w*J1 + (1-w)*J2) over the
workspace's denominator (:attr:`Workspace.norm_denominator`), which is 1
in standard mode and, in normalized mode (w = 1 there), the J1 of the
ring filled with one material, so J is J1 over it.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import fem, homogenization, levelset, macro_solver, objectives, sensitivity
from .geometry import (MIN_CELL_RESOLUTION, MacroGeometry, SECTOR_FIRST, SECTOR_LAST,
                       TriMesh, UnitCellGeometry, build_cell_mesh, build_macro_mesh)
from .homogenization import EffectiveTensor
from .levelset import LevelSetField
from .macro_solver import BoundaryData, MacroMaterialMap

log = logging.getLogger(__name__)

MOVE_LIMIT = 0.5      # largest nodal reaction move k_phi * dt * |J'| of one step
DESIGN_CELLS = SECTOR_LAST // 2     # cells 1-4; cell 9 - l reflects cell l


def mirrored(mesh: TriMesh, design: list[np.ndarray]) -> list[np.ndarray]:
    """Nodal values of all 8 cells from those of the design cells 1-4:
    cell 9 - l is cell l reflected (:func:`levelset.mirror_nodes`)."""
    mirror = levelset.mirror_nodes(mesh)
    return list(design) + [phi[mirror] for phi in reversed(design)]


@dataclass
class Scenario:
    """Everything that defines one optimization run."""

    geometry: MacroGeometry
    k_cell_a: float               # cell phase with chi = 1
    k_cell_b: float               # cell phase with chi = 0
    k_exterior: float
    k_obstacle: float
    bc: BoundaryData = field(default_factory=BoundaryData)
    w: float = 1.0
    k_phi: float = 1.5
    tau: float = 2.0e-4
    dt: float = 0.1
    d_schedule: tuple = ((1, 0.2), (71, 0.01))
    max_iter: int = 150
    init: tuple = ("disk", 0.25)
    objective_mode: str = "standard"      # "standard" | "normalized"
    normalization_fill: float | None = None
    macro_h: float = 0.0625
    cell_resolution: int = 64

    def validate(self) -> None:
        self.geometry.validate()
        if self.geometry.r_obstacle == 0:       # J2 and the sweep's insert live there
            raise ValueError("geometry.r_obstacle must be positive, got 0")
        self.bc.validate()
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if min(k for k in (self.k_cell_a, self.k_cell_b,
                           self.k_exterior, self.k_obstacle)) <= 0:
            raise ValueError("conductivities must be positive")
        if self.cell_resolution < MIN_CELL_RESOLUTION:
            raise ValueError(f"mesh.cell_resolution must be at least {MIN_CELL_RESOLUTION}, "
                             f"got {self.cell_resolution}")
        if self.cell_resolution % 2:
            raise ValueError(f"mesh.cell_resolution must be even, got {self.cell_resolution}")
        if not 0 < self.macro_h < math.inf:
            raise ValueError(f"mesh.macro_h must be positive, got {self.macro_h}")
        thickness = self.geometry.r_ring - self.geometry.r_obstacle
        if thickness < 2.0 * self.macro_h:
            raise ValueError(f"mesh.macro_h {self.macro_h} leaves fewer than 2 elements across "
                             f"the design-ring thickness {thickness}")
        divisions = round(self.geometry.lx / self.macro_h)
        if divisions % 2:
            raise ValueError(f"mesh.macro_h {self.macro_h} gives {divisions} divisions across "
                             f"geometry.lx {self.geometry.lx}; the macro mesh is "
                             "mirror-symmetric only for an even count")
        if self.init[0] == "disk" and not 0 < self.init[1] < math.sqrt(0.5):
            raise ValueError("levelset.init.radius must lie in (0, sqrt(2)/2), inside the "
                             f"unit cell, got {self.init[1]}; pattern uniform gives a "
                             "single-phase cell")
        if not 0 < self.k_phi < math.inf:
            raise ValueError("k_phi must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.tau < math.inf:
            raise ValueError("tau must be non-negative and finite")
        if not self.d_schedule or self.d_schedule[0][0] != 1:
            raise ValueError("d_schedule must start at iteration 1")
        starts = [start for start, _ in self.d_schedule]
        if not all(isinstance(s, Integral) and not isinstance(s, bool) for s in starts):
            raise ValueError("d_schedule starts must be integer iterations")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("d_schedule starts must be strictly increasing")
        for _, d in self.d_schedule:
            if not 0 < d < 1:
                raise ValueError("transition widths must lie in (0, 1)")
        if self.objective_mode not in ("standard", "normalized"):
            raise ValueError("objective.mode must be standard|normalized, "
                             f"got {self.objective_mode!r}")
        if self.objective_mode == "standard" and self.normalization_fill is not None:
            raise ValueError("materials.normalization_fill is read only under "
                             "objective.mode normalized")
        if self.objective_mode == "normalized":
            # J1 over the fill's J1 alone: see Workspace
            if self.w != 1.0:
                raise ValueError("objective.w must be 1 under objective.mode "
                                 f"normalized, which optimizes J1 alone; got {self.w}")
            if self.normalization_fill is None:
                raise ValueError("normalized mode needs normalization_fill")
            if self.normalization_fill == self.k_exterior == self.k_obstacle:
                raise ValueError("normalization field coincides with the reference")

    def d_at(self, iteration: int) -> float:
        d = self.d_schedule[0][1]
        for start, value in self.d_schedule:
            if iteration >= start:
                d = value
        return d

    def width_age(self, iteration: int) -> int:
        """1 + the number of earlier iterations at this iteration's width."""
        return iteration - max(start for start, _ in self.d_schedule
                               if start <= iteration) + 1

    def derivative_weights(self) -> dict[str, float]:
        """Nonzero weights of dJ1/dT and dJ2/dT in the adjoint load of the
        recorded J, which :func:`macro_solver.solve_adjoint` sums into one
        load; objectives of weight 0 are left out of it. J's constant
        denominator is left out too: the per-cell normalization of the
        reaction term absorbs it.
        """
        return {k: v for k, v in (("j1", self.w), ("j2", 1.0 - self.w)) if v > 0.0}

    def initial_phis(self, mesh: TriMesh | None = None) -> list[LevelSetField]:
        """The initial design, one level set per sector, on ``mesh`` or on a
        new cell mesh of this scenario's resolution: the init pattern on
        cells 1-4 and its reflection on cells 5-8."""
        if mesh is None:
            mesh = build_cell_mesh(UnitCellGeometry(self.cell_resolution))
        phi = levelset.initialize(mesh, self.init).phi
        return [LevelSetField(phi=p, mesh=mesh, cell_index=l) for l, p in
                enumerate(mirrored(mesh, [phi.copy() for _ in range(DESIGN_CELLS)]),
                          start=SECTOR_FIRST)]


@dataclass
class IterationRecord:
    iteration: int
    j1: float
    j2: float
    j: float
    j1_ratio: float
    j2_ratio: float
    d: float
    wall_ms: float = 0.0


@dataclass
class DesignState:
    """Checkpointable snapshot: the unit of resume and of result reporting."""

    iteration: int
    phis: list[LevelSetField]
    tensors: list[EffectiveTensor]
    j1: float
    j2: float
    j: float
    j1_init: float
    j2_init: float
    history: list[IterationRecord]


class Workspace:
    """Meshes, reference fields and reusable operators for one scenario.

    The macro problem lives on the x >= 0 half of the macro mesh
    (``macro_mesh``, a ``mirror_half``), whose edge data ``bc`` holds the mean
    edge temperature on the mirror line and t_high on the right edge, and
    whose reference ramp ``t_steel`` runs between the two.
    ``norm_denominator`` divides J: 1 in standard mode, and in normalized
    mode the J1 of the ring filled with ``normalization_fill``. It is the
    only reader of the objective mode besides :meth:`Scenario.validate`.
    """

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.macro_mesh = build_macro_mesh(scenario.geometry, scenario.macro_h, half=True)
        self.cell_mesh = build_cell_mesh(UnitCellGeometry(scenario.cell_resolution))
        bc = scenario.bc
        self.bc = BoundaryData(0.5 * (bc.t_low + bc.t_high), bc.t_high)
        self.t_steel = macro_solver.reference_field(self.macro_mesh, self.bc)
        self.norm_denominator = 1.0
        if scenario.objective_mode == "normalized":
            worst = macro_solver.solve_state(
                self.macro_mesh,
                macro_solver.ring_filled_map(scenario.normalization_fill,
                                             scenario.k_exterior, scenario.k_obstacle),
                self.bc)
            self.norm_denominator = objectives.mismatch(worst, self.t_steel, self.macro_mesh)


def _map_cells(fn, items, threads: int):
    """Apply fn per cell; results land in fixed slots so order never matters."""
    if threads <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class Evaluation:
    """One evaluated design: cell homogenizations, macro state, objectives."""

    cells: list                       # (material, tensor, w1, w2) per cell
    temp: np.ndarray                  # nodal temperatures on the half mesh
    state_fact: fem.CondensedFactorization   # state operator, reused by the adjoints
    j1: float
    j2: float
    j: float
    d: float

    @property
    def tensors(self) -> list[EffectiveTensor]:
        return [c[1] for c in self.cells]


def evaluate(ws: Workspace, phis: list[LevelSetField], d: float,
             threads: int = 1) -> Evaluation:
    """Homogenize every cell at transition width d, solve the macro state
    on the half mesh, which reads the tensors of cells 1-4, and evaluate
    the objectives of the whole domain."""
    sc = ws.scenario

    def cell_task(f):
        mat = homogenization.material_from_levelset(f, sc.k_cell_a, sc.k_cell_b, d)
        tensor, w1, w2 = homogenization.homogenize(ws.cell_mesh, mat)
        return mat, tensor, w1, w2

    cells = _map_cells(cell_task, phis, threads)
    matmap = MacroMaterialMap(sector_tensors=[c[1] for c in cells],
                              k_exterior=sc.k_exterior, k_obstacle=sc.k_obstacle)
    state_fact = macro_solver.state_factorization(ws.macro_mesh, matmap, ws.bc)
    temp = state_fact.solve()
    j1, j2 = macro_solver.evaluate_objectives(temp, ws.t_steel, ws.macro_mesh)
    j = objectives.compose(j1, j2, sc.w) / ws.norm_denominator
    return Evaluation(cells, temp, state_fact, j1, j2, j, d)


def step(ws: Workspace, ev: Evaluation, phis: list[LevelSetField],
         iteration: int, threads: int = 1) -> list[np.ndarray]:
    """New nodal values of every cell's level set after one update: the
    adjoint of the recorded J, the mirrored design's dJ/dK* on sectors 1-4
    of the half mesh, :func:`cell_step` of cells 1-4 and their reflections."""
    sc = ws.scenario
    adjoint = macro_solver.solve_adjoint(ev.state_fact, ws.macro_mesh,
                                         sc.derivative_weights(), ev.temp, ws.t_steel)
    dj_dks = sensitivity.sector_sensitivities(ws.macro_mesh, ev.temp, adjoint)
    return mirrored(ws.cell_mesh, cell_step(
        ws.cell_mesh, sc, dj_dks, ev.cells[:DESIGN_CELLS],
        [f.phi for f in phis[:DESIGN_CELLS]], ev.d, iteration, threads))


def cell_step(mesh: TriMesh, sc: Scenario, dj_dks, cells, phis: list[np.ndarray],
              d: float, iteration: int, threads: int = 1) -> list[np.ndarray]:
    """New nodal level sets of any number of cells after one step driven
    by their dJ/dK*, whatever objective gives it: cell c brings
    ``dj_dks[c]``, ``cells[c]`` = (material, tensor, w1, w2) homogenized at
    width ``d``, and its nodal ``phis[c]`` on the cell ``mesh``. The step is
    ``sc.dt``, capped by the move limiter, over sqrt(k) at the k-th iteration
    of the current width (a diminishing step that restarts with each new
    width, which poses a new smoothed problem). The stepper is built once per
    mesh, at its first step, before the steps fan out to threads."""
    def reaction_task(args):
        dj_dk, (mat, _tensor, w1, w2), phi = args
        insertion = sensitivity.topological_tensor_fields(mesh, w1, w2)
        return sensitivity.combined_sensitivity(mesh, dj_dk, insertion, mat,
                                                levelset.characteristic(phi, d))

    jprimes = _map_cells(reaction_task, list(zip(dj_dks, cells, phis, strict=True)), threads)
    # stability limiter: cap the largest nodal reaction move so the
    # normalized sensitivity cannot flip nodes across the clamp range
    peak = max(float(np.abs(jp).max()) for jp in jprimes)
    dt_eff = sc.dt
    if peak > 0:
        dt_eff = min(sc.dt, MOVE_LIMIT / (sc.k_phi * peak))
    dt_eff *= sc.width_age(iteration) ** -0.5
    updater = fem.cached(mesh, ("level-set stepper", sc.k_phi, sc.tau),
                         lambda: levelset.ReactionDiffusionUpdater(mesh, sc.k_phi, sc.tau))
    return _map_cells(lambda pair: updater.step(*pair, dt_eff), zip(phis, jprimes), threads)


def run(scenario: Scenario, out_dir=None, resume_from: DesignState | None = None,
        threads: int = 1, checkpoint_every: int = 10) -> DesignState:
    """Execute the optimization loop and return the final design state.

    Each iteration is :func:`evaluate` then, unless it is the last,
    :func:`step`. ``out_dir`` (optional) receives a progress CSV,
    checkpoints every ``checkpoint_every`` iterations and at the last
    one, and a copy of that last checkpoint as ``final``. ``resume_from``
    continues a saved state; resuming a finished run returns it unchanged.
    The run is deterministic for a fixed scenario, independent of
    ``threads``.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    ws = Workspace(scenario)
    sc = scenario
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if resume_from is not None:
        if resume_from.iteration >= sc.max_iter:
            return resume_from
        phis = [LevelSetField(phi=f.phi.copy(), mesh=ws.cell_mesh,
                              cell_index=f.cell_index, d=f.d)
                for f in resume_from.phis]
        if len(phis[0].phi) != ws.cell_mesh.n_nodes:
            raise ValueError("resumed state does not match the scenario cell mesh")
        # a checkpoint of 8 independent cells (earlier versions) is refused
        expected = mirrored(ws.cell_mesh, [f.phi for f in phis[:DESIGN_CELLS]])
        for f, phi in zip(phis, expected):
            if not np.array_equal(f.phi, phi):
                raise ValueError(
                    f"resumed state: cell {f.cell_index} is not the reflection of cell "
                    f"{SECTOR_FIRST + SECTOR_LAST - f.cell_index}, so the checkpoint does "
                    "not hold a mirrored design (cells 1-4 carry it); start the run again")
        history = list(resume_from.history)
        j1_init, j2_init = resume_from.j1_init, resume_from.j2_init
        # the saved design was evaluated but not yet advanced: replay its
        # iteration (evaluation recomputes deterministically, the recorded
        # history row is kept) so the update half runs again
        start = resume_from.iteration
    else:
        phis = sc.initial_phis(ws.cell_mesh)
        history = []
        j1_init = j2_init = None
        start = 1

    csv_path = out_dir / "history.csv" if out_dir is not None else None
    if csv_path is not None:
        # rewritten from the resumed history: the file may hold rows past
        # the checkpoint (a run stopped between checkpoints), which the
        # replay appends again
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iter", "J1", "J2", "J", "J1_ratio", "J2_ratio", "d", "wall_ms"])
            for r in history:
                writer.writerow(_csv_row(r))

    for it in range(start, sc.max_iter + 1):
        t0 = time.perf_counter()
        ev = evaluate(ws, phis, sc.d_at(it), threads)
        if j1_init is None:
            j1_init, j2_init = ev.j1, ev.j2

        overshoot = macro_solver.temperature_bounds_violation(ev.temp, sc.bc)
        if overshoot > 1e-6:
            log.warning("iteration %d: temperature overshoots edge range by %.3e",
                        it, overshoot)

        record = IterationRecord(
            iteration=it, j1=ev.j1, j2=ev.j2, j=ev.j,
            j1_ratio=ev.j1 / j1_init if j1_init > 0 else np.nan,
            j2_ratio=ev.j2 / j2_init if j2_init > 0 else np.nan,
            d=ev.d)
        fresh_row = len(history) < it
        if fresh_row:
            history.append(record)

        # snapshot the evaluated design (pre-update) as the checkpoint unit
        state = DesignState(
            iteration=it,
            phis=[LevelSetField(phi=f.phi.copy(), mesh=ws.cell_mesh,
                                cell_index=f.cell_index, d=ev.d) for f in phis],
            tensors=ev.tensors, j1=ev.j1, j2=ev.j2, j=ev.j,
            j1_init=j1_init, j2_init=j2_init,
            history=history)

        last = it == sc.max_iter
        if not last:
            for f, phi in zip(phis, step(ws, ev, phis, it, threads)):
                f.phi = phi
        # release this iteration's fields and state factor
        # before the next evaluation builds its own
        del ev

        record.wall_ms = 1e3 * (time.perf_counter() - t0)
        if csv_path is not None and fresh_row:
            with csv_path.open("a", newline="") as fh:
                csv.writer(fh).writerow(_csv_row(record))
        if out_dir is not None and (it % checkpoint_every == 0 or last):
            checkpoint(state, out_dir / "checkpoints" / f"iter_{it:04d}")

    if out_dir is not None:
        # the last iteration has just been checkpointed: copy, not re-format
        shutil.copytree(out_dir / "checkpoints" / f"iter_{state.iteration:04d}",
                        out_dir / "final", dirs_exist_ok=True)
    return state


def _csv_row(r: IterationRecord) -> list:
    return [r.iteration, f"{r.j1:.17g}", f"{r.j2:.17g}", f"{r.j:.17g}",
            f"{r.j1_ratio:.17g}", f"{r.j2_ratio:.17g}", r.d, f"{r.wall_ms:.1f}"]


def checkpoint(state: DesignState, path) -> None:
    """Write the state as per-cell phi CSVs plus a JSON summary."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for f in state.phis:
        levelset.write_phi_csv(f, path / f"cell_{f.cell_index}.csv")
    payload = {
        "iteration": state.iteration,
        "j1": state.j1, "j2": state.j2, "j": state.j,
        "j1_init": state.j1_init, "j2_init": state.j2_init,
        "d": [f.d for f in state.phis],
        "tensors": [asdict(t) for t in state.tensors],
        "history": [asdict(r) for r in state.history],
    }
    with (path / "state.json").open("w") as fh:
        json.dump(payload, fh, indent=1)


def _is_number(value, kind=Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def resume(path) -> DesignState:
    """Reload a checkpoint; the cell mesh is rebuilt from the node count.
    A ``"counters"`` entry, written by earlier versions, is ignored. A
    missing key, a tensors or history entry with missing or unknown
    fields, or a value of the wrong kind raises ``ValueError`` naming it:
    ``iteration`` must be an integer of at least 1, the objective values
    finite numbers, ``d`` one width in (0, 1) per sector, every tensor
    and history field a number, each history row's ``iteration`` an
    integer, ``tensors`` one entry per sector and ``history`` one row per
    iteration up to ``iteration``."""
    path = Path(path)
    state_file = path / "state.json"
    if not state_file.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with state_file.open() as fh:
        payload = json.load(fh)

    try:
        state = DesignState(
            iteration=payload["iteration"], phis=[],
            tensors=[EffectiveTensor(**t) for t in payload["tensors"]],
            j1=payload["j1"], j2=payload["j2"], j=payload["j"],
            j1_init=payload["j1_init"], j2_init=payload["j2_init"],
            history=[IterationRecord(**r) for r in payload["history"]])
        widths = payload["d"]
    except KeyError as exc:
        raise ValueError(f"{state_file}: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{state_file}: a tensors or history entry has missing or "
                         f"unknown fields ({exc})") from exc

    def refuse(key, want, value):
        raise ValueError(f"{state_file}: key {key!r} must be {want}, got {value!r}")
    if not (_is_number(state.iteration, Integral) and state.iteration >= 1):
        refuse("iteration", "an integer of at least 1", state.iteration)
    for key in ("j1", "j2", "j", "j1_init", "j2_init"):
        if not (_is_number(payload[key]) and math.isfinite(payload[key])):
            refuse(key, "a finite number", payload[key])
    if not (isinstance(widths, list) and len(widths) == SECTOR_LAST - SECTOR_FIRST + 1
            and all(_is_number(d) and 0 < d < 1 for d in widths)):
        refuse("d", "one transition width in (0, 1) per sector", widths)
    for key in ("tensors", "history"):
        for i, entry in enumerate(payload[key]):
            for name, value in entry.items():
                integer = (key, name) == ("history", "iteration")
                if not _is_number(value, Integral if integer else Real):
                    refuse(f"{key}[{i}].{name}", "an integer" if integer else "a number",
                           value)
    if len(state.tensors) != SECTOR_LAST:
        refuse("tensors", f"{SECTOR_LAST} entries, one per sector", len(state.tensors))
    rows = [r.iteration for r in state.history]
    if rows != list(range(1, state.iteration + 1)):
        refuse("history", f"one row per iteration 1..{state.iteration}", rows)
    for l, d in zip(range(SECTOR_FIRST, SECTOR_LAST + 1), widths):
        mesh = state.phis[0].mesh if state.phis else None     # all cells share the first's mesh
        state.phis.append(levelset.read_phi_field(path / f"cell_{l}.csv", mesh,
                                                  cell_index=l, d=d))
    return state
