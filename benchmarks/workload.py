"""One repetition of one workload, run in a fresh process by run.py.

    python3 benchmarks/workload.py --workload opt_cell --seed 3 --trace 0 \
        --mode rep --workdir DIR --out result.json

``--mode setup`` stops as soon as set-up is done and reports only its
time. The result JSON holds the timings, the probe records, the output
check verdicts and, in a traced repetition, the per-layer metrics and
the raw spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from tracer import (Instrument, StopWorkload, Tracer, has_ancestor,  # noqa: E402
                    inclusive_times, self_times, unattributed)


def run_rep(workload: str, seed: int, trace: bool, workdir: Path,
            mode: str = "rep") -> dict:
    """Run the workload once and return its timings and probe records.

    ``mode`` is ``rep`` (whole workload), ``setup`` (stop after set-up)
    or ``first`` (stop after the first iteration or first tiled
    evaluation, for recording reference values). An untraced run times
    the calibration kernel before set-up and at every operation
    boundary; ``run_s`` leaves that time out.
    """
    from cloakopt.macro_solver import BoundaryData

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
    calibrator = None if trace else Calibrator()
    probe = Instrument(BoundaryData(**inputs.BOUNDARY), tracer,
                       stop_after=None if mode == "rep" else mode,
                       calibrate=calibrator.sample if calibrator else None).install()
    cal_setup = calibrator.sample() if calibrator else None
    iterations = spec.WORKLOADS[workload]["iterations"]
    runner = {"opt_cell": _opt_cell, "opt_macro": _opt_macro,
              "validate_sweep": _validate_sweep}[workload]
    try:
        t_start, setup_end, t_end, error = runner(probe, seed, workdir, iterations)
    finally:
        probe.uninstall()
    if setup_end is None:       # failed during set-up: no operation ran
        setup_end = t_end
    result = {
        "workload": workload, "seed": seed, "variant": inputs.variant(seed),
        "mode": mode, "trace": trace,
        "setup_s": setup_end - t_start,
        "run_s": t_end - setup_end - (calibrator.time_within(setup_end, t_end)
                                      if calibrator else 0.0),
        "cal_setup": cal_setup,
        "error": error,
        "iterations": probe.iterations, "tiled": probe.tiled,
        "planned_ops": iterations if workload.startswith("opt_") else 1 + len(inputs.SWEEP_PSI),
    }
    if tracer is not None and mode == "rep":
        result["layers"] = layer_metrics(tracer, probe, t_start, t_end,
                                         _op_count(result))
        result["spans"] = tracer.export()
    return result


def _opt_cell(probe, seed, workdir, iterations):
    from cloakopt import cli
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(inputs.opt_config("opt_cell", seed, iterations)))
    argv = ["optimize", "--config", str(cfg), "--out", str(workdir / "run"),
            "--threads", "1"]
    t_start = time.perf_counter()
    error = None
    try:
        code = cli.main(argv)
        if code != 0:
            error = f"cloakopt optimize exited with {code}"
    except StopWorkload:
        pass
    t_end = time.perf_counter()
    return t_start, probe.setup_end, t_end, error


def _opt_macro(probe, seed, workdir, iterations):
    from cloakopt import config, fem, optimizer
    t_start = time.perf_counter()
    error = None
    try:
        scenario = config.build_config(
            inputs.opt_config("opt_macro", seed, iterations)).scenario
        optimizer.run(scenario, out_dir=None, threads=1)
    except StopWorkload:
        pass
    except (fem.SolverError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    return t_start, probe.setup_end, t_end, error


def _validate_sweep(probe, seed, workdir, iterations):
    from cloakopt import fem, levelset, validation
    from cloakopt.geometry import (MacroGeometry, SECTOR_FIRST, SECTOR_LAST,
                                   UnitCellGeometry, build_cell_mesh)
    from cloakopt.levelset import LevelSetField
    from cloakopt.macro_solver import BoundaryData

    t_start = time.perf_counter()
    error = None
    try:
        cell_mesh = build_cell_mesh(UnitCellGeometry(inputs.SWEEP_CELL_RESOLUTION))
        cells = range(SECTOR_FIRST, SECTOR_LAST + 1)
        design = [LevelSetField(phi=phi, mesh=cell_mesh, cell_index=l, d=inputs.SWEEP_D)
                  for l, phi in zip(cells, inputs.sweep_phis(
                      cell_mesh.nodes, cell_mesh.periodic_pairs, seed))]
        initial = [levelset.initialize(cell_mesh, ("disk", inputs.INITIAL_RADIUS),
                                       cell_index=l) for l in cells]
        m = inputs.MATERIALS

        def tiling(phis):
            return validation.TilingSpec(
                epsilon0=inputs.EPSILON0, phis=phis, d=inputs.SWEEP_D,
                geometry=MacroGeometry(**inputs.GEOMETRY),
                k_cell_a=m["cell_a"], k_cell_b=m["cell_b"],
                k_exterior=m["exterior"], k_obstacle=m["obstacle"],
                bc=BoundaryData(**inputs.BOUNDARY))
        init_spec = tiling(initial)
        mesh = validation.fine_mesh(init_spec)
        probe.mark_setup_end()
        j1_init, _, _ = validation.evaluate_tiled(init_spec, mesh)
        validation.robustness_sweep({"design": tiling(design)}, list(inputs.SWEEP_PSI),
                                    j1_init, k_obstacle_insert=inputs.SWEEP_OBSTACLE_K)
    except StopWorkload:
        pass
    except (fem.SolverError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    return t_start, probe.setup_end, t_end, error


def _op_count(result: dict) -> int:
    return len(result["iterations"]) or len(result["tiled"]) or 1


def layer_metrics(tracer: Tracer, probe: Instrument, t_start: float, t_end: float,
                  n_ops: int) -> dict:
    """Per-layer metrics of one traced repetition (see README.md for units)."""
    spans = tracer.spans
    own = self_times(spans)
    incl = inclusive_times(spans)
    c = tracer.counts

    def per_op(*names):
        return 1e3 * sum(own.get(n, 0.0) for n in names) / n_ops

    def per_call(name):
        total, calls = incl.get(name, (0.0, 0))
        return 1e3 * total / calls if calls else 0.0

    kinds = ("cell", "macro", "levelset", "fine")
    steps = incl.get("levelset.step", (0.0, 0))[1]
    checkpoints = c["optimizer.checkpoints"]
    main_ends = [end for name, _, end, _ in spans if name == "cli.main"]
    m = {
        "geometry.mesh_s": own.get("geometry.mesh", 0.0),
        "fem.factor_ms": per_op(*(f"fem.factor.{k}" for k in kinds)),
        "fem.assemble_ms": per_op("fem.assemble"),
        "fem.constrain_ms": per_op("fem.constrain"),
        "fem.solve_ms": per_op("fem.solve"),
        "fem.factorizations": c["fem.factorizations"],
        "fem.solves": c["fem.solves"],
        "homogenization.homogenize_ms": per_call("homogenization.homogenize"),
        "homogenization.cells": incl.get("homogenization.homogenize", (0.0, 0))[1],
        "macro_solver.state_system_ms": per_op("macro_solver.state_system"),
        "macro_solver.adjoint_load_ms": per_op("macro_solver.adjoint_load"),
        "macro_solver.evaluate_objectives_ms": per_op("macro_solver.evaluate_objectives"),
        "macro_solver.state_solves": c["macro_solver.state_solves"],
        "macro_solver.adjoint_solves": c["macro_solver.adjoint_solves"],
        "objectives.mismatch_ms": per_op("objectives.mismatch"),
        "objectives.gradient_energy_ms": per_op("objectives.gradient_energy"),
        "sensitivity.tensor_ms": per_op("sensitivity.tensor"),
        "sensitivity.topological_ms": per_op("sensitivity.topological"),
        "sensitivity.combined_ms": per_op("sensitivity.combined"),
        "sensitivity.degenerate_drops": c["sensitivity.degenerate_drops"],
        "levelset.step_ms": per_op("levelset.step"),
        "levelset.factor_reuse_ratio":
            1.0 - c["fem.factorizations.levelset"] / steps if steps else 0.0,
        "optimizer.self_ms": per_op("optimizer.run"),
        "optimizer.checkpoint_ms": per_call("optimizer.checkpoint"),
        "optimizer.checkpoint_bytes":
            c["optimizer.checkpoint_bytes"] / checkpoints if checkpoints else 0.0,
        "validation.tile_ms": per_op("validation.tile"),
        "validation.factorizations": c["fem.factorizations.fine"],
        "validation.reference_solves": sum(
            1 for name, _, _, parent in spans
            if name == "macro_solver.solve_state"
            and has_ancestor(spans, parent, lambda n: n.startswith("validation."))),
        "cli.post_run_ms": 1e3 * (max(main_ends) - probe.run_returned)
            if main_ends and probe.run_returned is not None else 0.0,
        "vtkio.write_ms": 1e3 * incl.get("vtkio.write", (0.0, 0))[0],
        "unattributed_ms": 1e3 * unattributed(spans, t_start, t_end),
        "trace_spans": len(spans),
    }
    for k in kinds:
        m[f"fem.factor_ms.{k}"] = per_op(f"fem.factor.{k}")
        m[f"fem.factor_fill_nnz.{k}"] = c[f"fem.factor_fill_nnz.{k}"]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("rep", "setup"), default="rep")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    result = run_rep(args.workload, args.seed, bool(args.trace), Path(args.workdir),
                     mode=args.mode)
    if args.mode == "rep":
        result["checks"] = checks.check_rep(result, checks.load_expected())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
