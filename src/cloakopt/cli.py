"""Command-line front end: optimize, homogenize, validate, sweep.

``optimize`` copies its config into the run directory and writes
``tensors.csv`` and the VTK files there; ``validate`` (tiled J1 and J2)
and ``sweep`` (the obstacle-angle table) read that copy.

Exit codes: 0 success, 2 configuration error or missing input file,
3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import shutil
import sys
from pathlib import Path

from . import (fem, homogenization, levelset, macro_solver, optimizer,
               validation, vtkio)
from .config import ConfigError, RunConfig, parse_config
from .geometry import MeshError, build_macro_mesh
from .macro_solver import MacroMaterialMap
from .validation import TilingSpec

log = logging.getLogger("cloakopt")

DEFAULT_EPSILON0 = 1.0 / 9.0


def _export_run_fields(cfg: RunConfig, state, out: Path) -> None:
    sc = cfg.scenario
    mesh = build_macro_mesh(sc.geometry, sc.macro_h)
    matmap = MacroMaterialMap(sector_tensors=state.tensors,
                              k_exterior=sc.k_exterior, k_obstacle=sc.k_obstacle)
    temp = macro_solver.solve_state(mesh, matmap, sc.bc)
    macro_solver.export_fields(out / "macro_fields.vtk", mesh, temp,
                               macro_solver.reference_field(mesh, sc.bc),
                               matmap)
    for f in state.phis:
        vtkio.write_vtk(out / f"cell_{f.cell_index}.vtk", f.mesh,
                        point_data={"phi": f.phi, "chi": f.chi_nodes()})


def cmd_optimize(args) -> int:
    cfg = parse_config(args.config)
    print(cfg.describe())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.suppress(shutil.SameFileError):     # resuming with the run's own config
        shutil.copyfile(args.config, out / "config.json")

    resume_state = None
    if args.resume:
        saved = {int(p.name[len("iter_"):]): p for p in (out / "checkpoints").glob("iter_*")
                 if p.name[len("iter_"):].isdigit()}
        source = saved[max(saved)] if saved else out / "final"
        resume_state = optimizer.resume(source)
        print(f"resuming from {source} (iteration {resume_state.iteration})")

    state = optimizer.run(cfg.scenario, out_dir=out, resume_from=resume_state,
                          threads=args.threads, checkpoint_every=args.checkpoint_every)
    homogenization.write_tensor_csv(out / "tensors.csv", state.tensors)
    _export_run_fields(cfg, state, out)
    last = state.history[-1]
    print(f"finished at iteration {last.iteration}: "
          f"J1={last.j1:.6g} J2={last.j2:.6g} J={last.j:.6g} "
          f"J1/J1_init={last.j1_ratio:.6g} J2/J2_init={last.j2_ratio:.6g}")
    return 0


def cmd_homogenize(args) -> int:
    field = levelset.read_phi_field(args.phi, d=args.d)
    mat = homogenization.material_from_levelset(field, args.k_a, args.k_b)
    tensor, _, _ = homogenization.homogenize(field.mesh, mat)
    print(f"K* = [[{tensor.k11:.8g}, {tensor.k12:.8g}], "
          f"[{tensor.k12:.8g}, {tensor.k22:.8g}]]")
    print(f"Kbar1 = {tensor.kbar1:.8g}")
    print(f"Kbar2 = {tensor.kbar2:.8g}")
    print(f"theta = {tensor.theta_deg:.6g} deg")
    return 0


def _load_run(run_dir: Path):
    cfg_path = run_dir / "config.json"
    if not cfg_path.exists():
        raise ConfigError(f"no config found at {cfg_path}; "
                          "cloakopt optimize writes it into the run directory")
    cfg = parse_config(cfg_path)
    state = optimizer.resume(run_dir / "final")
    return cfg, state


def _tiling_from(cfg: RunConfig, phis, epsilon0: float) -> TilingSpec:
    sc = cfg.scenario
    return TilingSpec(epsilon0=epsilon0, phis=phis, d=sc.d_at(sc.max_iter),
                      geometry=sc.geometry, k_cell_a=sc.k_cell_a,
                      k_cell_b=sc.k_cell_b, k_exterior=sc.k_exterior,
                      k_obstacle=sc.k_obstacle, bc=sc.bc)


def _initial_tiling(cfg: RunConfig) -> dict:
    """The values a run's initial tiling is built from, by config key:
    geometry, materials, edge temperatures, initial design, cell
    resolution and the final transition width."""
    sc = cfg.scenario
    layout = {key: value for key, value in cfg.settings.items()
              if key.startswith(("geometry.", "boundary.")) or key in (
                  "materials.cell_a", "materials.cell_b", "materials.exterior",
                  "materials.obstacle", "levelset.init", "mesh.cell_resolution")}
    layout["levelset.d_schedule at optimizer.max_iter"] = sc.d_at(sc.max_iter)
    return layout


def cmd_validate(args) -> int:
    run_dir = Path(args.run)
    cfg, state = _load_run(run_dir)
    spec = _tiling_from(cfg, state.phis, args.epsilon0)
    mesh = validation.fine_mesh(spec)
    out = Path(args.out) if args.out else run_dir / "validation"
    out.mkdir(parents=True, exist_ok=True)
    init_spec = _tiling_from(cfg, cfg.scenario.initial_phis(), args.epsilon0)
    j1_init, j2_init, _ = validation.evaluate_tiled(init_spec, mesh)
    # the final design is tiled once, for its solve and for tiled.vtk
    k = validation.tile_conductivity(spec, mesh)
    temp = validation.tiled_state(spec, mesh, k)
    reference = macro_solver.reference_field(mesh, spec.bc)
    j1, j2 = macro_solver.evaluate_objectives(temp, reference, mesh)
    vtkio.write_vtk(out / "tiled.vtk", mesh,
                    point_data={"T": temp, "T_sub": temp - reference},
                    cell_data={"conductivity": k})
    rows = [["quantity", "initial", "final", "ratio"],
            ["J1", f"{j1_init:.10g}", f"{j1:.10g}", f"{j1 / j1_init:.10g}"],
            ["J2", f"{j2_init:.10g}", f"{j2:.10g}", f"{j2 / j2_init:.10g}"]]
    with (out / "report.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for row in rows:
        print(" ".join(str(c) for c in row))
    return 0


def cmd_sweep(args) -> int:
    psi = [float(p) for p in args.psi.split(",")] if args.psi else []
    # every angle, every run's initial tiling and the insert disk checked
    # before anything is solved
    obstacles = [validation.ObstacleSpec(p, args.obstacle_k) for p in psi]
    designs = {}
    cfg0 = None
    for item in args.run:
        if "=" not in item:
            raise ConfigError(f"--run expects NAME=DIR, got {item!r}")
        name, run_dir = item.split("=", 1)
        if name in designs:
            raise ConfigError(f"--run name {name!r} is given twice")
        cfg, state = _load_run(Path(run_dir))
        cfg0 = cfg0 or cfg
        # every J1_ratio divides by the first run's initial tiling
        layout, first = _initial_tiling(cfg), _initial_tiling(cfg0)
        key = next((k for k in first if layout[k] != first[k]), None)
        if key is not None:
            raise ConfigError(
                f"--run {name!r} does not share the first run's initial tiling: {key} is "
                f"{layout[key]!r}, the first run's {first[key]!r}")
        designs[name] = _tiling_from(cfg, state.phis, args.epsilon0)
    if cfg0 is None:
        raise ConfigError("at least one --run NAME=DIR is required")

    init_spec = _tiling_from(cfg0, cfg0.scenario.initial_phis(), args.epsilon0)
    # held through the sweep, whose designs all share its layout
    mesh = validation.fine_mesh(init_spec)
    if obstacles:
        validation.insert_disk(init_spec, mesh, obstacles[0])
    j1_init, _, _ = validation.evaluate_tiled(init_spec, mesh)
    table = validation.robustness_sweep(designs, psi, j1_init,
                                        k_obstacle_insert=args.obstacle_k)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "psi", "J1", "J1_ratio"])
        for row in table:
            writer.writerow([row["design"], row["psi"],
                             f"{row['j1']:.10g}", f"{row['j1_ratio']:.10g}"])
    for row in table:
        print(f"{row['design']} psi={row['psi']:g} J1_ratio={row['j1_ratio']:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloakopt",
        description="microstructure design for thermal cloaking by "
                    "multiscale topology optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run an optimization scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--checkpoint-every", type=int, default=10)
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest checkpoint in --out")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("homogenize", help="effective tensor of one phi checkpoint")
    p.add_argument("--phi", required=True, help="cell CSV written by a checkpoint")
    p.add_argument("--k-a", type=float, required=True, help="conductivity at chi=1")
    p.add_argument("--k-b", type=float, required=True, help="conductivity at chi=0")
    p.add_argument("--d", type=float, default=0.01, help="transition width")
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("validate", help="finite-cell tiling validation of a run")
    p.add_argument("--run", required=True, help="run directory from optimize")
    p.add_argument("--epsilon0", type=float, default=DEFAULT_EPSILON0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("sweep", help="obstacle-angle robustness comparison")
    p.add_argument("--run", action="append", required=True,
                   help="NAME=RUNDIR, repeatable")
    p.add_argument("--psi", default="0,45,90,135,180,225,270,315",
                   help="comma list of obstacle angles (degrees)")
    p.add_argument("--epsilon0", type=float, default=DEFAULT_EPSILON0)
    p.add_argument("--obstacle-k", type=float, default=0.15,
                   help="conductivity of the swept obstacle")
    p.add_argument("--out", required=True, help="CSV table path")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except fem.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
