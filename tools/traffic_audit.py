"""List the code of ``src/cloakopt`` that no command or benchmark call runs.

    python tools/traffic_audit.py [--root TREE]

TREE (default: the tree holding this script) is audited with its own
``src/``, ``configs/`` and ``benchmarks/inputs.py``. The flows run in
this process, on one BLAS thread, in a temporary directory, under
``trace.Trace(count=1, trace=0)``:

* each config in ``configs/``, shortened to 4 iterations with the width
  switching at iteration 3, cell resolution 16 and ``macro_h`` 0.25 (1.0
  for ``scenario_appendixB``): ``cloakopt optimize --checkpoint-every 2``,
  the same again with ``--resume``, ``cloakopt homogenize`` on the run's
  ``final/cell_1.csv`` and ``cloakopt validate --epsilon0 0.5``;
* ``cloakopt sweep`` on the w=1 and w=1/2 runs at psi = 0, 90, 225;
* the benchmark's library calls: ``optimizer.run`` on
  ``inputs.opt_config("opt_macro", 3, 2)``, and the ``validate_sweep``
  calls on a resolution-32 cell at eps0 = 1/2 with 3 angles.

It then prints, per module, the functions that no flow runs and, inside
the functions that do run, the lines no flow reaches, leaving out the
lines of ``raise`` statements. Module and class bodies run at import and
are not listed. A flow that fails stops the audit with its error.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import trace
from pathlib import Path

ITERATIONS = 4
SWITCH = 3
CELL_RESOLUTION = 16
MACRO_H = {"scenario_appendixB": 1.0}       # else 0.25
SWEPT = ("scenario_w1", "scenario_whalf")
PSI = "0,90,225"
EPSILON0 = 0.5
SEED = 3


def cli_flows(root: Path, work: Path) -> list[list[str]]:
    """The argv of every ``cloakopt`` command, in order, with the shortened
    configs written into ``work``."""
    flows, runs = [], {}
    for path in sorted((root / "configs").glob("*.json")):
        raw = json.loads(path.read_text())
        raw["optimizer"]["max_iter"] = ITERATIONS
        raw["levelset"]["d_schedule"] = [[1, 0.2], [SWITCH, 0.01]]
        raw["mesh"] = {"macro_h": MACRO_H.get(path.stem, 0.25),
                       "cell_resolution": CELL_RESOLUTION}
        config = work / path.name
        config.write_text(json.dumps(raw))
        run = runs[path.stem] = work / path.stem
        m = raw["materials"]
        optimize = ["optimize", "--config", str(config), "--out", str(run),
                    "--checkpoint-every", "2"]
        flows += [optimize, optimize + ["--resume"],
                  ["homogenize", "--phi", str(run / "final" / "cell_1.csv"),
                   "--k-a", str(m["cell_a"]), "--k-b", str(m["cell_b"])],
                  ["validate", "--run", str(run), "--epsilon0", str(EPSILON0)]]
    flows.append(["sweep", *(f for name in SWEPT for f in ("--run", f"{name}={runs[name]}")),
                  "--psi", PSI, "--epsilon0", str(EPSILON0), "--out", str(work / "sweep.csv")])
    return flows


def run_flows(root: Path, work: Path) -> None:
    import inputs
    from cloakopt import cli, config, levelset, optimizer, validation
    from cloakopt.geometry import (MacroGeometry, SECTOR_FIRST, SECTOR_LAST,
                                   UnitCellGeometry, build_cell_mesh)
    from cloakopt.levelset import LevelSetField
    from cloakopt.macro_solver import BoundaryData

    for argv in cli_flows(root, work):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cloakopt {' '.join(argv)} exited with {code}")

    optimizer.run(config.build_config(inputs.opt_config("opt_macro", SEED, 2)).scenario)

    cell = build_cell_mesh(UnitCellGeometry(32))
    cells = range(SECTOR_FIRST, SECTOR_LAST + 1)
    design = [LevelSetField(phi=phi, mesh=cell, cell_index=l, d=inputs.SWEEP_D) for l, phi in
              zip(cells, inputs.sweep_phis(cell.nodes, cell.periodic_pairs, SEED))]
    initial = [levelset.initialize(cell, ("disk", inputs.INITIAL_RADIUS), cell_index=l)
               for l in cells]
    m = inputs.MATERIALS

    def tiling(phis):
        return validation.TilingSpec(
            epsilon0=EPSILON0, phis=phis, d=inputs.SWEEP_D,
            geometry=MacroGeometry(**inputs.GEOMETRY), k_cell_a=m["cell_a"],
            k_cell_b=m["cell_b"], k_exterior=m["exterior"], k_obstacle=m["obstacle"],
            bc=BoundaryData(**inputs.BOUNDARY))
    init_spec = tiling(initial)
    mesh = validation.fine_mesh(init_spec)
    j1_init, _, _ = validation.evaluate_tiled(init_spec, mesh)
    validation.robustness_sweep({"design": tiling(design)}, list(inputs.SWEEP_PSI[:3]),
                                j1_init, k_obstacle_insert=inputs.SWEEP_OBSTACLE_K)


def functions(tree: ast.Module) -> list[tuple[str, int, int, int]]:
    """(qualified name, def line, first body line, last line) of every function."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.append((name, child.lineno, child.body[0].lineno, child.end_lineno))
                visit(child, name + ".")
            else:
                visit(child, prefix)
    visit(tree, "")
    return found


def ranges(lines: list[int], executable: list[int]) -> str:
    """Lines as runs of consecutive executable lines, e.g. ``12-14, 20``."""
    position = {line: i for i, line in enumerate(executable)}
    runs = []
    for line in lines:
        if runs and position[line] == position[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def audit(path: Path, counts: dict) -> tuple[list[str], list[str]]:
    """The functions of one module that no flow runs, and per function
    that runs, its unreached lines other than those of ``raise``."""
    tree = ast.parse(path.read_text())
    raised = {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
              for line in range(node.lineno, node.end_lineno + 1)}
    executable = sorted(trace._find_executable_linenos(str(path)))
    spans = functions(tree)
    own = {name: [] for name, *_ in spans}
    for line in executable:
        inside = [(start, name) for name, _, start, end in spans if start <= line <= end]
        if inside:
            own[max(inside)[1]].append(line)
    key = str(path)
    never, unreached = [], []
    for name, def_line, *_ in spans:
        lines = own[name]
        if not lines:
            continue
        if not any(counts.get((key, line)) for line in lines):
            never.append(f"{name} ({def_line})")
            continue
        missed = [line for line in lines if not counts.get((key, line)) and line not in raised]
        if missed:
            unreached.append(f"{ranges(missed, executable)} ({name})")
    return never, unreached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree to audit (default: this one)")
    root = parser.parse_args(argv).root.resolve()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"      # before cloakopt first imports numpy
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import cloakopt
    package = Path(cloakopt.__file__).resolve().parent
    if package != root / "src" / "cloakopt":
        print(f"cloakopt imports from {package}, not from {root}", file=sys.stderr)
        return 2

    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            tracer.runfunc(run_flows, root, Path(work))
        finally:
            os.chdir(cwd)
    counts = {(str(Path(f).resolve()), line): n
              for (f, line), n in tracer.results().counts.items()}

    for path in sorted(package.glob("*.py")):
        never, unreached = audit(path, counts)
        print(f"{path.name}")
        print(f"  functions no flow runs: {', '.join(never) or '-'}")
        print(f"  lines no flow reaches: {'; '.join(unreached) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
