"""List the code of ``src/cloakopt`` that no flow of the program runs.

    python tools/traffic_audit.py [--root TREE]

The ``src/`` of TREE (default: the tree holding this script) is audited
against the flows of ``flows.py`` beside this script, with the configs
and benchmark of the tree holding this script, so the listings of two
trees can be compared. The flows run in this process, on one BLAS
thread, in a temporary directory, under ``trace.Trace(count=1,
trace=0)``; cell work that ``--threads 2`` hands to worker threads is
not traced there, but each line of it also runs on the main thread.

It then prints, per module, the functions that no flow runs and, inside
the functions that do run, the lines no flow reaches, leaving out the
lines of ``raise`` statements. Module and class bodies run at import and
are not listed. A flow that fails stops the audit with its error.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import trace
from pathlib import Path

import flows


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
    os.environ.update({name: "1" for name in flows.BLAS_THREADS})    # before numpy loads
    sys.path.insert(0, str(root / "src"))
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
            tracer.runfunc(flows.run)
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
