"""Record the acceptance criteria, their verdicts, wall times and memory.

    python tools/acceptance_record.py [--root TREE] [--criteria N ...] [--out FILE]
    python tools/acceptance_record.py --compare BEFORE.json AFTER.json

Runs each test of ``tests/test_acceptance.py`` of TREE (default: the tree
holding this script) in a subprocess of its own, on one BLAS thread, with
TREE's ``src/`` on ``PYTHONPATH``. A criterion's scenario fixtures are
built inside its own subprocess, so criteria 6 and 7 each re-run the w=1
and w=1/2 scenarios, and each time counts all of its own work. The record
is one JSON object:

* per criterion: the ``[acceptance] criterion N:`` line the test prints
  (its measured values and the published ones it quotes), the numbers
  parsed from it, the verdict (``pass``, ``fail`` or ``error``), pytest's
  setup and call times, the subprocess's wall time and its peak RSS
  (``os.wait4``), and the 1-minute load before it started;
* the machine, the thread variables, the Python and library versions,
  and the load at the start and the end.

With ``--compare`` it prints, per criterion, whether the printed values
and the verdict are identical in the two records, and the largest
relative change of the parsed numbers when they are not; it exits 1 if a
verdict differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TEST_FILE = "tests/test_acceptance.py"
CRITERIA = range(1, 11)
LINE = re.compile(r"^\[acceptance\] criterion (\d+): (.*) -> (PASS|FAIL)$", re.M)
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+\S+::(test_criterion_\w+)", re.M)
NUMBER = re.compile(r"(?<![\w/])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def environment(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: "1" for var in THREAD_VARS}}


def acceptance_tests(root: Path, criteria) -> list[str]:
    text = (root / TEST_FILE).read_text()
    names = re.findall(r"^def (test_criterion_(\d+)\w*)\(", text, re.M)
    return [name for name, n in names if int(n) in criteria]


def run_criterion(root: Path, name: str) -> dict:
    """One acceptance test in a fresh process; its printed line, verdict,
    times and peak RSS."""
    load = os.getloadavg()[0]
    with tempfile.TemporaryFile("w+") as out:
        cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
               "--durations=0", "--durations-min=0", f"{TEST_FILE}::{name}"]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=environment(root), stdout=out,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    lines = LINE.findall(text)
    times = {when: float(s) for s, when, test in DURATION.findall(text) if test == name}
    verdict = {0: "pass", 1: "fail"}.get(proc.returncode, "error")
    entry = {"test": name, "verdict": verdict, "exit_code": proc.returncode,
             "printed": [f"{detail} -> {flag}" for _, detail, flag in lines],
             "values": [[float(v) for v in NUMBER.findall(detail)] for _, detail, _ in lines],
             "setup_s": times.get("setup"), "call_s": times.get("call"),
             "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
             "load_1min_before": load}
    if verdict == "error" or not lines:
        entry["output_tail"] = text[-2000:]
    return entry


def record(root: Path, criteria) -> dict:
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    load_start = os.getloadavg()
    results = {}
    for name in acceptance_tests(root, criteria):
        results[name] = run_criterion(root, name)
        r = results[name]
        print(f"{name:48} {r['verdict']:5} call {r['call_s']}s wall {r['wall_s']}s "
              f"peak {r['peak_rss_mb']} MB", file=sys.stderr, flush=True)
    return {"root": str(root), "started": started, "machine": machine(),
            "load": {"start": list(load_start), "end": list(os.getloadavg())},
            "criteria": results}


def compare(before: dict, after: dict) -> int:
    flips = 0
    for name in sorted(set(before["criteria"]) | set(after["criteria"])):
        b, a = before["criteria"].get(name), after["criteria"].get(name)
        if b is None or a is None:
            print(f"{name:48} only in {'after' if b is None else 'before'}")
            continue
        flipped = b["verdict"] != a["verdict"]
        flips += flipped
        verdict = (f"verdict {b['verdict']} -> {a['verdict']}" if flipped
                   else f"verdict {a['verdict']}")
        if b["printed"] == a["printed"]:
            print(f"{name:48} {verdict}, printed values identical")
            continue
        rel = max((abs(y - x) / abs(x) if x else abs(y)
                   for vb, va in zip(b["values"], a["values"]) for x, y in zip(vb, va)),
                  default=float("nan"))
        print(f"{name:48} {verdict}, printed values differ "
              f"(largest relative change {rel:.3g})")
        for line_b, line_a in zip(b["printed"], a["printed"]):
            if line_b != line_a:
                print(f"    before: {line_b}\n    after:  {line_a}")
    return 1 if flips else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--criteria", type=int, nargs="+", default=list(CRITERIA))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        return compare(before, after)
    result = json.dumps(record(args.root.resolve(), set(args.criteria)), indent=1)
    if args.out:
        args.out.write_text(result + "\n")
    else:
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
