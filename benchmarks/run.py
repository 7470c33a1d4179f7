"""cloakopt benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload opt_cell --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload
    python3 benchmarks/run.py --write-benchmark-json           # regenerate BENCHMARK.json

Run from the root of a checkout. Each repetition of the workload runs in
a fresh process with the BLAS pools pinned to one thread; end-to-end
timings are scaled to the reference speed of calibrate.py. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from calibrate import scaled  # noqa: E402
from stats import tail_percentile  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0
WORK_DIR = ROOT / ".bench_work"
UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, crashed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, mode: str, workdir: Path,
              deadline: float) -> dict:
    """One repetition (or set-up-only run) in a fresh process."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    log = workdir / "child.log"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--mode", mode,
           "--workdir", str(workdir), "--out", str(out)]
    with log.open("w") as fh:
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL, cwd=ROOT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} {mode} repetition exceeded the time limit")
    if proc.returncode != 0 or not out.exists():
        tail = log.read_text()[-2000:]
        raise BenchmarkError(f"{workload} {mode} process exited with "
                             f"{proc.returncode}:\n{tail}")
    return json.loads(out.read_text())


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "threads": {var: child_env()[var] for var in THREAD_VARS},
            "python": platform.python_version()}


def operations(rep: dict) -> list[tuple[float, float]]:
    """(raw seconds, calibration kernel seconds around it) of each operation."""
    if rep["workload"].startswith("opt_"):
        its = rep["iterations"]
        return [(b["t_cal"] - a["t"], (a["cal"] + b["cal"]) / 2)
                for a, b in zip(its, its[1:])]
    return [(op["t1"] - op["t0"], (op["cal"] + op["cal_exit"]) / 2) for op in rep["tiled"]]


def end_to_end(reps: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from untraced repetitions, and notes on them.

    Every timing is scaled to the calibration kernel's reference speed
    (calibrate.py): an operation by the kernel time sampled around it, a
    repetition's run by the median kernel time of the repetition, set-up
    by the kernel time sampled just before it.
    """
    ops = [op for r in reps for op in operations(r)]
    if not ops:
        raise BenchmarkError("no operation completed")
    ops_ms = [1e3 * scaled(raw, cal) for raw, cal in ops]
    tail = tail_percentile(ops_ms)
    pct, tail_value = tail if tail else (50, statistics.median(ops_ms))
    run_kernel = [statistics.median([cal for _, cal in operations(r)] or [r["cal_setup"]])
                  for r in reps]
    metrics = {
        "setup_s": statistics.median(scaled(r["setup_s"], r["cal_setup"]) for r in setups),
        "run_s": statistics.median(scaled(r["run_s"], cal) for r, cal in zip(reps, run_kernel)),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_tail": tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {"op_samples": len(ops_ms), "op_ms_tail_percentile": pct,
             "setup_samples": len(setups), "repetitions": len(reps),
             "unscaled": {"setup_s": statistics.median(r["setup_s"] for r in setups),
                          "run_s": statistics.median(r["run_s"] for r in reps),
                          "op_ms_p50": 1e3 * statistics.median(raw for raw, _ in ops)},
             "kernel_ms": [round(1e3 * cal, 3) for cal in run_kernel]}
    return metrics, notes


def per_layer(traced: list[dict], untraced: dict) -> tuple[dict, dict, list[str]]:
    """Median per-layer metrics of the traced repetitions, the full layer
    breakdown, and any exact-count disagreements between them."""
    names = traced[0]["layers"].keys()
    layers = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    layers["trace_overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - untraced["run_s"])
    mismatched = [f"{n}: {[r['layers'][n] for r in traced]}" for n in spec.EXACT_COUNTS
                  if len({r["layers"][n] for r in traced}) != 1]
    listed = {m["name"]: layers[m["name"]] for m in spec.PER_LAYER}
    return listed, layers, mismatched


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    WORK_DIR.mkdir(exist_ok=True)
    scratch = WORK_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    load_before = os.getloadavg()[0]
    try:
        if trace:
            plan = ["rep"] + ["traced"] * spec.TRACED_REPS
        else:
            reps = spec.reps_for(workload, seconds)
            plan = ["setup"] * max(spec.SETUP_SAMPLES - reps, 0) + ["rep"] * reps
        results = [run_child(workload, seed, mode == "traced",
                             "setup" if mode == "setup" else "rep",
                             scratch / f"{i:02d}-{mode}", deadline)
                   for i, mode in enumerate(plan)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()[0]

    reps = [r for r in results if r["mode"] == "rep"]
    untraced = [r for r in reps if not r["trace"]]
    verdicts = [r["checks"] for r in reps]
    failures = [f for v in verdicts for f in v["failures"]]
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "failures": failures,
        "environment": {**environment(), **reps[0]["versions"],
                        "load_1min_before": load_before, "load_1min_after": load_after},
    }
    if trace:
        traced = [r for r in reps if r["trace"]]
        metrics, layers, mismatched = per_layer(traced, untraced[0])
        summary.update(metrics=metrics, layers=layers, count_mismatches=mismatched)
        failures += [f"exact count disagrees: {m}" for m in mismatched]
        traces = WORK_DIR / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{workload}-seed{seed}.json").write_text(
            json.dumps([r["spans"] for r in traced]))
    else:
        metrics, notes = end_to_end(untraced, results)
        summary.update(metrics=metrics, notes=notes)
    summary["correct"] = summary["failed"] == 0 and not failures
    return summary


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    stem = name.split(".")[1] if name.count(".") == 2 else name   # fem.factor_ms.cell
    return "ms" if stem.endswith("_ms") else "s" if stem.endswith("_s") else "count"


def print_summary(summary: dict) -> None:
    """Report lines: the metrics, the nonzero layer breakdown, notes, failures."""
    w = summary["workload"]
    for name, value in summary["metrics"].items():
        print(f"{w} {name} {value:.6g} {unit_of(name)}")
    for name, value in summary.get("layers", {}).items():
        if name not in summary["metrics"] and value:
            print(f"{w} {name} {value:.6g} {unit_of(name)}")
    for key in ("notes", "environment"):
        if key in summary:
            print(f"{w} {key} {json.dumps(summary[key], sort_keys=True)}")
    for failure in summary["failures"]:
        print(f"{w} FAILED {failure}")


def result_line(summary: dict) -> str:
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in summary["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cloakopt benchmark")
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    args = p.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "cloakopt" / "__init__.py").is_file():
        print(f"benchmark: no cloakopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        print_summary(summary)
        print(result_line(summary))
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
