"""Output checks of one repetition; their failures feed `failed`.

An operation is one optimizer iteration or one tiled evaluation. It
fails if the run raised before finishing it, if it produced a
non-finite value, or if one of these checks fails:

* iteration 1: J1, J2 and the 8 K* match the stored values of the
  seed's input variant to rel 1e-8 (iteration 1 is a pure function of
  the inputs, so a later trajectory change cannot trip it);
* every iteration: each K* is SPD and inside the Voigt-Reuss bounds of
  its volume fraction with slack 1e-6 (checked by the probe), and the
  temperature overshoots the edge range by at most 1e-6;
* every tiled evaluation: J1 matches its stored value to rel 1e-8.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-8
OVERSHOOT_TOL = 1e-6


def load_expected(path=EXPECTED_PATH) -> dict:
    with Path(path).open() as fh:
        return json.load(fh)


def close(value: float, ref: float, scale: float | None = None) -> bool:
    scale = abs(ref) if scale is None else scale
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * max(scale, 1e-300)


def first_iteration_record(it: dict) -> dict:
    return {"j1": it["j1"], "j2": it["j2"], "tensors": [list(c["k"]) for c in it["cells"]]}


def check_rep(result: dict, expected: dict) -> dict:
    """Count attempted and failed operations of one repetition."""
    workload = result["workload"]
    ref = expected[workload][str(result["variant"])]
    failures = []
    if workload.startswith("opt_"):
        ops = result["iterations"]
        for i, it in enumerate(ops, start=1):
            why = _iteration_failure(it, ref if i == 1 else None)
            if why:
                failures.append(f"iteration {i}: {why}")
    else:
        ops = result["tiled"]
        for i, (op, j1_ref) in enumerate(zip(ops, ref["tiled_j1"]), start=1):
            if not (close(op["j1"], j1_ref) and math.isfinite(op["j2"])):
                failures.append(f"tiled evaluation {i}: J1={op['j1']!r}, stored {j1_ref!r}")
    planned = result["planned_ops"]
    failed = len(failures)
    missing = max(planned - len(ops), 0)
    if missing:
        failures.append(f"{missing} of {planned} operations not reached: {result['error']}")
    elif result["error"]:
        failures.append(f"run failed after its last operation: {result['error']}")
        failed = max(failed, 1)
    return {"attempted": max(planned, len(ops)), "failed": failed + missing,
            "failures": failures}


def _iteration_failure(it: dict, ref: dict | None) -> str:
    if not (math.isfinite(it["j1"]) and math.isfinite(it["j2"])):
        return "non-finite objective"
    if it["overshoot"] > OVERSHOOT_TOL:
        return f"temperature overshoot {it['overshoot']:.3e}"
    if len(it["cells"]) != 8 or not all(c["ok"] for c in it["cells"]):
        return "a K* is not SPD or leaves its Voigt-Reuss bounds"
    if ref is None:
        return ""
    if not (close(it["j1"], ref["j1"]) and close(it["j2"], ref["j2"])):
        return f"J1, J2 = {it['j1']!r}, {it['j2']!r}; stored {ref['j1']!r}, {ref['j2']!r}"
    for l, (k, k_ref) in enumerate(zip([c["k"] for c in it["cells"]], ref["tensors"]), 1):
        scale = max(abs(v) for v in k_ref)
        if not all(close(a, b, scale) for a, b in zip(k, k_ref)):
            return f"K* of cell {l} = {k!r}; stored {k_ref!r}"
    return ""
