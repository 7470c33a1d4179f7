"""The tools that compare outputs and audit traffic (``tools/``)."""

import csv
import importlib.util
import io
import json
import sys
import trace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402
import traffic_audit  # noqa: E402

MODULE = '''\
def used(x):
    if x > 0:
        return 1
    if x < -10:
        raise ValueError(
            "far below")
    y = x * 2
    return y


def unused():
    return 2
'''


def test_audit_lists_what_the_trace_never_reached(tmp_path):
    """A function that never runs is listed by name; inside one that runs,
    the unreached line is listed and the unreached raise is not."""
    path = (tmp_path / "probe.py").resolve()
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = trace.Trace(count=1, trace=0)
    assert tracer.runfunc(module.used, -1) == -2
    counts = {(str(Path(f).resolve()), line): n
              for (f, line), n in tracer.results().counts.items()}
    assert traffic_audit.audit(path, counts) == (["unused (11)"], ["3 (used)"])


def test_ranges_join_consecutive_executable_lines():
    executable = [1, 3, 4, 7, 9, 12]
    assert traffic_audit.ranges([3, 4, 9], executable) == "3-4, 9"
    assert traffic_audit.ranges([4, 7, 12], executable) == "4-7, 12"
    assert traffic_audit.ranges([1], executable) == "1"


def test_history_reader_drops_wall_time_and_nothing_else(tmp_path):
    rows = [["iter", "J1", "J2", "J", "J1_ratio", "J2_ratio", "d", "wall_ms"],
            ["1", "0.5", "0.25", "0.5", "1", "1", "0.2", "12.5"],
            ["2", "0.125", "0.0625", "0.125", "0.25", "0.25", "0.01", "9.0"]]
    path = tmp_path / "history.csv"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    kept = list(csv.reader(io.StringIO(compare_outputs.content(path).decode())))
    assert kept == [row[:-1] for row in rows]


def test_state_reader_drops_wall_time_and_nothing_else(tmp_path):
    history = [{"iteration": i, "j1": 0.5 / i, "j2": 0.25 / i, "j": 0.5 / i, "j1_ratio": 1 / i,
                "j2_ratio": 1 / i, "d": 0.2, "wall_ms": 10.0 + i} for i in (1, 2)]
    payload = {"iteration": 2, "j1": 0.25, "j2": 0.125, "j": 0.25, "j1_init": 0.5,
               "j2_init": 0.25, "d": [0.2] * 8, "tensors": [{"k11": 1.0}], "history": history}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload, indent=1))
    kept = json.loads(compare_outputs.content(path))
    for row in history:
        del row["wall_ms"]
    assert kept == payload


def test_numbers_read_decimal_and_hex(tmp_path):
    path = tmp_path / "probes.txt"
    path.write_text(f"{(0.1).hex()} {(-3.0).hex()}\nquantity,2.5e-3,-7\n")
    assert compare_outputs.numbers(path).tolist() == [0.1, -3.0, 2.5e-3, -7.0]


def test_moved_numbers_are_counted_and_scaled():
    w = np.array([0.0, 2.0, 4.0])
    assert compare_outputs.moved(w, w.copy()) == "the same numbers"
    assert compare_outputs.moved(w, w[:2]) == "2 numbers, the parent's 3"
    assert compare_outputs.moved(w, np.array([0.0, 2.0, 5.0])) == (
        "1 of 3 numbers moved, by up to 0.2 of their value and 0.25 of the largest magnitude")
