"""Check that two source trees produce bit-identical outputs.

    python tools/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]

CHANGE_ROOT defaults to the tree holding this script. The flows of
``flows.py`` (beside this script) run once per tree, each in a
subprocess on one BLAS thread with ``src/`` of that tree on
``PYTHONPATH``, and with the configs and benchmark of the tree holding
this script for both. Every file the flows write is an output, hashed as
written except that the ``wall_ms`` timings are dropped: the column of a
``history.csv``, the field of each history entry of a ``state.json``.

Prints one SHA-256 per output and exits 1 if any differs. For an output
that differs, it also prints how many of the numbers it holds (decimal
or hex) moved and their largest change, against their own value and
against the largest magnitude, so a re-draw at roundoff can be told from
a defect; or that the count of numbers differs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FLOWS = Path(__file__).resolve().with_name("flows.py")
NUMBER = re.compile(r"-?0x[0-9a-f.]+p[-+]\d+|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def content(path: Path) -> bytes:
    """An output's bytes, without the ``wall_ms`` column of a ``history.csv``
    or the ``wall_ms`` field of the history entries of a ``state.json``."""
    if path.name == "history.csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
        return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    if path.name == "state.json":
        payload = json.loads(path.read_text())
        for entry in payload["history"]:
            entry.pop("wall_ms", None)
        return json.dumps(payload).encode()
    return path.read_bytes()


def numbers(path: Path) -> np.ndarray:
    return np.array([float.fromhex(t) if "x" in t else float(t)
                     for t in NUMBER.findall(content(path).decode())])


def moved(w: np.ndarray, g: np.ndarray) -> str:
    """How the numbers of an output that differs moved from ``w`` to ``g``."""
    if w.shape != g.shape:
        return f"{len(g)} numbers, the parent's {len(w)}"
    change = np.abs(g - w)
    if not change.any():
        return "the same numbers"
    relative = change[change > 0] / np.maximum(np.abs(w), np.abs(g))[change > 0]
    return (f"{np.count_nonzero(change)} of {len(w)} numbers moved, by up to "
            f"{relative.max():.3g} of their value and {change.max() / np.abs(w).max():.3g} "
            "of the largest magnitude")


def outputs(root: Path, work: Path) -> dict:
    """{path relative to work: SHA-256} of every file the flows write
    into ``work`` with the ``src/`` of ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, str(FLOWS), str(work)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return {path.relative_to(work).as_posix(): hashlib.sha256(content(path)).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else FLOWS.parents[1]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        want, got = outputs(parent, work / "parent"), outputs(change, work / "change")
        names = [*got, *(name for name in want if name not in got)]
        differ = 0
        for name in names:
            same = want.get(name) == got.get(name)
            differ += not same
            print(f"{name:46} {got.get(name)}"
                  + ("" if same else f"  DIFFERS: parent {want.get(name)}"))
            if not same and name in want and name in got:
                print("  " + moved(numbers(work / "parent" / name),
                                   numbers(work / "change" / name)))
    print(f"{len(names) - differ} of {len(names)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
