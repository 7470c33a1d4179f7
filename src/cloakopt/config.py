"""Strict JSON run configuration.

Physical constants must be spelled out; only algorithmic knobs carry
defaults, and the fully resolved configuration (defaults marked) is
printed at startup so nothing is silently assumed. Every accepted key is
read. Unknown keys anywhere are rejected with the offending path, and so
are non-finite numbers, which Python's json reads from ``NaN``,
``Infinity`` and ``1e400``, and keys the chosen objective mode would
ignore: ``objective.w`` other than 1 under ``normalized`` (which
optimizes J1 alone) and ``materials.normalization_fill`` under
``standard``. Mesh settings and the initial disk are checked by key
before anything is built (:meth:`Scenario.validate`): a cell resolution
below 16, a macro element size that is not positive or leaves fewer than
2 elements across the design ring, and a disk radius outside
(0, sqrt(2)/2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import MacroGeometry
from .macro_solver import BoundaryData
from .optimizer import Scenario


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_SCHEMA = {
    "geometry": {
        "required": {"lx": float, "ly": float, "r_ring": float, "r_obstacle": float},
        "optional": {},
    },
    "materials": {
        "required": {"cell_a": float, "cell_b": float,
                     "exterior": float, "obstacle": float},
        "optional": {"normalization_fill": (float, None)},
    },
    "boundary": {
        "required": {"t_low": float, "t_high": float},
        "optional": {},
    },
    "objective": {
        "required": {"w": float},
        "optional": {"mode": (str, "standard")},
    },
    "levelset": {
        "required": {},
        "optional": {"k_phi": (float, 1.5), "tau": (float, 2.0e-4),
                     "dt": (float, 0.1),
                     "d_schedule": (list, [[1, 0.2], [71, 0.01]]),
                     "init": (dict, {"pattern": "disk", "radius": 0.25})},
    },
    "optimizer": {
        "required": {},
        "optional": {"max_iter": (int, 150)},
    },
    "mesh": {
        "required": {},
        "optional": {"macro_h": (float, 0.0625), "cell_resolution": (int, 64)},
    },
}


@dataclass
class RunConfig:
    scenario: Scenario
    settings: dict = field(default_factory=dict)    # "section.key" -> resolved value
    defaulted: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = ["resolved configuration:"]
        for key, value in self.settings.items():
            mark = "  (default)" if key in self.defaulted else ""
            lines.append(f"  {key} = {value}{mark}")
        return "\n".join(lines)


def _coerce(path: str, value, expected):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:       # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if expected is str and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if expected is list and not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    if expected is dict and not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def _parse_section(name: str, raw: dict, spec: dict, defaulted: list[str]) -> dict:
    out = {}
    known = set(spec["required"]) | set(spec["optional"])
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")
    for key, typ in spec["required"].items():
        if key not in raw:
            raise ConfigError(f"missing required key {name}.{key}")
        out[key] = _coerce(f"{name}.{key}", raw[key], typ)
    for key, (typ, default) in spec["optional"].items():
        if key in raw:
            if raw[key] is None and default is None:
                out[key] = None
            else:
                out[key] = _coerce(f"{name}.{key}", raw[key], typ)
        else:
            out[key] = default
            defaulted.append(f"{name}.{key}")
    return out


def _parse_init(raw: dict) -> tuple:
    pattern = raw.get("pattern")
    fields = {"disk": ("radius", float, 0.25), "uniform": ("sign", float, 1.0),
              "file": ("path", str, None)}
    if pattern not in fields:
        raise ConfigError(
            f"levelset.init.pattern must be disk|uniform|file, got {pattern!r}")
    key, typ, default = fields[pattern]
    extra = set(raw) - {"pattern", key}
    if extra:
        raise ConfigError(f"unknown key levelset.init.{extra.pop()}")
    if key not in raw and default is None:
        raise ConfigError(f"levelset.init.{key} is required for pattern {pattern!r}")
    value = _coerce(f"levelset.init.{key}", raw.get(key, default), typ)
    if key == "sign" and value == 0.0:
        raise ConfigError("levelset.init.sign must be nonzero")
    return (pattern, value)


def parse_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}")
    return build_config(raw)


def build_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section {key!r}")
    defaulted: list[str] = []
    sections = {name: _parse_section(name, raw.get(name, {}), spec, defaulted)
                for name, spec in _SCHEMA.items()}
    for name, spec in _SCHEMA.items():
        if spec["required"] and name not in raw:
            raise ConfigError(f"missing required section {name!r}")

    g = sections["geometry"]
    geometry = MacroGeometry(lx=g["lx"], ly=g["ly"], r_ring=g["r_ring"],
                             r_obstacle=g["r_obstacle"])
    m = sections["materials"]
    b = sections["boundary"]
    o = sections["objective"]
    ls = sections["levelset"]
    opt = sections["optimizer"]
    mesh = sections["mesh"]

    init = _parse_init(ls["init"])
    schedule = []
    for i, entry in enumerate(ls["d_schedule"]):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2):
            raise ConfigError("levelset.d_schedule entries must be [iteration, d]")
        path = f"levelset.d_schedule[{i}]"
        schedule.append((_coerce(f"{path}[0]", entry[0], int),
                         _coerce(f"{path}[1]", entry[1], float)))

    mode = {"standard": "standard", "normalized": "normalized"}.get(o["mode"])
    if mode is None:
        raise ConfigError(f"objective.mode must be standard|normalized, got {o['mode']!r}")

    nf = m["normalization_fill"]
    scenario = Scenario(
        geometry=geometry,
        k_cell_a=m["cell_a"], k_cell_b=m["cell_b"],
        k_exterior=m["exterior"], k_obstacle=m["obstacle"],
        bc=BoundaryData(t_low=b["t_low"], t_high=b["t_high"]),
        w=o["w"], objective_mode=mode,
        normalization_fill=float(nf) if nf is not None else None,
        k_phi=ls["k_phi"], tau=ls["tau"], dt=ls["dt"],
        d_schedule=tuple(schedule), init=init,
        max_iter=opt["max_iter"],
        macro_h=mesh["macro_h"], cell_resolution=mesh["cell_resolution"],
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    # every schema key, in schema order, with the value the scenario holds
    ls.update(d_schedule=[list(entry) for entry in schedule], init=init)
    settings = {f"{name}.{key}": value
                for name, section in sections.items() for key, value in section.items()}
    return RunConfig(scenario=scenario, settings=settings, defaulted=defaulted)
