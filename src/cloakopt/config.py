"""Strict JSON run configuration.

Physical constants must be spelled out; only algorithmic knobs carry
defaults, and the fully resolved configuration (defaults marked) is
printed at startup so nothing is silently assumed. Unknown keys anywhere
are rejected with the offending path.
"""

from __future__ import annotations

import json
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
        "optional": {"allow_oversize": (bool, False)},
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
    "export": {
        "required": {},
        "optional": {"vtk": (bool, True), "tensor_csv": (bool, True)},
    },
}


@dataclass
class RunConfig:
    scenario: Scenario
    export_vtk: bool = True
    export_tensor_csv: bool = True
    defaulted: list[str] = field(default_factory=list)

    def describe(self) -> str:
        sc = self.scenario
        lines = ["resolved configuration:"]
        items = [
            ("geometry.lx", sc.geometry.lx), ("geometry.ly", sc.geometry.ly),
            ("geometry.r_ring", sc.geometry.r_ring),
            ("geometry.r_obstacle", sc.geometry.r_obstacle),
            ("materials.cell_a", sc.k_cell_a), ("materials.cell_b", sc.k_cell_b),
            ("materials.exterior", sc.k_exterior), ("materials.obstacle", sc.k_obstacle),
            ("materials.normalization_fill", sc.normalization_fill),
            ("boundary.t_low", sc.bc.t_low), ("boundary.t_high", sc.bc.t_high),
            ("objective.w", sc.w), ("objective.mode", sc.objective_mode),
            ("levelset.k_phi", sc.k_phi), ("levelset.tau", sc.tau),
            ("levelset.dt", sc.dt), ("levelset.d_schedule", list(map(list, sc.d_schedule))),
            ("levelset.init", sc.init),
            ("optimizer.max_iter", sc.max_iter),
            ("mesh.macro_h", sc.macro_h), ("mesh.cell_resolution", sc.cell_resolution),
            ("export.vtk", self.export_vtk), ("export.tensor_csv", self.export_tensor_csv),
        ]
        for key, value in items:
            mark = "  (default)" if key in self.defaulted else ""
            lines.append(f"  {key} = {value}{mark}")
        return "\n".join(lines)


def _coerce(path: str, value, expected):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if expected is bool and not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
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
    ex = sections["export"]

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
        d_schedule=tuple(schedule), init=_parse_init(ls["init"]),
        max_iter=opt["max_iter"],
        macro_h=mesh["macro_h"], cell_resolution=mesh["cell_resolution"],
        allow_oversize=g["allow_oversize"],
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return RunConfig(scenario=scenario, export_vtk=ex["vtk"],
                     export_tensor_csv=ex["tensor_csv"],
                     defaulted=defaulted)
