"""The README's commands and configuration reference match the program,
so a removed flag or key cannot stay in the documentation."""

import json
import re
import shlex
from pathlib import Path

from cloakopt import cli
from cloakopt.config import _SCHEMA, build_config
from cloakopt.geometry import MacroGeometry
from cloakopt.macro_solver import BoundaryData
from cloakopt.optimizer import Scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def readme_commands() -> list[list[str]]:
    """Every ``cloakopt ...`` command of the bash blocks, continuations joined."""
    commands = []
    for block in fenced_blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cloakopt"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {words[0] for words in commands} == {"optimize", "homogenize", "validate", "sweep"}
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words)        # exits with code 2 on an unknown flag


def readme_reference() -> dict:
    """The configuration reference, comments stripped."""
    (block,) = fenced_blocks("jsonc")
    return json.loads(re.sub(r"//.*", "", block))


def test_configuration_reference_matches_schema():
    raw = readme_reference()
    assert {name: sorted(section) for name, section in raw.items()} == {
        name: sorted([*spec["required"], *spec["optional"]])
        for name, spec in _SCHEMA.items()}
    build_config(raw)       # and the reference is itself a valid configuration


def test_optional_settings_default_alike():
    """The optional settings (k_phi, tau, dt, d_schedule, init, max_iter,
    macro_h, cell_resolution, the objective mode and normalization_fill)
    hold one value in the schema's defaults, in Scenario's field defaults
    and in the README's reference: a config of the required keys alone,
    and the reference, both give the Scenario of their required values."""
    reference = readme_reference()
    required = {name: {key: reference[name][key] for key in spec["required"]}
                for name, spec in _SCHEMA.items() if spec["required"]}
    m = required["materials"]
    plain = Scenario(geometry=MacroGeometry(**required["geometry"]),
                     k_cell_a=m["cell_a"], k_cell_b=m["cell_b"],
                     k_exterior=m["exterior"], k_obstacle=m["obstacle"],
                     bc=BoundaryData(**required["boundary"]), w=required["objective"]["w"])
    assert build_config(required).scenario == plain
    assert build_config(reference).scenario == plain
