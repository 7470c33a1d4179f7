"""The README's commands and configuration reference match the program,
so a removed flag or key cannot stay in the documentation."""

import json
import re
import shlex
from pathlib import Path

from cloakopt import cli
from cloakopt.config import _SCHEMA, build_config

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


def test_configuration_reference_matches_schema():
    (block,) = fenced_blocks("jsonc")
    raw = json.loads(re.sub(r"//.*", "", block))
    assert {name: sorted(section) for name, section in raw.items()} == {
        name: sorted([*spec["required"], *spec["optional"]])
        for name, spec in _SCHEMA.items()}
    build_config(raw)       # and the reference is itself a valid configuration
