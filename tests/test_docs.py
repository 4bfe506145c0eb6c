"""The README's command lines and the package exports name only what exists."""

import re
import shlex
from pathlib import Path

import cyclocert
from cyclocert.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("cyclocert ")
    ]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cyclocert import *", namespace)
    assert all(name in namespace for name in cyclocert.__all__)
