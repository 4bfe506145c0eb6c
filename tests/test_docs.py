"""The README's command lines and the package exports name only what exists."""

import argparse
import re
import shlex
from pathlib import Path

import cyclocert
from cyclocert.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_lines(program):
    """The README's `sh` lines that run program, split into words without comments."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith(program + " ")
    ]


def readme_commands():
    return [words[1:] for words in readme_lines("cyclocert")]


def test_readme_commands_parse():
    commands = readme_commands()
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(subparsers.choices)


def test_readme_commands_run(tmp_path, monkeypatch):
    # in README order: `generate --out n128.cert` comes before `verify --cert n128.cert`
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        assert main(argv) == 0, argv


def test_readme_scripts_exist():
    scripts = [words[1] for words in readme_lines("python") if words[1].startswith("scripts/")]
    assert scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cyclocert import *", namespace)
    assert all(name in namespace for name in cyclocert.__all__)
