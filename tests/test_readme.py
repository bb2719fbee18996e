"""The README's examples run as written: its Python block executes, and every
`hqis ...` command of its shell blocks exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from hqis.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _hqis_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hqis"]:
                commands.append(words[1:])
    return commands


def test_readme_python_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", _hqis_commands(), ids=shlex.join)
def test_readme_cli_command_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
