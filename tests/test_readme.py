"""The README's examples run as written: the Library block and every
``tabaudit`` line of the Command line block."""

from __future__ import annotations

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from tabaudit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(section: str, lang: str) -> list[str]:
    """The ``lang`` fenced blocks under the level-2 heading ``section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, re.M | re.S)


(SHELL,) = code_blocks("Command line", "sh")
COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in SHELL.splitlines() if line.startswith("tabaudit ")]


def test_library_example():
    (block,) = code_blocks("Library", "python")
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    t = names["t"]
    assert isinstance(names["fisher_upper_tail"](t), Fraction)
    assert isinstance(names["nominal_correlation"](t).value, float)
    assert names["simpson_check"](names["EMBEDDED"]["shops"]).paradox is True


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_example(argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out or any(tmp_path.iterdir())
