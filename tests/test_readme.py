"""The README's "Quick start" examples, run as written.

Each Python block runs in one shared namespace, and every run of ``# ``
lines must be exactly what the code before it printed.  Each ``$ kweave``
line of the shell block runs through :func:`kweave.cli.main` in a
temporary directory, and the lines after it must be what it printed.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from kweave.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks(language: str) -> list[str]:
    """The ``language`` code blocks of the README's "Quick start" section."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)


def python_steps(block: str) -> list[tuple[str, list[str]]]:
    """(code, printed) pairs: the code up to each run of ``# `` lines, and those lines."""
    steps, code, printed = [], [], []
    for line in block.splitlines():
        if line.startswith("# "):
            printed.append(line[2:])
            continue
        if printed:
            steps.append(("\n".join(code), printed))
            code, printed = [], []
        code.append(line)
    steps.append(("\n".join(code), printed))
    return steps


def shell_steps(block: str) -> list[tuple[str, list[str]]]:
    """(command, printed) pairs: each ``$ `` line and the lines up to the next blank one."""
    steps = []
    for chunk in block.strip().split("\n\n"):
        command, *printed = chunk.splitlines()
        assert command.startswith("$ kweave "), command
        steps.append((command[2:], printed))
    return steps


def test_the_python_examples_print_what_they_show():
    blocks = quick_start_blocks("python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        for code, printed in python_steps(block):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(code, str(README), "exec"), namespace)
            assert out.getvalue().splitlines() == printed, code


def test_the_shell_example_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    (block,) = quick_start_blocks("sh")
    monkeypatch.chdir(tmp_path)
    steps = shell_steps(block)
    assert len(steps) == 2
    for command, printed in steps:
        code = main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), command
        assert out.splitlines() == printed, command
