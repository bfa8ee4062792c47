"""README.md's ```python blocks, executed in order in one namespace, and
every `dlqr ...` line of its ```sh blocks, run through the command line
against README's JSON problem, so the documentation cannot name a
function, keyword or flag the package lacks."""

import re
import shlex
from pathlib import Path

from dlqr.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    pattern = rf"^```{language}\n(.*?)^```$"
    return re.findall(pattern, README.read_text(), re.S | re.M)


def _dlqr_commands():
    """The argument lists of the `dlqr` commands in README's sh blocks, with
    continuation lines joined and comments dropped."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["dlqr"]:
                commands.append(words[1:])
    return commands


def test_readme_has_python_blocks():
    assert len(_blocks("python")) >= 4


def test_readme_python_blocks_run():
    namespace = {}
    for k, block in enumerate(_blocks("python")):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_dlqr_commands_exit_0(tmp_path, monkeypatch, capsys):
    (problem,) = _blocks("json")
    (tmp_path / "problem.json").write_text(problem)
    monkeypatch.chdir(tmp_path)
    commands = _dlqr_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
