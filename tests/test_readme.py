"""The README's Python quick start and command-line examples run as
written."""

import re
import shlex
from pathlib import Path

from trapprob.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # every `trapprob ...` line of the shell blocks, run in an empty
    # directory, so relative --out and --out-dir paths land there
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("trapprob ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
