"""The README's Library example, run as written, and its command lines, parsed."""

import re
import shlex
from pathlib import Path

import pytest

from socprimes.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the example writes e6.jsonl
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "e6.jsonl").stat().st_size > 0


def test_command_lines_parse():
    # a flag the CLI no longer has fails here, not in a reader's shell
    parser = _build_parser()
    commands = []
    for block in re.findall(r"```[^\n]*\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            if (line := line.removeprefix("$ ")).startswith("socprimes "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert len(commands) == 11
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's socprimes {shlex.join(argv)} does not parse")
