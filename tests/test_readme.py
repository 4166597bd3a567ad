"""The README's Library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the example writes e6.jsonl
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "e6.jsonl").stat().st_size > 0
