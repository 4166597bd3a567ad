"""The scripts under scripts/, run in a subprocess as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from socprimes.engine import SearchConfig, search
from socprimes.primes import PrimeRange

ROOT = Path(__file__).resolve().parents[1]

REPRODUCE_ROWS_1000_100000 = [
    "                        1,000  100,000",
    "examined                  165    9,589",
    "rejected mod 8            123    7,191",
    "rejected (5/p)             20    1,198",
    "rejected (-23/p)           12      610",
    "rejected cubic              2      143",
    "candidates                  8      447",
    "",
    "stage-1 survivors below 1,000: 13 173 197 277 317 397 653 853 877 997",
]


def run_script(name, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)


def test_reproduce_counts_rows():
    done = run_script("reproduce_counts.py", "--limits", "1000", "100000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[7].startswith("seconds ")  # wall time, the one row that varies
    assert lines[:7] + lines[8:] == REPRODUCE_ROWS_1000_100000


def test_search_billion_legs_match_one_search(tmp_path):
    want = search(SearchConfig(range=PrimeRange(7, 300000), output_path=str(tmp_path / "one.jsonl"), threads=1))
    done = run_script("search_billion.py", "--to", "300000", "--segments-per-leg", "2", "--threads", "2",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "billion.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    c = want.counters
    last = done.stdout.splitlines()[-1]
    assert last.startswith("done in ")
    assert last.endswith(f": examined {c.examined:,}, cubic rejections {c.rejected_cubic:,}, "
                         f"collisions {c.collisions:,}, socialist {c.socialist}")


@pytest.mark.parametrize("damage", ["other-range", "edited-results"])
def test_search_billion_refuses_a_checkpoint_it_cannot_resume(tmp_path, damage):
    results = tmp_path / "billion.jsonl"
    search(SearchConfig(range=PrimeRange(7, 300000, 4096), output_path=str(results),
                        checkpoint_path=str(tmp_path / "billion.ckpt"), stop_after_segments=2))
    to = "400000" if damage == "other-range" else "300000"
    if damage == "edited-results":
        data = bytearray(results.read_bytes())
        data[100] ^= 0x01
        results.write_bytes(bytes(data))
    before = [(tmp_path / name).read_bytes() for name in ("billion.jsonl", "billion.ckpt")]
    done = run_script("search_billion.py", "--to", to, "--threads", "1", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert [(tmp_path / name).read_bytes() for name in ("billion.jsonl", "billion.ckpt")] == before
