"""The scripts under scripts/, run in a subprocess as a user runs them."""

import ast
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
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)


def reproduce_counts_rows(*flags):
    done = run_script("reproduce_counts.py", "--limits", "1000", "100000", *flags)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[7].startswith("seconds ")  # wall time, the one row that varies
    return lines[:7] + lines[8:]


def test_reproduce_counts_rows():
    assert reproduce_counts_rows() == REPRODUCE_ROWS_1000_100000


def test_reproduce_counts_has_no_strict_cubic():
    # strict mode is retired: argparse refuses the flag with its usage code, 2
    done = run_script("reproduce_counts.py", "--limits", "1000", "--strict-cubic")
    assert done.returncode == 2 and done.stdout == ""
    assert "unrecognized arguments: --strict-cubic" in done.stderr


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


def test_search_billion_results_file_it_cannot_open_exits_one(tmp_path):
    done = run_script("search_billion.py", "--to", "300000", "--threads", "1",
                      "--out", str(tmp_path / "missing" / "x.jsonl"), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []  # no checkpoint either


def test_search_billion_checkpoint_it_cannot_write_exits_one(tmp_path):
    done = run_script("search_billion.py", "--to", "3000", "--threads", "1", "--out", "nodir.jsonl",
                      "--checkpoint", str(tmp_path / "missing" / "x.ckpt"), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []  # refused before any segment ran, so no results file


@pytest.mark.parametrize("args", [
    ("--to", "5"),
    ("--threads", "0"),
    ("--segments-per-leg", "0"),
    ("--out", "billion.ckpt"),
], ids=["empty-range", "no-threads", "no-segments", "out-is-checkpoint"])
def test_search_billion_bad_argument_is_a_usage_error(tmp_path, args):
    done = run_script("search_billion.py", *args, cwd=tmp_path)
    assert done.returncode == 64
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["missing", "copy"])
def test_search_billion_resumes_into_its_out(tmp_path, out):
    # a checkpoint of billion.jsonl, resumed with --out other.jsonl
    search(SearchConfig(range=PrimeRange(7, 300000), output_path=str(tmp_path / "one.jsonl"), threads=1))
    results, other = tmp_path / "billion.jsonl", tmp_path / "other.jsonl"
    search(SearchConfig(range=PrimeRange(7, 300000, 4096), output_path=str(results),
                        checkpoint_path=str(tmp_path / "billion.ckpt"), stop_after_segments=2))
    if out == "copy":
        other.write_bytes(results.read_bytes())
    before = results.read_bytes()
    done = run_script("search_billion.py", "--to", "300000", "--threads", "1", "--out", str(other), cwd=tmp_path)
    assert results.read_bytes() == before
    if out == "missing":
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert not other.exists()
    else:
        assert done.returncode == 0, done.stderr
        assert other.read_bytes() == (tmp_path / "one.jsonl").read_bytes()
        assert done.stdout.splitlines()[-1].startswith("done in ")


def test_audit_results_holds_on_a_search_and_fails_each_damage(tmp_path):
    results = tmp_path / "results.jsonl"
    search(SearchConfig(range=PrimeRange(7, 300000), output_path=str(results), threads=1))
    done = run_script("audit_results.py", str(results))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{results}: 1620 witnesses hold by direct product\n"

    lines = results.read_bytes().splitlines(keepends=True)
    x4 = b'{"p":197,"outcome":"RejectedCubic","witness":{"y":36,"x":4}}\n'
    at = lines.index(x4)
    small = b'{"p":17,"outcome":"Collision","witness":{"j":3,"k":6,"residue":6}}\n'
    damages = {  # each damaged file, and the start of the audit's message for it
        "witness fails its direct product": [*lines[:at], x4.replace(b'"x":4', b'"x":5'), *lines[at + 1:]],
        "p does not increase after 173": [lines[1], lines[0], *lines[2:]],
        "line is not the compact JSON": [lines[0].replace(b'"outcome":', b'"outcome": '), *lines[1:]],
        # between p = 13 and p = 173, a collision 3! = 6! that holds mod 17 and mod 21
        "p is not in a stage-1 class": [lines[0], small, *lines[1:]],  # 17 = 1 (mod 8)
        "p is not prime": [lines[0], small.replace(b"17", b"21"), *lines[1:]],  # 21 = 3 * 7 = 5 (mod 8)
    }
    for message, damaged in damages.items():
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(damaged))
        done = run_script("audit_results.py", str(bad))
        assert (done.returncode, done.stdout) == (1, ""), message
        assert done.stderr.startswith(message), done.stderr

    # an audit independent of the package: the standard library's json and sys only
    tree = ast.parse((ROOT / "scripts" / "audit_results.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported == {"json", "sys"}
    assert not any(isinstance(node, ast.ImportFrom) for node in ast.walk(tree))
