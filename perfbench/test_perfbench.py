"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def _run(capsys, *args: str) -> tuple[dict, str]:
    assert run.main(["--seed", "0", "--seconds", "0.2", "--tiny", *args]) == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize("name", inputs.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, name):
    result, out = _run(capsys, "--workload", name, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert f"  {metric} = " in out and out.split(f"  {metric} = ", 1)[1].split("\n", 1)[0].endswith(f" {unit}")
        assert result["metrics"][metric]["value"] > 0
    assert "error_rate 0.0" in out


@pytest.mark.parametrize("name", inputs.NAMES)
def test_traced_run_emits_every_per_layer_metric(capsys, name):
    result, _out = _run(capsys, "--workload", name, "--trace", "1")
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_flipped_byte_in_results_file_counts_as_failed(capsys, monkeypatch):
    import socprimes.engine as engine

    real_search = engine.search

    def search_then_flip(config):
        report = real_search(config)
        path = Path(config.output_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return report

    monkeypatch.setattr(engine, "search", search_then_flip)
    result, out = _run(capsys, "--workload", "tally_1e6", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "error_rate 1.0" in out


def test_cpu_counts_pool_workers_that_outlive_a_leg(tmp_path):
    # A leg stopped after its first segment returns while its workers still
    # run the segments already handed to them: their CPU is outside the
    # leg's wall time, and RUSAGE_CHILDREN sees it only once they are reaped.
    mods = workloads.load_package()
    engine = mods["engine"]
    config = engine.SearchConfig(range=mods["primes"].PrimeRange(10**8, 10**8 + 2**19, 2**16),
                                 output_path=str(tmp_path / "leg.jsonl"), threads=2,
                                 checkpoint_path=str(tmp_path / "leg.ckpt"), stop_after_segments=1)
    child0, wall0 = workloads.children_cpu_s(), time.perf_counter()
    report = engine.search(config)
    wall = time.perf_counter() - wall0
    assert not report.complete
    workloads.reap_children()
    assert not [c.pid for c in multiprocessing.active_children() if workloads.pid_exists(c.pid)]
    cpu = workloads.children_cpu_s() - child0
    assert cpu >= wall, (cpu, wall)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tally_1e6", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
