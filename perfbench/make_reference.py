#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

For every full-size search range a benchmark seed can select, and for the
self-test's fixed tiny ranges, it runs one uninterrupted threads=1 search with
default flags and stores the results file's sha256 and the counters; for
each fp_histogram limit it stores the digest of the canonical histogram.
It uses one worker process per CPU it may run on.
A run of the benchmark fails when its output differs from these, so
regenerate this file only for a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import inputs
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _search_entry(lo_hi: tuple[int, int]) -> tuple[str, dict]:
    lo, hi = lo_hi
    mods = workloads.load_package()
    engine = mods["engine"]
    with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR / "out") as tmp:
        out = Path(tmp) / "results.jsonl"
        report = engine.search(engine.SearchConfig(range=mods["primes"].PrimeRange(lo, hi), output_path=str(out)))
        digest = workloads.sha256_bytes(out.read_bytes())
    return f"{lo}-{hi}", {"sha256": digest, "counters": report.counters.as_dict()}


def _fp_entry(limit: int) -> tuple[str, dict]:
    hist = workloads.load_package()["analytics"].fp_histogram(limit, jobs=1)
    return str(limit), {"sha256": workloads.sha256_bytes(workloads.histogram_bytes(hist)),
                        "primes_scanned": hist.primes_scanned, "min_f": hist.min_f}


def main() -> int:
    sys.path.insert(0, str(SRC))
    (workloads.BENCH_DIR / "out").mkdir(exist_ok=True)

    specs = [inputs.workload_inputs(name, seed) for seed in range(inputs.SHIFTS) for name in inputs.NAMES]
    specs += [inputs.workload_inputs(name, 0, tiny=True) for name in inputs.NAMES]
    ranges = sorted({(s["lo"], s["hi"]) for s in specs if "lo" in s})
    limits = sorted({s["limit"] for s in specs if "limit" in s})
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0)), initializer=sys.path.insert, initargs=(0, str(SRC))) as pool:
        search = dict(pool.map(_search_entry, ranges, chunksize=1))
        fp_hist = dict(pool.map(_fp_entry, limits, chunksize=1))
    reference = {"made_by": "perfbench/make_reference.py",
                 "search": dict(sorted(search.items(), key=lambda kv: int(kv[0].split("-")[0]))),
                 "fp_hist": fp_hist}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(search)} search and {len(fp_hist)} histogram references to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
