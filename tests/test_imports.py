"""What importing the package loads, checked in fresh interpreters.

The package runs on the standard library alone (pyproject: dependencies =
[]), and a one-process run loads none of the process pool machinery.
pytest has already loaded multiprocessing, threading and logging in its
own process, so only a child interpreter shows what the import pulls in,
or that a pooled run still finds what it imports at call time.
"""

import functools
import subprocess
import sys
from pathlib import Path

import socprimes

SRC = str(Path(socprimes.__file__).resolve().parents[1])

PROBE = """
import sys
before = set(sys.modules)
import socprimes
main = sys.modules["__main__"]
# multiprocessing, if anything loads it, registers __main__ again as __mp_main__
print("\\n".join(sorted(m for m in set(sys.modules) - before if sys.modules[m] is not main)))
"""

#: Top-level stdlib packages that a threads=1 search, verify, filter-counts
#: and fp_histogram(jobs=1) never use: the pool, what it pulls in, and typing.
COLD = {"concurrent", "multiprocessing", "threading", "logging", "typing"}

POOLED = """
import os, sys, tempfile
from socprimes import PrimeRange, SearchConfig, fp_histogram, search
with tempfile.TemporaryDirectory() as tmp:
    outputs = []
    for threads in (1, 2):
        path = os.path.join(tmp, f"t{threads}.jsonl")
        search(SearchConfig(range=PrimeRange(7, 20000, 2048), output_path=path, threads=threads))
        with open(path, "rb") as fh:
            outputs.append(fh.read())
assert outputs[0] and outputs[0] == outputs[1], "threads=2 wrote other bytes than threads=1"
assert fp_histogram(300, jobs=2) == fp_histogram(300), "jobs=2 histogram differs"
assert "concurrent.futures.process" in sys.modules and "multiprocessing.pool" in sys.modules
print("ok")
"""


def run_child(code: str) -> str:
    # a fresh interpreter without site, so only what the code pulls in shows
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC}, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@functools.cache
def loaded_by_import() -> tuple[str, ...]:
    return tuple(run_child(PROBE).split())


def test_import_loads_only_stdlib_and_no_hashlib():
    loaded = loaded_by_import()
    assert "socprimes" in loaded
    foreign = [m for m in loaded
               if m != "socprimes" and not m.startswith("socprimes.")
               and m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    # engine imports hashlib on first use only: it loads OpenSSL at import
    assert "hashlib" not in loaded


def test_import_loads_no_pool_logging_or_typing():
    loaded = loaded_by_import()
    assert "socprimes.engine" in loaded and "socprimes.analytics" in loaded
    assert [m for m in loaded if m.partition(".")[0] in COLD] == []


def test_pooled_runs_in_fresh_interpreter():
    assert run_child(POOLED).split() == ["ok"]
