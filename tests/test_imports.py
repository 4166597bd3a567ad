"""The package runs on the standard library alone (pyproject: dependencies = [])."""

import subprocess
import sys
from pathlib import Path

import socprimes

PROBE = """
import sys
before = set(sys.modules)
import socprimes
main = sys.modules["__main__"]
# multiprocessing registers __main__ again as __mp_main__
print("\\n".join(sorted(m for m in set(sys.modules) - before if sys.modules[m] is not main)))
print("hashlib" in sys.modules)
"""


def test_import_loads_only_stdlib_and_no_hashlib():
    # a fresh interpreter without site, so only what the import pulls in shows
    src = str(Path(socprimes.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    *loaded, hashlib_loaded = done.stdout.split()
    assert "socprimes" in loaded
    foreign = [m for m in loaded
               if m != "socprimes" and not m.startswith("socprimes.")
               and m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    # engine imports hashlib on first use only: it loads OpenSSL at import
    assert hashlib_loaded == "False"
