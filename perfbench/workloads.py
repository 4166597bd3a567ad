"""The four benchmark workloads and their correctness checks.

Each workload is a closed batch driven from one process.  A repetition
runs the workload once through the public socprimes API; its check then
compares the output with the stored reference in reference.json (made by
make_reference.py) and re-derives witnesses from outside the engine.

Why these four (every one but legs_1e8 runs threads=1 with default flags):

* tally_1e6: search over [7, 10^6), the paper's committed tallies.  The
  only range where the filters and the cubic root finding carry a large
  share, so a filter change shows here and not on window_1e9.
* window_1e9: search over a 2^18 window just below 10^9, the target
  regime.  Scan and witness recheck are about 98% of its time, so a
  verifier change shows here and a filter change does not.
* legs_1e8: a 2^20 window at 10^8 on 2 workers, driven like
  scripts/search_billion.py: search with stop_after_segments=4, then
  resume until complete (4 legs).  The only workload that exercises the
  process pool, ordered commit, checkpoint writes and resume truncation.
* fp_hist_3e4: fp_histogram(30000), the paper's F(p) statistic; the
  analytics layer shares almost no code with the search.

Inputs per seed come from inputs.py.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Modules a Recorder may wrap, by short name.
LAYER_MODULES = ("primes", "filters", "polycong", "verifier", "engine", "analytics")

#: The search counters that each examined prime lands in exactly once.
VERDICT_COUNTERS = ("rejected_mod8", "rejected_legendre5", "rejected_legendre23", "rejected_cubic",
                    "collisions", "neg_half_hits", "socialist")


def load_package() -> dict:
    """Import socprimes and return its layer modules by short name."""
    import socprimes  # noqa: F401  (the caller puts src/ on sys.path)

    return {name: sys.modules[f"socprimes.{name}"] for name in LAYER_MODULES}


def children_cpu_s() -> float:
    """CPU seconds of every child process reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def reap_children(timeout: float = 120.0) -> None:
    """Wait for every multiprocessing child still alive.

    When stop_after_segments ends a leg, the engine shuts its pool down
    with wait=False, so workers can outlive the call.  RUSAGE_CHILDREN
    counts a child only once it is reaped, so CPU time is read after this.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if pid_exists(child.pid):
            raise RuntimeError(f"pool worker {child.pid} still alive after {timeout} s")


def pid_exists(pid: int) -> bool:
    """Whether the kernel still holds process `pid`, running or unreaped.

    Process.is_alive() stays true for a child that the pool's management
    thread reaped concurrently, so it cannot answer this.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any reaped child, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one repetition produced, before checking."""

    wall_s: float
    cpu_s: float
    digest: str
    output: bytes
    counts: dict = field(default_factory=dict)


class SearchWorkload:
    """search() over one range, optionally in checkpointed stop/resume legs."""

    def __init__(self, name: str, mods: dict, lo: int, hi: int, work_dir: Path, reference: dict, *,
                 threads: int, segment_size: int | None, stop_after: int | None) -> None:
        self.name = name
        self.mods = mods
        self.lo, self.hi = lo, hi
        self.threads = threads
        self.segment_size = segment_size or mods["primes"].DEFAULT_SEGMENT_SIZE
        self.stop_after = stop_after
        self.results_path = work_dir / f"{name}.jsonl"
        self.checkpoint_path = work_dir / f"{name}.ckpt"
        key = f"{lo}-{hi}"
        if key not in reference["search"]:
            raise KeyError(f"reference.json has no entry for search range {key}; rerun make_reference.py")
        self.reference = reference["search"][key]

    @property
    def inputs(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "threads": self.threads,
                "segment_size": self.segment_size, "stop_after_segments": self.stop_after}

    @property
    def pooled(self) -> bool:
        """Whether the work runs in pool workers rather than in this process."""
        return self.threads > 1

    def run_once(self, rec=None) -> Outcome:
        engine = self.mods["engine"]
        rng = self.mods["primes"].PrimeRange(self.lo, self.hi, self.segment_size)
        for path in (self.results_path, self.checkpoint_path):
            path.unlink(missing_ok=True)
        config = engine.SearchConfig(
            range=rng,
            output_path=str(self.results_path),
            threads=self.threads,
            checkpoint_path=str(self.checkpoint_path) if self.stop_after else None,
            checkpoint_interval=16,
            stop_after_segments=self.stop_after,
        )
        span = rec.span if rec is not None else (lambda _name: nullcontext())
        segments = 0
        wall0, cpu0, child0 = time.perf_counter(), time.process_time(), children_cpu_s()
        with span("engine.search"):
            report = engine.search(config)
        legs = [report]
        while not report.complete:
            with span("engine.resume"):
                report = engine.resume(str(self.checkpoint_path), threads=self.threads,
                                       stop_after_segments=self.stop_after)
            legs.append(report)
        wall = time.perf_counter() - wall0
        reap_children()
        cpu = time.process_time() - cpu0 + children_cpu_s() - child0

        done = self.lo
        for leg in legs:
            segments += (leg.completed_through - done + self.segment_size - 1) // self.segment_size
            done = leg.completed_through
        output = self.results_path.read_bytes()
        counts = dict(report.counters.as_dict())
        counts.update(complete=report.complete,
                      legs=len(legs), segments=segments, results_bytes=len(output),
                      primes_out=report.counters.examined, cpu_s=cpu)
        return Outcome(wall, cpu, sha256_bytes(output), output, counts)

    def check(self, outcome: Outcome) -> list[str]:
        """Cheap checks, run on every repetition."""
        problems = []
        c = outcome.counts
        if not c["complete"]:
            problems.append("search did not complete its range")
        if c["examined"] != sum(c[k] for k in VERDICT_COUNTERS):
            problems.append("counters do not partition examined")
        got = {k: c[k] for k in self.reference["counters"]}
        if got != self.reference["counters"]:
            problems.append(f"counters {got} differ from reference {self.reference['counters']}")
        if outcome.digest != self.reference["sha256"]:
            problems.append(f"results sha256 {outcome.digest} differs from reference {self.reference['sha256']}"
                            " (an uninterrupted threads=1 run of the same range)")
        return problems

    def deep_check(self, outcome: Outcome) -> list[str]:
        """Re-derive every witness in one output from outside the engine."""
        verifier = self.mods["verifier"]
        problems = []
        tally = {"RejectedCubic": 0, "Collision": 0, "NegHalfHit": 0, "Socialist": 0}
        prev = self.lo - 1
        for line in outcome.output.decode("ascii").splitlines():
            rec = json.loads(line)
            p, kind, w = rec["p"], rec["outcome"], rec.get("witness", {})
            tally[kind] += 1
            if not prev < p < self.hi:
                problems.append(f"record p={p} out of order or outside [{self.lo}, {self.hi})")
            prev = p
            if kind == "Collision":
                if not (2 <= w["j"] < w["k"] <= p - 1 and verifier.recheck_witness(p, w["j"], w["k"])):
                    problems.append(f"collision witness {w} for p={p} fails recheck_witness")
            elif kind == "RejectedCubic":
                x, prod = w["x"], 1
                for i in range(6):
                    prod = prod * (x + i) % p
                if not (1 <= x <= p - 6 and prod == 1 and x * (x + 5) % p == w["y"]):
                    problems.append(f"cubic witness {w} for p={p} fails x(x+1)...(x+5) == 1")
            elif kind == "NegHalfHit":
                half = verifier.factorial_mod((p - 1) // 2, p)
                if verifier.factorial_mod(w["k"], p) != w["residue"] or w["residue"] != p - half:
                    problems.append(f"neg-half witness {w} for p={p} fails its recheck")
        c = outcome.counts
        expected = {"RejectedCubic": c["rejected_cubic"], "Collision": c["collisions"],
                    "NegHalfHit": c["neg_half_hits"], "Socialist": c["socialist"]}
        if tally != expected:
            problems.append(f"record kinds {tally} do not match counters {expected}")
        return problems


class FpHistWorkload:
    """fp_histogram(limit, jobs=1): the analytics layer."""

    pooled = False

    def __init__(self, name: str, mods: dict, limit: int, reference: dict) -> None:
        self.name = name
        self.mods = mods
        self.limit = limit
        key = str(limit)
        if key not in reference["fp_hist"]:
            raise KeyError(f"reference.json has no entry for fp_hist limit {key}; rerun make_reference.py")
        self.reference = reference["fp_hist"][key]
        primes = mods["primes"].small_primes(limit - 1)[2:]  # 5 <= p < limit
        self.prime_count = len(primes)
        self.residues = sum(p - 1 for p in primes)

    @property
    def inputs(self) -> dict:
        return {"limit": self.limit, "jobs": 1}

    def run_once(self, rec=None) -> Outcome:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        hist = self.mods["analytics"].fp_histogram(self.limit, jobs=1)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        output = histogram_bytes(hist)
        counts = {"primes_out": hist.primes_scanned, "residues": self.residues, "hist": hist}
        return Outcome(wall, cpu, sha256_bytes(output), output, counts)

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        hist = outcome.counts["hist"]
        if sum(hist.counts.values()) != hist.primes_scanned or hist.primes_scanned != self.prime_count:
            problems.append("histogram counts do not partition the primes in [5, limit)")
        # F(5) = 2 is the only socialist value; above 5 the floor is F(7) = 3
        if hist.counts.get(2) != 1 or hist.min_f_primes != (5,) or min(f for f in hist.counts if f > 2) != 3:
            problems.append(f"histogram floor is wrong: {hist.counts}")
        if outcome.digest != self.reference["sha256"]:
            problems.append(f"histogram sha256 {outcome.digest} differs from reference {self.reference['sha256']}")
        return problems

    def deep_check(self, outcome: Outcome) -> list[str]:
        return []


def histogram_bytes(hist) -> bytes:
    """Canonical JSON of an FpHistogram, the form its digest is taken over."""
    doc = {"limit": hist.limit, "counts": {str(f): n for f, n in hist.counts.items()},
           "primes_scanned": hist.primes_scanned, "min_f": hist.min_f,
           "min_f_primes": list(hist.min_f_primes)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def make_workload(name: str, seed: int, mods: dict, work_dir: Path, reference: dict, tiny: bool = False):
    """Build one workload for a seed."""
    spec = inputs.workload_inputs(name, seed, tiny)
    if "limit" in spec:
        return FpHistWorkload(name, mods, spec.pop("limit"), reference)
    return SearchWorkload(name, mods, spec.pop("lo"), spec.pop("hi"), work_dir, reference, **spec)
