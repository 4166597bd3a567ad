#!/usr/bin/env python3
"""Layered benchmark for socprimes: one workload per call, one JSON result.

    python3 perfbench/run.py --workload tally_1e6 --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  The
workloads and their correctness checks live in workloads.py, the span
recorder behind --trace 1 in spans.py.

How a run measures (later changes must measure the same way):

* timings are machine-normalised.  The host this was built on (2 shared
  cores) changes speed by up to 1.5x within minutes, which moves every
  raw time together.  So a calibration loop (CAL_STEPS steps of
  f = f*k mod p, the inner step of the scan and of the witness recheck)
  runs before the first repetition and again after each one, for about
  CAL_SHARE of the repetition's time.
  Each repetition's time is scaled by CAL_NOMINAL_S / the mean of the
  median calibration times just before and just after it (CPU times use
  the loop's CPU time), and wall_s and cpu_s are the medians of these
  nominal seconds.  On a quiet machine where the loop takes CAL_NOMINAL_S,
  nominal and raw seconds agree.  Over two sets of ten 25 s runs (one
  seed each) on that host, the spread (interquartile range / median) of
  wall_s, raw against scaled, was 8% against 4% and 14% against 5% on
  tally_1e6, 10% against 5% and 21% against 5% on window_1e9, and 11%
  against 6% and 11% against 9% on fp_hist_3e4.  Raw medians are
  printed alongside and kept in the run record.  legs_1e8, whose work
  runs in two pool workers, is not scaled: a one-process loop does not
  track a two-process workload there (two loops side by side each run
  2-3x slower), and over 19 consecutive legs_1e8 repetitions the spread
  was 11% raw against 21% scaled by one loop and 20% by two loops side
  by side;
* the process is pinned to one CPU, and so are its calibration and its
  set-up children; a legs_1e8 repetition alone runs on every CPU.  The
  host's two CPUs change speed independently (a loop pinned to each
  read 0.10 s on one and 0.145 s on the other, and a few seconds later
  the other way round), so an unpinned process migrating between them is
  timed at a mix of speeds the calibration does not see;
* set-up is importing socprimes in a fresh interpreter and building the
  workload's inputs.  An untraced run samples it between the calibration
  passes after each repetition (so the samples spread over the run), at
  least SETUP_MIN times, and scales each sample by CAL_NOMINAL_S / the
  mean of the passes on either side; setup_s is the median.  This holds
  for every workload, legs_1e8 included, because its set-up samples and
  calibration passes run pinned to the same CPU;
* the workload repeats for --seconds: another repetition starts only if
  the previous one's duration still fits, and at least one runs (two with
  --trace 1).  wall_s and cpu_s are medians over repetitions;
  peak_rss_mb is the run's high-water mark over this process and every
  pool worker;
* cpu_s counts this process and its pool workers; workers that outlive a
  stop_after_segments leg are reaped before the CPU time is read;
* every repetition's output is checked against reference.json (digest and
  counters), and each distinct output once more in depth: every collision
  rechecked with recheck_witness, every cubic witness by direct product.
  A repetition that raises or fails a check counts as failed;
  success_rate = 1 - error_rate = (attempted - failed) / attempted;
* --trace 1 alternates untraced and traced repetitions and prints the
  per-layer metrics of the traced ones (medians, raw seconds) plus
  trace.overhead_frac, the traced median nominal wall time over the
  untraced one, minus 1.  legs_1e8 runs its layers in forked pool
  workers, whose spans are not collected: its per-layer figures are
  coordinator-side (engine.* and the counters).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A detailed record with the run metadata and every sample goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Least number of set-up samples per untraced run, and most taken after
#: one repetition.
SETUP_MIN = 9
SETUP_PER_BATCH = 3

#: Steps of the calibration loop, the seconds it takes on a quiet machine
#: (the reported durations are scaled to that speed), and the share of
#: each repetition's time spent calibrating after it.
CAL_STEPS = 1_500_000
CAL_NOMINAL_S = 0.1
CAL_SHARE = 0.08


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_metadata() -> dict:
    """Machine and code identity recorded with every result."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "socprimes").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "l3_cache": l3,
        "git_sha": git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


#: Run in a fresh interpreter: the timer covers the cold import of socprimes
#: and building the workload's inputs, nothing of the interpreter's start.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import inputs
t0 = time.perf_counter()
import socprimes
spec = inputs.workload_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
if "lo" in spec:
    socprimes.PrimeRange(spec["lo"], spec["hi"], spec["segment_size"] or socprimes.primes.DEFAULT_SEGMENT_SIZE)
print(time.perf_counter() - t0)
"""


def setup_sample(name: str, seed: int, tiny: bool) -> float:
    """Seconds one fresh process spends importing socprimes and building inputs."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed), "1" if tiny else "0"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


@contextlib.contextmanager
def on_cpus(cpus: set[int]):
    """Run the block with this process's CPU affinity set to `cpus`, then restore it."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def calibrate(passes: int) -> list[tuple[float, float]]:
    """Wall and CPU seconds of each of `passes` runs of the calibration loop."""
    out = []
    for _ in range(passes):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        f, p = 1, 999_999_937
        for k in range(2, CAL_STEPS):
            f = f * k % p
        out.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    return out


def _cal_medians(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Median wall and CPU seconds of a batch of calibration passes."""
    return statistics.median(w for w, _c in samples), statistics.median(c for _w, c in samples)


def measure(wl, seconds: float, trace: bool, out_stem: Path, setup, rep_cpus: set[int]) -> dict:
    """Repeat the workload for about `seconds`, then check every output.

    Each repetition runs with CPU affinity `rep_cpus`, the rest of the run
    with the affinity it was called with.
    setup() takes one set-up sample.  An untraced run takes up to
    SETUP_PER_BATCH of them between the calibration passes after each
    repetition and tops them up to SETUP_MIN afterwards.  Samples are raw
    (wall, cpu, calibration wall, calibration cpu) seconds per repetition,
    the calibration being the mean of the medians around it, and raw
    (seconds, calibration wall) per set-up, the calibration being the mean
    of the passes on either side.
    """
    untraced, traced, layer_samples, setup_times = [], [], [], []
    reps: list[tuple[str | None, list[str]]] = []  # (output digest, problems) per repetition
    first_output = {}  # digest -> first Outcome with it, for the deep check
    last_rec = None

    def calibrate_with_setup(passes: int, setups: int) -> list[tuple[float, float]]:
        """`passes` calibration passes, the first `setups` gaps each holding a set-up sample."""
        batch = calibrate(1)
        for i in range(passes - 1):
            sample = setup() if i < setups else None
            batch += calibrate(1)
            if sample is not None:
                setup_times.append((sample, (batch[-2][0] + batch[-1][0]) / 2))
        return batch

    cal = calibrate(2)
    cal_before = _cal_medians(cal)
    started = time.perf_counter()
    while True:
        use_trace = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        outcome = None
        try:
            with on_cpus(rep_cpus):
                if use_trace:
                    rec = spans.Recorder()
                    targets = () if wl.pooled else spans.LAYER_TARGETS
                    with rec.installed(wl.mods, targets):
                        outcome = wl.run_once(rec)
                else:
                    outcome = wl.run_once()
            errs = wl.check(outcome)
        except Exception:
            reps.append((None, [f"raised:\n{traceback.format_exc()}"]))
        else:
            reps.append((outcome.digest, errs))
            first_output.setdefault(outcome.digest, outcome)
            if use_trace:
                layer_samples.append(spans.layer_metrics(rec, outcome.counts, wl.mods["verifier"].default_cap))
                last_rec = rec
        passes = max(1, round(CAL_SHARE * (time.perf_counter() - t0) / CAL_NOMINAL_S))
        after = calibrate(passes) if trace else calibrate_with_setup(passes + 1, SETUP_PER_BATCH)
        cal += after
        cal_after = _cal_medians(after)
        if outcome is not None:
            cal_wall, cal_cpu = ((b + a) / 2 for b, a in zip(cal_before, cal_after))
            (traced if use_trace else untraced).append((outcome.wall_s, outcome.cpu_s, cal_wall, cal_cpu))
        cal_before = cal_after
        rep_s = time.perf_counter() - t0
        if len(reps) >= (2 if trace else 1) and time.perf_counter() - started + rep_s > seconds:
            break

    if not trace and len(setup_times) < SETUP_MIN:
        missing = SETUP_MIN - len(setup_times)
        cal += calibrate_with_setup(missing + 1, missing)
    deep = {}
    for digest, outcome in first_output.items():
        try:
            deep[digest] = wl.deep_check(outcome)
        except Exception:
            deep[digest] = [f"deep check raised:\n{traceback.format_exc()}"]
    problems = []
    for i, (digest, errs) in enumerate(reps, 1):
        errs = errs + deep.get(digest, [])
        problems.extend(f"repetition {i}: {e}" for e in errs)
    if last_rec is not None:
        last_rec.write_csv(out_stem.with_suffix(".spans.csv"))
    return {"untraced": untraced, "traced": traced, "layers": layer_samples, "setup": setup_times,
            "calibration": cal, "attempted": len(reps),
            "failed": sum(1 for digest, errs in reps if errs or deep.get(digest)), "problems": problems}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _nominal(samples, cpu: bool = False, scaled: bool = True) -> float:
    """Median of the repetitions' wall (or CPU) seconds, scaled to the nominal machine speed if `scaled`."""
    t, c = (1, 3) if cpu else (0, 2)
    return _median(s[t] * (CAL_NOMINAL_S / s[c] if scaled else 1.0) for s in samples)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few milliseconds (for the self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "socprimes" / "__init__.py").is_file():
        print(f"error: no socprimes package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    meta = run_metadata()
    wl = workloads.make_workload(args.workload, args.seed, workloads.load_package(), work_dir,
                                 workloads.load_reference(), args.tiny)
    all_cpus = os.sched_getaffinity(0)
    # calibration and set-up children share one CPU, and so does the workload unless it uses the pool
    cpus = {min(all_cpus)}
    rep_cpus = all_cpus if wl.pooled else cpus
    with on_cpus(cpus):
        result = measure(wl, args.seconds, bool(args.trace), stem,
                         lambda: setup_sample(args.workload, args.seed, args.tiny), rep_cpus)
    attempted, failed = result["attempted"], result["failed"]
    untraced = result["untraced"]
    raw = {"wall_s": _median(s[0] for s in untraced), "cpu_s": _median(s[1] for s in untraced),
           "setup_s": _median(r for r, _cw in result["setup"]),
           "calibration_wall_s": _median(w for w, _c in result["calibration"]),
           "calibration_cpu_s": _median(c for _w, c in result["calibration"])}

    scaled = not wl.pooled
    if args.trace:
        units = metric_units("per_layer")
        names = [n for n in units if n != "trace.overhead_frac"]
        values = {n: _median(s[n] for s in result["layers"]) for n in names}
        traced, untraced_wall = _nominal(result["traced"], scaled=scaled), _nominal(untraced, scaled=scaled)
        values["trace.overhead_frac"] = traced / untraced_wall - 1.0 if traced and untraced_wall else 0.0
    else:
        units = metric_units("end_to_end")
        values = {
            "wall_s": _nominal(untraced, scaled=scaled),
            "cpu_s": _nominal(untraced, cpu=True, scaled=scaled),
            "setup_s": _median(r * CAL_NOMINAL_S / cw for r, cw in result["setup"]),
            "peak_rss_mb": workloads.peak_rss_mb(),
            "success_rate": (attempted - failed) / attempted,
        }
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                tiny=args.tiny, inputs=wl.inputs, cal_steps=CAL_STEPS, cal_nominal_s=CAL_NOMINAL_S, scaled=scaled,
                cpus=sorted(cpus), rep_cpus=sorted(rep_cpus),
                repetitions={"untraced": len(untraced), "traced": len(result["traced"])},
                error_rate=failed / attempted, raw_medians=raw)
    if args.workload == "legs_1e8" and not args.tiny and any(s[1] < s[0] for s in untraced):
        meta["warning"] = "cpu_s < wall_s on a 2-worker run: pool worker CPU may be missing"
        print(f"warning: {meta['warning']}", file=sys.stderr)
    record = {"meta": meta, "setup_s": result["setup"], "samples": untraced, "traced_samples": result["traced"],
              "calibration": result["calibration"], "problems": result["problems"], "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    for path in work_dir.iterdir():
        path.unlink()

    for problem in result["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(f"{args.workload}: {attempted} repetitions attempted, {failed} failed, error_rate {failed / attempted}")
    print("  raw medians: " + ", ".join(f"{k} {v}" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
