"""In-memory span recording around the public calls of each socprimes layer.

A Recorder swaps timing wrappers onto the module attributes that callers
look up at call time (``socprimes.engine.run_pipeline`` and so on), so the
package source is untouched.  Each call records one span (name, start,
end, parent); self time is a span's duration minus its children's.

Spans live only in the process that records them.  Pool workers forked by
a multi-worker search would record into their own copies and lose them on
exit, so a multi-worker workload installs only coordinator-side spans.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from math import ceil, sqrt
from time import perf_counter_ns

#: (module, attribute, span name) for every wrapped call site.  The engine
#: binds its imports by name, so engine-side attributes are wrapped on the
#: engine module; enumerate_primes and run_pipeline resolve theirs in
#: primes and filters.
LAYER_TARGETS = (
    ("primes", "primes_in_segment", "primes.sieve"),
    ("engine", "primes_in_segment", "primes.sieve"),
    ("engine", "run_pipeline", "filters.pipeline"),
    ("filters", "stage_mod8", "filters.stage0"),
    ("filters", "stage_legendre", "filters.stage1"),
    ("filters", "stage_cubic", "filters.stage2"),
    ("filters", "cubic_roots", "polycong.cubic_roots"),
    ("engine", "verify_distinct", "verifier.scan"),
    ("engine", "recheck_witness", "verifier.recheck"),
    ("engine", "factorial_mod", "verifier.recheck"),
    ("analytics", "fp_statistic", "analytics.fp_statistic"),
)


class Recorder:
    """Collects spans for one traced repetition of a workload."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.scans: list[tuple[int, int, str]] = []  # (p, scanned_up_to, verdict kind)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append((name, 0, 0, -1))
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        # span()'s bookkeeping is inlined here, without a context manager,
        # because stage_mod8 alone is wrapped once per examined prime
        spans, stack, scans = self.spans, self._stack, self.scans
        is_scan = name == "verifier.scan"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0, 0, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if is_scan:
                scans.append((result.p, result.scanned_up_to, result.kind.value))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, modules: dict, targets=LAYER_TARGETS):
        """Wrap each target attribute for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span_name in targets:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(span_name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent), kids in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - kids) / 1e9
        return out

    def durations_s(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for n, start, end, _p in self.spans if n == name]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, ceil(len(ordered) * q)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, counts: dict, default_cap) -> dict[str, float]:
    """Per-layer metric values for one traced repetition.

    counts carries what the workload itself knows: the search counters
    (zero for the histogram), legs, segments committed, results bytes,
    primes yielded by the sieve, residues scanned by fp_statistic and the
    repetition's CPU seconds.
    """
    t = rec.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    get = lambda name: t.get(name, zero)  # noqa: E731
    c = counts
    examined = c.get("examined", 0)
    stage1_in = examined - c.get("rejected_mod8", 0)
    stage2_in = c.get("rejected_cubic", 0) + c.get("collisions", 0) + c.get("neg_half_hits", 0) + c.get("socialist", 0)
    stage2_calls = get("filters.stage2")["calls"]
    roots_calls = get("polycong.cubic_roots")["calls"]
    roots_us = [d * 1e6 for d in rec.durations_s("polycong.cubic_roots")]
    scan_ms = [d * 1e3 for d in rec.durations_s("verifier.scan")]
    escalations = sum(1 for p, upto, _k in rec.scans if upto > default_cap(p) + 1)
    repeats = [upto / sqrt(p) for p, upto, kind in rec.scans if kind == "Collision"]
    engine_self = sum(get(n)["self_s"] for n in ("engine.search", "engine.resume"))
    segments = c.get("segments", 0)
    return {
        "primes.sieve_s": get("primes.sieve")["s"],
        "primes.sieve_calls": get("primes.sieve")["calls"],
        "primes.primes_out": c.get("primes_out", 0),
        "filters.stage0_s": get("filters.stage0")["s"],
        "filters.stage1_s": get("filters.stage1")["s"],
        "filters.stage2_s": get("filters.stage2")["s"],
        "filters.stage0_attempted": examined,
        "filters.stage0_reject_ratio": _ratio(c.get("rejected_mod8", 0), examined),
        "filters.stage1_attempted": stage1_in,
        "filters.stage1_reject_ratio": _ratio(c.get("rejected_legendre5", 0) + c.get("rejected_legendre23", 0), stage1_in),
        "filters.stage2_attempted": stage2_in,
        "filters.stage2_shortcut_ratio": _ratio(stage2_calls - roots_calls, stage2_calls),
        "filters.stage2_reject_ratio": _ratio(c.get("rejected_cubic", 0), stage2_in),
        "polycong.cubic_roots_s": get("polycong.cubic_roots")["s"],
        "polycong.cubic_roots_calls": roots_calls,
        "polycong.cubic_roots_us_p50": _quantile(roots_us, 0.5),
        "polycong.cubic_roots_us_p99": _quantile(roots_us, 0.99),
        "verifier.scan_s": get("verifier.scan")["s"],
        "verifier.scan_calls": get("verifier.scan")["calls"],
        "verifier.scan_ms_p50": _quantile(scan_ms, 0.5),
        "verifier.scan_ms_p90": _quantile(scan_ms, 0.9),
        "verifier.recheck_s": get("verifier.recheck")["s"],
        "verifier.recheck_calls": get("verifier.recheck")["calls"],
        "verifier.escalations": escalations,
        "verifier.first_repeat_over_sqrtp_p50": statistics.median(repeats) if repeats else 0.0,
        "engine.self_s": engine_self,
        "engine.legs": c.get("legs", 0),
        "engine.segments_committed": segments,
        "engine.cpu_s_per_segment": _ratio(c.get("cpu_s", 0.0), segments),
        "engine.results_bytes": c.get("results_bytes", 0),
        "analytics.fp_statistic_s": get("analytics.fp_statistic")["s"],
        "analytics.fp_statistic_calls": get("analytics.fp_statistic")["calls"],
        "analytics.ns_per_residue": _ratio(get("analytics.fp_statistic")["s"] * 1e9, c.get("residues", 0)),
    }
