"""Command line front end.

Exit codes: 0 success, 1 runtime failure (a bad checkpoint, I/O, or a dead
pool worker, after which a checkpointed rerun resumes), 2 a socialist
verdict was produced somewhere (that is the headline result, so it gets
its own code), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analytics import (
    DEFAULT_HISTOGRAM_BUDGET,
    expected_count_log,
    fp_histogram,
    heuristic,
    scientific_from_log,
)
from .engine import RangeReport, SearchConfig, count_filters, resume, search
from .filters import OUTCOMES
from .primes import PrimeRange, segment_size_for
from .verifier import VerdictKind, verify_distinct

__all__ = ["LABELS", "main"]

#: Exit 1 here and in scripts/search_billion.py; CheckpointError and BrokenProcessPool are RuntimeErrors.
_RUNTIME_ERRORS = (RuntimeError, OSError, MemoryError, ArithmeticError)

#: Report label of each counter, keyed by its name in Counters and FilterCounts.
LABELS = {
    "examined": "examined",
    "rejected_mod8": "rejected mod 8",
    "rejected_legendre5": "rejected (5/p)",
    "rejected_legendre23": "rejected (-23/p)",
    "rejected_cubic": "rejected cubic",
    "candidates": "candidates",
    "collisions": "collisions",
    "neg_half_hits": "neg-half hits",
    "socialist": "socialist",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _report_as_dict(report: RangeReport) -> dict:
    c = report.counters
    return {
        "lo": report.lo,
        "hi": report.hi,
        "completed_through": report.completed_through,
        "complete": report.complete,
        "counters": c.as_dict(),
        "stage1_survivors": c.stage1_survivors,
        "stage2_survivors": c.stage2_survivors,
        "socialist": report.socialist_primes,
        "output": report.output_path,
        "wall_seconds": round(report.wall_seconds, 3),
        "resumed": report.resumed,
    }


def _print_report(report: RangeReport) -> None:
    status = "complete" if report.complete else f"paused at {report.completed_through}"
    suffix = " (resumed)" if report.resumed else ""
    print(f"search [{report.lo}, {report.hi}) {status} in {report.wall_seconds:.1f}s{suffix}")
    for name, value in report.counters.as_dict().items():
        print(f"  {LABELS[name]:<18}{value}")
    print(f"  {'results file':<18}{report.output_path}")
    for p in report.socialist_primes:
        print(f"!!! SOCIALIST PRIME FOUND: {p} (re-proved by a second full scan)")


def _cmd_search(args: argparse.Namespace) -> int:
    if args.checkpoint and os.path.exists(args.checkpoint):
        report = resume(args.checkpoint, args.out, args.threads, args.stop_after_segments, lo=args.lo, hi=args.hi,
                        strict_cubic=args.strict_cubic)
    else:
        if args.lo is None or args.hi is None:
            args.parser.error("--from and --to are required unless resuming from a checkpoint")
        # --strict-cubic defaults to None so that a resume can tell "not
        # given" from a value the checkpoint must match
        size = segment_size_for(args.lo, args.hi, args.threads)
        config = SearchConfig(
            range=PrimeRange(args.lo, args.hi, size),
            output_path=args.out or "results.jsonl",
            threads=args.threads,
            strict_cubic=bool(args.strict_cubic),
            checkpoint_path=args.checkpoint,
            checkpoint_interval=max(1, 2**20 // size),  # about 2^20 numbers between checkpoints
            stop_after_segments=args.stop_after_segments,
        )
        report = search(config)
    if args.json:
        print(json.dumps(_report_as_dict(report)))
    else:
        _print_report(report)
    return 2 if report.socialist_primes else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    verdict = verify_distinct(args.p)
    if args.json:
        print(json.dumps({**verdict._asdict(), "kind": verdict.kind.value}))
    else:
        p = verdict.p
        if verdict.kind is VerdictKind.COLLISION:
            print(f"p={p}: Collision {verdict.j}! == {verdict.k}! == {verdict.residue} (mod {p})")
        else:
            print(f"p={p}: SOCIALIST, 2! .. {p - 1}! are pairwise distinct mod {p}")
    return 2 if verdict.kind is VerdictKind.SOCIALIST else 0


def _cmd_filter_counts(args: argparse.Namespace) -> int:
    PrimeRange(args.lo, args.hi)  # refuses the ranges search refuses
    counts = count_filters(args.lo, args.hi, strict=args.strict_cubic)
    if args.json:
        print(json.dumps(counts._asdict()))
        return 0
    print(f"{'primes examined':<20}{counts.examined}")
    for name in OUTCOMES:
        print(f"{LABELS[name]:<20}{getattr(counts, name)}")
    print(f"{'stage-1 survivors':<20}{len(counts.stage1_survivors)}")
    print(f"{'stage-2 survivors':<20}{len(counts.stage2_survivors)}")
    if 0 < len(counts.stage1_survivors) <= 200:  # longer lists only in --json
        print("stage-1 survivors:", " ".join(str(p) for p in counts.stage1_survivors))
    return 0


def _cmd_fp_stats(args: argparse.Namespace) -> int:
    hist = fp_histogram(args.max, jobs=args.jobs)
    alarm = [p for p in hist.min_f_primes if p > 5] if hist.min_f == 2 else []
    if args.json:
        print(json.dumps({
            "limit": hist.limit,
            "primes_scanned": hist.primes_scanned,
            "counts": hist.counts,
            "min_f": hist.min_f,
            "min_f_primes": list(hist.min_f_primes),
            "socialist": alarm,
        }))
    else:
        for f_value, n in hist.counts.items():
            print(f"{f_value} {n}")
        if hist.min_f is None:
            print(f"# no primes below {hist.limit}")
        else:
            sample = " ".join(str(p) for p in hist.min_f_primes[:8])
            print(f"# {hist.primes_scanned} primes below {hist.limit}; min F = {hist.min_f} at {sample}")
        for p in alarm:
            print(f"!!! F({p}) = 2: {p} is a SOCIALIST PRIME")
    return 2 if alarm else 0


def _scientific(ln_x: float) -> str:
    """e^ln_x as text, the mantissa rounded to three decimals and kept below 10."""
    m, e10 = scientific_from_log(ln_x)
    if round(m, 3) >= 10:
        m, e10 = m / 10, e10 + 1
    return f"{m:.3f}e{e10}"


def _cmd_heuristic(args: argparse.Namespace) -> int:
    if args.p is not None and (args.lo is not None or args.hi is not None):
        args.parser.error("give either --p or --from/--to, not both")
    if args.p is not None:
        est = heuristic(args.p)
        if args.json:
            em, ee = scientific_from_log(est.log_exact)
            lm, le = scientific_from_log(est.limit_exponent)
            print(json.dumps({
                "p": est.p,
                "log_exact": est.log_exact,
                "exact": {"mantissa": em, "exp10": ee},
                "limit_exponent": est.limit_exponent,
                "limit": {"mantissa": lm, "exp10": le},
            }))
        else:
            print(
                f"p={est.p}: exact {_scientific(est.log_exact)} (ln = {est.log_exact:.4f}), "
                f"limit e^{est.limit_exponent} = {_scientific(est.limit_exponent)}"
            )
        return 0
    if args.lo is None or args.hi is None:
        args.parser.error("need --p, or both --from and --to")
    log_sum = expected_count_log(args.lo, args.hi)
    empty = log_sum == float("-inf")
    if args.json:
        m, e = (0.0, 0) if empty else scientific_from_log(log_sum)
        print(json.dumps({"lo": args.lo, "hi": args.hi, "log_expected": None if empty else log_sum,
                          "expected": {"mantissa": m, "exp10": e}}))
    elif empty:
        print(f"expected socialist primes in [{args.lo}, {args.hi}): 0 (empty range)")
    else:
        print(f"expected socialist primes in [{args.lo}, {args.hi}): {_scientific(log_sum)} (ln = {log_sum:.4f})")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="socprimes",
        description="Search for socialist primes: p > 5 with 2!, 3!, ..., (p-1)! pairwise distinct mod p.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    sp = sub.add_parser("search", help="filter a prime range and fully verify the survivors")
    sp.add_argument("--from", dest="lo", type=int, metavar="N", help="range start, inclusive")
    sp.add_argument("--to", dest="hi", type=int, metavar="N", help="range end, exclusive")
    sp.add_argument("--out", metavar="PATH", help="results JSONL file (default results.jsonl, or the checkpoint's)")
    sp.add_argument("--checkpoint", metavar="PATH", help="checkpoint file; if it exists the run resumes from it")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1, metavar="N",
                    help="worker processes (default the CPU count)")
    sp.add_argument("--strict-cubic", action="store_true", default=None,
                    help="test every cubic root even when (1957/p) = +1 (a resume must match the checkpoint's)")
    sp.add_argument("--stop-after-segments", type=int, metavar="N",
                    help="commit N segments, rounded up to a multiple of --threads, write a checkpoint, and stop; "
                         "a segment is 2^16 to 2^22 numbers, worked out from the range (see README)")
    sp.add_argument("--json", action="store_true", help="emit the final report as JSON")
    sp.set_defaults(func=_cmd_search, parser=sp)

    vp = sub.add_parser("verify", help="scan one p for a factorial duplicate")
    vp.add_argument("p", type=int, help="odd number >= 5 to scan")
    vp.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    vp.set_defaults(func=_cmd_verify, parser=vp)

    fp = sub.add_parser("filter-counts", help="tally filter verdicts over a range, no scanning")
    fp.add_argument("--from", dest="lo", type=int, required=True, metavar="N", help="range start, inclusive")
    fp.add_argument("--to", dest="hi", type=int, required=True, metavar="N", help="range end, exclusive")
    fp.add_argument("--strict-cubic", action="store_true",
                    help="test every cubic root even when (1957/p) = +1")
    fp.add_argument("--json", action="store_true", help="emit counts and survivor lists as JSON")
    fp.set_defaults(func=_cmd_filter_counts, parser=fp)

    hp = sub.add_parser("fp-stats", help="histogram of F(p), the count of residues factorials miss")
    hp.add_argument("--max", type=int, required=True, metavar="N",
                    help=f"scan primes 5 <= p < N; N above {DEFAULT_HISTOGRAM_BUDGET} is refused")
    hp.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel scan processes (default 1)")
    hp.add_argument("--json", action="store_true", help="emit the histogram as JSON")
    hp.set_defaults(func=_cmd_fp_stats, parser=hp)

    ep = sub.add_parser("heuristic", help="independence-model survival probabilities")
    ep.add_argument("--p", type=int, metavar="P", help="single prime form")
    ep.add_argument("--from", dest="lo", type=int, metavar="N", help="range start for the expected count")
    ep.add_argument("--to", dest="hi", type=int, metavar="N", help="range end for the expected count")
    ep.add_argument("--json", action="store_true", help="emit the estimate as JSON")
    ep.set_defaults(func=_cmd_heuristic, parser=ep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 64
    except _RUNTIME_ERRORS as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
