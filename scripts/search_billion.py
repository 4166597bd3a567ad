#!/usr/bin/env python3
"""Drive the search over [7, 10^9) in resumable legs with progress lines.

The whole run takes a few CPU-hours single-threaded.  It can be killed
at any point and simply rerun with the same arguments: the checkpoint
carries the committed high-water mark, the counters and the results
offset, and the finished results file is byte-identical to what one
uninterrupted run would have written.  A resume writes to --out when
given, else to the checkpoint's results file.  It exits as socprimes
search does: 1 for a checkpoint of another range than [7, --to) or one
its results file does not match, an I/O error, or a leg whose pool lost
a worker (rerun to resume); 64 for a bad argument such as --threads 0 or
an --out that is the checkpoint.  --threads defaults as socprimes search
does: to the CPU count.

    python3 scripts/search_billion.py --threads 4
    python3 scripts/search_billion.py --threads 4   # picks up where it left off
"""

import argparse
import os
import sys
import time

from socprimes import PrimeRange, SearchConfig, resume, search
from socprimes.cli import _RUNTIME_ERRORS


def progress_line(report) -> str:
    span = report.hi - report.lo
    done = report.completed_through - report.lo
    frac = done / span if span else 1.0
    rate = done / report.wall_seconds if report.wall_seconds > 0 else 0.0
    eta = (span - done) / rate if rate > 0 else float("inf")
    return (
        f"[{time.strftime('%H:%M:%S')}] {report.completed_through:>12,} / {report.hi:,} "
        f"({frac:6.2%})  examined {report.counters.examined:,}  "
        f"survivors {report.counters.stage1_survivors:,}  eta {eta / 60:6.1f} min"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--to", type=int, default=10**9, help="range end, exclusive (default 10^9)")
    ap.add_argument("--out", help="results file (default billion.jsonl, or the checkpoint's)")
    ap.add_argument("--checkpoint", default="billion.ckpt",
                    help="checkpoint file; delete it to start over (default billion.ckpt)")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker processes (default the CPU count)")
    ap.add_argument("--segments-per-leg", type=int, default=256,
                    help="segments per leg, i.e. between progress lines, rounded up to a multiple "
                         "of --threads (default 256, about 17M numbers)")
    args = ap.parse_args()

    def leg():
        return resume(args.checkpoint, args.out, args.threads, args.segments_per_leg, lo=7, hi=args.to)

    if os.path.exists(args.checkpoint):
        print(f"resuming from {args.checkpoint}")
        report = leg()
    else:
        report = search(SearchConfig(
            range=PrimeRange(7, args.to),
            output_path=args.out or "billion.jsonl",
            threads=args.threads,
            checkpoint_path=args.checkpoint,
            stop_after_segments=args.segments_per_leg,
        ))

    while not report.complete:
        print(progress_line(report), flush=True)
        report = leg()

    print(progress_line(report))
    c = report.counters
    print(f"done in {report.wall_seconds / 3600:.2f} h: examined {c.examined:,}, "
          f"cubic rejections {c.rejected_cubic:,}, collisions {c.collisions:,}, "
          f"socialist {c.socialist}")
    for p in report.socialist_primes:
        print(f"!!! SOCIALIST PRIME FOUND: {p}")
    return 2 if report.socialist_primes else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except _RUNTIME_ERRORS as exc:
        sys.exit(f"error: {exc}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(64)
