#!/usr/bin/env python3
"""Regenerate the filter pipeline tallies for the standard ranges."""

import argparse
import time

from socprimes import OUTCOMES, count_filters
from socprimes.cli import LABELS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limits", type=int, nargs="+", default=[1000, 10**5, 10**6],
                    help="range ends; each range is [7, limit) (default 1000 1e5 1e6)")
    ap.add_argument("--strict-cubic", action="store_true",
                    help="test every cubic root even when (1957/p) = +1")
    args = ap.parse_args()

    results = []
    for limit in args.limits:
        t0 = time.perf_counter()
        fc = count_filters(7, limit, strict=args.strict_cubic)
        results.append((limit, fc, time.perf_counter() - t0))

    width = max(len(f"{limit:,}") for limit in args.limits) + 2
    print(f"{'':<20}" + "".join(f"{limit:>{width},}" for limit, _, _ in results))
    for name in ("examined", *OUTCOMES):
        print(f"{LABELS[name]:<20}" + "".join(f"{getattr(fc, name):>{width},}" for _, fc, _ in results))
    print(f"{'seconds':<20}" + "".join(f"{dt:>{width}.2f}" for _, _, dt in results))

    limit, fc, _ = results[0]
    if len(fc.stage1_survivors) <= 20:
        print(f"\nstage-1 survivors below {limit:,}: "
              + " ".join(str(p) for p in fc.stage1_survivors))


if __name__ == "__main__":
    main()
