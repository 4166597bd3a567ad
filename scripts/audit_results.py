#!/usr/bin/env python3
"""Audit the witnesses of socprimes results files by direct product.

An outside check on the witnesses the engine's recheck approved: this
script imports nothing from socprimes and rebuilds every factorial one
factor at a time.  For each file it checks that

- every line is exactly what json writes for its record (compact
  separators, the same key order), since the engine writes each line by
  hand;
- p strictly increases, so no record is repeated or out of order;
- a Collision's j! and k! are both its residue mod p, with 2 <= j < k < p;
- a RejectedCubic's x(x+1)...(x+5) is 1 mod p, with 3 <= x <= p - 6, and
  its y is the x(x+5) that x was lifted from;
- no record has another outcome: a Socialist record fails the audit,
  for a discovery is checked by hand;
- the file holds at least one record.

It exits 1 with a message at the first fault, else prints each file's
witness count.

    python3 scripts/audit_results.py results.jsonl [more.jsonl ...]
"""

import json
import sys


def audit(path):
    """The number of witnesses in the results file at path; exits at its first fault."""
    checked = last = 0
    with open(path) as results:
        for line in results:
            rec = json.loads(line)
            if line != json.dumps(rec, separators=(",", ":")) + "\n":
                sys.exit(f"line is not the compact JSON of its record: {line!r}")
            p, outcome = rec["p"], rec["outcome"]
            if p <= last:
                sys.exit(f"p does not increase after {last}: {rec}")
            last = p
            if outcome == "Collision":
                j, k, residue = rec["witness"]["j"], rec["witness"]["k"], rec["witness"]["residue"]
                f = fj = 1
                for i in range(2, k + 1):
                    f = f * i % p
                    if i == j:
                        fj = f
                ok = 2 <= j < k < p and fj == f == residue
            elif outcome == "RejectedCubic":
                x, y = rec["witness"]["x"], rec["witness"]["y"]
                f = 1
                for i in range(x, x + 6):
                    f = f * i % p
                ok = 3 <= x <= p - 6 and f == 1 and y == x * (x + 5) % p
            else:
                ok = False
            if not ok:
                sys.exit(f"witness fails its direct product: {rec}")
            checked += 1
    if not checked:
        sys.exit("no records to audit")
    return checked


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} RESULTS.jsonl [RESULTS.jsonl ...]")
    for path in sys.argv[1:]:
        print(f"{path}: {audit(path)} witnesses hold by direct product")
