#!/usr/bin/env python3
"""Audit the primes and witnesses of socprimes results files by direct product.

An outside check on the witnesses the engine's recheck approved: this
script imports nothing from socprimes and rebuilds every factorial one
factor at a time.  For each file it checks that

- every line is exactly what json writes for its record (compact
  separators, the same key order), since the engine writes each line by
  hand;
- p strictly increases, so no record is repeated or out of order;
- p is prime, by Miller-Rabin with the twelve prime bases 2 to 37, which
  decides every n below 3.18e23 (Sorenson and Webster, 2017), far past
  the 2^63 a search can reach;
- p lies in a stage-1 class: p = 5 (mod 8), (5/p) = -1 and (-23/p) = +1,
  each symbol by Euler's criterion.  Rokowska and Schinzel (1960) proved
  that every socialist prime satisfies all three, so the engine drops the
  primes that fail one without a record, and a record whose p fails one
  is one its filters cannot have written;
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

#: The first twelve primes, the Miller-Rabin bases of is_prime.
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Whether n is prime: deterministic for every n below 3.18e23."""
    if n < 2:
        return False
    for q in BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def in_stage1_class(p):
    """Whether the odd prime p passes stages 0 and 1: p = 5 (mod 8), (5/p) = -1, (-23/p) = +1."""
    half = (p - 1) // 2
    return p % 8 == 5 and pow(5, half, p) == p - 1 and pow(-23 % p, half, p) == 1


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
            if not is_prime(p):
                sys.exit(f"p is not prime: {rec}")
            if not in_stage1_class(p):
                sys.exit(f"p is not in a stage-1 class (p = 5 mod 8, (5/p) = -1, (-23/p) = +1): {rec}")
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
