"""Exhaustive verification that 2!, 3!, ..., (p-1)! are distinct mod p.

The scan walks k = 2 .. p-1 keeping a running product f = k! mod p and
reports the first event it proves:

* Collision(j, k, residue): j! == k! mod p with j < k, the first such k in
  scan order and the smallest j for that k.
* NegHalfHit(k): k! == -((p-1)/2)! mod p for some k past the midpoint.
  Only checked when p == 1 (mod 4), where ((p-1)/2)! is a square root of
  -1 and the hit pins a genuine duplicate among the half factorials.  For
  p == 3 (mod 4) the midpoint factorial is one of +-1 and the analogous
  check would misfire on ordinary values, so it is skipped.
* Socialist: the scan exhausted k = p-1 with every value fresh.

Two scan modes share these semantics and must agree event for event.
Birthday keeps a dict of the residues seen in a window of default_cap(p)
factorials and escalates to the bitset scan in the astronomically
unlikely case the window ends without an event.  NaiveBitset allocates a
p-bit table, so it is never wrong and never escalates, at the price of
O(p) memory.

recheck_witness confirms a Collision for prime p without the scan: j! ==
k! exactly when the gap product (j+1)(j+2)...k is 1 mod p, since j! is a
unit.  It multiplies the k - j factors of the gap, two per reduction,
and shares no state with the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt

__all__ = [
    "VerdictKind",
    "Verdict",
    "ScanMode",
    "default_cap",
    "factorial_mod",
    "verify_distinct",
    "recheck_witness",
]


class VerdictKind(Enum):
    SOCIALIST = "Socialist"
    COLLISION = "Collision"
    NEG_HALF_HIT = "NegHalfHit"


class ScanMode(Enum):
    BIRTHDAY = "birthday"
    NAIVE_BITSET = "bitset"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one distinctness scan.

    j, k and residue are populated for Collision (j! == k! == residue);
    NegHalfHit fills k and residue only.  scanned_up_to is the last k
    whose factorial was examined.
    """

    p: int
    kind: VerdictKind
    j: int | None = None
    k: int | None = None
    residue: int | None = None
    scanned_up_to: int = 0


def default_cap(p: int) -> int:
    """Birthday window bound: 64 * ceil(sqrt(p)) stored residues."""
    r = isqrt(p)
    if r * r < p:
        r += 1
    return 64 * r


def factorial_mod(n: int, p: int) -> int:
    """n! mod p for 0 <= n < p, by direct product."""
    if not 0 <= n < p:
        raise ValueError("need 0 <= n < p")
    f = 1
    for k in range(2, n + 1):
        f = f * k % p
    return f


def recheck_witness(p: int, j: int, k: int) -> bool:
    """Check a collision witness j! == k! mod p by its gap: (j+1)(j+2)...k == 1.

    For prime p the two statements are the same, because j < p makes j!
    a unit and it cancels.  For composite p they are not (j! may share a
    factor with p), so p must be prime.  The product is formed two
    factors per reduction, with one more factor k when k - j is odd.

    The check stays independent of the scan that produced the witness:
    it never reads the scan's running product or its table of seen
    residues, and it groups the factors in pairs from j+1 on, so its
    intermediate values are partial products of the gap, never factorials.
    """
    if not 2 <= j < k <= p - 1:
        raise ValueError("witness indices must satisfy 2 <= j < k <= p-1")
    f = 1
    paired_end = k - (k - j) % 2
    for i in range(j + 1, paired_end, 2):
        f = f * (i * (i + 1)) % p
    if paired_end < k:
        f = f * k % p
    return f == 1


def verify_distinct(p: int, mode: ScanMode = ScanMode.BIRTHDAY, *, neg_half_check: bool = True) -> Verdict:
    """Scan 2! .. (p-1)! mod p and report the first proven event.

    p must be an odd number >= 5 (primality is the caller's business;
    the scan itself only needs oddness for the midpoint bookkeeping).
    The verdict is deterministic and the same in either mode: Birthday
    scans a window of default_cap(p) factorials and, should that window
    end without an event, silently escalates to the NaiveBitset scan.
    Raises MemoryError if a bitset scan cannot allocate its p-bit table.
    """
    if p < 5 or p & 1 == 0:
        raise ValueError("scan needs an odd p >= 5")
    check_neg = neg_half_check and p & 3 == 1
    if mode is ScanMode.BIRTHDAY:
        verdict = _scan_birthday(p, default_cap(p), check_neg)
        if verdict is not None:
            return verdict
    return _scan_bitset(p, check_neg)


def _scan_birthday(p: int, cap: int, check_neg: bool) -> Verdict | None:
    """Dict-backed scan of at most cap residues; None if the window ends dry."""
    limit = min(p - 1, cap + 1)
    half = (p - 1) >> 1
    seen: dict[int, int] = {}
    get = seen.get
    f = 1

    phase1_end = min(limit, half - 1) if check_neg else limit
    for k in range(2, phase1_end + 1):
        f = f * k % p
        j = get(f)
        if j is not None:
            return Verdict(p, VerdictKind.COLLISION, j, k, f, scanned_up_to=k)
        seen[f] = k

    if check_neg and limit >= half:
        f = f * half % p
        j = get(f)
        if j is not None:
            return Verdict(p, VerdictKind.COLLISION, j, half, f, scanned_up_to=half)
        seen[f] = half
        neg_h = p - f
        for k in range(half + 1, limit + 1):
            f = f * k % p
            j = get(f)
            if j is not None:
                return Verdict(p, VerdictKind.COLLISION, j, k, f, scanned_up_to=k)
            if f == neg_h:
                return Verdict(p, VerdictKind.NEG_HALF_HIT, None, k, f, scanned_up_to=k)
            seen[f] = k

    if limit >= p - 1:
        return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)
    return None


def _first_index_of(p: int, residue: int, below: int) -> int:
    # second pass: smallest j >= 2 with j! == residue, known to be < below
    f = 1
    for j in range(2, below):
        f = f * j % p
        if f == residue:
            return j
    raise AssertionError("collision residue vanished on re-scan")


def _scan_bitset(p: int, check_neg: bool) -> Verdict:
    """Full scan against a p-bit membership table; always reaches an event."""
    table = bytearray((p >> 3) + 1)
    half = (p - 1) >> 1
    f = 1
    neg_h = -1
    for k in range(2, p):
        f = f * k % p
        i = f >> 3
        bit = 1 << (f & 7)
        if table[i] & bit:
            return Verdict(p, VerdictKind.COLLISION, _first_index_of(p, f, k), k, f, scanned_up_to=k)
        if f == neg_h:
            return Verdict(p, VerdictKind.NEG_HALF_HIT, None, k, f, scanned_up_to=k)
        if check_neg and k == half:
            neg_h = p - f
        table[i] |= bit
    return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)
