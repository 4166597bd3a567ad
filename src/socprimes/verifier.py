"""Exhaustive verification that 2!, 3!, ..., (p-1)! are distinct mod p.

The scan walks k = 2 .. p-1 keeping a running product f = k! mod p and
reports the first event it proves:

* Collision(j, k, residue): j! == k! mod p with j < k, the first such k in
  scan order and the smallest j for that k.
* Socialist: the scan exhausted k = p-1 with every value fresh.

No third event is needed.  A rule that stops at k! == -((p-1)/2)! past
the midpoint never fires before a Collision does, so the scans carry
none.  For prime p == 1 (mod 4), with h = ((p-1)/2)!, h^2 == -1 and
Wilson gives k! (p-1-k)! == (-1)^(k+1).  Suppose k > (p-1)/2 and
k! == -h.  Then k <= p-3, since (p-2)! == 1 and (p-1)! == -1 would make
h one of +-1; so j = p-1-k >= 2 and j! == (-1)^(k+1) h.  For odd k,
j! == h, a collision found at step (p-1)/2, before the scan reaches k.
For even k, j! == k!, so the duplicate lookup at step k reports the
Collision.  The rule is only sound for p == 1 (mod 4): otherwise h is
one of +-1 and k! == -h pins no duplicate.  For odd composite n > 9,
((n-1)/2)! == 0 (mod n), so every factorial past the midpoint repeats
that 0 and the lookup fires first; n = 9 collides at k = 4.

verify_distinct keeps a dict of the residues seen in a window of
default_cap(p) factorials, the birthday scan, and escalates to
scan_bitset in the astronomically unlikely case the window ends without
an event.  The dict maps each residue k! to (k-1)!, an int it already
holds, rather than to a new index int k.  At p = 999 942 413, whose
dict reaches 122 303 entries, tracemalloc's peak over the scan is
10.7 MB against 13.4 MB with index values (87 against 110 bytes an
entry).  On a collision j! == k!, j is that residue over (j-1)!.
scan_bitset allocates a p-bit table, so it always reaches an event, at
the price of O(p) memory; the two must agree event for event.

recheck_witness confirms a Collision for prime p without the scan: j! ==
k! exactly when the gap product (j+1)(j+2)...k is 1 mod p, since j! is a
unit.  It multiplies the gap's k - j factors _CHUNK at a time, one exact
math.perm product per reduction, and shares no state with the scan.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import isqrt, perm

_CHUNK = 16  # gap factors per math.perm product in recheck_witness; 8 ran 3-16% slower

__all__ = [
    "VerdictKind",
    "Verdict",
    "default_cap",
    "factorial_mod",
    "verify_distinct",
    "scan_bitset",
    "recheck_witness",
]


class VerdictKind(Enum):
    SOCIALIST = "Socialist"
    COLLISION = "Collision"


class Verdict(namedtuple("Verdict", "p kind j k residue scanned_up_to", defaults=(None, None, None, 0))):
    """Outcome of one distinctness scan.

    j, k and residue are populated for Collision (j! == k! == residue)
    and are None for Socialist.  scanned_up_to is the last k whose
    factorial was examined.
    """

    __slots__ = ()


def default_cap(p: int) -> int:
    """Birthday window bound: 64 * ceil(sqrt(p)) stored residues."""
    r = isqrt(p)
    if r * r < p:
        r += 1
    return 64 * r


def factorial_mod(n: int, p: int) -> int:
    """n! mod p for 0 <= n < p by direct product: the route tests check witnesses against."""
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
    factor with p), so p must be prime.  The (k - j) % _CHUNK leading
    factors are one perm(lead, lead - j); then each run of _CHUNK is one
    exact C product perm(top, _CHUNK) = (top-_CHUNK+1)...top, reduced once.

    The check stays independent of the scan: it never reads the scan's
    running product or its table of seen residues, and every intermediate
    is a partial product of the gap from j+1 on, never a factorial.
    """
    if not 2 <= j < k <= p - 1:
        raise ValueError("witness indices must satisfy 2 <= j < k <= p-1")
    lead = j + (k - j) % _CHUNK
    f = perm(lead, lead - j) % p
    for top in range(lead + _CHUNK, k + 1, _CHUNK):
        f = f * perm(top, _CHUNK) % p
    return f == 1


def _check_odd(p: int) -> None:
    if p < 5 or p & 1 == 0:
        raise ValueError("scan needs an odd p >= 5")


def verify_distinct(p: int) -> Verdict:
    """Scan 2! .. (p-1)! mod p and report the first proven event.

    p must be an odd number >= 5 (primality is the caller's business).
    A birthday window of default_cap(p) factorials runs first; should it
    end without an event, the scan silently escalates to scan_bitset.
    Raises MemoryError if that cannot allocate its p-bit table.
    """
    _check_odd(p)
    verdict = _scan_birthday(p, default_cap(p))
    return verdict if verdict is not None else scan_bitset(p)


def _scan_birthday(p: int, cap: int) -> Verdict | None:
    """Dict-backed scan of at most cap residues; None if the window ends dry.

    Each new residue k! maps to the residue before it, (k-1)!, an int the
    dict already holds (as the previous key, or 1 for 2!), so an entry
    costs no index int.  On a collision at k, seen[f] is (j-1)! and
    j = f / (j-1)! mod p; when (j-1)! is no unit (only for composite p)
    a second pass finds j instead.

    The identity test is exact.  setdefault returns its own argument
    prev when f is new, so a new f never reads as a collision.  A stored
    value that were prev itself, at the first repeat k! == j! with j < k,
    would mean (j-1)! == (k-1)!: for j > 2 that is a repeat that would
    have stopped the scan a step earlier, and for j == 2 it gives
    (k-1)! == 1 and k! == 2, so k == 2 mod p.  So the small-int cache,
    which can make equal values one object, never hides a collision.
    """
    limit = min(p - 1, cap + 1)
    seen: dict[int, int] = {}
    first = seen.setdefault  # one dict operation per factorial: stores prev, or returns the earlier (j-1)!
    prev = 1
    for k in range(2, limit + 1):
        f = prev * k % p
        # seen[f] is read again on a collision: a local for setdefault's
        # result cost the loop 2% at 10^6
        if first(f, prev) is not prev:
            try:
                j = f * pow(seen[f], -1, p) % p
            except ValueError:
                j = _first_index_of(p, f, k)
            return Verdict(p, VerdictKind.COLLISION, j, k, f, scanned_up_to=k)
        prev = f
    if limit >= p - 1:
        return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)
    return None


def _first_index_of(p: int, residue: int, below: int) -> int:
    # second pass: smallest j >= 2 with j! == residue, known to be < below.
    # scan_bitset stores no indices, and the birthday scan needs it only
    # for composite p, where (j-1)! may have no inverse
    f = 1
    for j in range(2, below):
        f = f * j % p
        if f == residue:
            return j
    raise AssertionError("collision residue vanished on re-scan")


def scan_bitset(p: int) -> Verdict:
    """verify_distinct's verdict with no window: a p-bit table, so it always reaches an event."""
    _check_odd(p)
    table = bytearray((p >> 3) + 1)
    f = 1
    for k in range(2, p):
        f = f * k % p
        i = f >> 3
        bit = 1 << (f & 7)
        if table[i] & bit:
            return Verdict(p, VerdictKind.COLLISION, _first_index_of(p, f, k), k, f, scanned_up_to=k)
        table[i] |= bit
    return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)
