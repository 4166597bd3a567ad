"""Bulk prime enumeration over 64-bit ranges.

One segmented sieve of Eratosthenes, segment_flags, marks a segment's
primes in a bytearray.  primes_in_segment compresses those bytes to the
primes themselves for small_primes and range enumeration; the search
reads them by residue class instead (filters.segment_outcomes).  Memory
stays O(segment_size + sqrt(hi)) no matter how wide the range is.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import compress
from math import isqrt

__all__ = ["small_primes", "PrimeRange", "enumerate_primes", "primes_in_segment", "segment_flags"]

DEFAULT_SEGMENT_SIZE = 1 << 16


def small_primes(limit: int) -> list[int]:
    """All primes <= limit: [2, limit] as one segment, its base primes by recursion."""
    base = small_primes(isqrt(limit)) if limit >= 4 else []
    return list(primes_in_segment(2, limit + 1, base))


class PrimeRange(namedtuple("PrimeRange", "lo hi segment_size")):
    """Half-open search interval [lo, hi) walked in fixed-width segments."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeRange:
        if lo < 0 or hi < lo:
            raise ValueError(f"bad range [{lo}, {hi})")
        if hi > 1 << 63:
            raise ValueError("hi exceeds 2^63")
        if segment_size < 2:
            raise ValueError("segment_size must be at least 2")
        return super().__new__(cls, lo, hi, segment_size)

    def segments(self) -> Iterator[tuple[int, int]]:
        """Yield consecutive (seg_lo, seg_hi) slices covering [lo, hi)."""
        lo = self.lo
        while lo < self.hi:
            hi = min(lo + self.segment_size, self.hi)
            yield lo, hi
            lo = hi


def segment_flags(seg_lo: int, seg_hi: int, base: Sequence[int]) -> bytearray:
    """Primality of [seg_lo, seg_hi) as bytes, 2 <= seg_lo: flags[i] == 1 iff seg_lo + i is prime.

    base must hold the primes up to sqrt(seg_hi - 1); base primes inside
    the segment keep their flag, since marking starts at p * p, which lies
    beyond any base prime's own position.
    """
    width = seg_hi - seg_lo
    flags = bytearray(b"\x01") * width
    for p in base:
        start = p * p
        if start >= seg_hi:
            break
        if start < seg_lo:
            start = seg_lo + (-seg_lo) % p
        offset = start - seg_lo
        flags[offset :: p] = b"\x00" * ((width - offset - 1) // p + 1)
    return flags


def primes_in_segment(seg_lo: int, seg_hi: int, base: Sequence[int]) -> Iterator[int]:
    """Primes in [seg_lo, seg_hi) given base primes covering sqrt(seg_hi - 1): segment_flags, compressed."""
    seg_lo = max(seg_lo, 2)
    if seg_lo >= seg_hi:
        return iter(())
    return compress(range(seg_lo, seg_hi), segment_flags(seg_lo, seg_hi, base))


def enumerate_primes(rng: PrimeRange) -> Iterator[int]:
    """Yield the primes in rng in increasing order via a segmented sieve.

    The base primes grow with the segments, re-sieved to at least twice
    the old limit (at most sqrt(hi - 1)) when a segment outgrows them: a
    caller that stops early pays only for the base it used, a full walk
    at most twice the base work of sieving sqrt(hi - 1) once.
    """
    limit, base = 0, []
    for seg_lo, seg_hi in rng.segments():
        need = isqrt(seg_hi - 1)
        if need > limit:
            limit = min(max(need, 2 * limit), isqrt(rng.hi - 1))
            base = small_primes(limit)
        yield from primes_in_segment(seg_lo, seg_hi, base)
