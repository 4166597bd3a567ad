"""Bulk prime enumeration over 64-bit ranges.

Range enumeration uses a segmented sieve of Eratosthenes so memory stays
O(segment_size + sqrt(hi)) no matter how wide the range is.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from math import isqrt

__all__ = ["small_primes", "PrimeRange", "enumerate_primes", "primes_in_segment"]

DEFAULT_SEGMENT_SIZE = 1 << 16

def small_primes(limit: int) -> list[int]:
    """All primes <= limit by a flat byte sieve. Intended for limit <= ~10^8."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return list(compress(range(limit + 1), flags))


@dataclass(frozen=True)
class PrimeRange:
    """Half-open search interval [lo, hi) walked in fixed-width segments."""

    lo: int
    hi: int
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"bad range [{self.lo}, {self.hi})")
        if self.hi > 1 << 63:
            raise ValueError("hi exceeds 2^63")
        if self.segment_size < 2:
            raise ValueError("segment_size must be at least 2")

    def segments(self) -> Iterator[tuple[int, int]]:
        """Yield consecutive (seg_lo, seg_hi) slices covering [lo, hi)."""
        lo = self.lo
        while lo < self.hi:
            hi = min(lo + self.segment_size, self.hi)
            yield lo, hi
            lo = hi


def primes_in_segment(seg_lo: int, seg_hi: int, base: Sequence[int]) -> Iterator[int]:
    """Primes in [seg_lo, seg_hi) given base primes covering sqrt(seg_hi - 1).

    Base primes inside the segment are reported too: marking starts at
    p * p, which lies beyond any base prime's own position.
    """
    seg_lo = max(seg_lo, 2)
    if seg_lo >= seg_hi:
        return iter(())
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
    return compress(range(seg_lo, seg_hi), flags)


def enumerate_primes(rng: PrimeRange) -> Iterator[int]:
    """Yield the primes in rng in increasing order via a segmented sieve."""
    if rng.hi <= 2:
        return
    base = small_primes(isqrt(rng.hi - 1))
    for seg_lo, seg_hi in rng.segments():
        yield from primes_in_segment(seg_lo, seg_hi, base)
