from bisect import bisect_right
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_primes
from socprimes import primes
from socprimes.analytics import expected_count_log
from socprimes.primes import (
    DEFAULT_SEGMENT_SIZE,
    PrimeRange,
    enumerate_primes,
    primes_in_segment,
    segment_flags,
    segment_size_for,
    small_primes,
)

NAIVE_BELOW_10K = naive_primes(10**4)
NAIVE_SET = frozenset(NAIVE_BELOW_10K)


def flat_sieve(limit: int) -> list[int]:
    """All primes <= limit by one byte table, independent of the package's sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


class TestSmallPrimes:
    def test_known(self):
        assert small_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert small_primes(2) == [2]
        assert small_primes(1) == []
        assert small_primes(0) == []

    def test_against_naive(self):
        assert small_primes(9999) == NAIVE_BELOW_10K

    def test_every_limit_below_2000(self):
        # crosses each prime-square boundary from 4 to 1849, where the
        # recursion's base must already hold the prime being squared
        naive = naive_primes(2000)
        for n in range(-2, 2000):
            assert small_primes(n) == naive[: bisect_right(naive, n)], n

    def test_around_each_prime_square_below_10_to_6(self):
        reference = flat_sieve(1000**2 + 1)
        for q in naive_primes(1000):
            for n in (q * q - 1, q * q, q * q + 1):
                assert small_primes(n) == reference[: bisect_right(reference, n)], (q, n)


class TestPrimeRange:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrimeRange(-1, 10)
        with pytest.raises(ValueError):
            PrimeRange(10, 9)
        with pytest.raises(ValueError):
            PrimeRange(0, 10, segment_size=1)
        with pytest.raises(ValueError):
            PrimeRange(0, (1 << 63) + 1)

    def test_empty_range_allowed(self):
        assert list(PrimeRange(100, 100).segments()) == []

    def test_default_segment(self):
        assert PrimeRange(0, 10).segment_size == DEFAULT_SEGMENT_SIZE

    @pytest.mark.parametrize("hi, log2", [(10**6, 16), (10**7, 16), (2**24, 16), (2**24 + 1, 17), (10**8, 18),
                                          (10**9, 19), (10**10, 21), (10**12, 22), (1 << 63, 22)])
    def test_segment_size_for_a_range(self, hi, log2):
        # the smallest power of two >= 16 sqrt(hi), within [2^16, 2^22]
        assert segment_size_for(7, hi) == segment_size_for(7, hi, threads=4) == 1 << log2

    @pytest.mark.parametrize("lo, hi, threads, log2", [
        (10**9 - 2**18, 10**9, 1, 19),  # one worker: one segment, though narrower, is enough
        (10**9 - 2**18, 10**9, 2, 17),  # halved until each worker has a segment
        (10**9 - 2**17, 10**9, 2, 16),
        (10**9 - 2**18, 10**9, 8, 16),  # never below 2^16
        (10**10 - 3 * 2**20, 10**10, 4, 19),
    ])
    def test_segment_size_for_a_narrow_window(self, lo, hi, threads, log2):
        assert segment_size_for(lo, hi, threads) == 1 << log2

    @given(st.integers(0, 10**6), st.integers(0, 10**4), st.integers(2, 10**4))
    def test_segments_tile_the_range(self, lo, width, seg):
        rng = PrimeRange(lo, lo + width, seg)
        segs = list(rng.segments())
        if width == 0:
            assert segs == []
            return
        assert segs[0][0] == lo
        assert segs[-1][1] == lo + width
        for (a_lo, a_hi), (b_lo, b_hi) in zip(segs, segs[1:]):
            assert a_hi == b_lo
        assert all(0 < hi - lo_ <= seg for lo_, hi in segs)


class TestEnumeratePrimes:
    def test_against_naive_below_ten_thousand(self):
        got = list(enumerate_primes(PrimeRange(0, 10**4, segment_size=512)))
        assert got == NAIVE_BELOW_10K

    def test_windows(self):
        for lo, hi, seg in [(0, 100, 7), (90, 130, 8), (997, 1010, 3), (50, 50, 16), (0, 3, 2), (7919, 7920, 100)]:
            got = list(enumerate_primes(PrimeRange(lo, hi, seg)))
            want = [p for p in NAIVE_BELOW_10K if lo <= p < hi]
            assert got == want, (lo, hi, seg)

    def test_pi_at_powers_of_ten(self):
        assert sum(1 for _ in enumerate_primes(PrimeRange(0, 10**5))) == 9592

    @given(st.integers(0, 9000), st.integers(0, 900), st.integers(2, 257))
    def test_segmentation_invariance(self, lo, width, seg):
        hi = lo + width
        want = [p for p in NAIVE_BELOW_10K if lo <= p < hi]
        assert list(enumerate_primes(PrimeRange(lo, hi, seg))) == want

    def test_high_window(self):
        # window straddling 10^9 against trial division as an independent check
        lo, hi = 10**9 - 100, 10**9 + 100
        got = list(enumerate_primes(PrimeRange(lo, hi)))
        want = [n for n in range(lo, hi) if all(n % d for d in range(2, isqrt(n) + 1))]
        assert got == want and len(got) > 0

    def test_early_stop_sieves_only_the_base_it_used(self, monkeypatch):
        # expected_count_log(1000, 10^14) draws about 200 primes: its base
        # must follow the first segment, not sqrt(10^14) = 10^7
        asked = []
        sieve = primes.small_primes

        def recording(limit):
            asked.append(limit)
            return sieve(limit)

        monkeypatch.setattr(primes, "small_primes", recording)
        ln = expected_count_log(1000, 10**14)
        assert 0 < max(asked) <= 2 * isqrt(1000 + DEFAULT_SEGMENT_SIZE)
        monkeypatch.undo()
        assert ln == expected_count_log(1000, 10**5)

    @given(st.integers(0, 200), st.integers(10**4, 3 * 10**4), st.integers(8, 56))
    def test_growing_base_agrees_with_small_primes(self, lo, width, seg):
        # the first segment needs base primes to at most 15, the last to at
        # least 99: the base is sieved again at least three times on the way
        hi = lo + width
        want = [p for p in small_primes(hi - 1) if p >= lo]
        assert list(enumerate_primes(PrimeRange(lo, hi, seg))) == want


class TestPrimesInSegment:
    def test_base_primes_inside_segment_survive(self):
        base = small_primes(31)
        assert list(primes_in_segment(2, 30, base)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_below_two_clamped(self):
        base = small_primes(10)
        assert list(primes_in_segment(0, 10, base)) == [2, 3, 5, 7]
        assert list(primes_in_segment(5, 5, base)) == []

    @given(st.integers(2, 9000), st.integers(0, 900))
    def test_flags_mark_exactly_the_primes(self, lo, width):
        flags = segment_flags(lo, lo + width, small_primes(isqrt(lo + width)))
        assert flags == bytearray(n in NAIVE_SET for n in range(lo, lo + width))
