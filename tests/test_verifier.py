import tracemalloc
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import factorials_agree, naive_primes, reference_scan, verdict_tuple
from socprimes import verifier
from socprimes.engine import count_filters
from socprimes.primes import primes_in_segment, small_primes
from socprimes.verifier import (
    Verdict,
    VerdictKind,
    default_cap,
    factorial_mod,
    recheck_witness,
    scan_bitset,
    verify_distinct,
)

ODD_PRIMES = [p for p in naive_primes(2000) if p > 2]

ALL_SCANS = (verify_distinct, scan_bitset)


class TestFactorialMod:
    def test_known(self):
        assert factorial_mod(4, 13) == 11
        assert factorial_mod(0, 7) == 1
        assert factorial_mod(1, 7) == 1
        assert factorial_mod(6, 7) == 6  # Wilson: (p-1)! == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            factorial_mod(7, 7)
        with pytest.raises(ValueError):
            factorial_mod(-1, 7)

    @given(st.sampled_from([p for p in ODD_PRIMES if p < 200]))
    def test_wilson(self, p):
        assert factorial_mod(p - 1, p) == p - 1


class TestKnownVerdicts:
    def test_five_is_socialist(self):
        v = verify_distinct(5)
        assert v.kind is VerdictKind.SOCIALIST
        assert v.scanned_up_to == 4
        assert v.j is None and v.k is None and v.residue is None

    def test_seven_collides_at_the_end(self):
        # 3! == 6! == 6 (mod 7)
        v = verify_distinct(7)
        assert (v.kind, v.j, v.k, v.residue) == (VerdictKind.COLLISION, 3, 6, 6)
        assert v.scanned_up_to == 6

    def test_thirteen(self):
        v = verify_distinct(13)
        assert (v.j, v.k, v.residue) == (4, 9, 11)
        assert v.scanned_up_to == 9

    def test_997(self):
        v = verify_distinct(997)
        assert (v.j, v.k, v.residue) == (54, 72, 520)

    def test_validation(self):
        for scan in ALL_SCANS:
            for bad in (3, 4, 6, 0, -7):
                with pytest.raises(ValueError):
                    scan(bad)


class TestStrategyAgreement:
    def test_all_strategies_and_oracle_agree_below_2000(self):
        for p in ODD_PRIMES:
            if p < 5:
                continue
            want = reference_scan(p)
            for scan in ALL_SCANS:
                got = scan(p)
                assert verdict_tuple(got) == want, (p, scan.__name__, got)

    @given(st.integers(2, 4000))
    def test_odd_composites_agree_with_oracle(self, half_n):
        # the scan's contract is arithmetic, not primality; odd composites
        # make cheap extra coverage for the event ordering rules
        n = 2 * half_n + 1
        want = reference_scan(n)
        for scan in ALL_SCANS:
            assert verdict_tuple(scan(n)) == want

    def test_reference_midpoint_rule_never_fires(self):
        # the oracle has a midpoint rule the scans lack; it must
        # never reach it before a collision (see the verifier docstring)
        for n in range(5, 30000, 2):
            assert reference_scan(n)[0] != "NegHalfHit", n


class TestBirthdayWindow:
    def test_escalation_reaches_the_same_verdict(self, monkeypatch):
        full = {p: scan_bitset(p) for p in (997, 853, 1997)}
        escalated = []

        def bitset(p):
            escalated.append(p)
            return scan_bitset(p)

        # a window of 4 residues ends dry for each of these primes
        monkeypatch.setattr(verifier, "default_cap", lambda p: 4)
        monkeypatch.setattr(verifier, "scan_bitset", bitset)
        for p, want in full.items():
            assert verify_distinct(p) == want, p
        assert escalated == list(full)

    def test_window_covering_everything_is_conclusive(self, monkeypatch):
        def bitset(p):
            raise AssertionError("the birthday window of p=5 covers every factorial")

        monkeypatch.setattr(verifier, "scan_bitset", bitset)
        assert verify_distinct(5).kind is VerdictKind.SOCIALIST

    def test_default_cap(self):
        assert default_cap(100) == 640
        assert default_cap(101) == 704  # ceil(sqrt(101)) == 11
        assert default_cap(1) == 64


class TestWitnesses:
    def test_recheck_accepts_true_witnesses(self):
        assert recheck_witness(7, 3, 6)
        assert recheck_witness(13, 4, 9)
        assert recheck_witness(997, 54, 72)

    def test_recheck_rejects_false_witnesses(self):
        assert not recheck_witness(13, 2, 9)
        assert not recheck_witness(997, 54, 73)

    def test_recheck_validation(self):
        with pytest.raises(ValueError):
            recheck_witness(13, 9, 4)
        with pytest.raises(ValueError):
            recheck_witness(13, 1, 4)
        with pytest.raises(ValueError):
            recheck_witness(13, 4, 13)

    def test_witnesses_from_scans_recheck_below_2000(self):
        for p in ODD_PRIMES:
            if p < 7:
                continue
            v = verify_distinct(p)
            if v.kind is VerdictKind.COLLISION:
                assert recheck_witness(p, v.j, v.k) and factorial_mod(v.k, p) == v.residue, p


class TestBirthdayPredecessors:
    # _scan_birthday maps each residue k! to the residue before it, (k-1)!,
    # and recovers j by one modular inverse

    def test_eleven_collides_with_the_stored_one(self):
        # 2! == 4! == 2 (mod 11): the stored value is 1! == 1, the start
        # value rather than an earlier key
        v = verifier._scan_birthday(11, default_cap(11))
        assert v == Verdict(11, VerdictKind.COLLISION, 2, 4, 2, scanned_up_to=4)
        assert verdict_tuple(v) == reference_scan(11)

    def test_fifteen_finds_j_by_the_second_pass(self, monkeypatch):
        # 5! == 6! == 0 (mod 15), and 4! == 9 is no unit mod 15, so the
        # inverse raises and _first_index_of finds j
        calls = []
        second_pass = verifier._first_index_of

        def first_index_of(p, residue, below):
            calls.append((p, residue, below))
            return second_pass(p, residue, below)

        monkeypatch.setattr(verifier, "_first_index_of", first_index_of)
        assert verify_distinct(15) == Verdict(15, VerdictKind.COLLISION, 5, 6, 0, scanned_up_to=6)
        assert calls == [(15, 0, 6)]

    def test_stage2_survivors_below_1e5_agree_without_the_second_pass(self, monkeypatch):
        survivors = count_filters(7, 10**5).stage2_survivors
        assert len(survivors) == 447
        want = {p: reference_scan(p) for p in survivors}
        for p in survivors:
            assert verdict_tuple(scan_bitset(p)) == want[p], p

        def first_index_of(p, residue, below):
            raise AssertionError(f"the inverse of (j-1)! mod the prime {p} needs no second pass")

        monkeypatch.setattr(verifier, "_first_index_of", first_index_of)
        for p in survivors:
            assert verdict_tuple(verifier._scan_birthday(p, default_cap(p))) == want[p], p


def index_valued_scan(p, cap):
    """The birthday loop as it was when each residue mapped to its index k: (j, k, residue) or None."""
    limit = min(p - 1, cap + 1)
    seen = {}
    first = seen.setdefault
    f = 1
    for k in range(2, limit + 1):
        f = f * k % p
        j = first(f, k)
        if j != k:
            return j, k, f
    return None


def traced_peak(scan, p):
    """scan(p, default_cap(p)) and the peak bytes tracemalloc saw during it."""
    tracemalloc.start()
    try:
        return scan(p, default_cap(p)), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_birthday_scan_stores_no_index_ints():
    # near 10^9 the scan's dict holds 122 303 entries; a ratio of peaks, not
    # a bound in MB, since int and dict sizes differ between Python versions
    p = 999_942_413
    v, peak = traced_peak(verifier._scan_birthday, p)
    old, old_peak = traced_peak(index_valued_scan, p)
    assert (v.j, v.k, v.residue) == old == (44188, 122303, 585028048)
    assert peak <= 0.85 * old_peak, (peak, old_peak)


def first_collision_from(start):
    """(p, j, k) for the first prime p >= start whose scan ends in a Collision."""
    for p in primes_in_segment(start, start + 10_000, small_primes(isqrt(start + 10_000))):
        v = verify_distinct(p)
        if v.kind is VerdictKind.COLLISION:
            return p, v.j, v.k
    raise AssertionError(f"no collision among the primes in [{start}, {start + 10_000})")


SHIFTS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


class TestRecheckAgainstFactorials:
    # recheck_witness multiplies the gap (j+1)...k in chunks; the oracle compares j! with k!

    def test_every_pair_below_100(self):
        kinds = set()
        for p in ODD_PRIMES:
            if not 7 <= p < 100:
                continue
            for k in range(3, p):
                for j in range(2, k):
                    expected = factorials_agree(p, j, k)
                    assert recheck_witness(p, j, k) is expected, (p, j, k)
                    kinds.add((expected, (k - j) % verifier._CHUNK))
        # true and false witnesses for every length of the leading chunk
        assert kinds == {(e, r) for e in (True, False) for r in range(verifier._CHUNK)}

    @pytest.mark.parametrize("p", [2**31 - 1, 10**10 + 19, 10**12 + 39])
    def test_shifted_scan_witnesses_above_2_30(self, p):
        # past 2^30, p and every reduced product take two 30-bit CPython digits
        v = verify_distinct(p)
        assert v.kind is VerdictKind.COLLISION
        for dj, dk in SHIFTS:
            j, k = v.j + dj, v.k + dk
            expected = factorials_agree(p, j, k)
            assert expected is ((dj, dk) == (0, 0))
            assert recheck_witness(p, j, k) is expected, (p, j, k)

    @settings(max_examples=60)
    @given(
        base=st.sampled_from((10**6, 10**8)),
        offset=st.integers(0, 10**5),
        shift=st.sampled_from(SHIFTS),
    )
    def test_shifted_scan_witnesses_near_1e6_and_1e8(self, base, offset, shift):
        p, j, k = first_collision_from(base + offset)
        j, k = j + shift[0], k + shift[1]
        assume(2 <= j < k <= p - 1)
        expected = factorials_agree(p, j, k)
        assert expected is (shift == (0, 0))
        assert recheck_witness(p, j, k) is expected, (p, j, k)


class TestMidpointIdentities:
    # the identities behind the proof that no scan needs a midpoint rule
    def test_half_factorial_squares_to_minus_one_for_1_mod_4(self):
        for p in ODD_PRIMES:
            if p < 5 or p % 4 != 1:
                continue
            h = factorial_mod((p - 1) // 2, p)
            assert h * h % p == p - 1, p

    def test_half_factorial_is_unit_for_3_mod_4(self):
        for p in ODD_PRIMES:
            if p < 5 or p % 4 != 3:
                continue
            h = factorial_mod((p - 1) // 2, p)
            assert h in (1, p - 1), p

    def test_reflection(self):
        # Wilson's theorem split at k: k! (p-1-k)! == (-1)^(k+1)
        for p in ODD_PRIMES:
            fact = [1] * p
            for k in range(1, p):
                fact[k] = fact[k - 1] * k % p
            for k in range(p):
                assert fact[k] * fact[p - 1 - k] % p == (p - 1 if k % 2 == 0 else 1), (p, k)
