from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import factorials_agree, naive_primes, reference_scan, verdict_tuple
from socprimes import verifier
from socprimes.primes import primes_in_segment, small_primes
from socprimes.verifier import (
    ScanMode,
    Verdict,
    VerdictKind,
    default_cap,
    factorial_mod,
    recheck_witness,
    verify_distinct,
)

ODD_PRIMES = [p for p in naive_primes(2000) if p > 2]

ALL_MODES = list(ScanMode)


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
        for bad in (3, 4, 6, 0, -7):
            with pytest.raises(ValueError):
                verify_distinct(bad)


class TestStrategyAgreement:
    def test_all_strategies_and_oracle_agree_below_2000(self):
        for p in ODD_PRIMES:
            if p < 5:
                continue
            want = reference_scan(p)
            for mode in ALL_MODES:
                got = verify_distinct(p, mode)
                assert verdict_tuple(got) == want, (p, mode, got)

    @given(st.integers(2, 4000))
    def test_odd_composites_agree_with_oracle(self, half_n):
        # the scan's contract is arithmetic, not primality; odd composites
        # make cheap extra coverage for the event ordering rules
        n = 2 * half_n + 1
        want = reference_scan(n)
        for mode in ALL_MODES:
            assert verdict_tuple(verify_distinct(n, mode)) == want

    def test_reference_midpoint_rule_never_fires(self):
        # the oracle has a midpoint rule the scans lack; it must
        # never reach it before a collision (see the verifier docstring)
        for n in range(5, 30000, 2):
            assert reference_scan(n)[0] != "NegHalfHit", n


class TestBirthdayWindow:
    def test_escalation_reaches_the_same_verdict(self, monkeypatch):
        full = {p: verify_distinct(p, ScanMode.NAIVE_BITSET) for p in (997, 853, 1997)}
        escalated = []
        real_bitset = verifier._scan_bitset

        def bitset(p):
            escalated.append(p)
            return real_bitset(p)

        # a window of 4 residues ends dry for each of these primes
        monkeypatch.setattr(verifier, "default_cap", lambda p: 4)
        monkeypatch.setattr(verifier, "_scan_bitset", bitset)
        for p, want in full.items():
            assert verify_distinct(p) == want, p
        assert escalated == list(full)

    def test_window_covering_everything_is_conclusive(self, monkeypatch):
        def bitset(p):
            raise AssertionError("the birthday window of p=5 covers every factorial")

        monkeypatch.setattr(verifier, "_scan_bitset", bitset)
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


def first_collision_from(start):
    """(p, j, k) for the first prime p >= start whose scan ends in a Collision."""
    for p in primes_in_segment(start, start + 10_000, small_primes(isqrt(start + 10_000))):
        v = verify_distinct(p)
        if v.kind is VerdictKind.COLLISION:
            return p, v.j, v.k
    raise AssertionError(f"no collision among the primes in [{start}, {start + 10_000})")


class TestRecheckAgainstFactorials:
    # recheck_witness multiplies the gap (j+1)...k; the oracle compares j! with k!

    def test_every_pair_below_100(self):
        kinds = set()
        for p in ODD_PRIMES:
            if not 7 <= p < 100:
                continue
            for k in range(3, p):
                for j in range(2, k):
                    expected = factorials_agree(p, j, k)
                    assert recheck_witness(p, j, k) is expected, (p, j, k)
                    kinds.add((expected, (k - j) % 2))
        # true and false witnesses, with even and odd gaps
        assert kinds == {(True, 0), (True, 1), (False, 0), (False, 1)}

    @settings(max_examples=60)
    @given(
        base=st.sampled_from((10**6, 10**8)),
        offset=st.integers(0, 10**5),
        shift=st.sampled_from(((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))),
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
