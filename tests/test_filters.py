import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import THREE_TERM_CUBIC, naive_primes
from socprimes.filters import (
    SIX_TERM_CUBIC,
    FilterOutcome,
    FilterVerdict,
    count_filters,
    run_pipeline,
    stage_cubic,
    stage_legendre,
    stage_mod8,
)
from socprimes.modarith import jacobi
from socprimes.polycong import cubic_discriminant
from socprimes.verifier import recheck_witness

PRIMES_BELOW_10K = naive_primes(10**4)

SURVIVORS_BELOW_1000 = [13, 173, 197, 277, 317, 397, 653, 853, 877, 997]


def six_term_product(x: int, p: int) -> int:
    prod = 1
    for i in range(6):
        prod = prod * (x + i) % p
    return prod


class TestConstants:
    def test_discriminants(self):
        assert cubic_discriminant(SIX_TERM_CUBIC) == 1957
        assert cubic_discriminant(THREE_TERM_CUBIC) == -23


class TestStageMod8:
    def test_known(self):
        assert stage_mod8(13)
        assert stage_mod8(29)
        assert not stage_mod8(7)
        assert not stage_mod8(17)

    @given(st.sampled_from(PRIMES_BELOW_10K))
    def test_matches_arithmetic(self, p):
        assert stage_mod8(p) == (p % 8 == 5)


class TestStageLegendre:
    def test_known(self):
        assert stage_legendre(29) is FilterVerdict.REJECTED_LEGENDRE5
        assert stage_legendre(37) is FilterVerdict.REJECTED_LEGENDRE23
        assert stage_legendre(13) is None

    def test_attribution_order(self):
        # a prime failing both symbols is counted against 5
        for p in PRIMES_BELOW_10K:
            if p > 5 and jacobi(5, p) != -1 and jacobi(-23, p) != 1:
                assert stage_legendre(p) is FilterVerdict.REJECTED_LEGENDRE5
                break
        else:
            pytest.fail("no double-failing prime found below 10^4")


class TestStageCubic:
    def test_known_witnesses(self):
        assert stage_cubic(13) is None
        assert stage_cubic(197) == (36, 4)
        assert stage_cubic(317) == (139, 19)

    def test_discriminant_divisors_are_total(self):
        # 19 and 103 divide 1957; the stage must still decide them
        assert stage_cubic(19) == (5, 11)
        assert stage_cubic(103) == (32, 57)

    def test_witness_products_below_20000(self):
        seen = 0
        for p in naive_primes(2 * 10**4):
            if p < 7:
                continue
            out = run_pipeline(p)
            if out.verdict is FilterVerdict.REJECTED_CUBIC:
                seen += 1
                assert six_term_product(out.x, p) == 1, p
                assert 1 <= out.x <= p - 6, p
                assert SIX_TERM_CUBIC.eval_mod(out.y, p) == 0, p
                assert jacobi(4 * out.y + 25, p) != -1, p
        assert seen == 40

    def test_witness_is_a_factorial_collision(self):
        # (x+5)! == (x-1)! is the point of the lift; at p=197, x=4: 3! == 9!
        for p, x in [(197, 4), (317, 19)]:
            assert recheck_witness(p, x - 1, x + 5)

    def test_strict_rejects_a_shortcut_survivor(self):
        # 853 passes by the (1957/p) == +1 shortcut yet owns a liftable root
        assert jacobi(1957, 853) == 1
        assert stage_cubic(853) is None
        hit = stage_cubic(853, strict=True)
        assert hit is not None
        assert six_term_product(hit[1], 853) == 1

    def test_strict_never_rejects_fewer(self):
        for p in PRIMES_BELOW_10K:
            if p < 7 or not stage_mod8(p) or stage_legendre(p) is not None:
                continue
            if stage_cubic(p) is not None:
                assert stage_cubic(p, strict=True) is not None, p


class TestRunPipeline:
    def test_stage_reached(self):
        assert run_pipeline(7) == FilterOutcome(7, FilterVerdict.REJECTED_MOD8)
        assert run_pipeline(29) == FilterOutcome(29, FilterVerdict.REJECTED_LEGENDRE5)
        assert run_pipeline(37) == FilterOutcome(37, FilterVerdict.REJECTED_LEGENDRE23)
        assert run_pipeline(197) == FilterOutcome(197, FilterVerdict.REJECTED_CUBIC, y=36, x=4)
        assert run_pipeline(13) == FilterOutcome(13, FilterVerdict.CANDIDATE)

    def test_candidates_pass_every_stage(self):
        for p in PRIMES_BELOW_10K:
            if p < 7:
                continue
            out = run_pipeline(p)
            if out.verdict is FilterVerdict.CANDIDATE:
                assert p % 8 == 5
                assert jacobi(5, p) == -1 and jacobi(-23, p) == 1


class TestCountFilters:
    def test_below_1000_frozen(self):
        fc = count_filters(7, 1000)
        assert fc.examined == 165
        assert fc.rejected_mod8 == 123
        assert fc.rejected_legendre5 == 20
        assert fc.rejected_legendre23 == 12
        assert fc.rejected_cubic == 2
        assert fc.candidates == 8
        assert fc.stage1_survivors == SURVIVORS_BELOW_1000
        assert fc.stage2_survivors == [13, 173, 277, 397, 653, 853, 877, 997]
        assert fc.consistent()

    def test_below_1000_strict(self):
        fc = count_filters(7, 1000, strict=True)
        assert fc.rejected_cubic == 4
        assert fc.candidates == 6
        # strictness moves primes between stage-2 verdicts, never out of stage 1
        assert fc.stage1_survivors == SURVIVORS_BELOW_1000
        assert fc.consistent()

    def test_at_100000_frozen(self):
        fc = count_filters(7, 10**5)
        assert (fc.examined, fc.rejected_mod8) == (9589, 7191)
        assert (fc.rejected_legendre5, fc.rejected_legendre23) == (1198, 610)
        assert (fc.rejected_cubic, fc.candidates) == (143, 447)
        assert fc.consistent()

    def test_domain_clamp(self):
        fc = count_filters(0, 12)
        assert fc.examined == 2  # just 7 and 11
        assert count_filters(0, 7).examined == 0
        assert count_filters(990, 800).examined == 0

    def test_split_ranges_add_up(self):
        whole = count_filters(7, 4000)
        left = count_filters(7, 1700)
        right = count_filters(1700, 4000)
        assert whole.examined == left.examined + right.examined
        assert whole.stage1_survivors == left.stage1_survivors + right.stage1_survivors
        assert whole.rejected_cubic == left.rejected_cubic + right.rejected_cubic
