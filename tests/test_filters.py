import hashlib
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import THREE_TERM_CUBIC, assert_partition, cubic_discriminant, eval_mod, gap_collisions, naive_primes
from socprimes import filters
from socprimes.engine import SearchConfig, count_filters, search
from socprimes.filters import (
    OUTCOMES,
    SIX_TERM_CUBIC,
    run_pipeline,
    segment_outcomes,
    stage_cubic,
    stage_legendre,
    stage_mod8,
)
from socprimes.modarith import jacobi
from socprimes.polycong import poly_roots
from socprimes.primes import PrimeRange, enumerate_primes, primes_in_segment, segment_flags, small_primes
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
        assert stage_legendre(29) == "rejected_legendre5"
        assert stage_legendre(37) == "rejected_legendre23"
        assert stage_legendre(13) is None

    def test_classes_match_the_symbols_for_every_odd_n(self):
        # reciprocity holds for the Jacobi symbol, so composites must agree too
        for n in range(3, 2 * 10**5, 2):
            expected = ("rejected_legendre5" if jacobi(5, n) != -1
                        else "rejected_legendre23" if jacobi(-23, n) != 1 else None)
            assert stage_legendre(n) == expected, n

    def test_attribution_order(self):
        # a prime failing both symbols is counted against 5
        for p in PRIMES_BELOW_10K:
            if p > 5 and jacobi(5, p) != -1 and jacobi(-23, p) != 1:
                assert stage_legendre(p) == "rejected_legendre5"
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
            outcome, witness = run_pipeline(p)
            if outcome == "rejected_cubic":
                seen += 1
                x, y = witness["x"], witness["y"]
                assert six_term_product(x, p) == 1, p
                assert 3 <= x <= p - 6, p
                assert eval_mod(SIX_TERM_CUBIC, y, p) == 0, p
                assert jacobi(4 * y + 25, p) != -1, p
        assert seen == 40

    def test_witness_is_a_factorial_collision(self):
        # (x+5)! == (x-1)! is the point of the lift; at p=197, x=4: 3! == 9!
        for p, x in [(197, 4), (317, 19)]:
            assert recheck_witness(p, x - 1, x + 5)

    @pytest.mark.parametrize("p, hit", [(719, (6, 713)), (5039, (14, 5032))], ids=["719", "5039"])
    def test_witness_avoids_the_lifts_below_3(self, p, hit):
        # the canonical lifts x = 1 and 2 would claim 0! == 6! and 1! == 7!;
        # the other root of x(x+5) == y is a collision inside 2! .. (p-1)!
        assert stage_cubic(p) == hit
        assert recheck_witness(p, hit[1] - 1, hit[1] + 5)

    def test_strict_rejects_a_shortcut_survivor(self):
        # 853 passes by the (1957/p) == +1 shortcut yet owns a liftable root
        assert jacobi(1957, 853) == 1
        assert stage_cubic(853) is None
        hit = stage_cubic(853, strict=True)
        assert hit is not None
        assert six_term_product(hit[1], 853) == 1

    def test_symbol_table_is_jacobi_1957(self):
        # (1957/p) == (p/1957), as 1957 == 1 (mod 4); jacobi's modulus must be odd
        table = filters._symbols_1957()
        assert len(table) == 1957
        for r in range(3, 1957, 2):
            assert table[r] == jacobi(1957, r), r
        for p in PRIMES_BELOW_10K[1:]:
            assert table[p % 1957] == jacobi(1957, p), p
        assert [r for r in range(1957) if table[r] == 0] == sorted({0, *range(19, 1957, 19), *range(103, 1957, 103)})

    def test_strict_never_rejects_fewer(self):
        for p in PRIMES_BELOW_10K:
            if p < 7 or not stage_mod8(p) or stage_legendre(p) is not None:
                continue
            if stage_cubic(p) is not None:
                assert stage_cubic(p, strict=True) is not None, p


def gap_witness(g: int, p: int) -> int | None:
    """Gap g's witness for p from every root poly_roots finds."""
    return filters._gap_witness(g, poly_roots(filters._gap_polynomial(g), p), p)


def sqrt_domain(p: int) -> bool:
    """p is 3 (mod 4) or 5 (mod 8), the moduli sqrt_mod takes."""
    return p % 4 == 3 or p % 8 == 5


class TestGapRoutine:
    def test_stage_polynomials_are_gap_rows(self):
        assert filters._gap_polynomial(3) == THREE_TERM_CUBIC
        assert filters._gap_polynomial(6) == SIX_TERM_CUBIC

    def test_stages_0_and_1_are_gap_rows(self):
        # gap 2 is x(x+1) == 1, of discriminant 5; gap 3's cubic has one root
        # when its discriminant -23 is a nonresidue; gap 4's y-quadratic
        # y^2 + 2y - 1 needs sqrt(2), a nonresidue for p == 5 (mod 8)
        primes = [p for p in PRIMES_BELOW_10K if p >= 7]
        gap2 = [p for p in primes if sqrt_domain(p)]
        for p in gap2:
            assert (gap_witness(2, p) is not None) == (jacobi(5, p) == 1), p
        gap3 = [p for p in primes if jacobi(-23, p) == -1]
        for p in gap3:
            assert gap_witness(3, p) is not None, p
        gap4 = [p for p in primes if p % 8 == 5]
        for p in gap4:
            assert poly_roots(filters._gap_polynomial(4), p) == (), p
        assert (len(gap2), len(gap3), len(gap4)) == (931, 626, 313)

    def test_matches_brute_force_below_2000(self):
        pairs = 0
        for p in naive_primes(2000):
            if p < 19 or not sqrt_domain(p):
                continue
            for g in range(5, 17):
                if p <= g + 3:
                    continue
                pairs += 1
                expected = gap_collisions(g, p)
                x = gap_witness(g, p)
                assert x in expected if expected else x is None, (p, g)
        assert pairs == 2747

    def test_root_share_law_on_fixed_survivors(self):
        """Each gap's witness share on 1 000 stage-2 survivors lies within 4 sigma of its law.

        The law is a heuristic, not a theorem: by Chebotarev, if gap g's
        Galois group is as large as f_g's symmetry allows (S_g for odd g,
        the signed permutations of g/2 pairs for even g), a root exists
        with probability 1 - sum_{k<=g} (-1)^k/k!, or 1 - sum_{k<=g/2}
        (-1)^k/(2^k k!).  The list is fixed, the first 1 000 stage-2
        survivors above 10^6, so the test is deterministic; the 4 sigma
        bound is statistical, sigma = sqrt(q(1-q)/1000), about 0.015.  A
        wrong gap polynomial, or a lift that skips roots past the first,
        moves a share far outside it.
        """
        survivors = count_filters(10**6, 10**6 + 400000).stage2_survivors[:1000]
        assert (len(survivors), survivors[-1]) == (1000, 1291117)
        for g in (5, 7, 9, 11, 13, 8, 10, 12, 14, 16):
            if g % 2:
                law = 1 - sum((-1) ** k / math.factorial(k) for k in range(g + 1))
            else:
                law = 1 - sum((-1) ** k / (2**k * math.factorial(k)) for k in range(g // 2 + 1))
            share = sum(gap_witness(g, p) is not None for p in survivors) / len(survivors)
            sigma = math.sqrt(law * (1 - law) / len(survivors))
            assert abs(share - law) <= 4 * sigma, (g, share, law)


@pytest.fixture(scope="module")
def stage1_below_1e6():
    return count_filters(7, 10**6).stage1_survivors


def lone_root_domain(primes):
    """The primes stage_cubic takes to _lone_root: p > 7, 3 (mod 4) or 5 (mod 8), (1957/p) == -1."""
    return [p for p in primes if p > 7 and (p % 4 == 3 or p % 8 == 5) and jacobi(1957, p) == -1]


class TestLoneRoot:
    @staticmethod
    def assert_equals_poly_roots(primes):
        for p in primes:
            assert (filters._lone_root(p),) == poly_roots(SIX_TERM_CUBIC, p), p

    def test_equals_poly_roots_below_1e6(self, stage1_below_1e6):
        served = lone_root_domain(stage1_below_1e6)
        assert (len(served), sum(p % 3 == 1 for p in served)) == (2423, 1204)
        self.assert_equals_poly_roots(served)

    def test_equals_poly_roots_on_the_stage_domain(self):
        served = lone_root_domain(naive_primes(2 * 10**4))
        assert len(served) == 883
        self.assert_equals_poly_roots(served)

    def test_equals_poly_roots_near_1e12(self):
        # p above 2^30 takes multi-digit ints through the ladder
        served = lone_root_domain(count_filters(10**12, 10**12 + 2**16).stage1_survivors)
        assert len(served) == 76
        self.assert_equals_poly_roots(served)

    def test_stage2_identity_below_1e6(self, stage1_below_1e6):
        # default and strict verdicts of every stage-1 survivor; the digest is
        # what poly_roots alone gives for every root, so _lone_root moves no verdict
        digest = hashlib.sha256()
        for p in stage1_below_1e6:
            digest.update(f"{p} {stage_cubic(p)} {stage_cubic(p, strict=True)}\n".encode())
        assert len(stage1_below_1e6) == 4908
        assert digest.hexdigest() == "e333ad7c4d307b9d863b29bcc23fcea76a20d9c590bcef48aa8ab7f863b69960"

    @pytest.mark.parametrize("lo, hi, survivors, hexdigest", [
        (10**9 - 2**22, 10**9, 12578, "eaa7b56a8a9191c0433a05f1cb6303fd862feaacf7c747d162140833bf2b60e7"),
        (10**10 - 2**21, 10**10, 5712, "3ae0b4b9408836228ddf3dbd02207af91455891b90f66cc6237a483c4248f721"),
    ], ids=["1e9", "1e10"])
    def test_stage2_identity_near(self, lo, hi, survivors, hexdigest):
        # the 10^6 test's digest near 10^9, and near 10^10, where p passes 2^30
        stage1 = count_filters(lo, hi).stage1_survivors
        digest = hashlib.sha256()
        for p in stage1:
            digest.update(f"{p} {stage_cubic(p)} {stage_cubic(p, strict=True)}\n".encode())
        assert len(stage1) == survivors
        assert digest.hexdigest() == hexdigest


class TestRunPipeline:
    def test_stage_reached(self):
        got = [run_pipeline(p) for p in (7, 29, 37, 197, 13)]
        assert got == [
            ("rejected_mod8", None),
            ("rejected_legendre5", None),
            ("rejected_legendre23", None),
            ("rejected_cubic", {"y": 36, "x": 4}),
            ("candidates", None),
        ]
        assert tuple(outcome for outcome, _ in got) == OUTCOMES

    def test_candidates_pass_every_stage(self):
        for p in PRIMES_BELOW_10K:
            if p < 7:
                continue
            if run_pipeline(p)[0] == "candidates":
                assert p % 8 == 5
                assert jacobi(5, p) == -1 and jacobi(-23, p) == 1


def pipeline_oracle(primes, strict=False):
    """run_pipeline on each prime: the counts per OUTCOMES entry and the stage-1 survivors with (y, x) or None."""
    counts, survivors = dict.fromkeys(OUTCOMES, 0), []
    for p in primes:
        outcome, witness = run_pipeline(p, strict)
        counts[outcome] += 1
        if outcome in ("rejected_cubic", "candidates"):
            survivors.append((p, witness and (witness["y"], witness["x"])))
    return list(counts.values()), survivors


class TestSegmentOutcomes:
    def test_class_rows_match_the_stages_on_every_residue(self):
        # each row is a class test mod 8, 40 or 920, exact for every residue mod 920
        (m8, stage0), (m40, legendre5), (m920, stage1) = filters._CLASS_ROWS
        assert (m8, m40, m920) == (8, 40, 920)
        assert (stage0, legendre5, len(stage1)) == ((5,), (13, 37), 22)
        for r in range(920):
            assert (r % 8 in stage0) == stage_mod8(r), r
            assert (r % 40 in legendre5) == (stage_mod8(r) and stage_legendre(r) != "rejected_legendre5"), r
            assert (r in stage1) == (stage_mod8(r) and stage_legendre(r) is None), r

    @given(st.one_of(st.just(7), st.integers(7, 23), st.integers(7, 10**7)), st.integers(1, 5000), st.booleans())
    @example(7, 900, False).via("a segment narrower than 920 at the domain start")
    @example(20, 4, True).via("the segment holding 23 alone")
    @example(10**6 + 3, 919, True).via("narrower than 920, away from the start")
    def test_equals_run_pipeline_per_prime(self, seg_lo, width, strict):
        seg_hi = seg_lo + width
        base = small_primes(math.isqrt(seg_hi - 1))
        got = segment_outcomes(seg_lo, seg_hi, segment_flags(seg_lo, seg_hi, base), strict)
        assert got == pipeline_oracle(primes_in_segment(seg_lo, seg_hi, base), strict)


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
        assert_partition(fc)

    def test_below_1000_strict(self):
        fc = count_filters(7, 1000, strict=True)
        assert fc.rejected_cubic == 4
        assert fc.candidates == 6
        # strictness moves primes between stage-2 verdicts, never out of stage 1
        assert fc.stage1_survivors == SURVIVORS_BELOW_1000
        assert_partition(fc)

    def test_at_100000_frozen(self):
        fc = count_filters(7, 10**5)
        assert (fc.examined, fc.rejected_mod8) == (9589, 7191)
        assert (fc.rejected_legendre5, fc.rejected_legendre23) == (1198, 610)
        assert (fc.rejected_cubic, fc.candidates) == (143, 447)
        assert_partition(fc)

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

    @pytest.mark.parametrize("lo, hi", [(7, 2**16 + 1), (1000, 3 * 2**16 + 917), (10**8 + 5, 10**8 + 2**17 - 3)])
    def test_ranges_off_the_segment_grid_equal_run_pipeline(self, lo, hi):
        # count_filters walks 2^16-wide segments from lo; neither end is on that grid
        for strict in (False, True):
            fc = count_filters(lo, hi, strict)
            counts, survivors = pipeline_oracle(enumerate_primes(PrimeRange(lo, hi, 4096)), strict)
            assert list(fc[2:8]) == [sum(counts), *counts], (lo, hi, strict)
            assert fc.stage1_survivors == [p for p, _ in survivors]
            assert fc.stage2_survivors == [p for p, hit in survivors if hit is None]
            assert_partition(fc)



class TestTracedNames:
    """Stage 2 is looked up on the filters module at call time; stages 0 and 1 run by class.

    The benchmark's trace wraps filters.stage_mod8, stage_legendre,
    stage_cubic and cubic_roots by attribute; a pass that bound stage_cubic
    or cubic_roots early would run unwrapped, and the trace would report no
    stage-2 time.  Stages 0 and 1 are read off the sieve by residue class
    (_CLASS_ROWS, checked against stage_mod8 and stage_legendre in
    TestSegmentOutcomes), so neither is called per prime.
    """

    PRIMES = [p for p in PRIMES_BELOW_10K if p >= 7]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}
        for name in ("stage_mod8", "stage_legendre", "stage_cubic", "cubic_roots"):
            seen = calls[name] = []
            # p is the first argument of a stage, the second of cubic_roots
            at = 1 if name == "cubic_roots" else 0

            def counted(*args, _fn=getattr(filters, name), _seen=seen, _at=at):
                _seen.append(args[_at])
                return _fn(*args)

            monkeypatch.setattr(filters, name, counted)
        return calls

    def expected(self, strict=False):
        stage1 = [p for p in self.PRIMES if p % 8 == 5 and jacobi(5, p) == -1 and jacobi(-23, p) == 1]
        return {
            "stage_mod8": [],
            "stage_legendre": [],
            "stage_cubic": stage1,
            # _lone_root serves (1957/p) == -1, so by default only p | 1957 finds roots
            "cubic_roots": stage1 if strict else [p for p in stage1 if jacobi(1957, p) == 0],
        }

    def test_count_filters_calls_each_stage(self, calls):
        fc = count_filters(7, 10**4)
        assert calls == self.expected()
        assert fc.stage1_survivors == calls["stage_cubic"]

    def test_strict_count_filters_finds_roots_for_every_survivor(self, calls):
        fc = count_filters(7, 10**4, strict=True)
        assert calls == self.expected(strict=True)
        assert fc.stage1_survivors == calls["cubic_roots"]

    def test_search_calls_each_stage(self, calls, tmp_path):
        report = search(SearchConfig(range=PrimeRange(7, 10**4, 1024), output_path=str(tmp_path / "o.jsonl")))
        assert calls == self.expected()
        assert report.counters.stage1_survivors == len(calls["stage_cubic"])
