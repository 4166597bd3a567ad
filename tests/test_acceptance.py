"""End-to-end checks of the published result set, one test per claim.

Each test prints a single ACCEPTANCE PASS/FAIL line so a log scrape can
grade the run: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    THREE_TERM_CUBIC,
    assert_partition,
    brute_roots,
    cubic_discriminant,
    eval_mod,
    factor_parity,
    naive_primes,
    sextic_substitution_check,
)
from socprimes.analytics import fp_histogram, fp_statistic, heuristic
from socprimes.engine import Counters, SearchConfig, count_filters, resume, search
from socprimes.filters import SIX_TERM_CUBIC
from socprimes.modarith import jacobi
from socprimes.polycong import poly_roots
from socprimes.primes import DEFAULT_SEGMENT_SIZE, PrimeRange, small_primes
from socprimes.verifier import factorial_mod, recheck_witness, scan_bitset, verify_distinct

SURVIVORS_BELOW_1000 = [13, 173, 197, 277, 317, 397, 653, 853, 877, 997]

COUNTERS_1E6 = Counters(
    examined=78495, rejected_mod8=58873, rejected_legendre5=9785,
    rejected_legendre23=4929, rejected_cubic=1246, collisions=3662,
)

#: sha256 of the results file of search over [7, 10^6)
SHA256_1E6 = "b4858987d556ee8afb8f3a987395eb08b7e3cd886fb1d36bf328904773b62291"

#: the same search with strict_cubic=True: 826 stage-1 survivors that the
#: (1957/p) shortcut passes move from collisions to cubic rejections
COUNTERS_1E6_STRICT = Counters(**{**COUNTERS_1E6.as_dict(), "rejected_cubic": 2072, "collisions": 2836})
SHA256_1E6_STRICT = "65a5e189d58a00d8d531c0a68a3a95a7b7aa3a3537df16560500a94ab7b4aa19"

COUNTERS_1E7 = Counters(
    examined=664576, rejected_mod8=498373, rejected_legendre5=83134,
    rejected_legendre23=41440, rejected_cubic=10510, collisions=31119,
)

#: sha256 of the results file of a straight threads=1 search over [7, 10^7)
SHA256_1E7 = "a58482dd11a0fc3e06bc66b2b6c89592230009c495d4484ffd558781c2bc9a2c"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def million_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "e6.jsonl"
    config = SearchConfig(range=PrimeRange(7, 10**6), output_path=str(out), threads=1)
    started = time.perf_counter()
    report = search(config)
    elapsed = time.perf_counter() - started
    with open(out, encoding="ascii") as fh:
        records = [json.loads(line) for line in fh]
    return report, records, elapsed


def test_survivor_list_below_1000():
    with criterion("survivor list below 1000"):
        started = time.perf_counter()
        fc = count_filters(7, 1000)
        elapsed = time.perf_counter() - started
        assert fc.examined == 165
        assert fc.rejected_mod8 == 123
        assert fc.rejected_legendre5 == 20
        assert fc.rejected_legendre23 == 12
        assert fc.rejected_cubic == 2
        assert fc.candidates == 8
        assert fc.stage1_survivors == SURVIVORS_BELOW_1000
        assert_partition(fc)
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


def test_filter_counts_to_one_million():
    with criterion("filter counts to 10^6"):
        started = time.perf_counter()
        fc = count_filters(7, 10**6)
        elapsed = time.perf_counter() - started
        assert len(fc.stage1_survivors) == 4908
        assert fc.candidates == 3662
        assert (fc.examined, fc.rejected_mod8) == (78495, 58873)
        assert (fc.rejected_legendre5, fc.rejected_legendre23) == (9785, 4929)
        assert fc.rejected_cubic == 1246
        assert_partition(fc)
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"


def test_full_search_to_one_million(million_run):
    with criterion("full search to 10^6 finds no socialist prime"):
        report, records, elapsed = million_run
        assert report.complete
        assert report.socialist_primes == []
        assert report.counters == COUNTERS_1E6
        with open(report.output_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == SHA256_1E6
        collisions = [r for r in records if r["outcome"] == "Collision"]
        assert len(collisions) == 3662
        for rec in collisions:
            w = rec["witness"]
            p = rec["p"]
            assert recheck_witness(p, w["j"], w["k"]) and factorial_mod(w["k"], p) == w["residue"], p
        assert elapsed < 600.0, f"took {elapsed:.2f}s, budget is 600s"


def test_strict_search_to_one_million(tmp_path):
    with criterion("strict cubic search to 10^6 writes its pinned results"):
        out = tmp_path / "strict.jsonl"
        report = search(SearchConfig(range=PrimeRange(7, 10**6), output_path=str(out), threads=1,
                                     strict_cubic=True))
        assert report.complete and report.socialist_primes == []
        assert report.counters == COUNTERS_1E6_STRICT
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SHA256_1E6_STRICT


def test_checkpoint_resume_at_scale(tmp_path):
    with criterion("checkpointed long-range mode reproduces a straight run"):
        part_out = str(tmp_path / "part.jsonl")
        ckpt = str(tmp_path / "part.ckpt")
        stopped = search(SearchConfig(
            range=PrimeRange(7, 10**7),
            output_path=part_out,
            threads=2,
            checkpoint_path=ckpt,
            checkpoint_interval=13,
            stop_after_segments=60,
        ))
        assert not stopped.complete
        resumed = resume(ckpt, threads=2)
        assert resumed.complete and resumed.resumed
        assert resumed.counters == COUNTERS_1E7
        assert resumed.socialist_primes == []
        assert hashlib.sha256(Path(part_out).read_bytes()).hexdigest() == SHA256_1E7

        # the same machinery drives arbitrarily long ranges: start a
        # billion-wide run, park it, pick it up again
        big_out = str(tmp_path / "big.jsonl")
        big_ckpt = str(tmp_path / "big.ckpt")
        leg1 = search(SearchConfig(
            range=PrimeRange(7, 10**9),
            output_path=big_out,
            threads=1,
            checkpoint_path=big_ckpt,
            checkpoint_interval=1,
            stop_after_segments=2,
        ))
        assert leg1.completed_through == 7 + 2 * DEFAULT_SEGMENT_SIZE
        leg2 = resume(big_ckpt, stop_after_segments=2)
        assert leg2.completed_through == 7 + 4 * DEFAULT_SEGMENT_SIZE
        assert leg2.counters.partitioned()
        assert leg2.counters.examined > leg1.counters.examined


def test_independent_routes_agree():
    with criterion("independent routes agree (birthday and bitset scans, root solving)"):
        for p in naive_primes(10**4):
            if p < 5:
                continue
            assert verify_distinct(p) == scan_bitset(p), p

        for p in naive_primes(2000):
            if p < 3:
                continue
            for cubic in (SIX_TERM_CUBIC, THREE_TERM_CUBIC):
                assert poly_roots(cubic, p) == brute_roots(cubic, p), (p, cubic)


def test_classical_identities():
    with criterion("classical identities hold on their stated ranges"):
        # Wilson and the half-factorial midpoint, one chain per prime
        for p in naive_primes(10**4):
            if p < 3:
                continue
            f = 1
            h = None
            for k in range(1, p):
                f = f * k % p
                if 2 * k + 1 == p:
                    h = f
            assert f == p - 1, p
            if p % 4 == 1:
                assert h * h % p == p - 1, p
            else:
                assert h in (1, p - 1), p

        # 2 is a nonresidue exactly when p == 3, 5 (mod 8); the filter
        # leans on the 5-branch
        for p in naive_primes(10**5):
            if p % 8 == 5:
                assert jacobi(2, p) == -1, p

        # factor-count parity against the discriminant symbol, on primes
        # above every divisor of the discriminants 5 and 1957 = 19 * 103
        odd_primes = small_primes(10**6)[1:]
        above_1000 = [p for p in odd_primes if p > 10**3]
        rng = random.Random(5)
        for p in rng.choices(above_1000, k=500):
            assert factor_parity((-1, 1, 1), p).holds, p
        rng = random.Random(1957)
        for p in rng.choices(above_1000, k=500):
            assert factor_parity(SIX_TERM_CUBIC, p).holds, p

        assert cubic_discriminant(SIX_TERM_CUBIC) == 1957
        assert cubic_discriminant(THREE_TERM_CUBIC) == -23

        # the six-term product really does compress through y = x(x+5)
        rng = random.Random(6)
        for p in rng.choices(odd_primes, k=10**4):
            assert sextic_substitution_check(rng.randrange(p), p)


def test_cubic_rejections_carry_collisions(million_run):
    with criterion("every cubic rejection below 10^6 carries a product witness"):
        _report, records, _elapsed = million_run
        cubic = [r for r in records if r["outcome"] == "RejectedCubic"]
        assert len(cubic) == 1246
        for rec in cubic:
            p, w = rec["p"], rec["witness"]
            prod = 1
            for i in range(6):
                prod = prod * (w["x"] + i) % p
            assert prod == 1, p
            assert eval_mod(SIX_TERM_CUBIC, w["y"], p) == 0, p


def test_fp_floor_and_heuristic():
    with criterion("F(p) floor and the survival heuristic"):
        assert fp_statistic(5) == 2
        assert fp_statistic(7) == 3
        hist = fp_histogram(10**5, jobs=2)
        assert hist.min_f == 2
        assert hist.min_f_primes == (5,)  # no further F = 2 prime below 10^5

        est = heuristic(13)
        true = Fraction(12, 13) ** 45
        assert math.isclose(est.log_exact, math.log(true), rel_tol=1e-12)
        assert est.limit_exponent == -3


def test_thread_count_does_not_change_output(tmp_path):
    with criterion("results are byte-identical across thread counts"):
        a = str(tmp_path / "t1.jsonl")
        b = str(tmp_path / "t8.jsonl")
        one = search(SearchConfig(range=PrimeRange(7, 10**5), output_path=a, threads=1))
        eight = search(SearchConfig(range=PrimeRange(7, 10**5), output_path=b, threads=8))
        assert one.counters == eight.counters
        assert Path(a).read_bytes() == Path(b).read_bytes()
