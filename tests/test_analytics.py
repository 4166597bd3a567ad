import concurrent.futures
import math
import multiprocessing
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_primes
from socprimes import analytics
from socprimes.analytics import (
    expected_count,
    expected_count_log,
    fp_histogram,
    fp_statistic,
    heuristic,
    scientific_from_log,
)

SRC = str(Path(analytics.__file__).resolve().parents[1])

#: A jobs=2 histogram, then the same through the CLI, each with a worker
#: that SIGKILLs itself at p = 1009.  The patched fp_statistic lives in
#: __main__, which the forked workers share, so pickling finds it there.
DEAD_WORKER = """
import os, signal, sys
from socprimes import analytics
from socprimes.cli import main
coordinator, scan = os.getpid(), analytics.fp_statistic

def fp_statistic(p):
    if p == 1009 and os.getpid() != coordinator:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan(p)

analytics.fp_statistic = fp_statistic
try:
    analytics.fp_histogram(3000, jobs=2)
except RuntimeError as exc:
    print(type(exc).__name__, flush=True)
sys.exit(main(["fp-stats", "--max", "3000", "--jobs", "2"]))
"""

# F(p) for every prime in [5, 100), checked by hand against a set-based scan
F_BELOW_100 = {
    5: 2, 7: 3, 11: 6, 13: 4, 17: 6, 19: 8, 23: 7, 29: 11, 31: 11,
    37: 12, 41: 13, 43: 18, 47: 17, 53: 19, 59: 23, 61: 21, 67: 26,
    71: 33, 73: 30, 79: 31, 83: 29, 89: 31, 97: 39,
}


class TestFpStatistic:
    def test_frozen_values(self):
        for p, f in F_BELOW_100.items():
            assert fp_statistic(p) == f, p

    def test_socialist_means_two(self):
        assert fp_statistic(5) == 2

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            fp_statistic(1)
        monkeypatch.setattr(analytics, "TABLE_LIMIT", 10)
        with pytest.raises(ValueError):
            fp_statistic(11)

    @given(st.sampled_from([p for p in naive_primes(500) if p >= 5]))
    def test_matches_set_scan(self, p):
        seen = set()
        f = 1
        for n in range(1, p):
            f = f * n % p
            seen.add(f)
        assert fp_statistic(p) == p - len(seen)


class TestFpHistogram:
    def test_frozen_at_100(self):
        h = fp_histogram(100)
        assert h.limit == 100
        assert h.primes_scanned == 23
        assert h.min_f == 2
        assert h.min_f_primes == (5,)
        assert h.counts == {
            2: 1, 3: 1, 4: 1, 6: 2, 7: 1, 8: 1, 11: 2, 12: 1, 13: 1,
            17: 1, 18: 1, 19: 1, 21: 1, 23: 1, 26: 1, 29: 1, 30: 1,
            31: 2, 33: 1, 39: 1,
        }
        assert sum(h.counts.values()) == h.primes_scanned

    def test_no_second_socialist_below_limit(self):
        h = fp_histogram(2000)
        assert h.counts[2] == 1 and h.min_f_primes == (5,)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            fp_histogram(10**7 + 1)
        with pytest.raises(ValueError):
            fp_histogram(200, budget=100)
        # raising the budget is the documented override
        assert fp_histogram(200, budget=200).primes_scanned == 44

    def test_jobs_equivalence(self):
        # 301 primes, so 5 chunks of 64 and a pool of 2
        assert fp_histogram(2000) == fp_histogram(2000, jobs=2)

    def test_pool_is_never_bigger_than_its_chunks(self, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert fp_histogram(300, jobs=4) == fp_histogram(300)  # 60 primes: one chunk, no pool
        assert sizes == []
        assert fp_histogram(700, jobs=4) == fp_histogram(700)  # 123 primes: two chunks
        assert sizes == [2]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched fp_statistic reaches the workers only through fork")
    def test_dead_worker_raises_instead_of_hanging(self):
        # in a child with a timeout: a pool that waits forever for the
        # chunk a dead worker held must fail here, not hang the suite
        done = subprocess.run([sys.executable, "-c", DEAD_WORKER], capture_output=True, text=True,
                              env={"PYTHONPATH": SRC}, timeout=60)
        assert done.stdout == "BrokenProcessPool\n"
        assert done.returncode == 1
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1, done.stderr

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_not_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            fp_histogram(300, jobs=jobs)

    def test_empty(self):
        h = fp_histogram(5)
        assert h.counts == {} and h.min_f is None and h.min_f_primes == ()


class TestHeuristic:
    def test_p13_against_rational(self):
        est = heuristic(13)
        true = Fraction(12, 13) ** 45
        assert est.limit_exponent == -3
        assert math.isclose(est.exact, float(true), rel_tol=1e-12)
        assert math.isclose(est.limit_form, math.exp(-3), rel_tol=1e-15)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 97])
    def test_rational_oracle(self, p):
        pairs = (p - 3) * (p - 4) // 2
        true = Fraction(p - 1, p) ** pairs
        assert math.isclose(heuristic(p).exact, float(true), rel_tol=1e-12)

    def test_limit_exponent_exact(self):
        assert heuristic(5).limit_exponent == 1
        assert heuristic(7).limit_exponent == 0
        assert heuristic(997).limit_exponent == -495

    def test_validation(self):
        for bad in (3, 4, 6, 12):
            with pytest.raises(ValueError):
                heuristic(bad)

    def test_monotone_decreasing(self):
        primes = [p for p in naive_primes(500) if p >= 5]
        logs = [heuristic(p).log_exact for p in primes]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_scientific_split(self):
        mant, e10 = heuristic(13).exact_scientific()
        assert e10 == -2
        assert math.isclose(mant, 2.7271260907, rel_tol=1e-9)


class TestScientificFromLog:
    @given(st.floats(min_value=-5000.0, max_value=700.0))
    def test_roundtrip_in_log_space(self, ln_x):
        mant, e10 = scientific_from_log(ln_x)
        assert 1.0 <= mant < 10.0 or math.isclose(mant, 10.0)
        assert math.isclose(math.log10(mant) + e10, ln_x / math.log(10), abs_tol=1e-9)

    def test_extreme_exponent(self):
        mant, e10 = scientific_from_log(-501.11934327507424)
        assert e10 == -218
        assert 1.0 <= mant < 10.0


class TestExpectedCount:
    def test_single_prime_window(self):
        # [7, 11) holds only p = 7: expectation is (6/7)^6 exactly
        true = Fraction(6, 7) ** 6
        assert math.isclose(expected_count(7, 11), float(true), rel_tol=1e-12)

    def test_matches_direct_sum_below_100(self):
        primes = [p for p in naive_primes(100) if p >= 7]
        direct = math.fsum(heuristic(p).exact for p in primes)
        assert math.isclose(expected_count(7, 100), direct, rel_tol=1e-12)

    def test_tail_frozen(self):
        ln = expected_count_log(1000, 100000)
        assert math.isclose(ln / math.log(10), -217.63336555934615, rel_tol=1e-12)
        assert expected_count(1000, 100000) < 1e-200

    def test_stops_once_terms_underflow(self, monkeypatch):
        drawn = []
        enumerate_primes = analytics.enumerate_primes

        def counting(rng):
            for p in enumerate_primes(rng):
                drawn.append(p)
                yield p

        monkeypatch.setattr(analytics, "enumerate_primes", counting)
        ln = expected_count_log(1000, 10**7)
        # every term from p = 2503 on underflows to 0.0 next to the first
        assert len(drawn) < 1000
        assert ln == -501.11934327507424
        assert expected_count_log(1000, 10**12) == expected_count_log(1000, 10**5) == ln

    def test_empty_range(self):
        assert expected_count_log(7, 7) == float("-inf")
        assert expected_count(7, 7) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_count_log(5, 100)

    def test_prefix_dominates_tail(self):
        # the sum over [7, hi) is carried almost entirely by the first prime
        total = expected_count(7, 1000)
        assert heuristic(7).exact < total < heuristic(7).exact * 1.7
