"""Distribution statistics for factorial residues and the vanishing heuristic.

F(p) counts the residues mod p that never occur among 1!, 2!, ..., (p-1)!.
A socialist prime is exactly one with F(p) = 2 (only 0 and one further
residue missed), so the empirical floor of F over a range is a direct
health check on the search: F = 2 appearing for some p > 5 would be a
discovery.

The heuristic treats the roughly (p-3)(p-4)/2 factorial pairs that no
classical identity forces apart as independent uniform values, giving
survival probability (1 - 1/p)^((p-3)(p-4)/2), asymptotically e^((7-p)/2).
Everything is carried in log space; the exponents are exact integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .primes import PrimeRange, enumerate_primes

__all__ = [
    "FpStatistic",
    "FpHistogram",
    "HeuristicEstimate",
    "fp_statistic",
    "fp_histogram",
    "heuristic",
    "expected_count",
    "expected_count_log",
    "scientific_from_log",
]

#: fp_statistic allocates one byte per residue; refuse beyond this.
TABLE_LIMIT = 1 << 28

#: fp_histogram is quadratic in its limit; refuse beyond this unless the
#: caller raises the budget explicitly.
DEFAULT_HISTOGRAM_BUDGET = 10**7


@dataclass(frozen=True)
class FpStatistic:
    """F(p): how many residues mod p are missed by the factorials."""

    p: int
    f_value: int


@dataclass(frozen=True)
class FpHistogram:
    """F-value counts over all primes in [5, limit)."""

    limit: int
    counts: dict[int, int]
    primes_scanned: int
    min_f: int | None
    min_f_primes: tuple[int, ...]


def fp_statistic(p: int) -> FpStatistic:
    """Scan all of 1! .. (p-1)! mod p and count the residues never hit.

    0 is never a factorial value mod a prime, so it is always among the
    missing, and socialist means f_value == 2.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if p > TABLE_LIMIT:
        raise ValueError(f"p={p} exceeds the {TABLE_LIMIT}-byte scan table budget")
    table = bytearray(p)
    f = 1
    for n in range(1, p):
        f = f * n % p
        table[f] = 1
    return FpStatistic(p, p - sum(table))


def _fp_pair(p: int) -> tuple[int, int]:
    return p, fp_statistic(p).f_value


def fp_histogram(limit: int, *, jobs: int = 1, budget: int = DEFAULT_HISTOGRAM_BUDGET) -> FpHistogram:
    """Histogram of F(p) over primes 5 <= p < limit.

    Total work is quadratic in limit (each prime costs O(p)), so the
    budget guard is deliberate friction: pass a larger budget to confirm
    a long scan is intended.  jobs > 1 scans in that many processes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if limit > budget:
        raise ValueError(f"limit {limit} exceeds the histogram budget {budget}; raise budget= to confirm")
    primes = list(enumerate_primes(PrimeRange(5, max(limit, 5))))
    if jobs > 1:
        from multiprocessing import Pool  # here: it loads threading and more, which jobs=1 never uses

        with Pool(jobs) as pool:
            pairs = pool.map(_fp_pair, primes, chunksize=64)
    else:
        pairs = [_fp_pair(p) for p in primes]

    counts: Counter[int] = Counter(f for _p, f in pairs)
    min_f = min(counts) if counts else None
    min_primes = tuple(p for p, f in pairs if f == min_f) if counts else ()
    return FpHistogram(
        limit=limit,
        counts=dict(sorted(counts.items())),
        primes_scanned=len(primes),
        min_f=min_f,
        min_f_primes=min_primes,
    )


@dataclass(frozen=True)
class HeuristicEstimate:
    """Survival probability for one p, held as logs to dodge underflow.

    log_exact is ln of (1 - 1/p)^((p-3)(p-4)/2); limit_exponent is the
    exact integer (7-p)/2 from the asymptotic form e^((7-p)/2).
    """

    p: int
    log_exact: float
    limit_exponent: int

    @property
    def exact(self) -> float:
        return math.exp(self.log_exact)

    @property
    def limit_form(self) -> float:
        return math.exp(self.limit_exponent)

    def exact_scientific(self) -> tuple[float, int]:
        return scientific_from_log(self.log_exact)

    def limit_scientific(self) -> tuple[float, int]:
        return scientific_from_log(float(self.limit_exponent))


def scientific_from_log(ln_x: float) -> tuple[float, int]:
    """Split e^ln_x into (mantissa in [1, 10), base-10 exponent)."""
    log10_x = ln_x / math.log(10)
    e10 = math.floor(log10_x)
    return 10.0 ** (log10_x - e10), int(e10)


def heuristic(p: int) -> HeuristicEstimate:
    """Independence-model survival probability for one odd p >= 5.

    The pair exponent (p-3)(p-4)/2 and the limit exponent (7-p)/2 are
    both exact integers (consecutive integers make the first product
    even; odd p makes 7-p even).
    """
    if p < 5 or p & 1 == 0:
        raise ValueError("heuristic needs an odd p >= 5")
    pairs = (p - 3) * (p - 4) // 2
    return HeuristicEstimate(p, pairs * math.log1p(-1.0 / p), (7 - p) // 2)


def expected_count_log(lo: int, hi: int) -> float:
    """ln of the summed survival probabilities over primes in [lo, hi).

    Streaming logsumexp anchored on the first term, which is the largest
    because the per-prime probability is decreasing; -inf for an empty
    range.
    """
    if lo < 7:
        raise ValueError("expected counts start at 7; smaller p are settled by inspection")
    first = None
    acc = 0.0
    for p in enumerate_primes(PrimeRange(lo, max(hi, lo))):
        log_term = heuristic(p).log_exact
        if first is None:
            first = log_term
            acc = 1.0
        else:
            acc += math.exp(log_term - first)
    if first is None:
        return float("-inf")
    return first + math.log(acc)


def expected_count(lo: int, hi: int) -> float:
    """Expected number of socialist primes in [lo, hi) under the model."""
    return math.exp(expected_count_log(lo, hi))
