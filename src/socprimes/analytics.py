"""Distribution statistics for factorial residues and the vanishing heuristic.

F(p) counts the residues mod p that never occur among 1!, 2!, ..., (p-1)!.
A socialist prime is exactly one with F(p) = 2 (only 0 and one further
residue missed), so the empirical floor of F over a range is a direct
health check on the search: F = 2 appearing for some p > 5 would be a
discovery.  fp_statistic and fp_histogram share one F loop, which walks
the factorial chains of two primes p < q in one pass: each multiplier
n < p serves both chains.  A histogram takes consecutive primes in pairs,
32 pairs (64 primes) to a pool chunk.

The heuristic treats the roughly (p-3)(p-4)/2 factorial pairs that no
classical identity forces apart as independent uniform values, giving
survival probability (1 - 1/p)^((p-3)(p-4)/2), asymptotically e^((7-p)/2).
Every value is a logarithm: as a float the probability is subnormal from
p = 1425 and 0.0 from p = 1497, well inside the range a search covers.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .primes import PrimeRange, enumerate_primes

__all__ = [
    "FpHistogram",
    "HeuristicEstimate",
    "fp_statistic",
    "fp_histogram",
    "heuristic",
    "expected_count_log",
    "scientific_from_log",
]

#: fp_statistic allocates one byte per residue; refuse beyond this.
TABLE_LIMIT = 1 << 28

#: fp_histogram is quadratic in its limit; refuse beyond this.
DEFAULT_HISTOGRAM_BUDGET = 10**7


class FpHistogram(namedtuple("FpHistogram", "limit counts primes_scanned min_f min_f_primes")):
    """F-value counts over all primes in [5, limit).

    min_f is the least F value (None for no primes), min_f_primes the tuple of primes at it.
    """

    __slots__ = ()


def _fp_pair(p: int, q: int) -> tuple[int, int]:
    """(F(p), F(q)) for p < q, with both factorial chains in one pass.

    Below n = p each step multiplies both chains by the same n; q then
    runs on alone.  Each chain marks its residues in its own bytearray, one
    byte per residue.  p = 1 leaves the shared stretch empty: the one-prime
    case, whose first value callers discard.
    """
    seen_p, seen_q = bytearray(p), bytearray(q)
    f = g = 1
    for n in range(1, p):
        f = f * n % p
        g = g * n % q
        seen_p[f] = 1
        seen_q[g] = 1
    for n in range(p, q):
        g = g * n % q
        seen_q[g] = 1
    return seen_p.count(0), seen_q.count(0)


def fp_statistic(p: int) -> int:
    """F(p): scan all of 1! .. (p-1)! mod p and count the residues never hit.

    0 is never a factorial value mod a prime, so it is always among the
    missing, and socialist means F(p) == 2.  This is the pair kernel's
    one-prime case; fp_histogram walks two chains per pass.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if p > TABLE_LIMIT:
        raise ValueError(f"p={p} exceeds the {TABLE_LIMIT}-byte scan table budget")
    return _fp_pair(1, p)[1]


def fp_histogram(limit: int, *, jobs: int = 1) -> FpHistogram:
    """Histogram of F(p) over primes 5 <= p < limit.

    Total work is quadratic in limit (each prime costs O(p)), so a limit
    above DEFAULT_HISTOGRAM_BUDGET, some CPU-days of scanning, is
    refused.  Consecutive primes are scanned in pairs, two chains per
    pass; an odd count pairs its first prime with 1, the one-prime case.
    The pairs go to the workers in chunks of 32 (64 primes), and
    min(jobs, chunks) workers scan them: more than one runs in a
    concurrent.futures pool, imported only then (it loads multiprocessing
    and threading); a worker that dies raises BrokenProcessPool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if limit > DEFAULT_HISTOGRAM_BUDGET:
        raise ValueError(f"limit {limit} exceeds the histogram budget {DEFAULT_HISTOGRAM_BUDGET}")
    primes = list(enumerate_primes(PrimeRange(5, max(limit, 5))))
    padded = [1] * (len(primes) % 2) + primes
    lows, highs = padded[0::2], padded[1::2]
    workers = min(jobs, -(-len(primes) // 64))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            pairs = list(pool.map(_fp_pair, lows, highs, chunksize=32))
    else:
        pairs = map(_fp_pair, lows, highs)
    f_values = [f for pair in pairs for f in pair][len(padded) - len(primes):]

    counts: Counter[int] = Counter(f_values)
    min_f = min(counts) if counts else None
    min_primes = tuple(p for p, f in zip(primes, f_values) if f == min_f)
    return FpHistogram(
        limit=limit,
        counts=dict(sorted(counts.items())),
        primes_scanned=len(primes),
        min_f=min_f,
        min_f_primes=min_primes,
    )


class HeuristicEstimate(namedtuple("HeuristicEstimate", "p log_exact limit_exponent")):
    """Survival probability for one p, held only as logs (see the module notes).

    log_exact is ln of (1 - 1/p)^((p-3)(p-4)/2); limit_exponent is the
    exact integer (7-p)/2 from the asymptotic form e^((7-p)/2).  As floats
    both are subnormal from p = 1425, and the first is 0.0 from p = 1497.
    """

    __slots__ = ()


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
    range.  The walk stops at the first term that underflows to 0.0 next
    to the first, as every later term would, so the result is bit-exact.
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
            term = math.exp(log_term - first)
            if term == 0.0:
                break
            acc += term
    if first is None:
        return float("-inf")
    return first + math.log(acc)

