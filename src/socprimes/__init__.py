"""Toolkit for hunting socialist primes.

A prime p > 5 is socialist when 2!, 3!, ..., (p-1)! are pairwise distinct
mod p.  None is known and a heuristic says none should exist, which makes
the interesting output of a search the certified absence: every prime in
a range either fails a cheap necessary condition or comes with an
explicit factorial collision witness.

Layering: modarith and primes are arithmetic bedrock, polycong finds the
roots mod p of a monic polynomial of any degree, filters stages the
necessary conditions and owns the p > 5 domain, verifier scans for a
factorial duplicate (a birthday window, else scan_bitset), engine drives
checkpointed range searches, analytics measures F(p) and the vanishing
heuristic, and cli fronts it all.

Importing the package loads every module above except cli, and from the
standard library only what a one-process run executes; not typing,
logging or the process pool.  concurrent.futures (and with it
multiprocessing, threading and logging) serves both pooled paths: it loads
on the first search with more than one worker or the first fp_histogram
with jobs > 1.  logging loads when a search commits a socialist verdict.
"""

from .analytics import (
    FpHistogram,
    HeuristicEstimate,
    expected_count_log,
    fp_histogram,
    fp_statistic,
    heuristic,
)
from .engine import (
    CheckpointError,
    Counters,
    RangeReport,
    SearchConfig,
    resume,
    search,
)
from .filters import (
    OUTCOMES,
    SIX_TERM_CUBIC,
    FilterCounts,
    count_filters,
    run_pipeline,
    stage_cubic,
    stage_legendre,
    stage_mod8,
)
from .modarith import jacobi, sqrt_mod
from .polycong import poly_roots
from .primes import PrimeRange, enumerate_primes, small_primes
from .verifier import (
    Verdict,
    VerdictKind,
    default_cap,
    factorial_mod,
    recheck_witness,
    scan_bitset,
    verify_distinct,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "Counters",
    "FilterCounts",
    "FpHistogram",
    "HeuristicEstimate",
    "OUTCOMES",
    "PrimeRange",
    "RangeReport",
    "SearchConfig",
    "SIX_TERM_CUBIC",
    "Verdict",
    "VerdictKind",
    "count_filters",
    "default_cap",
    "enumerate_primes",
    "expected_count_log",
    "factorial_mod",
    "fp_histogram",
    "fp_statistic",
    "heuristic",
    "jacobi",
    "poly_roots",
    "recheck_witness",
    "resume",
    "run_pipeline",
    "scan_bitset",
    "search",
    "small_primes",
    "sqrt_mod",
    "stage_cubic",
    "stage_legendre",
    "stage_mod8",
    "verify_distinct",
    "__version__",
]
