"""Toolkit for hunting socialist primes.

A prime p > 5 is socialist when 2!, 3!, ..., (p-1)! are pairwise distinct
mod p.  None is known and a heuristic says none should exist, which makes
the interesting output of a search the certified absence: every prime in
a range either fails a cheap necessary condition or comes with an
explicit factorial collision witness.

Layering: modarith and primes are arithmetic bedrock, polycong finds the
cubic roots the filters need, filters stages the necessary conditions,
verifier performs full distinctness scans, engine drives checkpointed
range searches, analytics measures the F(p) distribution and the
vanishing heuristic, and cli fronts it all.
"""

from .analytics import (
    FpHistogram,
    FpStatistic,
    HeuristicEstimate,
    expected_count,
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
    SIX_TERM_CUBIC,
    FilterCounts,
    FilterOutcome,
    FilterVerdict,
    count_filters,
    run_pipeline,
    stage_cubic,
    stage_legendre,
    stage_mod8,
)
from .modarith import inv_mod, jacobi, sqrt_mod
from .polycong import CubicRootSet, MonicCubic, cubic_discriminant, cubic_roots
from .primes import PrimeRange, enumerate_primes, small_primes
from .verifier import (
    ScanMode,
    Verdict,
    VerdictKind,
    default_cap,
    factorial_mod,
    recheck_witness,
    verify_distinct,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "Counters",
    "CubicRootSet",
    "FilterCounts",
    "FilterOutcome",
    "FilterVerdict",
    "FpHistogram",
    "FpStatistic",
    "HeuristicEstimate",
    "MonicCubic",
    "PrimeRange",
    "RangeReport",
    "ScanMode",
    "SearchConfig",
    "SIX_TERM_CUBIC",
    "Verdict",
    "VerdictKind",
    "count_filters",
    "cubic_discriminant",
    "cubic_roots",
    "default_cap",
    "enumerate_primes",
    "expected_count",
    "expected_count_log",
    "factorial_mod",
    "fp_histogram",
    "fp_statistic",
    "heuristic",
    "inv_mod",
    "jacobi",
    "recheck_witness",
    "resume",
    "run_pipeline",
    "search",
    "small_primes",
    "sqrt_mod",
    "stage_cubic",
    "stage_legendre",
    "stage_mod8",
    "verify_distinct",
    "__version__",
]
