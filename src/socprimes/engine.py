"""Segment-parallel search driver with checkpointing and resume.

The range is cut into fixed-width segments.  Workers sieve each segment,
filter its primes in one pass, filters.segment_outcomes, which reads
stages 0 and 1 by residue class off the sieve's bytes (count_filters is
that same pass alone, over a whole range), scan the candidates it passes
and format the segment's results lines; the coordinator appends their
bytes strictly in segment order, so the output stream and every counter
are deterministic functions of the range alone, independent of thread
count and of how the range is segmented.  A leg
fixes its segments up front and commits every one: all that are left, or
with stop_after_segments=S at most S rounded up to a multiple of
threads, min(left, ceil(S/threads) * threads).  It runs min(threads, its
segments) workers; one worker means no pool.  With more than one, at
most that many segments are in flight, the next one submitted as one
finishes, and the pool is joined before the leg returns.  The pool
(concurrent.futures, which loads multiprocessing, threading and logging)
is imported by the first run that uses it, so importing this module
costs a one-worker run none of that.

The results file is line-delimited JSON holding one record per prime
that survived stage 1 of the filter pipeline: cubic rejections carry the
{y, x} witness the pipeline returns, verified candidates a Collision
{j, k, residue} witness, and any Socialist verdict is re-proved by a
second full bitset scan before being written.  That second scan is not
independent: above p = 4161 the birthday window default_cap(p) cannot
cover 2! .. (p-1)!, so a Socialist verdict there already comes from the
bitset scan and the confirmation reruns the same code.  It guards
against a transient fault, not against a defect in that scan.  The file
is the only record of what a run committed: a checkpoint names it by byte
length and sha256, and resume reads the record count and Socialist
records back from those bytes.

A run's state is its RangeReport, a namedtuple like every record here:
search and resume build the first one, each commit returns the next with
the segment folded in, every checkpoint is written from the latest, and
the run returns the last.  No report, and no list one holds, is changed
once it is built.  The checkpoint format, its writer and reader, and the
body of resume live in the checkpoint module, which this one imports on a
run's first checkpoint write and on a resume, so a search that writes no
checkpoint, like verify, filter-counts, fp-stats or heuristic, never loads
it or json.
"""

from __future__ import annotations

import functools
import os
import time
from collections import namedtuple
from collections.abc import Iterator
from itertools import count, islice
from math import isqrt

from .filters import DOMAIN_START, OUTCOMES, domain, segment_outcomes
from .filters import run_pipeline  # unused; kept bound because perfbench/spans.py wraps engine.run_pipeline
from .primes import PrimeRange, segment_flags, segment_size_for, small_primes
from .primes import primes_in_segment  # unused; kept bound because perfbench/spans.py wraps engine.primes_in_segment
from .verifier import VerdictKind, recheck_witness, scan_bitset, verify_distinct
from .verifier import factorial_mod  # unused; kept bound because perfbench/spans.py wraps engine.factorial_mod

# Names only annotations use.  TYPE_CHECKING is defined here, not taken from
# typing, whose import costs about 5 ms; type checkers read any constant of
# that name as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import hashlib
    from concurrent.futures import Future

__all__ = [
    "DOMAIN_START",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Counters",
    "SearchConfig",
    "RangeReport",
    "FilterCounts",
    "search",
    "resume",
    "count_filters",
]

CHECKPOINT_VERSION = 2

DEFAULT_CHECKPOINT_INTERVAL = 16

def _sha256() -> hashlib._Hash:
    # imported on first use: hashlib loads OpenSSL, about 4 ms added to every import of the package
    import hashlib

    return hashlib.sha256()


class CheckpointError(RuntimeError):
    """Checkpoint file missing, malformed, or inconsistent with its outputs."""


class Counters(namedtuple("Counters", ("examined", *OUTCOMES[:-1], "collisions", "neg_half_hits", "socialist"),
                          defaults=(0,) * (len(OUTCOMES) + 3))):  # every field defaults to 0
    """Per-outcome tallies.

    examined comes first; every later field names one outcome (a
    rejection in filters.OUTCOMES or a candidate's scan result), so
    examined always equals the sum of the rest.  A commit sums a
    segment's tallies into new Counters field by field.  neg_half_hits is
    always 0: no scan reports that outcome (see the verifier module), but
    the field stays because the checkpoint counters block, search --json
    and the benchmark's reference counters all carry it.
    """

    __slots__ = ()

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self._fields, self))

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> Counters:
        values = {name: d.get(name) for name in cls._fields}
        bad = [name for name, v in values.items() if type(v) is not int or v < 0]
        if bad:
            raise CheckpointError(f"bad counters block: {', '.join(bad)} not non-negative integers")
        return cls(**values)

    def partitioned(self) -> bool:
        examined, *outcomes = self
        return examined == sum(outcomes)

    @property
    def stage1_survivors(self) -> int:
        return self.rejected_cubic + self.stage2_survivors

    @property
    def stage2_survivors(self) -> int:
        return self.collisions + self.neg_half_hits + self.socialist


class SearchConfig(namedtuple("SearchConfig", "range output_path threads strict_cubic checkpoint_path "
                              "checkpoint_interval stop_after_segments",
                              defaults=(1, False, None, DEFAULT_CHECKPOINT_INTERVAL, None))):
    """One search run: what range, where results go, how hard to push.

    range is a PrimeRange; a checkpoint_path of None writes no checkpoint.

    stop_after_segments is a cooperative interrupt: the run commits that
    many segments rounded up to a multiple of threads (fewer where the
    range ends first), writes a checkpoint and returns a partial report.
    It exists so interruption and resume are testable without signals,
    and scripts/search_billion.py runs its legs with it.
    """

    __slots__ = ()


class RangeReport(namedtuple("RangeReport", "lo hi completed_through counters socialist_primes output_path "
                             "wall_seconds resumed", defaults=(0.0, False))):
    """A search's state while it runs, and what it established once it returns.

    search and resume build the first one, every committed segment
    returns the next, and every checkpoint is written from the latest.
    wall_seconds counts every leg of the search so far.  A checkpoint
    stores the results file's committed length and sha256 alone; resume
    reads the record count and socialist_primes back from those bytes.
    """

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return self.completed_through >= self.hi


class FilterCounts(namedtuple("FilterCounts", ("lo", "hi", "examined", *OUTCOMES,
                                              "stage1_survivors", "stage2_survivors"))):
    """Aggregate pipeline statistics over a prime range.

    stage1_survivors are the primes that reached stage 2 (they passed the
    mod-8 and both symbol tests); stage2_survivors additionally passed
    the cubic stage and are the candidates a verifier must scan.
    """

    __slots__ = ()


def _validate_config(config: SearchConfig) -> None:
    if config.checkpoint_path and os.path.realpath(config.output_path) in {
            os.path.realpath(config.checkpoint_path), os.path.realpath(config.checkpoint_path + ".tmp")}:
        raise ValueError(f"results file {config.output_path} would overwrite the checkpoint "
                         f"{config.checkpoint_path} or its .tmp file")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if config.checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    if config.stop_after_segments is not None:
        if config.stop_after_segments < 1:
            raise ValueError("stop_after_segments must be >= 1")
        if config.checkpoint_path is None:
            raise ValueError("stop_after_segments without a checkpoint would strand the partial run")
    # an OSError, as opening the results file there would raise, but before any segment runs
    if config.checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(config.checkpoint_path))):
        raise FileNotFoundError(f"the directory of checkpoint {config.checkpoint_path} does not exist")


# ----------------------------------------------------------------------
# segment work: the filter pass, then the scan of its candidates

# one entry, so a run with another hi drops the last one's base (76 MiB below sqrt(10^15))
_base_primes = functools.lru_cache(maxsize=1)(small_primes)


def _segment_task(args: tuple) -> tuple[int, Counters, list[int], bytes]:
    """One segment's seg_hi, counters, socialist primes and results lines (ASCII bytes).

    Each line is written as its record is made: json.dumps(record, separators=(",", ":")), keys in this order.
    """
    seg_lo, seg_hi, sqrt_limit, strict = args
    base = _base_primes(sqrt_limit)
    counts, survivors = segment_outcomes(seg_lo, seg_hi, segment_flags(seg_lo, seg_hi, base), strict)
    lines, socialist = [], []
    for p, hit in survivors:
        if hit is not None:
            lines.append(f'{{"p":{p},"outcome":"RejectedCubic","witness":{{"y":{hit[0]},"x":{hit[1]}}}}}\n')
        elif (verdict := verify_distinct(p)).kind is VerdictKind.COLLISION:
            if not recheck_witness(p, verdict.j, verdict.k):
                raise ArithmeticError(f"collision witness for p={p} failed recheck")
            lines.append(f'{{"p":{p},"outcome":"Collision","witness":'
                         f'{{"j":{verdict.j},"k":{verdict.k},"residue":{verdict.residue}}}}}\n')
        elif scan_bitset(p).kind is VerdictKind.SOCIALIST:
            lines.append(f'{{"p":{p},"outcome":"Socialist"}}\n')
            socialist.append(p)
        else:
            raise ArithmeticError(f"socialist verdict for p={p} failed its confirmation scan")
    *rejected, candidates = counts
    counters = Counters(sum(counts), *rejected, collisions=candidates - len(socialist), socialist=len(socialist))
    return seg_hi, counters, socialist, "".join(lines).encode("ascii")


def count_filters(lo: int, hi: int, strict: bool = False) -> FilterCounts:
    """Tally every pipeline outcome for primes in [lo, hi): a search's filter pass alone.

    The primes walked are those in domain(lo, hi), as in a search, in
    segments of primes.segment_size_for's width; the counts still record
    the lo and hi asked for.
    """
    rng = PrimeRange(*domain(lo, hi), segment_size_for(lo, hi))
    base = small_primes(isqrt(max(rng.hi - 1, 2)))
    tally, survivors = [0] * len(OUTCOMES), []
    for seg_lo, seg_hi in rng.segments():
        counts, hits = segment_outcomes(seg_lo, seg_hi, segment_flags(seg_lo, seg_hi, base), strict)
        tally = [a + b for a, b in zip(tally, counts)]
        survivors += hits
    return FilterCounts(lo, hi, sum(tally), *tally, stage1_survivors=[p for p, _ in survivors],
                        stage2_survivors=[p for p, hit in survivors if hit is None])


# ----------------------------------------------------------------------
# coordinator side

def _commit(report: RangeReport, out, digest: hashlib._Hash, seg_hi: int, counters: Counters,
            socialist: list[int], data: bytes) -> RangeReport:
    """Append one segment's results bytes to out and digest; the report with the segment folded in."""
    for p in socialist:
        import logging  # here: logging costs every import, and only this verdict logs

        logging.getLogger(__name__).critical(
            "SOCIALIST PRIME FOUND: p=%d survived a full distinctness scan twice", p)
    out.write(data)
    digest.update(data)
    return report._replace(
        completed_through=seg_hi,
        counters=Counters(*map(sum, zip(report.counters, counters))),
        socialist_primes=report.socialist_primes + socialist,
    )


def _in_order(args: Iterator[tuple], width: int) -> Iterator[tuple]:
    """_segment_task over args in a pool of `width` workers, yielded in order.

    A segment is submitted as soon as any other finishes, so at most
    `width` compute at once; finished ones wait in `ready` until every
    segment before them has been yielded.  The pool is joined when the
    generator finishes, fails or is closed.
    """
    # imported here, before the pool forks: it loads multiprocessing,
    # threading and logging, which a one-worker run never uses
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    with ProcessPoolExecutor(max_workers=width) as pool:
        index = count()
        running = {pool.submit(_segment_task, a): next(index) for a in islice(args, width)}
        ready: dict[int, Future] = {}
        for head in count():
            while head not in ready:
                if not running:
                    return
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                ready.update((running.pop(f), f) for f in done)
                running.update((pool.submit(_segment_task, a), next(index)) for a in islice(args, len(done)))
            yield ready.pop(head).result()


def _run(config: SearchConfig, report: RangeReport, out, digest: hashlib._Hash, started: float) -> RangeReport:
    """Run report's search from its completed_through on; digest is out's sha256 so far; the caller closes out."""
    sqrt_limit = isqrt(max(report.hi - 1, 2))
    _base_primes(sqrt_limit)  # warm before forking so workers inherit it
    size, threads = config.range.segment_size, config.threads
    # the leg's segments, fixed up front and all committed: what is left, or
    # for a stopped leg its stop rounded up to whole rounds of threads
    segments = -((report.completed_through - report.hi) // size)
    if config.stop_after_segments is not None:
        segments = min(segments, -(-config.stop_after_segments // threads) * threads)
    workers = min(threads, segments)
    args = (
        (lo, hi, sqrt_limit, config.strict_cubic)
        for lo, hi in islice(PrimeRange(report.completed_through, report.hi, size).segments(), segments)
    )
    results = _in_order(args, workers) if workers > 1 else (_segment_task(a) for a in args)
    prior_seconds = report.wall_seconds

    def persist(report: RangeReport) -> RangeReport:
        # durable results first, so a checkpoint never names bytes a crash can lose
        out.flush()
        os.fsync(out.fileno())
        report = report._replace(wall_seconds=prior_seconds + time.monotonic() - started)
        if config.checkpoint_path:
            from .checkpoint import _checkpoint_payload, _write_checkpoint  # the format and json, on the first write
            _write_checkpoint(config.checkpoint_path, _checkpoint_payload(config, report, out.tell(), digest))
        return report

    try:
        for committed, result in enumerate(results, 1):
            report = _commit(report, out, digest, *result)
            # the leg's last segment is left to the persist below
            if config.checkpoint_path and committed % config.checkpoint_interval == 0 and committed < segments:
                report = persist(report)
    finally:
        results.close()
    report = persist(report)

    if not report.counters.partitioned():
        raise RuntimeError("counter partition violated; search state is corrupt")
    return report


def search(config: SearchConfig) -> RangeReport:
    """Run a fresh search over config.range, overwriting the output file."""
    _validate_config(config)
    started = time.monotonic()
    lo, hi = domain(config.range.lo, config.range.hi)
    report = RangeReport(lo=lo, hi=hi, completed_through=lo, counters=Counters(), socialist_primes=[],
                         output_path=config.output_path)
    with open(config.output_path, "wb") as out:
        return _run(config, report, out, _sha256(), started)


def resume(checkpoint_path: str, output_path: str | None = None,
           threads: int | None = None, stop_after_segments: int | None = None, *,
           lo: int | None = None, hi: int | None = None, strict_cubic: bool | None = None) -> RangeReport:
    """Continue a checkpointed search to completion (or the next stop).

    The keyword arguments say which search the caller means, and a
    checkpoint written for another one raises CheckpointError before any
    file is opened: lo and hi, where given, must match the checkpoint's
    range once clamped the way search clamps them (the other end defaults
    to the checkpoint's); strict_cubic, where given, must equal the
    checkpoint's, since the run takes it from there.  So strict_cubic=True
    needs a checkpoint of a strict search, and strict_cubic=False one of a
    search without.  The segment size and checkpoint interval are always
    the checkpoint's, and its completed_through must be hi or lie on its
    segment grid, lo plus a multiple of the segment size, where every leg
    stops.

    The results file must start with the bytes the checkpoint committed
    (same length and sha256): a line for each stage-1 survivor its counters
    count, the first and the last of primes in [lo, completed_through), and
    a Socialist record for each socialist prime they count, whose p are the
    report's socialist_primes.  Anything past them must look like this
    run's uncommitted records: complete lines of primes in
    [completed_through, hi), increasing, then at most one torn line.
    Otherwise CheckpointError is raised and the file is left as it is.
    It is then truncated back to the checkpointed byte offset, discarding
    the uncommitted tail, so the final file is byte-identical to an
    uninterrupted run's.
    """
    from . import checkpoint  # the format, resume's checks and json load with the first resume

    return checkpoint.resume(checkpoint_path, output_path, threads, stop_after_segments, lo=lo, hi=hi,
                             strict_cubic=strict_cubic)
