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
against a transient fault, not against a defect in that scan.

A run's state is its RangeReport, a namedtuple like every record here:
search and resume build the first one, each commit returns the next with
the segment folded in, every checkpoint is written from the latest, and
the run returns the last.  No report, and no list one holds, is changed
once it is built.  A checkpoint is a small JSON document naming the
range, the committed high-water mark, the counters, and the byte length,
record count and sha256 of the results file at commit time.  Writes are
atomic (tmp file + os.replace), and a results path that is the
checkpoint or its tmp file, or a checkpoint in a directory that does not
exist, is refused before any file is opened.  Resume enforces what
the checkpoint is for: given the range, strict_cubic or either size, it
refuses a checkpoint of another search before it opens the results file.
It then checks the file's committed prefix against that count and digest
and the bytes past the offset against the records the run could have
written there, and truncates the file back to the recorded offset.  So a
run killed at any instant restarts cleanly and reproduces the exact bytes
an uninterrupted run would have produced, and a resume pointed at the
wrong results file fails instead of adopting it, even when the checkpoint
committed no record yet.
"""

from __future__ import annotations

import functools
import os
import time
from collections import namedtuple
from collections.abc import Iterator
from itertools import count, islice
from math import isfinite, isqrt

from .filters import DOMAIN_START, OUTCOMES, domain, segment_outcomes
from .filters import run_pipeline  # unused; kept bound because perfbench/spans.py wraps engine.run_pipeline
from .primes import PrimeRange, segment_flags, small_primes
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

#: Every checkpoint key resume reads, with its JSON type.  Other keys (such
#: as the scan strategy block older checkpoints carry) are ignored.
_CHECKPOINT_KEYS = {
    "version": int,
    "lo": int,
    "hi": int,
    "segment_size": int,
    "strict_cubic": bool,
    "checkpoint_interval": int,
    "completed_through": int,
    "counters": dict,
    "socialist": list,
    "output_path": str,
    "output_offset": int,
    "output_records": int,
    "output_sha256": str,
    "elapsed": float,
}


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
                             "wall_seconds resumed output_offset output_records", defaults=(0.0, False, 0, 0))):
    """A search's state while it runs, and what it established once it returns.

    search and resume build the first one, every committed segment
    returns the next, and every checkpoint is written from the latest.
    wall_seconds counts every leg of the search so far; output_offset and
    output_records are the byte length and record count of the results
    file's committed prefix, which the checkpoint stores next to its
    sha256.
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

_base_primes = functools.cache(small_primes)


def _segment_task(args: tuple) -> tuple[int, Counters, list[int], bytes, int]:
    """One segment's seg_hi, counters, socialist primes, results lines (ASCII bytes) and line count.

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
    return seg_hi, counters, socialist, "".join(lines).encode("ascii"), len(lines)


def count_filters(lo: int, hi: int, strict: bool = False) -> FilterCounts:
    """Tally every pipeline outcome for primes in [lo, hi): a search's filter pass alone.

    The primes walked are those in domain(lo, hi), as in a search, in
    segments of the default width; the counts still record the lo and hi
    asked for.
    """
    rng = PrimeRange(*domain(lo, hi))
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

def _checkpoint_payload(config: SearchConfig, report: RangeReport, digest: hashlib._Hash) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "lo": report.lo,
        "hi": report.hi,
        "segment_size": config.range.segment_size,
        "strict_cubic": config.strict_cubic,
        "checkpoint_interval": config.checkpoint_interval,
        "completed_through": report.completed_through,
        "counters": report.counters.as_dict(),
        "socialist": report.socialist_primes,
        "output_path": config.output_path,
        "output_offset": report.output_offset,
        "output_records": report.output_records,
        "output_sha256": digest.hexdigest(),
        "elapsed": report.wall_seconds,
    }


def _write_checkpoint(path: str, payload: dict) -> None:
    import json  # here and in the two readers below: json costs every import about 2 ms
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_checkpoint(path: str) -> dict:
    import json
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    for key, kind in _CHECKPOINT_KEYS.items():
        value = payload.get(key)
        # exact types, because bool is an int subclass; elapsed may be whole
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise CheckpointError(f"checkpoint {path}: {key} must be {kind.__name__}, got {value!r}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported version {payload['version']}")
    counters = Counters.from_dict(payload["counters"])
    if not counters.partitioned():
        raise CheckpointError("checkpoint counters do not partition examined")
    lo, done, socialist = payload["lo"], payload["completed_through"], payload["socialist"]
    if not DOMAIN_START <= lo <= done <= payload["hi"]:
        raise CheckpointError(f"checkpoint breaks {DOMAIN_START} <= lo <= completed_through <= hi")
    if (len(socialist) != counters.socialist or not all(type(p) is int for p in socialist)
            or socialist != sorted(set(socialist)) or not all(lo <= p < done for p in socialist)):
        raise CheckpointError("checkpoint socialist list does not match its counter and committed range")
    if payload["output_offset"] < 0 or payload["checkpoint_interval"] < 1:
        raise CheckpointError("checkpoint output_offset or checkpoint_interval out of range")
    if not (isfinite(payload["elapsed"]) and payload["elapsed"] >= 0):
        raise CheckpointError(f"checkpoint elapsed must be a finite number >= 0, got {payload['elapsed']!r}")
    return payload


def _read_prefix(fh, length: int) -> tuple[hashlib._Hash, int]:
    """sha256 and line count of the first `length` bytes; leaves fh at `length`."""
    digest, lines = _sha256(), 0
    fh.seek(0)
    while length > 0 and (data := fh.read(min(1 << 20, length))):
        digest.update(data)
        lines += data.count(b"\n")
        length -= len(data)
    return digest, lines


def _tail_is_ours(fh, lo: int, hi: int) -> bool:
    """Whether the bytes from fh's position on can be a run's uncommitted records.

    Each complete line must be a record of a prime in [lo, hi), the primes
    increasing; a last line without its newline is a torn write and must
    begin like a record.
    """
    import json
    last = lo - 1
    for line in fh:
        if not line.endswith(b"\n"):
            return b'{"p":'.startswith(line[:5])
        try:
            p = json.loads(line)["p"]
        except (ValueError, TypeError, KeyError, RecursionError):
            return False
        if type(p) is not int or not last < p < hi:
            return False
        last = p
    return True


def _commit(report: RangeReport, out, digest: hashlib._Hash, seg_hi: int, counters: Counters,
            socialist: list[int], data: bytes, lines: int) -> RangeReport:
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
        output_offset=report.output_offset + len(data),
        output_records=report.output_records + lines,
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
            _write_checkpoint(config.checkpoint_path, _checkpoint_payload(config, report, digest))
        return report

    try:
        for committed, result in enumerate(results, 1):
            report = _commit(report, out, digest, *result)
            if config.checkpoint_path and committed % config.checkpoint_interval == 0:
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
           lo: int | None = None, hi: int | None = None, strict_cubic: bool | None = None,
           segment_size: int | None = None, checkpoint_interval: int | None = None) -> RangeReport:
    """Continue a checkpointed search to completion (or the next stop).

    The keyword arguments say which search the caller means, and a
    checkpoint written for another one raises CheckpointError before any
    file is opened: lo and hi, where given, must match the checkpoint's
    range once clamped the way search clamps them (the other end defaults
    to the checkpoint's); strict_cubic, segment_size and
    checkpoint_interval, where given, must equal the checkpoint's, since
    the run takes all three from it.  So strict_cubic=True needs a
    checkpoint of a strict search, and strict_cubic=False one of a search
    without.

    The results file must start with the bytes the checkpoint committed
    (same record count and sha256), and anything past them must look like
    this run's uncommitted records: complete lines of primes in
    [completed_through, hi), increasing, then at most one torn line.
    Otherwise CheckpointError is raised and the file is left as it is.
    It is then truncated back to the checkpointed byte offset, discarding
    the uncommitted tail, so the final file is byte-identical to an
    uninterrupted run's.
    """
    payload = _load_checkpoint(checkpoint_path)
    started = time.monotonic()
    have = payload["lo"], payload["hi"]
    want = domain(have[0] if lo is None else lo, have[1] if hi is None else hi)
    if want != have:
        raise CheckpointError(f"checkpoint {checkpoint_path} is for the range [{have[0]}, {have[1]}), "
                              f"not [{want[0]}, {want[1]})")
    for key, given in (("strict_cubic", strict_cubic), ("segment_size", segment_size),
                       ("checkpoint_interval", checkpoint_interval)):
        if given is not None and given != payload[key]:
            raise CheckpointError(f"checkpoint {checkpoint_path} has {key} {payload[key]}, not {given}")
    out_path = output_path or payload["output_path"]
    offset = payload["output_offset"]
    try:
        rng = PrimeRange(payload["lo"], payload["hi"], payload["segment_size"])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint range is invalid: {exc}") from exc

    config = SearchConfig(
        range=rng,
        output_path=out_path,
        threads=threads if threads is not None else 1,
        strict_cubic=payload["strict_cubic"],
        checkpoint_path=checkpoint_path,
        checkpoint_interval=payload["checkpoint_interval"],
        stop_after_segments=stop_after_segments,
    )
    _validate_config(config)

    try:
        out = open(out_path, "r+b" if offset or os.path.exists(out_path) else "wb")
    except OSError as exc:
        raise CheckpointError(f"results file {out_path} cannot be opened: {exc}") from exc
    with out:
        if os.fstat(out.fileno()).st_size < offset:
            raise CheckpointError(f"results file {out_path} is shorter than the checkpoint's offset")
        digest, records = _read_prefix(out, offset)
        if records != payload["output_records"] or digest.hexdigest() != payload["output_sha256"]:
            raise CheckpointError(
                f"results file {out_path} does not start with the {payload['output_records']} records "
                f"the checkpoint committed (found {records} lines, sha256 {digest.hexdigest()})"
            )
        if not _tail_is_ours(out, payload["completed_through"], payload["hi"]):
            raise CheckpointError(
                f"results file {out_path} holds bytes past the checkpoint's offset that are not "
                f"this run's records of primes in [{payload['completed_through']}, {payload['hi']})"
            )
        out.seek(offset)
        out.truncate()

        report = RangeReport(payload["lo"], payload["hi"], payload["completed_through"],
                             Counters.from_dict(payload["counters"]), payload["socialist"], out_path,
                             wall_seconds=payload["elapsed"], resumed=True, output_offset=offset,
                             output_records=records)
        return _run(config, report, out, digest, started)
