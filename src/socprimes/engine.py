"""Segment-parallel search driver with checkpointing and resume.

The range is cut into fixed-width segments.  Workers sieve and classify
their segment independently; the coordinator commits results strictly in
segment order, so the output stream and every counter are deterministic
functions of the range alone, independent of thread count and of how the
range is segmented.  With more than one worker, at most `threads`
segments are in flight: the next one is submitted as one finishes, and
a leg stopped by stop_after_segments submits no more than `threads - 1`
segments past its stop, so it leaves at most that many still running
after it returns.  The pool (concurrent.futures, which loads
multiprocessing, threading and logging) is imported by the first run that
uses it, so importing this module costs a one-worker run none of that.

The results file is line-delimited JSON holding one record per prime
that survived stage 1 of the filter pipeline: cubic rejections carry the
{y, x} witness the pipeline returns, verified candidates a Collision
{j, k, residue} witness, and any Socialist verdict is re-proved by a
second full bitset scan before being written.  That second scan is not
independent: above p = 4161 the birthday window default_cap(p) cannot
cover 2! .. (p-1)!, so a Socialist verdict there already comes from the
bitset scan and the confirmation reruns the same code.  It guards
against a transient fault, not against a defect in that scan.

A checkpoint is a small JSON document naming the range, the committed
high-water mark, the counters, and the byte length, record count and
sha256 of the results file at commit time.  Writes are atomic (tmp file +
os.replace).  Resume checks the results file's committed prefix against
that count and digest and the bytes past the offset against the records
the run could have written there, then truncates the file back to the
recorded offset.  So a run killed at any instant restarts cleanly and
reproduces the exact bytes an uninterrupted run would have produced, and
a resume pointed at the wrong results file fails instead of adopting it,
even when the checkpoint committed no record yet.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field, fields
from itertools import count, islice
from math import isfinite, isqrt

from .filters import run_pipeline
from .primes import DEFAULT_SEGMENT_SIZE, PrimeRange, primes_in_segment, small_primes
from .verifier import ScanMode, VerdictKind, recheck_witness, verify_distinct
from .verifier import factorial_mod  # unused; kept bound because perfbench/spans.py wraps engine.factorial_mod

# Names only annotations use.  TYPE_CHECKING is defined here, not taken from
# typing, whose import costs about 5 ms; type checkers read any constant of
# that name as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import hashlib
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "DOMAIN_START",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Counters",
    "SearchConfig",
    "RangeReport",
    "search",
    "resume",
    "check_resume",
]

#: Smallest prime the search examines; the problem statement is p > 5.
DOMAIN_START = 7

CHECKPOINT_VERSION = 2

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


@dataclass
class Counters:
    """Per-outcome tallies.

    examined comes first; every later field names one outcome (a
    rejection in filters.OUTCOMES or a candidate's scan result), so
    examined always equals the sum of the rest.  neg_half_hits is always
    0: no scan reports that outcome (see the verifier module), but the
    field stays because the checkpoint counters block, search --json and
    the benchmark's reference counters all carry it.
    """

    examined: int = 0
    rejected_mod8: int = 0
    rejected_legendre5: int = 0
    rejected_legendre23: int = 0
    rejected_cubic: int = 0
    collisions: int = 0
    neg_half_hits: int = 0
    socialist: int = 0

    def merge(self, other: Counters) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> Counters:
        values = {f.name: d.get(f.name) for f in fields(cls)}
        bad = [name for name, v in values.items() if type(v) is not int or v < 0]
        if bad:
            raise CheckpointError(f"bad counters block: {', '.join(bad)} not non-negative integers")
        return cls(**values)

    def partitioned(self) -> bool:
        examined, *outcomes = astuple(self)
        return examined == sum(outcomes)

    @property
    def stage1_survivors(self) -> int:
        return self.rejected_cubic + self.stage2_survivors

    @property
    def stage2_survivors(self) -> int:
        return self.collisions + self.neg_half_hits + self.socialist


@dataclass(frozen=True)
class SearchConfig:
    """One search run: what range, where results go, how hard to push.

    stop_after_segments is a cooperative interrupt: the run commits that
    many segments, writes a checkpoint and returns a partial report.  It
    exists so interruption and resume are testable without signals.
    """

    range: PrimeRange
    output_path: str
    threads: int = 1
    strict_cubic: bool = False
    checkpoint_path: str | None = None
    checkpoint_interval: int = 16
    stop_after_segments: int | None = None


@dataclass
class RangeReport:
    """What one search (or one resumed leg of it) established."""

    lo: int
    hi: int
    completed_through: int
    counters: Counters
    socialist_primes: list[int]
    output_path: str
    wall_seconds: float
    resumed: bool = False

    @property
    def complete(self) -> bool:
        return self.completed_through >= self.hi


def _validate_config(config: SearchConfig) -> None:
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if config.checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    if config.stop_after_segments is not None:
        if config.stop_after_segments < 1:
            raise ValueError("stop_after_segments must be >= 1")
        if config.checkpoint_path is None:
            raise ValueError("stop_after_segments without a checkpoint would strand the partial run")


# ----------------------------------------------------------------------
# worker side

_base_primes = functools.cache(small_primes)


def _classify(p: int, strict: bool) -> tuple[str, dict | None]:
    """Map one prime to the Counters field it is tallied in and (for stage-1 survivors) a record."""
    outcome, witness = run_pipeline(p, strict)
    if witness is not None:
        return outcome, {"p": p, "outcome": "RejectedCubic", "witness": witness}
    if outcome != "candidates":
        return outcome, None

    verdict = verify_distinct(p)
    if verdict.kind is VerdictKind.COLLISION:
        if not recheck_witness(p, verdict.j, verdict.k):
            raise ArithmeticError(f"collision witness for p={p} failed recheck")
        return "collisions", {
            "p": p,
            "outcome": "Collision",
            "witness": {"j": verdict.j, "k": verdict.k, "residue": verdict.residue},
        }
    confirm = verify_distinct(p, ScanMode.NAIVE_BITSET)
    if confirm.kind is not VerdictKind.SOCIALIST:
        raise ArithmeticError(f"socialist verdict for p={p} failed its confirmation scan")
    return "socialist", {"p": p, "outcome": "Socialist"}


def _segment_task(args: tuple) -> tuple[int, Counters, list[dict]]:
    seg_lo, seg_hi, sqrt_limit, strict = args
    base = _base_primes(sqrt_limit)
    tally = Counters().as_dict()  # a plain dict: cheaper per prime than Counters' attributes
    records: list[dict] = []
    for p in primes_in_segment(seg_lo, seg_hi, base):
        outcome, record = _classify(p, strict)
        tally[outcome] += 1
        if record is not None:
            records.append(record)
    tally["examined"] = sum(tally.values())
    return seg_hi, Counters(**tally), records


# ----------------------------------------------------------------------
# coordinator side

@dataclass
class _RunState:
    lo: int
    hi: int
    counters: Counters
    completed_through: int
    socialist: list[int]
    bytes_written: int
    prior_elapsed: float
    resumed: bool = False
    segments_done_this_run: int = 0
    records_written: int = 0
    digest: hashlib._Hash = field(default_factory=_sha256)


def _checkpoint_payload(config: SearchConfig, state: _RunState, elapsed: float) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "lo": state.lo,
        "hi": state.hi,
        "segment_size": config.range.segment_size,
        "strict_cubic": config.strict_cubic,
        "checkpoint_interval": config.checkpoint_interval,
        "completed_through": state.completed_through,
        "counters": state.counters.as_dict(),
        "socialist": list(state.socialist),
        "output_path": config.output_path,
        "output_offset": state.bytes_written,
        "output_records": state.records_written,
        "output_sha256": state.digest.hexdigest(),
        "elapsed": state.prior_elapsed + elapsed,
    }


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_checkpoint(path: str) -> dict:
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


def _commit(state: _RunState, out, counters: Counters, records: list[dict], seg_hi: int) -> None:
    pieces = []
    for rec in records:
        if rec["outcome"] == "Socialist":
            state.socialist.append(rec["p"])
            import logging  # here: logging costs every import, and only this verdict logs

            logging.getLogger(__name__).critical(
                "SOCIALIST PRIME FOUND: p=%d survived a full distinctness scan twice", rec["p"])
        pieces.append(json.dumps(rec, separators=(",", ":")))
    if pieces:
        data = ("\n".join(pieces) + "\n").encode("ascii")
        out.write(data)
        state.digest.update(data)
        state.bytes_written += len(data)
        state.records_written += len(pieces)
    state.counters.merge(counters)
    state.completed_through = seg_hi
    state.segments_done_this_run += 1


def _in_order(pool: ProcessPoolExecutor, args: Iterator[tuple], width: int) -> Iterator[tuple]:
    """_segment_task over args, yielded in order, with `width` segments computing at once.

    A segment is submitted as soon as any other finishes; finished ones
    wait in `ready` until every segment before them has been yielded.
    """
    from concurrent.futures import FIRST_COMPLETED, wait  # loaded by _run already

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


def _run(config: SearchConfig, state: _RunState, out, started: float) -> RangeReport:
    sqrt_limit = isqrt(max(state.hi - 1, 2))
    _base_primes(sqrt_limit)  # warm before forking so workers inherit it
    args = (
        (lo, hi, sqrt_limit, config.strict_cubic)
        for lo, hi in PrimeRange(state.completed_through, state.hi, config.range.segment_size).segments()
    )
    stop_after = config.stop_after_segments

    def handle(result: tuple[int, Counters, list[dict]]) -> bool:
        seg_hi, counters, records = result
        _commit(state, out, counters, records, seg_hi)
        if config.checkpoint_path and state.segments_done_this_run % config.checkpoint_interval == 0:
            out.flush()
            os.fsync(out.fileno())
            _write_checkpoint(
                config.checkpoint_path,
                _checkpoint_payload(config, state, time.monotonic() - started),
            )
        return stop_after is not None and state.segments_done_this_run >= stop_after

    try:
        if config.threads == 1:
            for a in args:
                if handle(_segment_task(a)):
                    break
        else:
            if stop_after is not None:
                # segments past the stop are computed and thrown away; keep them
                # to what the other workers are already running when it comes
                args = islice(args, stop_after + config.threads - 1)
            # imported here, before the pool forks: it loads multiprocessing,
            # threading and logging, which a one-worker run never uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                for result in _in_order(pool, args, config.threads):
                    if handle(result):
                        pool.shutdown(wait=False, cancel_futures=True)
                        break
        out.flush()
        os.fsync(out.fileno())
    finally:
        out.close()

    elapsed = time.monotonic() - started
    if config.checkpoint_path:
        _write_checkpoint(config.checkpoint_path, _checkpoint_payload(config, state, elapsed))

    if not state.counters.partitioned():
        raise RuntimeError("counter partition violated; search state is corrupt")
    return RangeReport(
        lo=state.lo,
        hi=state.hi,
        completed_through=state.completed_through,
        counters=state.counters,
        socialist_primes=list(state.socialist),
        output_path=config.output_path,
        wall_seconds=state.prior_elapsed + elapsed,
        resumed=state.resumed,
    )


def _domain(lo: int, hi: int) -> tuple[int, int]:
    """The part of [lo, hi) a search covers: lo raised to DOMAIN_START, hi to at least lo."""
    lo = max(lo, DOMAIN_START)
    return lo, max(hi, lo)


def search(config: SearchConfig) -> RangeReport:
    """Run a fresh search over config.range, overwriting the output file."""
    _validate_config(config)
    started = time.monotonic()
    lo, hi = _domain(config.range.lo, config.range.hi)
    state = _RunState(
        lo=lo,
        hi=hi,
        counters=Counters(),
        completed_through=lo,
        socialist=[],
        bytes_written=0,
        prior_elapsed=0.0,
    )
    out = open(config.output_path, "wb")
    return _run(config, state, out, started)


def check_resume(checkpoint_path: str, lo: int | None = None, hi: int | None = None,
                 strict_cubic: bool = False, segment_size: int | None = None,
                 checkpoint_interval: int | None = None) -> None:
    """Raise CheckpointError unless resuming checkpoint_path runs the search asked for.

    lo and hi, where given, must match the checkpoint's range once clamped
    the way search clamps them (the other end defaults to the checkpoint's);
    strict_cubic=True needs a checkpoint of a strict search; segment_size
    and checkpoint_interval, where given, must equal the checkpoint's,
    since resume takes both from it.  Reads only the checkpoint.
    """
    payload = _load_checkpoint(checkpoint_path)
    have = payload["lo"], payload["hi"]
    want = _domain(have[0] if lo is None else lo, have[1] if hi is None else hi)
    if want != have:
        raise CheckpointError(f"checkpoint {checkpoint_path} is for the range [{have[0]}, {have[1]}), "
                              f"not [{want[0]}, {want[1]})")
    if strict_cubic and not payload["strict_cubic"]:
        raise CheckpointError(f"checkpoint {checkpoint_path} is for a search without strict cubic checking")
    for key, given in (("segment_size", segment_size), ("checkpoint_interval", checkpoint_interval)):
        if given is not None and given != payload[key]:
            raise CheckpointError(f"checkpoint {checkpoint_path} has {key} {payload[key]}, not {given}")


def resume(checkpoint_path: str, output_path: str | None = None,
           threads: int | None = None, stop_after_segments: int | None = None) -> RangeReport:
    """Continue a checkpointed search to completion (or the next stop).

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

    if offset == 0 and not os.path.exists(out_path):
        out = open(out_path, "wb")
    else:
        try:
            out = open(out_path, "r+b")
        except OSError as exc:
            raise CheckpointError(f"results file {out_path} is missing: {exc}") from exc
        if os.fstat(out.fileno()).st_size < offset:
            out.close()
            raise CheckpointError(f"results file {out_path} is shorter than the checkpoint's offset")
    digest, records = _read_prefix(out, offset)
    if records != payload["output_records"] or digest.hexdigest() != payload["output_sha256"]:
        out.close()
        raise CheckpointError(
            f"results file {out_path} does not start with the {payload['output_records']} records "
            f"the checkpoint committed (found {records} lines, sha256 {digest.hexdigest()})"
        )
    if not _tail_is_ours(out, payload["completed_through"], payload["hi"]):
        out.close()
        raise CheckpointError(
            f"results file {out_path} holds bytes past the checkpoint's offset that are not "
            f"this run's records of primes in [{payload['completed_through']}, {payload['hi']})"
        )
    out.seek(offset)
    out.truncate()

    state = _RunState(
        lo=payload["lo"],
        hi=payload["hi"],
        counters=Counters.from_dict(payload["counters"]),
        completed_through=payload["completed_through"],
        socialist=payload["socialist"],
        bytes_written=offset,
        prior_elapsed=payload["elapsed"],
        resumed=True,
        records_written=payload["output_records"],
        digest=digest,
    )
    return _run(config, state, out, started)
