"""The checkpoint format: its writer, its reader, and resume.

A checkpoint is a small JSON document naming the range, the committed
high-water mark, the counters, and the byte length and sha256 of the
results file at commit time; what those bytes hold is read from them.
Writes are atomic (tmp file + os.replace), and a results path that is the
checkpoint or its tmp file, or a checkpoint in a directory that does not
exist, is refused before any file is opened (engine._validate_config,
which search shares).  Resume enforces what the checkpoint is for: given
the range, it refuses a checkpoint of another search before it opens the
results file, as it does a checkpoint of a strict_cubic search, a stage-2
mode that is retired; the segment size and checkpoint interval are the
checkpoint's own.  It then checks the committed prefix against
that digest, its line count against the counters' stage-1 survivors and,
where they count a socialist prime, its Socialist records against that
count, its first and last records against [lo, completed_through),
completed_through against the segment grid every leg stops on, and the
bytes past the offset against the records the run could have written
there, and truncates the file back to the recorded offset.  So a run
killed at any instant restarts cleanly and reproduces the exact bytes an
uninterrupted run would have produced, and a resume pointed at the wrong
results file fails instead of adopting it, even when the checkpoint
committed no record yet.

The engine imports this module, and with it json, on a search's first
checkpoint write and on a resume; a run that writes no checkpoint loads
neither.  engine.resume is the public entry and documents the checks.
"""

from __future__ import annotations

import json
import os
import re
import time
from itertools import islice
from math import isfinite

from .engine import (CHECKPOINT_VERSION, CheckpointError, Counters, RangeReport, SearchConfig, _run, _sha256,
                     _validate_config)
from .filters import DOMAIN_START, domain
from .primes import PrimeRange

# Names only annotations use; see the same block in engine.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import hashlib

#: A Socialist record exactly as engine._segment_task writes it.
_SOCIALIST_RECORD = re.compile(rb'\{"p":(\d+),"outcome":"Socialist"\}\n')

#: The start of every record engine._segment_task writes, up to its p.
_RECORD_P = re.compile(rb'\{"p":(\d+),')

#: Every checkpoint key resume reads, with its JSON type.  Other keys (the scan
#: strategy block, record count, socialist list or strict_cubic of older ones)
#: are ignored, except a strict_cubic that is not false, which is refused.
_CHECKPOINT_KEYS = {
    "version": int,
    "lo": int,
    "hi": int,
    "segment_size": int,
    "checkpoint_interval": int,
    "completed_through": int,
    "counters": dict,
    "output_path": str,
    "output_offset": int,
    "output_sha256": str,
    "elapsed": float,
}


def _checkpoint_payload(config: SearchConfig, report: RangeReport, offset: int, digest: hashlib._Hash) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "lo": report.lo,
        "hi": report.hi,
        "segment_size": config.range.segment_size,
        "checkpoint_interval": config.checkpoint_interval,
        "completed_through": report.completed_through,
        "counters": report.counters.as_dict(),
        "output_path": config.output_path,
        "output_offset": offset,
        "output_sha256": digest.hexdigest(),
        "elapsed": report.wall_seconds,
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
    if payload.get("strict_cubic", False) is not False:
        raise CheckpointError(f"checkpoint {path} is of a strict_cubic search; strict mode is retired")
    counters = Counters.from_dict(payload["counters"])
    if not counters.partitioned():
        raise CheckpointError("checkpoint counters do not partition examined")
    if not DOMAIN_START <= payload["lo"] <= payload["completed_through"] <= payload["hi"]:
        raise CheckpointError(f"checkpoint breaks {DOMAIN_START} <= lo <= completed_through <= hi")
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


def resume(checkpoint_path: str, output_path: str | None, threads: int | None, stop_after_segments: int | None,
           *, lo: int | None, hi: int | None) -> RangeReport:
    """engine.resume's body, with every argument given; engine.resume documents it."""
    payload = _load_checkpoint(checkpoint_path)
    started = time.monotonic()
    have = payload["lo"], payload["hi"]
    want = domain(have[0] if lo is None else lo, have[1] if hi is None else hi)
    if want != have:
        raise CheckpointError(f"checkpoint {checkpoint_path} is for the range [{have[0]}, {have[1]}), "
                              f"not [{want[0]}, {want[1]})")
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
        if digest.hexdigest() != payload["output_sha256"]:
            raise CheckpointError(f"results file {out_path} does not start with the bytes the checkpoint committed")
        counters = Counters.from_dict(payload["counters"])
        if records != counters.stage1_survivors:
            raise CheckpointError(f"the checkpoint counts {counters.stage1_survivors} stage-1 survivors, but "
                                  f"results file {out_path} commits {records} records")
        if not _tail_is_ours(out, payload["completed_through"], payload["hi"]):
            raise CheckpointError(
                f"results file {out_path} holds bytes past the checkpoint's offset that are not "
                f"this run's records of primes in [{payload['completed_through']}, {payload['hi']})"
            )
        # the committed lines again, one at a time, only where the counters hold a socialist prime
        out.seek(0)
        socialist = [int(m[1]) for line in islice(out, records if counters.socialist else 0)
                     if (m := _SOCIALIST_RECORD.fullmatch(line))]
        if len(socialist) != counters.socialist:
            raise CheckpointError(f"the checkpoint counts {counters.socialist} socialist primes, but "
                                  f"results file {out_path} commits {len(socialist)} Socialist records")
        if records:  # the first and the last committed record, by two short reads: a record is under 256 bytes
            out.seek(0)
            first = _RECORD_P.match(out.readline(256))
            out.seek(max(0, offset - 256))
            tail = out.read(min(offset, 256))
            last = _RECORD_P.match(tail, tail.rfind(b"\n", 0, -1) + 1)
            if not (first and last and payload["lo"] <= int(first[1]) and int(last[1]) < payload["completed_through"]):
                raise CheckpointError(f"results file {out_path} commits records outside the checkpoint's "
                                      f"[{payload['lo']}, {payload['completed_through']})")
        # every leg stops at hi or on the segment grid; a mark moved elsewhere would count primes twice
        through = payload["completed_through"]
        if through != rng.hi and (through - rng.lo) % rng.segment_size:
            raise CheckpointError(f"checkpoint completed_through {through} is neither hi nor lo plus a "
                                  f"multiple of its segment_size {rng.segment_size}")
        out.seek(offset)
        out.truncate()

        report = RangeReport(payload["lo"], payload["hi"], payload["completed_through"], counters, socialist,
                             out_path, wall_seconds=payload["elapsed"], resumed=True)
        return _run(config, report, out, digest, started)
