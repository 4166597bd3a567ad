import concurrent.futures
import contextlib
import copy
import hashlib
import io
import json
import logging
import multiprocessing
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socprimes import checkpoint, engine
from socprimes.analytics import fp_histogram, heuristic
from socprimes.cli import main
from socprimes.engine import (
    CHECKPOINT_VERSION,
    DOMAIN_START,
    CheckpointError,
    Counters,
    RangeReport,
    SearchConfig,
    _commit,
    count_filters,
    resume,
    search,
)
from socprimes.filters import OUTCOMES
from socprimes.primes import DEFAULT_SEGMENT_SIZE, PrimeRange
from socprimes.verifier import (
    Verdict,
    VerdictKind,
    factorial_mod,
    recheck_witness,
    scan_bitset,
    verify_distinct,
)

NOT_OBJECTS = ([], [7, 3000], "checkpoint", 7, 7.5, None, True)
WRONG_TYPES = (None, "7", 7.5, True, [7], {"lo": 7})


def run_search(tmp_path, lo, hi, name="out.jsonl", **kw):
    cfg = SearchConfig(
        range=PrimeRange(lo, hi, kw.pop("segment_size", 1024)),
        output_path=str(tmp_path / name),
        **kw,
    )
    return search(cfg)


def read_records(path):
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


class TestCounters:
    def test_partition_and_derived(self):
        c = Counters(examined=10, rejected_mod8=4, rejected_legendre5=2,
                     rejected_cubic=1, collisions=3)
        assert c.partitioned()
        assert c.stage1_survivors == 4
        assert c.stage2_survivors == 3
        assert not c._replace(examined=11).partitioned()

    def test_merge_and_roundtrip(self):
        # summed field by field, as _commit folds a segment in
        segments = (Counters(examined=5, rejected_mod8=1, rejected_legendre5=1, rejected_legendre23=1,
                             rejected_cubic=1, collisions=1),
                    Counters(examined=2, collisions=1, neg_half_hits=1))
        c = Counters(*map(sum, zip(Counters(), *segments)))
        assert c == Counters(examined=7, rejected_mod8=1, rejected_legendre5=1,
                             rejected_legendre23=1, rejected_cubic=1,
                             collisions=2, neg_half_hits=1)
        assert Counters.from_dict(c.as_dict()) == c

    def test_as_dict_keys(self):
        # the checkpoint's counters block and search --json carry these keys, in this order
        assert tuple(Counters().as_dict()) == (
            "examined", "rejected_mod8", "rejected_legendre5", "rejected_legendre23",
            "rejected_cubic", "collisions", "neg_half_hits", "socialist",
        )

    def test_fields_come_from_outcomes(self):
        # examined, each filter rejection as filters.OUTCOMES names it, then the scan's three outcomes
        assert Counters._fields == ("examined", *OUTCOMES[:-1], "collisions", "neg_half_hits", "socialist")

    def test_from_dict_rejects_gaps(self):
        with pytest.raises(CheckpointError):
            Counters.from_dict({"examined": 3})

    def test_equality_repr_and_pickle(self):
        c = Counters(examined=4, rejected_mod8=1, collisions=3)
        assert c == Counters(4, 1, 0, 0, 0, 3) and c != Counters(examined=4, rejected_mod8=1, socialist=3)
        assert c != c.as_dict()
        assert repr(c) == ("Counters(examined=4, rejected_mod8=1, rejected_legendre5=0, rejected_legendre23=0, "
                           "rejected_cubic=0, collisions=3, neg_half_hits=0, socialist=0)")
        # how a pool worker hands a segment's counters back
        assert pickle.loads(pickle.dumps(c)) == c


@pytest.mark.parametrize("record, name", [
    (verify_distinct(7), "p"),
    (PrimeRange(7, 100), "lo"),
    (SearchConfig(PrimeRange(7, 100), "x.jsonl"), "threads"),
    (count_filters(7, 100), "examined"),
    (fp_histogram(100), "min_f"),
    (heuristic(7), "limit_exponent"),
    (Counters(examined=1, collisions=1), "examined"),
    (RangeReport(7, 100, 7, Counters(), [], "x.jsonl"), "completed_through"),
], ids=["Verdict", "PrimeRange", "SearchConfig", "FilterCounts", "FpHistogram", "HeuristicEstimate", "Counters",
        "RangeReport"])
def test_frozen_record_refuses_assignment(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 11)
    with pytest.raises(AttributeError):
        record.extra = 11
    assert getattr(record, name) is value


class TestFrozenRange:
    def test_below_1000(self, tmp_path):
        report = run_search(tmp_path, 7, 1000)
        c = report.counters
        assert c.examined == 165
        assert c.rejected_mod8 == 123
        assert c.rejected_legendre5 == 20
        assert c.rejected_legendre23 == 12
        assert c.rejected_cubic == 2
        assert c.collisions == 8
        assert c.neg_half_hits == 0
        assert c.socialist == 0
        assert report.socialist_primes == []
        assert report.complete and report.completed_through == 1000
        assert not report.resumed

        records = read_records(report.output_path)
        assert [r["p"] for r in records] == [13, 173, 197, 277, 317, 397, 653, 853, 877, 997]
        by_p = {r["p"]: r for r in records}
        assert by_p[197] == {"p": 197, "outcome": "RejectedCubic", "witness": {"y": 36, "x": 4}}
        assert by_p[317]["witness"] == {"y": 139, "x": 19}
        assert by_p[13] == {"p": 13, "outcome": "Collision",
                            "witness": {"j": 4, "k": 9, "residue": 11}}
        assert by_p[997]["witness"] == {"j": 54, "k": 72, "residue": 520}

    def test_records_survive_independent_recheck(self, tmp_path):
        report = run_search(tmp_path, 7, 5000)
        records = read_records(report.output_path)
        assert len(records) == report.counters.stage1_survivors
        for rec in records:
            p, w = rec["p"], rec["witness"]
            if rec["outcome"] == "RejectedCubic":
                prod = 1
                for i in range(6):
                    prod = prod * (w["x"] + i) % p
                assert prod == 1, p
            elif rec["outcome"] == "Collision":
                assert recheck_witness(p, w["j"], w["k"]) and factorial_mod(w["k"], p) == w["residue"], p
            else:
                pytest.fail(f"unexpected outcome below 5000: {rec}")

    def test_empty_and_clamped_ranges(self, tmp_path):
        empty = run_search(tmp_path, 100, 100, name="empty.jsonl")
        assert empty.counters == Counters()
        assert empty.complete
        assert read_records(empty.output_path) == []

        clamped = run_search(tmp_path, 2, 20, name="clamped.jsonl")
        assert clamped.lo == DOMAIN_START
        assert clamped.counters.examined == 5  # 7 11 13 17 19


class TestDeterminism:
    def test_segmentation_invariance(self, tmp_path):
        a = run_search(tmp_path, 7, 20000, name="a.jsonl", segment_size=512)
        b = run_search(tmp_path, 7, 20000, name="b.jsonl", segment_size=7000)
        assert a.counters == b.counters
        assert Path(a.output_path).read_bytes() == Path(b.output_path).read_bytes()

    def test_thread_invariance(self, tmp_path):
        a = run_search(tmp_path, 7, 20000, name="a.jsonl", segment_size=2048, threads=1)
        b = run_search(tmp_path, 7, 20000, name="b.jsonl", segment_size=2048, threads=3)
        assert a.counters == b.counters
        assert Path(a.output_path).read_bytes() == Path(b.output_path).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lines_are_compact_json(self, tmp_path, threads):
        # the engine writes each line by hand; json itself must write the same bytes
        report = run_search(tmp_path, 7, 3 * 10**5, segment_size=2**15, threads=threads)
        lines = Path(report.output_path).read_text(encoding="ascii").splitlines()
        assert len(lines) == report.counters.stage1_survivors > 0
        keys = {"RejectedCubic": ["y", "x"], "Collision": ["j", "k", "residue"]}
        for line in lines:
            assert line == json.dumps(json.loads(line), separators=(",", ":"))
            rec = json.loads(line)
            assert list(rec) == ["p", "outcome", "witness"] and list(rec["witness"]) == keys[rec["outcome"]]
        assert {json.loads(line)["outcome"] for line in lines} == set(keys)


def test_base_primes_cache_keeps_one_limit(tmp_path):
    # a run's base primes are dropped by the next run with another hi
    engine._base_primes.cache_clear()
    his = (3000, 9000, 20000, 3000)
    outputs = [Path(run_search(tmp_path, 7, hi, name=f"{i}.jsonl").output_path).read_bytes()
               for i, hi in enumerate(his)]
    assert engine._base_primes.cache_info().currsize == 1
    # records come in order of p, so a shorter range's file is a prefix of a longer one's
    assert outputs[3] == outputs[0] and outputs[2].startswith(outputs[1]) and outputs[1].startswith(outputs[0])
    assert outputs[2] == Path(run_search(tmp_path, 7, 20000, name="again.jsonl").output_path).read_bytes()


class TestSearchAgreesWithCountFilters:
    """search and count_filters share the filter pass, so they classify every prime alike."""

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    @pytest.mark.parametrize("lo, hi", [(7, 10**5), (10**6, 10**6 + 2**16)], ids=["below-1e5", "at-1e6"])
    def test_prime_by_prime(self, tmp_path, lo, hi, strict):
        counters = run_search(tmp_path, lo, hi, strict_cubic=strict).counters
        records = read_records(tmp_path / "out.jsonl")
        fc = count_filters(lo, hi, strict=strict)
        for name in ("examined", "rejected_mod8", "rejected_legendre5", "rejected_legendre23", "rejected_cubic"):
            assert getattr(counters, name) == getattr(fc, name), name
        assert fc.candidates == counters.collisions + counters.socialist
        assert fc.stage1_survivors == [r["p"] for r in records]
        assert fc.stage2_survivors == [r["p"] for r in records if r["outcome"] in ("Collision", "Socialist")]


class TestConfigValidation:
    def test_bad_values(self, tmp_path):
        rng = PrimeRange(7, 100)
        out = str(tmp_path / "x.jsonl")
        with pytest.raises(ValueError):
            search(SearchConfig(rng, out, threads=0))
        with pytest.raises(ValueError):
            search(SearchConfig(rng, out, checkpoint_interval=0))
        with pytest.raises(ValueError):
            search(SearchConfig(rng, out, stop_after_segments=1))
        with pytest.raises(ValueError):
            search(SearchConfig(rng, out, stop_after_segments=0,
                                checkpoint_path=str(tmp_path / "c.json")))

    @pytest.mark.parametrize("target", ["checkpoint", "tmp", "symlink"])
    def test_results_path_of_the_checkpoint_is_refused(self, tmp_path, target):
        ckpt, payload = make_checkpoint(tmp_path)
        out = {"checkpoint": ckpt, "tmp": ckpt + ".tmp", "symlink": str(tmp_path / "link")}[target]
        if target == "symlink":
            os.symlink(ckpt, out)
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        with pytest.raises(ValueError, match="would overwrite the checkpoint"):
            resume(ckpt, output_path=out)
        with pytest.raises(ValueError, match="would overwrite the checkpoint"):
            search(SearchConfig(PrimeRange(7, 3000), out, checkpoint_path=ckpt))
        assert [f.read_bytes() for f in files] == before
        assert not os.path.exists(ckpt + ".tmp")


class TestCheckpointResume:
    def full_and_stopped(self, tmp_path, threads_resume=1):
        full = run_search(tmp_path, 7, 9000, name="full.jsonl", segment_size=512)

        ckpt = str(tmp_path / "part.ckpt")
        part_out = str(tmp_path / "part.jsonl")
        cfg = SearchConfig(
            range=PrimeRange(7, 9000, 512),
            output_path=part_out,
            checkpoint_path=ckpt,
            checkpoint_interval=1,
            stop_after_segments=3,
        )
        stopped = search(cfg)
        assert not stopped.complete
        assert stopped.completed_through == 7 + 3 * 512

        resumed = resume(ckpt, threads=threads_resume)
        return full, stopped, resumed

    def test_stop_then_resume_reproduces_bytes(self, tmp_path):
        full, _stopped, resumed = self.full_and_stopped(tmp_path)
        assert resumed.resumed and resumed.complete
        assert resumed.counters == full.counters
        assert (Path(resumed.output_path).read_bytes()
                == Path(full.output_path).read_bytes())

    def test_resume_with_more_threads(self, tmp_path):
        full, _stopped, resumed = self.full_and_stopped(tmp_path, threads_resume=2)
        assert resumed.counters == full.counters
        assert (Path(resumed.output_path).read_bytes()
                == Path(full.output_path).read_bytes())

    def test_resume_truncates_torn_tail(self, tmp_path):
        full, stopped, _ = self.full_and_stopped(tmp_path)
        # simulate a crash mid-write: garbage past the committed offset
        with open(stopped.output_path, "ab") as fh:
            fh.write(b'{"p": 999999, "outcome": "Colli')
        resumed = resume(str(tmp_path / "part.ckpt"))
        assert resumed.counters == full.counters
        assert (Path(resumed.output_path).read_bytes()
                == Path(full.output_path).read_bytes())

    def test_resume_drops_uncommitted_records_and_torn_line(self, tmp_path):
        # the run's own file after a crash: records of segments the checkpoint
        # never covered, then half of the next record
        full = run_search(tmp_path, 7, 9000, name="full.jsonl", segment_size=512)
        expected = Path(full.output_path).read_bytes()
        ckpt, part_out = str(tmp_path / "part.ckpt"), str(tmp_path / "part.jsonl")
        search(SearchConfig(range=PrimeRange(7, 9000, 512), output_path=part_out, checkpoint_path=ckpt,
                            checkpoint_interval=1, stop_after_segments=3))
        shutil.copy(ckpt, ckpt + ".old")
        resume(ckpt, stop_after_segments=4)
        shutil.copy(ckpt + ".old", ckpt)
        offset = json.loads(Path(ckpt).read_text())["output_offset"]
        written = len(Path(part_out).read_bytes())
        assert expected[offset:written].count(b"\n") >= 2
        next_line = expected[written:expected.index(b"\n", written) + 1]
        with open(part_out, "ab") as fh:
            fh.write(next_line[: len(next_line) // 2])
        resumed = resume(ckpt)
        assert resumed.counters == full.counters
        assert Path(part_out).read_bytes() == expected

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        done = run_search(tmp_path, 7, 1000, checkpoint_path=ckpt)
        before = Path(done.output_path).read_bytes()
        again = resume(ckpt)
        assert again.complete and again.resumed
        assert again.counters == done.counters
        assert Path(done.output_path).read_bytes() == before

    def test_resume_in_single_segment_steps(self, tmp_path):
        full = run_search(tmp_path, 7, 3000, name="full.jsonl", segment_size=256)
        ckpt = str(tmp_path / "steps.ckpt")
        cfg = SearchConfig(
            range=PrimeRange(7, 3000, 256),
            output_path=str(tmp_path / "steps.jsonl"),
            checkpoint_path=ckpt,
            checkpoint_interval=1,
            stop_after_segments=1,
        )
        report = search(cfg)
        hops = 1
        while not report.complete:
            report = resume(ckpt, stop_after_segments=1)
            hops += 1
        assert hops == 12  # ceil(2993 / 256)
        assert report.counters == full.counters
        assert ((tmp_path / "steps.jsonl").read_bytes()
                == Path(full.output_path).read_bytes())

    def test_checkpoint_contents(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        report = run_search(tmp_path, 7, 1000, checkpoint_path=ckpt)
        payload = json.loads(Path(ckpt).read_text(encoding="ascii"))
        results = Path(report.output_path).read_bytes()
        assert payload["version"] == CHECKPOINT_VERSION == 2
        assert (payload["lo"], payload["hi"]) == (7, 1000)
        assert payload["completed_through"] == 1000
        assert payload["counters"] == report.counters.as_dict()
        # no record count or socialist list: resume reads both from the results file
        assert list(payload) == list(checkpoint._CHECKPOINT_KEYS) and len(payload) == 12
        assert payload["output_offset"] == len(results)
        assert results.count(b"\n") == report.counters.stage1_survivors == 10
        assert payload["output_sha256"] == hashlib.sha256(results).hexdigest()

    @pytest.mark.parametrize("interval, stop, written", [
        (1, 2, [519, 1031]),
        (2, 2, [1031]),
        (2, 3, [1031, 1543]),
        (2, None, [1031, 2055, 2560]),
    ], ids=["interval-1", "interval-2", "stop-past-interval", "to-the-end"])
    def test_one_checkpoint_per_committed_state(self, tmp_path, monkeypatch, interval, stop, written):
        # a leg whose last segment is also an interval's writes it once
        seen = []
        write = checkpoint._write_checkpoint

        def recording_write(path, payload):
            seen.append(payload["completed_through"])
            write(path, payload)

        monkeypatch.setattr(checkpoint, "_write_checkpoint", recording_write)
        run_search(tmp_path, 7, 2560, segment_size=512, checkpoint_path=str(tmp_path / "c.json"),
                   checkpoint_interval=interval, stop_after_segments=stop)
        assert seen == written


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """The engine's process pool, recording its size and counting every segment handed to it.

    The engine looks the pool up on concurrent.futures when a run first
    needs it, so that is where the tests put this one.  A pool never
    starts more processes than its max_workers.
    """

    submitted = 0
    sizes: list[int] = []

    def __init__(self, max_workers=None, *args, **kwargs):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)

    def submit(self, *args, **kwargs):
        CountingPool.submitted += 1
        return super().submit(*args, **kwargs)


class TestProcessPool:
    def test_stopped_leg_submits_only_its_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(CountingPool, "submitted", 0)
        threads, stop, seg = 2, 3, 512
        rng = PrimeRange(7, 7 + 20 * seg, seg)
        full = run_search(tmp_path, rng.lo, rng.hi, name="full.jsonl", segment_size=seg)
        assert CountingPool.submitted == 0  # threads=1 never builds a pool

        ckpt = str(tmp_path / "part.ckpt")
        stopped = search(SearchConfig(range=rng, output_path=str(tmp_path / "part.jsonl"), threads=threads,
                                      checkpoint_path=ckpt, checkpoint_interval=1, stop_after_segments=stop))
        assert stopped.completed_through == 7 + 4 * seg  # 3 rounded up to whole rounds of 2
        assert CountingPool.submitted == 4

        CountingPool.submitted = 0
        resumed = resume(ckpt, threads=threads)
        assert CountingPool.submitted == 20 - 4
        assert resumed.complete and resumed.counters == full.counters
        assert Path(resumed.output_path).read_bytes() == Path(full.output_path).read_bytes()

    @pytest.mark.parametrize("threads, stop, left, committed", [
        (1, 3, 20, 3),
        (2, 4, 16, 4),
        (2, 1, 8, 2),
        (2, 3, 20, 4),
        (4, 3, 2, 2),  # the range ends first
    ])
    def test_stopped_leg_commits_whole_rounds(self, tmp_path, threads, stop, left, committed):
        seg = 512
        rng = PrimeRange(7, 7 + left * seg, seg)
        full = run_search(tmp_path, rng.lo, rng.hi, name="full.jsonl", segment_size=seg)
        ckpt = str(tmp_path / "part.ckpt")
        stopped = search(SearchConfig(range=rng, output_path=str(tmp_path / "part.jsonl"), threads=threads,
                                      checkpoint_path=ckpt, checkpoint_interval=1, stop_after_segments=stop))
        assert stopped.completed_through == 7 + committed * seg
        assert stopped.complete == (committed == left)
        resumed = resume(ckpt, threads=threads)
        assert resumed.complete and resumed.counters == full.counters
        assert Path(resumed.output_path).read_bytes() == Path(full.output_path).read_bytes()

    def test_stopped_leg_leaves_no_worker_and_no_uncommitted_segment(self, tmp_path, monkeypatch):
        # segments 2^16 wide near 10^8 take long enough that a segment handed
        # out past the stop would still be running when the leg returns
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(CountingPool, "submitted", 0)
        seg = 2**16
        rng = PrimeRange(10**8, 10**8 + 8 * seg, seg)
        children_before = set(multiprocessing.active_children())
        stopped = search(SearchConfig(range=rng, output_path=str(tmp_path / "part.jsonl"), threads=2,
                                      checkpoint_path=str(tmp_path / "part.ckpt"), stop_after_segments=2))
        assert not set(multiprocessing.active_children()) - children_before
        assert CountingPool.submitted == (stopped.completed_through - rng.lo) // seg == 2

    def test_pool_is_never_bigger_than_its_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(CountingPool, "sizes", [])
        one = run_search(tmp_path, 7, 10**5, name="one.jsonl", segment_size=DEFAULT_SEGMENT_SIZE)
        eight = run_search(tmp_path, 7, 10**5, name="eight.jsonl", segment_size=DEFAULT_SEGMENT_SIZE, threads=8)
        assert CountingPool.sizes == [2]  # two segments, so two workers
        assert Path(eight.output_path).read_bytes() == Path(one.output_path).read_bytes()

        run_search(tmp_path, 7, 1000, name="single.jsonl", threads=4)
        ckpt = str(tmp_path / "last.ckpt")
        search(SearchConfig(range=PrimeRange(7, 7 + 4 * 512, 512), output_path=str(tmp_path / "last.jsonl"),
                            checkpoint_path=ckpt, stop_after_segments=3))
        assert resume(ckpt, threads=2).complete  # one segment left
        assert CountingPool.sizes == [2]  # neither one-segment leg built a pool

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched verify_distinct reaches the workers only through fork")
    def test_worker_error_reaches_caller(self, tmp_path, monkeypatch):
        seg = 512
        rng = PrimeRange(7, 7 + 8 * seg, seg)
        full = run_search(tmp_path, rng.lo, rng.hi, name="full.jsonl", segment_size=seg)
        good_through = 7 + 3 * seg
        # verify_distinct runs once per candidate: fail at segment 3's first one
        bad = count_filters(good_through, good_through + seg).stage2_survivors[0]
        real_verify = engine.verify_distinct

        def verify(p):
            if p == bad:
                raise ArithmeticError(f"injected failure at p={p}")
            return real_verify(p)

        monkeypatch.setattr(engine, "verify_distinct", verify)
        ckpt = str(tmp_path / "part.ckpt")
        part_out = str(tmp_path / "part.jsonl")
        config = SearchConfig(range=rng, output_path=part_out, threads=2,
                              checkpoint_path=ckpt, checkpoint_interval=1)
        raised = []

        def run():
            try:
                search(config)
            except Exception as exc:  # handed to the test's thread, which asserts on it
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        children_before = set(multiprocessing.active_children())
        runner.start()
        runner.join(120)
        assert not runner.is_alive(), "search hung after a worker error"
        assert len(raised) == 1 and type(raised[0]) is ArithmeticError
        assert str(raised[0]) == f"injected failure at p={bad}"
        assert not set(multiprocessing.active_children()) - children_before

        payload = json.loads(Path(ckpt).read_text())
        committed = [r for r in read_records(full.output_path) if r["p"] < good_through]
        assert payload["completed_through"] == good_through
        assert read_records(part_out) == committed
        assert payload["output_offset"] == os.path.getsize(part_out)

        monkeypatch.undo()
        resumed = resume(ckpt, threads=2)
        assert resumed.complete and resumed.counters == full.counters
        assert Path(part_out).read_bytes() == Path(full.output_path).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched verify_distinct reaches the workers only through fork")
    def test_dead_worker_exits_one_and_resumes(self, tmp_path, monkeypatch, capsys):
        seg = 512
        rng = PrimeRange(7, 7 + 8 * seg, seg)
        full = run_search(tmp_path, rng.lo, rng.hi, name="full.jsonl", segment_size=seg)
        seg3 = 7 + 3 * seg
        # verify_distinct runs once per candidate: kill the worker at segment 3's first one
        victim = count_filters(seg3, seg3 + seg).stage2_survivors[0]
        coordinator, real_verify = os.getpid(), engine.verify_distinct

        def verify(p):
            if p == victim and os.getpid() != coordinator:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_verify(p)

        # a leg of segments 0 and 1, then a pooled resume that loses a worker at segment 3
        part_out, ckpt = str(tmp_path / "part.jsonl"), str(tmp_path / "part.ckpt")
        search(SearchConfig(range=rng, output_path=part_out, checkpoint_path=ckpt, checkpoint_interval=1,
                            stop_after_segments=2))
        monkeypatch.setattr(engine, "verify_distinct", verify)
        argv = ["search", "--threads", "2", "--checkpoint", ckpt, "--json"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and len(err.splitlines()) == 1, err

        monkeypatch.undo()
        assert main(argv) == 0
        assert Path(part_out).read_bytes() == Path(full.output_path).read_bytes()


KILL_RANGE = PrimeRange(10**8, 10**8 + 32 * 4096, 4096)


@pytest.fixture(scope="module")
def uninterrupted_kill_range(tmp_path_factory):
    out = tmp_path_factory.mktemp("kill") / "full.jsonl"
    report = search(SearchConfig(range=KILL_RANGE, output_path=str(out)))
    return report, out.read_bytes()


class TestKilledRun:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sigkill_then_resume_reproduces_bytes(self, tmp_path, uninterrupted_kill_range, threads):
        full, expected = uninterrupted_kill_range
        rng = random.Random(20 + threads)
        # kill once the run has committed `segments` segments, `delay` seconds later
        segments, delay = rng.randrange(2, 12), rng.uniform(0, 0.05)
        out, ckpt = tmp_path / "part.jsonl", tmp_path / "part.ckpt"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = (f"from socprimes import PrimeRange, SearchConfig, search; "
               f"search(SearchConfig(range=PrimeRange{tuple(KILL_RANGE)}, output_path={str(out)!r}, "
               f"threads={threads}, checkpoint_path={str(ckpt)!r}, checkpoint_interval=1))")
        proc = subprocess.Popen([sys.executable, "-c", run], env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            target = KILL_RANGE.lo + segments * KILL_RANGE.segment_size
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    if json.loads(ckpt.read_text())["completed_through"] >= target:
                        break
                except FileNotFoundError:
                    pass
                time.sleep(0.002)
            time.sleep(delay)
        finally:
            # the whole session, so pool workers die with their coordinator
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(30)
        assert proc.returncode == -signal.SIGKILL, "the search ended before it was killed"
        assert json.loads(ckpt.read_text())["completed_through"] < KILL_RANGE.hi

        assert main(["search", "--checkpoint", str(ckpt), "--threads", "1"]) == 0
        assert out.read_bytes() == expected
        assert json.loads(ckpt.read_text())["counters"] == full.counters.as_dict()


def make_checkpoint(tmp_path):
    ckpt = str(tmp_path / "c.json")
    cfg = SearchConfig(
        range=PrimeRange(7, 3000, 512),
        output_path=str(tmp_path / "o.jsonl"),
        checkpoint_path=ckpt,
        checkpoint_interval=1,
        stop_after_segments=2,
    )
    search(cfg)
    return ckpt, json.loads(Path(ckpt).read_text())


@pytest.fixture(scope="module")
def stopped_checkpoint(tmp_path_factory):
    return make_checkpoint(tmp_path_factory.mktemp("damage"))


@st.composite
def damaged(draw, payload):
    """payload with one key dropped or retyped, a committed-output key
    given another value of its type, one count moved from collisions to
    socialist, or a non-object document."""
    how = draw(st.sampled_from(("drop", "retype", "tamper", "replace")))
    if how == "replace":
        return draw(st.sampled_from(NOT_OBJECTS))
    doc = copy.deepcopy(payload)
    if how == "tamper":
        key = draw(st.sampled_from(("output_offset", "output_sha256", "socialist")))
        if key == "socialist":
            doc["counters"]["collisions"] -= 1
            doc["counters"]["socialist"] += 1
        elif key == "output_sha256":
            i = draw(st.integers(0, len(doc[key]) - 1))
            doc[key] = doc[key][:i] + ("0" if doc[key][i] != "0" else "1") + doc[key][i + 1:]
        else:
            doc[key] += draw(st.integers(-doc[key] - 1, 20_000).filter(bool))
        return doc
    paths = [(doc, key) for key in doc] + [(doc["counters"], key) for key in doc["counters"]]
    parent, key = draw(st.sampled_from(paths))
    if how == "drop":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(parent[key])]))
    return doc


class TestCheckpointValidation:
    def rewrite(self, ckpt, payload):
        with open(ckpt, "w") as fh:
            json.dump(payload, fh)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_damaged_checkpoint_is_a_checkpoint_error(self, stopped_checkpoint, data):
        ckpt, payload = stopped_checkpoint
        results = Path(payload["output_path"]).read_bytes()
        self.rewrite(ckpt, data.draw(damaged(payload)))
        with pytest.raises(CheckpointError):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert Path(payload["output_path"]).read_bytes() == results

    @pytest.mark.parametrize("damage", ["foreign", "edited"])
    def test_resume_into_another_file_is_refused(self, tmp_path, damage):
        ckpt, payload = make_checkpoint(tmp_path)
        assert payload["output_offset"] > 0
        other = tmp_path / "other.jsonl"
        if damage == "foreign":
            record = b'{"p":7,"outcome":"Collision","witness":{"j":1,"k":2,"residue":1}}\n'
            other.write_bytes((record * (15_000 // len(record) + 1))[:15_000])
        else:
            data = bytearray(Path(payload["output_path"]).read_bytes())
            data[payload["output_offset"] // 2] ^= 0x01
            other.write_bytes(bytes(data))
        before = other.read_bytes()
        with pytest.raises(CheckpointError, match="does not start with"):
            resume(ckpt, output_path=str(other))
        assert main(["search", "--checkpoint", ckpt, "--out", str(other), "--threads", "1"]) == 1
        assert other.read_bytes() == before

    @pytest.mark.parametrize("foreign", [
        b'{"p":7,"outcome":"Collision","witness":{"j":1,"k":2,"residue":1}}\n',
        b"an unrelated text file\n",
        bytes(range(1, 10)),
    ], ids=["records", "text", "no-newline"])
    def test_offset_0_resume_into_another_file_is_refused(self, tmp_path, foreign):
        # no record committed yet: the empty prefix matches any file, so the
        # bytes past it must be what this run can have written
        ckpt = str(tmp_path / "c.json")
        search(SearchConfig(range=PrimeRange(7, 20000, 6), output_path=str(tmp_path / "o.jsonl"),
                            checkpoint_path=ckpt, stop_after_segments=1))
        assert json.loads(Path(ckpt).read_text())["output_offset"] == 0
        other = tmp_path / "other.jsonl"
        other.write_bytes((foreign * (15_000 // len(foreign) + 1))[:15_000])
        before = other.read_bytes()
        with pytest.raises(CheckpointError, match="past the checkpoint's offset"):
            resume(ckpt, output_path=str(other))
        assert main(["search", "--checkpoint", ckpt, "--out", str(other), "--threads", "1"]) == 1
        assert other.read_bytes() == before

    @pytest.mark.parametrize("given", [
        {"lo": 7, "hi": 50000},
        {"hi": 50000},
        {"lo": 8},
        {"lo": 2, "hi": 2999},
        {"strict_cubic": True},
    ], ids=["range", "hi", "lo", "clamped-lo-other-hi", "strict"])
    def test_resume_refuses_another_search(self, tmp_path, given):
        ckpt, payload = make_checkpoint(tmp_path)
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        with pytest.raises(CheckpointError, match=r"^checkpoint \S+ (is for|has) "):
            resume(ckpt, **given)
        # refused before any file is opened: a results file named here is not created
        with pytest.raises(CheckpointError, match=r"^checkpoint \S+ (is for|has) "):
            resume(ckpt, output_path=str(tmp_path / "new.jsonl"), **given)
        assert not (tmp_path / "new.jsonl").exists()
        assert [f.read_bytes() for f in files] == before

    def test_resume_accepts_the_search_it_was_written_for(self, tmp_path):
        full = run_search(tmp_path, 7, 3000, name="full.jsonl", segment_size=512)
        ckpt, payload = make_checkpoint(tmp_path)
        report = resume(ckpt, lo=2, hi=3000, strict_cubic=False)
        assert report.complete and report.resumed and report.counters == full.counters
        assert Path(payload["output_path"]).read_bytes() == Path(full.output_path).read_bytes()

    def test_checkpoint_written_key_by_key_resumes(self, tmp_path):
        # built key by key as _checkpoint_payload wrote them while a separate
        # run state, not RangeReport, carried the results-file figures
        seg = 512
        full = run_search(tmp_path, 7, 7 + 8 * seg, name="full.jsonl", segment_size=seg)
        head = run_search(tmp_path, 7, 7 + 3 * seg, name="part.jsonl", segment_size=seg)
        data = Path(head.output_path).read_bytes()
        payload = {
            "version": 2, "lo": 7, "hi": full.hi, "segment_size": seg, "strict_cubic": False,
            "checkpoint_interval": 16, "completed_through": head.hi, "counters": head.counters.as_dict(),
            "socialist": [], "output_path": head.output_path, "output_offset": len(data),
            "output_records": data.count(b"\n"), "output_sha256": hashlib.sha256(data).hexdigest(),
            "elapsed": 1.5,
        }
        ckpt = tmp_path / "old.ckpt"
        self.rewrite(ckpt, payload)
        resumed = resume(str(ckpt), threads=2)
        assert resumed.complete and resumed.counters == full.counters and resumed.wall_seconds >= 1.5
        assert Path(head.output_path).read_bytes() == Path(full.output_path).read_bytes()
        # written back with the 12 keys: the record count and socialist primes come from the results file
        assert list(json.loads(ckpt.read_text())) == [k for k in payload if k not in ("socialist", "output_records")]

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        # version 1 carried no digest for its results file
        ckpt, payload = make_checkpoint(tmp_path)
        payload["version"] = 1
        del payload["output_sha256"]
        self.rewrite(ckpt, payload)
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_negative_offset(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        payload["output_offset"] = -1
        self.rewrite(ckpt, payload)
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_old_strategy_block_is_ignored(self, tmp_path):
        # checkpoints written while search still took a scan strategy
        full = run_search(tmp_path, 7, 3000, name="full.jsonl", segment_size=512)
        ckpt, payload = make_checkpoint(tmp_path)
        payload["strategy"] = {"mode": "auto", "cap": None, "use_reflection": False}
        self.rewrite(ckpt, payload)
        resumed = resume(ckpt)
        assert resumed.complete and resumed.counters == full.counters
        assert Path(resumed.output_path).read_bytes() == Path(full.output_path).read_bytes()

    def test_bad_version(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        payload["version"] = 99
        self.rewrite(ckpt, payload)
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_unpartitioned_counters(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        payload["counters"]["examined"] += 1
        self.rewrite(ckpt, payload)
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_high_water_outside_range(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        payload["completed_through"] = payload["hi"] + 1
        self.rewrite(ckpt, payload)
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_not_json(self, tmp_path):
        ckpt, _ = make_checkpoint(tmp_path)
        Path(ckpt).write_text("not json{")
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume(str(tmp_path / "absent.json"))

    def test_output_shorter_than_offset(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        Path(payload["output_path"]).write_bytes(b"{}")
        if payload["output_offset"] <= 2:
            pytest.skip("stopped leg committed no records; offset too small to undercut")
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_output_missing(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        os.remove(payload["output_path"])
        if payload["output_offset"] == 0:
            pytest.skip("offset 0 legitimately recreates the file")
        with pytest.raises(CheckpointError):
            resume(ckpt)

    @pytest.mark.parametrize("damage", [
        "false-discovery", "negative-counter", "lo-below-domain",
        "repeated-socialist", "socialist-past-high-water",
        "negative-elapsed", "nan-elapsed", "infinite-elapsed",
    ])
    def test_values_no_search_writes_are_refused(self, tmp_path, capsys, damage):
        # each passes the type checks and keeps the counters partitioned
        ckpt, payload = make_checkpoint(tmp_path)
        c = payload["counters"]

        def claim_socialist(primes):
            payload["socialist"] = primes
            c["socialist"] += len(primes)
            c["collisions"] -= len(primes)

        if damage == "false-discovery":
            payload["socialist"] = [13]
        elif damage == "negative-counter":
            c["rejected_mod8"] += c["collisions"] + 5
            c["collisions"] = -5
        elif damage == "lo-below-domain":
            payload["lo"] = payload["completed_through"] = 2
        elif damage == "repeated-socialist":
            claim_socialist([13, 13])
        elif damage == "socialist-past-high-water":
            claim_socialist([payload["completed_through"] + 2])
        else:
            payload["elapsed"] = {"negative-elapsed": -1e6, "nan-elapsed": float("nan"),
                                  "infinite-elapsed": float("inf")}[damage]
        self.rewrite(ckpt, payload)
        if damage == "false-discovery":
            # resume reads no socialist list: neither the results file nor the counters name such a prime
            full = run_search(tmp_path, 7, 3000, name="full.jsonl", segment_size=512)
            assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 0
            assert "SOCIALIST" not in capsys.readouterr().out
            assert Path(payload["output_path"]).read_bytes() == Path(full.output_path).read_bytes()
            return
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        with pytest.raises(CheckpointError):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert [f.read_bytes() for f in files] == before

    @pytest.mark.parametrize("edit", ["socialist-claimed", "cubic-and-examined"])
    def test_counts_the_results_file_contradicts_are_refused(self, tmp_path, capsys, edit):
        # each keeps the counters partitioned; the first also keeps the stage-1 survivors
        ckpt, payload = make_checkpoint(tmp_path)
        c = payload["counters"]
        if edit == "socialist-claimed":
            c["collisions"] -= 1
            c["socialist"] += 1
            payload["socialist"] = [13]
            message = "counts 1 socialist primes, but .* commits 0 Socialist records"
        else:
            c["examined"] += 1
            c["rejected_cubic"] += 1
            message = "stage-1 survivors, but .* commits"
        self.rewrite(ckpt, payload)
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        with pytest.raises(CheckpointError, match=message):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert "SOCIALIST" not in capsys.readouterr().out
        assert [f.read_bytes() for f in files] == before

    @pytest.mark.parametrize("edit", ["high-water-lowered", "lo-raised"])
    def test_range_that_misses_committed_records_is_refused(self, tmp_path, edit):
        # [7, 1031) commits the records of 13 .. 1013.  Resumed from 519, a run
        # would write 653 .. 1013 a second time; from lo 100, it would report
        # [100, 3000) over a file that starts at 13
        ckpt, payload = make_checkpoint(tmp_path)
        assert payload["completed_through"] == 1031
        if edit == "high-water-lowered":
            payload["completed_through"] -= 512
        else:
            payload["lo"] = 100
        self.rewrite(ckpt, payload)
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        span = r"\[7, 519\)" if edit == "high-water-lowered" else r"\[100, 1031\)"
        with pytest.raises(CheckpointError, match=r"commits records outside the checkpoint's " + span):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert [f.read_bytes() for f in files] == before

    def test_high_water_off_the_segment_grid_is_refused(self, tmp_path, capsys):
        # a leg of [7, 3 * 10^5) in two segments of 2^16 commits records up to
        # 130 957; a resume from 130 958 would count the primes of [130 958,
        # 131 079) a second time, though it writes no record twice
        out, ckpt = tmp_path / "part.jsonl", tmp_path / "part.ckpt"
        assert main(["search", "--from", "7", "--to", "300000", "--threads", "1", "--out", str(out),
                     "--checkpoint", str(ckpt), "--stop-after-segments", "2"]) == 0
        payload = json.loads(ckpt.read_text())
        assert payload["completed_through"] == 131079
        assert json.loads(out.read_bytes().splitlines()[-1])["p"] == 130957
        payload["completed_through"] = 130958
        self.rewrite(ckpt, payload)
        before = ckpt.read_bytes(), out.read_bytes()
        with pytest.raises(CheckpointError, match="completed_through 130958 is neither hi nor lo plus a multiple "
                                                  "of its segment_size 65536"):
            resume(str(ckpt))
        capsys.readouterr()
        assert main(["search", "--checkpoint", str(ckpt), "--threads", "1"]) == 1
        assert "segment_size" in capsys.readouterr().err
        assert (ckpt.read_bytes(), out.read_bytes()) == before


def starve_and_record_opens(monkeypatch):
    """Make _base_primes, which _run calls before its first segment, raise MemoryError.

    Returns the list of every file engine and checkpoint open from then on,
    collected through a module-level open in each that shadows the builtin.
    """
    def no_memory(limit):
        raise MemoryError(f"no memory for the primes below {limit}")

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(engine, "_base_primes", no_memory)
    for module in (engine, checkpoint):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    return opened


class TestFailureBeforeTheFirstSegment:
    def test_search_closes_its_results_file(self, tmp_path, monkeypatch):
        opened = starve_and_record_opens(monkeypatch)
        with pytest.raises(MemoryError, match="no memory"):
            run_search(tmp_path, 7, 9000)
        assert [fh.name for fh in opened] == [str(tmp_path / "out.jsonl")]
        assert all(fh.closed for fh in opened)

    def test_resume_closes_its_results_file(self, tmp_path, monkeypatch):
        ckpt, payload = make_checkpoint(tmp_path)
        opened = starve_and_record_opens(monkeypatch)
        with pytest.raises(MemoryError, match="no memory"):
            resume(ckpt)
        assert payload["output_path"] in [fh.name for fh in opened]
        assert all(fh.closed for fh in opened)

    def test_cli_exits_one(self, tmp_path, monkeypatch, capsys):
        starve_and_record_opens(monkeypatch)
        argv = ["search", "--from", "7", "--to", "9000", "--out", str(tmp_path / "o.jsonl"), "--threads", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("socprimes: no memory") and len(err.splitlines()) == 1


class TestStrictCheckpoint:
    """A checkpoint of a strict_cubic search, stopped after 2 of its 18 segments."""

    @pytest.fixture
    def stopped(self, tmp_path):
        strict = run_search(tmp_path, 7, 9000, name="full.jsonl", segment_size=512, strict_cubic=True)
        loose = run_search(tmp_path, 7, 9000, name="loose.jsonl", segment_size=512)
        want = Path(strict.output_path).read_bytes()
        assert want != Path(loose.output_path).read_bytes()  # strictness shows in the bytes
        ckpt, part = tmp_path / "strict.ckpt", tmp_path / "part.jsonl"
        run_search(tmp_path, 7, 9000, name=part.name, segment_size=512, strict_cubic=True,
                   checkpoint_path=str(ckpt), stop_after_segments=2)
        assert json.loads(ckpt.read_text())["strict_cubic"] is True
        return ckpt, part, want

    def test_non_strict_resume_is_refused_before_any_file_is_opened(self, tmp_path, stopped):
        ckpt, part, _ = stopped
        before = ckpt.read_bytes(), part.read_bytes()
        with pytest.raises(CheckpointError, match=r"^checkpoint \S+ has strict_cubic True, not False$"):
            resume(str(ckpt), strict_cubic=False)
        with pytest.raises(CheckpointError, match=r"^checkpoint \S+ has strict_cubic True, not False$"):
            resume(str(ckpt), output_path=str(tmp_path / "new.jsonl"), strict_cubic=False)
        assert not (tmp_path / "new.jsonl").exists()
        assert (ckpt.read_bytes(), part.read_bytes()) == before

    @pytest.mark.parametrize("how", ["resume", "cli", "cli-strict-cubic"])
    def test_resume_finishes_strict(self, capsys, stopped, how):
        ckpt, part, want = stopped
        if how == "resume":
            assert resume(str(ckpt)).complete
        else:
            flags = ["--strict-cubic"] if how == "cli-strict-cubic" else []
            assert main(["search", "--checkpoint", str(ckpt), "--threads", "1", *flags]) == 0
        assert part.read_bytes() == want


#: _segment_task's arguments for the segment [13, 14), whose one prime is a candidate
SEGMENT_OF_13 = (13, 14, 3, False)


@pytest.fixture
def scanned_socialist(monkeypatch):
    """Both of engine's scans stubbed to call every prime socialist; the list of scans run."""
    scans = []

    def scanner(name):
        def scan(p):
            scans.append(name)
            return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)
        return scan

    monkeypatch.setattr(engine, "verify_distinct", scanner("verify_distinct"))
    monkeypatch.setattr(engine, "scan_bitset", scanner("scan_bitset"))
    return scans


class TestScanGuards:
    """_segment_task's checks on a candidate's verdict, with the scan and the recheck stubbed."""

    def test_collision_failing_its_recheck_is_refused(self, monkeypatch):
        monkeypatch.setattr(engine, "recheck_witness", lambda p, j, k: False)
        with pytest.raises(ArithmeticError, match="failed recheck"):
            engine._segment_task(SEGMENT_OF_13)

    def test_confirmed_socialist_verdict(self, scanned_socialist):
        seg_hi, counters, socialist, data = engine._segment_task(SEGMENT_OF_13)
        assert scanned_socialist == ["verify_distinct", "scan_bitset"]
        assert json.loads(data.decode("ascii")) == {"p": 13, "outcome": "Socialist"}
        assert data == (json.dumps({"p": 13, "outcome": "Socialist"}, separators=(",", ":")) + "\n").encode()
        assert checkpoint._SOCIALIST_RECORD.fullmatch(data)[1] == b"13"
        assert (seg_hi, socialist) == (14, [13])
        assert counters == Counters(examined=1, socialist=1)

    def test_disagreeing_confirmation_is_refused(self, monkeypatch):
        monkeypatch.setattr(engine, "verify_distinct", lambda p: Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1))
        monkeypatch.setattr(engine, "scan_bitset", lambda p: Verdict(p, VerdictKind.COLLISION, 2, 7, 2, scanned_up_to=7))
        with pytest.raises(ArithmeticError, match="confirmation scan"):
            engine._segment_task(SEGMENT_OF_13)


class TestSocialistPath:
    def test_commit_logs_and_tracks(self, caplog, scanned_socialist):
        before = RangeReport(lo=7, hi=100, completed_through=13, counters=Counters(),
                             socialist_primes=[], output_path="out.jsonl")
        out, digest = io.BytesIO(), hashlib.sha256()
        result = engine._segment_task(SEGMENT_OF_13)
        data = result[3]
        with caplog.at_level(logging.CRITICAL, logger="socprimes.engine"):
            report = _commit(before, out, digest, *result)
        # the report passed in, and the list it holds, are left as they were
        assert before == (7, 100, 13, Counters(), [], "out.jsonl", 0.0, False)
        assert scanned_socialist == ["verify_distinct", "scan_bitset"]
        assert report.socialist_primes == [13]
        assert "SOCIALIST PRIME FOUND: p=13" in caplog.text
        assert json.loads(out.getvalue().decode("ascii")) == {"p": 13, "outcome": "Socialist"}
        assert out.getvalue() == data and digest.hexdigest() == hashlib.sha256(data).hexdigest()
        assert report.counters.socialist == 1 and report.completed_through == 14

    def test_committed_socialist_record_is_read_back_on_resume(self, tmp_path, monkeypatch, scanned_socialist):
        # segments of width 7 from 7: the first, [7, 14), has one candidate, 13
        ckpt = tmp_path / "c.json"
        run_search(tmp_path, 7, 3000, name="part.jsonl", segment_size=7, checkpoint_path=str(ckpt),
                   stop_after_segments=1)
        assert scanned_socialist == ["verify_distinct", "scan_bitset"]
        assert "socialist" not in json.loads(ckpt.read_text())
        monkeypatch.undo()  # the real scans from here on: 13 is a Socialist record only in the file
        full = run_search(tmp_path, 7, 3000, name="full.jsonl", segment_size=7)
        report = resume(str(ckpt))
        assert report.complete and report.socialist_primes == [13]
        assert report.counters == full.counters._replace(collisions=full.counters.collisions - 1, socialist=1)
        want = Path(full.output_path).read_bytes()
        first = want.index(b"\n") + 1
        assert json.loads(want[:first])["p"] == 13
        assert (tmp_path / "part.jsonl").read_bytes() == b'{"p":13,"outcome":"Socialist"}\n' + want[first:]

    def test_verdict_five_is_socialist_shaped(self):
        # the scan machinery itself must keep recognising the one known case
        v = scan_bitset(5)
        assert v.kind is VerdictKind.SOCIALIST
        assert factorial_mod(4, 5) == 4
