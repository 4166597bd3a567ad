import concurrent.futures
import contextlib
import copy
import hashlib
import io
import json
import logging
import multiprocessing
import os
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

from socprimes import engine
from socprimes.cli import main
from socprimes.engine import (
    CHECKPOINT_VERSION,
    DOMAIN_START,
    CheckpointError,
    Counters,
    SearchConfig,
    _commit,
    _RunState,
    resume,
    search,
)
from socprimes.primes import PrimeRange, small_primes
from socprimes.verifier import ScanMode, Verdict, VerdictKind, factorial_mod, recheck_witness, verify_distinct

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
        c.examined += 1
        assert not c.partitioned()

    def test_merge_and_roundtrip(self):
        c = Counters()
        c.merge(Counters(examined=5, rejected_mod8=1, rejected_legendre5=1, rejected_legendre23=1,
                         rejected_cubic=1, collisions=1))
        c.merge(Counters(examined=2, collisions=1, neg_half_hits=1))
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

    def test_from_dict_rejects_gaps(self):
        with pytest.raises(CheckpointError):
            Counters.from_dict({"examined": 3})


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
        assert open(a.output_path, "rb").read() == open(b.output_path, "rb").read()

    def test_thread_invariance(self, tmp_path):
        a = run_search(tmp_path, 7, 20000, name="a.jsonl", segment_size=2048, threads=1)
        b = run_search(tmp_path, 7, 20000, name="b.jsonl", segment_size=2048, threads=3)
        assert a.counters == b.counters
        assert open(a.output_path, "rb").read() == open(b.output_path, "rb").read()


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
        assert (open(resumed.output_path, "rb").read()
                == open(full.output_path, "rb").read())

    def test_resume_with_more_threads(self, tmp_path):
        full, _stopped, resumed = self.full_and_stopped(tmp_path, threads_resume=2)
        assert resumed.counters == full.counters
        assert (open(resumed.output_path, "rb").read()
                == open(full.output_path, "rb").read())

    def test_resume_truncates_torn_tail(self, tmp_path):
        full, stopped, _ = self.full_and_stopped(tmp_path)
        # simulate a crash mid-write: garbage past the committed offset
        with open(stopped.output_path, "ab") as fh:
            fh.write(b'{"p": 999999, "outcome": "Colli')
        resumed = resume(str(tmp_path / "part.ckpt"))
        assert resumed.counters == full.counters
        assert (open(resumed.output_path, "rb").read()
                == open(full.output_path, "rb").read())

    def test_resume_drops_uncommitted_records_and_torn_line(self, tmp_path):
        # the run's own file after a crash: records of segments the checkpoint
        # never covered, then half of the next record
        full = run_search(tmp_path, 7, 9000, name="full.jsonl", segment_size=512)
        expected = open(full.output_path, "rb").read()
        ckpt, part_out = str(tmp_path / "part.ckpt"), str(tmp_path / "part.jsonl")
        search(SearchConfig(range=PrimeRange(7, 9000, 512), output_path=part_out, checkpoint_path=ckpt,
                            checkpoint_interval=1, stop_after_segments=3))
        shutil.copy(ckpt, ckpt + ".old")
        resume(ckpt, stop_after_segments=4)
        shutil.copy(ckpt + ".old", ckpt)
        offset = json.loads(open(ckpt).read())["output_offset"]
        written = len(open(part_out, "rb").read())
        assert expected[offset:written].count(b"\n") >= 2
        next_line = expected[written:expected.index(b"\n", written) + 1]
        with open(part_out, "ab") as fh:
            fh.write(next_line[: len(next_line) // 2])
        resumed = resume(ckpt)
        assert resumed.counters == full.counters
        assert open(part_out, "rb").read() == expected

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        done = run_search(tmp_path, 7, 1000, checkpoint_path=ckpt)
        before = open(done.output_path, "rb").read()
        again = resume(ckpt)
        assert again.complete and again.resumed
        assert again.counters == done.counters
        assert open(done.output_path, "rb").read() == before

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
        assert (open(str(tmp_path / "steps.jsonl"), "rb").read()
                == open(full.output_path, "rb").read())

    def test_checkpoint_contents(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        report = run_search(tmp_path, 7, 1000, checkpoint_path=ckpt)
        payload = json.loads(open(ckpt, encoding="ascii").read())
        results = open(report.output_path, "rb").read()
        assert payload["version"] == CHECKPOINT_VERSION == 2
        assert (payload["lo"], payload["hi"]) == (7, 1000)
        assert payload["completed_through"] == 1000
        assert payload["counters"] == report.counters.as_dict()
        assert payload["socialist"] == []
        assert payload["output_offset"] == len(results)
        assert payload["output_records"] == results.count(b"\n") == 10
        assert payload["output_sha256"] == hashlib.sha256(results).hexdigest()


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """The engine's process pool, counting every segment handed to it.

    The engine looks the pool up on concurrent.futures when a run first
    needs it, so that is where the tests put this one.
    """

    submitted = 0

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
        assert stopped.completed_through == 7 + stop * seg
        assert CountingPool.submitted <= stop + threads - 1

        CountingPool.submitted = 0
        resumed = resume(ckpt, threads=threads)
        assert CountingPool.submitted == 20 - stop
        assert resumed.complete and resumed.counters == full.counters
        assert open(resumed.output_path, "rb").read() == open(full.output_path, "rb").read()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched _classify reaches the workers only through fork")
    def test_worker_error_reaches_caller(self, tmp_path, monkeypatch):
        seg = 512
        rng = PrimeRange(7, 7 + 8 * seg, seg)
        full = run_search(tmp_path, rng.lo, rng.hi, name="full.jsonl", segment_size=seg)
        good_through = 7 + 3 * seg
        bad = next(p for p in small_primes(good_through + seg) if p >= good_through)
        real_classify = engine._classify

        def classify(p, strict):
            if p == bad:
                raise ArithmeticError(f"injected failure at p={p}")
            return real_classify(p, strict)

        monkeypatch.setattr(engine, "_classify", classify)
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

        payload = json.loads(open(ckpt).read())
        committed = [r for r in read_records(full.output_path) if r["p"] < good_through]
        assert payload["completed_through"] == good_through
        assert read_records(part_out) == committed
        assert payload["output_offset"] == os.path.getsize(part_out)

        monkeypatch.undo()
        resumed = resume(ckpt, threads=2)
        assert resumed.complete and resumed.counters == full.counters
        assert open(part_out, "rb").read() == open(full.output_path, "rb").read()


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
        proc = subprocess.Popen(
            [sys.executable, "-m", "socprimes.cli", "search", "--from", str(KILL_RANGE.lo),
             "--to", str(KILL_RANGE.hi), "--segment-size", str(KILL_RANGE.segment_size), "--out", str(out),
             "--checkpoint", str(ckpt), "--checkpoint-interval", "1", "--threads", str(threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
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
    return ckpt, json.loads(open(ckpt).read())


@pytest.fixture(scope="module")
def stopped_checkpoint(tmp_path_factory):
    return make_checkpoint(tmp_path_factory.mktemp("damage"))


@st.composite
def damaged(draw, payload):
    """payload with one key dropped or retyped, a committed-output key
    given another value of its type, or a non-object document."""
    how = draw(st.sampled_from(("drop", "retype", "tamper", "replace")))
    if how == "replace":
        return draw(st.sampled_from(NOT_OBJECTS))
    doc = copy.deepcopy(payload)
    if how == "tamper":
        key = draw(st.sampled_from(("output_offset", "output_records", "output_sha256")))
        if key == "output_sha256":
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
        results = open(payload["output_path"], "rb").read()
        self.rewrite(ckpt, data.draw(damaged(payload)))
        with pytest.raises(CheckpointError):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert open(payload["output_path"], "rb").read() == results

    @pytest.mark.parametrize("damage", ["foreign", "edited"])
    def test_resume_into_another_file_is_refused(self, tmp_path, damage):
        ckpt, payload = make_checkpoint(tmp_path)
        assert payload["output_offset"] > 0
        other = tmp_path / "other.jsonl"
        if damage == "foreign":
            record = b'{"p":7,"outcome":"Collision","witness":{"j":1,"k":2,"residue":1}}\n'
            other.write_bytes((record * (15_000 // len(record) + 1))[:15_000])
        else:
            data = bytearray(open(payload["output_path"], "rb").read())
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
        assert json.loads(open(ckpt).read())["output_offset"] == 0
        other = tmp_path / "other.jsonl"
        other.write_bytes((foreign * (15_000 // len(foreign) + 1))[:15_000])
        before = other.read_bytes()
        with pytest.raises(CheckpointError, match="past the checkpoint's offset"):
            resume(ckpt, output_path=str(other))
        assert main(["search", "--checkpoint", ckpt, "--out", str(other), "--threads", "1"]) == 1
        assert other.read_bytes() == before

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        # version 1 carried no record count or digest for its results file
        ckpt, payload = make_checkpoint(tmp_path)
        payload["version"] = 1
        del payload["output_records"], payload["output_sha256"]
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
        assert open(resumed.output_path, "rb").read() == open(full.output_path, "rb").read()

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
        open(ckpt, "w").write("not json{")
        with pytest.raises(CheckpointError):
            resume(ckpt)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume(str(tmp_path / "absent.json"))

    def test_output_shorter_than_offset(self, tmp_path):
        ckpt, payload = make_checkpoint(tmp_path)
        open(payload["output_path"], "wb").write(b"{}")
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
    def test_values_no_search_writes_are_refused(self, tmp_path, damage):
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
        files = [Path(ckpt), Path(payload["output_path"])]
        before = [f.read_bytes() for f in files]
        with pytest.raises(CheckpointError):
            resume(ckpt)
        assert main(["search", "--checkpoint", ckpt, "--threads", "1"]) == 1
        assert [f.read_bytes() for f in files] == before


class TestClassifyGuards:
    """_classify's checks on the scan, with the scan and the recheck stubbed."""

    def test_collision_failing_its_recheck_is_refused(self, monkeypatch):
        monkeypatch.setattr(engine, "recheck_witness", lambda p, j, k: False)
        with pytest.raises(ArithmeticError, match="failed recheck"):
            engine._classify(13, False)

    def test_confirmed_socialist_verdict(self, monkeypatch):
        modes = []

        def scan(p, mode=ScanMode.BIRTHDAY):
            modes.append(mode)
            return Verdict(p, VerdictKind.SOCIALIST, scanned_up_to=p - 1)

        monkeypatch.setattr(engine, "verify_distinct", scan)
        assert engine._classify(13, False) == ("socialist", {"p": 13, "outcome": "Socialist"})
        assert modes == [ScanMode.BIRTHDAY, ScanMode.NAIVE_BITSET]

    def test_disagreeing_confirmation_is_refused(self, monkeypatch):
        verdicts = iter([Verdict(13, VerdictKind.SOCIALIST, scanned_up_to=12),
                         Verdict(13, VerdictKind.COLLISION, 2, 7, 2, scanned_up_to=7)])
        monkeypatch.setattr(engine, "verify_distinct", lambda p, mode=ScanMode.BIRTHDAY: next(verdicts))
        with pytest.raises(ArithmeticError, match="confirmation scan"):
            engine._classify(13, False)


class TestSocialistPath:
    def test_commit_logs_and_tracks(self, caplog):
        state = _RunState(lo=7, hi=100, counters=Counters(), completed_through=7,
                          socialist=[], bytes_written=0, prior_elapsed=0.0)
        out = io.BytesIO()
        record = {"p": 5, "outcome": "Socialist"}
        with caplog.at_level(logging.CRITICAL, logger="socprimes.engine"):
            _commit(state, out, Counters(examined=1, socialist=1), [record], seg_hi=100)
        assert state.socialist == [5]
        assert "SOCIALIST" in caplog.text
        assert json.loads(out.getvalue().decode("ascii")) == record
        assert state.bytes_written == len(out.getvalue())
        assert state.counters.socialist == 1

    def test_verdict_five_is_socialist_shaped(self):
        # the scan machinery itself must keep recognising the one known case
        v = verify_distinct(5, ScanMode.NAIVE_BITSET)
        assert v.kind is VerdictKind.SOCIALIST
        assert factorial_mod(4, 5) == 4
