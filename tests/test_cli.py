import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from socprimes import checkpoint
from socprimes.cli import LABELS, main
from socprimes.engine import Counters, SearchConfig, search
from socprimes.filters import OUTCOMES
from socprimes.primes import PrimeRange

SURVIVORS_BELOW_1000 = [13, 173, 197, 277, 317, 397, 653, 853, 877, 997]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerify:
    def test_collision_human(self, capsys):
        assert main(["verify", "13"]) == 0
        assert capsys.readouterr().out == "p=13: Collision 4! == 9! == 11 (mod 13)\n"

    def test_collision_json(self, capsys):
        assert main(["verify", "13", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"p": 13, "kind": "Collision", "j": 4, "k": 9, "residue": 11, "scanned_up_to": 9}\n'
        )

    def test_socialist_exit_code(self, capsys):
        assert main(["verify", "5"]) == 2
        assert "SOCIALIST" in capsys.readouterr().out

    def test_invalid_p(self, capsys):
        assert main(["verify", "4"]) == 64
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 64


class TestSearch:
    def test_fresh_json(self, capsys, tmp_path):
        out = str(tmp_path / "r.jsonl")
        code, doc = run_json(capsys, ["search", "--from", "7", "--to", "1000",
                                      "--out", out, "--threads", "1", "--json"])
        assert code == 0
        assert doc["complete"] is True
        assert doc["counters"]["examined"] == 165
        assert doc["counters"]["collisions"] == 8
        assert doc["stage1_survivors"] == 10
        assert doc["socialist"] == []
        assert doc["resumed"] is False
        lines = Path(out).read_text().splitlines()
        assert [json.loads(l)["p"] for l in lines] == SURVIVORS_BELOW_1000

    def test_fresh_human(self, capsys, tmp_path):
        out = str(tmp_path / "r.jsonl")
        assert main(["search", "--from", "7", "--to", "1000",
                     "--out", out, "--threads", "1"]) == 0
        text = capsys.readouterr().out
        assert "search [7, 1000) complete" in text
        assert "examined          165" in text
        assert "SOCIALIST" not in text

    def test_missing_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 64

    def test_stop_after_needs_checkpoint(self, capsys, tmp_path):
        code = main(["search", "--from", "7", "--to", "1000",
                     "--out", str(tmp_path / "r.jsonl"),
                     "--threads", "1", "--stop-after-segments", "1"])
        assert code == 64
        assert "checkpoint" in capsys.readouterr().err

    def test_stop_and_resume_reproduce_bytes(self, capsys, tmp_path):
        # this window is 2^18 wide below 2 * 10^7, where search works out segments of 2^17
        lo, hi = 2 * 10**7 - 2**18, 2 * 10**7
        full = tmp_path / "full.jsonl"
        search(SearchConfig(range=PrimeRange(lo, hi, 2**16), output_path=str(full)))

        part, ckpt = tmp_path / "part.jsonl", tmp_path / "part.ckpt"
        base = ["search", "--out", str(part), "--checkpoint", str(ckpt), "--threads", "1"]
        code, doc = run_json(capsys, base + ["--from", str(lo), "--to", str(hi), "--stop-after-segments", "1",
                                             "--json"])
        assert code == 0 and doc["complete"] is False
        assert doc["completed_through"] == lo + 2**17
        assert json.loads(ckpt.read_text())["checkpoint_interval"] == 8

        # checkpoint exists now, so the same subcommand resumes
        code, doc = run_json(capsys, base + ["--json"])
        assert code == 0
        assert doc["complete"] is True and doc["resumed"] is True
        assert part.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("flag", ["--segment-size", "--checkpoint-interval"])
    def test_sizes_are_not_options(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--from", "7", "--to", "9000", "--out", str(tmp_path / "r.jsonl"), flag, "1024"])
        assert exc.value.code == 64
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["search", "filter-counts"])
    def test_strict_cubic_is_not_an_option(self, tmp_path, monkeypatch, command):
        # strict mode is retired; run in tmp_path, where search would write results.jsonl
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--from", "7", "--to", "9000", "--strict-cubic"])
        assert exc.value.code == 64
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def stopped(self, tmp_path):
        """A leg of search [7, 9000) in segments of 1024, stopped after 2: (checkpoint, results, run argv)."""
        part, ckpt = tmp_path / "part.jsonl", tmp_path / "part.ckpt"
        search(SearchConfig(range=PrimeRange(7, 9000, 1024), output_path=str(part), checkpoint_path=str(ckpt),
                            stop_after_segments=2))
        return ckpt, part, ["search", "--out", str(part), "--checkpoint", str(ckpt), "--threads", "1"]

    @pytest.mark.parametrize("args", [
        ["--from", "7", "--to", "50000"],
        ["--to", "50000"],
        ["--from", "8"],
        ["--from", "2", "--to", "8999"],
    ], ids=["range", "to", "from", "clamped-from-other-to"])
    def test_resume_refuses_another_search(self, capsys, stopped, args):
        ckpt, part, base = stopped
        before = ckpt.read_bytes(), part.read_bytes()
        assert main(base + args) == 1
        assert "checkpoint" in capsys.readouterr().err
        assert (ckpt.read_bytes(), part.read_bytes()) == before

    @pytest.mark.parametrize("args", [[], ["--from", "2", "--to", "9000"], ["--to", "9000"], ["--from", "7"]],
                             ids=["none", "clamped-from", "to", "from"])
    def test_resume_accepts_the_same_search(self, capsys, tmp_path, stopped, args):
        ckpt, part, base = stopped
        full = str(tmp_path / "full.jsonl")
        assert main(["search", "--from", "7", "--to", "9000", "--out", full, "--threads", "1"]) == 0
        capsys.readouterr()
        code, doc = run_json(capsys, base + args + ["--json"])
        assert code == 0 and doc["complete"] and doc["resumed"]
        assert part.read_bytes() == Path(full).read_bytes()

    def test_resume_reads_the_checkpoint_once(self, capsys, monkeypatch, stopped):
        ckpt, part, base = stopped
        reads, load = [], checkpoint._load_checkpoint
        monkeypatch.setattr(checkpoint, "_load_checkpoint", lambda path: reads.append(path) or load(path))
        assert main(base + ["--from", "7", "--to", "9000"]) == 0
        assert reads == [str(ckpt)]

    @pytest.mark.parametrize("suffix", ["", ".tmp"], ids=["checkpoint", "checkpoint-tmp"])
    def test_results_path_of_the_checkpoint_is_usage_error(self, capsys, tmp_path, suffix):
        ckpt, out = tmp_path / "r.ckpt", tmp_path / f"r.ckpt{suffix}"
        if suffix:  # a results file already there
            assert main(["search", "--from", "7", "--to", "1000", "--out", str(out), "--threads", "1"]) == 0
        before = sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir())
        capsys.readouterr()
        assert main(["search", "--from", "7", "--to", "300000", "--out", str(out),
                     "--checkpoint", str(ckpt), "--threads", "1"]) == 64
        assert "would overwrite the checkpoint" in capsys.readouterr().err
        assert sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("suffix", ["", ".tmp"], ids=["checkpoint", "checkpoint-tmp"])
    def test_resume_into_the_checkpoint_is_usage_error(self, capsys, stopped, suffix):
        ckpt, part, base = stopped
        before = ckpt.read_bytes(), part.read_bytes()
        assert main(["search", "--checkpoint", str(ckpt), "--out", f"{ckpt}{suffix}", "--threads", "1"]) == 64
        assert "would overwrite the checkpoint" in capsys.readouterr().err
        assert (ckpt.read_bytes(), part.read_bytes()) == before
        assert not ckpt.with_name(ckpt.name + ".tmp").exists()

    def test_checkpoint_in_a_missing_directory_is_runtime_error(self, capsys, tmp_path):
        # refused before the results file is opened, as an --out there would be
        argv = ["search", "--from", "7", "--to", "3000", "--out", str(tmp_path / "x.jsonl"),
                "--checkpoint", str(tmp_path / "missing" / "x.ckpt"), "--threads", "1"]
        assert main(argv) == 1
        assert "does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_checkpoint_is_runtime_error(self, capsys, tmp_path):
        ckpt = tmp_path / "c.json"
        ckpt.write_text("not json{")
        code = main(["search", "--checkpoint", str(ckpt), "--threads", "1"])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


def test_every_counter_has_a_label():
    # a search's report prints LABELS[name] for every Counters field, filter-counts for every outcome
    assert set(LABELS) == {*Counters._fields, *OUTCOMES}


class TestFilterCounts:
    def test_json_frozen(self, capsys):
        assert main(["filter-counts", "--from", "7", "--to", "1000", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"lo": 7, "hi": 1000, "examined": 165, "rejected_mod8": 123, '
            '"rejected_legendre5": 20, "rejected_legendre23": 12, "rejected_cubic": 2, '
            '"candidates": 8, "stage1_survivors": [13, 173, 197, 277, 317, 397, 653, 853, 877, 997], '
            '"stage2_survivors": [13, 173, 277, 397, 653, 853, 877, 997]}\n'
        )

    def test_human(self, capsys):
        assert main(["filter-counts", "--from", "7", "--to", "1000"]) == 0
        text = capsys.readouterr().out
        assert "primes examined     165" in text
        assert "stage-1 survivors: 13 173 197 277 317 397 653 853 877 997" in text

    def test_list_limit_suppresses(self, capsys):
        # the text form lists at most 200 stage-1 survivors: 29837 is the 201st
        assert main(["filter-counts", "--from", "7", "--to", "29837"]) == 0
        assert "stage-1 survivors: 13 173 " in capsys.readouterr().out
        assert main(["filter-counts", "--from", "7", "--to", "29838"]) == 0
        assert "survivors:" not in capsys.readouterr().out

    @pytest.mark.parametrize("lo, hi", [("-5", "100"), ("990", "800")], ids=["negative", "reversed"])
    def test_bad_range_refused_as_search_refuses_it(self, capsys, tmp_path, lo, hi):
        assert main(["filter-counts", "--from", lo, "--to", hi]) == 64
        assert "bad range" in capsys.readouterr().err
        assert main(["search", "--from", lo, "--to", hi, "--out", str(tmp_path / "r.jsonl"), "--threads", "1"]) == 64
        assert "bad range" in capsys.readouterr().err

    def test_range_below_the_domain_is_not_refused(self, capsys):
        assert main(["filter-counts", "--from", "0", "--to", "12"]) == 0
        assert "primes examined     2" in capsys.readouterr().out


class TestFpStats:
    def test_json_frozen(self, capsys):
        code, doc = run_json(capsys, ["fp-stats", "--max", "100", "--json"])
        assert code == 0  # the one F = 2 prime is 5, a known case, not a discovery
        assert doc["primes_scanned"] == 23
        assert doc["min_f"] == 2
        assert doc["min_f_primes"] == [5]
        assert doc["socialist"] == []
        assert doc["counts"]["2"] == 1 and doc["counts"]["39"] == 1

    def test_human(self, capsys):
        assert main(["fp-stats", "--max", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2 1"
        assert lines[-1] == "# 23 primes below 100; min F = 2 at 5"

    def test_budget_guard(self, capsys):
        assert main(["fp-stats", "--max", "20000000"]) == 64
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_not_positive(self, capsys, jobs):
        # a usage error, as search --threads 0 is, not a silent one-process scan
        assert main(["fp-stats", "--max", "100", "--jobs", jobs]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs must be >= 1" in captured.err


class TestHeuristic:
    def test_single_prime_json(self, capsys):
        code, doc = run_json(capsys, ["heuristic", "--p", "13", "--json"])
        assert code == 0
        assert doc["limit_exponent"] == -3
        assert math.isclose(doc["log_exact"], 45 * math.log1p(-1 / 13), rel_tol=1e-15)
        assert doc["exact"]["exp10"] == -2
        assert math.isclose(doc["exact"]["mantissa"], 2.7271260907, rel_tol=1e-9)

    def test_single_prime_human(self, capsys):
        assert main(["heuristic", "--p", "13"]) == 0
        assert capsys.readouterr().out == (
            "p=13: exact 2.727e-2 (ln = -3.6019), limit e^-3 = 4.979e-2\n"
        )

    @pytest.mark.parametrize("p, line", [
        (630901, "p=630901: exact 1.000e-136997 (ln = -315447.2500), limit e^-315447 = 1.284e-136997\n"),
        (189017, "p=189017: exact 7.788e-41044 (ln = -94505.2500), limit e^-94505 = 1.000e-41043\n"),
    ], ids=["exact", "limit"])
    def test_mantissa_rounding_to_ten_carries(self, capsys, p, line):
        # each of these mantissas is >= 9.9995 before rounding to three decimals
        assert main(["heuristic", "--p", str(p)]) == 0
        assert capsys.readouterr().out == line

    def test_range_json(self, capsys):
        code, doc = run_json(capsys, ["heuristic", "--from", "1000", "--to", "100000", "--json"])
        assert code == 0
        assert doc["expected"]["exp10"] == -218
        assert math.isclose(doc["log_expected"], -501.11934327507424, rel_tol=1e-12)

    def test_range_human(self, capsys):
        assert main(["heuristic", "--from", "1000", "--to", "100000"]) == 0
        assert capsys.readouterr().out == (
            "expected socialist primes in [1000, 100000): 2.326e-218 (ln = -501.1193)\n"
        )

    def test_empty_range(self, capsys):
        code, doc = run_json(capsys, ["heuristic", "--from", "7", "--to", "7", "--json"])
        assert code == 0
        assert doc["log_expected"] is None and doc["expected"]["mantissa"] == 0.0

    def test_conflicting_forms(self):
        with pytest.raises(SystemExit) as exc:
            main(["heuristic", "--p", "13", "--from", "7", "--to", "100"])
        assert exc.value.code == 64

    def test_no_form(self):
        with pytest.raises(SystemExit) as exc:
            main(["heuristic"])
        assert exc.value.code == 64

    def test_bad_p(self, capsys):
        assert main(["heuristic", "--p", "4"]) == 64
        assert "error" in capsys.readouterr().err


class TestEntryPoints:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_installed_script(self):
        exe = shutil.which("socprimes")
        cmd = [exe] if exe else [sys.executable, "-m", "socprimes.cli"]
        done = subprocess.run(cmd + ["verify", "13"], capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout == "p=13: Collision 4! == 9! == 11 (mod 13)\n"

    def test_installed_script_socialist_code(self):
        exe = shutil.which("socprimes")
        cmd = [exe] if exe else [sys.executable, "-m", "socprimes.cli"]
        done = subprocess.run(cmd + ["verify", "5"], capture_output=True, text=True)
        assert done.returncode == 2
