import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca.catalog import SweepCheckpoint, load_checkpoint, read_catalog, save_checkpoint
from revca import catalog, cli, engine, injectivity, patterns, rules
from revca.cli import main
from revca.patterns import enumerate_extended


def _no_work(*args, **kwargs):
    raise AssertionError("a bad --max-period must be rejected before any check runs")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference(key):
    """The injective tables of perfbench/reference.json at one diameter,
    ascending."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    return sorted(json.loads(path.read_text())[key])


class TestGenPatterns:
    def test_by_radii(self, capsys):
        code, out, err = run(capsys, "gen-patterns", "--left", "1", "--right", "3")
        assert code == 0
        assert out.splitlines() == ["0X011", "0X110", "1X001", "1X100"]
        assert "count: 4" in err

    def test_empty_diameter_3(self, capsys):
        code, out, err = run(capsys, "gen-patterns", "--diameter", "3")
        assert code == 0 and out == "" and "count: 0" in err

    def test_diameter_10_count(self, capsys):
        code, out, err = run(capsys, "gen-patterns", "--diameter", "10")
        assert code == 0 and len(out.splitlines()) == 2556

    def test_invalid_radii(self, capsys):
        code, _, err = run(capsys, "gen-patterns", "--left", "-1", "--right", "2")
        assert code == 2 and "error" in err

    def test_conflicting_args(self, capsys):
        code, _, _ = run(capsys, "gen-patterns", "-d", "4", "--left", "1", "--right", "2")
        assert code == 2

    def test_gen_extended(self, capsys):
        code, out, err = run(capsys, "gen-extended", "--diameter", "5")
        assert code == 0 and len(out.splitlines()) == 8 and "count: 8" in err

    @pytest.mark.parametrize("argv, found", [
        (["gen-patterns", "-d", "13"], lambda: patterns.generate_all_patterns(13)),
        (["gen-extended", "-d", "12"], lambda: enumerate_extended(12)),
    ])
    def test_lines_across_write_blocks(self, capsys, argv, found):
        """Listings longer than one block of lines that the CLI writes at
        once (32,172 and 27,392 patterns) hold each pattern on a line of
        its own, in order, as one print() each would write them."""
        code, out, _ = run(capsys, *argv)
        assert len(found()) > cli._BLOCK_LINES
        assert code == 0 and out == "".join(p + "\n" for p in found())

    @pytest.mark.parametrize("argv", [
        ["gen-patterns", "-d", "17"],
        ["gen-patterns", "-d", "40"],       # was a 4 TiB allocation
        ["gen-patterns", "-d", "64"],       # was an OverflowError
        ["gen-patterns", "--left", "40", "--right", "40"],
        ["gen-extended", "-d", "17"],
        ["gen-extended", "-d", "40"],
    ], ids=" ".join)
    def test_diameter_limit_exits_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the diameter limit must be checked before any allocation")

        monkeypatch.setattr(patterns.np, "arange", no_allocation)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: diameter ") and len(err.splitlines()) == 1
        assert f"outside 1..{patterns.MAX_DIAMETER}" in err


class TestCounts:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "counts", "--max-diameter", "8", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        by_n = {r["diameter"]: r for r in rows}
        assert by_n[3]["injective_patterns"] == 0 and by_n[3]["extended_patterns"] == 0
        assert by_n[7]["injective_patterns"] == 148 and by_n[7]["extended_patterns"] == 162
        assert by_n[8]["injective_patterns"] == 408 and by_n[8]["extended_patterns"] == 528

    def test_text_format_deterministic(self, capsys):
        _, out1, _ = run(capsys, "counts", "-n", "5")
        _, out2, _ = run(capsys, "counts", "-n", "5")
        assert out1 == out2 and "N" in out1.splitlines()[0]

    def test_range_guard(self, capsys):
        assert run(capsys, "counts", "-n", "2")[0] == 2
        assert run(capsys, "counts", "-n", "13")[0] == 2


class TestInduce:
    def test_verified_singleton(self, capsys):
        code, out, _ = run(capsys, "induce", "0X011", "--verify")
        assert code == 0
        obj = json.loads(out)
        assert obj["wolfram_decimal"] == "4278253320"
        assert obj["verified_debruijn"] is True
        assert obj["verified_periodic_to"] == 12
        assert obj["trivial"] == "nontrivial"
        assert obj["provenance"] == ["0X011"]

    def test_single_flip_flagged_trivial(self, capsys):
        code, out, _ = run(capsys, "induce", "X")
        assert code == 0
        obj = json.loads(out)
        assert obj["wolfram_decimal"] == "1" and obj["trivial"] == "complement(0)"

    def test_dependent_pair_exits_3(self, capsys):
        code, _, err = run(capsys, "induce", "0X011", "0X110")
        assert code == 3
        assert "0X011" in err and "0X110" in err

    def test_malformed_pattern_exits_2(self, capsys):
        assert run(capsys, "induce", "0XX1")[0] == 2

    def test_catalog_append(self, capsys, tmp_path):
        path = tmp_path / "cat.jsonl"
        code, out, _ = run(capsys, "induce", "0X011", "--verify", "--catalog", str(path))
        assert code == 0
        entries = read_catalog(path)
        assert len(entries) == 1 and entries[0]["verified_debruijn"] is True
        created_at = entries[0].pop("created_at")
        assert created_at is not None
        # the catalog line is the printed record without the two report fields
        printed = json.loads(out)
        assert (printed.pop("trivial"), printed.pop("balanced")) == ("nontrivial", True)
        assert entries[0] == printed

    def test_no_timestamp_on_stdout(self, capsys):
        _, out, _ = run(capsys, "induce", "0X011")
        assert "created_at" not in json.loads(out)

    def test_max_period_over_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "induce", "0X011", "--verify", "--max-period", "25")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["-1", "21"])
    def test_max_period_out_of_range_exits_2_up_front(self, capsys, tmp_path, monkeypatch,
                                                      value):
        monkeypatch.setattr(injectivity, "debruijn_injective", _no_work)
        monkeypatch.setattr(injectivity, "periodic_bijective", _no_work)
        path = tmp_path / "cat.jsonl"
        code, out, err = run(capsys, "induce", "0X011", "--verify", "--max-period", value,
                             "--catalog", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_mixture_file(self, capsys, tmp_path):
        f = tmp_path / "mix.txt"
        f.write_text("10X111\na0X10a\n")
        code, out, _ = run(capsys, "induce", "--mixture-file", str(f), "--verify")
        assert code == 0
        obj = json.loads(out)
        # members are listed in canonical order (by core window value)
        assert sorted(obj["provenance"]) == ["10X111", "a0X10a"]


    def test_stdin_with_mixture_file_exits_2(self, capsys, tmp_path, monkeypatch):
        # one source of patterns per run: the file was silently ignored
        f = tmp_path / "mix.txt"
        f.write_text("0X110\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("0X011\n"))
        code, out, err = run(capsys, "induce", "--stdin", "--mixture-file", str(f))
        assert (code, out) == (2, "")
        assert err == "error: give either --stdin or --mixture-file, not both\n"

    def test_undecodable_mixture_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "mix.txt"
        f.write_bytes(b"\xff0X011\n")
        code, out, err = run(capsys, "induce", "--mixture-file", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1

    def test_undecodable_stdin_exits_2(self, capsys, monkeypatch):
        # a strict decoder: an interpreter's own stdin may use surrogateescape
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff0X011\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "induce", "--stdin")
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_injective_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "-d", "3", "-w", "240")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Injective"
        assert "trivial: projection(0)" in lines
        assert "balanced: true" in lines

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "-d", "3", "-w", "204")
        assert code == 0 and "trivial: projection(1)" in out

    def test_not_injective_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "-d", "3", "-w", "90")
        assert code == 1
        assert out.splitlines()[0] == "NotInjective"
        assert any(line.startswith("witness: ") for line in out.splitlines())

    def test_self_loop_settled_before_the_pair_graph(self, capsys, monkeypatch):
        # f(0^5) = f(1^5): node (0000, 1111) loops to itself, so "0 1" is the
        # witness and the pair graph is never peeled
        def fail(d, bits):
            raise AssertionError("a table with f(0^D) = f(1^D) must not be peeled")

        monkeypatch.setattr(injectivity, "_peel", fail)
        code, out, _ = run(capsys, "verify", "-d", "5", "-w", "90")
        assert code == 1 and out.splitlines()[:2] == ["NotInjective", "witness: 0 1"]

    def test_max_period_over_bound_exits_2(self, capsys):
        # a crash here used to end with exit 1, the NotInjective code
        code, out, err = run(capsys, "verify", "-d", "3", "-w", "204", "--max-period", "25")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["-3", "-1", "21", "25"])
    def test_max_period_out_of_range_exits_2_up_front(self, capsys, monkeypatch, value):
        monkeypatch.setattr(injectivity, "debruijn_injective", _no_work)
        monkeypatch.setattr(injectivity, "periodic_bijective", _no_work)
        code, out, err = run(capsys, "verify", "-d", "3", "-w", "204", "--max-period", value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_max_period_bounds_accepted(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "-d", "3", "-w", "204", "--max-period", "0")
        assert code == 0 and "periodic_bijective" not in out
        periods = []
        monkeypatch.setattr(injectivity, "periodic_bijective",
                            lambda rt, n: periods.append(n) or True)
        code, out, _ = run(capsys, "verify", "-d", "3", "-w", "204", "--max-period", "20")
        assert code == 0 and out.splitlines()[-1] == "periodic_bijective_to_20: true"
        assert periods == list(range(1, 21))

    def test_malformed(self, capsys):
        assert run(capsys, "verify", "-d", "3", "-w", "256")[0] == 2
        assert run(capsys, "verify", "-d", "3", "-w", "porridge")[0] == 2

    @pytest.mark.parametrize("value", ["zz", ""])
    def test_unreadable_wolfram_exits_2(self, capsys, value):
        code, out, err = run(capsys, "verify", "-d", "3", "-w", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid literal for int() with base 0: ")
        assert len(err.splitlines()) == 1


class TestDiameterLimits:
    """Diameters beyond a table (patterns.MAX_DIAMETER) or the decision
    (injectivity.MAX_DECISION_DIAMETER) exit 2 before anything is built;
    these used to crash with exit 1, the NotInjective code."""

    @pytest.mark.parametrize("argv, limit", [
        (["verify", "-d", "64", "-w", "1"], "above 12"),      # was a MemoryError
        (["verify", "-d", "13", "-w", "1"], "above 12"),      # was an _ArrayMemoryError
        (["induce", "0X011" + "a" * 8, "--verify"], "above 12"),
        (["induce", "0X011" + "a" * 12, "--verify"], "outside 1..16"),
        (["induce", "0X011" + "a" * 12], "outside 1..16"),
        (["simulate", "-d", "64", "-w", "1", "--init", "0101"], "outside 1..16"),
        (["simulate", "-d", "17", "-w", "1", "--init", "0101"], "outside 1..16"),
        (["simulate", "--pattern", "0X011" + "a" * 59, "--init", "0101"], "outside 1..16"),
    ], ids=lambda v: " ".join(v)[:40] if isinstance(v, list) else v)
    def test_exits_2_before_any_work(self, capsys, monkeypatch, argv, limit):
        def fail(*args, **kwargs):
            raise AssertionError("the diameter limit must be checked before any allocation")

        patched = [(rules, "RuleTable"), (rules, "induce"),
                   (injectivity, "_peel"), (engine, "space_time")]
        if argv[0] == "verify":  # verify checks both limits before it builds the table
            patched.append((rules, "from_wolfram"))
        for module, name in patched:
            monkeypatch.setattr(module, name, fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: diameter ") and len(err.splitlines()) == 1
        assert limit in err

    def test_limits_themselves_are_accepted(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "simulate", "-d", "16", "-w", "1", "--init", "0101")
        assert code == 0 and out.splitlines() == ["0101", "0000"]
        # a D=16 record has a 19,729-digit wolfram_decimal; that crashed
        code, out, _ = run(capsys, "induce", "0X011" + "a" * 11)
        assert code == 0 and json.loads(out)["diameter"] == 16
        reached = []

        def stop(d, bits):
            reached.append(d)
            raise KeyboardInterrupt

        monkeypatch.setattr(injectivity, "_peel", stop)
        for argv in (["verify", "-d", "12", "-w", "1"], ["induce", "0X011" + "a" * 7, "--verify"]):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert reached == [12, 12]


class TestEnumerate:
    def test_diameter_3_nontrivial_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3", "--exclude-trivial")
        assert code == 0 and out == ""

    def test_diameter_3_all(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3")
        assert code == 0
        got = [json.loads(line)["wolfram_decimal"] for line in out.splitlines()]
        assert got == ["15", "51", "85", "170", "204", "240"]
        assert all("created_at" not in json.loads(l) for l in out.splitlines())

    def test_diameter_4_nontrivial(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "4", "--exclude-trivial")
        assert code == 0
        got = {int(json.loads(line)["wolfram_decimal"]) for line in out.splitlines()}
        # truthful ground truth: the four pattern-induced rules and their
        # output complements (see README on the historical count of four)
        assert got == {3915, 11535, 13155, 14643, 50892, 52380, 54000, 61620}

    def test_diameter_5_nontrivial_in_wolfram_order(self, capsys):
        # ascending although units are balanced blocks, not Wolfram ranges
        code, out, _ = run(capsys, "enumerate", "-d", "5", "--exclude-trivial")
        trivial = {t.wolfram for t in rules.trivial_tables(5)}
        expected = [w for w in _reference("d5_injective") if w not in trivial]
        assert code == 0 and len(expected) == 52
        assert [int(json.loads(line)["wolfram_decimal"]) for line in out.splitlines()] == expected

    def test_refuses_big_diameters(self, capsys):
        for d in ("6", "0", "-1"):
            assert run(capsys, "enumerate", "-d", d)[:2] == (2, "")

    def test_long_sweep_flag_is_gone(self, capsys):
        # D = 5 runs without a flag; the old one is an unknown argument
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-d", "5", "--allow-long"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "--allow-long" in err

    def test_checkpoint_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        cat = tmp_path / "found.jsonl"
        code, out, _ = run(capsys, "enumerate", "-d", "3",
                           "--checkpoint", str(ckpt), "--catalog", str(cat))
        assert code == 0 and len(out.splitlines()) == 6
        cp = load_checkpoint(ckpt)
        assert cp.next_unit == cp.total_units == 1
        entries = read_catalog(cat)
        assert all(e.pop("created_at") for e in entries)
        assert entries == [json.loads(line) for line in out.splitlines()]
        # a second run resumes past the end and appends nothing
        code, out, err = run(capsys, "enumerate", "-d", "3",
                             "--checkpoint", str(ckpt), "--catalog", str(cat))
        assert code == 0 and out == ""
        assert len(read_catalog(cat)) == 6
        assert "complete" in err

    def test_checkpoint_partial_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        # pretend the first unit already ran
        save_checkpoint(ckpt, SweepCheckpoint(2, False, 1, 1))
        code, out, _ = run(capsys, "enumerate", "-d", "2", "--checkpoint", str(ckpt))
        assert code == 0 and out == ""

    def test_checkpoint_mid_sweep_resume(self, capsys, tmp_path):
        # half of the 16 D=4 units ran: the rest holds the tables from 2^15 on
        ckpt = tmp_path / "sweep.ckpt"
        cat = tmp_path / "found.jsonl"
        save_checkpoint(ckpt, SweepCheckpoint(4, False, 8, 16))
        code, out, _ = run(capsys, "enumerate", "-d", "4",
                           "--checkpoint", str(ckpt), "--catalog", str(cat))
        expected = [str(w) for w in _reference("d4_injective") if w >= 1 << 15]
        assert code == 0 and len(expected) == 8
        assert [json.loads(line)["wolfram_decimal"] for line in out.splitlines()] == expected
        assert [e["wolfram_decimal"] for e in read_catalog(cat)] == expected
        assert load_checkpoint(ckpt) == SweepCheckpoint(4, False, 16, 16)

    def test_resume_after_a_crash_between_append_and_checkpoint(self, capsys, tmp_path,
                                                                monkeypatch):
        """A crash after unit 0's records reach the catalog, before the
        checkpoint moves past the unit: the resumed run prints every record
        and appends only those the catalog lacks, so each of the 16 D=4
        tables is in the catalog once."""
        ckpt, cat = tmp_path / "sweep.ckpt", tmp_path / "found.jsonl"
        argv = ("enumerate", "-d", "4", "--checkpoint", str(ckpt), "--catalog", str(cat))
        expected = [str(w) for w in _reference("d4_injective")]
        save = catalog.save_checkpoint

        def crash_past_unit_0(path, cp):
            if cp.next_unit == 1:
                raise OSError("no space left on device")
            save(path, cp)

        monkeypatch.setattr(catalog, "save_checkpoint", crash_past_unit_0)
        code, _, _ = run(capsys, *argv)
        unit_0 = [w for w in expected if int(w) < injectivity.sweep_units(4)[0][1]]
        assert code == 2 and load_checkpoint(ckpt).next_unit == 0 and len(unit_0) == 3
        assert [e["wolfram_decimal"] for e in read_catalog(cat)] == unit_0
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [json.loads(line)["wolfram_decimal"] for line in out.splitlines()] == expected
        assert [e["wolfram_decimal"] for e in read_catalog(cat)] == expected
        assert load_checkpoint(ckpt) == SweepCheckpoint(4, False, 16, 16)

    def test_resume_refuses_a_catalog_line_that_is_no_record(self, capsys, tmp_path):
        ckpt, cat = tmp_path / "sweep.ckpt", tmp_path / "found.jsonl"
        save_checkpoint(ckpt, SweepCheckpoint(4, False, 8, 16))
        cat.write_text('{"diameter": 4}\n')
        code, out, err = run(capsys, "enumerate", "-d", "4",
                             "--checkpoint", str(ckpt), "--catalog", str(cat))
        assert code == 2 and out == "" and "line 1" in err
        assert cat.read_text() == '{"diameter": 4}\n'

    def test_checkpoint_parameter_mismatch(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        save_checkpoint(ckpt, SweepCheckpoint(3, True, 0, 1))
        code, _, err = run(capsys, "enumerate", "-d", "4", "--checkpoint", str(ckpt))
        assert code == 2 and "checkpoint" in err

    def test_checkpoint_partition_mismatch(self, capsys, tmp_path):
        # a D=3 sweep has one work unit; a checkpoint claiming seven came
        # from another partition and must not be resumed
        ckpt = tmp_path / "sweep.ckpt"
        save_checkpoint(ckpt, SweepCheckpoint(3, False, 0, 7))
        before = ckpt.read_bytes()
        code, out, err = run(capsys, "enumerate", "-d", "3", "--checkpoint", str(ckpt))
        assert code == 2 and out == "" and "checkpoint" in err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("text", [
        "garbage",                           # JSONDecodeError
        '{"version": 1, "kind": "sweep"}',   # KeyError
        '{"version": 2, "kind": "sweep"}',   # unknown version
        "[1]",                               # AttributeError
        '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
        '"next_unit": -1, "total_units": 1}',   # would rerun the sweep
        '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
        '"next_unit": true, "total_units": 1}',   # int() reads it as a finished sweep
    ], ids=["garbage", "no-fields", "version-2", "list", "negative-next-unit",
            "bool-next-unit"])
    def test_unreadable_checkpoint_exits_2(self, capsys, tmp_path, text):
        # a crash would end with exit 1, which reads as the NotInjective code
        ckpt = tmp_path / "sweep.ckpt"
        cat = tmp_path / "found.jsonl"
        ckpt.write_text(text)
        code, out, err = run(capsys, "enumerate", "-d", "3",
                             "--checkpoint", str(ckpt), "--catalog", str(cat))
        assert code == 2 and out == "" and not cat.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "checkpoint" in err
        assert ckpt.read_text() == text

    def test_checkpoint_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "enumerate", "-d", "3", "--checkpoint", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_thread_variable_is_ignored(self, capsys, monkeypatch):
        # sweeps run in the calling process; the old worker-count variable,
        # even an invalid one, changes nothing
        monkeypatch.delenv("REVCA_THREADS", raising=False)
        plain = run(capsys, "enumerate", "-d", "3")
        monkeypatch.setenv("REVCA_THREADS", "abc")
        assert run(capsys, "enumerate", "-d", "3") == plain
        assert plain[0] == 0 and len(plain[1].splitlines()) == 6


def test_cli_import_leaves_out_multiprocessing():
    # nor traceback, which main imports only to report an unexpected exception
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, revca.cli; print('multiprocessing' in sys.modules, "
         "'traceback' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False False\n"


class TestInternalErrors:
    """An exception that no handler expects exits 4 with its traceback and
    one INTERNAL ERROR line, never 1, the NotInjective code of verify."""

    def _assert_internal(self, code, out, err):
        assert code == 4 and out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("; this indicates a bug, please report it\n")
        assert err.splitlines()[-1].startswith("INTERNAL ERROR: ")

    def test_induced_rule_failing_verification(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(injectivity, "debruijn_injective",
                            lambda rt: injectivity.InjectivityVerdict(False, ("0", "0")))
        path = tmp_path / "cat.jsonl"
        code, out, err = run(capsys, "induce", "0X011", "--verify", "--catalog", str(path))
        self._assert_internal(code, out, err)
        assert "RuntimeError: induced rule for ['0X011'] failed verification" in err
        assert not path.exists()

    # 90 + 2^31: f(0^5) != f(1^5), so the decision peels it (and rejects it
    # with the witness 000000 010001)
    def test_crash_in_the_decision_is_not_a_verdict(self, capsys, monkeypatch):
        def crash(d, bits):
            raise IndexError("peel out of range")

        monkeypatch.setattr(injectivity, "_peel", crash)
        code, out, err = run(capsys, "verify", "-d", "5", "-w", "2147483738")
        self._assert_internal(code, out, err)
        assert "IndexError: peel out of range" in err
        assert "INTERNAL ERROR: unexpected IndexError" in err

    def test_stray_value_error_is_not_a_refusal(self, capsys, monkeypatch):
        # numpy's shape-mismatch error is a ValueError, but no refusal of input
        def crash(d, bits):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(injectivity, "_peel", crash)
        code, out, err = run(capsys, "verify", "-d", "5", "-w", "2147483738")
        self._assert_internal(code, out, err)
        assert "ValueError: operands could not be broadcast together" in err
        assert "INTERNAL ERROR: unexpected ValueError" in err

    def test_stray_value_error_in_the_periodic_checks(self, capsys, tmp_path, monkeypatch):
        def crash(rt, cells):
            raise ValueError("cannot reshape array")

        monkeypatch.setattr(engine, "batch_step", crash)
        path = tmp_path / "cat.jsonl"
        code, out, err = run(capsys, "induce", "0X011", "--verify", "--catalog", str(path))
        self._assert_internal(code, out, err)
        assert "ValueError: cannot reshape array" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["induce", "10X1a", "a0X10"],
                                      ["simulate", "--pattern", "10X1a", "a0X10",
                                       "--init", "00000"]], ids=lambda v: v[0])
    def test_flip_collision(self, capsys, monkeypatch, argv):
        # an overlapping set that skipped validation reaches rules.induce
        monkeypatch.setattr(patterns, "build_mixture",
                            lambda texts: patterns.MixtureSet(("10X1a", "a0X10"), 5, 2))
        code, out, err = run(capsys, *argv)
        self._assert_internal(code, out, err)
        assert "FlipCollisionError: window 10110 claimed by both" in err


def test_refusals_are_input_errors():
    """Every refusal in src/revca raises patterns.InputError (or its
    MixtureError), never the builtin ValueError, which numpy, json and int()
    raise too; cli.main maps exit 2 by InputError, never by ValueError; and
    the package defines exactly three exception classes."""
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "ValueError"), \
                    f"{path.name}:{node.lineno} raises ValueError"
            if isinstance(node, ast.FunctionDef) and path.name == "cli.py" \
                    and node.name == "main":
                for handler in (n for n in ast.walk(node) if isinstance(n, ast.ExceptHandler)):
                    names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                    assert "ValueError" not in names, f"cli.py:{handler.lineno}"
    defined = {obj for module in (catalog, cli, engine, injectivity, patterns, rules)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("revca")}
    assert defined == {patterns.InputError, patterns.MixtureError, rules.FlipCollisionError}
    assert patterns.InputError.__bases__ == (ValueError,)
    assert patterns.MixtureError.__bases__ == (patterns.InputError,)


class TestUnwritablePaths:
    """A file used as a directory: each command ends with exit 2 and one
    error line, never a traceback with exit 1, the NotInjective code."""

    @pytest.fixture
    def blocked(self, tmp_path):
        (tmp_path / "F").write_text("")
        return tmp_path / "F"

    def _assert_error(self, code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_simulate_pbm(self, capsys, blocked):
        self._assert_error(*run(capsys, "simulate", "-d", "2", "-w", "6", "--init", "0101",
                                "--pbm", str(blocked / "x.pbm")))

    def test_induce_catalog(self, capsys, blocked):
        self._assert_error(*run(capsys, "induce", "0X011", "--catalog",
                                str(blocked / "x.jsonl")))

    def test_enumerate_catalog(self, capsys, blocked):
        self._assert_error(*run(capsys, "enumerate", "-d", "3", "--catalog",
                                str(blocked / "x.jsonl")))

    def test_enumerate_checkpoint(self, capsys, blocked):
        self._assert_error(*run(capsys, "enumerate", "-d", "3", "--checkpoint",
                                str(blocked / "x.ckpt")))
        assert blocked.read_text() == ""


class TestSimulate:
    def test_pattern_trajectory(self, capsys):
        code, out, _ = run(capsys, "simulate", "--pattern", "0X011",
                           "--init", "00011", "--steps", "2")
        assert code == 0
        assert out.splitlines() == ["00011", "01011", "00011"]

    def test_wolfram_rule(self, capsys):
        code, out, _ = run(capsys, "simulate", "-d", "3", "-w", "240",
                           "--anchor", "1", "--init", "0011", "--steps", "1")
        assert code == 0 and out.splitlines() == ["0011", "1001"]

    def test_wolfram_forms_agree_past_the_digit_limit(self, capsys):
        """A --wolfram decimal of more than 4,300 digits runs like its hex,
        binary and octal forms (it used to exit 2 with Python's int limit)."""
        w = (1 << (1 << 14)) - 5
        outs = []
        for text in (rules._decimal_text(w), hex(w), bin(w), oct(w)):
            code, out, err = run(capsys, "simulate", "-d", "14", "-w", text, "--init", "0101")
            assert (code, err) == (0, "")
            outs.append(out)
        assert len(rules._decimal_text(w)) == 4933
        assert outs == [outs[1]] * 4 and outs[0].splitlines() == ["0101", "1111"]
        code, out, _ = run(capsys, "verify", "-d", "12", "-w", rules._decimal_text((1 << 4096) - 1))
        assert code == 1 and out.startswith("NotInjective\n")
        assert run(capsys, "verify", "-d", "3", "-w", "0204")[0] == 2   # as int(text, 0)

    def test_wolfram_past_the_table_and_the_digit_limit_exits_2(self, capsys):
        # the refusal names the number, not repr()'s own 4300-digit error
        code, out, err = run(capsys, "simulate", "-d", "1", "-w", "9" * 5000, "--init", "0101")
        assert (code, out) == (2, "")
        assert err == f"error: wolfram number {'9' * 5000} is not an int in range for " \
                      "diameter 1\n"

    def test_pbm(self, capsys, tmp_path):
        target = tmp_path / "orbit.pbm"
        code, _, _ = run(capsys, "simulate", "--pattern", "0X011",
                         "--init", "00011", "--steps", "2", "--pbm", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "P1" and lines[1] == "5 3"
        assert lines[2:] == ["00011", "01011", "00011"]

    def test_rejects_bad_init(self, capsys):
        assert run(capsys, "simulate", "--pattern", "0X011", "--init", "")[0] == 2
        assert run(capsys, "simulate", "--pattern", "0X011", "--init", "002")[0] == 2

    @pytest.mark.parametrize("flags", [["-w", "240"], ["--anchor", "1"],
                                       ["-d", "5", "-w", "240", "--anchor", "1"]])
    def test_pattern_with_wolfram_or_anchor_exits_2(self, capsys, flags):
        # the rule comes from the patterns, so a table or anchor beside them
        # would be ignored
        code, out, err = run(capsys, "simulate", "--pattern", "0X011", *flags,
                             "--init", "00011")
        assert (code, out) == (2, "")
        assert err == "error: give either --pattern or --wolfram/--anchor, not both\n"


class TestPipeline:
    """gen-patterns piped into induce --verify must never fail verification."""

    @pytest.mark.parametrize("diameter", [4, 5, 6])
    def test_pipe_in_process(self, capsys, diameter):
        code, out, _ = run(capsys, "gen-patterns", "-d", str(diameter))
        assert code == 0
        texts = out.splitlines()
        for chunk_start in range(0, len(texts), 64):
            chunk = "\n".join(texts[chunk_start:chunk_start + 64])
            import io
            stdin = sys.stdin
            sys.stdin = io.StringIO(chunk)
            try:
                code = main(["induce", "--stdin", "--verify", "--max-period", "8"])
            finally:
                sys.stdin = stdin
            assert code == 0
            produced = capsys.readouterr().out.splitlines()
            assert len(produced) == len(chunk.splitlines())

    def test_pipe_subprocess(self):
        gen = subprocess.run(
            [sys.executable, "-m", "revca", "gen-patterns", "-d", "5"],
            capture_output=True, text=True, check=True)
        ind = subprocess.run(
            [sys.executable, "-m", "revca", "induce", "--stdin", "--verify",
             "--max-period", "8"],
            input=gen.stdout, capture_output=True, text=True)
        assert ind.returncode == 0
        assert len(ind.stdout.splitlines()) == 14

    def test_extended_pipe(self, capsys):
        code, out, _ = run(capsys, "gen-extended", "-d", "5")
        texts = out.splitlines()
        assert len(texts) == len(enumerate_extended(5))
        import io
        stdin = sys.stdin
        sys.stdin = io.StringIO("\n".join(texts))
        try:
            code = main(["induce", "--stdin", "--verify", "--max-period", "8"])
        finally:
            sys.stdin = stdin
        assert code == 0


def test_byte_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        main(["enumerate", "-d", "3"])
        outs.add(capsys.readouterr().out)
        main(["induce", "0X011"])
        outs.add(capsys.readouterr().out)
    assert len(outs) == 2


# -- fuzzed argv ---------------------------------------------------------------

# Values per kind of option.  Diameters stay at most 4 or lie past every
# limit, and steps and periods stay small, so that no case starts a large
# allocation or a long run; the refusals themselves are cheap.
_INTS = ["1", "2", "3", "4"] * 3 + ["-1", "0", "x", "", "1.5", "0x3"]
_DIAMETERS = _INTS + ["17", "64", "100000000000000000000"]
_WOLFRAMS = ["0", "1", "6", "240", "0x96", "0XFF", "204", "0x3c"] * 2 + [
    "-1", "abc", "1" * 40, "9" * 5000]
_PERIODS = ["0", "1", "5", "12", "21", "-1", "x"]
_PATTERNS = ["0X011", "0X110", "1X001", "a0X011a", "0X011aaa", "0X011aaaaaaaaaaaa", "0X",
             "X", "01", "0Y1", "", "0x011", "0X011X"]
_WORDS = ["0101", "1", "", "012", "0" * 40, "0011010"]
_STDIN = ["", "0X011\n", "0X011\n0X110\n", "junk\n", "0X011 0X110\n"]
_PATHS = ["out.jsonl", "missing/x.jsonl", ".", "mixture.txt", "state.ckpt"]

_OPTIONS = {
    "gen-patterns": {"-d": _DIAMETERS, "--diameter": _DIAMETERS, "--left": _INTS,
                     "--right": _INTS},
    "gen-extended": {"-d": _DIAMETERS},
    "counts": {"-n": _INTS + ["6", "17"], "--json": None},
    "induce": {"--verify": None, "--stdin": None, "--max-period": _PERIODS,
               "--mixture-file": _PATHS, "--catalog": _PATHS},
    "verify": {"-d": _DIAMETERS, "-w": _WOLFRAMS, "--wolfram": _WOLFRAMS,
               "--max-period": _PERIODS},
    "enumerate": {"-d": _DIAMETERS, "--exclude-trivial": None, "--catalog": _PATHS,
                  "--checkpoint": _PATHS},
    "simulate": {"-d": _DIAMETERS, "-w": _WOLFRAMS, "--anchor": _INTS, "--pattern": _PATTERNS,
                 "--init": _WORDS, "--steps": ["0", "1", "3", "-1", "x"], "--pbm": _PATHS},
}


# The options each command needs, one set of them drawn in most cases, so
# that the cases reach the commands' own checks and work, not only argparse's.
_REQUIRED = {"gen-patterns": [["-d"], ["--left", "--right"]], "gen-extended": [["-d"]],
             "induce": [[]], "verify": [["-d", "-w"]], "enumerate": [["-d"]],
             "simulate": [["--init", "--pattern"], ["--init", "-d", "-w"]]}


@st.composite
def _argv(draw):
    """A command, its required options and some others with values of their
    kind (paths made relative to a scratch directory later), patterns for
    ``induce``, and now and then a stray token or a command that does not
    exist."""
    command = draw(st.sampled_from(sorted(_OPTIONS))) if draw(st.integers(0, 7)) \
        else draw(st.sampled_from(["bogus", "--help"]))
    argv = [command]
    options = _OPTIONS.get(command, {})
    flags = list(draw(st.sampled_from(_REQUIRED.get(command, [[]])))) \
        if draw(st.integers(0, 7)) else []
    if options:
        flags += draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(st.sampled_from(options[flag])))
    if command == "induce":
        argv += draw(st.lists(st.sampled_from(_PATTERNS), max_size=3))
    if not draw(st.integers(0, 5)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-d", "-h", "--", "0X011", "7"])))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "mixture.txt").write_text("0X011\n0X110\n")
    return path


@settings(max_examples=300)
@given(argv=_argv(), stdin=st.sampled_from(_STDIN))
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, argv, stdin):
    """Any argv over the real commands and options ends with a documented
    exit code and no traceback.  Exit 4 is documented too, but it reports a
    bug, so a case that reaches it fails."""
    argv = [str(fuzz_dir / a) if a in _PATHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:   # argparse: --help exits 0, a usage error 2
        code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    assert code != 4, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert "INTERNAL ERROR" not in err.getvalue(), argv
