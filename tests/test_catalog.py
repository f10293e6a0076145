import json
import os
from pathlib import Path

import pytest

from revca.catalog import (
    SweepCheckpoint,
    append_entries,
    load_checkpoint,
    read_catalog,
    save_checkpoint,
)
from revca.patterns import InputError, build_mixture
from revca.rules import from_wolfram, induce, rule_from_json, rule_to_json


def test_entry_round_trip(tmp_path):
    rt = induce(build_mixture(["0X011"]))
    record = rule_to_json(rt, ("0X011",))
    record.update(verified_debruijn=True, verified_periodic_to=12)
    path = tmp_path / "catalog.jsonl"
    append_entries(path, [record])
    append_entries(path, [rule_to_json(from_wolfram(3, 240))])
    back = read_catalog(path)
    assert len(back) == 2
    assert rule_from_json(back[0]) == (rt, ("0X011",))
    assert back[0]["verified_debruijn"] and back[0]["verified_periodic_to"] == 12
    assert back[0]["created_at"] is not None
    assert {k: v for k, v in back[0].items() if k != "created_at"} == record
    assert rule_from_json(back[1])[0] == from_wolfram(3, 240)
    assert not back[1]["verified_debruijn"] and back[1]["verified_periodic_to"] == 0


def test_entries_are_single_json_lines(tmp_path):
    path = tmp_path / "catalog.jsonl"
    append_entries(path, [rule_to_json(from_wolfram(3, 204))])
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["wolfram_decimal"] == "204" and obj["table_hex"] == "cc"


def test_corrupt_entry_rejected(tmp_path):
    d = rule_to_json(from_wolfram(3, 240))
    d["table_hex"] = "0f"
    with pytest.raises(ValueError):
        rule_from_json(d)
    path = tmp_path / "catalog.jsonl"
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(ValueError):
        read_catalog(path)


@pytest.mark.parametrize("line", [
    '{"diameter": 3}',
    "[1]",
    '"x"',
    '{"diameter": 3, "anchor": 0, "wolfram_decimal": "240", "table_hex": 240}',
    '{"diameter": 3.9, "anchor": 1, "wolfram_decimal": "240", "table_hex": "f0"}',
    '{"diameter": "3", "anchor": 1, "wolfram_decimal": "240", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1.5, "wolfram_decimal": "240", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": false, "wolfram_decimal": "240", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": 240.7, "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "240", "table_hex": "f0", '
    '"provenance": "0X1"}',
    # Wolfram 240 in texts that int() reads but rule_to_json never writes
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "2_40", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": " +240 ", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "0240", "table_hex": "f0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "240", "table_hex": "0xF0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "240", "table_hex": " f_0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "240", "table_hex": "F0"}',
    '{"diameter": 3, "anchor": 1, "wolfram_decimal": "240", "table_hex": "0f0"}',
], ids=["missing-fields", "list", "string", "numeric-table-hex", "float-diameter",
        "string-diameter", "float-anchor", "bool-anchor", "float-wolfram-decimal",
        "string-provenance", "underscore-decimal", "signed-spaced-decimal",
        "zero-padded-decimal", "prefixed-upper-hex", "spaced-underscore-hex",
        "upper-hex", "zero-padded-hex"])
def test_non_record_line_raises_value_error(tmp_path, line):
    # valid JSON that is not a rule record, after one good line
    path = tmp_path / "catalog.jsonl"
    path.write_text(json.dumps(rule_to_json(from_wolfram(3, 240))) + "\n" + line + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_catalog(path)


@pytest.mark.parametrize("good_lines", [0, 1])
def test_undecodable_line_names_its_number(tmp_path, good_lines):
    # a byte that is not UTF-8 is a bad line like any other, not a bare
    # UnicodeDecodeError
    path = tmp_path / "catalog.jsonl"
    good = (json.dumps(rule_to_json(from_wolfram(3, 240))) + "\n").encode()
    path.write_bytes(good * good_lines + b"\xff{}\n")
    with pytest.raises(InputError, match=f"line {good_lines + 1}: 'utf-8' codec"):
        read_catalog(path)


def test_timestamp_optional(tmp_path):
    # the record printed on stdout has no timestamp; the catalog line gains
    # one, and a line without one still reads back
    record = rule_to_json(from_wolfram(3, 240))
    assert "created_at" not in record
    path = tmp_path / "catalog.jsonl"
    append_entries(path, [record])
    assert "created_at" not in record
    assert "created_at" in json.loads(path.read_text())
    path.write_text(json.dumps(record) + "\n")
    assert read_catalog(path) == [record]


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "sweep.ckpt"
    assert load_checkpoint(path) is None
    cp = SweepCheckpoint(diameter=4, exclude_trivial=True, next_unit=3, total_units=16)
    save_checkpoint(path, cp)
    back = load_checkpoint(path)
    assert back == cp
    save_checkpoint(path, SweepCheckpoint(4, True, 16, 16))
    assert load_checkpoint(path) == SweepCheckpoint(4, True, 16, 16)


def test_checkpoint_synced_before_rename(tmp_path, monkeypatch):
    """The temporary file is written and synced to disk before it replaces
    the checkpoint, so a crash after the rename cannot leave an empty
    checkpoint behind."""
    events = []
    fsync, replace = os.fsync, Path.replace

    def spy_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        fsync(fd)

    def spy_replace(self, target):
        events.append(("replace", self.name))
        return replace(self, target)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(Path, "replace", spy_replace)
    path = tmp_path / "sweep.ckpt"
    save_checkpoint(path, SweepCheckpoint(4, False, 2, 16))
    size = path.stat().st_size
    assert size > 0 and events == [("fsync", size), ("replace", "sweep.ckpt.tmp")]
    assert load_checkpoint(path) == SweepCheckpoint(4, False, 2, 16)


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "sweep.ckpt"
    path.write_text('{"version": 99, "kind": "sweep"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


MALFORMED_CHECKPOINTS = [
    "garbage",
    '{"version": 1, "kind": "sweep"}',
    '{"version": 2, "kind": "sweep"}',
    "[1]",
    '{"version": 1, "kind": "sweep", "diameter": null, "exclude_trivial": false, '
    '"next_unit": 0, "total_units": 1}',
    '{"version": 1, "kind": "sweep", "diameter": 1e400, "exclude_trivial": false, '
    '"next_unit": 0, "total_units": 1}',
    "",
    '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
    '"next_unit": -1, "total_units": 1}',
    '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
    '"next_unit": 2, "total_units": 1}',
    # wrong JSON types, which int() and bool() would coerce
    '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": "false", '
    '"next_unit": 0, "total_units": 1}',
    '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
    '"next_unit": 1.9, "total_units": 2}',
    '{"version": 1, "kind": "sweep", "diameter": 3, "exclude_trivial": false, '
    '"next_unit": true, "total_units": 2}',
    '{"version": 1, "kind": "sweep", "diameter": 3.7, "exclude_trivial": false, '
    '"next_unit": 0, "total_units": 1}',
]


@pytest.mark.parametrize("text", MALFORMED_CHECKPOINTS, ids=[
    "garbage", "no-fields", "version-2", "list", "null-diameter", "inf-diameter", "empty",
    "negative-next-unit", "next-unit-past-total", "string-exclude-trivial",
    "float-next-unit", "bool-next-unit", "float-diameter"])
def test_malformed_checkpoint_raises_value_error(tmp_path, text):
    path = tmp_path / "sweep.ckpt"
    path.write_text(text)
    with pytest.raises(ValueError, match="sweep checkpoint"):
        load_checkpoint(path)
