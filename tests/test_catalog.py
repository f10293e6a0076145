import json

import pytest

from revca.catalog import (
    SweepCheckpoint,
    append_entries,
    load_checkpoint,
    read_catalog,
    save_checkpoint,
)
from revca.patterns import build_mixture
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
]


@pytest.mark.parametrize("text", MALFORMED_CHECKPOINTS, ids=[
    "garbage", "no-fields", "version-2", "list", "null-diameter", "inf-diameter", "empty",
    "negative-next-unit", "next-unit-past-total"])
def test_malformed_checkpoint_raises_value_error(tmp_path, text):
    path = tmp_path / "sweep.ckpt"
    path.write_text(text)
    with pytest.raises(ValueError, match="sweep checkpoint"):
        load_checkpoint(path)
