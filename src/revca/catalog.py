"""Append-only JSONL rule catalog and resumable sweep checkpoints.

Catalog files hold one JSON object per line so that long sweeps can append as
they go and the outputs of separate runs merge by concatenation.  A checkpoint
file records the next pending work unit of a sweep and carries a version
field.  Both formats are considered stable.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .patterns import InputError
from .rules import rule_from_json

CHECKPOINT_VERSION = 1


def append_entries(path: str | Path, records: list[dict]) -> None:
    """Append rule records (see :func:`revca.rules.rule_to_json`) through one
    writer, one JSON object per line, each stamped with ``created_at``."""
    created_at = datetime.now(timezone.utc).isoformat()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps({**record, "created_at": created_at}, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def read_catalog(path: str | Path) -> list[dict]:
    """The records of a catalog file, each checked by
    :func:`revca.rules.rule_from_json`.  A line that is not a rule record,
    UTF-8 included, raises ``InputError`` naming its line number."""
    out = []
    with Path(path).open("rb") as f:
        for number, line in enumerate(f, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                rule_from_json(record)  # validates the record and its encodings
            except ValueError as exc:
                raise InputError(f"{path}, line {number}: {exc}") from None
            # interned keys are shared by every record; decoded anew for each
            # line, they would take about 40% of a record's memory
            out.append({sys.intern(k): v for k, v in record.items()})
    return out


@dataclass(frozen=True)
class SweepCheckpoint:
    """Progress of an exhaustive sweep: the next work-unit ordinal to run.

    Format on disk: ``{"version": 1, "kind": "sweep", "diameter": D,
    "exclude_trivial": bool, "next_unit": int, "total_units": int}``.
    """

    diameter: int
    exclude_trivial: bool
    next_unit: int
    total_units: int


def save_checkpoint(path: str | Path, cp: SweepCheckpoint) -> None:
    """Write the checkpoint to a temporary file beside ``path``, sync it to
    disk and rename it over ``path``, so that a crash leaves the old
    checkpoint or the new one, never an empty file."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_suffix(p.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        f.write(json.dumps({
            "version": CHECKPOINT_VERSION,
            "kind": "sweep",
            "diameter": cp.diameter,
            "exclude_trivial": cp.exclude_trivial,
            "next_unit": cp.next_unit,
            "total_units": cp.total_units,
        }, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())
    tmp.replace(p)


def load_checkpoint(path: str | Path) -> SweepCheckpoint | None:
    """The checkpoint in ``path``, or None if there is no such file.

    Content that is not a checkpoint of this version raises ``InputError``,
    as does a field of the wrong JSON type: ``diameter``, ``next_unit`` and
    ``total_units`` must be integers and ``exclude_trivial`` a boolean.
    """
    p = Path(path)
    if not p.exists():
        return None
    try:
        d = json.loads(p.read_text(encoding="utf-8"))
        if d.get("version") != CHECKPOINT_VERSION or d.get("kind") != "sweep":
            raise InputError(f"version {d.get('version')!r}, kind {d.get('kind')!r}")
        for name, kind in (("diameter", int), ("exclude_trivial", bool),
                           ("next_unit", int), ("total_units", int)):
            if type(d[name]) is not kind:   # exact: a JSON true is not unit 1
                raise InputError(f"{name} {d[name]!r} is not of type {kind.__name__}")
        cp = SweepCheckpoint(d["diameter"], d["exclude_trivial"], d["next_unit"],
                             d["total_units"])
        if not 0 <= cp.next_unit <= cp.total_units:
            raise InputError(f"next_unit {cp.next_unit} outside 0..{cp.total_units}")
        return cp
    except (AttributeError, KeyError, ValueError) as exc:
        raise InputError(
            f"{p} is not a version-{CHECKPOINT_VERSION} sweep checkpoint: {exc!r}") from exc
