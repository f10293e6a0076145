"""Append-only JSONL rule catalog and resumable sweep checkpoints.

Catalog files hold one JSON object per line so that long sweeps can append as
they go and parallel workers' outputs merge by concatenation.  A checkpoint
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
    :func:`revca.rules.rule_from_json`."""
    out = []
    with Path(path).open(encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                # interned keys are shared by every record; decoded anew for
                # each line, they would take about 40% of a record's memory
                record = {sys.intern(k): v for k, v in json.loads(line).items()}
                rule_from_json(record)  # validates the two encodings agree
                out.append(record)
    return out


@dataclass(frozen=True)
class SweepCheckpoint:
    """Progress of an exhaustive sweep: the next work-unit ordinal to run.

    Format on disk: ``{"version": 1, "kind": "sweep", "diameter": D,
    "exclude_trivial": bool, "next_unit": int, "total_units": int}``.
    """

    diameter: int
    exclude_trivial: bool
    next_unit: int = 0
    total_units: int = 0


def save_checkpoint(path: str | Path, cp: SweepCheckpoint) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_suffix(p.suffix + ".tmp")
    tmp.write_text(json.dumps({
        "version": CHECKPOINT_VERSION,
        "kind": "sweep",
        "diameter": cp.diameter,
        "exclude_trivial": cp.exclude_trivial,
        "next_unit": cp.next_unit,
        "total_units": cp.total_units,
    }, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(p)


def load_checkpoint(path: str | Path) -> SweepCheckpoint | None:
    """The checkpoint in ``path``, or None if there is no such file.

    Content that is not a checkpoint of this version raises ``ValueError``.
    """
    p = Path(path)
    if not p.exists():
        return None
    try:
        d = json.loads(p.read_text(encoding="utf-8"))
        if d.get("version") != CHECKPOINT_VERSION or d.get("kind") != "sweep":
            raise ValueError(f"version {d.get('version')!r}, kind {d.get('kind')!r}")
        cp = SweepCheckpoint(
            diameter=int(d["diameter"]),
            exclude_trivial=bool(d["exclude_trivial"]),
            next_unit=int(d["next_unit"]),
            total_units=int(d["total_units"]),
        )
        if not 0 <= cp.next_unit <= cp.total_units:
            raise ValueError(f"next_unit {cp.next_unit} outside 0..{cp.total_units}")
        return cp
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{p} is not a version-{CHECKPOINT_VERSION} sweep checkpoint: {exc!r}") from exc
