"""Compare two sets of benchmark records, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records that ``run.py --out FILE`` appended, typically ten
runs per workload with different seeds.  For each metric the row gives both
medians with their quartiles, the change in the metric's worse direction, the
spread (distance between quartiles as a share of the median, the larger of
the two sides) and the bound from BENCHMARK.json, and a verdict:

* ``better``: every run of the change beats every run of the parent, and the
  medians differ by more than the parent's own spread;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: the spread exceeds the bound, so "no change" cannot be
  claimed;
* ``unchanged``: within the bound, with a spread inside the bound.

Per-layer metrics have no bound; their rows report ``same`` when the values
repeat exactly (counts), and otherwise only ``better``/``worse`` under the
all-runs rule, else ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, from a JSONL file of records."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if not isinstance(rec, dict) or "workload" not in rec:
            continue
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> tuple:
    sign = 1 if better == "lower" else -1
    m_old, m_new = statistics.median(old), statistics.median(new)
    worse_by = sign * (m_new - m_old) / abs(m_old) if m_old else 0.0
    spread = max(relative_spread(old), relative_spread(new)) if min(len(old), len(new)) > 1 \
        else float("inf")
    if len(set(old) | set(new)) == 1:
        return worse_by, spread, "same"
    beats = all(sign * (n - o) < 0 for n in new for o in old)
    if beats and -worse_by > relative_spread(old):
        return worse_by, spread, "better"
    if bound is None:
        loses = all(sign * (n - o) > 0 for n in new for o in old)
        return worse_by, spread, "worse" if loses else "unresolved"
    if worse_by > bound:
        return worse_by, spread, "worse"
    if spread > bound:
        return worse_by, spread, "unresolved"
    return worse_by, spread, "unchanged"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    old, new = load(args.parent), load(args.change)
    print(f"{'workload':<10} {'metric':<44} {'parent median [q1, q3]':>34} "
          f"{'change median':>14} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    regressions = 0
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        for m in metrics[trace]:
            a, b = old[key].get(m["name"]), new[key].get(m["name"])
            if not a or not b:
                continue
            worse_by, spread, v = verdict(a, b, m["better"], m.get("bound"))
            regressions += v == "worse"
            q1, med, q3 = quartiles(a)
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            print(f"{workload:<10} {m['name']:<44} {med:>12.5g} [{q1:.5g}, {q3:.5g}]"
                  f"{statistics.median(b):>14.5g} {worse_by:>+9.3f} {spread:>7.3f} {bound:>6}"
                  f"  {v} ({len(a)} vs {len(b)} runs, {m['unit']})")
    for key in sorted(set(old) ^ set(new)):
        print(f"{key[0]:<10} (trace {key[1]}) present in only one file", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
