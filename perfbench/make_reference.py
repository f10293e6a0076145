"""Regenerate ``perfbench/reference.json``, the sweep workload's answers.

    python3 perfbench/make_reference.py

Runs the full diameter-4 scan and the full diameter-5 balanced sweep (about
600 M tables, one worker per available core; a few minutes on two cores), then
checks the result against the counts documented in the README: 16 injective
tables at D=4 (8 trivial) and 62 at D=5 (10 trivial + 52 nontrivial), both
closed under output complement, and every table a permutation of all periodic
words up to length 10 by the brute stepper of ``tests/brute.py``.  Pattern and extended-pattern counts for
diameters 1..14 come from the brute stability oracle, not from the package.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import paths  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference.json"
MAX_PATTERN_DIAMETER = 14
# acceptance-suite counts for diameters 3..10
PATTERN_COUNTS_3_10 = (0, 4, 14, 52, 148, 408, 1040, 2556)
EXTENDED_COUNTS_3_10 = (0, 0, 8, 40, 162, 528, 1562, 4268)


def _scan5(block):
    paths.use_checkout(with_oracles=False)
    from revca import injectivity

    return injectivity.scan_unit(5, block)


def _require(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"reference check failed: {what}")


def _check_sweep(found: list[int], d: int, total: int, trivial: int) -> None:
    import brute
    from checks import triviality

    mask = (1 << (1 << d)) - 1
    _require(len(found) == total == len(set(found)), (d, len(found)))
    _require(all(mask ^ w in found for w in found), f"D={d} not complement-closed")
    n_trivial = 0
    for w in found:
        bits = [(w >> v) & 1 for v in range(1 << d)]
        n_trivial += triviality(bits, d) != "nontrivial"
        for n in range(1, 11):
            _require(brute.is_permutation(bits, d, 0, n), (d, w, n))
    _require(n_trivial == trivial, (d, n_trivial))


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    paths.use_checkout()
    from revca import injectivity
    from workloads import cores

    t0 = time.perf_counter()
    counts = {d: len(cores(d)[0]) for d in range(1, MAX_PATTERN_DIAMETER + 1)}
    _require(tuple(counts[d] for d in range(3, 11)) == PATTERN_COUNTS_3_10, counts)
    extended = {d: sum((d - c + 1) * counts[c] for c in range(2, d))
                for d in range(1, MAX_PATTERN_DIAMETER + 1)}
    _require(tuple(extended[d] for d in range(3, 11)) == EXTENDED_COUNTS_3_10, extended)
    print(f"pattern counts {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    d4 = sorted(w for unit in injectivity.sweep_chunks(4)
                for w in injectivity.scan_unit(4, unit))
    _check_sweep(d4, 4, 16, 8)
    print(f"d4 sweep {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    blocks = injectivity.balanced_sweep_blocks(5)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        d5 = sorted(w for found in pool.imap_unordered(_scan5, blocks) for w in found)
    _check_sweep(d5, 5, 62, 10)
    print(f"d5 sweep {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    OUT.write_text(json.dumps({
        "pattern_counts": {str(d): n for d, n in counts.items()},
        "extended_counts": {str(d): n for d, n in extended.items()},
        "d4_injective": d4,
        "d5_injective": d5,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
