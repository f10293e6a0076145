"""Periodic-boundary global map: single steps, trajectories, involution checks.

Configurations are cyclic binary words written as strings, leftmost character
at index 0.  The window feeding cell i spans cells i-anchor .. i-anchor+D-1,
indices wrapped modulo the word length, so words shorter than the diameter
simply wrap multiple times.  Every application of a rule goes through one
vectorized kernel: the window values of a cell matrix, then a gather from the
output bits.
"""

from __future__ import annotations

import numpy as np

from .rules import RuleTable

# Longest period whose 2^n configurations the periodic checks enumerate.
EXHAUSTIVE_BOUND = 20

# Cells handled together in one slice: a periodic check steps this many cells
# of its configurations at a time, and the sweeps' period filter gathers this
# many table-cells at a time.  Working memory scales with this constant, not
# with the period or the number of tables, which keeps peak memory flat.
_SLICE_CELLS = 1 << 16


class ExhaustiveBoundError(ValueError):
    """Requested period exceeds the exhaustive bound; sample instead."""


def _check_word(c: str) -> str:
    if not c or set(c) - {"0", "1"}:
        raise ValueError(f"configuration must be a nonempty binary word: {c!r}")
    return c


def _window_values(cells: np.ndarray, d: int, anchor: int) -> np.ndarray:
    """Window value of every cell of a (configs, n) 0/1 matrix.

    Cell i reads cells i-anchor .. i-anchor+d-1 of its row cyclically, the
    leftmost one as the most significant bit.  Indexing a rule's output bits
    with the result applies the rule; indexing a (T, 2^d) batch of tables
    along its second axis applies every table of the batch.
    """
    n = cells.shape[1]
    # one row per cell position, so that each shift is a contiguous block;
    # doubling stands in for a left shift, which numpy runs far slower
    columns = cells.T[(np.arange(n + d - 1) - anchor) % n]
    values = np.zeros((n, len(cells)), dtype=np.min_scalar_type((1 << d) - 1))
    for t in range(d):
        values += values
        values |= columns[t:t + n]
    return values.T


def batch_step(rt: RuleTable, cells: np.ndarray) -> np.ndarray:
    """Global map applied to a (configs, n) uint8 cell matrix row-wise."""
    bits = np.array(rt.bits, dtype=np.uint8)
    return bits[_window_values(cells, rt.diameter, rt.anchor)]


def step(rt: RuleTable, c: str) -> str:
    """Apply the global map once."""
    cells = np.frombuffer(_check_word(c).encode("ascii"), dtype=np.uint8) - ord("0")
    return (batch_step(rt, cells[None])[0] + ord("0")).tobytes().decode("ascii")


def shift(c: str, k: int) -> str:
    """Cyclic rotation to the right by k (left for negative k)."""
    _check_word(c)
    k %= len(c)
    return c[-k:] + c[:-k] if k else c


def space_time(rt: RuleTable, init: str, steps: int) -> list[str]:
    """Trajectory [init, step(init), ..., step^steps(init)]."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rows = [_check_word(init)]
    for _ in range(steps):
        rows.append(step(rt, rows[-1]))
    return rows


def all_configs(n: int) -> np.ndarray:
    """Cell matrix of every length-n configuration; row index encodes the word."""
    ints = np.arange(1 << n, dtype=np.uint32)
    cells = np.empty((1 << n, n), dtype=np.uint8)
    for i in range(n):  # one column at a time keeps the temporaries at 2^n words
        cells[:, i] = (ints >> i) & 1
    return cells


def pack_configs(cells: np.ndarray) -> np.ndarray:
    """Code of each configuration along the last axis: bit i is cell i."""
    n = cells.shape[-1]
    codes = np.zeros(cells.shape[:-1], dtype=np.min_scalar_type((1 << n) - 1))
    for i in reversed(range(n)):
        codes += codes
        codes |= cells[..., i]
    return codes


def periodic_images(rt: RuleTable, n: int) -> np.ndarray:
    """Packed image of every length-n configuration, indexed by its code."""
    if n < 1:
        raise ValueError("period must be >= 1")
    if n > EXHAUSTIVE_BOUND:
        raise ExhaustiveBoundError(
            f"2^{n} configurations exceed the exhaustive bound {EXHAUSTIVE_BOUND}; "
            "use random sampling for long periods")
    cells = all_configs(n)
    per = max(1, _SLICE_CELLS // n)
    return np.concatenate([pack_configs(batch_step(rt, cells[lo:lo + per]))
                           for lo in range(0, len(cells), per)])


def check_involution(rt: RuleTable, n: int) -> bool:
    """True iff applying the map twice fixes every length-n configuration."""
    images = periodic_images(rt, n)
    return bool((images[images] == np.arange(len(images))).all())
