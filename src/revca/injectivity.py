"""Independent injectivity decision for the global map, with witnesses.

The decision works on the pair graph of the rule's de Bruijn automaton: nodes
are ordered pairs of (D-1)-bit window prefixes, and an edge joins two pairs
when each side can be advanced by one input bit while producing the same
output bit.  The global map fails to be injective exactly when some cycle of
this graph passes through an off-diagonal node (Amoroso & Patt 1972; Sutner
1991).  :func:`decide` tests this for a whole batch of tables at once by
peeling: it strips every node without a live in-edge or without a live
out-edge until nothing changes, and a table is injective iff only diagonal
nodes survive.  Every node on a cycle survives, and the diagonal is a
strongly connected copy of the de Bruijn graph, so a surviving off-diagonal
node always lies on a cycle through an off-diagonal node; the test is exact.
For a rejected table, a shortest cycle through a chosen surviving node yields
two distinct periodic configurations with equal images, returned as the
witness.  The graph has 4^(D-1) nodes, so diameters through 9 are cheap.

Exhaustive rule-space sweeps provide ground truth: every table of a diameter
is scanned at D <= 4; D = 5 is gated behind an explicit flag and prunes the
2^32 tables to the balanced ones (a necessary condition for injectivity) and
then through vectorized small-period permutation filters before the exact
pair-graph decision.  D >= 6 is refused outright.  :class:`Sweep` is the one
driver for both the library and the command line: it checks the request,
lists the work units and scans them in order, on ``REVCA_THREADS`` worker
processes when that is above 1.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import engine
from .rules import RuleTable, from_wolfram, to_wolfram, trivial_tables

LONG_SWEEP_DIAMETER = 5
MAX_SWEEP_DIAMETER = 5


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    witness: tuple[str, str] | None = None

    def __str__(self) -> str:
        if self.injective:
            return "injective"
        w1, w2 = self.witness
        return f"not injective (configurations {w1} and {w2} share an image)"


# ---------------------------------------------------------------------------
# Pair-graph construction and the peeling decision.

# Pair-graph nodes peeled together in one slice of a batch.  The working
# arrays of a pass scale with this, not with the batch size, which keeps the
# peak memory of a 4096-table sweep chunk flat.
_SLICE_NODES = 1 << 12

_EDGE_TEMPLATES: dict[int, tuple[np.ndarray, ...]] = {}


def _edge_template(d: int):
    """Rule-independent edge skeleton of the pair graph for one diameter.

    Arrays (wa, wb, succ, pred_edge, pred): edge 4z + 2b1 + b2 leaves node
    z = u1 * 2^(D-1) + u2 on input bits (b1, b2) and is present exactly when
    the rule gives equal outputs at window values wa and wb.  succ (n, 4)
    holds each node's edge targets in edge order; pred_edge (n, 4) and
    pred (n, 4) hold the indices and sources of the four edges entering it.
    """
    if d not in _EDGE_TEMPLATES:
        v = 1 << (d - 1)
        mask = v - 1
        u1, u2, b1, b2 = np.meshgrid(
            np.arange(v), np.arange(v), np.arange(2), np.arange(2), indexing="ij")
        u1, u2, b1, b2 = (x.ravel() for x in (u1, u2, b1, b2))
        wa = (u1 << 1) | b1
        wb = (u2 << 1) | b2
        dst = ((u1 << 1 | b1) & mask) * v + ((u2 << 1 | b2) & mask)
        pred_edge = np.argsort(dst, kind="stable").reshape(-1, 4)
        _EDGE_TEMPLATES[d] = tuple(
            np.ascontiguousarray(x, dtype=np.intp)
            for x in (wa, wb, dst.reshape(-1, 4), pred_edge, pred_edge >> 2))
    return _EDGE_TEMPLATES[d]


def _any4(x: np.ndarray) -> np.ndarray:
    """Any over the last axis, of length 4, of a C-contiguous bool array:
    the four adjacent bytes are read as one uint32."""
    return x.view(np.uint32)[..., 0] != 0


def _peel(d: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(edges, alive) of the equal-output pair graphs of a (T, 2^d) batch.

    edges (T, n, 4) marks the template edges present in each table's graph,
    by source node; alive (T, n) marks the nodes left after repeatedly
    stripping every node without a live in-edge or without a live out-edge.
    Tables drop out of the loop once a pass leaves them unchanged.
    """
    wa, wb, succ, pred_edge, pred = _edge_template(d)
    edges = bits[:, wa] == bits[:, wb]
    entering = edges.take(pred_edge, axis=1)
    edges = edges.reshape(len(bits), -1, 4)
    alive = np.ones(edges.shape[:2], dtype=bool)
    rows = np.arange(len(bits))
    while rows.size:
        a = alive[rows]
        peeled = (_any4(edges[rows] & a.take(succ, axis=1))
                  & _any4(entering[rows] & a.take(pred, axis=1)))
        changed = (peeled != a).any(axis=1)
        alive[rows] = peeled
        rows = rows[changed]
    return edges, alive


def _off_diagonal(d: int) -> np.ndarray:
    v = 1 << (d - 1)
    return np.arange(v * v) // v != np.arange(v * v) % v


def decide(d: int, tables) -> np.ndarray:
    """Injectivity of the global map of each row of a (T, 2^d) 0/1 array.

    A 1-D array of 2^d bits is a batch of one.  At d = 1 the map is
    injective iff the two outputs differ.  From d = 2 on, a rule is
    injective iff peeling its equal-output pair graph leaves only diagonal
    nodes (see :func:`debruijn_injective`).  The batch is peeled in slices of
    at most ``_SLICE_NODES`` pair-graph nodes.
    """
    bits = np.asarray(tables, dtype=np.uint8)
    if bits.ndim == 1:
        bits = bits[None]
    if bits.ndim != 2 or bits.shape[1] != 1 << d:
        raise ValueError(f"need a (T, {1 << d}) array of output bits, got shape {bits.shape}")
    if d == 1:
        return bits[:, 0] != bits[:, 1]
    off = _off_diagonal(d)
    step = max(1, _SLICE_NODES >> (2 * (d - 1)))
    out = np.empty(len(bits), dtype=bool)
    for lo in range(0, len(bits), step):
        _, alive = _peel(d, bits[lo:lo + step])
        out[lo:lo + step] = ~(alive & off).any(axis=1)
    return out


def _wolfram_bits(d: int, tables: np.ndarray) -> np.ndarray:
    """(T, 2^d) output bits of an array of Wolfram numbers (d <= 6)."""
    octets = tables.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :1 << d]


def _shortest_cycle(d: int, indptr: list[int], targets: list[int], z: int):
    """Two distinct equal-image periodic words from a shortest cycle through
    z, or None when no cycle passes through z."""
    v_count = 1 << (d - 1)
    parent: dict[int, int] = {}
    frontier = deque([z])
    while frontier and z not in parent:
        u = frontier.popleft()
        for w in targets[indptr[u]:indptr[u + 1]]:
            if w not in parent:
                parent[w] = u
                frontier.append(w)
    if z not in parent:
        return None
    # reconstruct z -> ... -> z
    path = [z]
    u = parent[z]
    while u != z:
        path.append(u)
        u = parent[u]
    path.append(z)
    path.reverse()
    # the bit consumed on each edge is the low bit of the successor's prefix
    c1 = "".join(str((node // v_count) & 1) for node in path[1:])
    c2 = "".join(str((node % v_count) & 1) for node in path[1:])
    return c1, c2


def _witness(d: int, edges: np.ndarray, alive: np.ndarray) -> tuple[str, str]:
    """Witness of a rejected table, from its peeled pair graph (edges, alive).

    The cycle runs through the smallest off-diagonal node with a self-loop
    if there is one (a length-1 witness), else through the smallest surviving
    off-diagonal node that lies on a cycle.
    """
    _, _, succ, _, _ = _edge_template(d)
    live = edges & alive[succ] & alive[:, None]
    nodes = np.arange(len(succ))
    off = _off_diagonal(d)
    looped = nodes[off & (live & (succ == nodes[:, None])).any(axis=1)]
    candidates = looped[:1] if looped.size else nodes[off & alive]
    indptr = np.zeros(len(succ) + 1, dtype=np.intp)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    indptr, targets = indptr.tolist(), succ[live].tolist()
    for z in candidates.tolist():
        witness = _shortest_cycle(d, indptr, targets, z)
        if witness is not None:
            return witness
    raise AssertionError("rejected table without a cycle through an off-diagonal node")


def debruijn_injective(rt: RuleTable) -> InjectivityVerdict:
    """Decide injectivity of the global map; witnesses accompany rejections.

    The decision is that of :func:`decide`, on a batch of one.  It peels the
    equal-output pair graph: nodes without a live in-edge or out-edge are
    stripped until none is left, and the rule is injective iff only diagonal
    nodes survive.  This is exact.  A rule fails to be injective iff some
    cycle passes through an off-diagonal node, and every node on a cycle
    survives.  Conversely, the diagonal is a copy of the de Bruijn graph and
    strongly connected, so from a surviving off-diagonal node, walking live
    edges forward and backward reaches cycles, and either one of them holds
    an off-diagonal node or both lie in the diagonal, which closes a cycle
    through the starting node.

    Only a rejection builds a witness, from the surviving edges: a shortest
    cycle through the smallest off-diagonal node with a self-loop, else
    through the smallest surviving off-diagonal node on a cycle.  Its two
    words are distinct and have equal images.  The verdict covers periodic
    configurations of every length at once, and by the standard
    periodic/unbounded correspondence the unbounded lattice as well.  Witness
    length never exceeds the pair-graph node count.  At diameter 1 the pair
    graph has a single node and the rule is injective iff its two outputs
    differ.
    """
    d = rt.diameter
    if d == 1:
        return InjectivityVerdict(True) if rt.bits[0] != rt.bits[1] \
            else InjectivityVerdict(False, ("0", "1"))
    edges, alive = _peel(d, np.asarray(rt.bits, dtype=np.uint8)[None])
    if not (alive[0] & _off_diagonal(d)).any():
        return InjectivityVerdict(True)
    return InjectivityVerdict(False, _witness(d, edges[0], alive[0]))


# ---------------------------------------------------------------------------
# Periodic permutation checks.

def periodic_bijective(rt: RuleTable, n: int) -> bool:
    """True iff the map permutes all 2^n configurations of length n."""
    images = engine.periodic_images(rt, n)
    seen = np.zeros(len(images), dtype=bool)
    seen[images] = True
    return bool(seen.all())


# ---------------------------------------------------------------------------
# Exhaustive rule-space sweeps.

# Tables in one work unit of a full-table sweep (D <= 4).
_CHUNK_TABLES = 1 << 12

# Periods of the permutation filters a balanced table must pass before the
# exact decision (D = 5).
_FILTER_PERIODS = (4, 5, 6)


def _trivial_wolframs(d: int) -> frozenset[int]:
    return frozenset(to_wolfram(t) for t in trivial_tables(d))


def sweep_chunks(diameter: int) -> list[tuple[int, int]]:
    """Ordered [lo, hi) index ranges of ``_CHUNK_TABLES`` tables partitioning
    the full-table scan."""
    total = 1 << (1 << diameter)
    return [(lo, min(lo + _CHUNK_TABLES, total)) for lo in range(0, total, _CHUNK_TABLES)]


def scan_chunk(diameter: int, lo: int, hi: int) -> list[int]:
    """Wolfram numbers in [lo, hi) whose global map is injective, ascending."""
    tables = np.arange(lo, hi, dtype=np.uint64)
    return [int(w) for w in tables[decide(diameter, _wolfram_bits(diameter, tables))]]


_MASK_CACHE: dict[int, list[np.ndarray]] = {}


def _masks_by_popcount(width: int) -> list[np.ndarray]:
    if width not in _MASK_CACHE:
        by: list[list[int]] = [[] for _ in range(width + 1)]
        for m in range(1 << width):
            by[bin(m).count("1")].append(m)
        _MASK_CACHE[width] = [np.asarray(v, dtype=np.uint64) for v in by]
    return _MASK_CACHE[width]


_WV_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _permutes_period(tables: np.ndarray, d: int, n: int) -> np.ndarray:
    """Boolean mask of tables that permute all length-n configurations.

    Vectorized over a whole batch of table integers; used as a cheap
    necessary-condition filter ahead of the exact decision.  The anchor does
    not matter here, so the window values are those of anchor 0.
    """
    if n > 8:
        raise ValueError("vectorized permutation filter supports periods <= 8")
    key = (d, n)
    if key not in _WV_CACHE:
        _WV_CACHE[key] = engine._window_values(engine.all_configs(n), d, 0)
    wv = _WV_CACHE[key]
    per = max(1, engine._SLICE_CELLS // wv.size)
    out = np.empty(len(tables), dtype=bool)
    for lo in range(0, len(tables), per):
        # tables on the last axis, so that each step runs on contiguous rows
        bits = np.ascontiguousarray(_wolfram_bits(d, tables[lo:lo + per]).T)
        images = engine.pack_configs(np.moveaxis(bits[wv.T], 0, -1))
        seen = np.zeros(images.shape, dtype=bool)
        seen[images, np.arange(images.shape[1])] = True
        out[lo:lo + per] = seen.all(axis=0)
    return out


def balanced_sweep_blocks(diameter: int) -> list[tuple[int, int, int]]:
    """Ordered work blocks (ones_in_upper_half, slice_start, slice_stop) for
    the balanced-table sweep of one diameter."""
    width = 1 << (diameter - 1)
    by = _masks_by_popcount(width)
    blocks = []
    for j in range(width + 1):
        ups, los = by[j], by[width - j]
        step_u = max(1, (4 << 20) // los.size)
        for s in range(0, ups.size, step_u):
            blocks.append((j, s, min(s + step_u, ups.size)))
    return blocks


def scan_balanced_block(diameter: int, block: tuple[int, int, int]) -> list[int]:
    """Injective Wolfram numbers within one balanced-sweep block.

    Balance and small-period permutation are necessary conditions, so the
    prefilters cannot drop an injective table; survivors get the exact
    pair-graph decision.
    """
    width = 1 << (diameter - 1)
    j, s, e = block
    by = _masks_by_popcount(width)
    ups = by[j][s:e]
    los = by[width - j]
    tables = ((ups[:, None] << np.uint64(width)) | los[None, :]).ravel()
    for n in _FILTER_PERIODS:
        if not tables.size:
            break
        tables = tables[_permutes_period(tables, diameter, n)]
    tables = np.sort(tables)
    return [int(w) for w in tables[decide(diameter, _wolfram_bits(diameter, tables))]]


def scan_unit(diameter: int, unit) -> list[int]:
    """Dispatch one sweep work unit; picklable, for worker pools."""
    if diameter < LONG_SWEEP_DIAMETER:
        lo, hi = unit
        return scan_chunk(diameter, lo, hi)
    return scan_balanced_block(diameter, unit)


def _sweep_workers() -> int:
    """Worker processes for a sweep: ``REVCA_THREADS`` (default 1), capped at
    the number of cores this process may run on."""
    text = os.environ.get("REVCA_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"REVCA_THREADS must be a positive integer, got {text!r}")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(workers, cores)


class Sweep:
    """The exhaustive sweep of one diameter, as an ordered list of work units.

    Construction checks the request and raises ``ValueError`` for a diameter
    below 1 or above ``MAX_SWEEP_DIAMETER``, for a long sweep (diameter
    ``LONG_SWEEP_DIAMETER`` and up) without ``allow_long``, and for a bad
    ``REVCA_THREADS``.  Units are the index ranges of :func:`sweep_chunks`
    below the long diameter and the blocks of :func:`balanced_sweep_blocks`
    from it on.
    """

    def __init__(self, diameter: int, exclude_trivial: bool = False,
                 allow_long: bool = False) -> None:
        if diameter < 1:
            raise ValueError(f"exhaustive sweep needs diameter >= 1, got {diameter}")
        if diameter > MAX_SWEEP_DIAMETER:
            raise ValueError(
                f"exhaustive sweep refused for diameter {diameter}: "
                f"2^(2^{diameter}) tables are out of reach")
        if diameter >= LONG_SWEEP_DIAMETER and not allow_long:
            raise ValueError(
                f"diameter {diameter} sweep is long-running; pass --allow-long "
                "(allow_long=True)")
        self.diameter = diameter
        self.units = (sweep_chunks(diameter) if diameter < LONG_SWEEP_DIAMETER
                      else balanced_sweep_blocks(diameter))
        self.workers = _sweep_workers()
        self._skip = _trivial_wolframs(diameter) if exclude_trivial else frozenset()

    def run(self, start: int = 0) -> Iterator[list[int]]:
        """Injective Wolfram numbers of each unit from ``start`` on, in unit
        order: one ascending list per unit, trivial tables left out if asked."""
        scan = functools.partial(scan_unit, self.diameter)
        pending = self.units[start:]
        with contextlib.ExitStack() as stack:
            results = map(scan, pending)
            if self.workers > 1 and len(pending) > 1:
                pool = stack.enter_context(
                    multiprocessing.get_context("spawn").Pool(self.workers))
                results = pool.imap(scan, pending, chunksize=1)
            for found in results:
                yield [w for w in found if w not in self._skip]


def exhaustive_injective(diameter: int, exclude_trivial: bool = False,
                         allow_long: bool = False) -> Iterator[RuleTable]:
    """Every rule table of one diameter whose global map is injective.

    Tables stream in ascending Wolfram order.  Diameter 5 scans the 601M
    balanced tables and must be requested explicitly with ``allow_long``;
    diameters above 5 are refused as infeasible (see :class:`Sweep`).
    """
    found = (w for unit in Sweep(diameter, exclude_trivial, allow_long).run() for w in unit)
    if diameter >= LONG_SWEEP_DIAMETER:
        found = sorted(found)   # balanced blocks do not follow Wolfram order
    for w in found:
        yield from_wolfram(diameter, w)
