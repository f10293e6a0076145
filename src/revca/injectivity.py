"""Independent injectivity decision for the global map, with witnesses.

The decision works on the pair graph of the rule's de Bruijn automaton: nodes
are ordered pairs of (D-1)-bit window prefixes, and an edge joins two pairs
when each side can be advanced by one input bit while producing the same
output bit.  The global map fails to be injective exactly when some cycle of
this graph passes through an off-diagonal node (Amoroso & Patt 1972; Sutner
1991).  :func:`debruijn_injective` tests this one table at a time by
peeling: strip every node without a live in-edge or without a live out-edge
until nothing changes; a table is injective iff only diagonal nodes survive.
That is exact: every node on a cycle survives, and from a surviving
off-diagonal node live edges lead forward and backward to cycles, one of
them through an off-diagonal node, or both in the diagonal (a strongly
connected copy of the de Bruijn graph), which closes a cycle through it.
The peel starts from few nodes: only those with a path of six edges out and
one of six edges in, which two masks per state, of the six-output words
that the windows after it and before it produce, find with two ANDs per
node.  Every surviving node has paths of every length both ways, so that
start holds all of them.  The start's nodes, each with its successors
among them (successors only), are the one graph of a table: the peel
gathers over those lists for the out-edges and scatters from them for the
in-edges.  For a rejected table the same strip, on out-edges alone with
the diagonal left out, finds an off-diagonal node on a cycle: one on a
cycle of off-diagonal nodes if any node remains, else any off-diagonal
survivor, whose paths both ways reach the diagonal.  A shortest cycle
through it, searched on the same successor lists, yields two distinct
periodic configurations with equal images, returned as the witness.  The
whole graph has 4^(D-1) nodes, so ``MAX_DECISION_DIAMETER`` (12) is the
largest diameter decided.

Exhaustive rule-space sweeps provide ground truth.  Every sweep unit runs one
chain of necessary conditions for injectivity before the exact decision, on
pairs of table halves: balance (equal 0/1 output counts); permutation of the
words of periods 3 and 4, and with them those of periods 1 and 2, as a lookup
on one key per half (the bits the words read: 10 of each 16-bit half at
D = 5, the whole half at D <= 4); then permutation of the words of periods
5, 6 and 7.  What depends only on the diameter or on a popcount class is
built once and cached; what a unit decides is never cached.  The tables
are listed in blocks of balanced tables, each block as the pairs of halves
whose keys pass.  At D = 5 a unit is one block.  At D <= 4 a unit is a
range of Wolfram numbers; the chain runs once per diameter over every
block, and a unit decides the survivors in its range.  The period filters
are lookups too: the map commutes with rotation, so it permutes the words
of length n iff the images of one word per necklace (rotation class) fall
in pairwise distinct necklaces.  The images' codes are the OR of one
tabulated row per byte of a table (a limb), and so of one row per half.
One function, :func:`_permutes_pairs`, tests a period on pairs of half
rows: it tabulates the half keys, and it is the period-5 stage.  Per
popcount class, the halves keep their limb indices and period-5 rows, the
lower ones sorted by key, the upper ones with their keys, of which a block
takes a slice; periods 6 and 7 OR the limb rows of the few survivors'
cached limb indices.  Wolfram numbers are built only for the tables left
for the decision.  D >= 6 is refused outright.
:func:`sweep_units` lists the work units of a diameter and :func:`scan_unit`
scans one; the library and the command line both scan them in order, in the
calling process.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import engine
from .patterns import InputError
from .rules import RuleTable, from_wolfram

MAX_SWEEP_DIAMETER = 5
LONG_SWEEP_DIAMETER = MAX_SWEEP_DIAMETER   # the old name, read by perfbench/tracing.py
# Largest diameter the pair-graph decision takes: 4^(D-1) nodes.  At this
# diameter ``induce --verify`` peaks at about 51 MB, and ``verify`` of a
# random table, whose start holds most nodes, at 0.13 GB (the peel's
# successor lists).
MAX_DECISION_DIAMETER = 12


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    witness: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# Pair-graph construction and the peeling decision.

def _check_decision_diameter(d: int) -> None:
    """Refuse a pair graph above ``MAX_DECISION_DIAMETER`` before anything
    is allocated."""
    if d > MAX_DECISION_DIAMETER:
        raise InputError(f"diameter {d} above {MAX_DECISION_DIAMETER}, the limit of the "
                         "injectivity decision")


# Outputs in the words of the peel's start set (see :func:`_start`): the
# set of k-output words is a 2^k-bit mask, one uint64 at k = 6.
_WORD_STEPS = 6

# Pair-graph nodes that :func:`_start` compares, and :func:`_peel` lists
# and strips, at once: 512 kB of uint64 masks, all the nodes up to D = 9;
# about 90 bytes a node, near 6 MB, of temporaries of :func:`_edges`.
_EDGE_NODES = 1 << 16


@functools.cache
def _step_windows(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(windows, states): the two windows that step from each (d-1)-cell
    state, and the state each one leads to, as (2^d, 2) arrays.  The
    forward rows come first: window p·y, leading to (2p + y) mod 2^(d-1).
    Backward row 2^(d-1) + p holds window x·p, leading to backward row
    2^(d-1) + (x 2^(d-1) + p) / 2, rounded down.  uint16 holds every index
    up to ``MAX_DECISION_DIAMETER``: 32 kB cached at D = 12."""
    half = 1 << (d - 1)
    states = np.arange(half)
    after = 2 * states[:, None] + np.arange(2)
    before = states[:, None] + np.arange(0, 2 * half, half)
    return (np.concatenate((after, before)).astype(np.uint16),
            np.concatenate((after % half, half + (before >> 1))).astype(np.uint16))


def _reach_masks(d: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward): for each (d-1)-cell state p, as a uint64 mask,
    the words of ``_WORD_STEPS`` outputs that the windows after p, and the
    windows before p, can produce; word w is bit w.

    Step j puts one more window in front of the words: the masks of the
    state it leads to, shifted by its output times 2^j, so the window next
    to p gives the top bit.  Both directions step as one array, the rows of
    :func:`_step_windows`.  Shift operands are uint64 on both sides: numpy 1
    turns uint64 with int64 into float, which has no shift.
    """
    windows, states_next = _step_windows(d)
    shifts = (bits.take(windows).astype(np.uint64)
              << np.arange(_WORD_STEPS, dtype=np.uint64)[:, None, None])
    mask = np.ones(len(windows), dtype=np.uint64)
    words = np.empty(windows.shape, dtype=np.uint64)
    for shift in shifts:
        np.left_shift(mask.take(states_next), shift, out=words)
        np.bitwise_or(words[:, 0], words[:, 1], out=mask)
    half = len(mask) // 2
    return mask[:half], mask[half:]


def _start(d: int, bits: np.ndarray) -> np.ndarray:
    """The nodes the peel of one table (2^d output bits) starts from, as a
    (2^(d-1), 2^(d-1)) bool array: the nodes (p1, p2) with a path of
    ``_WORD_STEPS`` edges out and one of ``_WORD_STEPS`` edges in.

    A path of k edges out is a k-output word that both states' continuations
    produce, so it exists iff their forward masks of :func:`_reach_masks`
    meet, and a path in iff their backward masks do.  The peel keeps the
    largest set of nodes that each have an edge in and one out, so paths of
    every length both ways: it lies in this set, and the peel from here ends
    on the same survivors.  A diagonal node meets its own masks.  The masks
    are compared in slices of ``_EDGE_NODES`` nodes.
    """
    forward, backward = _reach_masks(d, bits)
    half = len(forward)
    alive = np.empty((half, half), dtype=bool)
    rows = max(1, _EDGE_NODES >> (d - 1))
    meet = np.empty((min(rows, half), half), dtype=np.uint64)
    for lo in range(0, half, rows):
        block, part = alive[lo:lo + rows], meet[:min(rows, half - lo)]
        np.bitwise_and(forward[lo:lo + rows, None], forward, out=part)
        np.not_equal(part, 0, out=block)
        np.bitwise_and(backward[lo:lo + rows, None], backward, out=part)
        block &= part != 0
    return alive


class _Graph(NamedTuple):
    """One table's pair graph on the nodes of :func:`_start`, peeled.

    nodes: the node numbers p1 * 2^(d-1) + p2, ascending (int32).  succ:
    (4, n) int32, column i the positions in nodes of the successors
    (2 p1 + b1, 2 p2 + b2) mod 2^(d-1) of node i for (b1, b2) = 00, 01, 10,
    11, or -1 for an edge of unequal outputs or out of the start; None when
    the start is the diagonal alone.  alive: n + 1 bools, the survivors,
    then the False that -1 reads.
    """
    nodes: np.ndarray
    succ: np.ndarray | None
    alive: np.ndarray


# The input bit b of the two windows that step from a state, as a column.
_BIT = np.array([[0], [1]], dtype=np.int32)


def _edges(d: int, bits: np.ndarray, nodes: np.ndarray, position: np.ndarray) -> np.ndarray:
    """(4, len(nodes)) positions, as :class:`_Graph` holds them, of the
    successors of each node, the only edges listed; position[v] is that of
    node v, or -1.  A state p steps by its windows p·b to (p·b) mod
    2^(d-1); the four edges pair a step of p1 with one of p2."""
    half = 1 << (d - 1)
    p1, p2 = nodes >> (d - 1), nodes & (half - 1)
    w1, w2 = (p1 << 1) | _BIT, (p2 << 1) | _BIT
    edges = position.take(((w1 & (half - 1)) * half)[:, None] + (w2 & (half - 1)))
    edges[bits.take(w1)[:, None] != bits.take(w2)] = -1
    return edges.reshape(4, -1)


def _strip(alive: np.ndarray, succ: np.ndarray, inward: bool) -> None:
    """Strip from alive, as :class:`_Graph` holds it, the nodes without a
    live successor in succ (successors only, (4, n) positions) and, if
    inward, those that no live node reaches, pass by pass, until a pass
    strips none.  A pass gathers the successors' flags and strips in column
    slices of ``_EDGE_NODES`` nodes (a 2 MB intp index each); inward, each
    slice then scatters its live nodes' successors into a reached flag per
    node, slot n taking the -1 entries, and the pass strips the unreached
    after the slices.  Stripping is monotone, so the order does not change
    the end."""
    before, nodes = None, alive[:-1]
    reached = np.empty_like(alive) if inward else None
    while (count := np.count_nonzero(alive)) != before:
        before = count
        if inward:
            reached.fill(False)
        for lo in range(0, len(nodes), _EDGE_NODES):
            edges, live = succ[:, lo:lo + _EDGE_NODES], nodes[lo:lo + _EDGE_NODES]
            live &= np.logical_or.reduce(alive.take(edges))
            if inward:
                reached[np.where(live, edges, -1)] = True
        if inward:
            nodes &= reached[:-1]


def _peel(d: int, bits: np.ndarray) -> _Graph:
    """The pair graph of one table (2^d output bits) on the nodes of
    :func:`_start`, peeled.

    Successors only are listed, as in :class:`_Graph`, in slices of
    ``_EDGE_NODES`` nodes.  :func:`_strip` strips the nodes without a live
    successor or without a live node reaching them until a pass strips
    none; the diagonal's nodes keep their diagonal edges.  A start of the
    diagonal alone (always at d = 1) lists no edge.
    """
    half = 1 << (d - 1)
    start = _start(d, bits)
    nodes = np.flatnonzero(start).astype(np.int32)
    n = len(nodes)
    alive = np.ones(n + 1, dtype=bool)
    alive[n] = False
    if n == half:
        return _Graph(nodes, None, alive)
    position = np.full(start.size, -1, dtype=np.int32)
    position[nodes] = np.arange(n, dtype=np.int32)
    del start
    succ = np.empty((4, n), dtype=np.int32)
    for lo in range(0, n, _EDGE_NODES):
        part = slice(lo, lo + _EDGE_NODES)
        succ[:, part] = _edges(d, bits, nodes[part], position)
    del position
    _strip(alive, succ, True)
    return _Graph(nodes, succ, alive)


def _shortest_cycle(d: int, graph: _Graph, z: int) -> tuple[str, str]:
    """Two distinct equal-image periodic words from a shortest cycle through
    node z (a position in graph.nodes) of a rejected table's graph, by a
    breadth-first search over the survivors and their live successors, each
    node's in the order of their input bits.  z is not marked, so the
    search ends when it meets z again.  The parents (-1 unmet) are an int32
    array over the graph's nodes and the frontier an ``array`` of the nodes
    met, so a search that meets most nodes stays below the peel's peak."""
    n = len(graph.nodes)
    succ, alive = memoryview(graph.succ.reshape(-1)), memoryview(graph.alive)
    parent, frontier = memoryview(np.full(n, -1, dtype=np.int32)), array("i", [z])
    for u in frontier:   # the loop reads the nodes appended while it runs
        for w in succ[u::n]:
            if alive[w] and parent[w] < 0:
                parent[w] = u
                frontier.append(w)
        if parent[z] >= 0:
            break
    else:
        raise AssertionError("rejected table without a cycle through its witness node")
    path, u = [z], parent[z]
    while u != z:
        path.append(u)
        u = parent[u]
    # path runs back from z; each edge consumes the low bit of its head's prefixes
    u1, u2 = np.divmod(graph.nodes.take(path[::-1]), 1 << (d - 1))
    return "".join(map(str, (u1 & 1).tolist())), "".join(map(str, (u2 & 1).tolist()))


def _witness(d: int, graph: _Graph) -> tuple[str, str]:
    """Witness of a rejected table, from its graph of :func:`_peel`: a
    shortest cycle through a surviving off-diagonal node z on a cycle.

    The off-diagonal survivors are stripped, by :func:`_strip`, of the nodes
    without a live successor among them.  If nodes remain, each has one, so
    a walk from the smallest along its first live successor in the order of
    input bits repeats a node, and z is that node: it lies on a cycle of
    off-diagonal nodes.  If none remain, every off-diagonal survivor has
    paths forward and backward to the diagonal, which is strongly connected,
    so each lies on a cycle, and z is the smallest.  The table has
    f(0^d) != f(1^d), so z has no self-loop.
    """
    n = len(graph.nodes)
    u1, u2 = np.divmod(graph.nodes, 1 << (d - 1))
    alive = graph.alive.copy()
    alive[:-1][u1 == u2] = False
    _strip(alive, graph.succ, False)
    if alive.any():
        succ, left = memoryview(graph.succ.reshape(-1)), memoryview(alive)
        z, seen = int(alive.argmax()), set()
        while z not in seen:
            seen.add(z)
            z = next(w for w in succ[z::n] if left[w])
    else:
        z = int(np.argmax(graph.alive[:-1] & (u1 != u2)))
    return _shortest_cycle(d, graph, z)


def debruijn_injective(rt: RuleTable) -> InjectivityVerdict:
    """Decide injectivity of the global map; witnesses accompany rejections.

    A table with f(0^D) = f(1^D) is settled before any array is built: its
    node (0^(D-1), 1^(D-1)) loops to itself, so it is not injective, with
    the witness ``0``, ``1`` (at D = 1, where that node is the diagonal one,
    this test is the whole decision).  Any other table is peeled by
    :func:`_peel`, and a rejection's witness is
    searched on the same graph by :func:`_witness`: a shortest cycle through
    a surviving off-diagonal node on a cycle, two distinct words with equal
    images, no longer than the pair graph has nodes.  The verdict covers
    periodic configurations of every length at once, and by the standard
    periodic/unbounded correspondence the unbounded lattice as well.  A
    diameter above ``MAX_DECISION_DIAMETER`` raises ``InputError`` before
    the graph is built.
    """
    d = rt.diameter
    _check_decision_diameter(d)
    bits = rt.bits
    if bits[0] == bits[-1]:
        return InjectivityVerdict(False, ("0", "1"))
    graph = _peel(d, bits)
    if np.count_nonzero(graph.alive) == 1 << (d - 1):
        return InjectivityVerdict(True)
    return InjectivityVerdict(False, _witness(d, graph))


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

# Periods of the permutation filters that a table passing the half keys must
# pass before the exact decision.
_FILTER_PERIODS = (5, 6, 7)


def sweep_chunks(diameter: int) -> list[tuple[int, int]]:
    """Ordered [lo, hi) index ranges of ``_CHUNK_TABLES`` tables partitioning
    the full-table scan."""
    total = 1 << (1 << diameter)
    return [(lo, min(lo + _CHUNK_TABLES, total)) for lo in range(0, total, _CHUNK_TABLES)]


@functools.cache
def _masks_by_popcount(width: int) -> list[np.ndarray]:
    """The width-bit values with k bits set, ascending, for k = 0..width."""
    masks = np.arange(1 << width, dtype=np.uint64)
    # np.bitwise_count needs numpy 2
    ones = np.unpackbits(masks[:, None].view(np.uint8), axis=1).sum(axis=1)
    return [masks[ones == k] for k in range(width + 1)]


@functools.cache
def _necklaces(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, hit) for the length-n words (cell i is bit i).

    The representatives are the smallest code of each rotation class
    (necklace), ascending; hit[code] is ``1 << k`` for the k-th class, in
    the smallest unsigned type that holds all of them (n <= 8: 36 classes).
    """
    codes = np.arange(1 << n)
    smallest, turned = codes.copy(), codes
    for _ in range(n - 1):
        turned = (turned >> 1) | ((turned & 1) << (n - 1))
        np.minimum(smallest, turned, out=smallest)
    reps, k = np.unique(smallest, return_inverse=True)
    dtype = np.min_scalar_type((1 << len(reps)) - 1)
    return reps, np.left_shift(1, k.astype(dtype), dtype=dtype)


def _rep_windows(d: int, n: int) -> np.ndarray:
    """(necklaces, n) window values (anchor 0) that cell i of each necklace
    representative reads at diameter d.  The rotations of a word read the
    same windows, so the representatives read every window the length-n
    words read."""
    return engine._window_values(engine.all_configs(n)[_necklaces(n)[0]], d, 0)


# Bits of a lane: the packed image codes of one group of necklace
# representatives, and so the size of the lookup that turns a lane into its
# necklaces.  Four lanes share one uint64 word of a row of codes.
_GROUP_BITS = 16

# Bits of a limb: each half of a table splits into limbs of at most this many
# bits, each with its own lookup of code contributions.
_LIMB_BITS = 8


@functools.cache
def _period_lookups(d: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(groups, codes, necklaces) for the period-n filter at diameter d.

    The necklace representatives split into ``groups`` groups of at most
    ``_GROUP_BITS // n``, the last one padded with copies of the last
    representative.  A group's image codes pack into one lane, representative
    p in bits p*n .. p*n+n-1, and lane g is uint16 g of a row of uint64
    words.  A table's bits split into limbs of ``_LIMB_BITS`` bits (its whole
    halves below D = 5), and codes[limb * 2^width + v] is the row that limb
    number ``limb`` of value v contributes: the bits of the cells whose
    windows lie in that limb and read a 1 there.  Each cell reads one window
    and each window lies in one limb, so a table's row is the OR of its
    limbs' rows.  necklaces[c] is the OR of the one-hot necklaces of the
    codes packed in lane value c, so a padded copy sets nothing new.
    """
    if not 1 <= n <= 8:
        raise InputError(f"the period filter takes periods 1..8, got {n}")
    reps, hit = _necklaces(n)
    windows = _rep_windows(d, n)
    groups = -(-len(reps) // (_GROUP_BITS // n))
    size = -(-len(reps) // groups)
    members = np.minimum(np.arange(groups * size), len(reps) - 1).reshape(groups, size)
    # cell[v, g]: the bits that a 1 at window value v sets in lane g
    cell = np.zeros((1 << d, -(-groups // 4) * 4), dtype=np.uint16)
    for (g, p), r in np.ndenumerate(members):
        for i, v in enumerate(windows[r].tolist()):
            cell[v, g] |= 1 << (p * n + i)
    width = min(1 << (d - 1), _LIMB_BITS)
    codes = np.zeros(((1 << d) // width, 1 << width, cell.shape[1]), dtype=np.uint16)
    for limb, table in enumerate(codes):
        for b in range(width):   # the values with top bit b: those below, plus bit b
            np.bitwise_or(table[:1 << b], cell[limb * width + b],
                          out=table[1 << b:2 << b])
    packed = np.arange(1 << (size * n))
    necklaces = functools.reduce(np.bitwise_or, (hit[(packed >> (p * n)) & ((1 << n) - 1)]
                                                 for p in range(size)))
    return groups, codes.reshape(-1, cell.shape[1]).view(np.uint64), necklaces


def _limb_index(d: int, halves: np.ndarray, first: int) -> np.ndarray:
    """Rows into the limb lookups of :func:`_period_lookups` for halves
    number ``first`` (0 lower, 1 upper) of tables at diameter d, from their
    values (a 1-D uint64 array): one row per limb, a byte of a half, and one
    column per half, as uint16 (the largest row, 2,047 at D = 6, fits)."""
    limbs = max(1, (1 << (d - 1)) // _LIMB_BITS)
    width = min(1 << (d - 1), _LIMB_BITS)
    octets = halves.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    # copied before the cast: numpy casts strided bytes several times slower
    index = np.ascontiguousarray(octets[:, :limbs].T).astype(np.uint16)
    index += (np.arange(first * limbs, (first + 1) * limbs, dtype=np.uint16) << width)[:, None]
    return index


def _rows(d: int, n: int, index: np.ndarray) -> np.ndarray:
    """(T, words) rows of packed period-n codes: the OR of the limb rows
    that each column of a :func:`_limb_index` array picks."""
    return np.bitwise_or.reduce(_period_lookups(d, n)[1].take(index, axis=0), axis=0)


def _covers(d: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Whether each row of packed period-n codes hits every necklace."""
    groups, _, necklaces = _period_lookups(d, n)
    lanes = rows.view(np.uint16).T[:groups]
    return np.bitwise_or.reduce(necklaces.take(lanes), axis=0) == (1 << len(_necklaces(n)[0])) - 1


def _permutes_pairs(d: int, n: int, lower_rows: np.ndarray, upper_rows: np.ndarray,
                    lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Mask of the tables, table i with the lower half of row lo[i] of
    lower_rows and the upper half of row up[i] of upper_rows, that permute
    all length-n words; the rows are each half's packed period-n codes (see
    :func:`_rows`).

    A necessary-condition filter ahead of the exact decision, on bits, never
    on a cell matrix.  The map commutes with rotation, so it sends necklaces
    onto necklaces, and a necklace's image is no larger than the necklace.
    It therefore permutes the 2^n words iff the images of the necklace
    representatives lie in pairwise distinct necklaces: then the necklace
    map is a bijection, the sizes add up to 2^n on both sides, and each
    necklace maps onto one of its own size.  A table's codes are the OR of
    its halves' rows, their necklaces one lookup per lane, and the table
    permutes the words iff the ORed necklaces are all of them
    (:func:`_covers`).  Slices hold ``engine._SLICE_CELLS`` (group, table)
    pairs.  The anchor does not matter here, so the windows are those of
    anchor 0.
    """
    per = max(1, engine._SLICE_CELLS // _period_lookups(d, n)[0])
    out = np.empty(lo.size, dtype=bool)
    for s in range(0, lo.size, per):
        rows = lower_rows.take(lo[s:s + per], axis=0)
        rows |= upper_rows.take(up[s:s + per], axis=0)
        out[s:s + per] = _covers(d, n, rows)
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


# The periods whose filters are one lookup on the halves of a table.  Their
# words include those of periods 1 and 2 (a map that permutes the words of
# length n permutes those of every period dividing n), and at D = 5 they read
# 10 window values in each half: period 4 reads 8, period 3 two more.
_KEY_PERIODS = (3, 4)


def _pack(halves: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Key of each half of a table (uint64 array): its bits at positions,
    the first one lowest."""
    key = np.zeros(halves.shape, dtype=np.intp)
    for k, p in enumerate(positions.tolist()):
        key |= ((halves >> np.uint64(p)) & np.uint64(1)).astype(np.intp) << k
    return key


def _unpack(positions: np.ndarray) -> np.ndarray:
    """The half with each key, in key order, its other bits 0: the inverse
    of :func:`_pack`."""
    bits = (np.arange(1 << positions.size)[:, None] >> np.arange(positions.size)) & 1
    return np.bitwise_or.reduce(bits.astype(np.uint64) << positions.astype(np.uint64), axis=1)


def _window_bits(diameter: int, periods: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the bit positions in the lower and the upper half of
    a table that the words of the given periods read, ascending."""
    width = 1 << (diameter - 1)
    windows = np.concatenate([_rep_windows(diameter, n).ravel() for n in periods])
    values = np.flatnonzero(np.bincount(windows))
    return values[values < width], values[values >= width] - width


@functools.cache
def _half_keys(diameter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, passes): the bit positions in the lower and the upper
    half of a table that the words of the ``_KEY_PERIODS`` read, and
    passes[upper key, lower key], whether the tables with those keys permute
    the words of each of those periods.

    The filters read nothing else.  Each period's test is a function of its
    own window bits alone, so its matrix is tabulated by
    :func:`_permutes_pairs` on every pair of the halves that hold its own
    keys, other bits 0 (16 x 16 for period 3 and 256 x 256 for period 4 at
    D = 5), spread over the combined keys by a ``take`` on each axis,
    and passes is the AND of the periods' matrices: 1024 x 1024 at D = 5,
    and at D = 4, where the length-4 words read every window, 256 x 256.
    """
    lower, upper = _window_bits(diameter, _KEY_PERIODS)
    ups, los = _unpack(upper), _unpack(lower)
    passes = np.ones((ups.size, los.size), dtype=bool)
    for n in _KEY_PERIODS:
        own_lower, own_upper = _window_bits(diameter, (n,))
        rows = [_rows(diameter, n, _limb_index(diameter, _unpack(bits), first))
                for first, bits in enumerate((own_lower, own_upper))]
        shape = (len(rows[1]), len(rows[0]))
        up, lo = (a.ravel() for a in np.indices(shape))
        own = _permutes_pairs(diameter, n, *rows, lo, up).reshape(shape)
        passes &= own.take(_pack(ups, own_upper), axis=0).take(_pack(los, own_lower), axis=1)
    return lower, upper, passes


class _Halves(NamedTuple):
    """Halves of tables as the filter chain reads them: their values (uint64),
    their :func:`_limb_index` columns (uint16, one column per half) and their
    rows of codes at the first of the ``_FILTER_PERIODS``."""
    values: np.ndarray
    index: np.ndarray
    codes: np.ndarray


def _halves(diameter: int, values: np.ndarray, first: int) -> _Halves:
    index = _limb_index(diameter, values, first)
    return _Halves(values, index, _rows(diameter, _FILTER_PERIODS[0], index))


@functools.cache
def _lower_halves(diameter: int, ones: int) -> tuple[_Halves, np.ndarray, np.ndarray]:
    """(halves, starts, runs): the lower halves with ``ones`` set bits
    ordered by key, as :class:`_Halves` (limb index 4 bytes and period-5 row
    8 bytes a half at D = 5); where the run of each key begins in them (one
    more entry than keys, for the end: 1,025 at D = 5); and the length of
    each run."""
    values = _masks_by_popcount(1 << (diameter - 1))[ones]
    lower = _half_keys(diameter)[0]
    keys = _pack(values, lower)
    order = np.argsort(keys, kind="stable")
    starts = np.searchsorted(keys[order], np.arange((1 << lower.size) + 1))
    return _halves(diameter, values[order], 0), starts, np.diff(starts)


@functools.cache
def _upper_halves(diameter: int, ones: int) -> tuple[np.ndarray, _Halves]:
    """(keys, halves): the key (uint16) of each upper half with ``ones`` set
    bits, and those halves as :class:`_Halves`, in ascending order of value,
    as the blocks of :func:`balanced_sweep_blocks` slice them."""
    values = _masks_by_popcount(1 << (diameter - 1))[ones]
    return (_pack(values, _half_keys(diameter)[1]).astype(np.uint16),
            _halves(diameter, values, 1))


def _block_pairs(diameter: int, block: tuple[int, int, int]):
    """(lower, upper, pairs) of :func:`_chain` for the tables of one
    balanced-sweep block that permute the words of periods 3 and 4 (and so
    those of periods 1 and 2), unordered.

    A block's tables are the products of its upper halves (window values
    with a leading 1) and the lower halves of the complementary popcount,
    those of :func:`_lower_halves`.  Whether a product passes is
    passes[upper key, lower key] of :func:`_half_keys`, so only the passing
    pairs are listed: each upper half is paired with the runs of lower
    halves whose keys pass with its own, by one ragged ``repeat``/``arange``
    (a key with an empty run repeats nothing).  The upper halves are slices
    of the per-class :func:`_upper_halves`.  No table is built.
    """
    width = 1 << (diameter - 1)
    j, s, e = block
    lower, starts, runs = _lower_halves(diameter, width - j)
    keys, upper = _upper_halves(diameter, j)
    upper = _Halves(upper.values[s:e], upper.index[:, s:e], upper.codes[s:e])
    # flatnonzero, not nonzero: numpy finds 2-D indices several times slower
    passing = np.flatnonzero(_half_keys(diameter)[2][keys[s:e]])
    up, key = np.divmod(passing, runs.size)
    size = runs[key]
    ends = np.cumsum(size)
    lo = np.repeat(starts[key] - (ends - size), size)
    lo += np.arange(lo.size)
    return lower, upper, (lo, np.repeat(up, size))


def _chain(diameter: int, lower: _Halves, upper: _Halves,
           pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Wolfram numbers, ascending (uint64), of the tables that permute the
    words of periods 5, 6 and 7, among tables that are balanced and permute
    those of periods 1 to 4: the tail of every sweep unit's filter chain.

    Table i has the lower half lower.values[pairs[0][i]] and the upper half
    upper.values[pairs[1][i]].  The period-5 filter is :func:`_permutes_pairs`
    on the halves' cached rows of codes.  The later filters carry the pair
    indices of the survivors and gather their limb-index columns once: a
    survivor's row is the OR of its limbs' rows, tested by :func:`_covers`.
    Permutation of the words of these periods is,
    like the rest, a necessary condition, so no filter drops an injective
    table.  Only the tables left at the end are built as Wolfram numbers,
    and a stage that leaves nothing ends the chain.
    """
    first, *rest = _FILTER_PERIODS
    lo, up = pairs
    keep = np.flatnonzero(_permutes_pairs(diameter, first, lower.codes, upper.codes, lo, up))
    if not keep.size:
        return np.empty(0, dtype=np.uint64)
    lo, up = lo.take(keep), up.take(keep)
    index = np.concatenate((lower.index.take(lo, axis=1),
                            upper.index.take(up, axis=1))).astype(np.intp)
    for n in rest:
        keep = np.flatnonzero(_covers(diameter, n, _rows(diameter, n, index)))
        if not keep.size:
            return np.empty(0, dtype=np.uint64)
        lo, up, index = lo.take(keep), up.take(keep), index.take(keep, axis=1)
    return np.sort((upper.values.take(up) << np.uint64(1 << (diameter - 1)))
                   | lower.values.take(lo))


def _decide_tables(diameter: int, tables: np.ndarray) -> list[int]:
    """The injective ones of an array of Wolfram numbers, each decided by
    :func:`debruijn_injective`, in the same order."""
    return [w for w in tables.tolist()
            if debruijn_injective(from_wolfram(diameter, w)).injective]


@functools.cache
def _chain_survivors(diameter: int) -> np.ndarray:
    """The Wolfram numbers, ascending (uint64), of all the tables of a
    diameter below ``MAX_SWEEP_DIAMETER`` that pass the filter chain, listed
    as at D = 5: :func:`_block_pairs` (balance and the words of periods 1 to
    4), then :func:`_chain` (periods 5, 6 and 7), on every block of
    :func:`balanced_sweep_blocks`.  544 tables pass the keys at D = 4 and 16
    the chain."""
    return np.sort(np.concatenate([_chain(diameter, *_block_pairs(diameter, block))
                                   for block in balanced_sweep_blocks(diameter)]))


def _check_sweep_diameter(diameter: int) -> None:
    """Refuse a sweep outside 1..``MAX_SWEEP_DIAMETER`` before anything is
    allocated."""
    if diameter < 1:
        raise InputError(f"exhaustive sweep needs diameter >= 1, got {diameter}")
    if diameter > MAX_SWEEP_DIAMETER:
        raise InputError(
            f"exhaustive sweep refused for diameter {diameter}: "
            f"2^(2^{diameter}) tables are out of reach")


def sweep_units(diameter: int) -> list:
    """The exhaustive sweep of one diameter as an ordered list of work units:
    the ranges of :func:`sweep_chunks` below ``MAX_SWEEP_DIAMETER``, else
    the blocks of :func:`balanced_sweep_blocks`.  A diameter outside
    1..``MAX_SWEEP_DIAMETER`` raises ``InputError``."""
    _check_sweep_diameter(diameter)
    if diameter < MAX_SWEEP_DIAMETER:
        return sweep_chunks(diameter)
    return balanced_sweep_blocks(diameter)


def scan_unit(diameter: int, unit) -> list[int]:
    """Injective Wolfram numbers of one sweep work unit, ascending.

    Below ``MAX_SWEEP_DIAMETER`` a unit is a range [lo, hi) of Wolfram
    numbers, aligned to :func:`sweep_chunks` or not.  The chain is a
    function of the table alone, so it runs once per diameter
    (:func:`_chain_survivors`), and the unit decides the survivors in its
    range.  From that diameter on a unit is a block of
    :func:`balanced_sweep_blocks`: balance holds by construction, periods 1
    to 4 are a lookup on the keys of the block's halves (see
    :func:`_block_pairs`), and :func:`_chain` and the decision do the rest.
    A diameter outside 1..``MAX_SWEEP_DIAMETER`` raises ``InputError``.
    """
    _check_sweep_diameter(diameter)
    if diameter < MAX_SWEEP_DIAMETER:
        lo, hi = unit
        survivors = _chain_survivors(diameter)
        a, b = np.searchsorted(survivors, np.array((lo, hi), dtype=np.uint64))
        return _decide_tables(diameter, survivors[a:b])
    return _decide_tables(diameter, _chain(diameter, *_block_pairs(diameter, unit)))


def exhaustive_injective(diameter: int) -> list[RuleTable]:
    """Every rule table of one diameter whose global map is injective, in
    ascending Wolfram order.  Diameter 5 scans the 601M balanced tables; a
    diameter outside 1..``MAX_SWEEP_DIAMETER`` raises ``InputError``."""
    found = sorted(w for unit in sweep_units(diameter) for w in scan_unit(diameter, unit))
    return [from_wolfram(diameter, w) for w in found]
