"""Independent injectivity decision for the global map, with witnesses.

The decision works on the pair graph of the rule's de Bruijn automaton: nodes
are ordered pairs of (D-1)-bit window prefixes, and an edge joins two pairs
when each side can be advanced by one input bit while producing the same
output bit.  The global map fails to be injective exactly when some cycle of
this graph passes through an off-diagonal node (Amoroso & Patt 1972; Sutner
1991).  :func:`decide` tests this for a whole batch of tables at once by
peeling: it strips every node without a live in-edge or without a live
out-edge until nothing changes, and a table is injective iff only diagonal
nodes survive.  That is exact: every node on a cycle survives, and from a
surviving off-diagonal node live edges lead forward and backward to cycles,
one of them through an off-diagonal node, or both in the diagonal (a strongly
connected copy of the de Bruijn graph), which closes a cycle through it.
For a rejected table, a shortest cycle through a chosen surviving node yields
two distinct periodic configurations with equal images, returned as the
witness.  The graph has 4^(D-1) nodes, so diameters through 9 are cheap and
``MAX_DECISION_DIAMETER`` (12) is the largest one decided.

Exhaustive rule-space sweeps provide ground truth.  Every sweep unit runs one
chain of necessary conditions for injectivity before the exact decision, on
pairs of table halves: balance (equal 0/1 output counts); permutation of the
words of periods 3 and 4, and with them those of periods 1 and 2, as a lookup
on one key per half (the bits the words read: 10 of each 16-bit half at
D = 5, the whole half at D <= 4); then permutation of the words of periods
5, 6 and 7.  What depends only on the diameter or on a popcount class is
built once and cached; what a unit decides is never cached.  At D <= 4 a
unit is a range of Wolfram numbers, and the key lookup implies balance
there; the chain runs once per diameter over every table, and a unit
decides the survivors in its range.  At D = 5 a unit is a block of
balanced tables that lists only the pairs of halves whose keys pass.  The
period filters are lookups too: the map commutes with rotation, so it
permutes the words of length n iff the images of one word per necklace
(rotation class) fall in pairwise distinct necklaces.  The images' codes
are the OR of one tabulated row per byte of a table (a limb), and so of one
row per half.  Per popcount class, the lower halves keep their period-5
rows and limb indices and the upper halves their keys and limb indices;
periods 6 and 7 run on the few survivors' limb indices.  Wolfram numbers
are built only for the tables left for the decision.  D >= 6 is refused
outright.
:func:`sweep_units` lists the work units of a diameter and :func:`scan_unit`
scans one; the library and the command line both scan them in order, in the
calling process.
"""

from __future__ import annotations

import functools
from array import array
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import engine
from .rules import RuleTable, classify_trivial, from_wolfram

MAX_SWEEP_DIAMETER = 5
LONG_SWEEP_DIAMETER = MAX_SWEEP_DIAMETER   # the old name, read by perfbench/tracing.py
# Largest diameter the pair-graph decision takes: 4^(D-1) nodes.  At this
# diameter ``induce --verify`` peaks at about 82 MB, and ``verify`` of a
# table with most nodes left after the peel at about 0.4 GB (the witness).
MAX_DECISION_DIAMETER = 12


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    witness: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# Pair-graph construction and the peeling decision.

# Pair-graph nodes peeled together in one slice of a batch (64 tables at
# D = 4, one from D = 7).  The working arrays of a pass, 13 bytes a node,
# scale with this, not with the batch size, so below D = 8 a batch of any
# length (every D = 4 table at once, say) peels in slices of about 53 kB.
# Sweep units send only the handful of tables left by their chain.
_SLICE_NODES = 1 << 12


def _check_decision_diameter(d: int) -> None:
    """Refuse a pair graph above ``MAX_DECISION_DIAMETER`` before anything
    is allocated."""
    if d > MAX_DECISION_DIAMETER:
        raise ValueError(f"diameter {d} above {MAX_DECISION_DIAMETER}, the limit of the "
                         "injectivity decision")


def _peel(d: int, bits: np.ndarray) -> np.ndarray:
    """Surviving nodes of the equal-output pair graphs of a (T, 2^d) batch,
    d >= 2, as a (4^(d-1), T) bool array: row p1 * 2^(d-1) + p2, table last.

    An edge is a window pair with equal outputs.  Split a window as (x, l, y):
    its top cell, its d-2 middle cells and its low cell.  The pair
    (x1 l1 y1, x2 l2 y2) leads from node (x1 l1, x2 l2) to node
    (l1 y1, l2 y2).  So one contiguous array holds every edge: the outer
    equality of each table's outputs, [x1, l1, y1][x2, l2, y2], as uint16
    words holding both values of y2.  A pass ANDs it with the nodes read as
    [l1 y1][l2 y2], words too, and ORs the y1 halves: the nonzero words are
    the nodes [x1 l1][x2 l2] with a live out-edge.  Then it ANDs it with the
    nodes [x1 l1][x2 l2], each byte twice in a word, and ORs the x1 and x2
    halves: the bytes are the nodes [l1 y1][l2 y2] with a live in-edge.  No
    gather, copy or strided pass touches the equality.  The loop stops once
    a pass leaves the number alive unchanged, or leaves only the diagonals.
    A diagonal node (u, u) keeps its edges to and from diagonal nodes (those
    with y1 = y2 and x1 = x2), so no pass strips it, and T diagonals of
    2^(d-1) nodes are the end.
    """
    h = 1 << (d - 2)
    t = len(bits)
    eq = (bits[:, :, None] == bits[:, None, :]).view(np.uint16).reshape(t, 2, h, 2, 2, h)
    words = np.empty_like(eq)
    alive = np.ones((t, 2 * h, 2 * h), dtype=bool)
    far = alive.view(np.uint16).reshape(t, 1, h, 2, 1, h)
    near = alive.view(np.uint8).reshape(t, 2, h, 1, 2, h)
    twice, ored = np.empty(near.shape, np.uint16), np.empty(t << (2 * d - 2), np.uint16)
    out_edge, in_edge = ored.reshape(t, 2, h, 2, h), ored[:t * 2 * h * h].reshape(t, h, 2, h)
    out_alive, in_alive = out_edge.reshape(alive.shape), in_edge.view(bool).reshape(alive.shape)
    y1, x1 = (words[:, :, :, 0], words[:, :, :, 1]), (words[:, 0], words[:, 1])
    x2 = x1[0][:, :, :, 0], x1[0][:, :, :, 1]
    count, diagonals = alive.size, t << (d - 1)
    while True:
        np.bitwise_and(eq, far, out=words)
        np.bitwise_or(*y1, out=out_edge)
        np.logical_and(alive, out_alive, out=alive)
        np.multiply(near, np.uint16(0x0101), out=twice)
        np.bitwise_and(eq, twice, out=words)
        np.bitwise_or(*x1, out=x1[0])
        np.bitwise_or(*x2, out=in_edge)
        alive &= in_alive
        now = np.count_nonzero(alive)
        if now in (count, diagonals):
            return alive.reshape(t, -1).T
        count = now


def decide(d: int, tables) -> np.ndarray:
    """Injectivity of the global map of each row of a (T, 2^d) 0/1 array.

    A 1-D array of 2^d bits is a batch of one.  At d = 1 the map is
    injective iff the two outputs differ.  From d = 2 on, a rule is
    injective iff peeling its equal-output pair graph leaves only diagonal
    nodes (see the module docstring).  The diagonal, a copy of the de
    Bruijn graph, always survives, so that is a count of 2^(d-1) survivors.
    The batch is peeled in slices of at most ``_SLICE_NODES`` pair-graph
    nodes.  A diameter above ``MAX_DECISION_DIAMETER`` raises ``ValueError``.
    """
    _check_decision_diameter(d)
    bits = np.asarray(tables, dtype=np.uint8)
    if bits.ndim == 1:
        bits = bits[None]
    if bits.ndim != 2 or bits.shape[1] != 1 << d:
        raise ValueError(f"need a (T, {1 << d}) array of output bits, got shape {bits.shape}")
    if d == 1:
        return bits[:, 0] != bits[:, 1]
    step = max(1, _SLICE_NODES >> (2 * (d - 1)))
    out = np.empty(len(bits), dtype=bool)
    for lo in range(0, len(bits), step):
        alive = _peel(d, bits[lo:lo + step])
        out[lo:lo + step] = np.count_nonzero(alive, axis=0) == 1 << (d - 1)
    return out


def _wolfram_bits(d: int, tables: np.ndarray) -> np.ndarray:
    """(T, 2^d) output bits of an array of Wolfram numbers (d <= 6)."""
    octets = tables.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :1 << d]


class _Cycles:
    """Which nodes of a graph lie on a cycle, by Tarjan's strong components,
    iterative, one search root at a time; the successors of node v are
    targets[indptr[v]:indptr[v + 1]].

    Once the search from a root ends, every node it reached has
    ``index[v] >= 0`` and its component, and ``cyclic[v]`` says whether it
    lies on a cycle: whether its component has two or more nodes or it has
    a self-loop.  A reached node reaches only reached nodes.
    """

    def __init__(self, indptr: Sequence[int], targets: Sequence[int]) -> None:
        n = len(indptr) - 1
        self.indptr, self.targets = indptr, targets
        self.index = array("i", [-1]) * n
        self.cyclic = bytearray(n)
        self._low = array("i", [0]) * n
        self._on_stack = bytearray(n)
        self._counter = 0

    def search(self, root: int) -> None:
        """Find the components of every node reachable from an unreached
        root."""
        indptr, targets = self.indptr, self.targets
        index, low, on_stack, cyclic = self.index, self._low, self._on_stack, self.cyclic
        counter = self._counter
        index[root] = low[root] = counter
        counter += 1
        stack = [root]
        on_stack[root] = True
        work = [(root, indptr[root])]
        while work:
            v, i = work[-1]
            end = indptr[v + 1]
            while i < end:
                w = targets[i]
                i += 1
                if index[w] < 0:   # descend; v resumes at edge i
                    work[-1] = (v, i)
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, indptr[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:   # v roots a component: pop it
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        cyclic[v] = v in targets[indptr[v]:end]
                        continue
                    cyclic[w] = True
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        cyclic[w] = True
        self._counter = counter


def _shortest_cycle(d: int, nodes: Sequence[int], indptr: Sequence[int],
                    targets: Sequence[int], z: int, skip: Sequence[int] | None = None):
    """Two distinct equal-image periodic words from a shortest cycle through
    nodes[z], or None when no cycle passes through it; indptr and targets
    hold the successors of each node by its index in nodes.  Nodes w with
    ``skip[w] >= 0`` are left out of the search: they must be nodes that
    cannot reach z, so the cycle found is the same."""
    v_count = 1 << (d - 1)
    parent: dict[int, int] = {}
    frontier = deque([z])
    while frontier and z not in parent:
        u = frontier.popleft()
        for w in targets[indptr[u]:indptr[u + 1]]:
            if w not in parent and (skip is None or skip[w] < 0):
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
    c1 = "".join(str((nodes[i] // v_count) & 1) for i in path[1:])
    c2 = "".join(str((nodes[i] % v_count) & 1) for i in path[1:])
    return c1, c2


def _witness(d: int, bits: np.ndarray, alive: np.ndarray) -> tuple[str, str]:
    """Witness of a rejected table, from its 2^d output bits and the nodes
    that survive its peel.

    Only surviving nodes and their live edges enter the search.  The cycle
    runs through the smallest off-diagonal node with a self-loop if there is
    one (a length-1 witness), else through the smallest surviving
    off-diagonal node that lies on a cycle.  Successors are searched in the
    order of their input bits (b1, b2).  Candidates are tried in ascending
    order.  A breadth-first search from a candidate that no earlier search
    reached leaves out the nodes those searches reached, which cannot reach
    it; when it finds no cycle, a search for strong components from the
    candidate settles every node it reaches, so a later candidate among
    them needs no search unless it lies on a cycle.
    """
    if bits[0] == bits[-1]:   # f(0^d) = f(1^d): node (0^(d-1), 1^(d-1)) loops to itself
        return "0", "1"
    half = 1 << (d - 1)
    nodes = np.flatnonzero(alive).astype(np.int32)
    u1, u2 = np.divmod(nodes, np.int32(half))
    wa = (u1[:, None] << 1) | np.array([0, 0, 1, 1], dtype=np.int32)
    wb = (u2[:, None] << 1) | np.array([0, 1, 0, 1], dtype=np.int32)
    succ = (wa % half) * half + wb % half
    live = (bits[wa] == bits[wb]) & alive[succ]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(live.sum(axis=1), out=indptr[1:])
    targets = np.searchsorted(nodes, succ[live]).astype(np.int32)
    nodes, indptr, targets = (memoryview(a) for a in (nodes, indptr, targets))
    cycles = None   # made when the first search finds no cycle
    for z in np.flatnonzero(u1 != u2).tolist():
        if cycles is not None and cycles.index[z] >= 0:
            if cycles.cyclic[z]:
                return _shortest_cycle(d, nodes, indptr, targets, z)
            continue
        witness = _shortest_cycle(d, nodes, indptr, targets, z,
                                  None if cycles is None else cycles.index)
        if witness is not None:
            return witness
        if cycles is None:
            cycles = _Cycles(indptr, targets)
        cycles.search(z)
    raise AssertionError("rejected table without a cycle through an off-diagonal node")


def debruijn_injective(rt: RuleTable) -> InjectivityVerdict:
    """Decide injectivity of the global map; witnesses accompany rejections.

    The decision is that of :func:`decide`, on a batch of one: the rule is
    injective iff peeling its equal-output pair graph leaves only diagonal
    nodes, which is exact (see the module docstring).

    Only a rejection builds a witness, from the output bits and the
    surviving nodes alone: a shortest cycle through the smallest
    off-diagonal node with a self-loop, else through the smallest surviving
    off-diagonal node on a cycle.  Its two words are distinct and have equal
    images.  The verdict covers periodic configurations of every length at
    once, and by the standard periodic/unbounded correspondence the
    unbounded lattice as well.  Witness length never exceeds the pair-graph
    node count.  At diameter 1 the pair graph has a single node and the rule
    is injective iff its two outputs differ.  A diameter above
    ``MAX_DECISION_DIAMETER`` raises ``ValueError`` before the graph is
    built.
    """
    d = rt.diameter
    _check_decision_diameter(d)
    bits = rt.bits
    if d == 1:
        return InjectivityVerdict(True) if bits[0] != bits[1] \
            else InjectivityVerdict(False, ("0", "1"))
    alive = _peel(d, bits[None])[:, 0]
    if np.count_nonzero(alive) == 1 << (d - 1):
        return InjectivityVerdict(True)
    return InjectivityVerdict(False, _witness(d, bits, alive))


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
        raise ValueError(f"the period filter takes periods 1..8, got {n}")
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


def _limb_index(d: int, halves: np.ndarray, first: int = 0) -> np.ndarray:
    """Rows into the limb lookups of :func:`_period_lookups` for tables at
    diameter d, from the halves in an (H, T) uint64 array, which are halves
    number first .. first + H - 1 of each table (0 lower, 1 upper): one row
    per limb, a byte of a half, and one column per table, as uint16 (the
    largest row, 2,047 at D = 6, fits)."""
    limbs = max(1, (1 << (d - 1)) // _LIMB_BITS)
    width = min(1 << (d - 1), _LIMB_BITS)
    octets = halves.astype("<u8", copy=False).view(np.uint8).reshape(*halves.shape, 8)
    # copied before the cast: numpy casts strided bytes several times slower
    index = np.ascontiguousarray(octets[..., :limbs].transpose(0, 2, 1)).astype(np.uint16)
    index = index.reshape(len(halves) * limbs, halves.shape[1])
    index += (np.arange(first * limbs, (first + len(halves)) * limbs, dtype=np.uint16)
              << width)[:, None]
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


def _permutes_pairs(d: int, n: int, halves: np.ndarray) -> np.ndarray:
    """Mask of the tables (D <= 6) that permute all length-n words, given
    as the columns (lower half, upper half) of a (2, T) uint64 array.

    A necessary-condition filter ahead of the exact decision, on bits, never
    on a cell matrix.  The map commutes with rotation, so it sends necklaces
    onto necklaces, and a necklace's image is no larger than the necklace.
    It therefore permutes the 2^n words iff the images of the necklace
    representatives lie in pairwise distinct necklaces: then the necklace
    map is a bijection, the sizes add up to 2^n on both sides, and each
    necklace maps onto one of its own size.  The images' codes are the OR of
    the rows of the halves' limbs (see :func:`_rows`), their necklaces
    one lookup per lane, and the table permutes the words iff the ORed
    necklaces are all of them.  Slices hold ``engine._SLICE_CELLS`` (group,
    table) pairs.  The anchor does not matter here, so the windows are those
    of anchor 0.
    """
    per = max(1, engine._SLICE_CELLS // _period_lookups(d, n)[0])
    out = np.empty(halves.shape[1], dtype=bool)
    for lo in range(0, len(out), per):
        out[lo:lo + per] = _covers(d, n, _rows(d, n, _limb_index(d, halves[:, lo:lo + per])))
    return out


def _permutes_period(tables: np.ndarray, d: int, n: int) -> np.ndarray:
    """Mask of the Wolfram numbers (D <= 6) that permute all length-n words:
    :func:`_permutes_pairs` on their halves."""
    width = 1 << (d - 1)
    return _permutes_pairs(d, n, np.stack((tables & np.uint64((1 << width) - 1),
                                           tables >> np.uint64(width))))


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
    own window bits alone, so its matrix is tabulated from one probe table
    per pair of its own keys (16 x 16 for period 3 and 256 x 256 for period
    4 at D = 5), spread over the combined keys by a ``take`` on each axis,
    and passes is the AND of the periods' matrices: 1024 x 1024 at D = 5,
    and at D = 4, where the length-4 words read every window, 256 x 256.
    """
    width = 1 << (diameter - 1)
    lower, upper = _window_bits(diameter, _KEY_PERIODS)
    ups, los = _unpack(upper), _unpack(lower)
    passes = np.ones((ups.size, los.size), dtype=bool)
    for n in _KEY_PERIODS:
        own_lower, own_upper = _window_bits(diameter, (n,))
        probes = (_unpack(own_upper)[:, None] << np.uint64(width)) | _unpack(own_lower)[None, :]
        own = _permutes_period(probes.ravel(), diameter, n).reshape(probes.shape)
        passes &= own.take(_pack(ups, own_upper), axis=0).take(_pack(los, own_lower), axis=1)
    return lower, upper, passes


class _Halves(NamedTuple):
    """Halves of tables as the filter chain reads them: their values (uint64),
    their :func:`_limb_index` columns (uint16, one column per half) and their
    rows of codes at the first of the ``_FILTER_PERIODS``."""
    values: np.ndarray
    index: np.ndarray
    codes: np.ndarray


def _halves(diameter: int, values: np.ndarray, index: np.ndarray) -> _Halves:
    return _Halves(values, index, _rows(diameter, _FILTER_PERIODS[0], index))


@functools.cache
def _lower_halves(diameter: int, ones: int) -> tuple[_Halves, np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """(halves, starts, runs, nonempty): the lower halves with ``ones`` set
    bits ordered by key, with their limb index (4 bytes a half at D = 5) and
    period-5 rows (8 bytes a half); where the run of each key begins in them
    (one more entry than keys, for the end: 1,025 at D = 5); the length of
    each run; and whether it is not empty."""
    values = _masks_by_popcount(1 << (diameter - 1))[ones]
    lower = _half_keys(diameter)[0]
    keys = _pack(values, lower)
    order = np.argsort(keys, kind="stable")
    starts = np.searchsorted(keys[order], np.arange((1 << lower.size) + 1))
    values = values[order]
    runs = np.diff(starts)
    return _halves(diameter, values, _limb_index(diameter, values[None])), starts, runs, runs > 0


@functools.cache
def _upper_halves(diameter: int, ones: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, index): the key (uint16) and the limb index (uint16, 4 bytes a
    half at D = 5) of each upper half with ``ones`` set bits, in ascending
    order of value, as the blocks of :func:`balanced_sweep_blocks` slice
    them."""
    values = _masks_by_popcount(1 << (diameter - 1))[ones]
    return (_pack(values, _half_keys(diameter)[1]).astype(np.uint16),
            _limb_index(diameter, values[None], 1))


def _block_pairs(diameter: int, block: tuple[int, int, int]):
    """(lower, upper, pairs) of :func:`_chain` for the tables of one
    balanced-sweep block that permute the words of periods 3 and 4 (and so
    those of periods 1 and 2), unordered.

    A block's tables are the products of its upper halves (window values
    with a leading 1) and the lower halves of the complementary popcount,
    those of :func:`_lower_halves`.  Whether a product passes is
    passes[upper key, lower key] of :func:`_half_keys`, so only the passing
    pairs are listed: each upper half is paired with the runs of lower
    halves whose keys pass with its own, by one ragged ``repeat``/``arange``.
    The upper halves' keys and limb index are slices of the per-class
    :func:`_upper_halves`, and their period-5 rows are one ``take`` and one
    OR of that index.  No table is built.
    """
    width = 1 << (diameter - 1)
    j, s, e = block
    lower, starts, runs, nonempty = _lower_halves(diameter, width - j)
    keys, index = (a[..., s:e] for a in _upper_halves(diameter, j))
    # flatnonzero, not nonzero: numpy finds 2-D indices several times slower
    passing = np.flatnonzero(_half_keys(diameter)[2][keys] & nonempty)
    up, key = np.divmod(passing, runs.size)
    size = runs[key]
    ends = np.cumsum(size)
    lo = np.repeat(starts[key] - (ends - size), size)
    lo += np.arange(lo.size)
    upper = _halves(diameter, _masks_by_popcount(width)[j][s:e], index)
    return lower, upper, (lo, np.repeat(up, size))


def _chain(diameter: int, lower: _Halves, upper: _Halves,
           pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Wolfram numbers, ascending (uint64), of the tables that permute the
    words of periods 5, 6 and 7, among tables that are balanced and permute
    those of periods 1 to 4: the tail of every sweep unit's filter chain.

    Table i has the lower half lower.values[pairs[0][i]] and the upper half
    upper.values[pairs[1][i]].  The period-5 filter ORs one gathered row of
    codes of each half, in slices of ``engine._SLICE_CELLS`` (group, table)
    pairs.  The later filters carry the pair indices of the survivors and
    gather their limb-index columns once, for the test of
    :func:`_permutes_pairs`.  Permutation of the words of these periods is,
    like the rest, a necessary condition, so no filter drops an injective
    table.  Only the tables left at the end are built as Wolfram numbers,
    and a stage that leaves nothing ends the chain.
    """
    first, *rest = _FILTER_PERIODS
    lo, up = pairs
    per = max(1, engine._SLICE_CELLS // _period_lookups(diameter, first)[0])
    passed = np.empty(lo.size, dtype=bool)
    for s in range(0, lo.size, per):
        rows = lower.codes.take(lo[s:s + per], axis=0)
        rows |= upper.codes.take(up[s:s + per], axis=0)
        passed[s:s + per] = _covers(diameter, first, rows)
    keep = np.flatnonzero(passed)
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
    """The injective ones of an array of Wolfram numbers, by the exact
    pair-graph decision, in the same order."""
    if not tables.size:
        return []
    return tables[decide(diameter, _wolfram_bits(diameter, tables))].tolist()


@functools.cache
def _chain_survivors(diameter: int) -> np.ndarray:
    """The Wolfram numbers, ascending (uint64), of all the tables of a
    diameter below ``MAX_SWEEP_DIAMETER`` that pass the filter chain:
    passes[upper key, lower key] of :func:`_half_keys` (the words of periods
    1 to 4), then :func:`_chain` (periods 5, 6 and 7).  544 tables pass the
    keys at D = 4 and 16 the chain.

    The length-4 words read every window, so the keys are the whole halves
    and the flattened matrix is indexed by the Wolfram number, whose low and
    high bits are then the pair of halves.  Each half is one limb.  Balance
    needs no test of its own: the 16 words read each window 64 / 2^D times
    in all, so a table that permutes them, whose images hold 32 ones in
    their 64 cells, has 2^(D-1) ones.
    """
    width = 1 << (diameter - 1)
    values = np.arange(1 << width, dtype=np.uint64)
    tables = np.flatnonzero(_half_keys(diameter)[2].ravel())
    lower, upper = (_halves(diameter, values, _limb_index(diameter, values[None], k))
                    for k in (0, 1))
    return _chain(diameter, lower, upper, (tables & ((1 << width) - 1), tables >> width))


def _check_sweep_diameter(diameter: int) -> None:
    """Refuse a sweep outside 1..``MAX_SWEEP_DIAMETER`` before anything is
    allocated."""
    if diameter < 1:
        raise ValueError(f"exhaustive sweep needs diameter >= 1, got {diameter}")
    if diameter > MAX_SWEEP_DIAMETER:
        raise ValueError(
            f"exhaustive sweep refused for diameter {diameter}: "
            f"2^(2^{diameter}) tables are out of reach")


def sweep_units(diameter: int) -> list:
    """The exhaustive sweep of one diameter as an ordered list of work units:
    the ranges of :func:`sweep_chunks` below ``MAX_SWEEP_DIAMETER``, else
    the blocks of :func:`balanced_sweep_blocks`.  A diameter outside
    1..``MAX_SWEEP_DIAMETER`` raises ``ValueError``."""
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
    A diameter outside 1..``MAX_SWEEP_DIAMETER`` raises ``ValueError``.
    """
    _check_sweep_diameter(diameter)
    if diameter < MAX_SWEEP_DIAMETER:
        lo, hi = unit
        survivors = _chain_survivors(diameter)
        a, b = np.searchsorted(survivors, np.array((lo, hi), dtype=np.uint64))
        return _decide_tables(diameter, survivors[a:b])
    return _decide_tables(diameter, _chain(diameter, *_block_pairs(diameter, unit)))


def exhaustive_injective(diameter: int, exclude_trivial: bool = False) -> list[RuleTable]:
    """Every rule table of one diameter whose global map is injective, in
    ascending Wolfram order, without the projection and complement tables if
    asked.  Diameter 5 scans the 601M balanced tables; a diameter outside
    1..``MAX_SWEEP_DIAMETER`` raises ``ValueError``."""
    found = sorted(w for unit in sweep_units(diameter) for w in scan_unit(diameter, unit))
    tables = [from_wolfram(diameter, w) for w in found]
    if exclude_trivial:
        tables = [t for t in tables if classify_trivial(t) == "nontrivial"]
    return tables
