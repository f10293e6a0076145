"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles (template
expansion, direct window matching, doubled-string stepping, a pair graph
built by its definition, as a dict and, for speed, as numpy arrays) so it
shares no code path with the package and can serve as an oracle for it.
The injectivity oracle, :func:`scc_injective`, decides many tables at once
from the strongly connected components that scipy finds in their pair
graphs, built with numpy as one block-diagonal graph; scipy is a test-only
dependency, imported by that function alone.
"""

from __future__ import annotations

import itertools

import numpy as np


def expand(template: str):
    """All concrete windows matching a template (X and a free)."""
    free = [i for i, ch in enumerate(template) if ch in "Xa"]
    for combo in itertools.product("01", repeat=len(free)):
        w = list(template)
        for i, b in zip(free, combo):
            w[i] = b
        yield "".join(w)


def matches(window: str, template: str) -> bool:
    return len(window) == len(template) and all(
        t in "Xa" or t == w for w, t in zip(window, template))


def interference_offsets(c1: str, c2: str) -> list[int]:
    """Nonzero anchor offsets at which both cores can appear in one
    configuration while one core's flip cell sits on a cell the other core
    constrains."""
    l1, l2 = c1.index("X"), c2.index("X")
    r1, r2 = len(c1) - 1 - l1, len(c2) - 1 - l2
    out = []
    reach = len(c1) + len(c2)
    for delta in range(-reach, reach + 1):
        if delta == 0:
            continue
        flip2_inside_1 = -l1 <= delta <= r1
        flip1_inside_2 = -l2 <= -delta <= r2
        if not (flip2_inside_1 or flip1_inside_2):
            continue
        realizable = True
        for pos in range(-l1, r1 + 1):
            q = pos - delta
            if -l2 <= q <= r2:
                a, b = c1[pos + l1], c2[q + l2]
                if a in "01" and b in "01" and a != b:
                    realizable = False
                    break
        if realizable:
            out.append(delta)
    return out


def shared_window(c1: str, c2: str) -> bool:
    """Can a single window satisfy both cores with their flip cells aligned?"""
    l1, l2 = c1.index("X"), c2.index("X")
    r1, r2 = len(c1) - 1 - l1, len(c2) - 1 - l2
    for pos in range(max(-l1, -l2), min(r1, r2) + 1):
        a, b = c1[pos + l1], c2[pos + l2]
        if a in "01" and b in "01" and a != b:
            return False
    return True


def cores_conflict(c1: str, c2: str) -> bool:
    """Reference notion of pairwise interference for distinct cores."""
    return bool(interference_offsets(c1, c2)) or shared_window(c1, c2)


def induced_bits(members, diameter: int, anchor: int) -> list[int]:
    """Direct rule construction: negate the anchor bit of matching windows."""
    bits = []
    for v in range(1 << diameter):
        w = format(v, f"0{diameter}b")
        out = int(w[anchor])
        if any(matches(w, str(m)) for m in members):
            out = 1 - out
        bits.append(out)
    return bits


def naive_step(bits, diameter: int, anchor: int, c: str) -> str:
    """Global map via doubled-string window slicing."""
    n = len(c)
    big = c * ((diameter + n - 1) // n + 1)
    out = []
    for i in range(n):
        s = (i - anchor) % n
        out.append(str(bits[int(big[s:s + diameter], 2)]))
    return "".join(out)


def shift(c: str, k: int) -> str:
    """Cyclic rotation of a word to the right by k (left for negative k)."""
    k %= len(c)
    return c[-k:] + c[:-k] if k else c


def is_permutation(bits, diameter: int, anchor: int, n: int) -> bool:
    images = {naive_step(bits, diameter, anchor, format(ci, f"0{n}b"))
              for ci in range(1 << n)}
    return len(images) == 1 << n


def pair_graph(bits, diameter: int) -> dict[int, list[int]]:
    """Equal-output pair graph as a dict from node to successor list.

    A node is a pair of (diameter-1)-cell words p, q, numbered p * 2^(D-1) + q.
    Appending one cell to each word completes two windows; when the rule
    gives them equal outputs, an edge leads to the pair of their last
    (diameter-1) cells.
    """
    size = 1 << (diameter - 1)
    # (next word, output) for each one-cell extension of each word
    ext = [[(w % size, bits[w]) for w in (2 * p, 2 * p + 1)] for p in range(size)]
    graph = {}
    for p, ep in enumerate(ext):
        for q, eq in enumerate(ext):
            graph[p * size + q] = [np_ * size + nq for np_, op in ep
                                   for nq, oq in eq if op == oq]
    return graph


def peel_survivors(bits, diameter: int) -> list[bool]:
    """Which nodes of the graph of :func:`pair_graph` survive stripping, one
    bool per node: nodes with no successor or no predecessor among the nodes
    left are removed, all at once, until a round removes none."""
    graph = pair_graph(bits, diameter)
    alive = set(graph)
    while True:
        entered = {w for v in alive for w in graph[v] if w in alive}
        kept = {v for v in alive if v in entered and any(w in alive for w in graph[v])}
        if kept == alive:
            return [v in alive for v in range(len(graph))]
        alive = kept


def reach_words(bits, diameter: int, k: int) -> tuple[list[set[int]], list[set[int]]]:
    """(forward, backward): for each (diameter-1)-cell word p, numbered as
    in :func:`pair_graph`, the set of k-cell output words of the k windows
    that follow p, and of the k windows that precede it, over every choice
    of the k cells appended after p, or put before it.  A word is read from
    p outward: the output of the window next to p is its most significant
    bit."""
    forward, backward = [], []
    for p in range(1 << (diameter - 1)):
        word = format(p, f"0{diameter - 1}b") if diameter > 1 else ""
        after, before = set(), set()
        for cells in itertools.product("01", repeat=k):
            line = word + "".join(cells)
            after.add(int("".join(str(bits[int(line[i:i + diameter], 2)])
                                  for i in range(k)), 2))
            line = "".join(cells) + word
            before.add(int("".join(str(bits[int(line[i:i + diameter], 2)])
                                   for i in reversed(range(k))), 2))
        forward.append(after)
        backward.append(before)
    return forward, backward


def walk_ends(bits, diameter: int, k: int) -> list[bool]:
    """Which nodes of the graph of :func:`pair_graph` have a walk of k edges
    out and a walk of k edges in, one bool per node, by stepping the
    successor lists k times each way."""
    graph = pair_graph(bits, diameter)
    out = dict.fromkeys(graph, True)
    into = dict.fromkeys(graph, True)
    for _ in range(k):
        out = {v: any(out[w] for w in graph[v]) for v in graph}
        entered = dict.fromkeys(graph, False)
        for v in graph:
            for w in graph[v]:
                entered[w] = entered[w] or into[v]
        into = entered
    return [out[v] and into[v] for v in range(len(graph))]


def pair_graph_arrays(tables, diameter: int) -> tuple[np.ndarray, np.ndarray]:
    """The graphs of :func:`pair_graph` of a stack of tables (2^D output
    bits each) as one block-diagonal graph in (indptr, targets) arrays,
    built with numpy: node v of table k is node k * 4^(D-1) + v, and its
    successors are targets[indptr[node]:indptr[node + 1]], in the same
    order as in :func:`pair_graph`.

    A per-word extension table gives, for each word p and appended cell a,
    the next word and the output of the completed window; an outer equality
    of the outputs over all (p, a) and (q, b) marks the edges.
    """
    size = 1 << (diameter - 1)
    nodes = size * size
    windows = 2 * np.arange(size)[:, None] + np.arange(2)   # [p, a]
    out = np.asarray(tables).reshape(-1, 2 * size)[:, windows]
    nxt = windows % size
    # slots [k, p, q, a, b]: the cells appended to each word vary fastest, a before b
    edge = out[:, :, None, :, None] == out[:, None, :, None, :]
    slot = np.flatnonzero(edge)
    target = (nxt[:, None, :, None] * size + nxt[None, :, None, :]).reshape(-1)
    targets = target[slot % (4 * nodes)] + slot // (4 * nodes) * nodes
    # node v's edges are those of the slots from 4 v on
    return np.searchsorted(slot, 4 * np.arange(edge.size // 4 + 1)), targets


# Nodes of the pair graphs that scc_injective decides in one batch
_BATCH_NODES = 1 << 20


def scc_injective(tables, diameter: int) -> list[bool]:
    """Injectivity of each of a stack of tables (2^D output bits each) by
    the strongly connected components of its pair graph of
    :func:`pair_graph_arrays`, found by scipy for the graphs of up to
    ``_BATCH_NODES`` nodes at once.

    The map is injective iff no cycle of the pair graph passes through a
    pair p != q, that is, iff every component holding such a pair has one
    node and no self-loop.  At diameter 1 the words are empty, the graph has
    a single node, and the test does not apply: the map is injective iff the
    two outputs differ.  scipy is imported here, not with the module, which
    the benchmark imports too.
    """
    if diameter == 1:
        return [bool(bits[0] != bits[1]) for bits in tables]
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    size = 1 << (diameter - 1)
    nodes = size * size
    per_batch = max(1, _BATCH_NODES // nodes)
    tables = np.asarray(tables).reshape(-1, 2 * size)
    verdicts = []
    for lo in range(0, len(tables), per_batch):
        indptr, targets = pair_graph_arrays(tables[lo:lo + per_batch], diameter)
        n = len(indptr) - 1
        graph = csr_matrix((np.ones(len(targets), dtype=np.int8), targets, indptr),
                           shape=(n, n))
        _, label = connected_components(graph, directed=True, connection="strong")
        v = np.arange(n)
        looped = np.zeros(n, dtype=bool)
        looped[targets[np.repeat(v, np.diff(indptr)) == targets]] = True
        cyclic = (np.bincount(label)[label] > 1) | looped
        off = v // size % size != v % size
        verdicts += (~(cyclic & off).reshape(-1, nodes).any(axis=1)).tolist()
    return verdicts
