"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles (template
expansion, direct window matching, doubled-string stepping, strongly
connected components of a pair graph built by its definition, as a dict
and, for speed, as numpy arrays) so it shares no code path with the
package and can serve as an oracle for it.
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


def pair_graph_arrays(bits, diameter: int) -> tuple[list[int], list[int]]:
    """The graph of :func:`pair_graph` as (indptr, targets) lists, built
    with numpy: the successors of node v are targets[indptr[v]:indptr[v + 1]],
    in the same order as there.

    A per-word extension table gives, for each word p and appended cell a,
    the next word and the output of the completed window; an outer equality
    of the outputs over all (p, a) and (q, b) marks the edges.
    """
    size = 1 << (diameter - 1)
    windows = 2 * np.arange(size)[:, None] + np.arange(2)   # [p, a]
    out = np.asarray(bits, dtype=np.int64)[windows]
    nxt = windows % size
    # [p, q, a, b]: the cells appended to each word vary fastest, a before b
    edge = out[:, None, :, None] == out[None, :, None, :]
    target = nxt[:, None, :, None] * size + nxt[None, :, None, :]
    edge = edge.reshape(size * size, 4)
    indptr = np.zeros(size * size + 1, dtype=np.int64)
    np.cumsum(edge.sum(axis=1), out=indptr[1:])
    return indptr.tolist(), target.reshape(size * size, 4)[edge].tolist()


def tarjan_injective(bits, diameter: int) -> bool:
    """Injectivity by strongly connected components (iterative Tarjan) of
    the pair graph of :func:`pair_graph_arrays`.

    The map is injective iff no cycle of the pair graph passes through a
    pair p != q, that is, iff every component holding such a pair has one
    node and no self-loop.  At diameter 1 the words are empty, the graph has
    a single node, and the test does not apply: the map is injective iff the
    two outputs differ.
    """
    if diameter == 1:
        return bits[0] != bits[1]
    size = 1 << (diameter - 1)
    indptr, targets = pair_graph_arrays(bits, diameter)
    nodes = len(indptr) - 1
    index = [-1] * nodes
    low = [0] * nodes
    on_stack = [False] * nodes
    stack = []
    counter = 0
    for root in range(nodes):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(targets[indptr[root]:indptr[root + 1]]))]
        while work:
            node, succ = work[-1]
            for nxt in succ:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(targets[indptr[nxt]:indptr[nxt + 1]])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != index[node]:
                    continue
                if stack[-1] == node:   # one-node component
                    stack.pop()
                    on_stack[node] = False
                    if (node in targets[indptr[node]:indptr[node + 1]]
                            and node // size != node % size):
                        return False
                    continue
                component = stack[stack.index(node):]
                del stack[len(stack) - len(component):]
                for member in component:
                    on_stack[member] = False
                if any(m // size != m % size for m in component):
                    return False
    return True
