import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brute
from revca import injectivity
from revca.engine import _SLICE_CELLS, step
from revca.injectivity import (
    InjectivityVerdict,
    _block_pairs,
    _half_keys,
    _masks_by_popcount,
    _necklaces,
    _permutes_period,
    balanced_sweep_blocks,
    debruijn_injective,
    exhaustive_injective,
    periodic_bijective,
    scan_unit,
    sweep_chunks,
    sweep_units,
)
from revca.patterns import InputError, build_mixture, enumerate_extended, generate_all_patterns
from revca.rules import (
    from_wolfram,
    induce,
    trivial_tables,
)

# ground truth established by three independent routes (pair graph, direct
# permutation checks, output-complement closure): every injective table of
# diameters 3 and 4
INJECTIVE_D3 = [15, 51, 85, 170, 204, 240]
INJECTIVE_D4 = [255, 3855, 3915, 11535, 13107, 13155, 14643, 21845,
                43690, 50892, 52380, 52428, 54000, 61620, 61680, 65280]
INDUCED_D4 = {50892, 52380, 54000, 61620}
# tables of three D=5 blocks after the keys, periods 5, 6 and 7, and decided
# (TestBitTests.test_diameter_5_funnel)
FUNNELS_D5 = [[2806, 281, 12, 4, 4], [4315, 333, 2, 2, 2], [3782, 289, 0, 0, 0]]


class TestVerdicts:
    def test_identity_injective(self):
        assert debruijn_injective(from_wolfram(3, 204)).injective

    def test_constant_rule(self):
        v = debruijn_injective(from_wolfram(3, 0))
        assert not v.injective
        w1, w2 = v.witness
        assert len(w1) == len(w2) == 1 and {w1, w2} == {"0", "1"}

    def test_xor_rule(self):
        v = debruijn_injective(from_wolfram(3, 90))
        assert not v.injective

    def test_induced_rule(self):
        assert debruijn_injective(induce(build_mixture(["0X011"]))).injective

    def test_diameter_one(self):
        """All 4 D = 1 tables: f(0) = f(1), the self-loop test, is the whole
        decision, and its witness is 0, 1."""
        for w in range(4):
            v = debruijn_injective(from_wolfram(1, w))
            assert v == (InjectivityVerdict(True) if w in (1, 2)
                         else InjectivityVerdict(False, ("0", "1")))

    def test_self_loop_allocates_nothing(self):
        """f(0^12) = f(1^12) is settled before any pair-graph array; a peel
        of the 4^11 nodes first would peak at about 52 MB."""
        rt = from_wolfram(12, 0)
        tracemalloc.start()
        try:
            v = debruijn_injective(rt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == InjectivityVerdict(False, ("0", "1"))
        assert peak < 1 << 20, peak

    def test_witnesses_collide(self):
        rng = random.Random(404)
        checked = 0
        while checked < 200:
            d = rng.randint(2, 8)
            rt = from_wolfram(d, rng.getrandbits(1 << d))
            v = debruijn_injective(rt)
            if v.injective:
                continue
            w1, w2 = v.witness
            assert w1 != w2 and len(w1) == len(w2)
            assert step(rt, w1) == step(rt, w2)
            checked += 1
        # f(0...0) == f(1...1) puts a self-loop on the off-diagonal node
        # (0...0, 1...1), the smallest one that can carry one: length-1 witness
        v = debruijn_injective(from_wolfram(3, 90))
        assert v.witness == ("0", "1")

    def test_witness_cycle_closes_at_the_walk_or_diamond_node(self):
        """With f(0^D) != f(1^D) the witness is a shortest cycle of
        brute.pair_graph through the node of :func:`_witness_node`, on
        random tables and on one-swap near misses of induced tables."""
        rng = random.Random(406)
        tables = [(d, rng.getrandbits(1 << d)) for d in rng.choices(range(2, 7), k=150)]
        for d in (5, 6):
            induced = [induce(build_mixture([p])).wolfram for p in generate_all_patterns(d)]
            tables += [(d, w) for w in _near_misses(induced, d, 60, rng)]
        checked = 0
        for d, w in tables:
            w = (w | 1 << ((1 << d) - 1)) & ~1
            rt = from_wolfram(d, w)
            v = debruijn_injective(rt)
            if v.injective:
                continue
            graph = brute.pair_graph(rt.bits.tolist(), d)

            def cycle_length(z):
                # BFS from z's successors back to z
                seen, frontier, length = set(), set(graph[z]), 1
                while frontier and z not in frontier:
                    seen |= frontier
                    frontier = {y for x in frontier for y in graph[x]} - seen
                    length += 1
                return length if frontier else None

            z = _witness_node(rt.bits.tolist(), d)
            assert _closing_node(v.witness, d) == z, (d, w)
            assert len(v.witness[0]) == cycle_length(z), (d, w)
            checked += 1
        assert checked >= 150

    def test_diamond_witness(self):
        """D = 3 Wolfram 140 and 220: no cycle runs through off-diagonal
        nodes alone, so the witness's cycle runs through the diagonal and
        closes at the smallest off-diagonal survivor."""
        for w in (140, 220):
            rt = from_wolfram(3, w)
            bits = rt.bits.tolist()
            off = [v for v, alive in enumerate(brute.peel_survivors(bits, 3))
                   if alive and v // 4 != v % 4]
            assert off and not _off_diagonal_cycle_nodes(bits, 3), w
            v = debruijn_injective(rt)
            assert v == InjectivityVerdict(False, ("100", "110")), w
            assert _closing_node(v.witness, 3) == min(off), w
            _assert_witness(rt, v)

    def test_decision_limit(self, monkeypatch):
        """Above MAX_DECISION_DIAMETER (12) the pair graph's 4^(D-1) nodes
        are refused before numpy allocates anything."""
        rt = from_wolfram(13, 0)
        monkeypatch.setattr(np, "meshgrid", None)
        monkeypatch.setattr(np, "arange", None)
        with pytest.raises(ValueError, match="limit of the injectivity decision"):
            debruijn_injective(rt)

    def test_anchor_invariance(self):
        rng = random.Random(405)
        for _ in range(300):
            w = rng.getrandbits(16)
            verdicts = {debruijn_injective(from_wolfram(4, w, anchor=j)).injective
                        for j in range(4)}
            assert len(verdicts) == 1

    def test_reflection_and_complement_conjugation_invariance(self):
        rng = random.Random(406)
        for _ in range(200):
            d = 4
            w = rng.getrandbits(1 << d)
            rt = from_wolfram(d, w)
            base = debruijn_injective(rt).injective
            bits = rt.bits.tolist()   # Python ints: b << v must not wrap
            # left-right window reflection
            refl = [0] * (1 << d)
            for v in range(1 << d):
                rv = int(format(v, f"0{d}b")[::-1], 2)
                refl[rv] = bits[v]
            assert debruijn_injective(
                from_wolfram(d, sum(b << v for v, b in enumerate(refl)))).injective == base
            # complement conjugation: flip inputs and output
            conj = [1 - bits[(~v) & ((1 << d) - 1)] for v in range(1 << d)]
            assert debruijn_injective(
                from_wolfram(d, sum(b << v for v, b in enumerate(conj)))).injective == base


class TestDecide:
    def test_pair_graph_builds_agree(self):
        """brute.pair_graph_arrays, the numpy build that the Tarjan oracle
        runs on, against the dict build of brute.pair_graph on every table
        of diameter <= 4: the same successors of every node, in the same
        order."""
        for d in range(1, 5):
            for w in range(1 << (1 << d)):
                bits = [w >> v & 1 for v in range(1 << d)]
                graph = brute.pair_graph(bits, d)
                indptr, targets = brute.pair_graph_arrays(bits, d)
                assert len(indptr) == len(graph) + 1
                assert all(targets[indptr[v]:indptr[v + 1]] == succ
                           for v, succ in graph.items()), (d, w)

    def test_matches_tarjan_oracle(self):
        """debruijn_injective against the SCC oracle of tests/brute.py on
        the 1,364 induced tables of diameters 3..8 and one-swap
        perturbations of them; accepted tables must also permute all short
        periodic words.  Every table of diameter <= 4 meets the oracle in
        test_only_loop_free_rows_are_peeled, so that each is decided once."""
        induced = {d: [induce(build_mixture([p])).bits.tolist()
                       for p in list(generate_all_patterns(d)) + list(enumerate_extended(d))]
                   for d in range(3, 9)}
        assert sum(map(len, induced.values())) == 1364
        rng = random.Random(1364)
        perturbed = {d: [] for d in induced}
        for _ in range(1000):
            d = rng.randint(5, 8)
            bits = list(rng.choice(induced[d]))
            i = rng.choice([v for v, b in enumerate(bits) if b == 0])
            j = rng.choice([v for v, b in enumerate(bits) if b == 1])
            bits[i], bits[j] = 1, 0
            perturbed[d].append(bits)

        for d, tables in induced.items():
            n_max = 12 if d <= 4 else 8
            mixed = [(bits, True) for bits in tables] + [(bits, False) for bits in perturbed[d]]
            for bits, is_induced in mixed:
                rt = from_wolfram(d, sum(b << v for v, b in enumerate(bits)))
                injective = debruijn_injective(rt).injective
                assert injective == brute.tarjan_injective(bits, d), (d, bits)
                assert injective or not is_induced, (d, bits)
                if injective:
                    assert all(brute.is_permutation(bits, d, 0, n)
                               for n in range(1, n_max + 1)), (d, bits)

    def test_only_loop_free_rows_are_peeled(self, monkeypatch):
        """debruijn_injective against the SCC oracle of tests/brute.py on
        every table of diameter <= 4, each rejection's witness confirmed by
        the brute stepper.  Of the tables of each diameter (65,536 at D = 4)
        it peels only the half with f(0^D) != f(1^D) (32,768), each alone;
        the rest are settled as not injective before the pair graph."""
        peel, peeled = injectivity._peel, []

        def spy(d, bits):
            peeled.append(bits.tolist())
            return peel(d, bits)

        monkeypatch.setattr(injectivity, "_peel", spy)
        for d in range(1, 5):
            got, peeled[:] = [], []
            for w in range(1 << (1 << d)):
                rt = from_wolfram(d, w)
                bits, verdict = rt.bits.tolist(), debruijn_injective(rt)
                assert verdict.injective == brute.tarjan_injective(bits, d), (d, w)
                if not verdict.injective:
                    w1, w2 = verdict.witness
                    assert w1 != w2 and len(w1) == len(w2), (d, w)
                    assert (brute.naive_step(bits, d, rt.anchor, w1)
                            == brute.naive_step(bits, d, rt.anchor, w2)), (d, w)
                got.append(verdict.injective)
            assert len(peeled) == 1 << ((1 << d) - 1), d
            assert all(len(row) == 1 << d and row[0] != row[-1] for row in peeled), d
        assert len(peeled) == 1 << 15
        assert [w for w, v in enumerate(got) if v] == INJECTIVE_D4

    def test_peel_leaves_the_diagonals_of_injective_tables(self):
        """The peel stops once only diagonal nodes (u, u) are left: on the
        16 injective D=4 tables and the 62 injective D=5 tables of
        perfbench/reference.json, decided and peeled from the start set, it
        leaves exactly the diagonal of each."""
        for d, tables in ((4, INJECTIVE_D4), (5, _d5_reference())):
            diagonal = np.zeros(1 << (2 * d - 2), dtype=bool)
            diagonal[::(1 << (d - 1)) + 1] = True
            for w in tables:
                rt = from_wolfram(d, w)
                assert debruijn_injective(rt).injective, (d, w)
                assert np.array_equal(_survivors(d, rt.bits), diagonal), (d, w)

    def test_peel_survivors_match_the_strip_oracle(self):
        """The survivors themselves, which the witness search of a rejected
        table runs on, against brute.peel_survivors at D=2..7, decided and
        peeled from the start set, which holds every survivor: random
        tables, induced tables (the projections and complements below D=4,
        which has the first stable cores) and one-swap near misses of them.
        Some starts lie strictly between the survivors and all nodes, so
        that the peel from them has nodes to strip, and the edge lists of
        the start's nodes are those of brute.pair_graph among them.  A start
        of the diagonal alone lists no edge."""
        rng = random.Random(2072)
        partial = between = diagonal = 0
        for d in range(2, 8):
            cores = list(generate_all_patterns(d)) + list(enumerate_extended(d))
            injective = ([induce(build_mixture([p])).wolfram for p in rng.sample(cores, 4)]
                         if cores else [rt.wolfram for rt in trivial_tables(d)])
            tables = (injective[:4] + _near_misses(injective, d, 8, rng)
                      + [rng.getrandbits(1 << d) for _ in range(4)])
            bits = np.array([[w >> v & 1 for v in range(1 << d)] for w in tables], dtype=np.uint8)
            want = np.array([brute.peel_survivors(row.tolist(), d) for row in bits]).T
            for k, row in enumerate(bits):
                expected = row[0] != row[-1] and want[:, k].sum() == 1 << (d - 1)
                assert debruijn_injective(from_wolfram(d, tables[k])).injective == expected, (d, k)
                start = injectivity._start(d, row)
                assert not (want[:, k] & ~start.ravel()).any(), (d, k)
                between += want[:, k].sum() < start.sum() < start.size
                assert np.array_equal(_survivors(d, row), want[:, k]), (d, k)
                graph = injectivity._peel(d, row)
                if start.sum() == 1 << (d - 1):
                    assert graph.succ is None, (d, k)
                    assert graph.nodes.tolist() == [u * ((1 << (d - 1)) + 1)
                                                    for u in range(1 << (d - 1))], (d, k)
                    diagonal += 1
                else:
                    _assert_edges(d, row, graph)
            partial += sum(1 << (d - 1) < n < 1 << (2 * d - 2) for n in want.sum(axis=0))
        assert partial >= 20, partial
        assert between >= 10, between
        assert diagonal >= 10, diagonal

    def test_edge_slices_list_the_same_graph(self, monkeypatch):
        """The edge lists built in slices of 16 nodes equal those built at
        once, and give the same survivors and verdicts: random tables and
        one-swap near misses of induced tables at D = 5..8, whose starts
        span several slices."""
        rng = random.Random(2073)
        graphs, rows = [], []
        for d in range(5, 9):
            induced = _induced(d, 2, rng)
            for w in _near_misses(induced, d, 3, rng) + [rng.getrandbits(1 << d)]:
                row = from_wolfram(d, w).bits
                rows.append((d, row))
                graphs.append(injectivity._peel(d, row))
        monkeypatch.setattr(injectivity, "_EDGE_NODES", 16)
        sliced = 0
        for (d, row), graph in zip(rows, graphs):
            again = injectivity._peel(d, row)
            assert all(np.array_equal(a, b) for a, b in zip(graph, again)), d
            sliced += graph.succ is not None and len(graph.nodes) > 16
        assert sliced >= 8, sliced

    def test_injective_tables_batched_with_near_misses(self):
        """The reference tables of D=4 and D=5 mixed with one-swap near
        misses of them: the verdicts of the Tarjan oracle."""
        rng = random.Random(4562)
        for d, tables in ((4, INJECTIVE_D4), (5, _d5_reference())):
            mixed = tables + _near_misses(tables, d, 3 * len(tables), rng)
            verdicts = [debruijn_injective(from_wolfram(d, w)).injective for w in mixed]
            assert verdicts == [brute.tarjan_injective(from_wolfram(d, w).bits.tolist(), d)
                                for w in mixed]
            assert verdicts.count(True) >= len(tables) and False in verdicts


def _survivors(d, bits):
    """The nodes that injectivity._peel leaves of one table, as one bool per
    node of the whole pair graph, the form of brute.peel_survivors."""
    graph = injectivity._peel(d, bits)
    out = np.zeros(1 << (2 * d - 2), dtype=bool)
    out[graph.nodes[graph.alive[:-1]]] = True
    return out


def _assert_edges(d, bits, graph):
    """The successors that a graph of injectivity._peel lists for each node
    of the start, as node numbers, are those of brute.pair_graph among the
    start's nodes, in the same order."""
    nodes = graph.nodes.tolist()
    oracle, members = brute.pair_graph(bits.tolist(), d), set(nodes)
    for i, v in enumerate(nodes):
        got = [nodes[j] for j in graph.succ[:, i].tolist() if j >= 0]
        assert got == [w for w in oracle[v] if w in members], (d, v)


def _closing_node(witness, d) -> int:
    """The pair-graph node a witness's cycle closes at, numbered as in
    brute.pair_graph: the last d-1 cells of each word, repeated."""
    reps = -(-(d - 1) // len(witness[0]))
    p, q = (int((c * reps)[len(c) * reps - (d - 1):], 2) for c in witness)
    return p * (1 << (d - 1)) + q


def _off_diagonal_cycle_nodes(bits, d) -> set[int]:
    """The off-diagonal survivors of brute.peel_survivors with a path of
    every length through off-diagonal survivors alone: those left after
    stripping the nodes without a successor among them, until none goes."""
    graph, size = brute.pair_graph(bits, d), 1 << (d - 1)
    left = {v for v, alive in enumerate(brute.peel_survivors(bits, d))
            if alive and v // size != v % size}
    while True:
        kept = {v for v in left if any(w in left for w in graph[v])}
        if kept == left:
            return left
        left = kept


def _witness_node(bits, d) -> int:
    """The node a rejected table's witness cycle closes at, by
    brute.pair_graph: a walk from the smallest node of
    :func:`_off_diagonal_cycle_nodes` along its first successor among them,
    in the order of input bits, until a node repeats; or, when there is no
    such node, the smallest off-diagonal survivor of brute.peel_survivors."""
    left = _off_diagonal_cycle_nodes(bits, d)
    if not left:
        size = 1 << (d - 1)
        return min(v for v, alive in enumerate(brute.peel_survivors(bits, d))
                   if alive and v // size != v % size)
    graph, z, seen = brute.pair_graph(bits, d), min(left), set()
    while z not in seen:
        seen.add(z)
        z = next(w for w in graph[z] if w in left)
    return z


def _assert_witness(rt, verdict):
    w1, w2 = verdict.witness
    assert not verdict.injective and w1 != w2 and len(w1) == len(w2)
    assert (brute.naive_step(rt.bits, rt.diameter, rt.anchor, w1)
            == brute.naive_step(rt.bits, rt.diameter, rt.anchor, w2))


class TestBeyondTheOracle:
    """The decision at D = 2, where a window has no middle cells, and at
    D = 9..11, beyond the diameters the Tarjan oracle is run at."""

    def test_every_diameter_2_table(self):
        injective = []
        for w in range(16):
            rt = from_wolfram(2, w)
            verdict = debruijn_injective(rt)
            assert verdict.injective == brute.tarjan_injective(rt.bits.tolist(), 2)
            if verdict.injective:
                injective.append(w)
            else:
                _assert_witness(rt, verdict)
        assert injective == [3, 5, 10, 12]

    def test_induced_and_near_misses_at_9_to_11(self):
        """Induced tables are accepted; one-swap perturbations of them are
        rejected with witnesses that the brute stepper confirms."""
        rng = random.Random(911)
        for d in (9, 10, 11):
            induced = [induce(build_mixture([p])).wolfram
                       for p in rng.sample(list(generate_all_patterns(d)), 2)]
            for w in induced:
                assert debruijn_injective(from_wolfram(d, w)).injective
            for w in _near_misses(induced, d, 2, rng):
                rt = from_wolfram(d, w)
                _assert_witness(rt, debruijn_injective(rt))

    def test_memory_at_diameter_11(self):
        """The decision of an induced table holds 5 bytes a pair-graph node:
        the start's bool per node and, while the start's nodes get their
        edge lists, an int32 position per node.  The start's masks are
        compared in slices that are freed with it, and the lists of an
        induced table's few start nodes are small.  Measured: 5.14 MB traced
        over the 4^10 nodes of D = 11; the bound, 5.5 MB, leaves room for
        the small arrays only.  One intp index array over the 4^11 window
        pairs alone would take 32 MB."""
        rt = induce(build_mixture(["0X011" + "a" * 6]))
        tracemalloc.start()
        try:
            assert debruijn_injective(rt).injective
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rt.diameter == 11 and peak < 5.5 * (1 << 20), peak

    def test_memory_at_diameter_12(self):
        """At the decision limit the peak is the same 5 bytes a node: 4 MB
        of start and 16 MB of positions, 20.41 MB traced (52.07 MB when the
        peel ran on dense arrays of 13 bytes a node).  The bound, 21 MB,
        leaves no room for a second array over every node."""
        rt = induce(build_mixture(["0X011" + "a" * 7]))
        tracemalloc.start()
        try:
            assert debruijn_injective(rt).injective
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rt.diameter == 12 and peak < 21 << 20, peak

    def test_witness_memory_at_diameter_12(self):
        """The reject path of random tables at the decision limit, whose
        starts hold about 3 M of the 4^11 nodes: the witness strips on the
        peel's successor lists and searches from one node, with no list of
        every survivor, and every strip gathers in slices of nodes.  The peel
        lists successors only and finds in-edges by scattering from them.
        Seed 4's search meets 1.2 M nodes, so it keeps its parents in one
        int32 array and its frontier in an ``array``.  Measured: 100.9 MB
        traced on seed 1 and 101.5 MB on seed 4, most of it the peel's edge
        lists (130.5 and 127.8 MB when the peel also listed predecessors,
        169.2 MB on seed 4 with a dict of parents and a deque, 213 MB on seed
        1 when a pass gathered over every node at once, 474 MB when the
        witness built lists of every survivor and tried them in turn); the
        bound is 115 MB."""
        for seed in (1, 4):
            rt = from_wolfram(12, (random.Random(seed).getrandbits(4096) | 1 << 4095) & ~1)
            tracemalloc.start()
            try:
                verdict = debruijn_injective(rt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            _assert_witness(rt, verdict)
            assert peak < 115 << 20, (seed, peak)


def _induced(d, count, rng):
    """Wolfram numbers of count tables induced by one core each, or of the
    projections and complements where the diameter has no cores."""
    cores = list(generate_all_patterns(d))
    if not cores:
        return [rt.wolfram for rt in trivial_tables(d)][:count]
    return [induce(build_mixture([p])).wolfram for p in rng.sample(cores, count)]


class TestStart:
    """The start set of the one-table peel: the masks of the output words of
    each state's continuations against brute.reach_words, and the verdicts
    and witnesses of the peel from it beyond the strip oracle's diameters."""

    def test_masks_match_the_word_oracle(self):
        """The forward and backward masks of words of 6 outputs at D = 2..8:
        random tables, induced tables and one-swap near misses."""
        rng = random.Random(6401)
        for d in range(2, 9):
            count = 2 if d < 8 else 1
            induced = _induced(d, count, rng)
            tables = (induced + _near_misses(induced, d, count, rng)
                      + [rng.getrandbits(1 << d) for _ in range(count)])
            for w in tables:
                bits = from_wolfram(d, w).bits
                words = brute.reach_words(bits.tolist(), d, 6)
                for masks, want in zip(injectivity._reach_masks(d, bits), words):
                    assert masks.tolist() == [sum(1 << x for x in s) for s in want], (d, w)

    @pytest.mark.parametrize("nodes", [None, 16], ids=["default-slices", "16-node-slices"])
    def test_start_is_the_nodes_with_six_edge_walks(self, monkeypatch, nodes):
        """The start set against brute.walk_ends at D = 2..7, in the default
        slices and in slices of 16 nodes, so that every slice of the
        comparison is written: random tables, induced tables and one-swap
        near misses."""
        if nodes is not None:
            monkeypatch.setattr(injectivity, "_EDGE_NODES", nodes)
        rng = random.Random(6402)
        for d in range(2, 8):
            induced = _induced(d, 2, rng)
            tables = (induced + _near_misses(induced, d, 2, rng)
                      + [rng.getrandbits(1 << d) for _ in range(2)])
            for w in tables:
                bits = from_wolfram(d, w).bits
                want = brute.walk_ends(bits.tolist(), d, injectivity._WORD_STEPS)
                assert injectivity._start(d, bits).ravel().tolist() == want, (d, w)

    def test_verdicts_and_witnesses_at_8_to_10(self):
        """debruijn_injective, which peels from the start set, against the
        Tarjan oracle, with every witness checked by the brute stepper:
        induced tables and one-swap near misses at D = 8..10."""
        rng = random.Random(8100)
        rejected = 0
        for d in (8, 9, 10):
            induced = _induced(d, 2, rng)
            for w in induced + _near_misses(induced, d, 4, rng):
                rt = from_wolfram(d, w)
                verdict = debruijn_injective(rt)
                assert verdict.injective == brute.tarjan_injective(rt.bits.tolist(), d), (d, w)
                if not verdict.injective:
                    _assert_witness(rt, verdict)
                    rejected += rt.bits[0] != rt.bits[-1]
        assert rejected >= 6, rejected


class TestPeriodic:
    def test_examples(self):
        assert periodic_bijective(from_wolfram(3, 240), 5)
        assert not periodic_bijective(from_wolfram(3, 90), 3)

    def test_induced_rules(self):
        rt = induce(build_mixture(["0X011"]))
        for n in range(1, 13):
            assert periodic_bijective(rt, n)

    def test_agrees_with_naive(self):
        rng = random.Random(77)
        for _ in range(40):
            d = rng.randint(1, 4)
            w = rng.getrandbits(1 << d)
            rt = from_wolfram(d, w)
            n = rng.randint(1, 7)
            assert periodic_bijective(rt, n) == \
                brute.is_permutation(rt.bits, d, rt.anchor, n)

    def test_bound(self):
        with pytest.raises(InputError, match="exceed the exhaustive bound"):
            periodic_bijective(from_wolfram(3, 204), 30)


# the periods whose words the half keys test (3 and 4, and with them 1 and 2)
_KEY_STAGE = (1, 2, 3, 4)


def _brute_permutes(d, w, periods):
    """Whether the table of Wolfram number w permutes the words of every
    given period, by brute.is_permutation."""
    bits = [w >> v & 1 for v in range(1 << d)]
    return all(brute.is_permutation(bits, d, 0, n) for n in periods)


def _block_tables(d, block):
    """The tables of a balanced-sweep block that pass the half keys, as
    Wolfram numbers built from the pairs of halves that the sweep lists."""
    lower, upper, (lo, up) = _block_pairs(d, block)
    return (upper.values[up] << np.uint64(1 << (d - 1))) | lower.values[lo]


def _near_misses(tables, d, count, rng):
    """One-swap perturbations (a 0 and a 1 output exchanged) of tables."""
    out = []
    for _ in range(count):
        w = rng.choice(tables)
        i = rng.choice([v for v in range(1 << d) if not w >> v & 1])
        j = rng.choice([v for v in range(1 << d) if w >> v & 1])
        out.append(w ^ 1 << i ^ 1 << j)
    return out


class TestPeriodFilter:
    """The sweeps' period filter against brute.is_permutation, one period at
    a time, so that a wrong reject at one period cannot hide behind another
    period's reject."""

    @staticmethod
    def _check(tables, d):
        batch = np.array(tables, dtype=np.uint64)
        for n in range(1, 9):
            expected = [brute.is_permutation([w >> v & 1 for v in range(1 << d)], d, 0, n)
                        for w in tables]
            assert True in expected and False in expected, (d, n)
            assert _permutes_period(batch, d, n).tolist() == expected, (d, n)

    def test_every_diameter_3_table(self):
        self._check(list(range(256)), 3)

    def test_diameter_4_sample(self):
        rng = random.Random(44)
        balanced = [w for w in range(1 << 16) if bin(w).count("1") == 8]
        tables = (INJECTIVE_D4 + rng.sample(balanced, 60) + _near_misses(INJECTIVE_D4, 4, 50, rng)
                  + [rng.getrandbits(16) for _ in range(20)])
        self._check(tables, 4)

    def test_diameter_5_sample(self):
        rng = random.Random(55)
        reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                                / "reference.json").read_text())["d5_injective"]
        injective = rng.sample(reference, 20)
        block = _block_tables(5, balanced_sweep_blocks(5)[70])
        tables = (injective + [int(w) for w in rng.sample(list(block), 60)]
                  + _near_misses(injective, 5, 50, rng) + [rng.getrandbits(32) for _ in range(20)])
        self._check(tables, 5)

    def test_diameter_6_top_bit(self):
        """Tables with f(1^6) = 1, bit 63 of the Wolfram number: induced
        tables, their near misses and random tables."""
        rng = random.Random(66)
        induced = [induce(build_mixture([p])).wolfram for p in generate_all_patterns(6)]
        induced = [w for w in induced if w >> 63]
        assert len(induced) >= 20
        near = [w for w in _near_misses(induced, 6, 80, rng) if w >> 63]
        tables = induced[:20] + near[:40] + [rng.getrandbits(64) | 1 << 63 for _ in range(10)]
        self._check(tables, 6)

    def test_batches_across_slices(self):
        """A batch longer than a slice and no multiple of it gives the same
        mask as shorter batches that each fit one slice."""
        tables = np.concatenate([np.arange(1 << 16, dtype=np.uint64),
                                 np.arange(7, dtype=np.uint64)])
        for n in range(1, 9):
            per = _SLICE_CELLS >> n
            assert tables.size > per and tables.size % per
            pieces = [_permutes_period(tables[lo:lo + per - 1], 4, n)
                      for lo in range(0, tables.size, per - 1)]
            got = _permutes_period(tables, 4, n)
            assert np.array_equal(got, np.concatenate(pieces)), n
            assert got.any() and not got.all(), n

    def test_necklace_representatives(self):
        """One representative per rotation class: the smallest code of each,
        and each code's one-hot class found by rotating it."""
        counts = []
        for n in range(1, 9):
            reps, hit = _necklaces(n)
            counts.append(len(reps))
            for code in range(1 << n):
                turns = {(code >> i | code << (n - i)) & ((1 << n) - 1) for i in range(n)}
                assert hit[code] == 1 << reps.tolist().index(min(turns)), (n, code)
        assert counts == [2, 3, 4, 6, 8, 14, 20, 36]

    def test_empty_batch_and_bad_periods(self):
        empty = _permutes_period(np.empty(0, dtype=np.uint64), 5, 4)
        assert empty.shape == (0,) and empty.dtype == bool
        for n in (0, 9):
            with pytest.raises(ValueError, match="periods 1..8"):
                _permutes_period(np.arange(4, dtype=np.uint64), 4, n)


class TestCrossValidation:
    def test_full_diameter_4_self_test(self):
        """Every diameter-4 table: the pair-graph verdict must coincide with
        direct permutation checks over all periods 1..8 (no borderline cases
        exist at this diameter, which the assertion also pins down)."""
        import numpy as np
        from revca.injectivity import _permutes_period

        tables = np.arange(1 << 16, dtype=np.uint64)
        mask = np.ones(tables.size, dtype=bool)
        for n in range(1, 9):
            sub = np.zeros(tables.size, dtype=bool)
            sub[mask] = _permutes_period(tables[mask], 4, n)
            mask = sub
        permutes_all = {int(w) for w in tables[mask]}
        assert permutes_all == set(INJECTIVE_D4)


class TestTrivialRules:
    def test_all_trivial_rules_injective(self):
        for d in range(1, 7):
            for rt in trivial_tables(d):
                assert debruijn_injective(rt).injective, rt


class TestExhaustive:
    def test_diameter_3(self):
        got = [t.wolfram for t in exhaustive_injective(3)]
        assert got == INJECTIVE_D3
        assert list(exhaustive_injective(3, exclude_trivial=True)) == []

    def test_diameter_4_ground_truth(self):
        got = [t.wolfram for t in exhaustive_injective(4)]
        assert got == INJECTIVE_D4
        triv = {t.wolfram for t in trivial_tables(4)}
        nontriv = set(got) - triv
        assert len(triv) == 8 and len(nontriv) == 8
        # the induced rules and their output complements partition the rest
        comp = {(1 << 16) - 1 - w for w in INDUCED_D4}
        assert nontriv == INDUCED_D4 | comp

    def test_diameter_4_excluding_trivial(self):
        got = {t.wolfram for t in exhaustive_injective(4, exclude_trivial=True)}
        assert len(got) == 8 and INDUCED_D4 <= got

    def test_pattern_induced_matches_sweep_subset(self):
        induced = {induce(build_mixture([p])).wolfram
                   for p in generate_all_patterns(4)}
        assert induced == INDUCED_D4

    def test_refusals(self):
        # raised at the call, not at the first iteration: the result is a list
        for d in (-1, 0, 6, 7):
            with pytest.raises(ValueError, match="exhaustive sweep"):
                exhaustive_injective(d)

    @pytest.mark.parametrize("d, unit", [(0, (0, 1)), (6, (0, 0, 1)), (-1, (0, 1)),
                                         (7, (0, 0, 1))])
    def test_scan_unit_refuses_before_any_allocation(self, d, unit):
        """A unit of a diameter outside 1..MAX_SWEEP_DIAMETER raises before
        anything is built: at D = 6 the popcount classes of the 32-bit halves
        would take 32 GiB, and at D = 0 the shifts would go negative."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exhaustive sweep"):
                scan_unit(d, unit)
            with pytest.raises(ValueError, match="exhaustive sweep"):
                sweep_units(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_sweep_units_of_each_diameter(self, d):
        """Ranges of sweep_chunks below MAX_SWEEP_DIAMETER, then the blocks
        of balanced_sweep_blocks; their scans find every injective table."""
        units = sweep_units(d)
        assert units == (sweep_chunks(d) if d < injectivity.MAX_SWEEP_DIAMETER
                         else balanced_sweep_blocks(d))
        known = {3: INJECTIVE_D3, 4: INJECTIVE_D4, 5: sorted(_d5_reference())}
        expected = known[d] if d in known else [
            w for w in range(1 << (1 << d)) if debruijn_injective(from_wolfram(d, w)).injective]
        assert sorted(w for unit in units for w in scan_unit(d, unit)) == expected


class TestBalancedBlocks:
    """The partition of the balanced tables that D=5 checkpoints count in."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_blocks_cover_the_balanced_tables(self, d):
        width = 1 << (d - 1)
        blocks = balanced_sweep_blocks(d)
        covered = sum((e - s) * math.comb(width, width - j) for j, s, e in blocks)
        assert covered == math.comb(2 * width, width)
        if d <= 4:
            # materialize each block whole, as the product of its halves
            by = _masks_by_popcount(width)
            tables = []
            for j, s, e in blocks:
                block = ((by[j][s:e, None] << np.uint64(width)) | by[width - j][None, :]).ravel()
                # the key-wise build keeps exactly the tables that permute the
                # words of periods 1 to 4
                passing = [w for w in block.tolist() if _brute_permutes(d, w, _KEY_STAGE)]
                assert sorted(_block_tables(d, (j, s, e)).tolist()) == sorted(passing)
                tables += block.tolist()
            assert len(set(tables)) == len(tables) == covered
            assert set(tables) == {w for w in range(1 << (2 * width))
                                   if bin(w).count("1") == width}

    def test_diameter_5(self):
        blocks = balanced_sweep_blocks(5)
        assert len(blocks) == 156
        assert sum((e - s) * math.comb(16, 16 - j) for j, s, e in blocks) == 601_080_390

    def test_diameter_5_key_matrix(self):
        """passes[upper key, lower key] against brute.is_permutation at
        periods 1 to 4: every passing pair and a sample of the others, each
        as a table whose bits outside the keys are random."""
        lower, upper, passes = _half_keys(5)
        assert lower.tolist() == [0, 2, 4, 6, 8, 9, 10, 12, 13, 14]
        assert upper.tolist() == [1, 2, 3, 5, 6, 7, 9, 11, 13, 15]
        rng = random.Random(45)
        failing = np.argwhere(~passes).tolist()
        pairs = np.argwhere(passes).tolist() + rng.sample(failing, 1500)
        for ku, kl in pairs:
            w = rng.getrandbits(32)
            for k in range(10):
                for key, p in ((kl, lower[k]), (ku, 16 + upper[k])):
                    w = w & ~(1 << int(p)) | (key >> k & 1) << int(p)
            assert passes[ku, kl] == _brute_permutes(5, w, _KEY_STAGE), (ku, kl, w)
        assert np.count_nonzero(passes) == 6976

    def test_key_matrix_is_the_and_of_its_periods(self):
        """At D=4, where the keys are the whole halves, every cell of the
        matrix is brute permutation of the words of periods 3 and 4.  At
        D=5, every cell equals the AND of the period-3 and the period-4
        filter, each run on the table whose bits at the keys' positions are
        the cell's keys and whose other bits are 0."""
        passes = _half_keys(4)[2].ravel()
        expected = [_brute_permutes(4, w, (3, 4)) for w in range(1 << 16)]
        assert passes.tolist() == expected and expected.count(True) == 544
        lower, upper, passes = _half_keys(5)
        spread = [np.zeros(1 << 10, dtype=np.uint64) for _ in range(2)]
        for k in range(10):
            for half, p in zip(spread, (lower[k], 16 + upper[k])):
                half |= (np.arange(1 << 10, dtype=np.uint64) >> np.uint64(k) & np.uint64(1)) \
                    << np.uint64(p)
        probes = (spread[1][:, None] | spread[0][None, :]).ravel()
        own = {n: _permutes_period(probes, 5, n).reshape(passes.shape) for n in (3, 4)}
        assert np.array_equal(passes, own[3] & own[4])
        assert [np.count_nonzero(m) for m in (own[3], own[4], passes)] == [147456, 24576, 6976]


class TestBitTests:
    """The filter chain of every sweep unit, on pairs of table halves:
    balance and the half keys (periods 1 to 4), periods 5, 6 and 7,
    then the decision; brute balance and brute.is_permutation are the
    oracle."""

    @staticmethod
    def _funnel(monkeypatch):
        """Tables that reach the chain's tail (after the keys, and so
        balanced) and the decision, and the count that passes each period
        filter of the tail, filled by the scans that follow.  The chain's
        survivors below D = 5 are cached per diameter, so the cache is
        cleared: a chain that ran before the spies would not be counted."""
        keyed, decided, passed = [], [], {n: 0 for n in injectivity._FILTER_PERIODS}
        tail, decide, covers = (injectivity._chain, injectivity.debruijn_injective,
                                injectivity._covers)

        def spy_tail(d, lower, upper, pairs):
            keyed.extend(((upper.values[pairs[1]] << np.uint64(1 << (d - 1)))
                          | lower.values[pairs[0]]).tolist())
            return tail(d, lower, upper, pairs)

        def spy_decide(rt):
            decided.append(rt.wolfram)
            return decide(rt)

        def spy_covers(d, n, rows):
            mask = covers(d, n, rows)
            if n in passed:
                passed[n] += int(np.count_nonzero(mask))
            return mask

        monkeypatch.setattr(injectivity, "_chain", spy_tail)
        monkeypatch.setattr(injectivity, "debruijn_injective", spy_decide)
        monkeypatch.setattr(injectivity, "_covers", spy_covers)
        injectivity._chain_survivors.cache_clear()
        return keyed, decided, passed

    @staticmethod
    def _brute_passes(d, w):
        """Balanced and permuting the words of periods 1 to 7, by bit count
        and brute.is_permutation."""
        return bin(w).count("1") == 1 << (d - 1) and _brute_permutes(d, w, range(1, 8))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chain_on_every_table(self, monkeypatch, d):
        _, decided, _ = self._funnel(monkeypatch)
        found = [w for unit in sweep_chunks(d) for w in scan_unit(d, unit)]
        expected = [w for w in range(1 << (1 << d)) if self._brute_passes(d, w)]
        assert decided == expected
        assert found == [w for w in expected if debruijn_injective(from_wolfram(d, w)).injective]

    def test_chain_on_a_diameter_4_sample(self, monkeypatch):
        """Ranges of 256 tables: four at random and four around injective
        tables, so that the later filters and the decision see tables."""
        _, decided, _ = self._funnel(monkeypatch)
        rng = random.Random(404)
        starts = ([rng.randrange(1 << 16) for _ in range(4)]
                  + [w - rng.randrange(256) for w in rng.sample(INJECTIVE_D4, 4)])
        expected = []
        for lo in (min(max(0, s), (1 << 16) - 256) for s in starts):
            assert scan_unit(4, (lo, lo + 256)) == [w for w in INJECTIVE_D4 if lo <= w < lo + 256]
            expected += [w for w in range(lo, lo + 256) if self._brute_passes(4, w)]
        assert decided == expected and len(expected) >= 4

    def test_diameter_4_funnel(self, monkeypatch):
        """65,536 tables, 544 balanced with passing keys (periods 1 to 4), 48
        left after period 5, 20 after period 6 and 16 after period 7: the
        decision sees only the injective tables, since period 7 drops the 4
        that are not (23205, 26265, 39270 and 42330).  Each count is that of
        the balanced tables filtered one stage at a time by
        brute.is_permutation.  The chain runs once, for the first chunk, and
        every chunk decides its own survivors."""
        keyed, decided, passed = self._funnel(monkeypatch)
        chunks = sweep_chunks(4)
        assert sum(hi - lo for lo, hi in chunks) == 1 << 16
        found = [w for unit in chunks for w in scan_unit(4, unit)]
        funnel = (len(keyed), passed[5], passed[6], passed[7], len(decided))
        left = [w for w in range(1 << 16)
                if bin(w).count("1") == 8 and _brute_permutes(4, w, _KEY_STAGE)]
        assert sorted(keyed) == left
        expected = [len(left)]
        for n in (5, 6, 7):
            left = [w for w in left if _brute_permutes(4, w, (n,))]
            expected.append(len(left))
        assert funnel == (*expected, len(left)) == (544, 48, 20, 16, 16)
        assert found == decided == left == INJECTIVE_D4

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_survivors_of_each_diameter(self, d):
        """The survivors of the chain, cached per diameter below 5: the
        tables that are balanced and permute the words of periods 1 to 7 by
        brute.is_permutation."""
        injectivity._chain_survivors.cache_clear()
        got = injectivity._chain_survivors(d)
        assert got.dtype == np.uint64
        assert got.tolist() == [w for w in range(1 << (1 << d)) if self._brute_passes(d, w)]

    def test_unaligned_chunks(self, monkeypatch):
        """scan_unit on ranges off the grid of sweep_chunks: the
        benchmark's warm-up range, ranges that cross the boundary of an
        upper half (a multiple of 256) or several, one upper half, the whole
        space and an empty range.  Each returns the injective tables in
        range, built first from an unaligned range, and each decides its
        survivors anew, the second time as the first."""
        calls = []
        decide = injectivity.debruijn_injective
        monkeypatch.setattr(injectivity, "debruijn_injective",
                            lambda rt: calls.append(rt.wolfram) or decide(rt))
        injectivity._chain_survivors.cache_clear()
        ranges = [(0, 64), (100, 5000), (65000, 65536), (250, 260), (3800, 3920), (255, 256),
                  (256, 512), (13000, 14700), (0, 1 << 16), (42, 42)]
        for _ in range(2):
            for lo, hi in ranges:
                expected = [w for w in INJECTIVE_D4 if lo <= w < hi]
                assert scan_unit(4, (lo, hi)) == expected, (lo, hi)
        inside = [[w for w in INJECTIVE_D4 if lo <= w < hi] for lo, hi in ranges]
        assert calls == 2 * [w for ws in inside for w in ws]
        assert list(map(len, inside)) == [0, 3, 1, 1, 2, 1, 0, 3, 16, 0]

    def test_diameter_5_funnel(self, monkeypatch, capsys):
        """Tables left after each stage of the chain on benchmark-shaped D=5
        blocks (about 2^18 tables), two around reference tables and one
        without:
        after the keys, after periods 5, 6 and 7, and decided.  Each count
        equals that of the block's whole product filtered one period at a
        time by _permutes_period, and the funnel of each block is printed."""
        reference = _d5_reference()
        keyed, decided, passed = self._funnel(monkeypatch)
        blocks = [(8, 2218, 2238), (8, 10615, 10635), (6, 0, 32)]
        assert [bool(_d5_inside(reference, b)) for b in blocks] == [True, True, False]
        by = _masks_by_popcount(16)
        funnels = []
        for block in blocks:
            keyed.clear(), decided.clear()
            passed.update((n, 0) for n in passed)
            found = scan_unit(5, block)
            funnel = [len(keyed), passed[5], passed[6], passed[7], len(decided)]
            j, s, e = block
            tables = ((by[j][s:e, None] << np.uint64(16)) | by[16 - j][None, :]).ravel()
            expected = []
            for periods in (_KEY_STAGE, (5,), (6,), (7,)):
                for n in periods:
                    tables = tables[_permutes_period(tables, 5, n)]
                expected.append(tables.size)
            assert funnel == expected + [tables.size], block
            assert found == _d5_inside(reference, block) and set(found) <= set(decided)
            funnels.append(funnel)
            with capsys.disabled():
                print(f"\nD=5 block {block}: " + " -> ".join(map(str, funnel)))
        assert funnels == FUNNELS_D5

    def test_diameter_5_blocks_find_the_reference_tables(self):
        """scan_unit on 2^18-table D=5 blocks, shaped like the benchmark's:
        one around each of the 62 injective tables of perfbench/reference.json
        and three that hold none of them."""
        reference = _d5_reference()
        assert len(reference) == 62
        for w in reference:
            block = _d5_block_around(w)
            found = scan_unit(5, block)
            assert w in found and found == _d5_inside(reference, block), (w, block)
        empty = []
        for j in (6, 8, 10):
            block = next(b for b in (_d5_block_at(j, s) for s in range(0, math.comb(16, j), 64))
                         if not _d5_inside(reference, b))
            empty.append(scan_unit(5, block))
        assert empty == [[], [], []]


def _d5_reference():
    return json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "reference.json").read_text())["d5_injective"]


def _d5_place(w):
    """Stratum and rank of the upper half of a D=5 table among the 16-bit
    values of its popcount, in ascending order (combinatorial number
    system)."""
    ones = [p for p in range(16) if (w >> 16) >> p & 1]
    return len(ones), sum(math.comb(p, k) for k, p in enumerate(ones, 1))


def _d5_block_at(j, start):
    """The block of about 2^18 tables of stratum j that starts at the upper
    half of the given rank, as far as the stratum allows."""
    size = math.comb(16, j)
    width = max(1, (1 << 18) // size)
    s = max(0, min(start, size - width))
    return j, s, min(s + width, size)


def _d5_block_around(w):
    """The block of about 2^18 tables centred on the upper half of a
    table."""
    j, rank = _d5_place(w)
    return _d5_block_at(j, rank - (1 << 18) // math.comb(16, j) // 2)


def _d5_inside(reference, block):
    j, s, e = block
    return sorted(w for w in reference if _d5_place(w)[0] == j and s <= _d5_place(w)[1] < e)


class TestLongSweep:
    def test_diameter_5_balanced_sweep(self, d5_nontrivial_sweep):
        got = set(d5_nontrivial_sweep)
        # raw truth: 52 nontrivial tables closed under output complement
        assert len(got) == 52
        mask = (1 << 32) - 1
        assert all((mask ^ w) in got for w in got)
        induced = set()
        for p in list(generate_all_patterns(5)) + list(enumerate_extended(5)):
            induced.add(induce(build_mixture([p])).wolfram)
        assert len(induced) == 22
        assert induced <= got
