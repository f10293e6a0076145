import math
import os
import random

import numpy as np
import pytest

import brute
from revca.engine import step
from revca.injectivity import (
    Sweep,
    _masks_by_popcount,
    _sweep_workers,
    balanced_sweep_blocks,
    debruijn_injective,
    decide,
    exhaustive_injective,
    periodic_bijective,
)
from revca.patterns import build_mixture, enumerate_extended, generate_all_patterns
from revca.rules import (
    from_wolfram,
    induce,
    to_wolfram,
    trivial_tables,
)

# ground truth established by three independent routes (pair graph, direct
# permutation checks, output-complement closure): every injective table of
# diameters 3 and 4
INJECTIVE_D3 = [15, 51, 85, 170, 204, 240]
INJECTIVE_D4 = [255, 3855, 3915, 11535, 13107, 13155, 14643, 21845,
                43690, 50892, 52380, 52428, 54000, 61620, 61680, 65280]
INDUCED_D4 = {50892, 52380, 54000, 61620}


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
        assert debruijn_injective(from_wolfram(1, 2)).injective
        assert debruijn_injective(from_wolfram(1, 1)).injective
        assert not debruijn_injective(from_wolfram(1, 0)).injective

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
            # left-right window reflection
            refl = [0] * (1 << d)
            for v in range(1 << d):
                rv = int(format(v, f"0{d}b")[::-1], 2)
                refl[rv] = rt.bits[v]
            assert debruijn_injective(
                from_wolfram(d, sum(b << v for v, b in enumerate(refl)))).injective == base
            # complement conjugation: flip inputs and output
            conj = [1 - rt.bits[(~v) & ((1 << d) - 1)] for v in range(1 << d)]
            assert debruijn_injective(
                from_wolfram(d, sum(b << v for v, b in enumerate(conj)))).injective == base


class TestDecide:
    def test_matches_tarjan_oracle(self):
        """decide against the SCC oracle of tests/brute.py on every table of
        diameter <= 4, on the 1,364 induced tables of diameters 3..8 and on
        one-swap perturbations of them; accepted tables must also permute
        all short periodic words, and a mixed batch must be decided as each
        of its tables alone."""
        for d in range(1, 5):
            tables = [[(w >> v) & 1 for v in range(1 << d)] for w in range(1 << (1 << d))]
            got = decide(d, np.array(tables)).tolist()
            assert got == [brute.tarjan_injective(t, d) for t in tables]
        assert sum(got) == len(INJECTIVE_D4)

        induced = {d: [list(induce(build_mixture([p])).bits)
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
            mixed = [(bits, True) for bits in tables] + [(bits, False) for bits in perturbed[d]]
            rng.shuffle(mixed)
            batch = np.array([bits for bits, _ in mixed], dtype=np.uint8).reshape(-1, 1 << d)
            verdicts = decide(d, batch).tolist()
            assert verdicts == [bool(decide(d, row)[0]) for row in batch]
            n_max = 12 if d <= 4 else 8
            for (bits, is_induced), injective in zip(mixed, verdicts):
                assert injective == brute.tarjan_injective(bits, d), (d, bits)
                assert injective or not is_induced, (d, bits)
                if injective:
                    assert all(brute.is_permutation(bits, d, 0, n)
                               for n in range(1, n_max + 1)), (d, bits)
        with pytest.raises(ValueError):
            decide(3, np.zeros((2, 16), dtype=np.uint8))


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
        from revca.engine import ExhaustiveBoundError
        with pytest.raises(ExhaustiveBoundError):
            periodic_bijective(from_wolfram(3, 204), 30)


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
        got = [to_wolfram(t) for t in exhaustive_injective(3)]
        assert got == INJECTIVE_D3
        assert list(exhaustive_injective(3, exclude_trivial=True)) == []

    def test_diameter_4_ground_truth(self):
        got = [to_wolfram(t) for t in exhaustive_injective(4)]
        assert got == INJECTIVE_D4
        triv = {to_wolfram(t) for t in trivial_tables(4)}
        nontriv = set(got) - triv
        assert len(triv) == 8 and len(nontriv) == 8
        # the induced rules and their output complements partition the rest
        comp = {(1 << 16) - 1 - w for w in INDUCED_D4}
        assert nontriv == INDUCED_D4 | comp

    def test_diameter_4_excluding_trivial(self):
        got = {to_wolfram(t) for t in exhaustive_injective(4, exclude_trivial=True)}
        assert len(got) == 8 and INDUCED_D4 <= got

    def test_pattern_induced_matches_sweep_subset(self):
        induced = {to_wolfram(induce(build_mixture([p])))
                   for p in generate_all_patterns(4)}
        assert induced == INDUCED_D4

    def test_refusals(self):
        with pytest.raises(ValueError):
            list(exhaustive_injective(6))
        with pytest.raises(ValueError):
            list(exhaustive_injective(5))  # needs allow_long
        with pytest.raises(ValueError):
            list(exhaustive_injective(0))


class TestBalancedBlocks:
    """The partition of the balanced tables that D=5 checkpoints count in."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_blocks_cover_the_balanced_tables(self, d):
        width = 1 << (d - 1)
        blocks = balanced_sweep_blocks(d)
        covered = sum((e - s) * math.comb(width, width - j) for j, s, e in blocks)
        assert covered == math.comb(2 * width, width)
        if d <= 4:
            # materialize each block as scan_balanced_block does
            by = _masks_by_popcount(width)
            tables = [int(t) for j, s, e in blocks
                      for t in ((by[j][s:e, None] << np.uint64(width))
                                | by[width - j][None, :]).ravel()]
            assert len(set(tables)) == len(tables) == covered
            assert set(tables) == {w for w in range(1 << (2 * width))
                                   if bin(w).count("1") == width}

    def test_diameter_5(self):
        blocks = balanced_sweep_blocks(5)
        assert len(blocks) == 156
        assert sum((e - s) * math.comb(16, 16 - j) for j, s, e in blocks) == 601_080_390


class TestSweepWorkers:
    """REVCA_THREADS resolution; no pool is started here."""

    def test_default_and_clamp(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        monkeypatch.delenv("REVCA_THREADS", raising=False)
        assert _sweep_workers() == 1
        monkeypatch.setenv("REVCA_THREADS", "1")
        assert _sweep_workers() == 1
        monkeypatch.setenv("REVCA_THREADS", str(cores))
        assert _sweep_workers() == cores
        monkeypatch.setenv("REVCA_THREADS", "100000")
        assert _sweep_workers() == cores
        assert Sweep(3).workers == cores

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", ""])
    def test_rejects_bad_values(self, monkeypatch, threads):
        monkeypatch.setenv("REVCA_THREADS", threads)
        with pytest.raises(ValueError, match="REVCA_THREADS"):
            _sweep_workers()
        with pytest.raises(ValueError, match="REVCA_THREADS"):
            list(exhaustive_injective(3))


@pytest.mark.slow
class TestLongSweep:
    def test_diameter_5_balanced_sweep(self, d5_nontrivial_sweep):
        got = set(d5_nontrivial_sweep)
        # raw truth: 52 nontrivial tables closed under output complement
        assert len(got) == 52
        mask = (1 << 32) - 1
        assert all((mask ^ w) in got for w in got)
        induced = set()
        for p in list(generate_all_patterns(5)) + list(enumerate_extended(5)):
            induced.add(to_wolfram(induce(build_mixture([p]))))
        assert len(induced) == 22
        assert induced <= got
