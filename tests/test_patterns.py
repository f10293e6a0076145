import itertools
import json
from pathlib import Path

import pytest

import brute
from revca.patterns import (
    MAX_DIAMETER,
    InputError,
    MixtureError,
    build_mixture,
    enumerate_extended,
    extend,
    generate_all_patterns,
    generate_injective_patterns,
    independent,
    template,
)

PATTERN_COUNTS = {3: 0, 4: 4, 5: 14, 6: 52, 7: 148, 8: 408, 9: 1040, 10: 2556}
EXTENDED_COUNTS = {3: 0, 4: 0, 5: 8, 6: 40, 7: 162, 8: 528, 9: 1562, 10: 4268}


class TestParse:
    def test_plain_core(self):
        assert template("0X011") == (0b00011, 0b10111, 1)

    def test_single_flip(self):
        assert template("X") == (0, 0, 0)

    def test_extended(self):
        assert template("a0X011aa") == (0b00011 << 2, 0b10111 << 2, 2)

    def test_anchor_is_the_flip_cell(self):
        for text in ("X", "0X011", "a0X011aa", "aaX", "Xa"):
            assert template(text)[2] == text.index("X")

    @pytest.mark.parametrize("text", ["", "0011", "0XX1", "0Xa1", "a0aX", "0X2"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            template(text)


class TestTemplate:
    def test_matching_windows_are_the_expansion(self):
        texts = ["".join(t) for n in range(1, 5) for t in itertools.product("01Xa", repeat=n)]
        checked = 0
        for text in texts + ["a0X011aa", "10X1a", "aXa"]:
            try:
                value, care, _ = template(text)
            except InputError:
                continue
            windows = {format(w, f"0{len(text)}b")
                       for w in range(1 << len(text)) if w & care == value}
            assert windows == set(brute.expand(text)), text
            checked += 1
        assert checked == 1 + 6 + 23 + 72 + 3  # patterns of length 1..4, then the three


class TestInjectivePattern:
    def test_known_patterns(self):
        for core in ("0X011", "0X110", "1X001", "1X100", "10X1"):
            assert independent(core, core)

    def test_counterexample_with_witness(self):
        assert not independent("0X0", "0X0")
        with pytest.raises(MixtureError, match="at shift 1$"):
            build_mixture(["0X0"])
        # the witness shift is genuinely realizable
        assert 1 in brute.interference_offsets("0X0", "0X0")

    def test_vacuous_single_flip(self):
        assert independent("X", "X")

    def test_rejects_wildcards(self):
        with pytest.raises(InputError):
            independent("a0X011", "a0X011")

    def test_matches_brute_force(self):
        import itertools
        for d in range(1, 8):
            for left in range(d):
                right = d - 1 - left
                for fill in itertools.product("01", repeat=d - 1):
                    core = "".join(fill[:left]) + "X" + "".join(fill[left:])
                    assert independent(core, core) == \
                        (not brute.interference_offsets(core, core)), core


class TestGeneration:
    def test_radii_1_3(self):
        got = [str(p) for p in generate_injective_patterns(1, 3)]
        assert got == ["0X011", "0X110", "1X001", "1X100"]

    def test_radii_1_1_empty(self):
        assert generate_injective_patterns(1, 1) == ()

    def test_radii_2_2(self):
        got = [str(p) for p in generate_injective_patterns(2, 2)]
        assert got == ["00X10", "01X00", "01X01", "10X10", "10X11", "11X01"]

    def test_counts(self):
        for d, n in PATTERN_COUNTS.items():
            assert len(generate_all_patterns(d)) == n

    def test_counts_match_the_reference(self):
        reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                                / "reference.json").read_text())
        for d in range(11, 15):
            assert len(generate_all_patterns(d)) == reference["pattern_counts"][str(d)]
        for d in (11, 12):
            assert len(enumerate_extended(d)) == reference["extended_counts"][str(d)]

    def test_diameter_limit(self):
        assert generate_injective_patterns(0, MAX_DIAMETER - 1) == ()
        for call in (lambda: generate_all_patterns(MAX_DIAMETER + 1),
                     lambda: generate_injective_patterns(8, MAX_DIAMETER - 8),
                     lambda: enumerate_extended(MAX_DIAMETER + 1),
                     lambda: generate_all_patterns(0),
                     lambda: build_mixture(["0X011" + "a" * (MAX_DIAMETER - 4)])):
            with pytest.raises(InputError, match=r"outside 1\.\.16"):
                call()
        assert build_mixture(["0X011" + "a" * (MAX_DIAMETER - 5)]).diameter == MAX_DIAMETER

    def test_all_generated_are_injective(self):
        for d in range(1, 8):
            for p in generate_all_patterns(d):
                assert independent(p, p)

    def test_mirror_symmetry(self):
        for left, right in ((1, 3), (2, 2), (1, 4), (3, 2)):
            fwd = {str(p) for p in generate_injective_patterns(left, right)}
            rev = {str(p)[::-1] for p in generate_injective_patterns(right, left)}
            assert fwd == rev

    def test_complement_closure(self):
        comp = str.maketrans("01", "10")
        for d in range(3, 8):
            got = {str(p) for p in generate_all_patterns(d)}
            assert got == {s.translate(comp) for s in got}

    def test_edge_radii_always_fail_beyond_single_cell(self):
        for d in (2, 3, 4, 5):
            assert generate_injective_patterns(0, d - 1) == ()
            assert generate_injective_patterns(d - 1, 0) == ()


class TestExtend:
    def test_examples(self):
        assert str(extend("10X1", 0, 1)) == "10X1a"
        assert str(extend("0X011", 1, 2)) == "a0X011aa"
        assert extend("0X011", 0, 0) == "0X011"

    def test_anchor_shift(self):
        p = extend("0X011", 3, 1)
        assert template(p)[2] == 4 and len(p) == 9

    def test_counts(self):
        for d, n in EXTENDED_COUNTS.items():
            assert len(enumerate_extended(d)) == n

    def test_count_identity(self):
        # count(D) equals sum over smaller diameters of placements * cores
        for d in range(3, 11):
            expect = sum((d - c + 1) * len(generate_all_patterns(c))
                         for c in range(2, d))
            assert len(enumerate_extended(d)) == expect

    def test_order_is_the_total_key(self):
        # expected output from the brute-force oracle: every stable core of
        # each size, padded in every placement, sorted by (anchor, core value
        # with X read as 0, core size, flip cell's position in the core)
        def key(core):
            return core.index("X"), int(core.replace("X", "0"), 2)

        cores = {}
        for size in range(1, 11):
            cores[size] = [c for left in range(size)
                           for fill in itertools.product("01", repeat=size - 1)
                           for c in ["".join(fill[:left]) + "X" + "".join(fill[left:])]
                           if not brute.interference_offsets(c, c)]
            assert [str(p) for p in generate_all_patterns(size)] == sorted(cores[size], key=key)
        for d in range(1, 11):
            expect = sorted((key(c)[0] + k, key(c)[1], size, key(c)[0],
                             "a" * k + c + "a" * (d - size - k))
                            for size in range(2, d) for c in cores[size]
                            for k in range(d - size + 1))
            assert [str(p) for p in enumerate_extended(d)] == [e[-1] for e in expect], d

    def test_placement_examples(self):
        assert len(enumerate_extended(5)) == 2 * len(generate_all_patterns(4))
        assert len(enumerate_extended(6)) == \
            3 * len(generate_all_patterns(4)) + 2 * len(generate_all_patterns(5))


class TestIndependence:
    def test_self_pair_reduces_to_injectivity(self):
        assert independent("0X011", "0X011")
        assert not independent("0X0", "0X0")

    def test_known_rejections(self):
        assert not independent("0X011", "1X100")
        assert not independent("0X011", "0X110")

    def test_equals_brute_force_over_small_cores(self):
        # both argument orders: the placement rule is symmetric
        pool = []
        for d in range(1, 7):
            pool.extend(str(p) for p in generate_all_patterns(d))
        for a in pool:
            for b in pool:
                if a == b:
                    continue
                assert independent(a, b) == (not brute.cores_conflict(a, b)), (a, b)


class TestMixtures:
    def test_singleton(self):
        m = build_mixture(["0X011"])
        assert m.diameter == 5 and m.anchor == 1 and len(m.members) == 1

    def test_duplicates_collapse(self):
        m = build_mixture(["0X011", "0X011"])
        assert len(m.members) == 1

    def test_rejects_dependent_pair(self):
        with pytest.raises(MixtureError) as err:
            build_mixture(["0X011", "0X110"])
        assert err.value.clause == "independence"
        assert err.value.pair is not None
        assert {str(p) for p in err.value.pair} == {"0X011", "0X110"}

    def test_rejects_anchor_mismatch(self):
        with pytest.raises(MixtureError) as err:
            build_mixture(["0X1001", "01X001"])
        assert err.value.clause == "anchor"

    def test_rejects_diameter_mismatch(self):
        with pytest.raises(MixtureError) as err:
            build_mixture(["0X011", "10X1"])
        assert err.value.clause == "diameter"

    def test_rejects_unstable_member(self):
        with pytest.raises(MixtureError) as err:
            build_mixture(["a0X0a"])
        assert err.value.clause == "self-stability"

    def test_rejects_empty(self):
        with pytest.raises(MixtureError):
            build_mixture([])

    def test_known_two_member_mixture(self):
        m = build_mixture(["10X111", "a0X10a"])
        assert m.diameter == 6 and m.anchor == 2 and len(m.members) == 2

    def test_two_member_mixture_exists_at_diameter_6(self):
        pool = [p for p in generate_all_patterns(6)]
        pool += [p for p in enumerate_extended(6)]
        found = None
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                try:
                    found = build_mixture([a, b])
                except MixtureError:
                    continue
                break
            if found:
                break
        assert found is not None and len(found.members) == 2

    def test_shared_window_pair_rejected(self):
        # cores 10X1 and 0X10 agree around the flip cell, so the window 10X10
        # would match both members and their flip entries would collide
        with pytest.raises(MixtureError) as err:
            build_mixture(["10X1a", "a0X10"])
        assert err.value.clause == "independence"
