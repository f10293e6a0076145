import random
import tracemalloc

import numpy as np
import pytest

import brute
from revca.engine import space_time
from revca.patterns import MixtureSet, build_mixture, generate_all_patterns
from revca.rules import (
    FlipCollisionError,
    RuleTable,
    _wolfram_of,
    classify_trivial,
    complement_table,
    from_wolfram,
    induce,
    is_balanced,
    projection_table,
    rule_from_json,
    rule_to_json,
    table_hex,
    trivial_tables,
)

# size-3 neighborhood rows of the rule numbered 240: output equals the left cell
RULE_240_ROWS = {
    "111": 1, "110": 1, "101": 1, "100": 1,
    "011": 0, "010": 0, "001": 0, "000": 0,
}


class TestTrivialTables:
    def test_projection_wolframs(self):
        assert projection_table(3, 0).wolfram == 240
        assert projection_table(3, 1).wolfram == 204
        assert projection_table(1, 0).wolfram == 2

    def test_complement_wolframs(self):
        assert complement_table(3, 1).wolfram == 51
        assert complement_table(3, 0).wolfram == 15
        assert complement_table(1, 0).wolfram == 1

    def test_projection_by_direct_summation(self):
        # independent route: sum 2^v over windows whose cell j is set
        for d in range(1, 7):
            for j in range(d):
                expect = sum(
                    1 << v for v in range(1 << d)
                    if format(v, f"0{d}b")[j] == "1")
                assert projection_table(d, j).wolfram == expect
                assert complement_table(d, j).wolfram == \
                    (1 << (1 << d)) - 1 - expect

    def test_projection_5_1(self):
        assert projection_table(5, 1).wolfram == 4278255360

    def test_count_and_distinctness(self):
        for d in range(1, 7):
            tables = trivial_tables(d)
            assert len(tables) == 2 * d
            assert len(set(tables)) == 2 * d

    def test_range_checks(self):
        with pytest.raises(ValueError):
            projection_table(3, 3)
        with pytest.raises(ValueError):
            complement_table(3, -1)


class TestWolfram:
    def test_table_1_fixture(self):
        rt = from_wolfram(3, 240)
        for window, out in RULE_240_ROWS.items():
            assert rt.bits[int(window, 2)] == out

    def test_zero(self):
        assert from_wolfram(3, 0).bits.tolist() == [0] * 8

    def test_round_trip_exhaustive_small(self):
        for d in (1, 2, 3):
            for w in range(1 << (1 << d)):
                assert from_wolfram(d, w).wolfram == w

    @pytest.mark.parametrize("d", range(1, 17))
    def test_bits_round_trip(self, d):
        """bits unpacks the number, one uint8 per window value, and
        _wolfram_of packs it back; D = 1 and 2 hold fewer than 8 bits.  The
        record of each table reads back as the table."""
        n = 1 << d
        for w in (0, (1 << n) - 1, 1 << (n - 1), random.Random(d).getrandbits(n)):
            rt = RuleTable(d, w, 0)
            bits = rt.bits
            assert bits.dtype == np.uint8 and bits.shape == (n,)
            assert bits.tolist() == [(w >> v) & 1 for v in range(n)]
            assert _wolfram_of(bits) == w
            assert rule_from_json(rule_to_json(rt)) == (rt, ())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_wolfram(3, 256)
        with pytest.raises(ValueError):
            from_wolfram(3, -1)

    def test_arbitrary_precision(self):
        w = (1 << 256) - 2
        rt = from_wolfram(8, w)
        assert rt.wolfram == w
        assert len(table_hex(rt)) == 64

    def test_diameter_limit(self, monkeypatch):
        from revca import patterns
        assert patterns.MAX_DIAMETER == 16
        assert from_wolfram(16, 1).wolfram == 1
        for d in (0, 17, 64):
            # 1 << (1 << 64) would raise MemoryError; the limit comes first
            with pytest.raises(ValueError, match=r"outside 1\.\.16"):
                from_wolfram(d, 1)


class TestSerialization:
    def test_round_trip(self):
        rt = induce(build_mixture(["0X011"]))
        obj = rule_to_json(rt, ("0X011",))
        back, provenance = rule_from_json(obj)
        assert back == rt and back.anchor == rt.anchor
        assert provenance == ("0X011",)

    def test_hex_decimal_must_agree(self):
        obj = rule_to_json(from_wolfram(3, 240))
        obj["table_hex"] = "0f"
        with pytest.raises(ValueError):
            rule_from_json(obj)

    def test_round_trip_past_the_int_string_limit(self):
        """A D=16 record has a 19,729-digit wolfram_decimal; str(int) and
        int(str) refuse more than 4300 digits."""
        rt = induce(build_mixture(["0X011" + "a" * 11]))
        obj = rule_to_json(rt)
        assert len(obj["wolfram_decimal"]) > 4300
        assert int(obj["table_hex"], 16) == rt.wolfram
        assert rule_from_json(obj)[0] == rt
        assert repr(rt).startswith("RuleTable(diameter=16, wolfram=")

    def test_hex_layout(self):
        assert table_hex(from_wolfram(3, 240)) == "f0"
        assert table_hex(from_wolfram(1, 1)) == "1"


class TestRuleTable:
    def test_anchor_excluded_from_identity(self):
        a = from_wolfram(4, 61620, anchor=0)
        b = from_wolfram(4, 61620, anchor=3)
        assert a == b and hash(a) == hash(b)
        assert a != from_wolfram(4, 61621)

    def test_anchor_has_no_default(self):
        """Equal tables at anchors 0 and 1 step 0001000 apart, so a table is
        built with its anchor; from_wolfram's default is (D-1)//2."""
        with pytest.raises(TypeError):
            RuleTable(3, 110)
        at_0, at_1 = RuleTable(3, 110, 0), from_wolfram(3, 110)
        assert at_0 == at_1 and at_1.anchor == 1
        assert space_time(at_0, "0001000", 1)[1] == "0110000"
        assert space_time(at_1, "0001000", 1)[1] == "0011000"

    def test_validation(self):
        RuleTable(3, 255, anchor=2)
        for w in (256, -1):
            with pytest.raises(ValueError, match="not an int in range"):
                RuleTable(3, w, 0)
        with pytest.raises(ValueError, match="anchor 3 out of range"):
            RuleTable(3, 240, anchor=3)
        # an int subtype or a numpy scalar is no Wolfram number
        for w in (np.uint8(1), np.uint64(240), True):
            with pytest.raises(ValueError, match="not an int in range"):
                RuleTable(3, w, 0)
        # the diameter is checked before the number: at D = 64 the bound
        # 1 << (1 << 64) could not be built
        for d in (0, 17, 64):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"outside 1\.\.16"):
                    RuleTable(d, 1, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, d


class TestInduce:
    def test_single_pattern_example(self):
        rt = induce(build_mixture(["0X011"]))
        assert (rt.diameter, rt.anchor) == (5, 1)
        base = projection_table(5, 1)
        flipped = [v for v in range(32) if rt.bits[v] != base.bits[v]]
        assert flipped == [0b00011, 0b01011]
        assert rt.wolfram == 4278253320

    def test_extended_pattern_example(self):
        rt = induce(build_mixture(["10X1a"]))
        assert (rt.diameter, rt.anchor) == (5, 2)
        base = projection_table(5, 2)
        flipped = [v for v in range(32) if rt.bits[v] != base.bits[v]]
        assert flipped == [0b10010, 0b10011, 0b10110, 0b10111]
        assert rt.wolfram == 4030525680

    def test_single_flip_gives_global_complement(self):
        rt = induce(build_mixture(["X"]))
        assert rt.wolfram == 1
        assert classify_trivial(rt) == "complement(0)"

    def test_matches_direct_construction(self):
        for d in range(3, 7):
            for p in generate_all_patterns(d):
                m = build_mixture([p])
                assert induce(m).bits.tolist() == \
                    brute.induced_bits(m.members, d, m.anchor)

    def test_mixture_matches_direct_construction(self):
        m = build_mixture(["10X111", "a0X10a"])
        assert induce(m).bits.tolist() == brute.induced_bits(m.members, 6, 2)

    def test_flip_count(self):
        for text in ("0X011", "10X1a", "a0X011aa"):
            m = build_mixture([text])
            rt = induce(m)
            base = projection_table(m.diameter, m.anchor)
            diff = sum(a != b for a, b in zip(rt.bits.tolist(), base.bits.tolist()))
            p = m.members[0]
            assert diff == 1 << (len(p) - len(p.strip("a")) + 1)

    def test_collision_aborts(self):
        # bypass validation: these templates both claim windows 10010 and 10110
        bogus = MixtureSet(("10X1a", "a0X10"), 5, 2)
        with pytest.raises(FlipCollisionError,
                           match="window 10110 claimed by both 10X1a and a0X10"):
            induce(bogus)

    def test_induced_rules_are_balanced(self):
        for d in range(3, 7):
            for p in generate_all_patterns(d):
                assert is_balanced(induce(build_mixture([p])))


class TestBalanceAndTriviality:
    def test_balance_examples(self):
        assert is_balanced(from_wolfram(3, 240))
        assert not is_balanced(from_wolfram(3, 0))

    def test_classify_examples(self):
        assert classify_trivial(from_wolfram(3, 240)) == "projection(0)"
        assert classify_trivial(from_wolfram(3, 51)) == "complement(1)"
        assert classify_trivial(induce(build_mixture(["0X10"]))) == "nontrivial"

    def test_classify_all_trivials(self):
        for d in range(1, 7):
            for j in range(d):
                assert classify_trivial(projection_table(d, j)) \
                    == classify_trivial(from_wolfram(d, projection_table(d, j).wolfram))
                assert classify_trivial(projection_table(d, j)) == f"projection({j})"
                assert classify_trivial(complement_table(d, j)) == f"complement({j})"

    def test_nontrivial(self):
        assert classify_trivial(from_wolfram(3, 90)) == "nontrivial"
