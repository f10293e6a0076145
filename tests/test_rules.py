import pytest

import brute
from revca.patterns import MixtureSet, build_mixture, generate_all_patterns
from revca.rules import (
    FlipCollisionError,
    RuleTable,
    classify_trivial,
    complement_table,
    from_wolfram,
    induce,
    is_balanced,
    projection_table,
    rule_from_json,
    rule_to_json,
    table_hex,
    to_wolfram,
    trivial_tables,
)

# size-3 neighborhood rows of the rule numbered 240: output equals the left cell
RULE_240_ROWS = {
    "111": 1, "110": 1, "101": 1, "100": 1,
    "011": 0, "010": 0, "001": 0, "000": 0,
}


class TestTrivialTables:
    def test_projection_wolframs(self):
        assert to_wolfram(projection_table(3, 0)) == 240
        assert to_wolfram(projection_table(3, 1)) == 204
        assert to_wolfram(projection_table(1, 0)) == 2

    def test_complement_wolframs(self):
        assert to_wolfram(complement_table(3, 1)) == 51
        assert to_wolfram(complement_table(3, 0)) == 15
        assert to_wolfram(complement_table(1, 0)) == 1

    def test_projection_by_direct_summation(self):
        # independent route: sum 2^v over windows whose cell j is set
        for d in range(1, 7):
            for j in range(d):
                expect = sum(
                    1 << v for v in range(1 << d)
                    if format(v, f"0{d}b")[j] == "1")
                assert to_wolfram(projection_table(d, j)) == expect
                assert to_wolfram(complement_table(d, j)) == \
                    (1 << (1 << d)) - 1 - expect

    def test_projection_5_1(self):
        assert to_wolfram(projection_table(5, 1)) == 4278255360

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
        assert from_wolfram(3, 0).bits == (0,) * 8

    def test_round_trip_exhaustive_small(self):
        for d in (1, 2, 3):
            for w in range(1 << (1 << d)):
                assert to_wolfram(from_wolfram(d, w)) == w

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_wolfram(3, 256)
        with pytest.raises(ValueError):
            from_wolfram(3, -1)

    def test_arbitrary_precision(self):
        w = (1 << 256) - 2
        rt = from_wolfram(8, w)
        assert to_wolfram(rt) == w
        assert len(table_hex(rt)) == 64

    def test_diameter_limit(self, monkeypatch):
        from revca import patterns
        assert patterns.MAX_DIAMETER == 16
        assert to_wolfram(from_wolfram(16, 1)) == 1
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
        assert int(obj["table_hex"], 16) == to_wolfram(rt)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleTable(3, (0,) * 7)
        with pytest.raises(ValueError):
            RuleTable(3, (0,) * 7 + (2,))
        with pytest.raises(ValueError):
            RuleTable(3, (0,) * 8, anchor=3)


class TestInduce:
    def test_single_pattern_example(self):
        rt = induce(build_mixture(["0X011"]))
        assert (rt.diameter, rt.anchor) == (5, 1)
        base = projection_table(5, 1)
        flipped = [v for v in range(32) if rt.bits[v] != base.bits[v]]
        assert flipped == [0b00011, 0b01011]
        assert to_wolfram(rt) == 4278253320

    def test_extended_pattern_example(self):
        rt = induce(build_mixture(["10X1a"]))
        assert (rt.diameter, rt.anchor) == (5, 2)
        base = projection_table(5, 2)
        flipped = [v for v in range(32) if rt.bits[v] != base.bits[v]]
        assert flipped == [0b10010, 0b10011, 0b10110, 0b10111]
        assert to_wolfram(rt) == 4030525680

    def test_single_flip_gives_global_complement(self):
        rt = induce(build_mixture(["X"]))
        assert to_wolfram(rt) == 1
        assert classify_trivial(rt) == "complement(0)"

    def test_matches_direct_construction(self):
        for d in range(3, 7):
            for p in generate_all_patterns(d):
                m = build_mixture([p])
                assert list(induce(m).bits) == \
                    brute.induced_bits(m.members, d, m.anchor)

    def test_mixture_matches_direct_construction(self):
        m = build_mixture(["10X111", "a0X10a"])
        assert list(induce(m).bits) == brute.induced_bits(m.members, 6, 2)

    def test_flip_count(self):
        for text in ("0X011", "10X1a", "a0X011aa"):
            m = build_mixture([text])
            rt = induce(m)
            base = projection_table(m.diameter, m.anchor)
            diff = sum(a != b for a, b in zip(rt.bits, base.bits))
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
                    == classify_trivial(from_wolfram(d, to_wolfram(projection_table(d, j))))
                assert classify_trivial(projection_table(d, j)) == f"projection({j})"
                assert classify_trivial(complement_table(d, j)) == f"complement({j})"

    def test_nontrivial(self):
        assert classify_trivial(from_wolfram(3, 90)) == "nontrivial"
