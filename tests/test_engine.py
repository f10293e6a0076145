import numpy as np
import pytest

import brute
from revca.engine import (
    all_configs,
    batch_step,
    check_involution,
    pack_configs,
    space_time,
    step,
)
from revca.patterns import InputError, build_mixture
from revca.rules import from_wolfram, induce, projection_table


def rule(d, w, anchor=None):
    return from_wolfram(d, w, anchor)


class TestStep:
    def test_identity_rule(self):
        rt = rule(3, 204, anchor=1)
        for c in ("0", "01", "0110", "1011101"):
            assert step(rt, c) == c

    def test_left_neighbor_rule_shifts_right(self):
        assert step(rule(3, 240, anchor=1), "0011") == "1001"

    def test_induced_rule_flips_matching_window(self):
        rt = induce(build_mixture(["0X011"]))
        assert step(rt, "00011") == "01011"
        assert step(rt, "01011") == "00011"

    def test_short_words_wrap(self):
        rt = induce(build_mixture(["0X011"]))
        for c in ("0", "1", "01", "001"):
            assert len(step(rt, c)) == len(c)
        # all-zero and all-one words are fixed: no window matches the pattern
        assert step(rt, "0") == "0"
        assert step(rt, "1") == "1"

    def test_rejects_bad_words(self):
        rt = rule(3, 204)
        for bad in ("", "012", "ab"):
            with pytest.raises(ValueError):
                step(rt, bad)

    def test_agrees_with_naive_implementation(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = int(rng.integers(1, 6))
            w = int(rng.integers(0, 1 << (1 << d)))
            anchor = int(rng.integers(0, d))
            n = int(rng.integers(1, 11))
            c = "".join(str(b) for b in rng.integers(0, 2, n))
            rt = rule(d, w, anchor)
            assert step(rt, c) == brute.naive_step(rt.bits, d, anchor, c)


class TestShift:
    def test_examples(self):
        assert brute.shift("0011", 1) == "1001"
        assert brute.shift("0011", 0) == "0011"
        assert brute.shift("0011", 4) == "0011"

    def test_additive(self):
        c = "0110100"
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert brute.shift(brute.shift(c, a), b) == brute.shift(c, a + b)

    def test_projection_steps_are_shifts(self):
        for d in range(1, 6):
            for j in range(d):
                rt = projection_table(d, j)
                for c in ("10110", "0010011", "11"):
                    assert step(rt, c) == brute.shift(c, rt.anchor - j)


class TestOrbit:
    """Orbits of single words, read off trajectories."""

    def test_identity_period_one(self):
        assert space_time(rule(3, 204, anchor=1), "0110", 1) == ["0110", "0110"]

    def test_induced_rule_period_two(self):
        rt = induce(build_mixture(["0X011"]))
        assert space_time(rt, "00011", 2) == ["00011", "01011", "00011"]
        assert space_time(rt, "00000", 1) == ["00000", "00000"]

    def test_exhausted(self):
        rows = space_time(rule(3, 240, anchor=1), "0011", 4)
        assert "0011" not in rows[1:4] and rows[4] == "0011"

    def test_max_steps_contract(self):
        with pytest.raises(ValueError):
            space_time(rule(3, 204), "01", -1)


class TestInvolution:
    def test_induced_rule_all_lengths(self):
        rt = induce(build_mixture(["0X011"]))
        for n in range(1, 13):
            assert check_involution(rt, n)

    def test_shift_rule_is_not_involution(self):
        assert not check_involution(rule(3, 240, anchor=1), 4)

    def test_identity(self):
        for n in (1, 5, 9):
            assert check_involution(rule(3, 204, anchor=1), n)

    def test_bound(self):
        with pytest.raises(InputError, match="exceed the exhaustive bound"):
            check_involution(rule(3, 204), 21)


class TestSpaceTime:
    def test_trajectory(self):
        rt = induce(build_mixture(["0X011"]))
        assert space_time(rt, "00011", 2) == ["00011", "01011", "00011"]

    def test_zero_steps(self):
        assert space_time(rule(3, 204), "0101", 0) == ["0101"]


class TestBatch:
    def test_all_configs_rows_encode_words(self):
        for n in range(0, 11):
            cells = all_configs(n)
            assert cells.dtype == np.uint8 and cells.shape == (1 << n, n)
            # bit i of the row index is cell i
            want = [[(ci >> i) & 1 for i in range(n)] for ci in range(1 << n)]
            assert cells.tolist() == want
            assert pack_configs(cells).tolist() == list(range(1 << n))

    def test_matches_scalar_step(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            w = int(rng.integers(0, 1 << (1 << d)))
            anchor = int(rng.integers(0, d))
            n = int(rng.integers(1, 9))
            rt = rule(d, w, anchor)
            cells = all_configs(n)
            out = batch_step(rt, cells)
            packed = pack_configs(out)
            for ci in range(1 << n):
                c = "".join(str((ci >> i) & 1) for i in range(n))
                expect = brute.naive_step(rt.bits, d, anchor, c)
                got = int(packed[ci])
                # bit i of the packed image is cell i
                assert all(((got >> i) & 1) == int(expect[i]) for i in range(n))
