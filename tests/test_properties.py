import random

from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from revca.engine import step
from revca.injectivity import debruijn_injective, periodic_bijective
from revca.patterns import (
    build_mixture,
    generate_all_patterns,
    independent,
    template,
)
from revca.rules import from_wolfram, induce, rule_from_json, rule_to_json


# -- strategies -------------------------------------------------------------

def pattern_texts(max_core=7, max_pad=3):
    body = st.integers(1, max_core).flatmap(
        lambda d: st.tuples(
            st.integers(0, d - 1),
            st.lists(st.sampled_from("01"), min_size=d - 1, max_size=d - 1)))

    def assemble(parts, k, h):
        anchor, fill = parts
        core = "".join(fill[:anchor]) + "X" + "".join(fill[anchor:])
        return "a" * k + core + "a" * h

    return st.builds(assemble, body, st.integers(0, max_pad), st.integers(0, max_pad))


def rule_tables(max_d=5):
    return st.integers(1, max_d).flatmap(
        lambda d: st.builds(
            from_wolfram,
            st.just(d),
            st.integers(0, (1 << (1 << d)) - 1),
            st.integers(0, d - 1)))


words = st.text(alphabet="01", min_size=1, max_size=12)


# -- round trips ------------------------------------------------------------

@given(pattern_texts())
def test_pattern_template_reads_the_flip_cell(text):
    assert template(text)[2] == text.index("X")


@given(rule_tables())
def test_wolfram_round_trip(rt):
    assert from_wolfram(rt.diameter, rt.wolfram, rt.anchor) == rt


@given(rule_tables())
def test_json_round_trip(rt):
    back, _ = rule_from_json(rule_to_json(rt))
    assert back == rt and back.anchor == rt.anchor


# -- pattern calculus agrees with brute force --------------------------------

@given(pattern_texts(max_core=8, max_pad=0))
def test_injectivity_matches_interference_search(text):
    assert independent(text, text) == (not brute.interference_offsets(text, text))


def test_independence_matches_brute_on_random_pairs():
    rng = random.Random(9090)
    pool = []
    for d in range(2, 8):
        pool.extend(str(p) for p in generate_all_patterns(d))
    for _ in range(600):
        a, b = rng.choice(pool), rng.choice(pool)
        if a == b:
            continue
        assert independent(a, b) == (not brute.cores_conflict(a, b)), (a, b)


# -- dynamics ----------------------------------------------------------------

@given(rule_tables(), words, st.integers(-12, 12))
def test_step_rotation_equivariance(rt, c, k):
    assert step(rt, brute.shift(c, k)) == brute.shift(step(rt, c), k)


@given(words, st.integers(-12, 12), st.integers(-12, 12))
def test_shift_composition(c, a, b):
    assert brute.shift(brute.shift(c, a), b) == brute.shift(c, a + b)


@settings(max_examples=40)
@given(st.data())
def test_induced_rules_involute_on_long_random_words(data):
    d = data.draw(st.integers(3, 7))
    pool = generate_all_patterns(d)
    if not pool:
        return
    p = data.draw(st.sampled_from(pool))
    rt = induce(build_mixture([p]))
    n = data.draw(st.integers(13, 48))
    c = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
    assert step(rt, step(rt, c)) == c


def test_induced_orbit_periods_are_one_or_two():
    rng = random.Random(31337)
    for d in (4, 5, 6):
        for p in rng.sample(list(generate_all_patterns(d)), 3):
            rt = induce(build_mixture([p]))
            for _ in range(50):
                n = rng.randint(1, 14)
                c = "".join(rng.choice("01") for _ in range(n))
                one = step(rt, c)
                assert one == c or step(rt, one) == c


# -- witnesses ----------------------------------------------------------------

def test_witness_validity_500_random_noninjective_tables():
    rng = random.Random(500500)
    seen = 0
    while seen < 500:
        d = rng.randint(2, 8)
        rt = from_wolfram(d, rng.getrandbits(1 << d))
        verdict = debruijn_injective(rt)
        if verdict.injective:
            continue
        w1, w2 = verdict.witness
        assert w1 != w2 and len(w1) == len(w2)
        assert step(rt, w1) == step(rt, w2)
        # witness length is within the documented bound
        assert len(w1) <= (1 << (2 * (d - 1))) + d
        if len(w1) <= 12:
            assert not periodic_bijective(rt, len(w1))
        seen += 1
