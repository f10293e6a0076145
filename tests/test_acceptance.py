"""Acceptance suite: one test per release criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import random
import time

import brute
import pytest
from revca.engine import check_involution, step
from revca.injectivity import debruijn_injective, exhaustive_injective, periodic_bijective
from revca.patterns import (
    WILD,
    MixtureError,
    build_mixture,
    enumerate_extended,
    generate_all_patterns,
    generate_injective_patterns,
)
from revca.rules import (
    classify_trivial,
    complement_table,
    from_wolfram,
    induce,
    is_balanced,
    projection_table,
    rule_from_json,
    rule_to_json,
)

PATTERN_COUNTS = (0, 4, 14, 52, 148, 408, 1040, 2556)      # diameters 3..10
EXTENDED_COUNTS = (0, 0, 8, 40, 162, 528, 1562, 4268)      # diameters 3..10

# Wolfram numbers reported elsewhere for these two constructions; kept for
# reconciliation.  The tables derived here verify injective regardless of
# numeric agreement (see README, "historical counts and example numbers").
REPORTED_EXAMPLE_NUMBERS = {"0X011": 4278318856, "10X1a": 1007612144}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_pattern_list_reproduction():
    got = [str(p) for p in generate_injective_patterns(1, 3)]
    expected = ["0X011", "0X110", "1X001", "1X100"]
    report(1, got == expected, f"radii (1,3) patterns = {got}")
    assert got == expected


def test_criterion_2_pattern_counts():
    t0 = time.time()
    got = tuple(len(generate_all_patterns(d)) for d in range(3, 11))
    elapsed = time.time() - t0
    ok = got == PATTERN_COUNTS and elapsed < 10
    report(2, ok, f"counts {got} in {elapsed:.1f}s")
    assert got == PATTERN_COUNTS
    assert elapsed < 10


def test_criterion_3_extended_counts_and_identity():
    got = tuple(len(enumerate_extended(d)) for d in range(3, 11))
    # placements of smaller stable cores; the single-flip core is never
    # extended because its padding matches every window (trivial complement)
    derived = tuple(
        sum((d - c + 1) * len(generate_all_patterns(c)) for c in range(2, d))
        for d in range(3, 11))
    ok = got == EXTENDED_COUNTS and derived == got
    report(3, ok, f"counts {got}, placement identity {'holds' if derived == got else 'fails'}")
    assert got == EXTENDED_COUNTS
    assert derived == got


def _mixture_pool(diameter: int, anchor: int):
    pool = []
    for d in range(2, diameter + 1):
        for core in generate_all_patterns(d):
            k = anchor - core.index("X")
            h = diameter - d - k
            if k >= 0 and h >= 0:
                pool.append(WILD * k + core + WILD * h)
    return pool


def _sample_mixtures(count: int, max_diameter: int, seed: int):
    rng = random.Random(seed)
    found = {}
    tries = 0
    while len(found) < count and tries < 60 * count:
        tries += 1
        d = rng.randint(4, max_diameter)
        anchor = rng.randint(1, d - 2)
        pool = _mixture_pool(d, anchor)
        rng.shuffle(pool)
        members = []
        target = rng.randint(2, 4)
        for cand in pool:
            try:
                build_mixture(members + [cand])
            except MixtureError:
                continue
            members.append(cand)
            if len(members) >= target:
                break
        if len(members) < 2:
            continue
        found.setdefault(tuple(sorted(str(m) for m in members)), members)
    return list(found.values())[:count]


def test_criterion_4_soundness_sweep():
    t0 = time.time()
    rules = []
    for d in range(3, 9):
        for p in list(generate_all_patterns(d)) + list(enumerate_extended(d)):
            rules.append((str(p), induce(build_mixture([p]))))
    mixtures = _sample_mixtures(1000, max_diameter=7, seed=20250808)
    assert len(mixtures) == 1000
    for members in mixtures:
        rules.append(("+".join(str(m) for m in members), induce(build_mixture(members))))

    failures = []
    for label, rt in rules:
        if not debruijn_injective(rt).injective:
            failures.append((label, "oracle"))
            continue
        if not all(check_involution(rt, n) for n in range(1, 13)):
            failures.append((label, "involution"))
    elapsed = time.time() - t0
    ok = not failures
    report(4, ok, f"{len(rules)} rules (1364 single + 1000 mixtures), "
                  f"failures {len(failures)}, {elapsed:.0f}s")
    assert not failures, failures[:10]


def _complement_classes(tables, diameter: int) -> set[int]:
    """Output-complement classes {f, NOT f} of Wolfram numbers, each named by
    its member with f(0^D) = 0."""
    mask = (1 << (1 << diameter)) - 1
    return {w if w & 1 == 0 else mask ^ w for w in tables}


def test_criterion_5_ground_truth_completeness_d4():
    """Exhaustive diameter-4 ground truth against the published counts.

    Stated expectation: 12 injective tables, 8 trivial + 4 nontrivial, the 4
    equal to the pattern-induced set.  The sweep finds 16 tables: the 8
    trivial, the 4 induced, and the output complement NOT(f) of each induced
    f, which is injective whenever f is.  The stated figures are exact when
    nontrivial tables are counted up to output complement: 4 classes
    {f, NOT f}, each holding one induced table (its member with f(0000) = 0).
    Both the table count and the class count are asserted exactly, and every
    table is confirmed by a brute-force permutation check.
    """
    t0 = time.time()
    tables = list(exhaustive_injective(4))
    elapsed = time.time() - t0
    assert elapsed < 60
    found = [t.wolfram for t in tables]
    triv = set(brute.trivial_wolframs(4))
    nontrivial = set(found) - triv
    induced = {induce(build_mixture([p])).wolfram for p in generate_all_patterns(4)}
    complements = {(1 << 16) - 1 - w for w in induced}
    classes = _complement_classes(nontrivial, 4)

    # the tables themselves: 16, each a permutation of every cyclic word
    assert len(found) == len(set(found)) == 16
    assert triv <= set(found) and len(triv) == 8
    assert len(nontrivial) == 8 and nontrivial == induced | complements
    not_permuting = [t.wolfram for t in tables
                     if not all(brute.is_permutation(t.bits, 4, t.anchor, n)
                                for n in range(1, 13))]
    assert not not_permuting

    # the stated figures: 8 trivial + 4 complement classes, one induced each
    stated_ok = len(classes) == 4 and len(triv) + len(classes) == 12 and induced == classes
    report(5, stated_ok,
           f"sweep found {len(found)} injective tables "
           f"({len(triv)} trivial, {len(nontrivial)} nontrivial in {len(classes)} "
           f"output-complement classes, one induced each) in {elapsed:.0f}s; "
           f"stated 12 = {len(triv)} + {len(classes)} classes")
    assert stated_ok, (
        "Stated diameter-4 figures: 12 = 8 trivial + 4 nontrivial, counted up "
        "to output complement, with the 4 pattern-induced tables one per "
        f"class; got {len(classes)} classes, induced {sorted(induced)}, class "
        f"representatives {sorted(classes)}. The 16 tables were verified "
        "independently by direct permutation checks at all periods 1..12. "
        "See README, 'Historical counts and example numbers'.")


def test_criterion_6_d5_subset_check(d5_nontrivial_sweep):
    """Diameter-5 balanced sweep (about 7 s on one core).

    Stated expectation: exactly 26 nontrivial injective tables with the 22
    pattern/extended-induced tables a subset.  The sweep finds 52 nontrivial
    tables, closed under output complementation: the 22 induced, their 22
    output complements, and 8 further tables.  The stated 26 is exact as a
    count of output-complement classes {f, NOT f}; the 22 induced tables lie
    in 22 distinct classes, each the member with f(0^5) = 0.  Both the table
    count and the class count are asserted exactly.
    """
    found = set(d5_nontrivial_sweep)
    induced = set()
    for p in list(generate_all_patterns(5)) + list(enumerate_extended(5)):
        induced.add(induce(build_mixture([p])).wolfram)
    assert len(induced) == 22
    subset_ok = induced <= found
    mask = (1 << 32) - 1
    assert all((mask ^ w) in found for w in found)  # complement closure
    classes = _complement_classes(found, 5)
    induced_classes = _complement_classes(induced, 5)
    stated_ok = (subset_ok and len(classes) == 26 and len(induced_classes) == 22
                 and induced <= classes)
    report(6, stated_ok,
           f"nontrivial tables found {len(found)} in {len(classes)} output-complement "
           f"classes; 22 induced subset: {subset_ok}, in {len(induced_classes)} classes")
    assert subset_ok
    assert len(found) == 52
    assert stated_ok, (
        "Stated diameter-5 figure: 26 nontrivial tables counted up to output "
        "complement, with the 22 induced tables in 22 distinct classes, each "
        f"its class's member with f(0^5) = 0; got {len(classes)} classes, induced "
        f"in {len(induced_classes)}. See README, 'Historical counts and example "
        "numbers'.")


def _same_anchor_mixtures(diameter: int):
    """Every mixture of one diameter: at each anchor, every nonempty set of
    pairwise independent members of that anchor's pool, each set once."""
    def grow(members, rest):
        for i, cand in enumerate(rest):
            try:
                build_mixture(members + [cand])
            except MixtureError:
                continue
            yield members + [cand]
            yield from grow(members + [cand], rest[i + 1:])

    for anchor in range(diameter):
        yield from grow([], _mixture_pool(diameter, anchor))


def _is_involution(w: int, diameter: int, anchor: int) -> bool:
    """F o F = id for the table of Wolfram number w at one anchor, on every
    window of 2D-1 cells: F applied to the D cells that each of its D
    outputs reads, and F again to those outputs, gives back the window's
    cell 2 * anchor (counted from the left, the leftmost cell the most
    significant bit)."""
    bits = [w >> v & 1 for v in range(1 << diameter)]
    mask = (1 << diameter) - 1
    for u in range(1 << (2 * diameter - 1)):
        g = 0
        for j in range(diameter):
            g = g << 1 | bits[u >> (diameter - 1 - j) & mask]
        if bits[g] != u >> (2 * diameter - 2 - 2 * anchor) & 1:
            return False
    return True


@pytest.mark.parametrize("diameter", [4, 5])
def test_involution_classes_are_induced_classes(diameter, request):
    """An output-complement class {f, NOT f} of nontrivial injective tables
    holds an involution at some anchor iff it holds a table induced by a
    same-anchor mixture, or a mirror or input-complement image of one (the
    class itself closes it under output complement).  The mixtures induce
    involutions by construction; the converse says that at D <= 5 no
    involution escapes them.  All 4 classes at D=4 and 22 of the 26 at D=5
    are both."""
    full = (1 << (1 << diameter)) - 1
    if diameter == 4:
        triv = set(brute.trivial_wolframs(4))
        found = {t.wolfram for t in exhaustive_injective(4)} - triv
    else:
        found = set(request.getfixturevalue("d5_nontrivial_sweep"))
    classes = _complement_classes(found, diameter)

    def mirror(w):
        return sum((w >> int(format(v, f"0{diameter}b")[::-1], 2) & 1) << v
                   for v in range(1 << diameter))

    def input_complement(w):
        ones = (1 << diameter) - 1
        return sum((w >> (ones ^ v) & 1) << v for v in range(1 << diameter))

    mixtures = list(_same_anchor_mixtures(diameter))
    assert len(mixtures) == {4: 4, 5: 26}[diameter]
    induced = {induce(build_mixture(m)).wolfram for m in mixtures}
    images = induced | {mirror(w) for w in induced}
    images |= {input_complement(w) for w in images}
    induced_classes = classes & _complement_classes(images, diameter)
    involution_classes = {c for c in classes
                          if any(_is_involution(w, diameter, a)
                                 for w in (c, full ^ c) for a in range(diameter))}
    assert involution_classes == induced_classes
    assert (len(induced_classes), len(classes)) == {4: (4, 4), 5: (22, 26)}[diameter]


def test_criterion_7_trivial_rules_injective():
    checked = 0
    for d in range(1, 7):
        for rt in (t for j in range(d) for t in (projection_table(d, j),
                                                  complement_table(d, j))):
            assert debruijn_injective(rt).injective, rt
            checked += 1
    report(7, True, f"{checked} shift/complement tables all injective")


def test_criterion_8_wolfram_convention_fixture():
    rt = from_wolfram(3, 240)
    rows = {format(v, "03b"): rt.bits[v] for v in range(8)}
    expected = {"000": 0, "001": 0, "010": 0, "011": 0,
                "100": 1, "101": 1, "110": 1, "111": 1}
    report(8, rows == expected, "rule 240 row table reproduced")
    assert rows == expected


def test_criterion_9_example_reconciliation():
    outcomes = []
    for text, reported in REPORTED_EXAMPLE_NUMBERS.items():
        rt = induce(build_mixture([text]))
        computed = rt.wolfram
        verdict = debruijn_injective(rt)
        periodic = all(periodic_bijective(rt, n) for n in range(1, 13))
        involution = all(check_involution(rt, n) for n in range(1, 13))
        outcomes.append((text, computed, reported, verdict.injective and periodic
                         and involution))
        assert verdict.injective and periodic and involution, text
        assert is_balanced(rt) and classify_trivial(rt) == "nontrivial"
    detail = "; ".join(
        f"{t}: computed {c}" + (" == " if c == r else " != ") + f"reported {r}"
        for t, c, r, _ in outcomes)
    report(9, True, f"both rules verified injective; {detail}")
    # the reconciliation itself: record agreement or a precise discrepancy
    for text, computed, reported, verified in outcomes:
        assert verified
        if computed != reported:
            # known discrepancy, documented in the README; the verification
            # above is what this criterion gates on
            assert computed in (4278253320, 4030525680)


def test_criterion_10_property_suite():
    t0 = time.time()
    rng = random.Random(1010)

    # round trips
    for _ in range(300):
        d = rng.randint(1, 6)
        w = rng.getrandbits(1 << d)
        rt = from_wolfram(d, w, rng.randrange(d))
        assert rt.wolfram == w
        back, _ = rule_from_json(rule_to_json(rt))
        assert back == rt

    # rotation equivariance
    for _ in range(150):
        d = rng.randint(1, 5)
        rt = from_wolfram(d, rng.getrandbits(1 << d), rng.randrange(d))
        n = rng.randint(1, 10)
        c = "".join(rng.choice("01") for _ in range(n))
        k = rng.randint(-n, n)
        assert step(rt, brute.shift(c, k)) == brute.shift(step(rt, c), k)

    # mirror and complement closure of generated pattern sets
    comp = str.maketrans("01", "10")
    for d in range(3, 8):
        texts = {str(p) for p in generate_all_patterns(d)}
        assert texts == {t[::-1] for t in texts}
        assert texts == {t.translate(comp) for t in texts}

    # witness validity on 500 random non-injective tables
    seen = 0
    while seen < 500:
        d = rng.randint(2, 4)
        rt = from_wolfram(d, rng.getrandbits(1 << d))
        verdict = debruijn_injective(rt)
        if verdict.injective:
            continue
        w1, w2 = verdict.witness
        assert w1 != w2 and len(w1) == len(w2)
        assert step(rt, w1) == step(rt, w2)
        if len(w1) <= 12:
            assert not periodic_bijective(rt, len(w1))
        seen += 1

    elapsed = time.time() - t0
    report(10, elapsed < 60, f"round trips, equivariance, closures, 500 witnesses "
                             f"in {elapsed:.0f}s")
    assert elapsed < 60
