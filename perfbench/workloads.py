"""Seeded request streams for the three workloads, with expected answers.

Every request carries what the checker needs to judge its reply, derived from
the brute-force oracles in ``tests/brute.py`` and from ``reference.json``,
never from the package under test.  Streams are endless; the runner stops
taking requests when its time is up.  The mix within each workload follows a
fixed cycle of (diameter, kind) slots and the seed picks the concrete inputs,
so that two seeds load the same layers in the same proportions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import cycle
from pathlib import Path
from typing import Iterator

import brute

PATTERN_DIAMETERS = (10, 11, 12, 13, 14)
D4_CHUNK_TABLES = 1 << 12     # tables per D=4 chunk, as in sweep_chunks(4)
D5_BLOCK_TABLES = 1 << 18     # tables per sampled D=5 block
D5_HALF = 16                  # window values per half of a D=5 table


@dataclass
class Request:
    kind: str                      # which check applies to the reply
    argv: list[str] | None = None  # CLI request
    unit: tuple | None = None      # scan_unit(diameter, unit) request: (diameter, unit)
    expect: dict = field(default_factory=dict)
    fresh_files: tuple[Path, ...] = ()  # removed before the request is sent


# ---------------------------------------------------------------------------
# Brute-force pools of pattern cores.

@lru_cache(maxsize=None)
def cores(d: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(stable, unstable) wildcard-free cores of diameter d, by brute force."""
    stable, unstable = [], []
    for x in range(d):
        for v in range(1 << (d - 1)):
            s = format(v, f"0{d - 1}b") if d > 1 else ""
            core = s[:x] + "X" + s[x:]
            (unstable if brute.interference_offsets(core, core) else stable).append(core)
    return tuple(stable), tuple(unstable)


def wolfram(bits) -> int:
    return sum(b << v for v, b in enumerate(bits))


def core_of(pattern: str) -> str:
    return pattern.strip("a")


def conflicting(members: list[str]) -> bool:
    """Brute verdict: some member is unstable or some pair interferes."""
    cs = [core_of(m) for m in members]
    if any(brute.interference_offsets(c, c) for c in cs):
        return True
    return any(brute.cores_conflict(a, b) for i, a in enumerate(cs) for b in cs[i + 1:])


def _extended(rng: random.Random, d: int) -> str:
    """A stable core of a smaller diameter, padded with wildcards to d."""
    pool = [c for size in range(2, d) for c in cores(size)[0]]
    core = rng.choice(pool)
    k = rng.randint(0, d - len(core))
    return "a" * k + core + "a" * (d - len(core) - k)


@lru_cache(maxsize=None)
def _anchor_pool(d: int, anchor: int) -> tuple[str, ...]:
    pool = []
    for size in range(2, d + 1):
        for core in cores(size)[0]:
            k = anchor - core.index("X")
            if 0 <= k <= d - size:
                pool.append("a" * k + core + "a" * (d - size - k))
    return tuple(pool)


def _candidate_set(rng: random.Random, d: int, dependent: bool) -> list[str]:
    """2-4 same-anchor patterns built greedily to be independent; a dependent
    set gets an extra member that interferes with one already chosen."""
    anchor = rng.randint(1, d - 2)
    pool = list(_anchor_pool(d, anchor))
    rng.shuffle(pool)
    target = rng.randint(2, 4)
    members: list[str] = []
    rest = []
    for cand in pool:
        if len(members) < target and not conflicting(members + [cand]):
            members.append(cand)
        else:
            rest.append(cand)
    if dependent:
        for cand in rest:
            if cand not in members and conflicting(members + [cand]):
                members.append(cand)
                break
    rng.shuffle(members)
    return members


def _induce_request(members: list[str], catalog_path: Path) -> Request:
    d = len(members[0])
    anchor = members[0].index("X")
    expect = {"members": sorted(members), "diameter": d, "anchor": anchor,
              "conflict": conflicting(members)}
    if not expect["conflict"]:
        expect["wolfram"] = wolfram(brute.induced_bits(members, d, anchor))
    argv = ["induce", *members, "--verify", "--catalog", str(catalog_path)]
    return Request("induce", argv, expect=expect)


# ---------------------------------------------------------------------------
# construct: the paper's route, patterns -> mixture -> rule -> verification.

# Half of the requests induce a rule at D=7, a quarter at D=8, a sixth at D=6,
# and one in twelve is a dependent set (exit 3), so that p50 falls inside the
# D=7 cluster of latencies and p90 inside the D=8 one, not in a gap between
# clusters, where a quantile jumps with small shifts.
CONSTRUCT_SLOTS = ((7, "core"), (6, "core"), (8, "core"), (7, "extended"),
                   (7, "set"), (8, "extended"), (6, "extended"), (7, "core"),
                   (7, "dependent"), (8, "set"), (7, "extended"), (7, "set"))


def construct(rng: random.Random, workdir: Path) -> Iterator[Request]:
    catalog_path = workdir / "construct.jsonl"
    head = [Request("gen-patterns", ["gen-patterns", "-d", str(d)], expect={"diameter": d})
            for d in PATTERN_DIAMETERS]
    d = rng.randint(8, 11)
    head.append(Request("gen-extended", ["gen-extended", "-d", str(d)],
                        expect={"diameter": d}))
    n = rng.randint(8, 11)
    head.append(Request("counts", ["counts", "-n", str(n), "--json"],
                        expect={"max_diameter": n}))
    rng.shuffle(head)
    yield from head
    for d, kind in cycle(CONSTRUCT_SLOTS):
        if kind == "core":
            members = [rng.choice(cores(d)[0])]
        elif kind == "extended":
            members = [_extended(rng, d)]
        else:  # a dependent set ends with exit 3
            members = _candidate_set(rng, d, dependent=kind == "dependent")
        yield _induce_request(members, catalog_path)


# ---------------------------------------------------------------------------
# verify: the decision's reject path, on tables close to injective ones.

VERIFY_SLOTS = ((7, "unstable"), (8, "perturbed"), (9, "unstable"),
                (7, "perturbed"), (8, "unstable"), (9, "perturbed")) * 3


def _swap_perturbed(rng: random.Random, bits: list[int], d: int, anchor: int) -> list[int]:
    """Swap two unequal outputs, never the two windows that differ only in the
    anchor cell: that swap would add one more flipped pattern to the rule."""
    partner = 1 << (d - 1 - anchor)
    while True:
        u, v = rng.randrange(1 << d), rng.randrange(1 << d)
        if bits[u] != bits[v] and u ^ v != partner:
            out = list(bits)
            out[u], out[v] = out[v], out[u]
            return out


def _collides(bits: list[int], d: int) -> bool:
    """Two periodic words of length <= 8 share an image: a brute proof that
    the rule is not injective."""
    return any(not brute.is_permutation(bits, d, 0, n) for n in range(1, 9))


def _induced_pattern(rng: random.Random, d: int, extended: bool) -> str:
    return _extended(rng, d) if extended else rng.choice(cores(d)[0])


def verify(rng: random.Random) -> Iterator[Request]:
    round_no = 0
    while True:
        for n, (d, kind) in enumerate(VERIFY_SLOTS):
            bits = None
            # about 1 table in 25 has no collision this short; one of those
            # (a swap landing on another injective table) would be accepted
            while bits is None or not _collides(bits, d):
                if kind == "unstable":
                    core = rng.choice(cores(d)[1])
                    bits = brute.induced_bits([core], d, core.index("X"))
                else:
                    pattern = _induced_pattern(rng, d, extended=n % 12 >= 6)
                    anchor = pattern.index("X")
                    bits = _swap_perturbed(rng, brute.induced_bits([pattern], d, anchor),
                                           d, anchor)
            yield Request("verify", ["verify", "-d", str(d), "-w", str(wolfram(bits))],
                          expect={"diameter": d, "bits": bits, "injective": False})
        d = 7 + round_no % 3
        pattern = _induced_pattern(rng, d, extended=round_no % 6 >= 3)
        round_no += 1
        bits = brute.induced_bits([pattern], d, pattern.index("X"))
        yield Request("verify", ["verify", "-d", str(d), "-w", str(wolfram(bits))],
                      expect={"diameter": d, "bits": bits, "injective": True})


# ---------------------------------------------------------------------------
# sweep: the full D=4 enumeration, then D=4 chunks and sampled D=5 balanced
# blocks through scan_unit.

# One cycle: three D=4 chunks the size of the CLI's unit, sweep_chunks(4), and
# nine D=5 blocks, seven from fixed strata of upper-half popcount j and two
# placed on a known injective table.  A D=5 block is a sixteenth of the CLI's
# balanced_sweep_blocks(5) unit, so that a run holds at least 100 requests.  A
# D=4 chunk (4,096 tables, about 0.4 s) is slower than a D=5 block (about 2^18
# tables, about 0.1 s), so p90 falls inside the D=4 cluster of latencies, p50
# inside the D=5 one, and D=4 takes a bit over half of the summed request time.
SWEEP_SLOTS = ("d4", 5, 6, 7, "known", "d4", 8, 9, "known", "d4", 10, 11)
D5_STRATA = tuple(slot for slot in SWEEP_SLOTS if isinstance(slot, int))


@lru_cache(maxsize=None)
def _half_ranks() -> dict[int, tuple[int, int]]:
    """(popcount, rank among equal-popcount values) of every half-table."""
    seen = [0] * (D5_HALF + 1)
    ranks = {}
    for m in range(1 << D5_HALF):
        j = bin(m).count("1")
        ranks[m] = (j, seen[j])
        seen[j] += 1
    return ranks


def d5_block_of(w: int) -> tuple[int, int]:
    """(ones in the upper half, rank of the upper half): where a balanced D=5
    table sits in the sweep's (j, start, stop) blocks."""
    return _half_ranks()[w >> D5_HALF]


def d5_expected(reference: list[int], block: tuple[int, int, int]) -> list[int]:
    j, s, e = block
    return sorted(w for w in reference if d5_block_of(w)[0] == j
                  and s <= d5_block_of(w)[1] < e)


def _d5_block(rng: random.Random, j: int, rank: int | None) -> tuple[int, int, int]:
    """A block of about D5_BLOCK_TABLES tables in stratum j, holding the
    upper half of the given rank if one is given."""
    size = math.comb(D5_HALF, j)
    width = max(1, D5_BLOCK_TABLES // size)
    if rank is None:
        s = rng.randrange(size - width + 1)
    else:
        s = min(max(0, rank - rng.randrange(width)), size - width)
    return j, s, s + width


def sweep(rng: random.Random, workdir: Path, reference: dict) -> Iterator[Request]:
    catalog_path, checkpoint = workdir / "sweep.jsonl", workdir / "sweep.ckpt"
    yield Request("enumerate",
                  ["enumerate", "-d", "4", "--catalog", str(catalog_path),
                   "--checkpoint", str(checkpoint)],
                  expect={"catalog": catalog_path, "checkpoint": checkpoint},
                  fresh_files=(catalog_path, checkpoint))
    d4, d5 = reference["d4_injective"], reference["d5_injective"]
    placed = [w for w in d5 if d5_block_of(w)[0] in D5_STRATA]
    for slot in cycle(SWEEP_SLOTS):
        if slot == "d4":
            lo = D4_CHUNK_TABLES * rng.randrange((1 << 16) // D4_CHUNK_TABLES)
            hi = lo + D4_CHUNK_TABLES
            yield Request("scan", unit=(4, (lo, hi)),
                          expect={"found": [w for w in d4 if lo <= w < hi]})
            continue
        if slot == "known":
            j, rank = d5_block_of(rng.choice(placed))
            block = _d5_block(rng, j, rank)
        else:
            block = _d5_block(rng, slot, None)
        yield Request("scan", unit=(5, block), expect={"found": d5_expected(d5, block)})


def make(workload: str, seed: int, workdir: Path, reference: dict) -> Iterator[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "construct":
        return construct(rng, workdir)
    if workload == "verify":
        return verify(rng)
    if workload == "sweep":
        return sweep(rng, workdir, reference)
    raise ValueError(f"unknown workload {workload!r}")
