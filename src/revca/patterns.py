"""Pattern calculus for constructing reversible 1D binary CA rules.

A pattern is a window template over the symbols ``0``, ``1``, ``X`` and ``a``:
exactly one flip cell ``X`` (the output-aligned cell, which may hold either
state), concrete cells ``0``/``1``, and wildcard cells ``a`` permitted only as
contiguous padding at the two ends.  The wildcard-free stretch around ``X`` is
the *core*; its cell counts left and right of ``X`` are the radii ``L`` and
``R``.

A core is an *injective pattern* when no shifted copy of it can coexist with
it in a configuration while one copy's flip cell sits on a concrete cell of
the other.  Two cores are *independent* when the same holds across the pair at
every relative offset.  A set of equal-diameter, equal-anchor patterns that is
pairwise independent is a *mixture*; the rule induced from it flips exactly
the anchor cell of every window matching a member, which makes the global map
an involution and therefore injective.

All values here are immutable and all functions are pure, so enumerations can
be partitioned freely across workers and merged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

ZERO = "0"
ONE = "1"
FLIP = "X"
WILD = "a"

_ALPHABET = frozenset((ZERO, ONE, FLIP, WILD))


class PatternError(ValueError):
    """Malformed pattern text or an operation applied outside its domain."""


class MixtureError(ValueError):
    """A candidate pattern set failed mixture validation.

    Carries the violated clause, the offending pair (when pairwise), and a
    human-readable detail such as the witnessing overlap length or offset.
    """

    def __init__(self, clause: str, message: str,
                 pair: tuple["PatternString", "PatternString"] | None = None):
        super().__init__(message)
        self.clause = clause
        self.pair = pair


@dataclass(frozen=True)
class PatternString:
    """Immutable window template with one flip cell and optional wild padding."""

    symbols: str

    def __post_init__(self) -> None:
        s = self.symbols
        if not s:
            raise PatternError("empty pattern")
        bad = set(s) - _ALPHABET
        if bad:
            raise PatternError(f"invalid symbols {sorted(bad)!r} in {s!r}")
        if s.count(FLIP) != 1:
            raise PatternError(f"pattern must contain exactly one {FLIP!r}: {s!r}")
        if WILD in s.strip(WILD):
            raise PatternError(f"wildcards only allowed at the ends: {s!r}")

    def __str__(self) -> str:
        return self.symbols

    @property
    def diameter(self) -> int:
        return len(self.symbols)

    @property
    def anchor(self) -> int:
        """Index of the flip cell within the template."""
        return self.symbols.index(FLIP)

    @property
    def core(self) -> str:
        return self.symbols.strip(WILD)


def _symbols(p: PatternString | str) -> str:
    return p.symbols if isinstance(p, PatternString) else p


def compatible(s: str, t: str) -> bool:
    """True when two equal-length templates admit a common concrete window.

    ``X`` and ``a`` match anything, so the templates are incompatible exactly
    when some position pins ``0`` against ``1``.
    """
    s, t = _symbols(s), _symbols(t)
    if len(s) != len(t):
        raise PatternError(f"length mismatch: {s!r} vs {t!r}")
    return all(a == b or a in "Xa" or b in "Xa" for a, b in zip(s, t))


def _require_core(p: PatternString | str) -> str:
    s = _symbols(p)
    if WILD in s:
        raise PatternError(f"operation requires a wildcard-free core: {s!r}")
    if s.count(FLIP) != 1:
        raise PatternError(f"not a pattern core: {s!r}")
    return s


def unstable_overlap(p: PatternString | str) -> int | None:
    """Shortest self-overlap length that breaks stability, or None.

    A core with radii (L, R) is stable iff every end-overlap of two copies
    whose overlap region contains a flip cell is contradictory.  Those are
    exactly the overlap lengths min(L, R)+1 .. L+R.  Length-1 cores are
    vacuously stable.
    """
    s = _require_core(p)
    left = s.index(FLIP)
    right = len(s) - 1 - left
    for n in range(min(left, right) + 1, left + right + 1):
        if compatible(s[:n], s[-n:]):
            return n
    return None


def is_injective_pattern(p: PatternString | str) -> bool:
    """True when the core is stable under all self-overlaps (see module doc)."""
    return unstable_overlap(p) is None


def _core_conflict(a: str, b: str) -> tuple[str, int] | None:
    """First interfering placement of one core against another, or None.

    Scans every relative offset at which either core's flip cell lies inside
    the other core's span:

    * partial end-overlaps, both arrangements, at overlap lengths from
      min(R_left, L_right)+1 up to the shorter core (the lengths whose overlap
      region contains at least one flip cell);
    * every alignment of the shorter core inside the longer one's span,
      including the flip-aligned one, which would let a single window match
      both cores.

    Returns ("overlap", length) or ("containment", offset) naming the witness.
    """
    for left, right in ((a, b), (b, a)):
        r_left = len(left) - 1 - left.index(FLIP)
        l_right = right.index(FLIP)
        for n in range(min(r_left, l_right) + 1, min(len(left), len(right))):
            if compatible(left[-n:], right[:n]):
                return ("overlap", n)
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    for off in range(len(longer) - len(shorter) + 1):
        if compatible(shorter, longer[off:off + len(shorter)]):
            return ("containment", off)
    return None


def independent(p_short: PatternString | str, p_long: PatternString | str) -> bool:
    """Pairwise non-interference of two cores (self-pair reduces to stability).

    For distinct cores this requires a guaranteed symbol clash at every
    placement where one core's flip cell falls on the other core's span: all
    end-overlaps containing a flip cell, in both directions, and all
    alignments of the shorter core within the longer one.
    """
    a = _require_core(p_short)
    b = _require_core(p_long)
    if len(a) > len(b):
        raise PatternError("first argument must not be longer than the second")
    if a == b:
        return is_injective_pattern(a)
    return _core_conflict(a, b) is None


def extend(p: PatternString | str, k: int, h: int) -> PatternString:
    """Pad a core with k leading and h trailing wildcards."""
    s = _require_core(p)
    if k < 0 or h < 0:
        raise PatternError("wildcard counts must be >= 0")
    return PatternString(WILD * k + s + WILD * h)


def _order_key(p: PatternString) -> tuple[int, int, int]:
    # stable ordering: anchor, then core value with X read as 0, then core size
    return (p.anchor, int(p.core.replace(FLIP, ZERO), 2), len(p.core))


def generate_injective_patterns(left: int, right: int) -> tuple[PatternString, ...]:
    """All stable cores with the given radii, ascending by window value.

    Enumerates the 2^(left+right) fillings of the concrete cells (the flip
    cell is not free) and keeps the stable ones; cost is O(2^(L+R) (L+R)^2).
    """
    if left < 0 or right < 0:
        raise PatternError("radii must be >= 0")
    out = []
    for lv in range(1 << left):
        lpart = format(lv, f"0{left}b") if left else ""
        for rv in range(1 << right):
            rpart = format(rv, f"0{right}b") if right else ""
            core = lpart + FLIP + rpart
            if unstable_overlap(core) is None:
                out.append(PatternString(core))
    return tuple(out)


def generate_all_patterns(diameter: int) -> tuple[PatternString, ...]:
    """All stable cores of one diameter, over every (L, R) split of it."""
    if diameter < 1:
        raise PatternError("diameter must be >= 1")
    out: list[PatternString] = []
    for left in range(diameter):
        out.extend(generate_injective_patterns(left, diameter - 1 - left))
    return tuple(sorted(out, key=_order_key))


def enumerate_extended(diameter: int) -> tuple[PatternString, ...]:
    """All wildcard-padded cores of smaller diameters brought up to ``diameter``.

    Every placement (k, h) with k + h = diameter - d counts separately.  The
    degenerate single-flip core is excluded: padded with wildcards it matches
    every window, so it induces a plain complement rule rather than anything
    new, and including it would double-count the trivial family.
    """
    if diameter < 1:
        raise PatternError("diameter must be >= 1")
    out: list[PatternString] = []
    for d in range(2, diameter):
        for core in generate_all_patterns(d):
            for k in range(diameter - d + 1):
                out.append(extend(core, k, diameter - d - k))
    return tuple(sorted(out, key=_order_key))


def enumerate_concretizations(p: PatternString | str) -> tuple[str, ...]:
    """All 2^(k+h+1) concrete windows matching the template (flip and wilds free)."""
    s = _symbols(p)
    free = [i for i, ch in enumerate(s) if ch in (FLIP, WILD)]
    out = []
    for combo in itertools.product((ZERO, ONE), repeat=len(free)):
        w = list(s)
        for i, bit in zip(free, combo):
            w[i] = bit
        out.append("".join(w))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MixtureSet:
    """Validated set of same-diameter, same-anchor, pairwise-independent patterns.

    Construct via :func:`build_mixture`; the constructor itself performs no
    validation.
    """

    members: tuple[PatternString, ...]
    diameter: int
    anchor: int


def build_mixture(candidates: Iterable[PatternString | str]) -> MixtureSet:
    """Validate a pattern set and return it as a mixture.

    Rejections carry the violated clause and the first offending pair:
    diameter or anchor mismatch, an unstable member core, or a pairwise
    interference (overlap length / containment offset named in the message).
    """
    pats = [PatternString(t) for t in sorted({_symbols(c) for c in candidates})]
    if not pats:
        raise MixtureError("empty", "mixture needs at least one pattern")
    first = pats[0]
    for p in pats[1:]:
        if p.diameter != first.diameter:
            raise MixtureError(
                "diameter",
                f"diameter mismatch: {first} has {first.diameter}, {p} has {p.diameter}",
                pair=(first, p))
        if p.anchor != first.anchor:
            raise MixtureError(
                "anchor",
                f"anchor mismatch: {first} flips cell {first.anchor}, {p} flips cell {p.anchor}",
                pair=(first, p))
    for p in pats:
        n = unstable_overlap(p.core)
        if n is not None:
            raise MixtureError(
                "self-stability",
                f"{p} is not an injective pattern: self-overlap of length {n} is realizable",
                pair=(p, p))
    for p, q in itertools.combinations(pats, 2):
        conflict = _core_conflict(p.core, q.core)
        if conflict is not None:
            kind, at = conflict
            where = f"overlap length {at}" if kind == "overlap" else f"offset {at}"
            raise MixtureError(
                "independence",
                f"patterns {p} and {q} are not independent ({kind} at {where})",
                pair=(p, q))
    return MixtureSet(tuple(sorted(pats, key=_order_key)), first.diameter, first.anchor)
