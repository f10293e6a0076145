"""Pattern calculus for constructing reversible 1D binary CA rules.

A pattern is a window template over the symbols ``0``, ``1``, ``X`` and ``a``:
exactly one flip cell ``X`` (the output-aligned cell, which may hold either
state), concrete cells ``0``/``1``, and wildcard cells ``a`` permitted only as
contiguous padding at the two ends.  The wildcard-free stretch around ``X`` is
the *core*; its cell counts left and right of ``X`` are the radii ``L`` and
``R``.

All the calculus runs on window values, with the leftmost cell as the most
significant bit.  A template is the pair ``(value, care)``: ``care`` has a bit
for each ``0``/``1`` cell and ``value`` the bits of its ``1`` cells, so a
window ``w`` matches iff ``w & care == value``.  Placing core ``b`` with its
flip cell ``k`` cells right of core ``a``'s, the two clash iff
``(va ^ vb) & ca & cb != 0`` once both are shifted into one frame.

A core is an *injective pattern* (stable) when every placement of a copy of
it at shifts ``k = 1..max(L, R)``, the ones that put a flip cell on the other
copy, clashes.  Two cores are *independent* when every placement at
``k = -max(L_a, R_b) .. max(R_a, L_b)`` clashes; ``k = 0`` is a single window
matching both.  A set of equal-diameter, equal-anchor patterns that is
pairwise independent is a *mixture*; the rule induced from it flips exactly
the anchor cell of every window matching a member, which makes the global map
an involution and therefore injective.

``generate_injective_patterns`` tests all ``2^(L+R)`` fillings of one split at
once on a numpy array; the per-core checks stay on Python integers.
Enumeration is limited to diameters up to :data:`MAX_DIAMETER`.  All values
here are immutable and all functions are pure, so enumerations can be
partitioned freely across workers and merged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ZERO = "0"
ONE = "1"
FLIP = "X"
WILD = "a"

# gen-extended at this diameter peaks at about 260 MB
MAX_DIAMETER = 16

_ALPHABET = frozenset((ZERO, ONE, FLIP, WILD))
_VALUE = str.maketrans("01Xa", "0100")
_CARE = str.maketrans("01Xa", "1100")


class PatternError(ValueError):
    """Malformed pattern text or an operation applied outside its domain."""


class MixtureError(ValueError):
    """A candidate pattern set failed mixture validation.

    Carries the violated clause, the offending pair (when pairwise), and a
    human-readable detail naming the shift at which the pair fits together:
    at shift ``k`` the second core's flip cell sits ``k`` cells right of the
    first's.
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

    @property
    def template(self) -> tuple[int, int]:
        """``(value, care)``: window ``w`` matches iff ``w & care == value``."""
        s = self.symbols
        return int(s.translate(_VALUE), 2), int(s.translate(_CARE), 2)


def _check_diameter(diameter: int) -> None:
    if not 1 <= diameter <= MAX_DIAMETER:
        raise PatternError(f"diameter {diameter} outside 1..{MAX_DIAMETER}")


def _core(p: PatternString | str) -> tuple[int, int, int, int]:
    """``(value, care, L, R)`` of a wildcard-free core."""
    s = str(p)
    if WILD in s:
        raise PatternError(f"operation requires a wildcard-free core: {s!r}")
    value, care = PatternString(s).template
    left = s.index(FLIP)
    return value, care, left, len(s) - 1 - left


def _first_fit(a: tuple[int, int, int, int], b: tuple[int, int, int, int],
               shifts: range) -> int | None:
    """The first shift ``k`` at which core ``b``, its flip cell ``k`` cells
    right of core ``a``'s, pins no cell against ``a``; None if all clash."""
    va, ca, _, ra = a
    vb, cb, _, rb = b
    for k in shifts:
        sa, sb = max(0, k + rb - ra), max(0, ra - rb - k)
        if not ((va << sa) ^ (vb << sb)) & (ca << sa) & (cb << sb):
            return k
    return None


def _unstable_shift(c: tuple[int, int, int, int]) -> int | None:
    return _first_fit(c, c, range(1, max(c[2], c[3]) + 1))


def _interfering_shift(a: tuple[int, int, int, int],
                       b: tuple[int, int, int, int]) -> int | None:
    return _first_fit(a, b, range(-max(a[2], b[3]), max(a[3], b[2]) + 1))


def is_injective_pattern(p: PatternString | str) -> bool:
    """True when the core is stable under all self-overlaps (see module doc)."""
    return _unstable_shift(_core(p)) is None


def independent(p: PatternString | str, q: PatternString | str) -> bool:
    """Pairwise non-interference of two cores (self-pair reduces to stability):
    every placement that puts one flip cell on the other core clashes."""
    a, b = _core(p), _core(q)
    if a == b:
        return _unstable_shift(a) is None
    return _interfering_shift(a, b) is None


def extend(p: PatternString | str, k: int, h: int) -> PatternString:
    """Pad a core with k leading and h trailing wildcards."""
    _core(p)  # rejects anything but a core
    if k < 0 or h < 0:
        raise PatternError("wildcard counts must be >= 0")
    return PatternString(WILD * k + str(p) + WILD * h)


def _order_key(p: PatternString) -> tuple[int, int, int]:
    # stable ordering: anchor, then core value with X read as 0, then core size
    return (p.anchor, int(p.core.replace(FLIP, ZERO), 2), len(p.core))


def generate_injective_patterns(left: int, right: int) -> tuple[PatternString, ...]:
    """All stable cores with the given radii, ascending by window value.

    Tests the 2^(left+right) fillings of the concrete cells (the flip cell is
    not free) at once: filling ``v`` is stable iff
    ``(v ^ (v >> k)) & care & (care >> k) != 0`` for every ``k`` in
    ``1..max(left, right)``.
    """
    if left < 0 or right < 0:
        raise PatternError("radii must be >= 0")
    n = left + right
    _check_diameter(n + 1)
    fill = np.arange(1 << n)
    value = ((fill >> right) << (right + 1)) | (fill & ((1 << right) - 1))
    care = ((1 << (n + 1)) - 1) ^ (1 << right)
    stable = np.ones(fill.shape, bool)
    for k in range(1, max(left, right) + 1):
        stable &= ((value ^ (value >> k)) & (care & (care >> k))) != 0
    out = []
    for f in fill[stable].tolist():
        cells = format(f | 1 << n, "b")[1:]
        out.append(PatternString(cells[:left] + FLIP + cells[left:]))
    return tuple(out)


def generate_all_patterns(diameter: int) -> tuple[PatternString, ...]:
    """All stable cores of one diameter, over every (L, R) split of it, by
    anchor and then by value."""
    _check_diameter(diameter)
    return tuple(p for left in range(diameter)
                 for p in generate_injective_patterns(left, diameter - 1 - left))


def enumerate_extended(diameter: int) -> tuple[PatternString, ...]:
    """All wildcard-padded cores of smaller diameters brought up to ``diameter``.

    Every placement (k, h) with k + h = diameter - d counts separately.  The
    degenerate single-flip core is excluded: padded with wildcards it matches
    every window, so it induces a plain complement rule rather than anything
    new, and including it would double-count the trivial family.
    """
    _check_diameter(diameter)
    out: list[PatternString] = []
    for d in range(2, diameter):
        for core in generate_all_patterns(d):  # stable cores: no need to re-check
            for k in range(diameter - d + 1):
                out.append(PatternString(WILD * k + core.symbols + WILD * (diameter - d - k)))
    return tuple(sorted(out, key=_order_key))


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
    interference (the shift at which the pair fits is named in the message).
    """
    pats = [PatternString(t) for t in sorted({str(c) for c in candidates})]
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
    cores = {p: _core(p.core) for p in pats}
    for p in pats:
        k = _unstable_shift(cores[p])
        if k is not None:
            raise MixtureError(
                "self-stability",
                f"{p} is not an injective pattern: its core fits a copy of itself "
                f"at shift {k}",
                pair=(p, p))
    for p, q in itertools.combinations(pats, 2):
        k = _interfering_shift(cores[p], cores[q])
        if k is not None:
            raise MixtureError(
                "independence",
                f"patterns {p} and {q} are not independent: their cores fit at shift {k}",
                pair=(p, q))
    return MixtureSet(tuple(sorted(pats, key=_order_key)), first.diameter, first.anchor)
