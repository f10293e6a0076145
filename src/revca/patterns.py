"""Pattern calculus for constructing reversible 1D binary CA rules.

A pattern is its text, a ``str`` over the symbols ``0``, ``1``, ``X`` and
``a``: exactly one flip cell ``X`` (the output-aligned cell, which may hold
either state), concrete cells ``0``/``1``, and wildcard cells ``a`` permitted
only as contiguous padding at the two ends.  The wildcard-free stretch around
``X`` is the *core*; its cell counts left and right of ``X`` are the radii
``L`` and ``R``.

All the calculus runs on window values, with the leftmost cell as the most
significant bit.  :func:`template`, the one check of pattern text, reads it
as ``(value, care, anchor)``: ``care`` has a bit for each ``0``/``1`` cell
and ``value`` the bits of its ``1`` cells, so a window ``w`` matches iff
``w & care == value``.  Placing core ``b`` with its flip cell ``k`` cells
right of core ``a``'s, the two clash iff ``(va ^ vb) & ca & cb != 0`` once
both are shifted into one frame.

A core is an *injective pattern* (stable) when every placement of a copy of
it at shifts ``k = 1..max(L, R)``, the ones that put a flip cell on the other
copy, clashes.  Two cores are *independent* when every placement at
``k = -max(L_a, R_b) .. max(R_a, L_b)`` clashes; ``k = 0`` is a single window
matching both.  A set of equal-diameter, equal-anchor patterns that is
pairwise independent is a *mixture*; the rule induced from it flips exactly
the anchor cell of every window matching a member, which makes the global map
an involution and therefore injective.

The generators test all ``2^(L+R)`` fillings of one split at once on a numpy
array and write each stable core's text from its value, unparsed; the
per-core checks stay on Python integers.  Enumerations and mixtures are
limited to diameters up to :data:`MAX_DIAMETER`, which also bounds every rule
table (see :func:`revca.rules.from_wolfram`).
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

# Largest diameter of an enumeration, a mixture or a rule table: gen-extended
# at this diameter peaks at about 125 MB, and a table holds 2^D output bits.
MAX_DIAMETER = 16

_ALPHABET = frozenset((ZERO, ONE, FLIP, WILD))
_VALUE = str.maketrans("01Xa", "0100")
_CARE = str.maketrans("01Xa", "1100")


class InputError(ValueError):
    """Input from outside the program that revca refuses: malformed text, a
    value outside its domain, or a size past a limit.  The command line
    exits 2 on it; any other ``ValueError`` is a bug."""


class MixtureError(InputError):
    """A candidate pattern set failed mixture validation.

    Carries the violated clause, the offending pair (when pairwise), and a
    human-readable detail naming the shift at which the pair fits together:
    at shift ``k`` the second core's flip cell sits ``k`` cells right of the
    first's.
    """

    def __init__(self, clause: str, message: str,
                 pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.clause = clause
        self.pair = pair


def template(text: str) -> tuple[int, int, int]:
    """``(value, care, anchor)`` of pattern text: window ``w`` matches iff
    ``w & care == value``, and ``anchor`` is the index of the flip cell.

    Raises :class:`InputError` for text that is not a pattern.
    """
    if not text:
        raise InputError("empty pattern")
    bad = set(text) - _ALPHABET
    if bad:
        raise InputError(f"invalid symbols {sorted(bad)!r} in {text!r}")
    if text.count(FLIP) != 1:
        raise InputError(f"pattern must contain exactly one {FLIP!r}: {text!r}")
    if WILD in text.strip(WILD):
        raise InputError(f"wildcards only allowed at the ends: {text!r}")
    return int(text.translate(_VALUE), 2), int(text.translate(_CARE), 2), text.index(FLIP)


def _check_diameter(diameter: int) -> None:
    if not 1 <= diameter <= MAX_DIAMETER:
        raise InputError(f"diameter {diameter} outside 1..{MAX_DIAMETER}")


def _core(text: str) -> tuple[int, int, int, int]:
    """``(value, care, L, R)`` of a wildcard-free core."""
    if WILD in text:
        raise InputError(f"operation requires a wildcard-free core: {text!r}")
    value, care, left = template(text)
    return value, care, left, len(text) - 1 - left


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


def independent(p: str, q: str) -> bool:
    """Pairwise non-interference of two cores (self-pair reduces to stability):
    every placement that puts one flip cell on the other core clashes."""
    a, b = _core(p), _core(q)
    if a == b:
        return _unstable_shift(a) is None
    return _interfering_shift(a, b) is None


def _stable_values(left: int, right: int) -> np.ndarray:
    """The values, X read as 0, of the stable cores with these radii, ascending.

    Tests the 2^(left+right) fillings of the concrete cells (the flip cell is
    not free) at once: filling ``v`` is stable iff
    ``(v ^ (v >> k)) & care & (care >> k) != 0`` for every ``k`` in
    ``1..max(left, right)``.
    """
    n = left + right
    fill = np.arange(1 << n)
    value = ((fill >> right) << (right + 1)) | (fill & ((1 << right) - 1))
    care = ((1 << (n + 1)) - 1) ^ (1 << right)
    stable = np.ones(fill.shape, bool)
    for k in range(1, max(left, right) + 1):
        stable &= ((value ^ (value >> k)) & (care & (care >> k))) != 0
    return value[stable]


def _texts(values: np.ndarray, left: int, size: int) -> list[str]:
    """The text of each core of ``size`` cells with its flip cell at ``left``,
    from its value with X read as 0; valid by construction, so unchecked."""
    cells = np.empty((len(values), size), np.uint8)
    for i in range(size):
        cells[:, i] = (values >> (size - 1 - i)) & 1
    cells += ord(ZERO)
    cells[:, left] = ord(FLIP)
    return cells.view(f"S{size}").ravel().astype(str).tolist()


def generate_injective_patterns(left: int, right: int) -> tuple[str, ...]:
    """All stable cores with the given radii, ascending by window value."""
    if left < 0 or right < 0:
        raise InputError("radii must be >= 0")
    _check_diameter(left + right + 1)
    return tuple(_texts(_stable_values(left, right), left, left + right + 1))


def generate_all_patterns(diameter: int) -> tuple[str, ...]:
    """All stable cores of one diameter, over every (L, R) split of it, by
    anchor and then by value."""
    _check_diameter(diameter)
    return tuple(p for left in range(diameter)
                 for p in generate_injective_patterns(left, diameter - 1 - left))


def enumerate_extended(diameter: int) -> tuple[str, ...]:
    """All wildcard-padded cores of smaller diameters brought up to ``diameter``.

    Every placement (k, h) with k + h = diameter - d counts separately.  The
    degenerate single-flip core is excluded: padded with wildcards it matches
    every window, so it induces a plain complement rule rather than anything
    new, and including it would double-count the trivial family.

    The patterns are ordered by anchor, then by the core's value with X read
    as 0, then by the core's size, then by the flip cell's position in the
    core.  The four fix a pattern, so the order is total.
    """
    _check_diameter(diameter)
    texts: list[str] = []
    keys = [np.zeros(0, np.int64)]
    for size in range(2, diameter):
        for left in range(size):
            values = _stable_values(left, size - 1 - left)
            cores = _texts(values, left, size)
            for k in range(diameter - size + 1):
                pad = WILD * (diameter - size - k)
                texts += [WILD * k + c + pad for c in cores]
                # the order's four keys in one integer: values are below 2^15
                keys.append(((k + left) << 24) | (values << 8) | (size << 4) | left)
    return tuple(np.array(texts, object)[np.argsort(np.concatenate(keys))])


@dataclass(frozen=True)
class MixtureSet:
    """Validated set of same-diameter, same-anchor, pairwise-independent patterns.

    Construct via :func:`build_mixture`; the constructor itself performs no
    validation.
    """

    members: tuple[str, ...]
    diameter: int
    anchor: int


def build_mixture(candidates: Iterable[str]) -> MixtureSet:
    """Validate a pattern set and return it as a mixture.

    Rejections carry the violated clause and the first offending pair:
    diameter or anchor mismatch, an unstable member core, or a pairwise
    interference (the shift at which the pair fits is named in the message).
    A diameter above :data:`MAX_DIAMETER` raises :class:`InputError` before
    any member is checked.  The members are ordered by the value of their
    core with X read as 0, then by its size, then by their text.
    """
    anchors = {p: template(p)[2] for p in sorted(set(candidates))}
    if not anchors:
        raise MixtureError("empty", "mixture needs at least one pattern")
    first, *rest = anchors
    for p in rest:
        if len(p) != len(first):
            raise MixtureError(
                "diameter",
                f"diameter mismatch: {first} has {len(first)}, {p} has {len(p)}",
                pair=(first, p))
        if anchors[p] != anchors[first]:
            raise MixtureError(
                "anchor",
                f"anchor mismatch: {first} flips cell {anchors[first]}, "
                f"{p} flips cell {anchors[p]}",
                pair=(first, p))
    _check_diameter(len(first))
    cores = {p: _core(p.strip(WILD)) for p in anchors}
    for p in anchors:
        k = _unstable_shift(cores[p])
        if k is not None:
            raise MixtureError(
                "self-stability",
                f"{p} is not an injective pattern: its core fits a copy of itself "
                f"at shift {k}",
                pair=(p, p))
    for p, q in itertools.combinations(anchors, 2):
        k = _interfering_shift(cores[p], cores[q])
        if k is not None:
            raise MixtureError(
                "independence",
                f"patterns {p} and {q} are not independent: their cores fit at shift {k}",
                pair=(p, q))
    members = sorted(anchors, key=lambda p: (cores[p][0], cores[p][2] + cores[p][3]))
    return MixtureSet(tuple(members), len(first), anchors[first])
