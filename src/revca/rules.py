"""Rule tables, Wolfram numbering, and induction of rules from pattern mixtures.

A rule of diameter D is a vector of 2^D output bits indexed by window value,
with the leftmost window cell as the most significant bit.  The Wolfram number
is ``sum(bits[v] << v)``; it is arbitrary precision because tables outgrow
machine words from D = 7 on.  The anchor records which window cell the output
replaces during simulation; it never affects injectivity, so equality and
deduplication ignore it.
"""

from __future__ import annotations

import decimal
import functools
from dataclasses import dataclass
from typing import Sequence

from .patterns import MAX_DIAMETER, MixtureSet, template

WolframNumber = int


class FlipCollisionError(RuntimeError):
    """Two mixture members claimed the same rule-table entry.

    Validated mixtures cannot trigger this; seeing it means an invalid set
    slipped past :func:`revca.patterns.build_mixture`.
    """


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Complete local rule: 2^diameter output bits plus a simulation anchor."""

    diameter: int
    bits: tuple[int, ...]
    anchor: int = 0

    def __post_init__(self) -> None:
        if self.diameter < 1:
            raise ValueError("diameter must be >= 1")
        if len(self.bits) != 1 << self.diameter:
            raise ValueError(
                f"need {1 << self.diameter} output bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("output bits must be 0 or 1")
        if not 0 <= self.anchor < self.diameter:
            raise ValueError(f"anchor {self.anchor} out of range")

    # anchor is carried for simulation only and excluded from identity
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleTable):
            return NotImplemented
        return self.diameter == other.diameter and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.diameter, self.bits))

    def __repr__(self) -> str:
        return (f"RuleTable(diameter={self.diameter}, "
                f"wolfram={_decimal_text(to_wolfram(self))}, anchor={self.anchor})")


def _default_anchor(diameter: int) -> int:
    return (diameter - 1) // 2


def projection_table(diameter: int, j: int) -> RuleTable:
    """Rule that copies window cell j; its global map is a pure shift."""
    if not 0 <= j < diameter:
        raise ValueError(f"cell index {j} out of range for diameter {diameter}")
    shift = diameter - 1 - j
    bits = tuple((v >> shift) & 1 for v in range(1 << diameter))
    return RuleTable(diameter, bits, anchor=j)


def complement_table(diameter: int, j: int) -> RuleTable:
    """Rule that negates window cell j; a shift composed with cell complement."""
    if not 0 <= j < diameter:
        raise ValueError(f"cell index {j} out of range for diameter {diameter}")
    shift = diameter - 1 - j
    bits = tuple(1 - ((v >> shift) & 1) for v in range(1 << diameter))
    return RuleTable(diameter, bits, anchor=j)


def trivial_tables(diameter: int) -> tuple[RuleTable, ...]:
    """The 2*diameter projection and complement tables."""
    out = []
    for j in range(diameter):
        out.append(projection_table(diameter, j))
        out.append(complement_table(diameter, j))
    return tuple(out)


def to_wolfram(rt: RuleTable) -> WolframNumber:
    w = 0
    for v, b in enumerate(rt.bits):
        w |= b << v
    return w


def from_wolfram(diameter: int, w: WolframNumber, anchor: int | None = None) -> RuleTable:
    """The table of a Wolfram number; a diameter outside 1..MAX_DIAMETER
    raises ``ValueError`` before the 2^diameter bits are built."""
    if not 1 <= diameter <= MAX_DIAMETER:
        raise ValueError(f"diameter {diameter} outside 1..{MAX_DIAMETER}")
    if not 0 <= w < 1 << (1 << diameter):
        raise ValueError(f"wolfram number {w} out of range for diameter {diameter}")
    bits = tuple((w >> v) & 1 for v in range(1 << diameter))
    return RuleTable(diameter, bits, _default_anchor(diameter) if anchor is None else anchor)


def is_balanced(rt: RuleTable) -> bool:
    """Equal 0/1 output counts; necessary for an injective global map."""
    return sum(rt.bits) == 1 << (rt.diameter - 1)


@functools.cache
def _trivial_labels(d: int) -> dict[tuple[int, ...], str]:
    """The label of each shift/complement table of diameter d, by its bits."""
    labels: dict[tuple[int, ...], str] = {}
    for j in range(d):
        labels.setdefault(projection_table(d, j).bits, f"projection({j})")
        labels.setdefault(complement_table(d, j).bits, f"complement({j})")
    return labels


def classify_trivial(rt: RuleTable) -> str:
    """``projection(j)`` or ``complement(j)`` when the table equals one of
    the 2*diameter shift/complement tables, else ``nontrivial``."""
    return _trivial_labels(rt.diameter).get(tuple(rt.bits), "nontrivial")


def induce(mixture: MixtureSet) -> RuleTable:
    """Rule induced by a mixture: start from the anchor projection and flip
    the entry of every window ``w`` with ``w & care == value`` for a member's
    template ``(value, care)``.

    Members of a valid mixture control disjoint window sets; a collision
    aborts with :class:`FlipCollisionError` since it would mean the mixture
    was never validated.
    """
    d, j = mixture.diameter, mixture.anchor
    bits = list(projection_table(d, j).bits)
    owner: dict[int, str] = {}
    for member in mixture.members:
        value, care, _ = template(member)
        free = ((1 << d) - 1) ^ care
        sub = free
        while True:  # every submask of the free cells, down to 0
            w = value | sub
            if w in owner:
                raise FlipCollisionError(
                    f"window {w:0{d}b} claimed by both {owner[w]} and {member}")
            owner[w] = member
            bits[w] ^= 1
            if not sub:
                break
            sub = (sub - 1) & free
    return RuleTable(d, tuple(bits), anchor=j)


def table_hex(rt: RuleTable) -> str:
    """Output bits as lowercase hex, lowest-index bit last."""
    digits = max(1, (1 << rt.diameter) // 4)
    return format(to_wolfram(rt), f"0{digits}x")


def _decimal_text(w: WolframNumber) -> str:
    # str(int) refuses numbers of over 4300 digits, which tables reach at D = 14
    return str(decimal.Decimal(w))


def _parse_decimal(text: str) -> WolframNumber:
    if text.isascii() and text.isdigit():
        return int(decimal.Decimal(text))   # no 4300-digit limit
    return int(text)


def rule_to_json(rt: RuleTable, provenance: Sequence[str] = ()) -> dict:
    """The record of a rule: both encodings, the inducing patterns, and the
    verification flags, which start unset for the caller to fill in."""
    return {
        "diameter": rt.diameter,
        "anchor": rt.anchor,
        "wolfram_decimal": _decimal_text(to_wolfram(rt)),
        "table_hex": table_hex(rt),
        "provenance": list(provenance),
        "verified_debruijn": False,
        "verified_periodic_to": 0,
    }


def rule_from_json(obj: dict) -> tuple[RuleTable, tuple[str, ...]]:
    """Decode a record; the two encodings must agree bit for bit.

    Raises ``ValueError`` for anything that is not a rule record: not a JSON
    object, a field missing or of the wrong JSON type (``provenance``, when
    present, is a list of strings), or disagreeing encodings.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a rule record is a JSON object, got {type(obj).__name__}")
    for name, kind in (("diameter", int), ("anchor", int), ("wolfram_decimal", str),
                       ("table_hex", str)):
        if name not in obj:
            raise ValueError(f"rule record lacks {name!r}")
        if type(obj[name]) is not kind:   # exact: 3.9 is no diameter, false no anchor
            raise ValueError(f"{name} {obj[name]!r} is not of type {kind.__name__}")
    provenance = obj.get("provenance", [])
    if type(provenance) is not list or any(type(p) is not str for p in provenance):
        raise ValueError(f"provenance {provenance!r} is not a list of strings")
    w = _parse_decimal(obj["wolfram_decimal"])
    rt = from_wolfram(obj["diameter"], w, anchor=obj["anchor"])
    if int(obj["table_hex"], 16) != w:
        raise ValueError(
            f"table_hex {obj['table_hex']!r} disagrees with wolfram_decimal "
            f"{obj['wolfram_decimal']!r}")
    return rt, tuple(provenance)
