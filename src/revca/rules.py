"""Rule tables, Wolfram numbering, and induction of rules from pattern mixtures.

A rule of diameter D is its Wolfram number: bit v is the output for window
value v, with the leftmost window cell as the most significant bit of v.  It is
a Python int, arbitrary precision because tables outgrow machine words from
D = 7 on, and the only form a :class:`RuleTable` stores; ``RuleTable.bits``
derives the 2^D output bits from it as a uint8 array.  The anchor records which
window cell the output replaces during simulation; it never affects
injectivity, so equality and deduplication ignore it.
"""

from __future__ import annotations

import decimal
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .patterns import InputError, MixtureSet, _check_diameter, template

WolframNumber = int


class FlipCollisionError(RuntimeError):
    """Two mixture members claimed the same rule-table entry.

    Validated mixtures cannot trigger this; seeing it means an invalid set
    slipped past :func:`revca.patterns.build_mixture`.
    """


@dataclass(frozen=True)
class RuleTable:
    """Complete local rule: its Wolfram number plus a simulation anchor."""

    diameter: int
    wolfram: WolframNumber
    anchor: int = field(compare=False)

    def __post_init__(self) -> None:
        _check_diameter(self.diameter)   # first: 1 << (1 << 64) is no bound to build
        w = self.wolfram
        if type(w) is not int or w < 0 or w.bit_length() > 1 << self.diameter:
            # repr() refuses an int of over 4300 digits, which --wolfram can give
            shown = _decimal_text(w) if type(w) is int else repr(w)
            raise InputError(
                f"wolfram number {shown} is not an int in range for diameter {self.diameter}")
        if not 0 <= self.anchor < self.diameter:
            raise InputError(f"anchor {self.anchor} out of range")

    @property
    def bits(self) -> np.ndarray:
        """The 2^diameter output bits by window value, a fresh uint8 array."""
        n = 1 << self.diameter
        packed = np.frombuffer(self.wolfram.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little")

    def __repr__(self) -> str:
        return (f"RuleTable(diameter={self.diameter}, "
                f"wolfram={_decimal_text(self.wolfram)}, anchor={self.anchor})")


def _wolfram_of(bits: np.ndarray) -> WolframNumber:
    """The Wolfram number of an array of output bits (inverts ``RuleTable.bits``)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def projection_table(diameter: int, j: int) -> RuleTable:
    """Rule that copies window cell j; its global map is a pure shift."""
    if not 0 <= j < diameter:
        raise InputError(f"cell index {j} out of range for diameter {diameter}")
    bits = (np.arange(1 << diameter) >> (diameter - 1 - j)) & 1
    return RuleTable(diameter, _wolfram_of(bits), anchor=j)


def complement_table(diameter: int, j: int) -> RuleTable:
    """Rule that negates window cell j; a shift composed with cell complement."""
    projection = projection_table(diameter, j).wolfram
    return RuleTable(diameter, projection ^ ((1 << (1 << diameter)) - 1), anchor=j)


def trivial_tables(diameter: int) -> tuple[RuleTable, ...]:
    """The 2*diameter projection and complement tables."""
    out = []
    for j in range(diameter):
        out.append(projection_table(diameter, j))
        out.append(complement_table(diameter, j))
    return tuple(out)


def from_wolfram(diameter: int, w: WolframNumber, anchor: int | None = None) -> RuleTable:
    """The table of a Wolfram number, anchored at cell (D-1)//2 unless
    ``anchor`` is given; a diameter outside 1..``patterns.MAX_DIAMETER``
    raises ``InputError`` before the table is built."""
    _check_diameter(diameter)
    return RuleTable(diameter, w, (diameter - 1) // 2 if anchor is None else anchor)


def is_balanced(rt: RuleTable) -> bool:
    """Equal 0/1 output counts; necessary for an injective global map."""
    return rt.wolfram.bit_count() == 1 << (rt.diameter - 1)


@functools.cache
def _trivial_labels(d: int) -> dict[WolframNumber, str]:
    """The label of each shift/complement table of diameter d, by its number."""
    labels: dict[WolframNumber, str] = {}
    for j in range(d):
        labels.setdefault(projection_table(d, j).wolfram, f"projection({j})")
        labels.setdefault(complement_table(d, j).wolfram, f"complement({j})")
    return labels


def classify_trivial(rt: RuleTable) -> str:
    """``projection(j)`` or ``complement(j)`` when the table equals one of
    the 2*diameter shift/complement tables, else ``nontrivial``."""
    return _trivial_labels(rt.diameter).get(rt.wolfram, "nontrivial")


def induce(mixture: MixtureSet) -> RuleTable:
    """Rule induced by a mixture: start from the anchor projection and flip
    the entry of every window ``w`` with ``w & care == value`` for a member's
    template ``(value, care)``.

    Members of a valid mixture control disjoint window sets; a collision
    aborts with :class:`FlipCollisionError` since it would mean the mixture
    was never validated.
    """
    d, j = mixture.diameter, mixture.anchor
    bits = projection_table(d, j).bits
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
            if not sub:
                break
            sub = (sub - 1) & free
    bits[list(owner)] ^= 1
    return RuleTable(d, _wolfram_of(bits), anchor=j)


def table_hex(rt: RuleTable) -> str:
    """Output bits as lowercase hex, lowest-index bit last."""
    digits = max(1, (1 << rt.diameter) // 4)
    return format(rt.wolfram, f"0{digits}x")


def _decimal_text(w: WolframNumber) -> str:
    # str(int) refuses numbers of over 4300 digits, which tables reach at D = 14
    return str(decimal.Decimal(w))


def _parse_decimal(text: str) -> WolframNumber:
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{text!r} is not a decimal number")
    return int(decimal.Decimal(text))   # no 4300-digit limit


def rule_to_json(rt: RuleTable, provenance: Sequence[str] = ()) -> dict:
    """The record of a rule: both encodings, the inducing patterns, and the
    verification flags, which start unset for the caller to fill in."""
    return {
        "diameter": rt.diameter,
        "anchor": rt.anchor,
        "wolfram_decimal": _decimal_text(rt.wolfram),
        "table_hex": table_hex(rt),
        "provenance": list(provenance),
        "verified_debruijn": False,
        "verified_periodic_to": 0,
    }


def rule_from_json(obj: dict) -> tuple[RuleTable, tuple[str, ...]]:
    """Decode a record; both encodings must be written exactly as
    :func:`rule_to_json` writes them, and agree bit for bit.

    Raises ``InputError`` for anything that is not a rule record: not a JSON
    object, a field missing or of the wrong JSON type (``provenance``, when
    present, is a list of strings), an encoding in another format (a sign,
    space, underscore, leading zero, ``0x`` or upper case), or disagreeing
    encodings.
    """
    if not isinstance(obj, dict):
        raise InputError(f"a rule record is a JSON object, got {type(obj).__name__}")
    for name, kind in (("diameter", int), ("anchor", int), ("wolfram_decimal", str),
                       ("table_hex", str)):
        if name not in obj:
            raise InputError(f"rule record lacks {name!r}")
        if type(obj[name]) is not kind:   # exact: 3.9 is no diameter, false no anchor
            raise InputError(f"{name} {obj[name]!r} is not of type {kind.__name__}")
    provenance = obj.get("provenance", [])
    if type(provenance) is not list or any(type(p) is not str for p in provenance):
        raise InputError(f"provenance {provenance!r} is not a list of strings")
    rt = from_wolfram(obj["diameter"], _parse_decimal(obj["wolfram_decimal"]),
                      anchor=obj["anchor"])
    if obj["wolfram_decimal"] != _decimal_text(rt.wolfram):
        raise InputError(f"wolfram_decimal {obj['wolfram_decimal']!r} is not in canonical form")
    if obj["table_hex"] != table_hex(rt):
        raise InputError(
            f"table_hex {obj['table_hex']!r} disagrees with wolfram_decimal "
            f"{obj['wolfram_decimal']!r}")
    return rt, tuple(provenance)
