"""Judge each reply outside the timed region, with oracles that share no code
with the package: ``tests/brute.py`` and ``reference.json``.

``Checker.check`` returns the list of problems found in one reply; an empty
list means the reply is correct.  ``self_test`` feeds the checker real
replies and corrupted copies of them, and fails unless it accepts the former
and rejects every one of the latter.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import brute

from client import call_cli
from workloads import Request, cores, wolfram

_EXTENDED = re.compile(r"^a*[01]*X[01]*a*$")


def triviality(bits: list[int], d: int) -> str:
    """'projection(j)', 'complement(j)' or 'nontrivial', as ``verify`` prints it."""
    for j in range(d):
        proj = [(v >> (d - 1 - j)) & 1 for v in range(1 << d)]
        if bits == proj:
            return f"projection({j})"
        if bits == [1 - b for b in proj]:
            return f"complement({j})"
    return "nontrivial"


class Checker:
    def __init__(self, reference: dict, seed: int):
        self.pattern_counts = {int(k): v for k, v in reference["pattern_counts"].items()}
        self.extended_counts = {int(k): v for k, v in reference["extended_counts"].items()}
        self.d4 = reference["d4_injective"]
        self.rng = random.Random(f"check:{seed}")
        self.catalog_lines: list[dict] = []  # induce payloads the catalog must hold

    def check(self, req: Request, reply) -> list[str]:
        if reply.error is not None:
            return [f"uncaught exception: {reply.error.strip().splitlines()[-1]}"]
        if "Traceback" in reply.err:
            return ["traceback on stderr"]
        try:
            return getattr(self, "_" + req.kind.replace("-", "_"))(req, reply)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"malformed {req.kind} reply: {exc!r}"]

    # -- pattern generation -------------------------------------------------

    def _sample_stable(self, lines: list[str]) -> list[str]:
        problems = []
        for line in self.rng.sample(lines, min(16, len(lines))):
            core = line.strip("a")
            if brute.interference_offsets(core, core):
                problems.append(f"{line} is not an injective pattern")
        return problems

    def _gen_patterns(self, req: Request, reply) -> list[str]:
        d = req.expect["diameter"]
        lines = reply.out.split()
        if reply.code != 0:
            return [f"exit {reply.code}"]
        problems = []
        if len(lines) != self.pattern_counts[d]:
            problems.append(f"{len(lines)} patterns at D={d}, expected {self.pattern_counts[d]}")
        if len(set(lines)) != len(lines):
            problems.append("duplicate patterns")
        if any(len(p) != d or p.count("X") != 1 or set(p) - set("01X") for p in lines):
            problems.append("malformed pattern line")
        return problems or self._sample_stable(lines)

    def _gen_extended(self, req: Request, reply) -> list[str]:
        d = req.expect["diameter"]
        lines = reply.out.split()
        if reply.code != 0:
            return [f"exit {reply.code}"]
        problems = []
        if len(lines) != self.extended_counts[d]:
            problems.append(f"{len(lines)} extended patterns at D={d}, "
                            f"expected {self.extended_counts[d]}")
        if len(set(lines)) != len(lines):
            problems.append("duplicate patterns")
        if any(len(p) != d or "a" not in p or not _EXTENDED.match(p) for p in lines):
            problems.append("malformed extended pattern line")
        return problems or self._sample_stable(lines)

    def _counts(self, req: Request, reply) -> list[str]:
        if reply.code != 0:
            return [f"exit {reply.code}"]
        n = req.expect["max_diameter"]
        want = [{"diameter": d, "injective_patterns": self.pattern_counts[d],
                 "extended_patterns": self.extended_counts[d]} for d in range(3, n + 1)]
        try:
            got = json.loads(reply.out)["rows"]
        except (ValueError, KeyError, TypeError):
            return ["counts output is not the documented JSON"]
        return [] if got == want else [f"counts rows {got} != {want}"]

    # -- construction -------------------------------------------------------

    def _induce(self, req: Request, reply) -> list[str]:
        e = req.expect
        if e["conflict"]:
            if reply.code != 3 or reply.out:
                return [f"dependent set {e['members']} ended with exit {reply.code}, expected 3"]
            return []
        if reply.code != 0:
            return [f"independent set {e['members']} ended with exit {reply.code}"]
        try:
            obj = json.loads(reply.out)
        except ValueError:
            return ["induce output is not one JSON object"]
        problems = []
        if obj.get("wolfram_decimal") != str(e["wolfram"]):
            problems.append(f"wolfram {obj.get('wolfram_decimal')} != brute {e['wolfram']}")
        try:
            if int(obj.get("table_hex", ""), 16) != e["wolfram"]:
                problems.append("table_hex disagrees with the brute table")
        except ValueError:
            problems.append("table_hex is not hexadecimal")
        if obj.get("verified_debruijn") is not True:
            problems.append("verified_debruijn not set")
        if obj.get("verified_periodic_to") != 12:
            problems.append("verified_periodic_to is not 12")
        if (obj.get("diameter"), obj.get("anchor")) != (e["diameter"], e["anchor"]):
            problems.append("wrong diameter or anchor")
        if sorted(obj.get("provenance", ())) != e["members"]:
            problems.append("provenance differs from the requested members")
        if obj.get("balanced") is not True:
            problems.append("induced rule not reported balanced")
        if not problems:
            self.catalog_lines.append(obj)
        return problems

    def check_catalog(self, path: Path) -> list[str]:
        """The catalog holds one line per accepted induce reply, in order."""
        from revca import catalog

        if not self.catalog_lines:
            return []
        fields = ("diameter", "anchor", "wolfram_decimal", "table_hex", "provenance",
                  "verified_debruijn", "verified_periodic_to")
        try:
            raw = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        except (OSError, ValueError) as exc:
            return [f"catalog unreadable: {exc}"]
        got = [{k: o.get(k) for k in fields} for o in raw]
        want = [{k: o[k] for k in fields} for o in self.catalog_lines]
        problems = []
        if got != want:
            problems.append(f"catalog holds {len(got)} entries, expected {len(want)} "
                            "matching the induce replies")
        if any("created_at" not in o for o in raw):
            problems.append("catalog entry without created_at")
        try:
            if len(catalog.read_catalog(path)) != len(raw):
                problems.append("read_catalog disagrees with the catalog lines")
        except Exception as exc:  # any failure to read back is a wrong reply, not a crash
            problems.append(f"read_catalog failed: {exc!r}")
        return problems

    # -- decision -----------------------------------------------------------

    def _verify(self, req: Request, reply) -> list[str]:
        e = req.expect
        d, bits = e["diameter"], e["bits"]
        lines = reply.out.splitlines()
        if reply.code not in (0, 1) or not lines:
            return [f"verify ended with exit {reply.code}"]
        injective = lines[0] == "Injective"
        if lines[0] not in ("Injective", "NotInjective") or reply.code != (0 if injective else 1):
            return [f"verdict line {lines[0]!r} with exit {reply.code}"]
        problems = []
        if injective != e["injective"]:
            problems.append(f"verdict {lines[0]}, expected "
                            f"{'Injective' if e['injective'] else 'NotInjective'}")
        rest = lines[1:]
        if not injective:
            if not rest or not rest[0].startswith("witness: "):
                return problems + ["NotInjective without a witness"]
            problems += witness_problems(bits, d, rest[0][len("witness: "):])
            rest = rest[1:]
        want = [f"trivial: {triviality(bits, d)}",
                f"balanced: {str(sum(bits) == 1 << (d - 1)).lower()}"]
        if rest != want:
            problems.append(f"report lines {rest} != {want}")
        return problems

    # -- sweeps -------------------------------------------------------------

    def _enumerate(self, req: Request, reply) -> list[str]:
        if reply.code != 0:
            return [f"enumerate ended with exit {reply.code}"]
        try:
            objs = [json.loads(line) for line in reply.out.splitlines()]
            catalog_objs = [json.loads(line) for line in
                            req.expect["catalog"].read_text(encoding="utf-8").splitlines()]
            ckpt = json.loads(req.expect["checkpoint"].read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"enumerate output unreadable: {exc}"]
        problems = []
        got = [int(o.get("wolfram_decimal", -1)) for o in objs]
        if got != self.d4:
            problems.append(f"enumerate -d 4 listed {len(got)} tables, "
                            f"not the {len(self.d4)} reference tables in order")
        if any(o.get("verified_debruijn") is not True or o.get("diameter") != 4 for o in objs):
            problems.append("enumerate entry not marked verified at D=4")
        if [int(o.get("wolfram_decimal", -1)) for o in catalog_objs] != self.d4:
            problems.append("catalog does not hold the reference tables")
        if (ckpt.get("diameter"), ckpt.get("next_unit"), ckpt.get("total_units")) != (4, 16, 16):
            problems.append(f"checkpoint {ckpt} is not a completed D=4 sweep")
        return problems

    def _scan(self, req: Request, reply) -> list[str]:
        want = req.expect["found"]
        if reply.found != want:
            return [f"unit {req.unit} found {reply.found}, reference {want}"]
        return []


def witness_problems(bits: list[int], d: int, text: str) -> list[str]:
    """A witness is two distinct equal-length words with equal images."""
    parts = text.split()
    if len(parts) != 2 or any(not p or set(p) - set("01") for p in parts):
        return [f"malformed witness {text!r}"]
    w1, w2 = parts
    if w1 == w2 or len(w1) != len(w2):
        return [f"witness {w1} {w2} is not two distinct equal-length words"]
    if brute.naive_step(bits, d, 0, w1) != brute.naive_step(bits, d, 0, w2):
        return [f"witness {w1} {w2} images differ"]
    return []


# ---------------------------------------------------------------------------
# Checker self-test.

def _flip_first_bit(text: str) -> str:
    w1, w2 = text.split()
    return f"{'1' if w1[0] == '0' else '0'}{w1[1:]} {w2}"


def self_test(reference: dict) -> list[str]:
    """Real replies must pass; each corrupted copy must be counted as a failure.

    Corruptions: a flipped witness bit, a Wolfram number off by one, and a
    pattern listing with one line missing.  Returns what went wrong.
    """
    checker = Checker(reference, seed=0)
    core = cores(7)[1][0]
    bits = brute.induced_bits([core], 7, core.index("X"))
    verify_req = Request("verify", ["verify", "-d", "7", "-w", str(wolfram(bits))],
                         expect={"diameter": 7, "bits": bits, "injective": False})
    members = ["0X0011"]
    induce_req = Request("induce", ["induce", *members, "--verify"],
                         expect={"members": members, "diameter": 6, "anchor": 1,
                                 "conflict": False,
                                 "wolfram": wolfram(brute.induced_bits(members, 6, 1))})
    gen_req = Request("gen-patterns", ["gen-patterns", "-d", "8"], expect={"diameter": 8})

    def corrupt_verify(out: str) -> str:
        head, witness, *rest = out.split("\n")
        return "\n".join([head, "witness: " + _flip_first_bit(witness[9:]), *rest])

    def corrupt_induce(out: str) -> str:
        obj = json.loads(out)
        obj["wolfram_decimal"] = str(int(obj["wolfram_decimal"]) + 1)
        return json.dumps(obj, sort_keys=True) + "\n"

    def corrupt_gen(out: str) -> str:
        return "\n".join(out.splitlines()[:-1]) + "\n"

    problems = []
    for name, req, corrupt in (("flipped witness bit", verify_req, corrupt_verify),
                               ("wolfram number off by one", induce_req, corrupt_induce),
                               ("wrong pattern count", gen_req, corrupt_gen)):
        reply = call_cli(req.argv)
        if checker.check(req, reply):
            problems.append(f"self-test: genuine reply for {name} rejected: "
                            f"{checker.check(req, reply)}")
        elif not checker.check(req, replace(reply, out=corrupt(reply.out))):
            problems.append(f"self-test: {name} not counted as a failure")
    return problems
