"""Command-line front end: pattern generation, rule induction, verification,
exhaustive enumeration, and simulation.

Handlers only do work and raise; :func:`main` alone maps an exception to an
exit code.  Exit codes: 0 success (and "injective" for verify); 1 only the
NotInjective verdict of verify; 2 a :class:`revca.patterns.InputError` (usage,
malformed input, a library refusal such as a limit) or an ``OSError`` (a file
that cannot be read or written), with one ``error:`` line on stderr; 3 a
:class:`revca.patterns.MixtureError`, such as an independence violation; 4 any
other exception, a stray ``ValueError`` included, with its traceback and one
``INTERNAL ERROR:`` line: an invariant breach or a bug, so a crash never reads
as NotInjective or as a refusal of input.  Stdout is byte-deterministic for
fixed inputs; progress and summaries go to stderr, timestamps only into
catalog files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, engine, injectivity, patterns, rules
from .patterns import InputError, MixtureError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


# Lines joined into one write by _print_lines: a few hundred kB of pattern text.
_BLOCK_LINES = 1 << 14


def _print_lines(lines: tuple[str, ...]) -> None:
    """Write each text of a sequence as a line of stdout, as one print() each
    would, but in blocks of ``_BLOCK_LINES``; stdout is looked up at the call,
    so a redirected one is used."""
    out = sys.stdout
    for lo in range(0, len(lines), _BLOCK_LINES):
        out.write("\n".join(lines[lo:lo + _BLOCK_LINES]) + "\n")


# ---------------------------------------------------------------------------
# Handlers

def _cmd_gen_patterns(args: argparse.Namespace) -> int:
    if args.diameter is not None:
        if args.left is not None or args.right is not None:
            raise InputError("give either --diameter or --left/--right, not both")
        found = patterns.generate_all_patterns(args.diameter)
    elif args.left is not None and args.right is not None:
        found = patterns.generate_injective_patterns(args.left, args.right)
    else:
        raise InputError("need --diameter or both --left and --right")
    _print_lines(found)
    print(f"count: {len(found)}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen_extended(args: argparse.Namespace) -> int:
    found = patterns.enumerate_extended(args.diameter)
    _print_lines(found)
    print(f"count: {len(found)}", file=sys.stderr)
    return EXIT_OK


def _cmd_counts(args: argparse.Namespace) -> int:
    if not 3 <= args.max_diameter <= 12:
        raise InputError("--max-diameter must be between 3 and 12")
    rows = []
    for n in range(3, args.max_diameter + 1):
        rows.append({
            "diameter": n,
            "injective_patterns": len(patterns.generate_all_patterns(n)),
            "extended_patterns": len(patterns.enumerate_extended(n)),
        })
    if args.json:
        _emit({"rows": rows})
    else:
        print(f"{'N':>3} {'injective':>10} {'extended':>10}")
        for r in rows:
            print(f"{r['diameter']:>3} {r['injective_patterns']:>10} "
                  f"{r['extended_patterns']:>10}")
    return EXIT_OK


def _read_pattern_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _check_max_period(max_period: int) -> None:
    if not 0 <= max_period <= engine.EXHAUSTIVE_BOUND:
        raise InputError(f"--max-period {max_period}: must be between 0 and "
                         f"{engine.EXHAUSTIVE_BOUND}, the exhaustive bound")


def _induce_one(texts: list[str], args: argparse.Namespace) -> None:
    mixture = patterns.build_mixture(texts)
    if args.verify:
        injectivity._check_decision_diameter(mixture.diameter)
    rt = rules.induce(mixture)
    record = rules.rule_to_json(rt, mixture.members)
    if args.verify:
        verdict = injectivity.debruijn_injective(rt)
        periodic_ok = all(
            injectivity.periodic_bijective(rt, n) for n in range(1, args.max_period + 1))
        if not verdict.injective or not periodic_ok:
            raise RuntimeError(f"induced rule for {texts} failed verification "
                               f"(debruijn={verdict.injective}, periodic={periodic_ok})")
        record["verified_debruijn"] = True
        record["verified_periodic_to"] = args.max_period
    if args.catalog:
        catalog.append_entries(args.catalog, [record])
    _emit({**record, "trivial": rules.classify_trivial(rt),
           "balanced": rules.is_balanced(rt)})


def _cmd_induce(args: argparse.Namespace) -> int:
    if args.verify:
        _check_max_period(args.max_period)
    if args.stdin and args.mixture_file:
        raise InputError("give either --stdin or --mixture-file, not both")
    groups: list[list[str]] = []
    if args.stdin or args.mixture_file:
        try:
            text = sys.stdin.read() if args.stdin else \
                Path(args.mixture_file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(str(exc)) from exc
        lines = _read_pattern_lines(text)
        if args.mixture_file and not lines:
            raise InputError(f"--mixture-file {args.mixture_file}: no patterns in the file")
        # each stdin line is induced on its own (pipe-friendly)
        groups = [[t] for t in lines] if args.stdin else [lines]
    if args.pattern:
        groups.append(list(args.pattern))
    if not any(groups):
        raise InputError("no patterns given")
    for texts in groups:
        _induce_one(texts, args)
    return EXIT_OK


def _wolfram_number(text: str) -> int:
    """A ``--wolfram`` value as ``int(text, 0)`` reads it, without Python's
    4300-digit limit on decimals; text it cannot read raises ``InputError``."""
    if text.isascii() and text.isdigit() and not text.startswith("0"):
        return rules._parse_decimal(text)
    try:
        return int(text, 0)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_max_period(args.max_period)
    injectivity._check_decision_diameter(args.diameter)
    rt = rules.from_wolfram(args.diameter, _wolfram_number(args.wolfram))
    verdict = injectivity.debruijn_injective(rt)
    periodic_ok = all(injectivity.periodic_bijective(rt, n)
                      for n in range(1, args.max_period + 1))
    print("Injective" if verdict.injective else "NotInjective")
    if verdict.witness:
        print(f"witness: {verdict.witness[0]} {verdict.witness[1]}")
    print(f"trivial: {rules.classify_trivial(rt)}")
    print(f"balanced: {str(rules.is_balanced(rt)).lower()}")
    if args.max_period:
        print(f"periodic_bijective_to_{args.max_period}: {str(periodic_ok).lower()}")
    return EXIT_OK if verdict.injective else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    d = args.diameter
    units = injectivity.sweep_units(d)
    total = len(units)
    start, held = 0, set()
    if args.checkpoint:
        cp = catalog.load_checkpoint(args.checkpoint)
        if cp is None:
            catalog.save_checkpoint(args.checkpoint, catalog.SweepCheckpoint(
                d, args.exclude_trivial, 0, total))
        elif cp.diameter != d or cp.exclude_trivial != args.exclude_trivial:
            raise InputError("checkpoint was written for different sweep parameters")
        elif cp.total_units != total:
            raise InputError(f"checkpoint was written for {cp.total_units} work units, "
                             f"this sweep has {total}")
        else:
            start = cp.next_unit
            # a unit appended but not checkpointed before a crash is in the catalog
            if args.catalog and Path(args.catalog).exists():
                held = {(r["diameter"], r["wolfram_decimal"])
                        for r in catalog.read_catalog(args.catalog)}

    for i, unit in enumerate(units[start:], start):
        records = []
        for w in injectivity.scan_unit(d, unit):
            rt = rules.from_wolfram(d, w)
            if args.exclude_trivial and rules.classify_trivial(rt) != "nontrivial":
                continue
            record = rules.rule_to_json(rt)
            record["verified_debruijn"] = True
            records.append(record)
        new = [r for r in records if (r["diameter"], r["wolfram_decimal"]) not in held]
        if args.catalog and new:
            catalog.append_entries(args.catalog, new)
        for record in records:
            _emit(record)
        if args.checkpoint:
            catalog.save_checkpoint(args.checkpoint, catalog.SweepCheckpoint(
                d, args.exclude_trivial, i + 1, total))
    if start >= total:
        print("sweep already complete per checkpoint; results are in the catalog",
              file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.pattern:
        if args.wolfram is not None or args.anchor is not None:
            raise InputError("give either --pattern or --wolfram/--anchor, not both")
        mixture = patterns.build_mixture(list(args.pattern))
        if args.diameter is not None and args.diameter != mixture.diameter:
            raise InputError("--diameter disagrees with the patterns")
        rt = rules.induce(mixture)
    elif args.wolfram is not None:
        if args.diameter is None:
            raise InputError("--wolfram needs --diameter")
        rt = rules.from_wolfram(args.diameter, _wolfram_number(args.wolfram), args.anchor)
    else:
        raise InputError("need --pattern or --wolfram")
    rows = engine.space_time(rt, args.init, args.steps)
    if args.pbm:
        raster = f"P1\n{len(args.init)} {len(rows)}\n" + "\n".join(rows) + "\n"
        Path(args.pbm).write_text(raster, encoding="ascii")
        print(f"wrote {args.pbm}", file=sys.stderr)
    else:
        for row in rows:
            print(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revca",
        description="Generate reversible 1D binary CA rules from stability "
                    "patterns and verify them independently.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-patterns", help="enumerate injective pattern cores")
    p.add_argument("--diameter", "-d", type=int, default=None)
    p.add_argument("--left", type=int, default=None, help="left radius")
    p.add_argument("--right", type=int, default=None, help="right radius")
    p.set_defaults(handler=_cmd_gen_patterns)

    p = sub.add_parser("gen-extended", help="enumerate wildcard-extended patterns")
    p.add_argument("--diameter", "-d", type=int, required=True)
    p.set_defaults(handler=_cmd_gen_extended)

    p = sub.add_parser("counts", help="pattern counts per diameter")
    p.add_argument("--max-diameter", "-n", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_counts)

    p = sub.add_parser("induce", help="induce a rule from patterns or a mixture file")
    p.add_argument("pattern", nargs="*", help="pattern texts forming one mixture")
    p.add_argument("--mixture-file", default=None,
                   help="file with one pattern per line forming one mixture")
    p.add_argument("--stdin", action="store_true",
                   help="read patterns from stdin, one singleton rule per line")
    p.add_argument("--verify", action="store_true",
                   help="run the injectivity decision and periodic checks")
    p.add_argument("--max-period", type=int, default=12)
    p.add_argument("--catalog", default=None, help="append entries to this JSONL file")
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("verify", help="decide injectivity of one rule")
    p.add_argument("--diameter", "-d", type=int, required=True)
    p.add_argument("--wolfram", "-w", required=True)
    p.add_argument("--max-period", type=int, default=0,
                   help="also run periodic permutation checks up to this length")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustively enumerate injective rules")
    p.add_argument("--diameter", "-d", type=int, required=True)
    p.add_argument("--exclude-trivial", action="store_true")
    p.add_argument("--catalog", default=None)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("simulate", help="run a rule on a periodic configuration")
    p.add_argument("--diameter", "-d", type=int, default=None)
    p.add_argument("--wolfram", "-w", default=None)
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--pattern", nargs="+", default=None,
                   help="induce the simulated rule from these patterns")
    p.add_argument("--init", required=True, help="initial binary word")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--pbm", default=None, help="write a P1 space-time raster here")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place where an exception becomes an exit
    code (see the module docstring).  ``KeyboardInterrupt`` and
    ``SystemExit`` (argparse's usage errors) propagate."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MixtureError as exc:   # an InputError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"INTERNAL ERROR: unexpected {type(exc).__name__} (traceback above); "
              "this indicates a bug, please report it", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
