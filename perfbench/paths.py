"""Locate the checkout the benchmark runs in and import the code under test.

The benchmark lives in ``perfbench/`` at the root of a revca checkout and
measures the package in ``src/revca`` of that same checkout, never an
installed copy.  The independent oracles come from ``tests/brute.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"


class CheckoutError(RuntimeError):
    """The directory holds no revca sources to measure."""


def use_checkout(with_oracles: bool = True) -> None:
    """Put the checkout's sources (and optionally its oracles) first on sys.path."""
    if not (SRC / "revca" / "__init__.py").is_file():
        raise CheckoutError(f"no revca package under {SRC}")
    if with_oracles and not (TESTS / "brute.py").is_file():
        raise CheckoutError(f"no oracle module {TESTS / 'brute.py'}")
    for p in ([str(TESTS)] if with_oracles else []) + [str(SRC)]:
        if p not in sys.path:
            sys.path.insert(0, p)
    import revca

    if Path(revca.__file__).resolve().parent != (SRC / "revca").resolve():
        raise CheckoutError(f"imported revca from {revca.__file__}, not {SRC}")
