"""Spans around the public functions of each layer, installed from outside.

The tracer replaces module attributes of ``revca`` with wrappers; the CLI and
the layers look those functions up as module attributes at call time, so the
wrappers see every call the benchmark causes.  Each call records a span
(parent span, name, start, end) kept in memory, plus counts taken at the same
boundary.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

from revca import catalog, cli, engine, injectivity, patterns, rules


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _scan_name(args, kwargs) -> str:
    return f"injectivity.scan_unit.d{args[0]}"


def _scan_counts(args, result, exc) -> dict:
    d, unit = args
    if d < injectivity.LONG_SWEEP_DIAMETER:
        tables = unit[1] - unit[0]
    else:
        half = 1 << (d - 1)
        j, s, e = unit
        tables = (e - s) * math.comb(half, half - j)
    return {"tables": tables, "found": len(result) if result is not None else 0}


def _decision_counts(args, result, exc) -> dict:
    rt = args[0]
    out = {"pair_nodes": 4 ** (rt.diameter - 1)}
    if result is not None:
        out["accepted" if result.injective else "rejected"] = 1
        if result.witness:
            out["witness_cells"] = len(result.witness[0])
    return out


# (module, function, counts(args, result, exception) -> {stat: increment}).
# Stats other than calls and self_s are computed from the inputs and results,
# so they repeat exactly for the same requests.
LAYERS = (
    (patterns, "generate_all_patterns",
     lambda a, r, e: {"cores": len(r) if r is not None else 0}),
    (patterns, "enumerate_extended", None),
    (patterns, "build_mixture",
     lambda a, r, e: {"rejected": int(isinstance(e, patterns.MixtureError))}),
    (rules, "induce", None),
    (rules, "classify_trivial", None),
    (rules, "from_wolfram", None),
    (engine, "batch_step", lambda a, r, e: {"cells": a[1].shape[0] * a[1].shape[1]}),
    (engine, "all_configs", None),
    (injectivity, "debruijn_injective", _decision_counts),
    (injectivity, "periodic_bijective", lambda a, r, e: {"configs": 1 << a[1]}),
    (injectivity, "scan_unit", _scan_counts),
    (catalog, "append_entries", None),   # bytes: file growth, measured in the wrapper
    (catalog, "save_checkpoint", None),
    (cli, "main", None),
)

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [parent index, name, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, fname, counter in LAYERS:
            orig = getattr(module, fname)
            self._originals.append((module, fname, orig))
            setattr(module, fname, self._wrap(module, fname, orig, counter))

    def uninstall(self) -> None:
        for module, fname, orig in reversed(self._originals):
            setattr(module, fname, orig)
        self._originals.clear()

    def _wrap(self, module, fname, orig, counter):
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
        is_append = fname == "append_entries"
        name_of = _scan_name if fname == "scan_unit" else (lambda a, k: base)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            before = _file_size(args[0]) if is_append else 0
            span = [self.stack[-1] if self.stack else None, name, 0.0, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            span[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
                self.counts[f"{name}.calls"] += 1
                if counter is not None:
                    for stat, inc in counter(args, result, exc).items():
                        self.counts[f"{name}.{stat}"] += inc
                if is_append:
                    self.counts[f"{name}.bytes"] += _file_size(args[0]) - before

        return wrapper

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for parent, name, start, end in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][1]] -= end - start
        return out

    def metrics(self, names: list[str], overhead_s: float) -> dict[str, float]:
        """The named per-layer metrics; a layer no request reached reads 0."""
        values = dict(self.counts)
        for name, seconds in self.self_times().items():
            values[f"{name}.self_s"] = seconds
        values["trace.overhead_s"] = overhead_s
        return {k: values.get(k, 0) for k in names}
