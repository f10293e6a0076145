"""In-process client: one request at a time, timed around the call only.

CLI requests go through ``revca.cli.main(argv)`` with stdin, stdout and
stderr swapped for buffers; sweep blocks go through
``revca.injectivity.scan_unit``, the unit of work the CLI's worker pool maps.
Both are looked up as module attributes at call time, so wrappers installed
by the tracer see them.

This module imports only the standard library, so that the set-up probe
(``probe.py``) measures little besides interpreter start, ``import revca`` and
the warm-up below.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass


@dataclass
class Reply:
    code: int | None        # exit code; None when the call raised
    out: str                 # captured stdout
    err: str                 # captured stderr
    seconds: float           # wall time of the call alone
    error: str | None = None  # traceback of an uncaught exception
    found: list | None = None  # result of a scan_unit call


def call_cli(argv: list[str]) -> Reply:
    """Run one CLI request in this process, with empty stdin, and capture
    what it printed."""
    from revca import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # a traceback is a failed request, never a crash of the run
                code, raised = None, exc
            t1 = time.perf_counter()
    finally:
        sys.stdin = saved_stdin
    error = "".join(traceback.format_exception(raised)) if raised is not None else None
    return Reply(code, out.getvalue(), err.getvalue(), t1 - t0, error)


def call_scan(diameter: int, unit) -> Reply:
    """Run one sweep work unit in this process."""
    from revca import injectivity

    t0 = time.perf_counter()
    try:
        found = injectivity.scan_unit(diameter, unit)
    except Exception as exc:
        t1 = time.perf_counter()
        return Reply(None, "", "", t1 - t0, "".join(traceback.format_exception(exc)))
    t1 = time.perf_counter()
    return Reply(0, "", "", t1 - t0, found=found)


# The first request of each kind a workload sends, with fixed inputs and the
# exit code it must end with: it fills the pair-graph edge templates, the
# popcount-mask and period-window caches and the lazily imported modules,
# which every CLI invocation pays for again.
WARMUP: dict[str, list[tuple]] = {
    "construct": [
        (0, ["gen-patterns", "-d", "6"]),
        (0, ["gen-extended", "-d", "6"]),
        (0, ["counts", "-n", "6", "--json"]),
        (0, ["induce", "0X0011", "--verify"]),
        (0, ["induce", "a0X011a", "--verify"]),
        (0, ["induce", "0X000011", "--verify"]),
        (3, ["induce", "0X011", "0X110"]),
    ],
    "verify": [
        (1, ["verify", "-d", "7", "-w", "0x" + "96" * 16]),
        (1, ["verify", "-d", "8", "-w", "0x" + "96" * 32]),
        (1, ["verify", "-d", "9", "-w", "0x" + "96" * 64]),
    ],
    "sweep": [
        (0, ["enumerate", "-d", "2"]),
        (0, 4, (0, 64)),
        (0, 5, (8, 0, 1)),
    ],
}


def warm_up(workload: str) -> None:
    """Send the workload's warm-up requests; raise if one ends unexpectedly."""
    for want, *request in WARMUP[workload]:
        reply = call_cli(*request) if len(request) == 1 else call_scan(*request)
        if reply.code != want:
            raise RuntimeError(f"warm-up {request} ended with {reply.code}, expected {want}: "
                               f"{reply.error or reply.err}")
