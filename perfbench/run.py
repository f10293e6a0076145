"""revca benchmark: one closed-loop client in one process, one workload per run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see ``workloads.py`` and BENCHMARK.json): ``construct`` (pattern
generation, then ``induce --verify --catalog``), ``verify`` (``verify -d -w``
on mostly non-injective tables) and ``sweep`` (``enumerate -d 4 --catalog
--checkpoint``, then D=4 chunks and sampled D=5 balanced blocks through
``scan_unit``).

A run imports the checkout's ``src/revca``, warms up, runs the checker
self-test, then sends requests until ``--seconds`` have passed (and at least
100 were sent), taking set-up samples from fresh interpreters in between.
Each reply is checked outside the timed region.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` a fixed, seeded list
of requests is sent twice each, once untraced and once through the tracer,
and the result holds the per-layer metrics and the tracing overhead.

Stdout ends with two JSON lines: the full record (machine facts, sample
counts, failures) and the result ``{"correct", "attempted", "failed",
"metrics"}``.  ``--out FILE`` also appends the record to FILE for
``compare.py``.  Exit status 2 means the checkout holds nothing to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import client  # noqa: E402
import paths  # noqa: E402

MIN_REQUESTS = 100          # so that at least 10 samples lie beyond p90
SETUP_SAMPLES = 9           # fresh-interpreter set-up samples per run
HARD_LIMIT_S = 120          # a run stops sending requests after this, whatever else
# requests per traced run: each is sent twice, about 30 s on a 2-vCPU Xeon VM
TRACE_REQUESTS = {"construct": 400, "verify": 180, "sweep": 49}


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_sample(workload: str) -> float:
    """Wall time of a fresh interpreter that imports revca and warms up."""
    env = {k: v for k, v in os.environ.items() if k not in ("REVCA_THREADS", "PYTHONPATH")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=paths.ROOT,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
    return t1 - t0


def send(req):
    for f in req.fresh_files:
        f.unlink(missing_ok=True)
    if req.argv is not None:
        return client.call_cli(req.argv)
    return client.call_scan(*req.unit)


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(stream, checker, seconds: float, workload: str, setup: list[float],
              ) -> tuple[list[float], int, list[str]]:
    """Closed loop: send, wait, check; until time is up and MIN_REQUESTS sent.

    Set-up samples are taken between requests at even intervals through the
    run, so that their median follows the machine's speed over the whole run
    rather than over its first seconds.  For the same reason the process moves
    to the next of its CPUs every second: on a shared machine the CPUs' speeds
    differ by up to a quarter and change over minutes, and a run that stayed
    on one CPU would measure that CPU's neighbours."""
    latencies: list[float] = []
    failed, problems = 0, []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    for req in stream:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_REQUESTS) or elapsed >= HARD_LIMIT_S:
            break
        os.sched_setaffinity(0, {cpus[int(elapsed) % len(cpus)]})
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample(workload))
        reply = send(req)
        latencies.append(reply.seconds)
        found = checker.check(req, reply)
        if found:
            failed += 1
            problems += found
    return latencies, failed, problems


def traced_run(stream, checker, tracer, count: int) -> tuple[int, int, list[str], float]:
    """Each request of a fixed list twice, untraced and traced, in alternating
    order; returns (attempted, failed, problems, tracing overhead in s)."""
    failed, problems = 0, []
    plain = traced = 0.0
    start = time.perf_counter()
    attempted = 0
    for i, req in zip(range(count), stream):
        if time.perf_counter() - start >= HARD_LIMIT_S:
            problems.append(f"trace run cut after {i} of {count} requests")
            failed += 1
            break
        found = []
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                reply = send(req)
            finally:
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                traced += reply.seconds
            else:
                plain += reply.seconds
            found += checker.check(req, reply)
        attempted += 1
        failed += bool(found)
        problems += found
    return attempted, failed, problems, traced - plain


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="revca benchmark")
    ap.add_argument("--workload", choices=("construct", "verify", "sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the run's record to this JSONL file")
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the checker rejects corrupted replies")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        paths.use_checkout()
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        spec = json.loads((paths.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (paths.CheckoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("REVCA_THREADS", None)  # measure the sequential path only
    import checks
    import workloads

    if args.self_test:
        problems = checks.self_test(reference)
        print("\n".join(problems) or "checker self-test passed: corrupted replies "
              "(flipped witness bit, wolfram off by one, wrong pattern count) are failures")
        return 1 if problems else 0

    facts = machine_facts()
    workdir = paths.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    catalog_path = workdir / "construct.jsonl"
    setup: list[float] = []
    try:
        client.warm_up(args.workload)
        problems = checks.self_test(reference)
        checker = checks.Checker(reference, args.seed)
        stream = workloads.make(args.workload, args.seed, workdir, reference)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            attempted, failed, found, overhead = traced_run(
                stream, checker, tracer, TRACE_REQUESTS[args.workload])
            catalog_problems = checker.check_catalog(catalog_path)
            metrics = tracer.metrics([m["name"] for m in spec["per_layer"]], overhead)
        else:
            latencies, failed, found = timed_run(stream, checker, args.seconds,
                                                 args.workload, setup)
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args.workload))
            catalog_problems = checker.check_catalog(catalog_path)
            attempted = len(latencies)
            metrics = {
                "setup_s": statistics.median(setup),
                "requests_per_s": len(latencies) / sum(latencies),
                "p50_ms": 1000 * percentile(latencies, 50),
                "p90_ms": 1000 * percentile(latencies, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed += bool(catalog_problems)
    problems += found + catalog_problems

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: BENCHMARK.json lists {sorted(set(units) ^ set(metrics))} "
              "differently from what this run measures", file=sys.stderr)
        return 2
    facts["loadavg_end"] = list(os.getloadavg())
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "setup_samples_s": setup,
              "failed_frac": failed / max(1, attempted), "problems": problems[:20], **result}
    for name, m in result["metrics"].items():
        print(f"{args.workload:>9} {name:<44} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:>9} {'failed_frac':<44} {record['failed_frac']:>14.6g} "
          f"({failed} of {attempted})", file=sys.stderr)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
