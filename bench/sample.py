"""One benchmark sample: a fresh interpreter runs one cold pass of a workload.

    python3 bench/sample.py --workload NAME --seed N --dir DIR --spawned-at T [--trace] [--smoke]
    python3 bench/sample.py --warmup

The sample imports varexp from the checkout's `src`, builds the workload's
inputs from the seed, runs every task once with program outputs going to
DIR/out, and writes DIR/result.json.  `--spawned-at` is the parent's
CLOCK_MONOTONIC reading just before it started this process, so `setup_s`
runs from interpreter start to inputs built.  With `--trace`, spans around
varexp's public functions go into the result as well.  `--warmup` only
imports varexp, which compiles its bytecode once before any sample is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_varexp():
    if not os.path.isfile(os.path.join(SRC, "varexp", "__init__.py")):
        raise SystemExit(f"varexp sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import varexp

    if not os.path.abspath(varexp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported varexp from {varexp.__file__}, not from {SRC}")


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def reference_seconds():
    """Wall time of a fixed kernel outside varexp, about 0.15 s on a 2-vCPU Xeon VM.

    Interpreter loop, streaming vector work and small dense products in
    equal parts: the kinds of work the workloads spend their time in.
    Timed just before and after a pass, it measures the machine's speed
    around that pass.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(48, 48))
    v = rng.normal(size=100_000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(800_000):
        acc += i % 7
    for _ in range(30):
        acc += float(np.dot(np.sin(v), v))
    for _ in range(4800):
        acc += float((a @ a).sum())
    return time.perf_counter() - start


def run_pass(tasks, outdir, span):
    """Run every task once; a task that raises fails and the pass goes on."""
    results = []
    digest = {}
    for task in tasks:
        error = None
        with span("task:" + task.name):
            try:
                ok, part = task.run(outdir)
                digest.update(part)
            except Exception as exc:
                ok, error = False, f"{type(exc).__name__}: {exc}"
        results.append({"task": task.name, "ok": bool(ok), "error": error})
    return results, digest


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    _import_varexp()
    if args.warmup:
        return 0
    import workloads

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install([workloads])
        span = tracer.span

    with span("setup"):
        tasks = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    outdir = os.path.join(args.dir, "out")
    os.makedirs(outdir)
    ref_before = reference_seconds()
    start = time.perf_counter()
    with span("pass"):
        results, digest = run_pass(tasks, outdir, span)
    wall_s = time.perf_counter() - start
    ref_s = 0.5 * (ref_before + reference_seconds())

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": _dir_bytes(outdir),
        "tasks": results,
        "digest": digest,
        "trace": tracer.record() if tracer else None,
    }
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
