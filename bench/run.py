"""Benchmark for varexp: cold-process time to a checked result, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH] [--smoke]
    python3 bench/run.py --compare OLD.json NEW.json

Each sample is a fresh interpreter (bench/sample.py) that imports varexp from
the checkout's `src`, builds the workload's inputs from the seed and runs one
cold pass of its task list, as one `varexp` invocation would.  Samples run
one at a time in a closed loop until `--seconds` have passed.  Every child
starts with OPENBLAS/OMP/MKL_NUM_THREADS=1 in its environment, and writes
its outputs to a temporary directory under `.bench_tmp/` in the checkout,
removed at exit.

End-to-end metrics (`--trace 0`), as medians over the run's samples:

    setup_s      interpreter start to imports done and inputs built
    wall_ref     one cold pass of the task list, outputs included, in units
                 of a fixed reference kernel timed in the same process just
                 before and after the pass (sample.reference_seconds)
    peak_rss_mb  peak resident memory of a sample process
    ops_ok_frac  tasks that passed their correctness gate / tasks attempted

The pass's wall time in seconds, `wall_s`, is printed with its quartiles
but is not a gated metric: on a shared 2-core host the machine's speed
drifts by 20-30 % within minutes, which moves `wall_s` between runs of the
same code by that much.  The reference kernel drifts with it, so the ratio
stays within a few percent.

A task fails when it raises or its check is out of tolerance; the final
JSON line counts task runs in `attempted` and `failed`.  `correct` is true
when every sample of the run produced the same science digest: one seed
must give the same numbers in every fresh process.  A sample that crashes,
hangs or changes its task list stops the run with a non-zero exit status.

With `--trace 1` the run alternates untraced and traced samples and reports
the per-layer metrics of `tracing.PER_LAYER` plus `trace.overhead_frac`.
`--record` keeps the full run (environment, samples, science digest) as
JSON; `--compare` prints two records side by side with the largest
relative drift of their science digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

WORKLOAD_NAMES = ("korn-spacetime", "smoothing", "rothe-mms", "norms-poincare")
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"), ("ops_ok_frac", "ratio"))
SAMPLE_TIMEOUT_S = 150.0
#: stop starting samples this long after the run began, whatever --seconds says
RUN_LIMIT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    pass


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args, log_path):
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "sample.py")] + args,
                                cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"sample exceeded {SAMPLE_TIMEOUT_S:.0f} s and was killed")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise HarnessError(f"sample exited with status {code}:\n{tail}")


def run_sample(tmp, index, workload, seed, traced, smoke):
    sample_dir = os.path.join(tmp, f"sample{index:03d}")
    os.makedirs(sample_dir)
    args = ["--workload", workload, "--seed", str(seed), "--dir", sample_dir]
    args += ["--trace"] * traced + ["--smoke"] * smoke
    args += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    _spawn(args, os.path.join(sample_dir, "log.txt"))
    with open(os.path.join(sample_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(sample_dir)
    result.update(sample=index, traced=traced)
    return result


def collect(workload, seed, seconds, trace, smoke):
    """Run samples one at a time until `seconds` pass; returns the list of sample results."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        _spawn(["--warmup"], os.path.join(tmp, "warmup.txt"))
        samples = []
        start = time.monotonic()
        while True:
            # a traced run alternates untraced and traced samples, untraced first
            traced = trace and len(samples) % 2 == 1
            samples.append(run_sample(tmp, len(samples), workload, seed, traced, smoke))
            elapsed = time.monotonic() - start
            need_both = trace and len(samples) < 2
            if (elapsed >= seconds or elapsed >= RUN_LIMIT_S) and not need_both:
                return samples
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(samples):
    """Run-level numbers from the untraced samples; checks the task lists agree."""
    names = [t["task"] for t in samples[0]["tasks"]]
    if any([t["task"] for t in s["tasks"]] != names for s in samples):
        raise HarnessError("the task list changed between samples of one run")
    plain = [s for s in samples if not s["traced"]]
    attempted = sum(len(s["tasks"]) for s in samples)
    failed = sum(not t["ok"] for s in samples for t in s["tasks"])
    failures = {}
    for s in samples:
        for t in s["tasks"]:
            if not t["ok"]:
                failures.setdefault(t["task"], t["error"] or "out of tolerance")
    digests = [json.dumps(s["digest"], sort_keys=True) for s in samples]
    return {
        "samples": len(plain),
        "setup_s": quartiles([s["setup_s"] for s in plain]),
        "wall_s": quartiles([s["wall_s"] for s in plain]),
        "wall_ref": quartiles([s["wall_s"] / s["ref_s"] for s in plain]),
        "peak_rss_mb": quartiles([s["peak_rss_mb"] for s in plain]),
        "tasks": len(names),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": samples[0]["digest"],
        "digest_stable": len(set(digests)) == 1,
    }


def report(workload, env, summary, layers, table, missing):
    print(f"workload {workload}  seed {env['seed']}  commit {env['commit']}")
    print(f"  machine: {env['nproc']} x {env['cpu']}; python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}; BLAS/OMP threads 1; 1 sample at a time")
    n = summary["samples"]
    for key, unit in (("setup_s", "s"), ("wall_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB")):
        q1, med, q3 = summary[key]
        print(f"  {key:<16} median {med:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={n})")
    frac = summary["failed"] / summary["attempted"]
    print(f"  ops_failed_frac  {frac:.6f} ratio  ({summary['failed']} of {summary['attempted']} "
          f"task runs; {summary['tasks']} tasks per pass)")
    for name, why in sorted(summary["failures"].items()):
        print(f"    failed: {name}: {why}")
    if not summary["digest_stable"]:
        print("  note: samples of this seed disagree on the science digest")
    if layers:
        print("  calls and self time of the wrapped functions that ran (median over traced samples):")
        for name, (calls, own) in table.items():
            if calls:
                print(f"    {name:<36} {calls:>9g} calls  {own:.4f} s")
        for name, (value, unit) in layers.items():
            print(f"  {name:<44} {value:.6g} {unit}")
        for name in missing:
            print(f"  missing: {name} is no longer in varexp")


def compare(old_path, new_path):
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"compare {old_path} -> {new_path} ({old['workload']} / {new['workload']})")
    for key in sorted(set(old["metrics"]) & set(new["metrics"])):
        a, unit = old["metrics"][key]["value"], old["metrics"][key]["unit"]
        b = new["metrics"][key]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"  {key:<44} {a:.6g} -> {b:.6g} {unit}  (new/old {ratio})")
    drift, where = digest_drift(old["summary"]["digest"], new["summary"]["digest"])
    print(f"  science digest: largest relative drift {drift:.3e} at {where}")
    for key in sorted(set(old["summary"]["digest"]) ^ set(new["summary"]["digest"])):
        print(f"  science digest: {key} is on one side only")


def digest_drift(a, b):
    """Largest relative difference over the numbers both digests hold."""
    worst, where = 0.0, None
    for key in sorted(set(a) & set(b)):
        xs = a[key] if isinstance(a[key], list) else [a[key]]
        ys = b[key] if isinstance(b[key], list) else [b[key]]
        if len(xs) != len(ys):
            return float("inf"), key
        for x, y in zip(xs, ys):
            scale = max(abs(x), abs(y))
            rel = abs(x - y) / scale if scale > 0 else 0.0
            if where is None or rel > worst:
                worst, where = rel, key
    return worst, where


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the full run record to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload to a quick check")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two run records")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "varexp", "__init__.py")):
        print(f"error: varexp sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    try:
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        summary = summarize(samples)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    layers, table, missing = None, None, []
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        layers = tracing.layer_metrics(traced, [s for s in samples if not s["traced"]])
        table = tracing.function_table(traced)
        missing = traced[0]["trace"]["missing"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        ok_frac = 1.0 - summary["failed"] / summary["attempted"]
        values = {
            "setup_s": summary["setup_s"][1],
            "wall_ref": summary["wall_ref"][1],
            "peak_rss_mb": summary["peak_rss_mb"][1],
            "ops_ok_frac": ok_frac,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    report(args.workload, env, summary, layers, table, missing)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "env": env, "summary": summary,
                       "metrics": metrics, "samples": samples}, fh)
    print(json.dumps({"correct": summary["digest_stable"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
