"""Named CLI configs and smoothing runs, each in a fresh process: wall time, peak RSS and exit status.

    python tools/scale.py [--tree TREE] [--resolution N] [NAME ...]

Runs each named config of `CONFIGS` (all of them when no NAME is given)
once, in a fresh interpreter with TREE/src first on PYTHONPATH (TREE
defaults to this checkout).  A CLI config runs
`varexp.cli.main([EXPERIMENT, --config, CFG, --resolution, N, --out,
DIR])`.  A smoothing run, a config whose sections are None, calls its
experiment, an operator of `varexp.mollify`, once with h = 0.1375 on a
two-component space-time field over the disc of radius 2.5 in [-3, 3]^2, with N cells
per spatial axis and 256 N / 96 time nodes on [0, 1] (256 x 96^2 at the
default N = 96, 36 MiB of input).  The script prints one JSON document to
stdout:

    env         the bench's environment block (`bench/run.environment`),
                with `tree`, the TREE path, and `commit`, TREE's commit
                (null when TREE has no .git, as in a `git archive` tree)
    runs        one record per run: name, experiment, resolution, status
                (the exit status), wall_s, peak_rss_mb, ref_s and wall_ref

peak_rss_mb is the run's own peak, read inside the run from the VmHWM line
of /proc/self/status as it exits (so on Linux only).  getrusage cannot give
it: RUSAGE_CHILDREN is a running maximum over every child so far, and a
child's own ru_maxrss starts from the RSS of the process that spawned it,
whose pages it maps until its exec.  ref_s is the median of six timings of
the bench's reference kernel (`bench/sample.reference_seconds`) in this
process, three just before the run and three just after, and wall_ref =
wall_s / ref_s, so runs on hosts of different speed can be compared;
one kernel on each side of a long run follows the host's drift too
loosely.  Children run with one BLAS thread, as the bench's samples do,
and write their outputs into a temporary directory that is removed
afterwards.  One untimed import of varexp first compiles TREE's
bytecode.

Exit status: 0 when every run exited 0, 1 when any did not (its record
holds the last lines it printed), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import THREAD_VARS, environment  # noqa: E402
from sample import reference_seconds  # noqa: E402

#: name -> (experiment, resolution, config sections); sections None marks a smoothing run,
#: whose experiment is an operator of varexp.mollify
CONFIGS = {
    "rothe-p2-128": ("rothe-solve", 128, {}),
    "rothe-p1.1-delta0-128": ("rothe-solve", 128, {"rothe": {"p_constant": "1.1", "delta": "0.0"}}),
    # more samples than near-boundary nodes, so every one is taken: 27 164 rows per report
    "poincare-512-all": ("poincare-verify", 512, {"poincare": {"samples": "1000000"}}),
    "korn-figure-512": ("korn-figure", 512, {}),
    "smooth_R-256x96": ("smooth_R", 96, None),
    "smooth_Rstar-256x96": ("smooth_Rstar", 96, None),
    "decomposition-256x96": ("sym_grad_smooth_decomposition", 96, None),
}

#: reference kernels timed before a run, and as many after it
_REF_RUNS = 3

#: the child: runs the CLI or one smoothing operator, then writes its peak RSS in kB to the
#: file named by argv[1]
_CHILD = """\
import sys


def smoothing(op, n):
    import numpy as np
    import varexp as vx

    grid = vx.grid_on_box([-3.0, -3.0], [3.0, 3.0], [n, n])
    disc = vx.make_disc_domain((0.0, 0.0), 2.5, grid)
    t = round(256 * n / 96)
    st = vx.Grid((t,) + grid.dims, (1.0 / t,) + grid.spacing, (0.5 / t,) + grid.origin)
    x, y = grid.coords()
    bump = np.clip(1.0 - (x * x + y * y) / 6.25, 0.0, None) ** 3
    wobble = 1.0 + 0.5 * np.sin(2.0 * np.pi * st.axis_coords(0))
    u = vx.VectorField(st, wobble[:, None, None, None] * np.stack([bump * y, -0.5 * bump * x], axis=-1))
    op(u, disc, 0.1375)
    return 0


try:
    from varexp import mollify

    if hasattr(mollify, sys.argv[2]):
        code = smoothing(getattr(mollify, sys.argv[2]), int(sys.argv[3]))
    else:
        from varexp.cli import main

        code = main(sys.argv[2:])
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        fh.write(peak)
sys.exit(code)
"""


def tree_commit(tree):
    """The commit checked out at `tree`, or None when it has no .git or git cannot read it."""
    if not os.path.exists(os.path.join(tree, ".git")):
        return None
    out = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _config_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def run_one(name, resolution, env, work):
    """The record of one fresh-process run of config `name`."""
    experiment, default_resolution, sections = CONFIGS[name]
    resolution = default_resolution if resolution is None else resolution
    peak_path, log_path = os.path.join(work, "peak_kb"), os.path.join(work, "log.txt")
    if sections is None:
        args = [experiment, str(resolution)]
    else:
        cfg = os.path.join(work, "config.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_config_text(sections))
        args = [experiment, "--config", cfg, "--resolution", str(resolution), "--out", os.path.join(work, "out")]
    cmd = [sys.executable, "-c", _CHILD, peak_path, *args]
    refs = [reference_seconds() for _ in range(_REF_RUNS)]
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        status = subprocess.run(cmd, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT).returncode
        wall_s = time.perf_counter() - start
    ref_s = statistics.median(refs + [reference_seconds() for _ in range(_REF_RUNS)])
    with open(peak_path, encoding="ascii") as fh:
        peak_mb = int(fh.read()) / 1024.0
    record = {"name": name, "experiment": experiment, "resolution": resolution, "status": status,
              "wall_s": wall_s, "peak_rss_mb": peak_mb, "ref_s": ref_s, "wall_ref": wall_s / ref_s}
    if status != 0:
        with open(log_path, encoding="utf-8") as fh:
            record["tail"] = fh.read().splitlines()[-5:]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description="run named CLI configs in fresh processes")
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"configs to run: {', '.join(CONFIGS)}")
    parser.add_argument("--tree", default=ROOT, help="source tree whose src/varexp runs")
    parser.add_argument("--resolution", type=int, help="[run] resolution for every config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    tree = os.path.abspath(args.tree)
    unknown = [n for n in args.names if n not in CONFIGS]
    if unknown or not os.path.isdir(os.path.join(tree, "src", "varexp")):
        why = f"unknown config {', '.join(unknown)}" if unknown else f"{tree} has no src/varexp"
        print(f"scale: {why}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, "-c", "import varexp.cli, varexp.rothe"], env=env, check=True)
    runs = []
    for name in args.names or CONFIGS:
        with tempfile.TemporaryDirectory() as work:
            runs.append(run_one(name, args.resolution, env, work))
    measured = {**environment(None), "tree": tree, "commit": tree_commit(tree)}
    json.dump({"env": measured, "runs": runs}, sys.stdout, indent=1)
    print()
    return 0 if all(r["status"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
