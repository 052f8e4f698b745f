"""Every output file of the CLI experiments and the demos, run from one source tree.

    python tools/outputs.py TREE OUT

Runs the six CLI experiments at their default configs and the demos under
TREE/demos, with TREE/src first on PYTHONPATH, and copies every file they
write into OUT: the experiments' files under OUT/cli/<experiment>, the
demos' under OUT/out-demo.  Each run works in a fresh temporary directory
that holds a copy of TREE/demos, so a stray file lands in OUT as well and
TREE itself is not written to.  OUT must not exist yet, or be empty.

The byte-identity check of a change against a parent commit P:

    git archive P | tar -x -C PARENT
    python tools/outputs.py PARENT A
    python tools/outputs.py . B
    python tools/outdiff.py A B

Exit status: 0 when every run exited 0, 1 when any did not, 2 on a usage
error.  Each run's own output goes to this script's stdout and stderr.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

EXPERIMENTS = ("norms", "mollify", "korn-figure", "poincare-verify", "rothe-solve", "property-suite")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/outputs.py TREE OUT", file=sys.stderr)
        return 2
    tree, out = (os.path.abspath(a) for a in args)
    if not os.path.isdir(os.path.join(tree, "src", "varexp")):
        print(f"outputs: {tree} has no src/varexp", file=sys.stderr)
        return 2
    if os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
        print(f"outputs: {out} exists and is not an empty directory", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    paths = [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    failed = []
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(tree, "demos"), os.path.join(work, "demos"))
        demos = sorted(n for n in os.listdir(os.path.join(work, "demos")) if n.endswith(".py"))
        runs = [(exp, ["-m", "varexp.cli", exp, "--out", os.path.join("cli", exp)]) for exp in EXPERIMENTS]
        runs += [(name, [os.path.join("demos", name)]) for name in demos]
        for name, cmd in runs:
            print(f"== {name}", flush=True)
            if subprocess.run([sys.executable, *cmd], cwd=work, env=env).returncode != 0:
                failed.append(name)
        shutil.copytree(work, out, dirs_exist_ok=True, ignore=lambda top, _: ["demos"] if top == work else [])
    if failed:
        print("outputs: runs that exited non-zero: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
