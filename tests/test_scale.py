import importlib.util
import itertools
import json
import os
import resource
import subprocess

import numpy as np

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("scale", os.path.join(_ROOT, "tools", "scale.py"))
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


def test_usage_errors_exit_two_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError(f"a usage error started a process: {args}")

    monkeypatch.setattr(scale.subprocess, "run", no_run)
    cases = [
        (["no-such-config"], "unknown config no-such-config"),
        (["--tree", str(tmp_path)], "has no src/varexp"),
        (["--resolution", "x"], "invalid int value"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert scale.main(argv) == 2, argv
        assert message in capsys.readouterr().err


def test_runs_report_their_own_status_time_and_peak(tmp_path, capsys, monkeypatch):
    # ref_s is the median of three kernels before the run and three after, which outliers leave alone
    kernels = itertools.chain([0.5, 0.125, 0.1, 0.125, 0.125, 9.0], itertools.repeat(0.125))
    monkeypatch.setattr(scale, "reference_seconds", lambda: next(kernels))
    # this process holds more than a 16^2 solve's peak, so a child's RSS
    # counted from the process that spawned it would show
    ballast = np.ones(160 * 2**20 // 8)
    spawner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert scale.main(["--resolution", "16", "rothe-p2-128"]) == 0
    ok = json.loads(capsys.readouterr().out)
    assert ok["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert ok["env"]["tree"] == scale.ROOT and ok["env"]["commit"] == scale.tree_commit(scale.ROOT)
    (run,) = ok["runs"]
    assert (run["name"], run["experiment"], run["resolution"]) == ("rothe-p2-128", "rothe-solve", 16)
    assert run["status"] == 0
    assert run["wall_s"] > 0.0 and run["ref_s"] == 0.125 and run["wall_ref"] == run["wall_s"] / 0.125
    assert "tail" not in run

    # the CLI refuses resolution 8, and a smoothing run fails there because h is below one
    # cell: each run records its exit status and its last words; the tree run is a copy
    # without .git, as `git archive` makes, so it has no commit
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "src").symlink_to(os.path.abspath(os.path.join(_ROOT, "src")))
    assert scale.main(["--tree", str(tree), "--resolution", "8"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["env"]["tree"] == str(tree) and doc["env"]["commit"] is None
    failed = doc["runs"]
    assert [r["name"] for r in failed] == list(scale.CONFIGS)
    for r in failed:
        if scale.CONFIGS[r["name"]][2] is None:
            assert r["status"] == 1 and "smoothing scale 0.1375 is below one grid cell" in r["tail"][-1]
        else:
            assert r["status"] == 2 and "must be an integer >= 16" in r["tail"][-1]
        # each run's own peak: not a running maximum over children, nor the spawner's
        assert 0.0 < r["peak_rss_mb"] < run["peak_rss_mb"] < spawner_mb
    del ballast


def test_smoothing_runs_at_a_tiny_size(capsys, monkeypatch):
    # 24^2 cells and 64 time nodes: h = 0.1375 snaps to one cell
    monkeypatch.setattr(scale, "reference_seconds", lambda: 0.125)
    names = ["smooth_R-256x96", "smooth_Rstar-256x96", "decomposition-256x96"]
    assert scale.main(["--resolution", "24", *names]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [r["name"] for r in runs] == names
    assert [r["experiment"] for r in runs] == ["smooth_R", "smooth_Rstar", "sym_grad_smooth_decomposition"]
    for r in runs:
        assert r["resolution"] == 24 and r["status"] == 0 and "tail" not in r
        assert r["wall_s"] > 0.0 and r["peak_rss_mb"] > 0.0 and r["wall_ref"] == r["wall_s"] / 0.125


def test_tree_commit_reads_the_tree_not_the_checkout_around_it(tmp_path):
    repo = tmp_path / "repo"
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "one"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout
    assert scale.tree_commit(str(repo)) == head.strip()
    # a `git archive` tree has no .git of its own, even inside a checkout
    (repo / "archive").mkdir()
    assert scale.tree_commit(str(repo / "archive")) is None
