"""Tests of the benchmark itself.  Run with `python -m pytest bench`.

They use the smoke size of each workload, so the whole file takes about a
minute on a 2-core machine.
"""

import contextlib
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import sample  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args, record=None):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--seed", "1", "--seconds", "0", "--smoke"]
    cmd += list(args) + (["--record", str(record)] if record else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    text, result = _run("--workload", workload, "--trace", str(trace))
    spec = _spec()
    names = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m["name"] for m in names} == set(result["metrics"])
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    report = "\n".join(text)
    for key in ("setup_s", "wall_s", "peak_rss_mb", "ops_failed_frac"):
        assert key in report


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(n, u, b) for n, u, b, _ in tracing.PER_LAYER] + [("trace.overhead_frac", "ratio", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


def test_wrong_oracle_raises_failed_fraction(tmp_path, monkeypatch):
    def failed_share():
        tasks = workloads.build("korn-spacetime", 1, smoke=True)
        outdir = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        outdir.mkdir()
        results, _ = sample.run_pass(tasks, str(outdir), lambda name: contextlib.nullcontext())
        return sum(not r["ok"] for r in results) / len(results)

    assert failed_share() == 0.0
    # a lower bound a hundred times too high is an oracle no ratio meets
    monkeypatch.setattr(workloads, "KORN_LOWER_SHARE", 95.0)
    assert failed_share() > 0.0


def test_seed_changes_inputs_not_task_count(tmp_path):
    for name in run.WORKLOAD_NAMES:
        runs = []
        for seed in (1, 2):
            outdir = tmp_path / f"{name}-{seed}"
            outdir.mkdir()
            tasks = workloads.build(name, seed, smoke=True)
            results, digest = sample.run_pass(tasks, str(outdir), lambda name: contextlib.nullcontext())
            runs.append(([r["task"] for r in results], digest))
        assert runs[0][0] == runs[1][0], name
        assert runs[0][1] != runs[1][1], name


def test_traced_self_times_add_up_to_the_pass(tmp_path):
    record = tmp_path / "rec.json"
    _run("--workload", "korn-spacetime", "--trace", "1", record=record)
    with open(record, encoding="utf-8") as fh:
        rec = json.load(fh)
    traced = [s for s in rec["samples"] if s["traced"]]
    plain = [s for s in rec["samples"] if not s["traced"]]
    overhead = rec["metrics"]["trace.overhead_frac"]["value"]
    spans = traced[0]["trace"]["spans"]
    own, _ = tracing.self_times(spans)
    pass_idx = next(i for i, sp in enumerate(spans) if sp[0] == "pass")

    def under_pass(i):
        while i >= 0:
            if i == pass_idx:
                return True
            i = spans[i][3]
        return False

    per_span = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            per_span[parent] -= end - start
    total = sum(t for i, t in enumerate(per_span) if under_pass(i))
    assert total == pytest.approx(traced[0]["wall_s"], rel=1e-3)
    assert sum(own.values()) == pytest.approx(sum(per_span), rel=1e-9)
    # the overhead is measured in reference units, which cancel machine drift
    traced_ref = total / traced[0]["ref_s"]
    untraced_ref = plain[0]["wall_s"] / plain[0]["ref_s"]
    assert abs(traced_ref - untraced_ref) <= (abs(overhead) + 0.01) * untraced_ref


def test_missing_wrapped_name_is_reported_not_fatal():
    code = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
        "import tracing\n"
        "tracing.TARGETS['modular'] += ('no_such_function',)\n"
        "t = tracing.Tracer(); t.install()\n"
        "import varexp as vx\n"
        "g = vx.grid_on_box([0, 0], [1, 1], [8, 8])\n"
        "d = vx.make_rectangle_domain([0, 0], [1, 1], g)\n"
        "vx.luxembourg_norm(vx.ScalarField(g, g.coords()[0]), vx.constant_exponent(g, 2.0), d)\n"
        "assert t.missing == ['modular.no_such_function'], t.missing\n"
        "assert t.counters['luxembourg_norm.n'] == 1\n"
    ).format(src=os.path.join(ROOT, "src"), bench=BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_digest_drift_reports_the_largest_relative_change():
    drift, where = run.digest_drift({"a": [1.0, 2.0], "b": 3.0}, {"a": [1.0, 2.2], "b": 3.0})
    assert where == "a" and drift == pytest.approx(0.2 / 2.2)


def test_refuses_to_run_without_the_program(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name), encoding="utf-8") as src:
                (tmp_path / "bench" / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoothing", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
