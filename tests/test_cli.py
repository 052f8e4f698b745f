import os
import subprocess
import sys

import pytest

import varexp
from varexp.cli import ConfigError, load_config, main


def test_config_defaults_and_overrides(tmp_path):
    cfg = load_config("norms", None, {"out": str(tmp_path), "seed": 5, "resolution": 32})
    assert cfg.seed == 5
    assert cfg.resolution == 32
    assert cfg.get("domain", "kind") == "disc"
    assert len(cfg.digest) == 16
    # the output directory never enters the digest
    cfg2 = load_config("norms", None, {"out": "elsewhere", "seed": 5, "resolution": 32})
    assert cfg2.digest == cfg.digest


def test_config_file_and_section_merge(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[domain]\nkind = rectangle\nextent = 0 1\n[run]\nseed = 3\n")
    cfg = load_config("norms", str(path), {"out": None, "seed": None, "resolution": None})
    assert cfg.get("domain", "kind") == "rectangle"
    assert cfg.seed == 3


def test_config_errors_are_diagnosed(tmp_path, capsys):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("norms", str(tmp_path / "missing.ini"), {})
    bad = tmp_path / "bad.ini"
    bad.write_text("[run\nseed = 1\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config("norms", str(bad), {})
    with pytest.raises(ConfigError, match="resolution"):
        load_config("norms", None, {"resolution": 8})
    with pytest.raises(ConfigError, match="exponent file"):
        path = tmp_path / "cfg.ini"
        path.write_text("[modular]\nexponent = file /nonexistent/p.field\n")
        load_config("norms", str(path), {})
    with pytest.raises(ConfigError, match="constant/two-region/file"):
        path = tmp_path / "cfg2.ini"
        path.write_text("[modular]\nexponent = gaussian\n")
        load_config("norms", str(path), {})
    # values that do not parse name their key and exit 2, with no traceback
    path = tmp_path / "cfg3.ini"
    path.write_text("[run]\nresolution = abc\n")
    with pytest.raises(ConfigError, match=r"\[run\] resolution"):
        load_config("norms", str(path), {})
    path = tmp_path / "cfg4.ini"
    path.write_text("[domain]\nextent = -3 x\n")
    with pytest.raises(ConfigError, match=r"\[domain\] extent"):
        load_config("norms", str(path), {}).get_pair("domain", "extent")
    for path in (tmp_path / "cfg3.ini", tmp_path / "cfg4.ini"):
        capsys.readouterr()
        assert main(["norms", "--config", str(path), "--out", str(tmp_path / "bad_out")]) == 2
        assert "config error: bad config value" in capsys.readouterr().err
    # pairs with too many or too few numbers
    for experiment, text, key in (
        ("norms", "[domain]\nextent = -3 0 3\n", "[domain] extent"),
        ("korn-figure", "[korn]\ntime_interval = -1.5\n", "[korn] time_interval"),
    ):
        path = tmp_path / "cfg5.ini"
        path.write_text(text)
        capsys.readouterr()
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "bad_out")]) == 2
        assert f"config error: bad config value {key}" in capsys.readouterr().err


def test_rothe_ladder_needs_two_rungs(tmp_path):
    path = tmp_path / "one_rung.ini"
    path.write_text("[rothe]\nsteps_ladder = 8\n")
    out = tmp_path / "rothe"
    assert main(["rothe-solve", "--config", str(path), "--out", str(out), "--resolution", "16"]) == 2
    assert not any(name.endswith(".field") for name in os.listdir(out))


def test_cli_exit_codes(tmp_path):
    assert main(["norms", "--out", str(tmp_path / "n"), "--seed", "1", "--resolution", "24"]) == 0
    assert main(["norms", "--resolution", "4", "--out", str(tmp_path / "x")]) == 2


def test_cli_outputs_carry_stamp(tmp_path):
    out = tmp_path / "stamped"
    assert main(["property-suite", "--out", str(out), "--seed", "9"]) == 0
    text = (out / "property_suite.csv").read_text()
    first = text.splitlines()[0]
    assert first.startswith("# config ") and first.endswith("seed 9")


def test_cli_threads_env_validation(monkeypatch, tmp_path):
    monkeypatch.setenv("VAREXP_THREADS", "zero")
    assert main(["property-suite", "--out", str(tmp_path / "t")]) == 2
    monkeypatch.setenv("VAREXP_THREADS", "1")
    assert main(["property-suite", "--out", str(tmp_path / "t"), "--seed", "0"]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["mollify", "--resolution", "32"],
        ["rothe-solve"],
    ],
)
def test_cli_experiments_smoke(tmp_path, args):
    out = tmp_path / args[0]
    assert main(args + ["--out", str(out), "--seed", "0"]) == 0
    assert any(p.endswith(".csv") for p in os.listdir(out))


def test_cli_rothe_solve_honors_resolution(tmp_path):
    import varexp as vx

    out = tmp_path / "rs"
    assert main(["rothe-solve", "--out", str(out), "--seed", "0", "--resolution", "48"]) == 0
    assert vx.read_field(str(out / "u_0000.field")).grid.dims == (49, 49)


def test_cli_korn_figure_small(tmp_path):
    cfg = tmp_path / "korn.ini"
    cfg.write_text("[korn]\ntime_resolution = 128\nn_max = 3\n")
    out = tmp_path / "kf"
    assert main(["korn-figure", "--config", str(cfg), "--out", str(out), "--resolution", "48"]) == 0
    files = set(os.listdir(out))
    assert {"korn_ratio.csv", "phi_profiles.csv", "exponent.pgm", "exponent.pgm.range.txt"} <= files


def test_cli_poincare_small(tmp_path):
    out = tmp_path / "pv"
    assert main(["poincare-verify", "--out", str(out), "--resolution", "64"]) == 0
    assert {"poincare_radial.csv", "poincare_swirl.csv", "poincare_rigid_core.csv"} <= set(
        os.listdir(out)
    )


def test_poincare_on_rectangle_is_a_config_error(tmp_path, capsys):
    # the rectangle fills the grid, so no node lies outside it for the exterior cones
    path = tmp_path / "rect.ini"
    path.write_text("[domain]\nkind = rectangle\n[poincare]\nsamples = 120\n")
    capsys.readouterr()
    assert main(["poincare-verify", "--config", str(path), "--out", str(tmp_path / "pv")]) == 2
    err = capsys.readouterr().err
    assert "[domain] kind" in err and "nodes outside the domain" in err


def test_import_leaves_quadrature_and_optimize_unloaded():
    # a fresh interpreter, so earlier tests' imports do not count
    src = os.path.dirname(os.path.dirname(varexp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, varexp; print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.fft'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
