import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varexp
from varexp.cli import _KEYS, ConfigError, load_config, main


def test_config_defaults_and_overrides(tmp_path):
    cfg = load_config("norms", None, {"out": str(tmp_path), "seed": 5, "resolution": 32})
    assert cfg.seed == 5
    assert cfg.resolution == 32
    assert cfg.get("domain", "kind") == "disc"
    assert len(cfg.digest) == 16
    # the output directory never enters the digest
    cfg2 = load_config("norms", None, {"out": "elsewhere", "seed": 5, "resolution": 32})
    assert cfg2.digest == cfg.digest
    # every CSV stamp of a default run carries these digests
    pinned = {
        "norms": "add04fa85c2bdf07",
        "mollify": "6f16dd5da0891ae7",
        "korn-figure": "2eae9bb4f26c8a70",
        "poincare-verify": "a0e8fe1fbcb44aa0",
        "rothe-solve": "7dd1e42fb0ee0b19",
        "property-suite": "e71005d9a44483a6",
    }
    for experiment, digest in pinned.items():
        assert load_config(experiment, None, {}).digest == digest


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
    # a disc that does not fit inside the grid is a config error, not a traceback
    path = tmp_path / "cfg6.ini"
    path.write_text("[domain]\nkind = disc\nradius = 2.99\n")
    for experiment in ("norms", "poincare-verify"):
        capsys.readouterr()
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "bad_out")]) == 2
        err = capsys.readouterr().err
        assert "config error: [domain] radius = 2.99" in err
        assert "center=(0.0, 0.0)" in err


# the experiment that reads each section
_READER = {"run": "norms", "domain": "norms", "modular": "norms", "norms": "norms", "mollify": "mollify",
           "korn": "korn-figure", "poincare": "poincare-verify", "rothe": "rothe-solve"}
# zero, negative, nan, inf, empty, a reversed pair, too many tokens, huge
_HOSTILE = ["0", "-3", "nan", "inf", "-inf", "", "3 -3", "1 2 3", "1e300", "1000000000000"]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(_KEYS)), text=st.sampled_from(_HOSTILE))
@example(key=("korn", "n_max"), text="0")
@example(key=("korn", "alpha"), text="0.9")
@example(key=("korn", "eps"), text="-0.1")
@example(key=("korn", "time_resolution"), text="3")
@example(key=("korn", "time_interval"), text="1 -1")
@example(key=("poincare", "samples"), text="0")
@example(key=("poincare", "budget"), text="-1")
@example(key=("rothe", "steps_ladder"), text="8 0")
@example(key=("rothe", "p_constant"), text="nan")
@example(key=("rothe", "p_constant"), text="1.0")
@example(key=("rothe", "delta"), text="-1")
@example(key=("rothe", "T"), text="0")
@example(key=("rothe", "T"), text="-1")
@example(key=("rothe", "stpes_ladder"), text="4 8")
@example(key=("domain", "extent"), text="3 -3")
@example(key=("domain", "radius"), text="nan")
@example(key=("domain", "kind"), text="hexagon")
@example(key=("run", "seed"), text="-1")
@example(key=("norms", "fields"), text="0")
@example(key=("norms", "fields"), text="-3")
@example(key=("mollify", "fields"), text="0")
@example(key=("mollify", "scales"), text="0")
@example(key=("mollify", "scales"), text="-1")
@example(key=("modular", "exponent"), text="constant")
@example(key=("modular", "exponent"), text="constant 0.5")
def test_hostile_config_values_name_their_key(tmp_path_factory, key, text):
    """A hostile value exits 2 naming its key, or the table admits it and it runs without a traceback."""
    section, name = key
    experiment = _READER[section]
    tmp = tmp_path_factory.mktemp("hostile")
    path = tmp / "hostile.ini"
    path.write_text(f"[{section}]\n{name} = {text}\n")
    try:
        load_config(experiment, str(path), {})
        admitted = True
    except ConfigError:
        admitted = False
    if admitted and key in (("run", "out"), ("run", "resolution")):
        return  # any nonempty path is an output location, and the resolution has no cap yet
    flags = {"--out": str(tmp / "out"), "--resolution": "16"}
    if section == "run":
        flags.pop(f"--{name}", None)  # a flag would replace the file's value
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main([experiment, "--config", str(path)] + [arg for flag in flags.items() for arg in flag])
    err = err.getvalue()
    if admitted:
        assert status in (0, 1) or (status == 2 and err.startswith("config error: ")), err
    else:
        assert status == 2 and err.startswith("config error: ") and f"[{section}] {name}" in err, err


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


@pytest.fixture
def keep_blas_threads():
    """Give numpy's OpenBLAS pool its size back after a test that caps it in-process."""
    from varexp.cli import _openblas_threads

    get = _openblas_threads("get")
    before = get() if get is not None else None
    yield
    if before is not None:
        _openblas_threads("set")(before)


def test_cli_threads_env_validation(monkeypatch, tmp_path, keep_blas_threads):
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


def _run_fresh(probe, env=None):
    """stdout of `probe` in a fresh interpreter, so earlier tests' imports do not count."""
    src = os.path.dirname(os.path.dirname(varexp.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_quadrature_and_optimize_unloaded():
    # no scipy module at all: scipy loads with the Rothe solver's first operator
    probe = (
        "import sys, varexp, varexp.rothe, varexp.korn, varexp.mollify, varexp.poincare, varexp.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_fresh(probe) == "[]"
    probe = (
        "import sys, varexp as vx; from varexp.rothe import EpsOperator; "
        "g = vx.grid_on_box([0, 0], [1, 1], [16, 16]); "
        "EpsOperator(vx.make_disc_domain((0.5, 0.5), 0.4, g)); "
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    assert _run_fresh(probe) == "True"


def test_threads_cap_the_running_process_blas(tmp_path):
    from varexp.cli import _openblas_threads

    if _openblas_threads("get") is None:
        pytest.skip("numpy is not built on OpenBLAS")
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["VAREXP_THREADS"] = "1"
    # numpy's OpenBLAS is loaded before main and capped by its setter; scipy's
    # loads after main (as the Rothe solver loads it) and reads the environment
    probe = (
        "import ctypes, varexp.cli as c; "
        f"assert c.main(['property-suite', '--out', {str(tmp_path / 'ps')!r}, '--seed', '0']) == 0; "
        "import scipy.linalg._fblas as f; lib = ctypes.CDLL(f.__file__); "
        "names = [p + '_get_num_threads' + s for p in ('scipy_openblas', 'openblas') for s in ('', '64_')]; "
        "get = next((getattr(lib, n) for n in names if hasattr(lib, n)), None); "
        "print(c._openblas_threads('get')(), get() if get else 1)"
    )
    assert _run_fresh(probe, env).splitlines()[-1] == "1 1"
