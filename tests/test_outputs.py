import importlib.util
import os

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("outputs", os.path.join(_ROOT, "tools", "outputs.py"))
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_usage_errors_exit_two_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(cmd, **kwargs):
        raise AssertionError(f"a usage error started a run: {cmd}")

    monkeypatch.setattr(outputs.subprocess, "run", no_run)
    tree = os.path.abspath(_ROOT)
    full = tmp_path / "full"
    full.mkdir()
    (full / "stray.txt").write_text("x\n")
    a_file = tmp_path / "file"
    a_file.write_text("x\n")
    cases = [
        ([], "usage:"),
        ([tree], "usage:"),
        ([tree, str(tmp_path / "a"), str(tmp_path / "b")], "usage:"),
        ([str(tmp_path), str(tmp_path / "out")], "has no src/varexp"),
        ([tree, str(full)], "is not an empty directory"),
        ([tree, str(a_file)], "is not an empty directory"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert outputs.main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
