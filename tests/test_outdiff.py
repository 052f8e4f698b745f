import importlib.util
import io
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "outdiff.py")
_spec = importlib.util.spec_from_file_location("outdiff", _PATH)
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)


def write(root, rel, content):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content if isinstance(content, bytes) else content.encode("ascii"))


def run(a, b):
    out = io.StringIO()
    same = outdiff.report(str(a), str(b), out)
    return same, out.getvalue().splitlines()


def test_identical_trees_report_nothing(tmp_path):
    for side in ("a", "b"):
        write(tmp_path / side, "x.csv", "k,v\n1,0.5\n")
        write(tmp_path / side, "sub/u.field", "dims 2\n0.1 0.2\n")
    assert run(tmp_path / "a", tmp_path / "b") == (True, [])
    assert outdiff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


def test_changed_cells_and_largest_drift(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "sub/u.field", "# stamp abc\ndims 2 2\n0.1 0.2\n-3.0 nan\n")
    write(b, "sub/u.field", "# stamp abd\ndims 2 2\n0.1 0.2000000002\n-3.3 nan\n")
    write(a, "diag.csv", "k,e\n1,2.0\n")
    write(b, "diag.csv", "k,e\n1,2.0\n")
    write(a, "gone.txt", "1\n")
    write(b, "img.bin", b"\x00\xff")
    same, lines = run(a, b)
    assert not same
    assert lines[0] == f"gone.txt: only in {a}"
    assert lines[1] == f"img.bin: only in {b}"
    head = os.path.join("sub", "u.field")
    assert lines[2] == f"{head}: 2 numeric and 1 other cells changed, largest relative drift {0.3 / 3.3:.3e}, largest absolute drift {3.3 - 3.0:.3e}"
    assert lines[3] == "  line 1 cell 3: abc -> abd"
    assert lines[4] == "  line 3 cell 2: 0.2 -> 0.2000000002  (drift 1.000e-09)"
    assert lines[5].startswith("  line 4 cell 1: -3.0 -> -3.3")
    assert len(lines) == 6  # the equal diag.csv is not listed
    assert outdiff.main([str(a), str(b)]) == 1


def test_structure_binary_and_single_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "t.txt", "1 2\n3\n")
    write(b, "t.txt", "1 2\n3\n4\n")
    write(a, "w.txt", "1 2\n")
    write(b, "w.txt", "1 2 3\n")
    write(a, "p.bin", b"\x00\xfe")
    write(b, "p.bin", b"\x00\xff")
    _, lines = run(a, b)
    assert lines == [
        "p.bin: binary files differ",
        "t.txt: 0 numeric and 0 other cells changed; structure differs: 2 lines -> 3 lines",
        "w.txt: 0 numeric and 0 other cells changed; structure differs: line 1: 2 cells -> 3 cells",
    ]
    same, lines = run(a / "w.txt", b / "w.txt")
    assert not same and lines[0].startswith("w.txt: ")
    assert outdiff.main([str(a), str(b / "w.txt")]) == 2
    assert outdiff.main([str(a)]) == 2


@pytest.mark.parametrize(("x", "y", "drift"), [(1.0, 1.0, 0.0), (0.0, 1e-300, 1.0), (2.0, -2.0, 2.0),
                                               (float("inf"), 1.0, float("inf"))])
def test_relative_drift(x, y, drift):
    assert outdiff._drift(x, y) == drift
