"""Numeric drift between two output trees, or between two files.

    python tools/outdiff.py A B

A and B are two directories (compared file by file, recursively) or two
files.  The report names every file present on one side only, and for
every file whose bytes differ it lists the changed cells, the largest
relative drift |b - a| / max(|a|, |b|) over its numeric cells and the
largest absolute drift |b - a|.  Text is
split into cells at commas and whitespace; a changed cell is numeric when
both sides parse as floats.  A file that is not ASCII text, or whose lines
or cells do not line up, is reported as differing in structure.  At most
`SHOWN_CELLS` changed cells are listed per file.

Exit status: 0 when the trees are byte-identical, 1 when anything differs,
2 on a usage error.
"""

from __future__ import annotations

import math
import os
import re
import sys

SHOWN_CELLS = 20
_SEP = re.compile(r"[,\s]+")


def _files(root):
    """Paths of the files under `root`, relative to it."""
    if os.path.isfile(root):
        return {""}
    found = set()
    for top, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(top, name), root))
    return found


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _drift(a, b):
    """|b - a| / max(|a|, |b|); 0 for equal values, inf where one side is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def compare_text(text_a, text_b):
    """(changed cells, structure note) of two texts.

    Each changed cell is (line, column, old, new, drift, absolute drift),
    with 1-based line and column numbers and both drifts None for a
    non-numeric cell.  The note is
    None when the texts have the same lines and cells per line.
    """
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return [], f"{len(lines_a)} lines -> {len(lines_b)} lines"
    changed = []
    for row, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la == lb:
            continue
        cells_a, cells_b = _SEP.split(la.strip()), _SEP.split(lb.strip())
        if len(cells_a) != len(cells_b):
            return changed, f"line {row}: {len(cells_a)} cells -> {len(cells_b)} cells"
        for col, (ca, cb) in enumerate(zip(cells_a, cells_b), start=1):
            if ca != cb:
                a, b = _float(ca), _float(cb)
                numeric = a is not None and b is not None
                drift, size = (_drift(a, b), abs(b - a)) if numeric else (None, None)
                changed.append((row, col, ca, cb, drift, size))
    return changed, None


def _read_text(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, raw.decode("ascii")
    except UnicodeDecodeError:
        return raw, None


def report(root_a, root_b, out=sys.stdout):
    """Write the drift report of two trees to `out`; returns True when they are identical."""
    files_a, files_b = _files(root_a), _files(root_b)
    same = True
    for rel in sorted(files_a ^ files_b):
        side = root_a if rel in files_a else root_b
        print(f"{rel}: only in {side}", file=out)
        same = False
    for rel in sorted(files_a & files_b):
        raw_a, text_a = _read_text(os.path.join(root_a, rel) if rel else root_a)
        raw_b, text_b = _read_text(os.path.join(root_b, rel) if rel else root_b)
        if raw_a == raw_b:
            continue
        same = False
        name = rel or os.path.basename(root_b)
        if text_a is None or text_b is None:
            print(f"{name}: binary files differ", file=out)
            continue
        changed, note = compare_text(text_a, text_b)
        drifts = [c[4:] for c in changed if c[4] is not None]
        numeric = len(drifts)
        summary = f"{numeric} numeric and {len(changed) - numeric} other cells changed"
        if drifts:
            rel, size = (max(d) for d in zip(*drifts))
            summary += f", largest relative drift {rel:.3e}, largest absolute drift {size:.3e}"
        print(f"{name}: {summary}" + (f"; structure differs: {note}" if note else ""), file=out)
        for row, col, ca, cb, drift, _ in changed[:SHOWN_CELLS]:
            rel_drift = "" if drift is None else f"  (drift {drift:.3e})"
            print(f"  line {row} cell {col}: {ca} -> {cb}{rel_drift}", file=out)
        if len(changed) > SHOWN_CELLS:
            print(f"  ... {len(changed) - SHOWN_CELLS} more changed cells", file=out)
    return same


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.exists(a) for a in args):
        print("usage: python tools/outdiff.py A B  (two directories or two files)", file=sys.stderr)
        return 2
    if os.path.isdir(args[0]) != os.path.isdir(args[1]):
        print("outdiff: A and B must both be directories or both be files", file=sys.stderr)
        return 2
    return 0 if report(*args) else 1


if __name__ == "__main__":
    sys.exit(main())
