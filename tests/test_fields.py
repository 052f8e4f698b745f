import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varexp as vx
from varexp.fields import _FIELD_CHUNK_ROWS, _shift, domain_from_mask, fmt_float


def disc_setup(res=64):
    grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
    return grid, vx.make_disc_domain((0, 0), 2.5, grid)


def test_grid_invariants():
    with pytest.raises(ValueError):
        vx.Grid([1, 4], [0.1, 0.1], [0, 0])
    with pytest.raises(ValueError):
        vx.Grid([4, 4], [0.1, 0.0], [0, 0])
    for spacing, origin in (([np.inf, 1], [0, 0]), ([np.nan, 1], [0, 0]),
                            ([1, 1], [np.inf, 0]), ([1, 1], [0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            vx.Grid([4, 4], spacing, origin)
    g = vx.Grid([4, 5], [0.25, 0.5], [1.0, -1.0])
    assert g.axis_coords(0)[3] == 1.0 + 3 * 0.25
    assert g.axis_coords(1)[0] == -1.0
    assert g.cell_volume == 0.25 * 0.5


def test_grid_immutable():
    g = vx.Grid([4, 4], [0.1, 0.1], [0, 0])
    with pytest.raises(AttributeError):
        g.dims = (5, 5)
    with pytest.raises(AttributeError, match="Grid is immutable"):
        del g.dims
    assert g.dims == (4, 4)


def test_disc_domain_figure_setup():
    grid, dom = disc_setup(96)
    # mask is exactly the strict ball
    xx = grid.coords()
    dist = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    assert np.array_equal(dom.mask, dist < 2.5)
    assert dom.kind == "disc"
    # measure approximates pi R^2 to a boundary cell layer
    assert abs(dom.measure() - np.pi * 2.5**2) < 2.5 * 2 * np.pi * max(grid.spacing)


def test_disc_domain_rejects_oversize():
    grid = vx.grid_on_box([-3, -3], [3, 3], [32, 32])
    with pytest.raises(ValueError, match="not strictly inside"):
        vx.make_disc_domain((0, 0), 3.5, grid)
    with pytest.raises(ValueError, match="not strictly inside"):
        vx.make_disc_domain((2.0, 0), 1.5, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_domain_constructors_refuse_non_finite_scalars_by_name(bad):
    grid, dom = disc_setup()
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        vx.make_disc_domain((0, 0), bad, grid)
    with pytest.raises(ValueError, match="center must be finite, got"):
        vx.make_disc_domain((bad, 0), 1.0, grid)
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        vx.shrink(dom, bad)
    with pytest.raises(ValueError, match="lo must be finite, got"):
        vx.make_rectangle_domain([bad, -1], [1, 1], grid)
    with pytest.raises(ValueError, match="hi must be finite, got"):
        vx.make_rectangle_domain([-1, -1], [1, -bad], grid)
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        vx.make_disc_domain((0, 0), 0.0, grid)
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        vx.shrink(dom, -0.1)


def test_disc_r_at_center():
    # grid with a node exactly at the center
    grid = vx.vertex_grid_on_box([-3, -3], [3, 3], [48, 48])
    dom = vx.make_disc_domain((0, 0), 2.5, grid)
    center = (24, 24)
    assert grid.axis_coords(0)[center[0]] == 0.0
    assert dom.r[center] == 2.5


def test_shrink_identity_and_empty(caplog):
    _, dom = disc_setup()
    assert vx.shrink(dom, 0.0) is dom
    empty = vx.shrink(dom, 2.5)
    assert empty.is_empty


def test_shrink_matches_analytic_disc():
    grid, dom = disc_setup(96)
    shrunk = vx.shrink(dom, 1.0)
    oracle = vx.make_disc_domain((0, 0), 1.5, grid)
    # masks agree except possibly within one cell of the radius-1.5 circle
    xx = grid.coords()
    dist = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    differ = shrunk.mask != oracle.mask
    assert np.all(np.abs(dist[differ] - 1.5) <= np.hypot(*grid.spacing))


def test_shrink_monotone_nesting():
    _, dom = disc_setup()
    small = vx.shrink(dom, 0.7)
    big = vx.shrink(dom, 0.3)
    assert np.all(~small.mask | big.mask)


def test_integrate_measure_and_exactness():
    grid = vx.grid_on_box([0, 0], [1, 1], [64, 64])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)
    one = vx.ScalarField(grid, np.ones(grid.dims))
    assert vx.integrate(one, dom) == pytest.approx(1.0, abs=1e-12)
    zero = vx.ScalarField(grid, np.zeros(grid.dims))
    assert vx.integrate(zero, dom) == 0.0
    x1 = vx.ScalarField(grid, grid.coords()[0])
    # analytic antiderivative: integral of x over (0,1)^2 is 1/2
    assert vx.integrate(x1, dom) == pytest.approx(0.5, abs=2 * max(grid.spacing))


def test_integrate_linearity_and_abs():
    rng = np.random.default_rng(0)
    grid, dom = disc_setup(48)
    f = vx.ScalarField(grid, rng.normal(size=grid.dims))
    g = vx.ScalarField(grid, rng.normal(size=grid.dims))
    a, b = 1.7, -0.4
    lhs = vx.integrate(a * f + b * g, dom)
    rhs = a * vx.integrate(f, dom) + b * vx.integrate(g, dom)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    absf = vx.ScalarField(grid, np.abs(f.values))
    assert vx.integrate(absf, dom) >= abs(vx.integrate(f, dom))


def test_integrate_grid_mismatch():
    grid, dom = disc_setup(32)
    other = vx.grid_on_box([0, 0], [1, 1], [32, 32])
    with pytest.raises(ValueError, match="grid mismatch"):
        vx.integrate(vx.ScalarField(other, np.zeros(other.dims)), dom)


def test_grid_relation_at_its_tolerance_edges():
    """Spacing agrees within 1e-12 + 1e-12|b|, origin within 1e-14 + 1e-12|b|."""
    g = vx.Grid([4, 5], [1.0, 0.5], [0.0, 2.0])
    assert g == vx.Grid([4, 5], [1.0 + 1e-12, 0.5], [0.0, 2.0])
    assert g != vx.Grid([4, 5], [1.0 + 5e-12, 0.5], [0.0, 2.0])
    assert g == vx.Grid([4, 5], [1.0, 0.5], [5e-15, 2.0])
    assert g != vx.Grid([4, 5], [1.0, 0.5], [5e-14, 2.0])
    assert g != vx.Grid([4, 6], [1.0, 0.5], [0.0, 2.0])
    assert g != vx.Grid([3, 4, 5], [0.1, 1.0, 0.5], [0.0, 0.0, 2.0])
    assert vx.Grid([3, 4, 5], [0.1, 1.0 + 1e-12, 0.5], [-7.0, 5e-15, 2.0]).matches_spatial(g)
    assert not vx.Grid([2, 3, 4, 5], [1.0, 0.1, 1.0, 0.5], [0.0, 0.0, 0.0, 2.0]).matches_spatial(g)
    assert not vx.Grid([3, 5, 4], [0.1, 0.5, 1.0], [0.0, 2.0, 0.0]).matches_spatial(g)
    assert not g.matches_spatial(g)

    from varexp.calculus import gradient
    from varexp.rothe import ConstitutiveLaw, ProblemData

    # integrate's mismatch is test_integrate_grid_mismatch
    grid, dom = disc_setup(16)
    foreign = vx.grid_on_box([0, 0], [1, 1], [16, 16])
    with pytest.raises(ValueError, match="grid mismatch"):
        gradient(vx.VectorField(foreign, np.zeros(foreign.dims + (2,))), dom)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(foreign, 2.0))
    data = ProblemData(domain=dom, u0=vx.VectorField(grid, np.zeros(grid.dims + (2,))), T=0.1, tau=0.05)
    with pytest.raises(ValueError, match="neither"):
        law.exponent_at(data, 0)


def test_r_is_lipschitz_across_neighbors():
    grid, dom = disc_setup(48)
    for dom_ in (dom, domain_from_mask(dom.mask, grid)):
        for ax, h in enumerate(grid.spacing):
            d = np.abs(np.diff(dom_.r, axis=ax))
            assert d.max() <= h + max(grid.spacing) + 1e-12


def _boundary_distance_sweep(mask, spacing):
    """Brute-force distance from each masked node to the unmasked nodes next to the mask."""
    near = np.zeros_like(mask)
    for ax in range(mask.ndim):
        e = (0,) * ax
        near |= _shift(mask, e + (1,)) | _shift(mask, e + (-1,))
    bpts = np.argwhere(near & ~mask) * np.asarray(spacing)
    mpts = np.argwhere(mask) * np.asarray(spacing)
    d2 = ((mpts[:, None, :] - bpts[None, :, :]) ** 2).sum(axis=2)
    r = np.zeros(mask.shape)
    r[mask] = np.sqrt(d2.min(axis=1))
    return r


def test_polygon_mask_r_matches_edt_oracle():
    grid, disc = disc_setup(40)
    dom = domain_from_mask(disc.mask, grid)
    oracle = _boundary_distance_sweep(dom.mask, grid.spacing)
    # same quantity by an independent route
    assert np.allclose(dom.r[dom.mask], oracle[dom.mask], atol=1e-12)


def test_sym_tensor_round_trip_exact():
    rng = np.random.default_rng(1)
    grid = vx.grid_on_box([0, 0], [1, 1], [8, 8])
    comps = rng.normal(size=grid.dims + (3,))
    T = vx.SymTensorField(grid, comps)
    full = T.to_full()
    assert np.array_equal(full.values, np.swapaxes(full.values, -1, -2))
    back = vx.SymTensorField.from_full(full)
    assert np.array_equal(back.values, T.values)
    skewed = full.values.copy()
    skewed[3, 5, 0, 1] = np.nextafter(skewed[3, 5, 0, 1], np.inf)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        vx.SymTensorField.from_full(vx.TensorField(grid, skewed))


def test_field_component_counts():
    grid = vx.grid_on_box([0, 0], [1, 1], [4, 4])
    assert vx.ScalarField(grid, np.zeros(grid.dims)).values.size == 16
    assert vx.VectorField(grid, np.zeros(grid.dims + (2,))).values.size == 32
    assert vx.SymTensorField(grid, np.zeros(grid.dims + (3,))).values.size == 48
    with pytest.raises(ValueError):
        vx.SymTensorField(grid, np.zeros(grid.dims + (4,)))


def test_field_abs_frobenius_weighting():
    grid = vx.grid_on_box([0, 0], [1, 1], [2, 2])
    comps = np.zeros(grid.dims + (3,))
    comps[..., 2] = 1.0  # off-diagonal entry 1 in both slots
    T = vx.SymTensorField(grid, comps)
    assert vx.field_abs(T).values[0, 0] == pytest.approx(np.sqrt(2.0))


def test_fields_immutable():
    grid = vx.grid_on_box([0, 0], [1, 1], [4, 4])
    f = vx.ScalarField(grid, np.ones(grid.dims))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    dom = vx.make_rectangle_domain([0.1, 0.1], [0.9, 0.9], grid)
    p = vx.ExponentField(vx.ScalarField(grid, 1.5 + grid.coords()[0]))
    for obj, name in ((f, "values"), (f, "grid"), (dom, "mask"), (dom, "r"), (p, "values"), (p, "_clog")):
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            delattr(obj, name)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(obj, name, None)
    # the log-Hoelder estimate is kept once, where nothing can overwrite it
    clog = p.clog_estimate
    assert clog > 0.0
    with pytest.raises(AttributeError, match="ExponentField is immutable"):
        p._clog = 123.0
    assert p.clog_estimate == clog


def test_fields_own_their_values():
    grid = vx.grid_on_box([0, 0], [1, 1], [12, 12])
    dom = vx.make_rectangle_domain([0.05, 0.05], [0.95, 0.95], grid)
    st = vx.Grid((6,) + grid.dims, (1 / 6,) + grid.spacing, (1 / 12,) + grid.origin)
    # a public constructor keeps a copy: writes to the caller's array do not reach the field
    a = np.random.default_rng(34).normal(size=st.dims + (2,))
    f = vx.VectorField(st, a)
    kept = f.values.copy()
    a[...] = 7.0
    assert np.array_equal(f.values, kept)
    # the package's own results keep the array they made, read-only and shared with no input
    g = vx.VectorField(st, np.ones(st.dims + (2,)))
    s = vx.ScalarField(grid, a[0, ..., 0])
    results = {
        "f + g": ((f + g).values, (f, g)),
        "convolve": (vx.mollify.convolve(s, 2 * grid.spacing[0]).values, (s,)),
        "smooth_R": (vx.mollify.smooth_R(f, dom, 2 * grid.spacing[0]).values, (f,)),
        "field_abs": (vx.field_abs(f).values, (f,)),
    }
    for name, (out, inputs) in results.items():
        assert not out.flags.writeable, name
        with pytest.raises(ValueError):
            out[(0,) * out.ndim] = 1.0
        for field in inputs:
            assert not np.shares_memory(out, field.values), name
    # the shape checks still run on the package's own arrays
    with pytest.raises(ValueError, match="incompatible with grid"):
        vx.ScalarField._own(grid, np.zeros(3))
    with pytest.raises(ValueError, match="not a d\\(d\\+1\\)/2 count"):
        vx.SymTensorField._own(grid, np.zeros(grid.dims + (2,)))


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    grid = vx.grid_on_box([0, -1], [2, 1], [12, 10])
    # one-component vector and symmetric fields keep their component axis
    line = vx.grid_on_box([0], [1], [5])
    spacetime = vx.grid_on_box([0, 0], [1, 1], [3, 5])
    for make in (
        lambda: vx.ScalarField(grid, rng.normal(size=grid.dims)),
        lambda: vx.VectorField(grid, rng.normal(size=grid.dims + (2,))),
        lambda: vx.SymTensorField(grid, rng.normal(size=grid.dims + (3,))),
        lambda: vx.VectorField(line, rng.normal(size=(5, 1))),
        lambda: vx.SymTensorField(line, rng.normal(size=(5, 1))),
        lambda: vx.VectorField(spacetime, rng.normal(size=(3, 5, 1))),
    ):
        f = make()
        path = tmp_path / "field.txt"
        vx.write_field(path, f)
        back = vx.read_field(path)
        assert type(back) is type(f)
        assert back.grid == f.grid
        assert back.values.shape == f.values.shape
        assert np.array_equal(back.values, f.values)


def write_field_per_value(path, f):
    """The field writer as it was: fmt_float called from Python on every value."""
    kind = {vx.ScalarField: "scalar", vx.VectorField: "vector", vx.SymTensorField: "sym"}[type(f)]
    g = f.grid
    ncomp = 1 if kind == "scalar" else f.values.shape[-1]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# varexp field v1\n")
        fh.write("dims " + " ".join(str(n) for n in g.dims) + "\n")
        fh.write("spacing " + " ".join(fmt_float(s) for s in g.spacing) + "\n")
        fh.write("origin " + " ".join(fmt_float(o) for o in g.origin) + "\n")
        fh.write(f"ncomp {ncomp}\n")
        fh.write(f"layout {kind}\n")
        for row in f.values.reshape(-1, ncomp):
            fh.write(" ".join(fmt_float(v) for v in row) + "\n")


def test_write_field_matches_per_value_writer_bytewise(tmp_path):
    rng = np.random.default_rng(3)
    grid = vx.grid_on_box([0, -1], [2, 1], [7, 5])
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 2.5e-310, 1e300, -1e-300, 0.1, 1.0, -7.0]
    for ncomp, cls in ((0, vx.ScalarField), (2, vx.VectorField), (3, vx.SymTensorField)):
        shape = grid.dims + ((ncomp,) if ncomp else ())
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        values.flat[: len(special)] = special
        f = cls(grid, values)
        new, old = tmp_path / "new.field", tmp_path / "old.field"
        vx.write_field(new, f)
        write_field_per_value(old, f)
        assert new.read_bytes() == old.read_bytes()
        assert {b"-0.0", b"inf", b"-inf", b"nan", b"5e-324", b"1e+300", b"-1e-300"} <= set(new.read_bytes().split())


def test_read_field_truncated_header_raises(tmp_path):
    path = tmp_path / "short.field"
    path.write_text("# varexp field v1\ndims 4 4\n")
    with pytest.raises(ValueError, match="'spacing'"):
        vx.read_field(path)


def test_read_field_unknown_layout_raises(tmp_path):
    grid = vx.grid_on_box([0, 0], [1, 1], [4, 3])
    path = tmp_path / "field.txt"
    vx.write_field(path, vx.ScalarField(grid, np.ones(grid.dims)))
    path.write_text(path.read_text().replace("layout scalar", "layout matrix"))
    with pytest.raises(ValueError, match="unknown layout 'matrix'"):
        vx.read_field(path)


def test_read_field_scalar_layout_with_components_raises(tmp_path):
    grid = vx.grid_on_box([0, 0], [1, 1], [4, 3])
    path = tmp_path / "field.txt"
    vx.write_field(path, vx.VectorField(grid, np.ones(grid.dims + (2,))))
    path.write_text(path.read_text().replace("layout vector", "layout scalar"))
    with pytest.raises(ValueError, match="layout scalar has 1 component per node, got ncomp 2"):
        vx.read_field(path)


def test_read_field_short_body_raises(tmp_path):
    grid = vx.grid_on_box([0, 0], [1, 1], [4, 3])
    path = tmp_path / "field.txt"
    vx.write_field(path, vx.VectorField(grid, np.ones(grid.dims + (2,))))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match=r"22 values for dims \[4, 3\] x ncomp 2 \(needs 24\)"):
        vx.read_field(path)


def test_write_table_cell_formatting(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        ("a", np.float64(1.0), np.int64(3)),
        ("b", 0.1, 7),
        ("c", float("inf"), np.int32(-2)),
    ]
    vx.write_table(path, ["name", "x", "n"], rows, comment="probe")
    assert path.read_bytes() == b"# probe\nname,x,n\na,1.0,3\nb,0.1,7\nc,inf,-2\n"
    vx.write_table(path, ["x"], [[np.float64(2.0) / 3.0]])
    assert path.read_bytes() == f"x\n{float(2.0 / 3.0)!r}\n".encode()


def _table_per_cell(header, rows, comment=None):
    """The table a per-cell writer gives: repr(float(v)) for a float cell, str for any other."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    head = (f"# {comment}\n" if comment else "") + ",".join(header) + "\n"
    return (head + "".join(",".join(map(cell, row)) + "\n" for row in rows)).encode("ascii")


_MAX = 1.7976931348623157e308
#: signed zeros side by side, nan, infinities, subnormals, the largest finite floats
_EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                _MAX, -_MAX, 0.1, 1.0]
_FLOAT_CELLS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_TABLE_CELLS = st.one_of(
    _FLOAT_CELLS,
    _FLOAT_CELLS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(alphabet="ab_-. %,", max_size=5),
)


@st.composite
def _tables(draw):
    """Rows drawn from a small pool of cells that holds -0.0 and 0.0, so values repeat; the
    rows are ragged lists of any cells, or a 2-d float array, and may span several chunks."""
    repeat = draw(st.sampled_from([1, 2, 1 + _FIELD_CHUNK_ROWS // 6]))
    if draw(st.booleans()):
        pool = draw(st.lists(_FLOAT_CELLS, min_size=1, max_size=8)) + [-0.0, 0.0]
        n, width = draw(st.integers(0, 12)), draw(st.integers(1, 6))
        cells = draw(st.lists(st.sampled_from(pool), min_size=n * width, max_size=n * width))
        return np.tile(np.array(cells, dtype=np.float64).reshape(n, width), (repeat, 1))
    pool = draw(st.lists(_TABLE_CELLS, min_size=1, max_size=8)) + [-0.0, 0.0]
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), max_size=12)) * repeat


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_tables(), comment=st.sampled_from([None, "", "probe"]))
@example(rows=[[-0.0, 0.0, math.nan, True, np.int64(3), "a"], [0.0, -0.0], []] * _FIELD_CHUNK_ROWS, comment=None)
def test_write_table_matches_a_per_cell_writer_bytewise(tmp_path_factory, rows, comment):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    vx.write_table(path, ["a", "b"], rows, comment)
    assert path.read_bytes() == _table_per_cell(["a", "b"], rows, comment)


def test_multi_line_comments_stay_comments(tmp_path):
    grid = vx.grid_on_box([0, 0], [1, 1], [3, 2])
    f = vx.ScalarField(grid, grid.coords()[0])
    comment = "probe\nlayout matrix"
    table, field, pgm = tmp_path / "t.csv", tmp_path / "f.field", tmp_path / "f.pgm"
    vx.write_table(table, ["x"], [[1.5]], comment)
    assert table.read_bytes() == b"# probe\n# layout matrix\nx\n1.5\n"
    vx.write_field(field, f, comment)
    assert field.read_text().splitlines()[:4] == ["# varexp field v1", "# probe", "# layout matrix", "dims 3 2"]
    back = vx.read_field(field)
    assert type(back) is vx.ScalarField and back.grid == grid and np.array_equal(back.values, f.values)
    vx.write_pgm(pgm, f, comment)
    assert pgm.read_text().splitlines()[:4] == ["P2", "# probe", "# layout matrix", "2 3"]
    # a single-line comment's bytes do not change
    vx.write_table(table, ["x"], [[1.5]], "probe")
    assert table.read_bytes() == b"# probe\nx\n1.5\n"
    # only \n, \r\n and \r end a line; a form feed stays inside its line
    vx.write_table(table, ["x"], [[1.5]], "a\fb\r\nc\rd")
    assert table.read_bytes() == b"# a\fb\n# c\n# d\nx\n1.5\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pgm_refuses_non_finite_values_before_writing(tmp_path, bad):
    grid = vx.grid_on_box([0, 0], [1, 1], [3, 3])
    values = np.arange(9.0).reshape(3, 3)
    values[1, 1] = bad
    path = tmp_path / "f.pgm"
    with pytest.raises(ValueError, match="field has non-finite values"):
        vx.write_pgm(path, vx.ScalarField(grid, values))
    assert list(tmp_path.iterdir()) == []


def test_csv_and_pgm_outputs(tmp_path):
    grid = vx.grid_on_box([0, 0], [1, 1], [6, 6])
    f = vx.ScalarField(grid, grid.coords()[0])
    csv = tmp_path / "field.csv"
    vx.export_csv(csv, f, comment="probe")
    lines = csv.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "x1,x2,c0"
    assert len(lines) == 2 + grid.node_count()

    pgm = tmp_path / "field.pgm"
    vx.write_pgm(pgm, f)
    content = pgm.read_text().splitlines()
    assert content[0] == "P2"
    side = (tmp_path / "field.pgm.range.txt").read_text()
    assert side.startswith("min ")


def _pgm_per_row(f, comment=None):
    """A graymap written one `join` per raster row."""
    v = f.values
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    levels = np.zeros_like(v, dtype=int) if span == 0 else np.rint((v - vmin) / span * 255).astype(int)
    head = "P2\n" + (f"# {comment}\n" if comment else "") + f"{v.shape[1]} {v.shape[0]}\n255\n"
    return (head + "".join(" ".join(map(str, row)) + "\n" for row in levels.tolist())).encode("ascii")


@pytest.mark.parametrize("dims", [(2, 2), (3, 7), (97, 97), (40, 13)])
def test_pgm_matches_per_row_writer(tmp_path, dims):
    grid = vx.Grid(dims, (0.1, 0.2), (0.0, 0.0))
    rng = np.random.default_rng(sum(dims))
    fields = [rng.normal(size=dims), np.full(dims, 3.5), grid.coords()[1] - grid.coords()[0]]
    for k, vals in enumerate(fields):
        f = vx.ScalarField(grid, vals)
        path = tmp_path / f"f{k}.pgm"
        vx.write_pgm(path, f, comment="stamp" if k else None)
        assert path.read_bytes() == _pgm_per_row(f, comment="stamp" if k else None)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("kind", ["vector", "sym", "full"])
def test_magnitude_at_extreme_scales(kind, scale):
    # every stored component equals `scale`, so |v| = scale * sqrt(2) for the
    # vector and scale * 2 for both 2x2 tensor storages; with p = 2 the norm
    # of the constant field is |v| sqrt(measure)
    grid = vx.grid_on_box([0, 0], [1, 1], [8, 8])
    dom = vx.make_rectangle_domain([0, 0], [1, 1], grid)
    cls, comps, unit = {
        "vector": (vx.VectorField, (2,), np.sqrt(2.0)),
        "sym": (vx.SymTensorField, (3,), 2.0),
        "full": (vx.TensorField, (2, 2), 2.0),
    }[kind]
    vals = np.full((8, 8) + comps, scale)
    norm = vx.luxembourg_norm(cls(grid, vals), vx.constant_exponent(grid, 2.0), dom)
    assert norm == pytest.approx(unit * scale * np.sqrt(dom.measure()), rel=1e-12, abs=0.0)
    # normal-range nodes next to extreme ones keep their magnitude
    vals[0] = 1.0
    expected = np.full((8, 8), unit * scale)
    expected[0] = unit
    assert vx.field_abs(cls(grid, vals)).values == pytest.approx(expected, rel=1e-14, abs=0.0)
