import numpy as np
import pytest

import varexp as vx
from varexp.fields import _shift, domain_from_mask


def disc_setup(res=64):
    grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
    return grid, vx.make_disc_domain((0, 0), 2.5, grid)


def test_grid_invariants():
    with pytest.raises(ValueError):
        vx.Grid([1, 4], [0.1, 0.1], [0, 0])
    with pytest.raises(ValueError):
        vx.Grid([4, 4], [0.1, 0.0], [0, 0])
    g = vx.Grid([4, 5], [0.25, 0.5], [1.0, -1.0])
    assert g.axis_coords(0)[3] == 1.0 + 3 * 0.25
    assert g.axis_coords(1)[0] == -1.0
    assert g.cell_volume == 0.25 * 0.5


def test_grid_immutable():
    g = vx.Grid([4, 4], [0.1, 0.1], [0, 0])
    with pytest.raises(AttributeError):
        g.dims = (5, 5)


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


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    grid = vx.grid_on_box([0, -1], [2, 1], [12, 10])
    for make in (
        lambda: vx.ScalarField(grid, rng.normal(size=grid.dims)),
        lambda: vx.VectorField(grid, rng.normal(size=grid.dims + (2,))),
        lambda: vx.SymTensorField(grid, rng.normal(size=grid.dims + (3,))),
    ):
        f = make()
        path = tmp_path / "field.txt"
        vx.write_field(path, f)
        back = vx.read_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)


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
