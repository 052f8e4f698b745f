import logging

import numpy as np
import pytest

import varexp as vx
from varexp.poincare import (
    ConeParams,
    _riesz_batch,
    _singular_cell_average,
    cap_area,
    cone_params_for,
    min_upphi_det,
    phi_jacobian_fd,
    phi_map,
    poincare_verify,
    riesz_rhs,
    standard_test_fields,
    upphi_det,
    write_report_csv,
)


def disc_domain(res=96):
    grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
    return vx.make_disc_domain((0, 0), 2.5, grid)


# -- cones -------------------------------------------------------------------


def test_cone_params_disc_and_square():
    dom = disc_domain(64)
    cone = cone_params_for(dom, theta=np.pi / 4, h=1.0)
    assert cone.h0 == 0.25 and cone.h1 == 0.0625

    grid = vx.grid_on_box([0, 0], [1, 1], [48, 48])
    square = vx.make_rectangle_domain([0.02, 0.02], [0.98, 0.98], grid)
    cone_params_for(square, theta=np.pi / 4, h=0.3)


def test_cone_rejects_bad_opening():
    dom = disc_domain(32)
    with pytest.raises(ValueError):
        cone_params_for(dom, theta=np.pi / 2)
    with pytest.raises(ValueError):
        ConeParams(theta=1.6, h=1.0)


def test_cone_verification_catches_inward_axes():
    # a domain whose r-field is deliberately inverted points the test cones
    # into the mask, which the sampling must reject
    grid = vx.grid_on_box([-3, -3], [3, 3], [64, 64])
    good = vx.make_disc_domain((0, 0), 2.5, grid)
    xx = grid.coords()
    dist = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    bad_r = np.where(good.mask, np.clip(dist, 1e-6, None), 0.0)  # grows toward the rim
    bad = vx.Domain(grid, good.mask, bad_r, "disc")
    with pytest.raises(ValueError, match="cone"):
        cone_params_for(bad, theta=np.pi / 4, h=1.0)


def test_cone_failure_names_the_node_in_plain_ints():
    grid = vx.grid_on_box([-1, -1], [1, 1], [32, 32])
    full = vx.make_rectangle_domain([-1 + 1e-9] * 2, [1 - 1e-9] * 2, grid)
    with pytest.raises(ValueError, match=r"failed at node \(0, 0\): cone point"):
        cone_params_for(full, theta=np.pi / 4, h=1.0)


# -- caps and direction maps -------------------------------------------------


def test_cap_area_values_and_scaling():
    assert cap_area(2, np.pi, 1.0) == pytest.approx(2 * np.pi, abs=1e-14)
    assert cap_area(3, np.pi / 2, 1.0) == pytest.approx(2 * np.pi, abs=1e-14)
    for d in (2, 3):
        base = cap_area(d, 0.6, 1.0)
        for r in (0.5, 2.0, 7.0):
            assert cap_area(d, 0.6, r) == pytest.approx(base * r ** (d - 1), rel=1e-14)
    with pytest.raises(ValueError):
        cap_area(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        cap_area(2, 0.0, 1.0)


def test_phi_map_reference_values():
    assert np.allclose(phi_map(2, [0.0]), [0.0, 1.0])
    s = 1 / np.sqrt(2)
    assert np.allclose(phi_map(1, [1.0]), [-s, s])
    assert np.allclose(phi_map(2, [1.0]), [s, s])
    with pytest.raises(ValueError):
        phi_map(3, [1.0])


def test_phi_map_unit_norm_and_flip_relation():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for _ in range(50):
            eta = rng.normal(size=d - 1) * rng.uniform(0.1, 5)
            for i in range(1, d + 1):
                assert abs(np.linalg.norm(phi_map(i, eta)) - 1.0) < 1e-12
            # Phi_i is Phi_d with the i-th component negated
            base = phi_map(d, eta)
            for i in range(1, d):
                flip = base.copy()
                flip[i - 1] *= -1.0
                assert np.allclose(phi_map(i, eta), flip, atol=1e-15)


def test_phi_jacobian_determinant_one_at_zero():
    for d in (2, 3):
        for i in range(1, d + 1):
            J = phi_jacobian_fd(i, np.zeros(d - 1))
            assert np.linalg.det(J.T @ J) == pytest.approx(1.0, abs=1e-6)


def test_upphi_det_values_and_flag(caplog):
    assert upphi_det([1.0]) == pytest.approx(-1.0, abs=1e-12)
    with caplog.at_level(logging.WARNING, logger="varexp.poincare"):
        upphi_det([0.0])
    assert any("zero component" in rec.message for rec in caplog.records)
    assert min_upphi_det(0.5, d=2) > 0.0


# -- Riesz quadrature --------------------------------------------------------


def test_riesz_zero_field():
    dom = disc_domain(48)
    u = vx.VectorField(dom.grid, np.zeros(dom.grid.dims + (2,)))
    node = tuple(np.argwhere(dom.mask & (dom.r > 0.1))[0])
    assert riesz_rhs(u, dom, node) == 0.0


def test_riesz_constant_density_full_ball():
    # synthetic |eps| == 1 with a hand-built r: the kernel integral over the
    # full ball is 2 pi (2 r) in two dimensions
    grid = vx.grid_on_box([-1, -1], [1, 1], [128, 128])
    rval = 0.2
    dom = vx.Domain(grid, np.ones(grid.dims, dtype=bool), np.full(grid.dims, rval), "rectangle")
    u = vx.VectorField(grid, np.zeros(grid.dims + (2,)))
    node = (64, 64)
    val = riesz_rhs(u, dom, node, eps_u_abs=np.ones(grid.dims))
    assert val == pytest.approx(2 * np.pi * 2 * rval, rel=0.02)


def test_riesz_singular_cell_average():
    from varexp.poincare import _singular_cell_average

    h = 0.05
    coarse = _singular_cell_average((h, h), 2, refine=32)
    fine = _singular_cell_average((h, h), 2, refine=512)
    # closed form for a square cell: mean of 1/|y| equals 4 ln(1+sqrt(2)) / h
    exact = 4.0 * np.log(1.0 + np.sqrt(2.0)) / h
    # midpoint refinement approaches the singular integral at O(1/refine)
    assert coarse == pytest.approx(exact, rel=2e-2)
    assert fine == pytest.approx(exact, rel=2e-3)
    assert coarse <= 1.001 * exact


def test_riesz_monotone_in_eps_magnitude():
    dom = disc_domain(64)
    grid = dom.grid
    rng = np.random.default_rng(1)
    small = np.abs(rng.normal(size=grid.dims))
    big = small + np.abs(rng.normal(size=grid.dims))
    u = vx.VectorField(grid, np.zeros(grid.dims + (2,)))
    nodes = np.argwhere(dom.mask & (dom.r > 0) & (dom.r <= 0.25))[::40]
    for nd in nodes:
        lo = riesz_rhs(u, dom, tuple(nd), eps_u_abs=small)
        hi = riesz_rhs(u, dom, tuple(nd), eps_u_abs=big)
        assert lo <= hi + 1e-14


def riesz_rhs_oracle(a, dom, node):
    """Per-node Riesz sum over the clipped window around `node`: the direct reference."""
    g = dom.grid
    spacing = np.asarray(g.spacing)
    d = g.ndim
    rad = 2.0 * float(dom.r[node])
    lo = [max(0, int(np.floor(node[ax] - rad / spacing[ax]))) for ax in range(d)]
    hi = [min(g.dims[ax], int(np.ceil(node[ax] + rad / spacing[ax])) + 1) for ax in range(d)]
    window = tuple(slice(l, h) for l, h in zip(lo, hi))
    mesh = np.meshgrid(
        *[(np.arange(l, h) - node[ax]) * spacing[ax] for ax, (l, h) in enumerate(zip(lo, hi))],
        indexing="ij",
    )
    dist = np.sqrt(sum(m**2 for m in mesh))
    inside = (dist <= rad) & dom.mask[window]
    kern = np.zeros_like(dist)
    nonzero = inside & (dist > 0)
    kern[nonzero] = dist[nonzero] ** (1 - d)
    center = tuple(node[ax] - lo[ax] for ax in range(d))
    if inside[center]:
        kern[center] = _singular_cell_average(spacing, d)
    return float(np.sum(a[window] * kern) * g.cell_volume)


def bench_disc_case(rng):
    # the 128^2 disc of the bench with every cone sample
    dom = disc_domain(128)
    h0 = ConeParams(theta=np.pi / 4, h=1.0).h0
    return dom, np.argwhere(dom.mask & (dom.r > 0) & (dom.r <= h0))


def clipped_rectangle_case(rng):
    # the box fills the grid, so every ball is clipped at the grid edge; the
    # binary spacing puts 2 r(x) exactly on lattice distances
    grid = vx.grid_on_box([0, 0], [1, 0.75], [16, 12])
    dom = vx.make_rectangle_domain([0.0, 0.0], [1.0, 0.75], grid)
    return dom, np.argwhere(dom.mask)


def box_3d_case(rng):
    # kernel |y|^-2 and a 3-d singular cell; r a multiple of the spacing
    grid = vx.grid_on_box([0, 0, 0], [1.5, 1.5, 2.25], [12, 12, 9])
    mask = np.ones(grid.dims, dtype=bool)
    mask[:3, :4, :] = False
    r = 0.125 * rng.integers(1, 4, size=grid.dims)
    dom = vx.Domain(grid, mask, np.where(mask, r, 0.0), "rectangle")
    return dom, np.argwhere(mask)[::5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [bench_disc_case, clipped_rectangle_case, box_3d_case])
def test_riesz_batch_matches_per_node_oracle(case):
    rng = np.random.default_rng(5)
    dom, nodes = case(rng)
    a = np.abs(rng.normal(size=dom.grid.dims))
    batch = _riesz_batch(a, dom, nodes)
    oracle = np.array([riesz_rhs_oracle(a, dom, tuple(nd)) for nd in nodes])
    assert len(nodes) > 100 and np.all(oracle > 0)
    np.testing.assert_array_equal(batch, oracle)
    assert np.all(_riesz_batch(np.zeros(dom.grid.dims), dom, nodes) == 0.0)


# -- the verification --------------------------------------------------------


def ring_samples(dom, rings, h0, per_ring=60):
    g = dom.grid
    origin = np.asarray(g.origin)
    spacing = np.asarray(g.spacing)
    samples, seen = [], set()
    for rr in rings:
        for a in np.linspace(0, 2 * np.pi, per_ring + 1)[:-1]:
            t = (rr * np.cos(a), rr * np.sin(a))
            nd = tuple(np.rint((np.asarray(t) - origin) / spacing).astype(int))
            if nd in seen:
                continue
            if dom.mask[nd] and 0 < dom.r[nd] <= h0:
                samples.append(nd)
                seen.add(nd)
    return samples


def test_poincare_zero_field_passes():
    dom = disc_domain(64)
    cone = ConeParams(theta=np.pi / 4, h=1.0)
    u = vx.VectorField(dom.grid, np.zeros(dom.grid.dims + (2,)))
    samples = ring_samples(dom, (2.3,), cone.h0, per_ring=24)
    rep = poincare_verify(u, dom, samples, cone=cone)
    assert rep.passed and rep.c0_empirical == 0.0


def test_poincare_rejects_uncompact_field():
    dom = disc_domain(64)
    cone = ConeParams(theta=np.pi / 4, h=1.0)
    u = vx.VectorField(dom.grid, np.ones(dom.grid.dims + (2,)))
    samples = ring_samples(dom, (2.3,), cone.h0, per_ring=8)
    with pytest.raises(ValueError, match="compactly supported"):
        poincare_verify(u, dom, samples, cone=cone)


def test_poincare_rejects_bad_samples():
    dom = disc_domain(64)
    cone = ConeParams(theta=np.pi / 4, h=1.0)
    u = standard_test_fields(dom, support_radius=2.4)["radial"]
    deep = [tuple(np.argwhere(dom.r > 1.0)[0])]
    with pytest.raises(ValueError, match="violates"):
        poincare_verify(u, dom, deep, cone=cone)


def test_poincare_c0_scale_invariant():
    dom = disc_domain(96)
    cone = ConeParams(theta=np.pi / 4, h=1.0)
    samples = ring_samples(dom, (2.26, 2.30), cone.h0)
    u = standard_test_fields(dom, support_radius=2.4)["radial"]
    rep1 = poincare_verify(u, dom, samples, cone=cone)
    rep2 = poincare_verify(37.0 * u, dom, samples, cone=cone)
    assert rep2.c0_empirical == pytest.approx(rep1.c0_empirical, rel=1e-12)


def test_poincare_report_csv(tmp_path):
    dom = disc_domain(64)
    cone = ConeParams(theta=np.pi / 4, h=1.0)
    samples = ring_samples(dom, (2.3,), cone.h0, per_ring=16)
    u = standard_test_fields(dom, support_radius=2.4)["radial"]
    rep = poincare_verify(u, dom, samples, cone=cone)
    path = tmp_path / "report.csv"
    write_report_csv(path, rep, dom, comment="probe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "x1,x2,r,lhs,rhs,ratio"
    assert lines[-1].startswith("# c0_empirical")
    assert lines[-1].endswith("PASS")
