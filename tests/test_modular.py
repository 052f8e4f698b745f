import logging

import numpy as np
import pytest
from scipy.optimize import brentq

import varexp as vx
from varexp.modular import _luxembourg_root


def unit_square(res=64):
    grid = vx.grid_on_box([0, 0], [1, 1], [res, res])
    return grid, vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)


def smooth_field(grid, seed):
    rng = np.random.default_rng(seed)
    xx = grid.coords()
    vals = np.zeros(grid.dims)
    for _ in range(4):
        k1, k2 = rng.integers(1, 4, size=2)
        vals += rng.normal() * np.sin(np.pi * k1 * xx[0] + rng.uniform(0, 6)) * np.sin(
            np.pi * k2 * xx[1] + rng.uniform(0, 6)
        )
    return vx.ScalarField(grid, vals)


# -- exponent fields ---------------------------------------------------------


def test_exponent_bounds_and_rejection():
    grid, _ = unit_square(16)
    with pytest.raises(ValueError, match="p > 1"):
        vx.ExponentField(vx.ScalarField(grid, np.full(grid.dims, 1.0)))
    p = vx.constant_exponent(grid, 1.5)
    assert p.p_minus == p.p_plus == 1.5


def _all_pairs_clog(p, radius):
    """Independent O(N^2) sweep over all node pairs within `radius` cells."""
    grid = p.grid
    pts = np.argwhere(np.ones(grid.dims, dtype=bool))
    vals = p.values.values.reshape(-1)
    spacing = np.asarray(grid.spacing)
    best = 0.0
    for a in range(len(pts)):
        d = (pts - pts[a]) * spacing
        dist = np.sqrt((d**2).sum(axis=1))
        ok = (dist > 0) & (((pts - pts[a]) ** 2).sum(axis=1) <= radius**2)
        if ok.any():
            best = max(
                best,
                float(np.max(np.abs(vals[ok] - vals[a]) * np.log(np.e + 1.0 / dist[ok]))),
            )
    return best


def test_clog_estimate_matches_all_pairs_oracle():
    grid = vx.grid_on_box([0, 0], [1, 1], [12, 12])
    xx = grid.coords()
    # a space-time grid, time first, with anisotropic spacings and variation along every axis
    st = vx.grid_on_box([-1, 0, 0], [1, 1, 2], [7, 9, 10])
    t, x, y = st.coords()
    # and one that varies along the last axis alone, so its largest term sits
    # at an offset (0, 0, k) of the half lattice's boundary plane
    for g, values in ((grid, 1.5 + 0.4 * np.sin(3 * xx[0]) * xx[1]),
                      (st, 1.5 + 0.3 * np.sin(2 * t) * x + 0.2 * np.cos(3 * y) * t),
                      (st, 1.5 + 0.4 * np.sin(5 * y))):
        p = vx.ExponentField(vx.ScalarField(g, values))
        assert p.clog_estimate == pytest.approx(_all_pairs_clog(p, 8), rel=1e-12)
        assert vx.constant_exponent(g, 2.0).clog_estimate == 0.0


def test_conjugate_values_and_bounds():
    grid, _ = unit_square(16)
    assert np.allclose(vx.conjugate(vx.constant_exponent(grid, 2.0)).values.values, 2.0)
    p11 = vx.conjugate(vx.constant_exponent(grid, 1.1))
    assert np.allclose(p11.values.values, 11.0)
    # two-valued exponent: conjugates land on {11, 2} on the pure regions
    vals = np.where(grid.coords()[0] < 0.5, 1.1, 2.0)
    pc = vx.conjugate(vx.ExponentField(vx.ScalarField(grid, vals)))
    assert np.allclose(np.unique(pc.values.values), [2.0, 11.0])
    assert pc.p_minus == pytest.approx(2.0)
    assert pc.p_plus == pytest.approx(11.0)
    # exponents touching 1 are already rejected at construction
    with pytest.raises(ValueError, match="p > 1"):
        vx.ExponentField(vx.ScalarField(grid, np.full(grid.dims, 1.0)))


# -- modular -----------------------------------------------------------------


def test_modular_trivial_values():
    grid, dom = unit_square()
    p = vx.constant_exponent(grid, 1.7)
    zero = vx.ScalarField(grid, np.zeros(grid.dims))
    assert vx.modular(zero, p, dom) == 0.0

    # |G| = 2 domain: rectangle covering a 2x1 box exactly
    g2 = vx.grid_on_box([0, 0], [2, 1], [64, 32])
    dom2 = vx.make_rectangle_domain([-0.1, -0.1], [2.1, 1.1], g2)
    one = vx.ScalarField(g2, np.ones(g2.dims))
    p2 = vx.constant_exponent(g2, 2.6)
    assert vx.modular(one, p2, dom2) == pytest.approx(2.0, abs=1e-12)


def test_modular_quadratic_oracle():
    grid, dom = unit_square(64)
    x1 = vx.ScalarField(grid, grid.coords()[0])
    p = vx.constant_exponent(grid, 2.0)
    # integral of x^2 over the unit square
    assert vx.modular(x1, p, dom) == pytest.approx(1.0 / 3.0, abs=2 * max(grid.spacing))


# -- luxembourg norm ---------------------------------------------------------


def test_luxembourg_point_mass_case():
    # |G| = 1, f == 3, p == 2: rho(3/lam) = 9/lam^2 forces lam = 3
    grid = vx.grid_on_box([0, 0], [1, 1], [2, 2])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)
    assert dom.measure() == pytest.approx(1.0)
    f = vx.ScalarField(grid, np.full(grid.dims, 3.0))
    p = vx.constant_exponent(grid, 2.0)
    assert vx.luxembourg_norm(f, p, dom) == pytest.approx(3.0, rel=1e-7)


def test_luxembourg_zero_field_and_nonfinite():
    grid, dom = unit_square(16)
    p = vx.constant_exponent(grid, 2.0)
    assert vx.luxembourg_norm(vx.ScalarField(grid, np.zeros(grid.dims)), p, dom) == 0.0
    bad = np.zeros(grid.dims)
    bad[3, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        vx.luxembourg_norm(vx.ScalarField(grid, bad), p, dom)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modular_refuses_non_finite_fields(bad):
    grid, dom = unit_square(16)
    p = vx.constant_exponent(grid, 2.0)
    vals = np.zeros(grid.dims + (2,))
    vals[3, 3, 1] = bad
    for f in (vx.ScalarField(grid, vals[..., 1]), vx.VectorField(grid, vals)):
        with pytest.raises(ValueError, match="field has non-finite values"):
            vx.modular(f, p, dom)


@pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
def test_luxembourg_constant_exponent_oracle(q):
    grid, dom = unit_square(48)
    for seed in range(5):
        f = smooth_field(grid, seed)
        p = vx.constant_exponent(grid, q)
        lux = vx.luxembourg_norm(f, p, dom)
        # closed form for constant exponents
        assert lux == pytest.approx(vx.modular(f, p, dom) ** (1.0 / q), rel=1e-6)


@pytest.mark.parametrize("c, q", [(1e-4, 100.0), (1e-200, 3.0)])
def test_luxembourg_constant_field_extreme_magnitudes(c, q):
    # c^q underflows to 0 in floating point; the norm must not
    grid, dom = unit_square(16)
    f = vx.ScalarField(grid, np.full(grid.dims, c))
    lux = vx.luxembourg_norm(f, vx.constant_exponent(grid, q), dom)
    assert lux == pytest.approx(c * dom.measure() ** (1.0 / q), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("q", [1.1, 100.0])
@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_luxembourg_root_hits_unit_modular(c, q, caplog):
    # the returned norm is the root itself: rho(f / ||f||) = 1 to roundoff,
    # with no gap record, on a domain of measure 2
    grid = vx.grid_on_box([0, 0], [2, 1], [32, 16])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [2.1, 1.1], grid)
    f = vx.ScalarField(grid, np.full(grid.dims, c))
    p = vx.constant_exponent(grid, q)
    with caplog.at_level(logging.INFO, logger="varexp.modular"):
        norm = vx.luxembourg_norm(f, p, dom)
    assert abs(vx.modular(f * (1.0 / norm), p, dom) - 1.0) <= 1e-12
    assert not [r for r in caplog.records if r.name == "varexp.modular"]


def test_luxembourg_root_without_factors_is_the_zero_log_factor_root():
    # log_c=None takes c = 1 at every node: the same root, to the last bit,
    # as explicit zero log-factors, for p in [1.001, 200], magnitudes
    # 1e-100..1e100 and supports with zeros or no nonzero node at all
    rng = np.random.default_rng(20)
    for case in range(200):
        n = int(rng.integers(1, 400))
        a = 10.0 ** rng.uniform(-100.0, 100.0) * rng.uniform(0.0, 1.0, size=n)
        a[rng.random(n) < rng.uniform(0.0, 0.9)] = 0.0
        if case % 25 == 0:
            a[:] = 0.0
        lo = rng.uniform(1.001, 200.0)
        q = rng.uniform(lo, min(lo * 3.0, 200.0), size=n)
        log_w = float(np.log(rng.uniform(1e-4, 1.0)))
        bare = _luxembourg_root(a, q, None, log_w, 1e-8)
        assert float.hex(bare) == float.hex(_luxembourg_root(a, q, np.zeros_like(a), log_w, 1e-8))
        assert (bare == 0.0) == (not a.any())


def test_luxembourg_two_region_root_oracle():
    # piecewise-constant exponent, constant field: the norm solves
    # c^1.1 m1 / lam^1.1 + c^2 m2 / lam^2 = 1
    grid, dom = unit_square(64)
    left = grid.coords()[0] < 0.5
    p = vx.ExponentField(vx.ScalarField(grid, np.where(left, 1.1, 2.0)))
    c = 2.7
    f = vx.ScalarField(grid, np.full(grid.dims, c))
    vol = grid.cell_volume
    m1 = float(np.count_nonzero(left & dom.mask)) * vol
    m2 = float(np.count_nonzero(~left & dom.mask)) * vol
    root = brentq(
        lambda lam: c**1.1 * m1 / lam**1.1 + c**2 * m2 / lam**2 - 1.0, 1e-6, 1e6, xtol=1e-12
    )
    assert vx.luxembourg_norm(f, p, dom) == pytest.approx(root, rel=1e-7)


def test_luxembourg_single_node_support():
    grid, dom = unit_square(32)
    vals = np.zeros(grid.dims)
    vals[10, 12] = 5.0
    f = vx.ScalarField(grid, vals)
    p = vx.constant_exponent(grid, 1.5)
    lux = vx.luxembourg_norm(f, p, dom)
    assert lux == pytest.approx((5.0**1.5 * grid.cell_volume) ** (1 / 1.5), rel=1e-6)


def two_region_exponent(grid):
    xx = grid.coords()
    mix = 0.5 * (1.0 + np.tanh((xx[0] - 0.5) / 0.15))
    return vx.ExponentField(vx.ScalarField(grid, 1.3 + 0.9 * mix))


def test_unit_ball_property():
    grid, dom = unit_square(48)
    p = two_region_exponent(grid)
    for seed in range(10):
        f = smooth_field(grid, seed)
        norm = vx.luxembourg_norm(f, p, dom)
        assert vx.modular(f * (1.0 / norm), p, dom) == pytest.approx(1.0, abs=1e-6)


def test_homogeneity():
    rng = np.random.default_rng(9)
    grid, dom = unit_square(32)
    p = two_region_exponent(grid)
    f = smooth_field(grid, 3)
    base = vx.luxembourg_norm(f, p, dom)
    for _ in range(5):
        c = float(rng.uniform(0.1, 20.0))
        assert vx.luxembourg_norm(c * f, p, dom) == pytest.approx(c * base, rel=4e-8)


def test_monotone_nesting_constant():
    # for p <= q pointwise, ||f||_p <= 2 (1 + |G|) ||f||_q on bounded domains
    grid, dom = unit_square(48)
    G = dom.measure()
    C = 2.0 * (1.0 + G)
    p = two_region_exponent(grid)
    q = vx.ExponentField(vx.ScalarField(grid, p.values.values + 0.7))
    for seed in range(10):
        f = smooth_field(grid, seed)
        assert vx.luxembourg_norm(f, p, dom) <= C * vx.luxembourg_norm(f, q, dom) + 1e-12


def test_luxembourg_flags_degenerate_gap(caplog):
    # a field supported on one node still converges and may log the gap
    grid, dom = unit_square(16)
    p = two_region_exponent(grid)
    vals = np.zeros(grid.dims)
    vals[5, 5] = 1e-3
    with caplog.at_level(logging.INFO, logger="varexp.modular"):
        norm = vx.luxembourg_norm(vx.ScalarField(grid, vals), p, dom)
    assert norm > 0.0


# -- pairing -----------------------------------------------------------------


def test_pairing_trivial_and_norm_link():
    grid, dom = unit_square(48)
    p = vx.constant_exponent(grid, 2.0)
    f = smooth_field(grid, 11)
    zero = vx.ScalarField(grid, np.zeros(grid.dims))
    assert vx.holder_pairing(f, zero, domain=dom) == 0.0
    # (f, f) with p = 2 equals modular(f) by definition of the quadrature
    assert vx.holder_pairing(f, f, domain=dom) == pytest.approx(vx.modular(f, p, dom), rel=1e-12)
    # and matches the squared Luxembourg norm up to quadrature
    assert vx.holder_pairing(f, f, domain=dom) == pytest.approx(
        vx.luxembourg_norm(f, p, dom) ** 2, rel=1e-6
    )


def test_pairing_vector_and_tensor_contraction():
    rng = np.random.default_rng(4)
    grid, dom = unit_square(24)
    u = vx.VectorField(grid, rng.normal(size=grid.dims + (2,)))
    v = vx.VectorField(grid, rng.normal(size=grid.dims + (2,)))
    direct = vx.integrate(vx.ScalarField(grid, np.sum(u.values * v.values, axis=-1)), dom)
    assert vx.holder_pairing(u, v, domain=dom) == pytest.approx(direct, rel=1e-12)
    for comps in (1, 3):
        with pytest.raises(ValueError, match="component count"):
            vx.holder_pairing(u, vx.VectorField(grid, np.ones(grid.dims + (comps,))), domain=dom)
    S = vx.SymTensorField(grid, rng.normal(size=grid.dims + (3,)))
    T = vx.SymTensorField(grid, rng.normal(size=grid.dims + (3,)))
    full = np.sum(S.to_full().values * T.to_full().values, axis=(-1, -2))
    direct = vx.integrate(vx.ScalarField(grid, full), dom)
    assert vx.holder_pairing(S, T, domain=dom) == pytest.approx(direct, rel=1e-12)


def test_pairing_of_full_tensors_is_the_frobenius_pairing():
    rng = np.random.default_rng(7)
    grid, dom = unit_square(24)
    A, B = (rng.normal(size=grid.dims + (2, 2)) for _ in range(2))
    A, B = (vx.TensorField(grid, M + np.swapaxes(M, -1, -2)) for M in (A, B))
    compact = vx.holder_pairing(vx.SymTensorField.from_full(A), vx.SymTensorField.from_full(B), domain=dom)
    assert vx.holder_pairing(A, B, domain=dom) == pytest.approx(compact, rel=1e-13)
    with pytest.raises(TypeError, match="same kind"):
        vx.holder_pairing(A, vx.SymTensorField.from_full(B), domain=dom)


def test_pairing_with_p_is_deprecated_and_unchanged():
    grid, dom = unit_square(24)
    p = two_region_exponent(grid)
    f, g = smooth_field(grid, 5), smooth_field(grid, 6)
    with pytest.warns(DeprecationWarning, match="ignores p"):
        old = vx.holder_pairing(f, g, p, dom)
    assert old == vx.holder_pairing(f, g, domain=dom)
    with pytest.raises(TypeError, match="domain"):
        vx.holder_pairing(f, g)


def test_holder_inequality_constant_two():
    grid, dom = unit_square(32)
    p = two_region_exponent(grid)
    pc = vx.conjugate(p)
    for seed in range(100):
        f = smooth_field(grid, 2 * seed)
        g = smooth_field(grid, 2 * seed + 1)
        pairing = abs(vx.holder_pairing(f, g, domain=dom))
        bound = 2.0 * vx.luxembourg_norm(f, pc, dom) * vx.luxembourg_norm(g, p, dom)
        assert pairing <= bound + 1e-6
