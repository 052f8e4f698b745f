import math

import numpy as np
import pytest
from scipy import integrate as sciint
from scipy import ndimage

import varexp as vx
from varexp.mollify import (
    CutoffFamily,
    MollifierFamily,
    _maximal_radii,
    convolve,
    extend_exponent,
    maximal,
    reflect_extend,
    restrict,
    smooth_R,
    smooth_Rstar,
    sym_grad_smooth_decomposition,
    zero_extend,
)


# -- mollifier family --------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_profile_normalization_and_support(dim):
    fam = MollifierFamily(dim)
    # quadrature of the profile over a fine lattice reproduces unit mass
    n = {1: 4001, 2: 401, 3: 81}[dim]
    axis = np.linspace(-1.0, 1.0, n)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    w = fam.profile(pts)
    mass = w.sum() * (axis[1] - axis[0]) ** dim
    assert mass == pytest.approx(1.0, abs=5e-3)
    outside = np.linalg.norm(pts, axis=-1) >= 1.0
    assert np.all(w[outside] == 0.0)
    # the normalizing constant against a tight radial quadrature
    surf = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    radial, _ = sciint.quad(
        lambda s: s ** (dim - 1) * np.exp(-1.0 / (1.0 - s * s)), 0.0, 1.0, epsabs=0.0, epsrel=1e-13
    )
    assert 1.0 / fam.c_norm == pytest.approx(surf * radial, rel=1e-13)


def test_sampled_weights_sum_to_one_and_reject_small_scale():
    fam = MollifierFamily(2)
    w = fam.sampled_weights((0.1, 0.1), 0.35)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert w.shape == (7, 7)
    with pytest.raises(ValueError, match="below the grid spacing"):
        fam.sampled_weights((0.1, 0.1), 0.05)


# -- convolution -------------------------------------------------------------


def test_convolve_constant_interior_exact():
    grid = vx.grid_on_box([0, 0], [1, 1], [40, 40])
    f = vx.ScalarField(grid, np.full(grid.dims, 3.0))
    out = convolve(f, 4 * grid.spacing[0])
    assert np.allclose(out.values[6:-6, 6:-6], 3.0, atol=1e-13)


def test_convolve_halfspace_ramp_against_quadrature_oracle():
    # 1-d indicator of {x > 0.5}: mollification is the analytic ramp
    grid = vx.grid_on_box([0.0], [1.0], [256])
    x = grid.axis_coords(0)
    f = vx.ScalarField(grid, (x > 0.5).astype(float))
    eps = 0.1
    out = convolve(f, eps)
    v = out.values
    # monotone smooth ramp away from the grid edges (zero extension dips there)
    window = (x > 0.2) & (x < 0.8)
    assert np.all(np.diff(v[window]) >= -1e-12)
    assert v[(x < 0.5 - eps - grid.spacing[0]) & window].max(initial=0.0) == 0.0
    ones = v[(x > 0.5 + eps + grid.spacing[0]) & window]
    assert abs(ones.min(initial=1.0) - 1.0) < 1e-12

    fam = MollifierFamily(1)
    c = fam.c_norm

    def oracle(t):
        lo = max(0.5, t - eps)
        hi = t + eps
        if lo >= hi:
            return 0.0
        val, _ = sciint.quad(
            lambda s: c / eps * np.exp(-1.0 / (1.0 - ((t - s) / eps) ** 2))
            if abs(t - s) < eps
            else 0.0,
            lo,
            hi,
        )
        return val

    for idx in (100, 124, 128, 132, 156):
        assert v[idx] == pytest.approx(oracle(x[idx]), abs=5e-3)


def test_convolve_converges_in_variable_norm():
    grid = vx.grid_on_box([0, 0], [1, 1], [96, 96])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)
    xx = grid.coords()
    f = vx.ScalarField(grid, np.sin(2 * np.pi * xx[0]) * np.cos(np.pi * xx[1]))
    p = vx.ExponentField(vx.ScalarField(grid, 1.6 + 0.6 * xx[0]))
    errs = []
    for k in (16, 8, 4, 2):
        errs.append(vx.luxembourg_norm(convolve(f, k * grid.spacing[0]) - f, p, dom))
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    assert errs[-1] < 0.3 * errs[0]


# -- maximal operator --------------------------------------------------------


def test_maximal_constant_exact():
    grid = vx.grid_on_box([0, 0], [1, 1], [32, 32])
    f = vx.ScalarField(grid, np.full(grid.dims, 2.5))
    assert np.allclose(maximal(f).values, 2.5, atol=1e-13)


def test_maximal_ball_center_value():
    grid = vx.grid_on_box([-1, -1], [1, 1], [64, 64])
    xx = grid.coords()
    ball = (np.sqrt(xx[0] ** 2 + xx[1] ** 2) < 0.5).astype(float)
    M = maximal(vx.ScalarField(grid, ball))
    center = (32, 32)
    assert M.values[center] == pytest.approx(1.0, abs=1e-13)
    assert np.all(M.values <= 1.0 + 1e-13)


def _maximal_reference(f):
    """Direct per-node lattice-ball averages of |f|, maximized over the radius ladder."""
    g = f.grid
    a = vx.field_abs(f).values.reshape(-1)
    spacing = np.asarray(g.spacing)
    h = float(min(spacing))
    nodes = np.argwhere(np.ones(g.dims, dtype=bool))
    k = nodes[:, None, :] - nodes[None, :, :]  # pairwise lattice offsets
    rho2 = np.sum((k[..., :-1] * spacing[:-1]) ** 2, axis=-1)
    best = a.copy()
    for r_cells in _maximal_radii(int(np.ceil(g.diameter() / h)), g.ndim):
        r = r_cells * h
        ball = np.all(np.abs(k[..., :-1]) <= np.floor(r / spacing[:-1]), axis=-1) & (rho2 <= r * r)
        half = np.floor(np.sqrt(np.clip(r * r - rho2, 0.0, None)) / spacing[-1])
        ball &= np.abs(k[..., -1]) <= half
        best = np.maximum(best, (ball @ a) / ball.sum(axis=1))
    return best.reshape(g.dims)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize(
    "lo,hi,cells",
    [
        ([0, 0], [1, 0.37], [13, 29]),
        ([0, 0, 0], [1, 0.5, 0.8], [9, 11, 14]),
        # padded to 98, where float offsets k*(1 + 2^-52) would drop every rim node
        ([0, 0], [1, 1], [7, 49]),
    ],
)
def test_maximal_matches_direct_ball_averages(lo, hi, cells, kind):
    rng = np.random.default_rng(11)
    grid = vx.grid_on_box(lo, hi, cells)
    if kind == "scalar":
        f = vx.ScalarField(grid, rng.normal(size=grid.dims))
    else:
        f = vx.VectorField(grid, rng.normal(size=grid.dims + (grid.ndim,)))
    M = maximal(f).values
    np.testing.assert_allclose(M, _maximal_reference(f), rtol=1e-13, atol=0.0)
    # the ladder starts at the node value, so domination is exact
    assert np.all(M >= vx.field_abs(f).values)


def test_maximal_dominates_mollification():
    rng = np.random.default_rng(3)
    grid = vx.grid_on_box([0, 0], [1, 1], [64, 64])
    hx = grid.spacing[0]
    for _ in range(5):
        f = vx.ScalarField(grid, rng.normal(size=grid.dims))
        M = maximal(f).values
        for k in (1, 2, 4, 8, 16):
            out = convolve(f, k * hx)
            assert np.max(np.abs(out.values) - 2.0 * M) <= 1e-6


# -- extensions --------------------------------------------------------------


def test_zero_extend_preserves_norms_and_support():
    rng = np.random.default_rng(4)
    grid = vx.grid_on_box([0, 0], [1, 1], [24, 24])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)
    p_small = vx.constant_exponent(grid, 1.7)
    f = vx.ScalarField(grid, rng.normal(size=grid.dims))
    target = grid.extended(0, 6, 3).extended(1, 2, 5)
    big = zero_extend(f, target)
    big_dom = vx.make_rectangle_domain(
        [target.origin[0] - 1, target.origin[1] - 1],
        [target.origin[0] + 10, target.origin[1] + 10],
        target,
    )
    p_big = vx.constant_exponent(target, 1.7)
    assert vx.modular(big, p_big, big_dom) == pytest.approx(vx.modular(f, p_small, dom), rel=1e-12)
    assert np.count_nonzero(big.values) == np.count_nonzero(f.values)
    assert np.array_equal(restrict(big, grid).values, f.values)


def test_zero_extend_rejects_misaligned():
    grid = vx.grid_on_box([0, 0], [1, 1], [16, 16])
    f = vx.ScalarField(grid, np.zeros(grid.dims))
    shifted = vx.Grid(grid.dims, grid.spacing, (grid.origin[0] + 0.3 * grid.spacing[0], grid.origin[1]))
    with pytest.raises(ValueError, match="node-aligned"):
        zero_extend(f, shifted)
    coarse = vx.Grid(grid.dims, (2 * grid.spacing[0], grid.spacing[1]), grid.origin)
    with pytest.raises(ValueError, match="spacing"):
        zero_extend(f, coarse)


def test_reflect_extend_time_constant_and_tent():
    g2 = vx.grid_on_box([0, 0, 0], [1, 1, 1], [16, 8, 8])
    const = vx.ScalarField(g2, np.full(g2.dims, 1.5))
    ext = reflect_extend(const)
    assert ext.grid.dims[0] == 48
    assert np.all(ext.values == 1.5)

    t = g2.axis_coords(0)
    f = vx.ScalarField(g2, np.broadcast_to(t[:, None, None], g2.dims).copy())
    ext = reflect_extend(f)
    te = ext.grid.axis_coords(0)
    # nodewise reflected profile: t on (0,T), -t mirrored before, 2T-t after
    expect = np.where(te < 0, -te, np.where(te < 1.0, te, 2.0 - te))
    assert np.allclose(ext.values[:, 0, 0], expect, atol=1e-12)


def test_reflect_extend_triples_modular_exactly():
    rng = np.random.default_rng(5)
    g2 = vx.grid_on_box([0, 0, 0], [1, 1, 1], [10, 12, 12])
    spatial = vx.Grid(g2.dims[1:], g2.spacing[1:], g2.origin[1:])
    dom = vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], spatial)
    u = vx.ScalarField(g2, rng.normal(size=g2.dims))
    p = vx.ExponentField(vx.ScalarField(spatial, 1.4 + spatial.coords()[0]))
    base = vx.modular(u, p, dom)
    ext = reflect_extend(u)
    assert vx.modular(ext, p, dom) == pytest.approx(3.0 * base, rel=1e-13)
    # exponents ride along through the same reflection
    pst = p.extend_constant_in_time(g2)
    p_ext = reflect_extend(pst)
    assert p_ext.grid == ext.grid
    assert p_ext.p_minus == pst.p_minus and p_ext.p_plus == pst.p_plus


def test_extend_exponent_clamps_and_keeps_bounds():
    grid = vx.grid_on_box([0, 0], [1, 1], [16, 16])
    xx = grid.coords()
    p = vx.ExponentField(vx.ScalarField(grid, 1.5 + 0.5 * xx[0]))
    target = grid.extended(0, 4, 4).extended(1, 4, 4)
    pe = extend_exponent(p, target)
    assert pe.p_minus == pytest.approx(p.p_minus)
    assert pe.p_plus == pytest.approx(p.p_plus)
    assert np.allclose(pe.values.values[4:-4, 4:-4], p.values.values)
    assert np.allclose(pe.values.values[0, 4:-4], p.values.values[0])


# -- cutoff family -----------------------------------------------------------


def disc_domain(res=96):
    grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
    return vx.make_disc_domain((0, 0), 2.5, grid)


def test_cutoff_plateau_support_and_gradient():
    dom = disc_domain()
    hx = max(dom.grid.spacing)
    c_etas = []
    for h in (0.25, 0.375, 0.5, 0.75):
        fam = CutoffFamily(dom, h)
        eta = fam.eta.values
        assert eta.min() >= -1e-15 and eta.max() <= 1.0 + 1e-15
        plateau = vx.shrink(dom, 3 * fam.h + 2 * hx).mask
        assert np.allclose(eta[plateau], 1.0, atol=1e-14)
        outside = ~vx.shrink(dom, 2 * fam.h - 2 * hx).mask
        assert np.abs(eta[outside]).max() == 0.0
        c_etas.append(fam.c_eta)
    # |grad eta| h stays uniformly bounded over the tested range
    assert max(c_etas) < 3.0


# -- smoothing operators -----------------------------------------------------


def spacetime_setup(res=48, tres=32):
    spatial = vx.grid_on_box([0, 0], [1, 1], [res, res])
    dom = vx.make_rectangle_domain([-0.05, -0.05], [1.05, 1.05], spatial)
    st = vx.Grid((tres,) + spatial.dims, (1.0 / tres,) + spatial.spacing, (0.5 / tres,) + spatial.origin)
    return dom, st


def bump_spacetime_field(st, ncomp=2):
    from varexp.rothe import mms_bump

    tt = st.axis_coords(0)
    x = st.axis_coords(1)
    y = st.axis_coords(2)
    prof = mms_bump((x[:, None] - 0.2) / 0.6) * mms_bump((y[None, :] - 0.2) / 0.6)
    wobble = 1.0 + 0.5 * np.sin(2 * np.pi * tt)
    vals = wobble[:, None, None] * prof[None, :, :]
    if ncomp == 0:
        return vx.ScalarField(st, vals)
    comps = [vals * (i + 1.0) for i in range(ncomp)]
    return vx.VectorField(st, np.stack(comps, axis=-1))


def test_smooth_R_zero_and_support():
    dom, st = spacetime_setup()
    zero = vx.VectorField(st, np.zeros(st.dims + (2,)))
    out = smooth_R(zero, dom, 0.125)
    assert np.all(out.values == 0.0)

    u = bump_spacetime_field(st)
    h = 0.125
    out = smooth_R(u, dom, h)
    nz = np.abs(out.values).sum(axis=-1) > 0
    # cell-exact counterpart: dilation of the cutoff support by the kernel radius
    eta_supp = CutoffFamily(dom, h).eta.values > 0
    pre = np.zeros(out.grid.dims, dtype=bool)
    kt = (out.grid.dims[0] - st.dims[0]) // 2
    pre[kt : kt + st.dims[0]] = eta_supp[None, :, :]
    kx = int(round(h / dom.grid.spacing[0]))
    struct = np.ones((2 * kt + 1, 2 * kx + 1, 2 * kx + 1), dtype=bool)
    allowed = ndimage.binary_dilation(pre, structure=struct)
    assert not (nz & ~allowed).any()
    # physical claim: spatial support inside Omega_h up to cells, time in (-h, T+h)
    hx = max(dom.grid.spacing)
    spatial_nz = nz.any(axis=0)
    assert dom.r[spatial_nz].min() >= h - 2 * hx
    times = out.grid.axis_coords(0)[nz.any(axis=(1, 2))]
    assert times.min() > -h - out.grid.spacing[0]
    assert times.max() < 1.0 + h + out.grid.spacing[0]


def test_smooth_R_converges_monotonically():
    dom, st = spacetime_setup(64, 64)
    u = bump_spacetime_field(st)
    p = vx.ExponentField(
        vx.ScalarField(dom.grid, 1.6 + 0.5 * dom.grid.coords()[0])
    ).extend_constant_in_time(st)
    errs = []
    for k in (3, 4, 5):
        h = 2.0**-k
        diff = restrict(smooth_R(u, dom, h), st) - u
        errs.append(vx.luxembourg_norm(diff, p, dom))
    assert errs[0] > errs[1] > errs[2]


def test_smooth_Rstar_support_and_exact_adjointness():
    dom, st = spacetime_setup()
    h = 0.125
    hx = max(dom.grid.spacing)
    rng = np.random.default_rng(6)
    u = bump_spacetime_field(st)
    out = smooth_Rstar(u, dom, h)
    nz = np.abs(out.values).sum(axis=-1) > 0
    assert dom.r[nz.any(axis=0)].min() >= 2 * h - 2 * hx

    v = vx.VectorField(st, rng.normal(size=st.dims + (2,)))
    p = vx.constant_exponent(dom.grid, 2.0)
    lhs = vx.holder_pairing(restrict(smooth_Rstar(u, dom, h), st), v, p, dom)
    rhs = vx.holder_pairing(u, restrict(smooth_R(v, dom, h), st), p, dom)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_decomposition_identity_and_far_field():
    # h is an exact cell multiple at both resolutions so only the spatial
    # spacing changes between the runs; the time axis stays fixed
    from varexp.rothe import mms_bump

    tres, tau = 16, 1.0 / 16

    def run(res, h):
        spatial = vx.grid_on_box([-2.2, -2.2], [2.2, 2.2], [res, res])
        dom = vx.make_disc_domain((0, 0), 2.0, spatial)
        st = vx.Grid((tres,) + spatial.dims, (tau,) + spatial.spacing, (tau / 2,) + spatial.origin)
        xx = spatial.coords()
        prof = mms_bump((xx[0] + 1.2) / 2.4) * mms_bump((xx[1] + 1.2) / 2.4)
        wobble = 1.0 + 0.5 * np.sin(2 * np.pi * st.axis_coords(0))
        vals = wobble[:, None, None, None] * np.stack([prof, 2 * prof], axis=-1)[None, ...]
        u = vx.VectorField(st, vals)
        termA, termB = sym_grad_smooth_decomposition(u, dom, h)
        from varexp.calculus import sym_gradient

        eps_smooth = sym_gradient(smooth_R(u, dom, h), None)
        resid = vx.field_abs(eps_smooth - termA - termB).values
        return dom, termB, float(resid.max())

    h = 3 * 4.4 / 40  # 3 coarse cells == 6 fine cells
    dom, termB, r1 = run(40, h)
    _, _, r2 = run(80, h)
    assert 3.2 < r1 / r2 < 4.8

    # termB vanishes identically on the 4h shrinkage (kernel-snap cells)
    hx = max(dom.grid.spacing)
    far = vx.shrink(dom, 4 * h + 3 * hx).mask
    assert far.any()
    assert np.abs(vx.field_abs(termB).values[:, far]).max() == 0.0


def test_decomposition_rigid_core_term():
    # rigid field on an inner plateau: termA vanishes away from the cutoff ring
    dom, st = spacetime_setup(48, 16)
    xx = dom.grid.coords()
    rho = np.sqrt((xx[0] - 0.5) ** 2 + (xx[1] - 0.5) ** 2)
    s2 = np.clip((np.clip(rho - 0.18, 0.0, None) / 0.2) ** 2, 0, 1)
    eta = (1 - s2) ** 3  # equal to 1 on rho <= 0.18: rigid rotation there
    vals = np.stack([-eta * (xx[1] - 0.5), eta * (xx[0] - 0.5)], axis=-1)
    u = vx.VectorField(st, np.broadcast_to(vals, st.dims + (2,)).copy())
    h = 3 * max(dom.grid.spacing)
    termA, _ = sym_grad_smooth_decomposition(u, dom, h)
    core = rho < 0.18 - h - 2 * max(dom.grid.spacing)
    scale = vx.field_abs(termA).values.max()
    assert vx.field_abs(termA).values[:, core].max() < 0.02 * scale


def test_domination_chain_records_constant():
    dom, st = spacetime_setup(24, 24)
    u = bump_spacetime_field(st)
    from varexp.calculus import sym_gradient
    from varexp.fields import field_abs

    h = 3 * max(dom.grid.spacing)
    target = smooth_R(u, dom, h).grid
    Fu = zero_extend(u, target)
    M_u = maximal(Fu).values
    Ru = smooth_R(u, dom, h)
    assert np.max(field_abs(Ru).values - 2.0 * M_u) <= 1e-6

    eps_u = sym_gradient(u, dom)
    M_eps = maximal(zero_extend(eps_u, target)).values
    eps_R = field_abs(sym_gradient(Ru, None)).values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(M_eps > 1e-12, eps_R / M_eps, 0.0)
    c_d = float(ratio.max())
    assert 0.0 < c_d <= 20.0  # empirical domination constant stays tame


def test_uniform_boundedness_over_dyadic_scales():
    dom, st = spacetime_setup(32, 32)
    u = bump_spacetime_field(st)
    p = vx.ExponentField(
        vx.ScalarField(dom.grid, 1.5 + 0.8 * dom.grid.coords()[1])
    ).extend_constant_in_time(st)
    base = vx.luxembourg_norm(u, p, dom)
    worst = 0.0
    for k in (2, 3, 4):
        h = 2.0**-k
        Ru = smooth_R(u, dom, h)
        pe = extend_exponent(p, Ru.grid)
        dom_all = vx.make_rectangle_domain(
            [dom.grid.origin[0] - 1, dom.grid.origin[1] - 1],
            [dom.grid.origin[0] + 3, dom.grid.origin[1] + 3],
            dom.grid,
        )
        worst = max(worst, vx.luxembourg_norm(Ru, pe, dom_all) / base)
    assert worst <= 2.0
