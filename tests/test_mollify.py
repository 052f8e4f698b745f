import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy import ndimage

import varexp as vx
from varexp import mollify
from varexp.calculus import sym_gradient
from varexp.fields import _sym_part
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


@st.composite
def _convolve_cases(draw):
    """A grid of 1-3 axes (prime node counts included), a scale from one cell
    to about half the grid, and a field with a block of zeros and a block of ones."""
    ndim = draw(st.integers(1, 3))
    top = (61, 29, 9)[ndim - 1]
    primes = [p for p in (2, 3, 5, 7, 11, 13, 29, 31, 61) if p <= top]
    dims = tuple(draw(st.one_of(st.integers(2, top), st.sampled_from(primes))) for _ in range(ndim))
    spacing = tuple(draw(st.sampled_from([0.5, 0.75, 1.0])) for _ in range(ndim))
    h = max(spacing)
    eps = draw(st.floats(h, max(h, 0.5 * max((n - 1) * s for n, s in zip(dims, spacing)))))
    cls, comp_shape = draw(st.sampled_from(
        [(vx.ScalarField, ()), (vx.VectorField, (ndim,)), (vx.SymTensorField, (ndim * (ndim + 1) // 2,))]
    ))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=dims + comp_shape)
    for fill in (0.0, 1.0):
        box = tuple(slice(*sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))) for n in dims)
        values[box] = fill
    return cls(vx.Grid(dims, spacing, (0.0,) * ndim), values), eps


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_convolve_cases())
def test_convolve_matches_direct_sum_with_exact_zeros_and_ones(case):
    f, eps = case
    g = f.grid
    vals = f.values
    w = MollifierFamily(g.ndim).sampled_weights(g.spacing, eps)
    out = convolve(f, eps).values
    ref = ndimage.convolve(vals, w.reshape(w.shape + (1,) * (vals.ndim - g.ndim)), mode="constant")
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(vals).max() * np.abs(w).sum()

    # windows by direct sums of integer indicators; off-grid nodes are zeros
    footprint = (w != 0.0).astype(float)
    per_node = vals.reshape(g.dims + (-1,))
    sees_nonzero = ndimage.convolve(per_node.any(axis=-1).astype(float), footprint, mode="constant")
    sees_not_one = ndimage.convolve((per_node != 1.0).any(axis=-1).astype(float), footprint,
                                    mode="constant", cval=1.0)
    assert np.all(out[sees_nonzero == 0.0] == 0.0)
    assert np.all(out[sees_not_one == 0.0] == 1.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_convolve_and_maximal_refuse_non_finite_input_by_name(bad):
    grid = vx.grid_on_box([-1, -1], [1, 1], [16, 16])
    f = vx.ScalarField(grid, np.ones(grid.dims))
    with pytest.raises(ValueError, match="mollifier scale eps must be finite and > 0"):
        convolve(f, bad)
    with pytest.raises(ValueError, match="mollifier scale eps must be finite and > 0"):
        MollifierFamily(2).sampled_weights(grid.spacing, bad)
    vals = np.ones(grid.dims)
    vals[3, 5] = bad
    for g in (vx.ScalarField(grid, vals), vx.ScalarField(grid, np.full(grid.dims, bad)),
              vx.VectorField(grid, np.stack([np.ones(grid.dims), vals], axis=-1))):
        with pytest.raises(ValueError, match="field has non-finite values"):
            convolve(g, 0.3)
        with pytest.raises(ValueError, match="field has non-finite values"):
            maximal(g)


def test_maximal_constant_exact():
    # at 128 nodes per axis the ladder pads to 9 shapes, from 135 to 256 nodes
    for cells in (32, 128):
        grid = vx.grid_on_box([0, 0], [1, 1], [cells, cells])
        f = vx.ScalarField(grid, np.full(grid.dims, 2.5))
        np.testing.assert_allclose(maximal(f).values, 2.5, rtol=0.0, atol=1e-13)


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
        # a 49-node axis, where float offsets k*(1 + 2^-52) would drop every rim node
        ([0, 0], [1, 1], [7, 49]),
        # unequal spacings: the ladder pads to 10 shapes, each axis reaching its own distance
        ([0, 0], [1, 0.6], [40, 31]),
        ([0, 0, 0], [0.5, 1, 0.7], [7, 12, 10]),
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


def test_zero_extend_admits_only_spacings_grid_equality_admits():
    # a 5e-9 spacing gap would move the copy's modular by 3.2e-8: extension is
    # modular-exact only on the spacings that `Grid ==` calls equal
    grid = vx.Grid((8, 8), (0.1, 0.1), (0.0, 0.0))
    ones = vx.ScalarField(grid, np.ones(grid.dims))
    drifted = vx.Grid((12, 12), (0.1 + 5e-9, 0.1), (-0.2, -0.2))
    assert vx.Grid(grid.dims, drifted.spacing, grid.origin) != grid
    with pytest.raises(ValueError, match="spacing differs"):
        zero_extend(ones, drifted)
    # a last-ulp gap is the same spacing, and extension stays exact
    near = vx.Grid((12, 12), (0.1 * (1 + 2e-16), 0.1), (-0.2, -0.2))
    assert vx.Grid(grid.dims, near.spacing, grid.origin) == grid
    big = zero_extend(ones, near)
    assert np.array_equal(restrict(big, grid).values, ones.values) and big.values.sum() == 64.0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.125])
def test_smoothing_refuses_a_bad_scale_by_name(bad):
    dom, st = spacetime_setup(16, 8)
    u = bump_spacetime_field(st)
    for op in (smooth_R, smooth_Rstar, sym_grad_smooth_decomposition):
        with pytest.raises(ValueError, match="smoothing scale h must be finite and > 0"):
            op(u, dom, bad)
    with pytest.raises(ValueError, match="smoothing scale h must be finite and > 0"):
        CutoffFamily(dom, bad)


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
    lhs = vx.holder_pairing(restrict(smooth_Rstar(u, dom, h), st), v, domain=dom)
    rhs = vx.holder_pairing(u, restrict(smooth_R(v, dom, h), st), domain=dom)
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


# -- smoothing without the extended copies ----------------------------------
#
# The smoothing operators no longer build the zero-extension in time or the
# cutoff product; these are the operators as they were, built from them.


def _extended_setup(u, domain, h):
    h_eff = mollify._snap_scale(h, domain)
    cutoff = CutoffFamily(domain, h_eff)
    kt = int(np.ceil(h_eff / u.grid.spacing[0] - 1e-12))
    return h_eff, cutoff, zero_extend(u, u.grid.extended(0, kt, kt))


def _times_eta(f, eta):
    shape = eta.shape + (1,) * (f.values.ndim - 1 - eta.ndim)
    return type(f)(f.grid, f.values * eta.reshape((1,) + shape))


def _extended_R(u, domain, h):
    h_eff, cutoff, fu = _extended_setup(u, domain, h)
    return convolve(_times_eta(fu, cutoff.eta.values), h_eff)


def _extended_Rstar(u, domain, h):
    h_eff, cutoff, fu = _extended_setup(u, domain, h)
    return _times_eta(convolve(fu, h_eff), cutoff.eta.values)


def _extended_decomposition(u, domain, h):
    h_eff, cutoff, fu = _extended_setup(u, domain, h)
    termA = convolve(_times_eta(zero_extend(sym_gradient(u, domain), fu.grid), cutoff.eta.values), h_eff)
    outer = fu.values[..., :, None] * cutoff.grad_eta().values[np.newaxis, ..., None, :]
    return termA, convolve(vx.SymTensorField(fu.grid, _sym_part(outer)), h_eff)


def _smoothing_case(name):
    """(space-time grid, (domain, smoothing scale) pairs) on the bench's and criteria 5's and 6's grids."""
    if name in ("bench", "criterion05"):
        spatial = vx.grid_on_box([0.0, 0.0], [1.0, 1.0], [48, 48])
        box = vx.make_rectangle_domain([-0.05, -0.05], [1.05, 1.05], spatial)
        disc = vx.make_disc_domain((0.55, 0.45), 0.38, spatial)
        st = vx.Grid((24,) + spatial.dims, (1 / 24,) + spatial.spacing, (0.5 / 24,) + spatial.origin)
        cells = max(spatial.spacing)
        if name == "criterion05":
            return st, [(box, 0.125)]
        return st, [(box, 2 * cells), (box, 4 * cells), (box, 8 * cells), (disc, 4 * cells)]
    if name == "criterion05-1d":
        spatial = vx.grid_on_box([0.0], [2.0], [256])
        st = vx.Grid((128,) + spatial.dims, (1 / 128,) + spatial.spacing, (0.5 / 128,) + spatial.origin)
        box = vx.make_rectangle_domain([-0.01], [2.01], spatial)
        return st, [(box, 2.0**-2), (box, 2.0**-6)]
    res = {"criterion06-40": 40, "criterion06-80": 80}[name]
    spatial = vx.grid_on_box([-2.2, -2.2], [2.2, 2.2], [res, res])
    disc = vx.make_disc_domain((0, 0), 2.0, spatial) if res == 40 else vx.make_disc_domain((0.4, -0.3), 1.5, spatial)
    st = vx.Grid((16,) + spatial.dims, (1 / 16,) + spatial.spacing, (1 / 32,) + spatial.origin)
    return st, [(disc, 3 * 4.4 / 40)]


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("threads", ["1", None])
@pytest.mark.parametrize("name", ["bench", "criterion05", "criterion05-1d", "criterion06-40", "criterion06-80"])
def test_smoothing_equals_the_extended_path_bit_for_bit(name, threads, monkeypatch):
    if threads is None:
        monkeypatch.delenv("VAREXP_THREADS", raising=False)
    else:
        monkeypatch.setenv("VAREXP_THREADS", threads)
    st, cases = _smoothing_case(name)
    rng = np.random.default_rng(32)
    d = st.ndim - 1
    bump = np.sin(np.pi * (st.axis_coords(0) + 0.1))[(...,) + (None,) * d] * np.prod(
        np.meshgrid(*[np.clip(1 - (2 * ax - ax[0] - ax[-1]) ** 2 / (ax[-1] - ax[0]) ** 2, 0, 1) ** 3
                      for ax in (st.axis_coords(a) for a in range(1, st.ndim))], indexing="ij"), axis=0)
    fields = [
        # zero near the boundary and at the time ends
        vx.VectorField(st, bump[..., None] * (1.0 + np.arange(d))),
        # no node is 0 or 1: only the time extension's rows are zero levels
        vx.VectorField(st, rng.normal(size=st.dims + (d,))),
        vx.ScalarField(st, rng.normal(size=st.dims)),
        # nodes of all ones, where the cutoff's plateau leaves eta * u = 1
        vx.VectorField(st, np.where(rng.random(st.dims + (d,)) < 0.2, 0.0, 1.0)),
    ]
    assert not np.any(fields[1].values == 0.0) and not np.any(fields[2].values == 1.0)
    for dom, h in cases:
        for u in fields:
            pairs = [(smooth_R(u, dom, h), _extended_R(u, dom, h)),
                     (smooth_Rstar(u, dom, h), _extended_Rstar(u, dom, h))]
            if isinstance(u, vx.VectorField):
                pairs += zip(sym_grad_smooth_decomposition(u, dom, h), _extended_decomposition(u, dom, h))
            for new, old in pairs:
                assert type(new) is type(old) and new.grid == old.grid
                assert _bitwise_equal(new.values, old.values), (dom.kind, h, type(u).__name__)


def test_padded_transform_places_data_at_a_time_offset():
    # the spectrum of data placed `lead` rows in is the spectrum of the data zero-extended by `lead` rows
    rng = np.random.default_rng(33)
    a = rng.normal(size=(7, 9, 5))
    pad = mollify._PaddedFFT((13, 9, 5), (4, 2, 1))
    ext = np.zeros((13, 9, 5))
    ext[3:10] = a
    want = np.fft.rfftn(ext, pad.shape, axes=(0, 1, 2)).view(float)
    # whatever the buffer held before, only the transform is left in it
    got = np.full(pad.half, np.nan, complex)
    assert _bitwise_equal(pad.rfft(a, got, 3).view(float), want)
    assert _bitwise_equal(pad.rfft(ext, got).view(float), want)


# -- the worker lane ---------------------------------------------------------

#: tolerance of <R* u, v> = <u, R v> relative to <|u|, |R v|>, as in the bench
ADJOINT_RTOL = 1e-12


class _CountingLane(ThreadPoolExecutor):
    """A one-thread worker lane that counts what it is handed."""

    def __init__(self):
        super().__init__(1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture(scope="module")
def counting_lane():
    lane = _CountingLane()
    yield lane
    lane.shutdown()


def _lane_case(name):
    """(field, mollifier scales) of one lane test case."""
    rng = np.random.default_rng(29)
    if name == "disc128":
        grid = vx.grid_on_box([-3, -3], [3, 3], [128, 128])
        disc = vx.make_disc_domain((0.0, 0.0), 2.5, grid)
        return vx.ScalarField(grid, rng.normal(size=grid.dims) * disc.mask), (1, 4, 16)
    if name == "spacetime":
        grid = vx.Grid((26, 48, 48), (1 / 24, 1 / 48, 1 / 48), (0.0, 0.0, 0.0))
        vals = rng.normal(size=grid.dims + (2,))
        vals[:3] = 0.0
        vals[-3:] = 1.0
        return vx.VectorField(grid, vals), (2, 8)
    dims, hi = {
        "rect40x31": ((40, 31), [1, 0.6]),
        "grid7x12x10": ((7, 12, 10), [0.5, 1, 0.7]),
        "grid16x24x24": ((16, 24, 24), [1, 1, 1]),
        "wide_kernel": ((5, 7), [1, 1.5]),
        "zeros": ((33, 20), [1, 1]),
        "ones": ((33, 20), [1, 1]),
    }[name]
    grid = vx.grid_on_box([0] * len(dims), hi, list(dims))
    vals = {"zeros": np.zeros, "ones": np.ones}.get(name, lambda shape: rng.normal(size=shape))(grid.dims)
    # the wide kernel reaches 12 nodes past each side of the 5 x 7 grid
    return vx.ScalarField(grid, vals), ((1, 12) if name == "wide_kernel" else (1, 3))


@pytest.mark.parametrize(
    "name",
    ["disc128", "rect40x31", "grid7x12x10", "grid16x24x24", "spacetime", "wide_kernel", "zeros", "ones"],
)
def test_worker_lane_gives_the_serial_arrays_bit_for_bit(name, counting_lane, monkeypatch):
    f, scales = _lane_case(name)
    h = max(f.grid.spacing)

    def run():
        return [maximal(f).values] + [convolve(f, k * h).values for k in scales]

    monkeypatch.setattr(mollify, "_lane", lambda: None)
    serial = run()
    monkeypatch.setattr(mollify, "_lane", lambda: counting_lane)
    before = counting_lane.submitted
    laned = run()
    # maximal hands one share of its rungs to the worker; above the size
    # gate each convolve hands over its window sum
    assert counting_lane.submitted - before == 1 + (len(scales) if name == "spacetime" else 0)
    for a, b in zip(serial, laned):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("threads", ["0", "abc", "", "-1", "1.5"])
def test_bad_thread_count_is_refused(threads, monkeypatch):
    # maximal asks for the worker lane here, and the lane reads VAREXP_THREADS at each call
    f, _ = _lane_case("rect40x31")
    monkeypatch.setenv("VAREXP_THREADS", threads)
    refusal = f"VAREXP_THREADS must be a positive integer, got {threads!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        maximal(f)
    monkeypatch.setenv("VAREXP_THREADS", "1")
    assert mollify._lane() is None


def test_small_convolve_stays_on_the_calling_thread(counting_lane, monkeypatch):
    # a 96^2 transform is below the gate at every scale the CLI uses
    grid = vx.grid_on_box([0, 0], [1, 1], [96, 96])
    f = vx.ScalarField(grid, np.random.default_rng(30).normal(size=grid.dims))
    monkeypatch.setattr(mollify, "_lane", lambda: counting_lane)
    before = counting_lane.submitted
    for k in (1, 4, 16):
        convolve(f, k * grid.spacing[0])
    assert counting_lane.submitted == before


@st.composite
def _adjoint_cases(draw):
    """A small space-time grid over the unit square, a smoothing scale of 1-3 cells and
    1-3 time steps, and a seed for two fields."""
    cells = draw(st.integers(6, 14))
    t_nodes = draw(st.integers(2, 10))
    h_cells = draw(st.integers(1, 3))
    h_steps = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return cells, t_nodes, h_cells, h_steps, seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_adjoint_cases())
def test_smoothing_adjointness_through_the_worker_lane(case, counting_lane):
    cells, t_nodes, h_cells, h_steps, seed = case
    spatial = vx.grid_on_box([0.0, 0.0], [1.0, 1.0], [cells, cells])
    dom = vx.make_rectangle_domain([-0.05, -0.05], [1.05, 1.05], spatial)
    h = h_cells * max(spatial.spacing)
    tau = h / h_steps
    grid = vx.Grid((t_nodes,) + spatial.dims, (tau,) + spatial.spacing, (0.5 * tau,) + spatial.origin)
    rng = np.random.default_rng(seed)
    u, v = (vx.VectorField(grid, rng.normal(size=grid.dims + (2,))) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        # every convolution of these small grids hands its window sum over
        mp.setattr(mollify, "_lane", lambda: counting_lane)
        mp.setattr(mollify, "_LANE_MIN_NODES", 0)
        before = counting_lane.submitted
        star_u = restrict(smooth_Rstar(u, dom, h), grid)
        r_v = restrict(smooth_R(v, dom, h), grid)
        assert counting_lane.submitted - before >= 2
    lhs = vx.holder_pairing(star_u, v, domain=dom)
    rhs = vx.holder_pairing(u, r_v, domain=dom)
    size = vx.integrate(vx.ScalarField(grid, np.sum(np.abs(u.values * r_v.values), axis=-1)), dom)
    assert abs(lhs - rhs) <= ADJOINT_RTOL * size
