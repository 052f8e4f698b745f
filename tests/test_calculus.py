import numpy as np
import pytest

import varexp as vx
from varexp.calculus import axis_derivative, divergence, gradient, korn_steady_check, sym_gradient


def square(res=48):
    grid = vx.grid_on_box([0, 0], [1, 1], [res, res])
    return grid, vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)


def interior(dom, cells=2):
    inner = dom.mask.copy()
    for _ in range(cells):
        d = vx.Domain(dom.grid, inner, np.where(inner, 1.0, 0.0), dom.kind)
        inner = d.interior_mask()
    return inner


def test_axis_derivative_stencil_rule():
    # row 0 along axis 1: forward, central, central, backward, an outside
    # node carrying a value that must not be read, and an isolated node;
    # row 1 lies wholly inside.  h = 0.5 keeps every result exact.
    h = 0.5
    mask = np.array([[1, 1, 1, 1, 0, 1], [1, 1, 1, 1, 1, 1]], dtype=bool)
    v = np.array([[1.0, 2.0, 4.0, 7.0, 1000.0, -3.0], [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]])
    inside_row = [2.0, 4.0, 8.0, 12.0, 16.0, 18.0]
    assert np.array_equal(
        axis_derivative(v, 1, h, mask), [[2.0, 3.0, 5.0, 6.0, 0.0, 0.0], inside_row]
    )
    assert np.array_equal(
        axis_derivative(v, 1, h), [[2.0, 3.0, 5.0, 996.0, -10.0, -2006.0], inside_row]
    )
    # along axis 0 each column has two nodes: forward above, backward below;
    # column 4 has one outside node and one with no masked neighbor
    step = [-2.0, -2.0, 0.0, 4.0, 0.0, 56.0]
    assert np.array_equal(axis_derivative(v, 0, h, mask), [step, step])
    step[4] = -1968.0
    assert np.array_equal(axis_derivative(v, 0, h), [step, step])
    # a spatial mask under a leading time axis acts slice by slice
    vt = np.stack([v, 2.0 * v, -v])
    assert np.array_equal(
        axis_derivative(vt, 2, h, mask), np.stack([axis_derivative(s, 1, h, mask) for s in vt])
    )


def test_spacetime_gradient_equals_slicewise():
    grid = vx.grid_on_box([-1, -1], [1, 1], [20, 20])
    dom = vx.make_disc_domain((0.1, 0.0), 0.8, grid)
    st = vx.Grid((5,) + grid.dims, (0.2,) + grid.spacing, (0.1,) + grid.origin)
    vals = np.random.default_rng(3).normal(size=st.dims + (2,)) * dom.mask[None, ..., None]
    u = vx.VectorField(st, vals)
    for domain in (dom, None):
        G = gradient(u, domain).values
        slices = [gradient(vx.VectorField(grid, vals[k]), domain).values for k in range(5)]
        assert np.array_equal(G, np.stack(slices))


def test_gradient_exact_on_affine():
    grid, dom = square()
    A = np.array([[1.3, -0.4], [2.0, 0.7]])
    xx = grid.coords()
    u = vx.VectorField(grid, np.stack([A[0, 0] * xx[0] + A[0, 1] * xx[1],
                                       A[1, 0] * xx[0] + A[1, 1] * xx[1]], axis=-1))
    G = gradient(u, dom).values
    inner = interior(dom)
    for i in range(2):
        for j in range(2):
            assert np.allclose(G[inner][:, i, j], A[i, j], atol=1e-11)


def test_gradient_constant_field():
    grid, dom = square(24)
    u = vx.VectorField(grid, np.ones(grid.dims + (2,)))
    assert np.allclose(gradient(u, dom).values[dom.mask], 0.0, atol=1e-13)


def test_gradient_quadratic_single_variable():
    # central differences are exact on x2^2
    grid, dom = square()
    xx = grid.coords()
    u = vx.VectorField(grid, np.stack([xx[1] ** 2, np.zeros(grid.dims)], axis=-1))
    G = gradient(u, dom).values
    inner = interior(dom)
    assert np.allclose(G[..., 0, 1][inner], 2 * xx[1][inner], atol=1e-11)
    assert np.allclose(G[..., 0, 0][inner], 0.0, atol=1e-11)


def test_sym_gradient_skew_rotation():
    grid, dom = square()
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    xx = grid.coords()
    u = vx.VectorField(grid, np.stack([-xx[1], xx[0]], axis=-1))
    eps = sym_gradient(u, dom).values
    inner = interior(dom)
    assert np.abs(eps[inner]).max() < 1e-11
    G = gradient(u, dom).values
    assert np.allclose(G[inner], A, atol=1e-11)


def test_sym_gradient_identity_and_shear():
    grid, dom = square()
    xx = grid.coords()
    inner = interior(dom)
    u_id = vx.VectorField(grid, np.stack([xx[0], xx[1]], axis=-1))
    eps = sym_gradient(u_id, dom).values
    assert np.allclose(eps[inner][:, :2], 1.0, atol=1e-11)
    assert np.allclose(eps[inner][:, 2], 0.0, atol=1e-11)
    u_sh = vx.VectorField(grid, np.stack([xx[1], np.zeros(grid.dims)], axis=-1))
    eps = sym_gradient(u_sh, dom).values
    assert np.allclose(eps[inner][:, 2], 0.5, atol=1e-11)
    assert np.allclose(eps[inner][:, :2], 0.0, atol=1e-11)


def test_divergence_trivial_cases():
    grid, dom = square(24)
    inner = interior(dom)
    T = vx.SymTensorField(grid, np.broadcast_to([1.0, -2.0, 0.5], grid.dims + (3,)).copy())
    assert np.abs(divergence(T, dom).values[inner]).max() < 1e-12
    xx = grid.coords()
    u_id = vx.VectorField(grid, np.stack([xx[0], xx[1]], axis=-1))
    T2 = sym_gradient(u_id, dom)
    assert np.abs(divergence(T2, dom).values[inner]).max() < 1e-10


def test_divergence_adjoint_to_sym_gradient():
    rng = np.random.default_rng(5)
    grid, dom = square(32)
    T = vx.SymTensorField(grid, rng.normal(size=grid.dims + (3,)))
    # phi compactly supported: zero within three cells of the boundary
    varphi = rng.normal(size=grid.dims + (2,))
    pad = interior(dom, 3)
    varphi[~pad] = 0.0
    phi = vx.VectorField(grid, varphi)
    lhs = vx.holder_pairing(divergence(T, dom), phi, domain=dom)
    rhs = -vx.holder_pairing(T, sym_gradient(phi, dom), domain=dom)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-12  # summation by parts is exact here


def test_trace_of_eps_is_divergence_of_u():
    rng = np.random.default_rng(6)
    grid, dom = square(24)
    u = vx.VectorField(grid, rng.normal(size=grid.dims + (2,)))
    eps = sym_gradient(u, dom).values
    G = gradient(u, dom).values
    trace = eps[..., 0] + eps[..., 1]
    div_u = G[..., 0, 0] + G[..., 1, 1]
    assert np.array_equal(trace, div_u)


def test_product_rule_second_order():
    # eps(eta v) - eta eps(v) - [v (x) grad eta]^sym = O(spacing^2)
    def residual(res):
        grid, dom = square(res)
        xx = grid.coords()
        eta = np.sin(np.pi * xx[0]) * np.cos(0.5 * np.pi * xx[1])
        v = np.stack([np.sin(2 * xx[0] + xx[1]), np.cos(xx[0] - xx[1])], axis=-1)
        u = vx.VectorField(grid, eta[..., None] * v)
        eps_u = sym_gradient(u, dom).values
        eps_v = sym_gradient(vx.VectorField(grid, v), dom).values
        ge = gradient(vx.VectorField(grid, np.stack([eta, eta], axis=-1)), dom).values[..., 0, :]
        outer = np.stack(
            [v[..., 0] * ge[..., 0], v[..., 1] * ge[..., 1],
             0.5 * (v[..., 0] * ge[..., 1] + v[..., 1] * ge[..., 0])],
            axis=-1,
        )
        diff = eps_u - eta[..., None] * eps_v - outer
        return np.abs(diff[interior(dom)]).max()

    r1, r2 = residual(32), residual(64)
    assert 3.0 <= r1 / r2 <= 5.0


def test_eps_norm_below_gradient_norm():
    rng = np.random.default_rng(7)
    grid, dom = square(32)
    p = vx.ExponentField(vx.ScalarField(grid, 1.5 + grid.coords()[0]))
    for _ in range(5):
        u = vx.VectorField(grid, rng.normal(size=grid.dims + (2,)))
        ge = vx.field_abs(gradient(u, dom))
        ee = vx.field_abs(sym_gradient(u, dom))
        assert np.all(ee.values <= ge.values + 1e-12)
        assert vx.luxembourg_norm(ee, p, dom) <= vx.luxembourg_norm(ge, p, dom) * (1 + 1e-7)


def test_korn_steady_flags_rigid_motion():
    grid, dom = square()
    xx = grid.coords()
    p = vx.constant_exponent(grid, 1.5)
    rot = vx.VectorField(grid, np.stack([-xx[1] + 0.5, xx[0] - 0.5], axis=-1))
    rep = korn_steady_check(rot, p, dom)
    assert rep.flagged and np.isinf(rep.ratio)


def test_korn_steady_identity_field():
    grid, dom = square()
    xx = grid.coords()
    p = vx.constant_exponent(grid, 1.5)
    u = vx.VectorField(grid, np.stack([xx[0], xx[1]], axis=-1))
    rep = korn_steady_check(u, p, dom)
    assert not rep.flagged
    assert rep.ratio == pytest.approx(1.0, rel=1e-2)


def test_three_dimensional_stencils():
    # the stencil machinery is dimension-generic: affine exactness in 3-d
    grid = vx.grid_on_box([0, 0, 0], [1, 1, 1], [12, 12, 12])
    dom = vx.make_rectangle_domain([-0.1] * 3, [1.1] * 3, grid)
    rng = np.random.default_rng(12)
    A = rng.normal(size=(3, 3))
    xx = grid.coords()
    u = vx.VectorField(
        grid, np.stack([sum(A[i, j] * xx[j] for j in range(3)) for i in range(3)], axis=-1)
    )
    inner = interior(dom)
    G = gradient(u, dom).values
    assert np.allclose(G[inner], A, atol=1e-11)
    eps = sym_gradient(u, dom)
    sym = 0.5 * (A + A.T)
    full = eps.to_full().values
    assert np.allclose(full[inner], sym, atol=1e-11)
    # row-wise divergence of the constant symmetric part vanishes
    assert np.abs(divergence(eps, dom).values[interior(dom, 3)]).max() < 1e-9


def _grad_sym_case(name):
    """(u, domain): a 2-d disc, a space-time grid over a disc, a 3-d box, and a grid with no domain."""
    rng = np.random.default_rng(33)
    grid = vx.grid_on_box([-1, -1], [1, 1], [24, 24])
    disc = vx.make_disc_domain((0.1, 0.0), 0.8, grid)
    if name == "disc":
        return vx.VectorField(grid, rng.normal(size=grid.dims + (2,))), disc
    if name == "spacetime":
        st = vx.Grid((5,) + grid.dims, (0.2,) + grid.spacing, (0.1,) + grid.origin)
        return vx.VectorField(st, rng.normal(size=st.dims + (2,))), disc
    if name == "box3d":
        g3 = vx.grid_on_box([0, 0, 0], [1, 1, 1], [10, 11, 12])
        box = vx.make_rectangle_domain([0.15] * 3, [0.85] * 3, g3)
        return vx.VectorField(g3, rng.normal(size=g3.dims + (3,))), box
    return vx.VectorField(grid, rng.normal(size=grid.dims + (2,))), None


@pytest.mark.parametrize("name", ["disc", "spacetime", "box3d", "none"])
def test_grad_sym_is_gradient_and_sym_gradient_bitwise(name):
    from varexp.calculus import _grad_sym
    from varexp.fields import sym_pairs

    u, dom = _grad_sym_case(name)
    vals = u.values.copy()
    vals[np.random.default_rng(1).random(vals.shape) < 0.2] = -0.0  # signed zeros must survive
    u = vx.VectorField(u.grid, vals)
    grad, eps = _grad_sym(u, dom)
    for got, want in ((grad, gradient(u, dom)), (eps, sym_gradient(u, dom))):
        assert type(got) is type(want) and got.grid is u.grid
        assert got.values.tobytes() == want.values.tobytes()
    # eps(u) written out from a gradient pass of its own: G_ii, then (G_ij + G_ji)/2
    G = gradient(u, dom).values
    pairs = sym_pairs(u.ncomp)
    want = np.stack([G[..., i, j] if i == j else 0.5 * (G[..., i, j] + G[..., j, i]) for i, j in pairs], axis=-1)
    assert eps.values.tobytes() == want.tobytes()


def test_korn_steady_check_makes_one_gradient_pass(monkeypatch):
    from varexp import calculus

    grid, dom = square(24)
    xx = grid.coords()
    u = vx.VectorField(grid, np.stack([xx[0] * xx[1], -xx[0] ** 2], axis=-1))
    want = korn_steady_check(u, vx.constant_exponent(grid, 1.5), dom)
    axes = []
    derivative = calculus._derivative
    monkeypatch.setattr(calculus, "_derivative", lambda *args: axes.append(args[3]) or derivative(*args))
    assert korn_steady_check(u, vx.constant_exponent(grid, 1.5), dom) == want
    assert axes == [0, 1]  # d/dx_0 and d/dx_1 once each: grad u and eps(u) share them


def test_korn_steady_bounded_on_bump_corpus():
    from varexp.rothe import mms_bump

    grid, dom = square(48)
    xx = grid.coords()
    p = vx.constant_exponent(grid, 1.5)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(12):
        c = rng.uniform(0.3, 0.7, size=2)
        w = rng.uniform(0.15, 0.25)
        bump = mms_bump((xx[0] - c[0]) / (2 * w) + 0.5) * mms_bump((xx[1] - c[1]) / (2 * w) + 0.5)
        coeff = rng.normal(size=(2, 2))
        u = vx.VectorField(
            grid,
            np.stack(
                [bump * (coeff[0, 0] + coeff[0, 1] * xx[1]),
                 bump * (coeff[1, 0] + coeff[1, 1] * xx[0])],
                axis=-1,
            ),
        )
        rep = korn_steady_check(u, p, dom)
        if not rep.flagged:
            worst = max(worst, rep.ratio)
    assert 0.0 < worst <= 10.0


def _csr_axis_operator(mask, axis, h):
    """The stencil as a sparse matrix, rows summed by scipy's CSR product (the oracle)."""
    from scipy import sparse

    idx = np.arange(mask.size).reshape(mask.shape)
    up_ok = np.zeros_like(mask)
    dn_ok = np.zeros_like(mask)
    lo, hi = [slice(None)] * mask.ndim, [slice(None)] * mask.ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    up_ok[tuple(lo)] = mask[tuple(hi)]
    dn_ok[tuple(hi)] = mask[tuple(lo)]
    up, dn = np.roll(idx, -1, axis=axis), np.roll(idx, 1, axis=axis)
    central, fwd, bwd = mask & up_ok & dn_ok, mask & up_ok & ~dn_ok, mask & ~up_ok & dn_ok
    terms = [(central, up, 0.5 / h), (central, dn, -0.5 / h), (fwd, up, 1.0 / h),
             (fwd, idx, -1.0 / h), (bwd, idx, 1.0 / h), (bwd, dn, -1.0 / h)]
    rows = np.concatenate([idx[sel] for sel, _, _ in terms])
    cols = np.concatenate([col[sel] for sel, col, _ in terms])
    vals = np.concatenate([np.full(np.count_nonzero(sel), c) for sel, _, c in terms])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(mask.size, mask.size)).tocsr()


def _parity_masks():
    g = vx.grid_on_box([-1, -1], [1, 1], [128, 128])
    yield vx.make_disc_domain((0, 0), 0.9, g).mask, g.spacing
    g = vx.grid_on_box([0, 0], [1.5, 1], [97, 61])
    yield vx.make_disc_domain((0.75, 0.5), 0.45, g).mask, g.spacing
    box = np.ones((40, 40, 40), dtype=bool)
    box[[0, -1], :, :] = box[:, [0, -1], :] = box[:, :, [0, -1]] = False
    box[14:26, 12:22, 17:29] = False
    yield box, (0.025, 0.03, 0.02)


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("time_nodes", [None, 7])
def test_slicing_stencil_matches_sparse_product_bitwise(case, time_nodes):
    from varexp.calculus import _derivative

    mask, spacing = list(_parity_masks())[case]
    rng = np.random.default_rng(case)
    lead = () if time_nodes is None else (time_nodes,)
    for comps in ((), (2,)):
        v = rng.normal(size=lead + mask.shape + comps)
        # signed zeros and an exact zero difference, which the sum must not turn into -0.0
        v[rng.random(v.shape) < 0.3] = -0.0
        v[rng.random(v.shape) < 0.05] = 0.0
        n = mask.size
        cols = v.reshape(-1 if lead else 1, n, *comps or (1,)).transpose(1, 0, 2).reshape(n, -1)
        for ax, h in enumerate(spacing):
            A = _csr_axis_operator(mask, ax, h)
            want = (A @ cols).reshape(n, -1, *comps or (1,)).transpose(1, 0, 2).reshape(v.shape)
            got = _derivative(v, len(lead), mask, ax, h)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(3))
def test_eps_operator_is_the_stencil_matrix_bitwise(case):
    """The solver's B is the oracle's matrices at masked rows and free columns, bit for bit."""
    from scipy import sparse

    from varexp.fields import sym_pairs
    from varexp.rothe import EpsOperator

    mask, spacing = list(_parity_masks())[case]
    d = mask.ndim
    dom = vx.Domain(vx.Grid(mask.shape, spacing, (0.0,) * d), mask, np.zeros(mask.shape), "parity")
    rows, cols = np.flatnonzero(mask), np.flatnonzero(dom.interior_mask())
    D = [_csr_axis_operator(mask, ax, h)[rows][:, cols] for ax, h in enumerate(spacing)]
    # the block row of component (i, j) = 0.5 (d_j u_i + d_i u_j) holds 0.5 D[j] at column i, 0.5 D[i] at j
    blocks = []
    for i, j in sym_pairs(d):
        blocks.append([None] * d)
        if i == j:
            blocks[-1][i] = D[i]
        else:
            blocks[-1][i], blocks[-1][j] = 0.5 * D[j], 0.5 * D[i]
    want = sparse.bmat(blocks, format="csr")
    got = EpsOperator(dom).B
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
