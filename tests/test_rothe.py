import dataclasses
import logging
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import cg

import varexp as vx
from varexp.fields import _magnitude
from varexp.rothe import (
    ConstitutiveLaw,
    EpsOperator,
    LowerOrderLaw,
    ProblemData,
    RotheStepError,
    critical_growth_bound,
    discrete_ibp_check,
    energy_inequality_report,
    energy_step,
    flux_factor,
    flux_potential,
    mms_bump,
    mms_forcing_discrete,
    mms_solution_p2,
    mms_time_derivative_p2,
    mms_varp,
    rothe_solve,
    write_diagnostics_csv,
    _Step,
    _descend,
    _tolerance,
)


def box_domain(n=16):
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [n, n])
    pad = 0.01 / n
    return vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)


def spacetime(g, T, K):
    return vx.Grid((K + 1,) + g.dims, (T / K,) + g.spacing, (0.0,) + g.origin)


def max_l2_err(traj, u_star, dom):
    vol = dom.grid.cell_volume
    return max(
        float(np.sqrt(np.sum(np.where(dom.mask[..., None], u.values - u_star.values[k], 0.0) ** 2) * vol))
        for k, u in enumerate(traj)
    )


# -- constitutive structure --------------------------------------------------


def test_flux_potential_derivative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(1.2, 3.5)
        delta = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.05, 4.0)
        eps = 1e-6
        fd = (flux_potential(s + eps, p, delta) - flux_potential(s - eps, p, delta)) / (2 * eps)
        assert fd == pytest.approx(flux_factor(np.array([s]), p, delta)[0] * s, rel=1e-6)
    assert flux_potential(np.array([0.0]), 1.5, 0.0)[0] == 0.0
    # p = 2, delta = 0 reduces to s^2/2
    assert flux_potential(np.array([1.7]), 2.0, 0.0)[0] == pytest.approx(1.7**2 / 2)


def test_constitutive_conditions_random_tuples():
    rng = np.random.default_rng(1)
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [4, 4])
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.3)
    n = 10_000
    A = rng.normal(size=(n, 3)) * rng.uniform(0.1, 3.0, size=(n, 1))
    B = rng.normal(size=(n, 3))
    p = rng.uniform(1.05, 4.0, size=n)
    w = np.array([1.0, 1.0, 2.0])

    SA = law.flux(A, p, 2)
    magA = np.sqrt(np.sum(w * A**2, axis=-1))
    magSA = np.sqrt(np.sum(w * SA**2, axis=-1))
    growth = magSA - (law.alpha * (law.delta + magA) ** (p - 2.0) * magA + law.beta_offset)
    assert growth.max() <= 1e-10

    coer = np.sum(w * SA * A, axis=-1) - (
        law.c0 * (law.delta + magA) ** (p - 2.0) * magA**2 - law.c1_offset
    )
    assert coer.min() >= -1e-10

    SB = law.flux(B, p, 2)
    mono = np.sum(w * (SA - SB) * (A - B), axis=-1)
    assert mono.min() >= -1e-10


def test_lower_order_conditions():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5000, 2)) * rng.uniform(0.1, 5.0, size=(5000, 1))
    for low in (LowerOrderLaw.zero(), LowerOrderLaw.power(0.7, 1.3), LowerOrderLaw.damped(0.5, 1.2, 0.8)):
        b = low(a)
        mag = np.sqrt(np.sum(a**2, axis=-1))
        growth = np.sqrt(np.sum(b**2, axis=-1)) - low.gamma * (1 + mag) ** low.r
        assert growth.max() <= 1e-10
        sign = np.sum(b * a, axis=-1)
        assert sign.min() >= -low.c2 - 1e-10
    assert critical_growth_bound(2.0, 2) == pytest.approx(2.0)
    assert critical_growth_bound(1.7, 2) == pytest.approx((1.7 * 2) / (1.7 / 0.7))


def test_constitutive_laws_at_extreme_magnitudes():
    # |A|^2 and |a|^2 leave the float range here; the magnitudes must not
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [4, 4])
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.5))
    A = 1e200 * np.array([[1.0, 0.0, 0.0], [0.6, 0.0, 0.8 / np.sqrt(2.0)]])
    S = law.flux(A, np.full(2, 1.5), 2)
    magS = np.sqrt(np.sum(np.array([1.0, 1.0, 2.0]) * S**2, axis=-1))
    np.testing.assert_allclose(magS, 1e100, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(S, 1e-100 * A, rtol=1e-12, atol=0.0)

    low = LowerOrderLaw.power(1.0, 1.5)
    big = low(np.array([[1e200, 0.0], [6e199, 8e199]]))
    np.testing.assert_allclose(big, [[1e300, 0.0], [6e299, 8e299]], rtol=1e-12, atol=0.0)
    tiny = low(np.array([[1e-170, 0.0]]))
    np.testing.assert_allclose(tiny, [[1e-255, 0.0]], rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_damped_law_at_extreme_magnitudes():
    # kappa a / (1 + |a|^2) with |a|^2 out of the float range: no overflow
    low = LowerOrderLaw.damped(0.0, 1.2, 0.6)
    big = low(np.array([[1e200, 0.0], [0.0, -3e180]]))
    np.testing.assert_allclose(big, [[-0.6e-200, 0.0], [0.0, 0.2e-180]], rtol=1e-12, atol=0.0)
    tiny = low(np.array([[1e-310, 0.0]]))
    np.testing.assert_allclose(tiny, [[-0.6e-310, 0.0]], rtol=1e-12, atol=0.0)
    # at ordinary magnitudes the law is the plain formula, bit for bit
    a = np.random.default_rng(2).normal(size=(50, 3)) * np.logspace(-8, 8, 50)[:, None]
    plain = -0.6 * a / (1.0 + np.sum(a**2, axis=-1)[..., None])
    assert np.array_equal(low(a), plain)


def test_supercritical_lower_order_rejected():
    dom = box_domain(8)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.7), delta=0.1)
    low = LowerOrderLaw.power(1.0, 1.5)  # bound is 1.4 for p- = 1.7, d = 2
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.1, tau=0.05)
    with pytest.raises(ValueError, match="supercritical"):
        rothe_solve(data, law, low)


# -- operator and energy -----------------------------------------------------


def test_eps_operator_matches_stencil():
    from varexp.calculus import sym_gradient

    rng = np.random.default_rng(3)
    dom = box_domain(12)
    op = EpsOperator(dom)
    u_vals = np.zeros(dom.grid.dims + (2,))
    inner = dom.interior_mask()
    u_vals[inner] = rng.normal(size=(int(inner.sum()), 2))
    u = vx.VectorField(dom.grid, u_vals)
    eps_stencil = sym_gradient(u, dom).values.reshape(-1, 3)[op.masked_idx]
    eps_sparse = op.eps(op.to_free(u))
    assert np.allclose(eps_sparse, eps_stencil, atol=1e-13)
    # dot-product adjointness test
    x = rng.normal(size=op.n_free * 2)
    y = rng.normal(size=(op.n_masked, 3))
    lhs = np.sum(op.weights * op.eps(x) * y)
    rhs = np.dot(op.eps_adjoint(y), x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eps_operator_never_mixes_parities():
    # every stencil reaches from a node to its axis neighbours, so no row of B
    # couples free dofs of different parity of i + j
    grid = vx.grid_on_box([-1, -1], [1, 1], [40, 37])
    for dom in (box_domain(24), vx.make_disc_domain((0, 0), 0.8, grid)):
        op = EpsOperator(dom)
        i, j = np.unravel_index(op.free_idx, dom.grid.dims)
        odd = np.tile((i + j) % 2, op.d).astype(float)  # free dofs are component-major blocks
        S = (op.B != 0).astype(float)
        n_odd, n_all = S @ odd, S @ np.ones(S.shape[1])
        assert n_all.sum() > 0
        assert np.count_nonzero((n_odd > 0) & (n_odd < n_all)) == 0


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    dom = box_domain(10)
    g = dom.grid
    xx = g.coords()
    p = vx.ExponentField(vx.ScalarField(g, 1.4 + 0.8 * xx[0]))
    law = ConstitutiveLaw(exponent=p, delta=0.05)
    op = EpsOperator(dom)
    p_nodes = p.values.values.reshape(-1)[op.masked_idx]
    tau = 0.05
    x_prev = rng.normal(size=op.n_free * 2) * 0.3
    x0 = x_prev + 0.1 * rng.normal(size=x_prev.size)
    fk = rng.normal(size=op.n_free * 2)
    Fk = rng.normal(size=(op.n_masked, 3))
    b = rng.normal(size=op.n_free * 2) * 0.2
    step = _Step(op, x_prev, tau, p_nodes, law, fk, Fk, b)
    J0, grad = step.energy_grad(x0)

    for _ in range(20):
        v = rng.normal(size=x0.size)
        v /= np.linalg.norm(v)
        e = 1e-6
        Jp, _ = step.energy(x0 + e * v)
        Jm, _ = step.energy(x0 - e * v)
        fd = (Jp - Jm) / (2 * e)
        assert fd == pytest.approx(np.dot(grad, v), rel=1e-5, abs=1e-9)


def test_descent_energy_monotone(monkeypatch):
    from varexp import rothe

    rng = np.random.default_rng(5)
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.8), delta=0.05)
    op = EpsOperator(dom)
    p_nodes = np.full(op.n_masked, 1.8)
    x_prev = np.zeros(op.n_free * 2)
    fk = rng.normal(size=op.n_free * 2)
    trail = []
    real = rothe._Step.energy_grad

    def recorded(self, x):
        J, g = real(self, x)
        trail.append(J)
        return J, g

    monkeypatch.setattr(rothe._Step, "energy_grad", recorded)
    x, J, res, counts = _descend(_Step(op, x_prev, 0.05, p_nodes, law, fk), x_prev, 1e-10)
    assert res <= 1e-10
    assert len(trail) == counts["iters"] + 1  # the start, then every accepted iterate
    trail = np.asarray(trail)
    scale = np.abs(trail[0]) + 1.0
    assert np.all(np.diff(trail) <= 1e-12 * scale)  # nonincreasing up to roundoff


@pytest.mark.parametrize("delta", [1e-3, 0.05])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
def test_step_hessian_matches_finite_differences(p, delta):
    rng = np.random.default_rng(12)
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, p), delta=delta)
    op = EpsOperator(dom)
    p_nodes = np.full(op.n_masked, p)
    tau = 0.05
    x_prev = rng.normal(size=op.n_free * 2) * 0.3
    x0 = x_prev + 0.1 * rng.normal(size=x_prev.size)
    fk = rng.normal(size=op.n_free * 2)
    Fk = rng.normal(size=(op.n_masked, 3))
    b = rng.normal(size=op.n_free * 2) * 0.2
    step = _Step(op, x_prev, tau, p_nodes, law, fk, Fk, b)
    H = step.hessian(x0)

    for _ in range(10):
        v = rng.normal(size=x0.size)
        v /= np.linalg.norm(v)
        e = 1e-6
        _, gp = step.energy_grad(x0 + e * v)
        _, gm = step.energy_grad(x0 - e * v)
        fd = (gp - gm) / (2 * e)
        Hv = H @ v
        assert np.linalg.norm(fd - Hv) <= 1e-5 * np.linalg.norm(Hv)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.1, 2.0, 3.0])
def test_step_hessian_at_tiny_strains(p):
    # strains near 1e-170 and 1e-220 next to ordinary ones: s (delta + s) underflows there
    rng = np.random.default_rng(15)
    dom = box_domain(16)
    g = dom.grid
    op = EpsOperator(dom)
    delta = 1e-8 if p < 2.0 else 0.0  # the solver's regularization, as in _Step.at
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, p), delta=delta)
    x_coord = g.coords()[0]
    scale = np.where(x_coord < 0.4, 1.0, np.where(x_coord < 0.7, 1e-170, 1e-220))
    u = vx.VectorField(g, scale[..., None] * rng.normal(size=g.dims + (2,)))
    x = op.free_values(u.values)
    step = _Step(op, np.zeros_like(x), 0.05, np.full(op.n_masked, p), law)
    mag = _magnitude(op.eps(x), op.weights, (-1,))
    assert mag.min() < 1e-215 and np.any((mag > 1e-172) & (mag < 1e-165)) and mag.max() > 1.0

    H = step.hessian(x)
    assert np.all(np.isfinite(H.data))
    # along x every node keeps its magnitude; the other direction moves ordinary dofs only
    ordinary = op.free_values(np.broadcast_to((scale == 1.0)[..., None], g.dims + (2,)).astype(float))
    for v in (x, ordinary * rng.normal(size=x.size)):
        e = 1e-6
        fd = (step.energy_grad(x + e * v)[1] - step.energy_grad(x - e * v)[1]) / (2 * e)
        size = abs(H) @ np.abs(v)  # each dof compared at its own scale
        assert np.all(np.abs(fd - H @ v) <= 1e-5 * size)

    S = law.flux(op.eps(x), step.p, 2)
    assert np.all(np.isfinite(S)) and np.all(np.isfinite(law.potential(mag, step.p)))
    assert np.all(np.isfinite(flux_factor(mag, p, delta)))


def coo_hessian(step, x):
    """The step Hessian assembled through COO -> CSR -> matmul -> identity sum -> CSC."""
    op, p_nodes = step.op, step.p
    eps = op.eps(x)
    w = op.weights
    we = w * eps
    s = np.sqrt(np.sum(w * eps**2, axis=-1))
    base = step.law.delta + s
    phi = base ** (p_nodes - 2.0)
    coef = np.zeros_like(s)
    pos = s > 0.0
    coef[pos] = phi[pos] * (p_nodes[pos] - 2.0) / (s[pos] * base[pos])
    blocks = coef[:, None, None] * we[:, :, None] * we[:, None, :]
    blocks += phi[:, None, None] * np.diag(w)
    nm, m = eps.shape
    node = np.arange(nm)[:, None, None]
    comp = np.arange(m) * nm
    rows = np.broadcast_to(node + comp[None, :, None], blocks.shape)
    cols = np.broadcast_to(node + comp[None, None, :], blocks.shape)
    D = sparse.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(m * nm, m * nm))
    n = op.B.shape[1]
    return (sparse.identity(n, format="csr") / step.tau + op.B.T @ (D @ op.B)).tocsc()


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("p", [1.1, 2.0, 3.0])
@pytest.mark.parametrize("shape", ["box", "disc"])
def test_step_hessian_matches_coo_assembly_bitwise(shape, p, delta):
    rng = np.random.default_rng(13)
    if shape == "box":
        dom = box_domain(12)
    else:
        dom = vx.make_disc_domain((0, 0), 0.8, vx.grid_on_box([-1, -1], [1, 1], [17, 19]))
    op = EpsOperator(dom)
    if delta == 0.0 and p < 2.0:
        delta = 1e-8  # the solver's regularization, as in _Step.at
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, p), delta=delta)
    step = _Step(op, np.zeros(2 * op.n_free), 0.05, np.full(op.n_masked, p), law)
    xs = [rng.normal(size=2 * op.n_free)]
    if p >= 2.0:
        # eps = 0 on part of the grid; at p = 3, delta = 0 the product then
        # drops diagonal entries that the 1/tau term has to put back
        patch = xs[0].copy()
        patch[: op.n_free // 2] = 0.0
        patch[op.n_free : op.n_free + op.n_free // 2] = 0.0
        xs += [patch, np.zeros(2 * op.n_free)]
    for x in xs:
        H, ref = step.hessian(x), coo_hessian(step, x)
        assert H.format == ref.format == "csc"
        assert np.array_equal(H.indptr, ref.indptr)
        assert np.array_equal(H.indices, ref.indices)
        assert np.array_equal(H.data, ref.data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("p", "delta"), [(1.1, 1e-8), (1.1, 1e-3), (1.5, 1e-8), (1.5, 1e-3),
                                          ("p(x)", 1e-8), ("p(x)", 1e-3), (2.0, 0.0), (2.0, 1e-8),
                                          (2.0, 1e-3), (3.0, 0.0), (3.0, 1e-8), (3.0, 1e-3)])
@pytest.mark.parametrize("shape", ["box", "disc"])
def test_hessian_operator_matches_the_assembled_hessian(shape, p, delta):
    # strains at scale 1 and at 1e-160, where s (delta + s) underflows and the
    # blocks take their far-range scaling
    rng = np.random.default_rng(17)
    if shape == "box":
        dom = box_domain(24)
    else:
        dom = vx.make_disc_domain((0, 0), 0.8, vx.grid_on_box([-1, -1], [1, 1], [17, 19]))
    g = dom.grid
    op = EpsOperator(dom)
    if p == "p(x)":
        exponent = vx.ExponentField(vx.ScalarField(g, 1.8 + 0.6 * g.coords()[0]))
    else:
        exponent = vx.constant_exponent(g, p)
    law = ConstitutiveLaw(exponent=exponent, delta=delta)
    p_nodes = exponent.values.values.reshape(-1)[op.masked_idx]
    step = _Step(op, np.zeros(2 * op.n_free), 0.05, p_nodes, law)
    for scale in (1.0, 1e-160):
        x = scale * rng.normal(size=2 * op.n_free)
        H, A = step.hessian(x), step.hessian_operator(x)
        assert A.shape == H.shape
        for _ in range(3):
            v = rng.normal(size=x.size)
            assert np.all(np.abs(A @ v - H @ v) <= 1e-14 * (abs(H) @ np.abs(v)))


def mms_p2_data(n=12, T=0.2, K=4):
    dom = box_domain(n)
    u_star, f, u0 = mms_solution_p2(dom, T, K)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 2.0), delta=0.0)
    return ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f), law


def count_splu(monkeypatch):
    from varexp import rothe

    calls = []
    real = rothe.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rothe, "splu", counted)
    return calls


def test_quadratic_solve_factors_once_per_tau(monkeypatch):
    from varexp import rothe

    data, law = mms_p2_data()
    calls = count_splu(monkeypatch)
    traj, diags = rothe_solve(data, law)
    assert len(calls) == 1
    assert sum(dg.iters for dg in diags) >= data.steps

    # the same solve refactoring at every Newton iteration: a non-quadratic
    # step whose CG on the held factor may take no iteration
    monkeypatch.setattr(rothe._Step, "quadratic", property(lambda self: False))
    monkeypatch.setattr(rothe, "_PCG_MAX", 0)
    calls.clear()
    ref_traj, ref_diags = rothe_solve(data, law)
    assert len(calls) == sum(dg.iters for dg in ref_diags)
    assert diags == ref_diags
    for u, ref in zip(traj, ref_traj):
        assert np.array_equal(u.values, ref.values)


def test_new_tau_or_non_quadratic_step_refactors(monkeypatch):
    from varexp import rothe

    data, law = mms_p2_data()
    op = EpsOperator(data.domain)
    calls = count_splu(monkeypatch)
    u1, _ = energy_step(data.u0, 1, law, None, data, op=op)
    energy_step(u1, 2, law, None, data, op=op)
    assert len(calls) == 1

    # half the step: a new tau, a new factor, which the next step at that tau reuses
    half = ProblemData(domain=data.domain, u0=data.u0, T=data.T, tau=data.tau / 2, f=None)
    energy_step(half.u0, 1, law, None, half, op=op)
    energy_step(half.u0, 2, law, None, half, op=op)
    assert len(calls) == 2

    # p = 2.5 at one node: not quadratic; with CG allowed no iteration every
    # Newton iteration factors, the held factor is marked non-exact, and the
    # quadratic step after it refactors
    monkeypatch.setattr(rothe, "_PCG_MAX", 0)
    p = np.full(data.domain.grid.dims, 2.0)
    p.flat[op.free_idx[0]] = 2.5
    bumpy = ConstitutiveLaw(exponent=vx.ExponentField(vx.ScalarField(data.domain.grid, p)), delta=0.0)
    _, info = energy_step(u1, 2, bumpy, None, data, op=op)
    assert info["iters"] >= 1
    assert len(calls) == 2 + info["iters"]
    assert op._lu is not None and not op._lu[1]
    energy_step(u1, 2, law, None, data, op=op)
    assert len(calls) == 3 + info["iters"]


def damped_varp_solve(monkeypatch):
    """(trajectory, per-step info, data) of a 16^2 variable-exponent solve with a damped b-term."""
    from varexp import rothe

    dom = box_domain(16)
    T, K = 0.25, 2
    low = LowerOrderLaw.damped(0.5, 1.2, 0.6)
    u_star, f, u0, law = mms_varp(dom, T, K, lambda x, y: 1.6 + 0.8 * x, 1e-2)
    f = vx.VectorField(f.grid, f.values + low(u_star.values))
    data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f)
    infos = []
    real = rothe.energy_step

    def recorded(*args, **kwargs):
        u, info = real(*args, **kwargs)
        infos.append(info)
        return u, info

    monkeypatch.setattr(rothe, "energy_step", recorded)
    traj, _ = rothe_solve(data, law, low)
    monkeypatch.setattr(rothe, "energy_step", real)
    return traj, infos, data


def test_non_quadratic_solve_reuses_its_factor(monkeypatch):
    from varexp import rothe

    traj, infos, data = damped_varp_solve(monkeypatch)
    assert len(infos) == data.steps
    assert sum(i["factorizations"] for i in infos) < sum(i["iters"] for i in infos)
    assert sum(i["cg_iters"] for i in infos) > 0
    assert all(i["sweeps"] > 1 for i in infos)

    # the exact-Newton solve, refactoring at every iteration, reaches the
    # same trajectory to within the step tolerance
    monkeypatch.setattr(rothe, "_PCG_MAX", 0)
    ref, ref_infos, _ = damped_varp_solve(monkeypatch)
    assert all(i["factorizations"] == i["iters"] and i["cg_iters"] == 0 for i in ref_infos)
    for k in range(1, data.steps + 1):
        assert np.abs(traj[k].values - ref[k].values).max() <= _tolerance(data, ref[k - 1], k)


def reference_descend(step, x0, tol):
    """`_descend` with every energy, gradient and Hessian evaluated afresh.

    The step keeps its last point by the identity of x, so handing each
    call a copy makes it recompute; the loop is otherwise `_descend`'s.
    """
    from varexp import rothe

    x = x0.copy()
    J, g = step.energy_grad(x.copy())
    n = max(x.size, 1)
    res = float(np.sqrt(np.dot(g, g) / n))
    eta = rothe._ETA_MAX
    it = 0
    counts = {"factorizations": 0, "cg_iters": 0}
    while res > tol and it < rothe._NEWTON_MAX:
        dx, cg_iters, factorized = step.newton_direction(x.copy(), g, eta)
        counts["factorizations"] += int(factorized)
        counts["cg_iters"] += cg_iters
        slope = float(np.dot(g, dx))
        t = 1.0
        noise = 1e-14 * (abs(J) + 1.0)
        for _ in range(60):
            xn = x + t * dx
            Jn, _ = step.energy(xn.copy())
            if Jn <= J + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        else:
            raise RotheStepError("backtracking stalled", res)
        x = xn
        J, g = step.energy_grad(x.copy())
        res, res_old = float(np.sqrt(np.dot(g, g) / n)), res
        eta = max(min(rothe._ETA_MAX, rothe._EW_GAMMA * (res / res_old) ** 2), rothe._ETA_MIN)
        it += 1
    return x, J, res, {"iters": it, **counts}


@pytest.mark.parametrize("exponent", ["p=1.1", "p(x)"])
@pytest.mark.parametrize("shape", ["box", "disc"])
def test_descend_reuses_each_iterates_strain_bitwise(shape, exponent):
    rng = np.random.default_rng(16)
    if shape == "box":
        dom = box_domain(24)
    else:
        dom = vx.make_disc_domain((0, 0), 0.8, vx.grid_on_box([-1, -1], [1, 1], [17, 19]))
    g = dom.grid
    if exponent == "p=1.1":
        law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.1), delta=1e-3)
    else:
        xx = g.coords()
        law = ConstitutiveLaw(exponent=vx.ExponentField(vx.ScalarField(g, 1.5 + 0.4 * xx[0])), delta=1e-2)
    op = EpsOperator(dom)
    p_nodes = law.exponent.values.values.reshape(-1)[op.masked_idx]
    tau = 0.01
    x_prev = 0.3 * rng.normal(size=2 * op.n_free)
    f = 20.0 * rng.normal(size=2 * op.n_free)
    tol = 1e-8 * (1.0 + np.abs(x_prev).max() / tau + np.abs(f).max())

    x, J, res, counts = _descend(_Step(op, x_prev, tau, p_nodes, law, f), x_prev, tol)
    op._lu = None  # the reference starts without a held factor too
    ref = reference_descend(_Step(op, x_prev, tau, p_nodes, law, f), x_prev, tol)
    assert counts["iters"] > 1 and counts["factorizations"] >= 1
    assert np.array_equal(x, ref[0])
    assert (J, res, counts) == ref[1:]


def damped_half_step(u_prev, k, law, low, data, op):
    """One step with the Picard loop v <- v/2 + x/2, stopped at rms(v_new - v) <= tol; (u, sweeps)."""
    step = _Step.at(law, data, k, op, u_prev)
    tol = _tolerance(data, u_prev, k)
    v = x = step.x_prev
    for sweep in range(1, 51):
        step = dataclasses.replace(step, b=op.free_values(low(op.to_field(v).values)))
        x, *_ = _descend(step, x, tol)
        v_new = 0.5 * v + 0.5 * x
        if np.sqrt(np.mean((v_new - v) ** 2)) <= tol:
            return op.to_field(x), sweep
        v = v_new
    raise RotheStepError("the damped reference did not settle", tol)


def picard_sweeps(gamma, r, kappa, tau, amp):
    """(sweeps, damped-reference sweeps) of a two-step 16^2 solve, p = 1.8, delta = 1e-2.

    The lower-order term is LowerOrderLaw.damped(gamma, r, kappa), added at
    the manufactured solution of amplitude `amp` to its forcing.  Each step
    runs from the relaxed loop's previous step and must converge and agree
    with the damped loop's step to the step tolerance, in the rms that
    tolerance is stated in.
    """
    dom = box_domain(16)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 1.8), delta=1e-2)
    K = 2
    low = LowerOrderLaw.damped(gamma, r, kappa)
    u_star, _, u0 = mms_solution_p2(dom, K * tau, K, g_amplitude=amp)
    base = ProblemData(domain=dom, u0=u0, T=K * tau, tau=tau)
    f = mms_forcing_discrete(u_star, law, base, mms_time_derivative_p2(dom, K * tau, K, amp))
    f = vx.VectorField(f.grid, f.values + low(u_star.values))
    data = ProblemData(domain=dom, u0=u0, T=K * tau, tau=tau, f=f)
    op = EpsOperator(dom)
    u = op.to_field(op.to_free(u0))
    sweeps = ref_sweeps = 0
    for k in range(1, K + 1):
        tol = _tolerance(data, u, k)
        new, info = energy_step(u, k, law, low, data, op=op)
        ref, ref_k = damped_half_step(u, k, law, low, data, op)
        assert info["residual"] <= tol
        diff = op.to_free(new) - op.to_free(ref)
        assert np.sqrt(np.mean(diff**2)) <= tol
        sweeps += info["sweeps"]
        ref_sweeps += ref_k
        u = new
    return sweeps, ref_sweeps


def test_relaxed_picard_matches_the_damped_loop_in_fewer_sweeps():
    # (gamma, r, kappa, tau, amplitude): a contractive map, strong power laws,
    # and bounded perturbations with tau kappa >= 1
    cases = [(0.5, 1.2, 0.6, 0.125, 1), (2, 1.3, 0, 0.25, 3), (0.5, 1.2, 3, 0.25, 1),
             (0.2, 1.1, 5, 0.5, 1), (4, 1.5, 0, 1, 5), (0, 1, 7, 0.25, 1)]
    counts = np.array([picard_sweeps(*case) for case in cases])
    assert counts[:, 0].sum() < counts[:, 1].sum()


def test_relaxed_picard_damps_a_gap_that_barely_shrinks():
    # the undamped map nearly flips the gap's sign in the second step, so the
    # gap shrinks by under 1 % a sweep and 50 undamped sweeps do not settle
    sweeps, ref_sweeps = picard_sweeps(8, 1.5, 0, 1, 5)
    assert sweeps <= ref_sweeps + 5


def test_cg_on_the_exact_factor_is_one_iteration():
    from varexp.rothe import _pcg, splu

    rng = np.random.default_rng(14)
    dom = box_domain(12)
    op = EpsOperator(dom)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 1.5), delta=0.05)
    step = _Step(op, np.zeros(2 * op.n_free), 0.05, np.full(op.n_masked, 1.5), law)
    H = step.hessian(rng.normal(size=2 * op.n_free))
    lu = splu(H)
    b = rng.normal(size=2 * op.n_free)
    x, iters = _pcg(H, b, lu.solve, 1e-10, 8)
    assert iters == 1
    ref = lu.solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    # on the Hessian at another point the factor is only a preconditioner:
    # CG then takes more iterations and meets its relative residual
    H_far = step.hessian(3.0 * rng.normal(size=2 * op.n_free))
    x, iters = _pcg(H_far, b, lu.solve, 1e-8, 50)
    assert iters > 1
    assert np.linalg.norm(b - H_far @ x) <= 1e-8 * np.linalg.norm(b)


def test_inexact_newton_directions_descend(monkeypatch):
    # p = 1.1, delta = 1e-3: the paper's regime, where CG runs on a lagged factor
    from varexp import rothe

    dom = box_domain(32)
    T, K = 0.01, 1
    _, _, u0 = mms_solution_p2(dom, T, K)
    data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 1.1), delta=1e-3)
    slopes, from_cg, assembled = [], [], []
    real = rothe._Step.newton_direction
    real_hessian = rothe._Step.hessian

    def recorded(self, x, g, rtol):
        dx, cg_iters, factorized = real(self, x, g, rtol)
        slopes.append(float(np.dot(g, dx)))
        from_cg.append(not factorized)
        return dx, cg_iters, factorized

    def counted_hessian(self, x):
        assembled.append(1)
        return real_hessian(self, x)

    monkeypatch.setattr(rothe._Step, "newton_direction", recorded)
    monkeypatch.setattr(rothe._Step, "hessian", counted_hessian)
    _, info = energy_step(data.u0, 1, law, None, data)
    assert len(slopes) == info["iters"]
    assert info["sweeps"] == 1  # no lower-order term: one sweep is the whole step
    assert sum(from_cg) == info["iters"] - info["factorizations"] > 0
    assert max(slopes) < 0.0
    # CG multiplies by H without forming it: H is assembled only to be factorized
    assert len(assembled) == info["factorizations"]
    # the counts the assembled-H products gave: the operator's products change none
    assert (info["iters"], info["factorizations"], info["cg_iters"]) == (13, 5, 81)


def test_energy_step_zero_data_is_zero():
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.1, tau=0.05)
    u1, _ = energy_step(data.u0, 1, law, None, data)
    assert np.abs(u1.values).max() == 0.0


def test_energy_step_matches_linear_oracle():
    rng = np.random.default_rng(6)
    dom = box_domain(20)
    g = dom.grid
    op = EpsOperator(dom)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    tau = 5e-4
    K = 2
    st = spacetime(g, tau * K, K)
    f = vx.VectorField(st, rng.normal(size=st.dims + (2,)))
    F = vx.SymTensorField(st, rng.normal(size=st.dims + (3,)))
    data = ProblemData(
        domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=tau * K, tau=tau, f=f, F=F
    )
    u1, _ = energy_step(data.u0, 1, law, None, data, op=op)

    W = sparse.diags(np.repeat(op.weights, op.n_masked))
    Amat = sparse.eye(op.n_free * 2) / tau + op.B.T @ W @ op.B
    flat = f.values[1].reshape(-1, 2)
    ffree = np.concatenate([flat[op.free_idx, i] for i in range(2)])
    rhs = ffree + op.eps_adjoint(op.masked_values(F.values[1], 3))
    x_oracle, info = cg(Amat, rhs, rtol=1e-13, maxiter=20000)
    assert info == 0
    rel = np.linalg.norm(op.to_free(u1) - x_oracle) / np.linalg.norm(x_oracle)
    assert rel < 1e-6


def test_constant_exponent_machinery_reduces_bitwise():
    # the variable-exponent pipeline with a degenerate two-region exponent
    # (alpha = beta) must match the plainly constant run bit for bit
    from varexp.korn import WetBlanketConfig, build_exponent

    rng = np.random.default_rng(7)
    grid = vx.grid_on_box([-3, -3], [3, 3], [48, 48])
    disc = vx.make_disc_domain((0, 0), 2.5, grid)
    p_flat = build_exponent(WetBlanketConfig(alpha=2.0, beta=2.0), disc)
    assert np.all(p_flat.values.values == 2.0)
    p_const = vx.constant_exponent(grid, 2.0)

    u0v = np.zeros(grid.dims + (2,))
    inner = disc.interior_mask()
    u0v[inner] = 0.1 * rng.normal(size=(int(inner.sum()), 2))
    T, K = 0.05, 4
    st = spacetime(grid, T, K)
    f = vx.VectorField(st, 0.3 * rng.normal(size=st.dims + (2,)))
    data = ProblemData(domain=disc, u0=vx.VectorField(grid, u0v), T=T, tau=T / K, f=f)
    traj_a, _ = rothe_solve(data, ConstitutiveLaw(exponent=p_flat, delta=0.1))
    traj_b, _ = rothe_solve(data, ConstitutiveLaw(exponent=p_const, delta=0.1))
    for ua, ub in zip(traj_a, traj_b):
        assert np.array_equal(ua.values, ub.values)


def test_rothe_zero_data_trajectory():
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.2, tau=0.05)
    traj, diags = rothe_solve(data, law)
    assert len(traj) == 5
    assert all(np.abs(u.values).max() == 0.0 for u in traj)
    assert all(d.l2norm == 0.0 for d in diags)


def test_problem_data_validation():
    dom = box_domain(8)
    g = dom.grid
    u0 = vx.VectorField(g, np.zeros(g.dims + (2,)))
    with pytest.raises(ValueError, match="does not divide"):
        ProblemData(domain=dom, u0=u0, T=1.0, tau=0.3)
    small = vx.make_rectangle_domain([0.2, 0.2], [0.8, 0.8], g)
    bad = np.ones(g.dims + (2,))
    with pytest.raises(ValueError, match="supported in the domain"):
        ProblemData(domain=small, u0=vx.VectorField(g, bad), T=1.0, tau=0.5)


@pytest.mark.parametrize(("name", "bad"), [("u0", np.nan), ("f", np.inf), ("F", np.nan)])
def test_problem_data_refuses_non_finite_data(name, bad):
    # a NaN u0 would give a NaN trajectory at 0 iterations a step, and an inf
    # f an infinite tolerance that the first step meets without iterating
    dom = box_domain(12)
    g = dom.grid
    T, K = 0.2, 4
    st = spacetime(g, T, K)
    values = {"u0": np.zeros(g.dims + (2,)), "f": np.ones(st.dims + (2,)), "F": np.ones(st.dims + (3,))}
    inner = np.flatnonzero(dom.interior_mask())[0]
    values[name].reshape(-1, values[name].shape[-1])[inner, 0] = bad
    fields = {"u0": vx.VectorField(g, values["u0"]), "f": vx.VectorField(st, values["f"]),
              "F": vx.SymTensorField(st, values["F"])}
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        ProblemData(domain=dom, T=T, tau=T / K, **fields)


def test_descend_refuses_a_nan_residual():
    # NaN fails both res > tol and res <= tol: the loop never runs, and the
    # step must not pass for converged
    dom = box_domain(12)
    op = EpsOperator(dom)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 1.5), delta=1e-3)
    x_prev = np.zeros(2 * op.n_free)
    x_prev[0] = np.nan
    step = _Step(op, x_prev, 0.05, np.full(op.n_masked, 1.5), law)
    with pytest.raises(RotheStepError, match="non-finite residual at iteration 0") as err:
        _descend(step, x_prev, 1e-8)
    assert np.isnan(err.value.residual)


def test_energy_inequality_on_random_data():
    rng = np.random.default_rng(8)
    dom = box_domain(12)
    g = dom.grid
    xx = g.coords()
    law = ConstitutiveLaw(
        exponent=vx.ExponentField(vx.ScalarField(g, 1.6 + 0.7 * np.abs(np.sin(3 * xx[0] + xx[1])))),
        delta=0.05,
    )
    low = LowerOrderLaw.damped(0.4, 1.2, 0.3)
    T, K = 0.2, 5
    st = spacetime(g, T, K)
    f = vx.VectorField(st, 0.6 * rng.normal(size=st.dims + (2,)))
    F = vx.SymTensorField(st, 0.6 * rng.normal(size=st.dims + (3,)))
    u0v = np.zeros(g.dims + (2,))
    inner = dom.interior_mask()
    u0v[inner] = 0.2 * rng.normal(size=(int(inner.sum()), 2))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, u0v), T=T, tau=T / K, f=f, F=F)
    traj, _ = rothe_solve(data, law, low)
    for lhs, rhs in energy_inequality_report(traj, law, low, data):
        assert lhs <= rhs + 1e-9 * (abs(rhs) + 1.0)


def test_nonconvergence_raises_with_residual(monkeypatch):
    # p = 1.1 with small delta and strong forcing: two Newton steps are not enough
    from varexp import rothe

    monkeypatch.setattr(rothe, "_NEWTON_MAX", 2)
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.1), delta=1e-3)
    rng = np.random.default_rng(9)
    st = spacetime(g, 0.2, 2)
    f = vx.VectorField(st, 50.0 * rng.normal(size=st.dims + (2,)))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.2, tau=0.1, f=f)
    with pytest.raises(RotheStepError) as err:
        energy_step(data.u0, 1, law, None, data)
    assert err.value.residual > 0


def test_regularization_decided_on_masked_nodes(caplog):
    # p < 2 only off the mask with delta = 0: the solver and the report both
    # see p = 2.5 alone, so neither regularizes
    rng = np.random.default_rng(10)
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [16, 16])
    dom = vx.make_disc_domain((0.5, 0.5), 0.4, g)
    law = ConstitutiveLaw(
        exponent=vx.ExponentField(vx.ScalarField(g, np.where(dom.mask, 2.5, 1.5))), delta=0.0
    )
    u0v = np.zeros(g.dims + (2,))
    inner = dom.interior_mask()
    u0v[inner] = 0.2 * rng.normal(size=(int(inner.sum()), 2))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, u0v), T=0.1, tau=0.05)
    with caplog.at_level(logging.WARNING, logger="varexp.rothe"):
        traj, _ = rothe_solve(data, law)
    assert not [r for r in caplog.records if "regularized" in r.getMessage()]
    for lhs, rhs in energy_inequality_report(traj, law, None, data):
        assert lhs <= rhs + 1e-9 * (abs(rhs) + 1.0)


def test_regularization_is_logged_once_per_solve(caplog):
    # delta = 0 with p = 1.5: every step regularizes, and the solve says so once
    dom = box_domain(12)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 1.5), delta=0.0)
    T, K = 0.04, 4
    _, _, u0 = mms_solution_p2(dom, T, K)
    data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
    with caplog.at_level(logging.WARNING, logger="varexp.rothe"):
        _, diags = rothe_solve(data, law)
    records = [r.getMessage() for r in caplog.records if "regularized" in r.getMessage()]
    assert len(diags) == K
    assert len(records) == 1
    assert "delta=1e-08" in records[0] and "first at step 1 of 4" in records[0]


@pytest.mark.parametrize("nodes", [3, 9])
def test_spacetime_exponent_needs_one_time_node_per_step(nodes, monkeypatch):
    # K = 4 steps need 5 time nodes: 3 run out after two steps, and 9 would
    # give step k the p of t = k T/8 instead of k T/4
    from varexp import rothe

    def no_descent(*args):
        raise AssertionError("a step ran before the exponent was checked")

    monkeypatch.setattr(rothe, "_descend", no_descent)
    dom = box_domain(8)
    g = dom.grid
    T, K = 0.2, 4
    st = vx.Grid((nodes,) + g.dims, (T / (nodes - 1),) + g.spacing, (0.0,) + g.origin)
    law = ConstitutiveLaw(exponent=vx.ExponentField(vx.ScalarField(st, np.full(st.dims, 1.8))), delta=0.05)
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=T, tau=T / K)
    with pytest.raises(ValueError, match=rf"needs steps \+ 1 = 5 vertex time nodes, got {nodes}"):
        rothe_solve(data, law)


@pytest.mark.parametrize("name", ["p", "f", "F"])
def test_spacetime_data_must_sit_on_the_steps_time_nodes(name):
    # 5 nodes for K = 4 steps, but on t in [5, 9]: step k would read t = 5 + k
    dom = box_domain(8)
    g = dom.grid
    T, K = 0.2, 4
    st = vx.Grid((K + 1,) + g.dims, (1.0,) + g.spacing, (5.0,) + g.origin)
    u0 = vx.VectorField(g, np.zeros(g.dims + (2,)))
    exponent = vx.constant_exponent(g, 1.8)
    forcing = {}
    if name == "p":
        exponent = vx.ExponentField(vx.ScalarField(st, np.full(st.dims, 1.8)))
    elif name == "f":
        forcing["f"] = vx.VectorField(st, np.ones(st.dims + (2,)))
    else:
        forcing["F"] = vx.SymTensorField(st, np.ones(st.dims + (3,)))
    law = ConstitutiveLaw(exponent=exponent, delta=0.05)
    label = re.escape("p(t, x)" if name == "p" else name)
    with pytest.raises(ValueError, match=rf"^{label} must sit on the vertex times"):
        rothe_solve(ProblemData(domain=dom, u0=u0, T=T, tau=T / K, **forcing), law)


def test_regularization_is_logged_before_a_failing_step(monkeypatch, caplog):
    # delta = 0 with p = 1.1 regularizes from step 1, which fails under a
    # two-iteration Newton cap: the warning is logged all the same, once
    from varexp import rothe

    monkeypatch.setattr(rothe, "_NEWTON_MAX", 2)
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.1), delta=0.0)
    rng = np.random.default_rng(9)
    st = spacetime(g, 0.2, 2)
    f = vx.VectorField(st, 50.0 * rng.normal(size=st.dims + (2,)))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.2, tau=0.1, f=f)
    with caplog.at_level(logging.WARNING, logger="varexp.rothe"), pytest.raises(RotheStepError):
        rothe_solve(data, law)
    records = [r.getMessage() for r in caplog.records if "regularized" in r.getMessage()]
    assert len(records) == 1
    assert "first at step 1 of 2" in records[0]


def test_spacetime_exponent_solve_reads_each_steps_time_node():
    # p(t, x) = 1.5 + 0.4 sin(2 pi t) cos(pi x) differs at every vertex time,
    # so each step's modular pins the time index the solver read
    rng = np.random.default_rng(18)
    dom = box_domain(16)
    g = dom.grid
    T, K = 0.25, 4
    st = spacetime(g, T, K)
    tt, xx, _ = st.coords()
    p_vals = 1.5 + 0.4 * np.sin(2 * np.pi * tt) * np.cos(np.pi * xx)
    law = ConstitutiveLaw(exponent=vx.ExponentField(vx.ScalarField(st, p_vals)), delta=1e-2)
    f = vx.VectorField(st, 0.5 * rng.normal(size=st.dims + (2,)))
    u0v = np.zeros(g.dims + (2,))
    inner = dom.interior_mask()
    u0v[inner] = 0.2 * rng.normal(size=(int(inner.sum()), 2))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, u0v), T=T, tau=T / K, f=f)
    traj, diags = rothe_solve(data, law)
    for k, dg in enumerate(diags, start=1):
        p_k = vx.ExponentField(vx.ScalarField(g, p_vals[k]))
        ref = vx.modular(vx.sym_gradient(traj[k], dom), p_k, dom)
        assert dg.modular_eps == pytest.approx(ref, rel=1e-12)
    for lhs, rhs in energy_inequality_report(traj, law, None, data):
        assert lhs <= rhs + 1e-9 * (abs(rhs) + 1.0)


def test_newton_ladder_converges_mesh_independently():
    # one unforced step from the manufactured bump over the exponent and
    # delta ladder; delta = 0 with p < 2 runs at the solver's regularization
    T, K = 0.01, 1
    max_iters = {}
    for n in (32, 64):
        dom = box_domain(n)
        g = dom.grid
        op = EpsOperator(dom)
        _, _, u0 = mms_solution_p2(dom, T, K)
        data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
        iters = []
        for p in (1.1, 1.5, 2.0, 3.0):
            for delta in (0.0, 1e-3, 0.05):
                law = ConstitutiveLaw(exponent=vx.constant_exponent(g, p), delta=delta)
                _, info = energy_step(data.u0, 1, law, None, data, op=op)
                assert info["residual"] <= _tolerance(data, data.u0, 1)
                iters.append(info["iters"])
        max_iters[n] = max(iters)
    assert max_iters[64] <= 2 * max_iters[32]

    # p = 2 is quadratic, so the exact Hessian solves it in one Newton step,
    # also where eps(u) = 0 and delta = 0: the bump fills only the middle box
    dom = box_domain(128)
    g = dom.grid
    _, _, u0 = mms_solution_p2(dom, T, K, box=([0.25, 0.25], [0.75, 0.75]))
    data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    _, info = energy_step(data.u0, 1, law, None, data)
    assert info["iters"] == 1


# -- integration by parts in time --------------------------------------------


def ibp_domain():
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [16, 16])
    return vx.make_rectangle_domain([-0.01, -0.01], [1.01, 1.01], g)


def test_ibp_linear_case_exact():
    dom = ibp_domain()
    g = dom.grid
    xx = g.coords()
    T, K = 0.8, 12
    st = spacetime(g, T, K)
    tt = st.axis_coords(0)
    w = np.sin(np.pi * xx[0]) * np.sin(np.pi * xx[1])
    u = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", tt, w)] * 2, axis=-1))
    v = vx.VectorField(st, np.broadcast_to(np.stack([w] * 2, axis=-1), st.dims + (2,)).copy())
    # lhs = T ||w||^2 equals the boundary term; the other integral vanishes
    assert discrete_ibp_check(u, v, dom) < 1e-14


def test_ibp_telescoping_self_pairing():
    dom = ibp_domain()
    g = dom.grid
    xx = g.coords()
    T, K = 0.8, 24
    st = spacetime(g, T, K)
    tt = st.axis_coords(0)
    w = np.sin(np.pi * xx[0]) * np.sin(2 * np.pi * xx[1])
    u = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", np.cos(2 * tt), w)] * 2, axis=-1))
    # residual is just the O(tau^2) quadrature error of d/dt ||u||^2
    assert discrete_ibp_check(u, u, dom) < 4.0 * (T / K) ** 2


def test_ibp_second_order_decay():
    dom = ibp_domain()
    g = dom.grid
    xx = g.coords()
    T = 0.8
    rng = np.random.default_rng(10)
    w1 = np.sin(np.pi * xx[0]) * np.sin(np.pi * xx[1])
    w2 = np.sin(np.pi * xx[0]) * np.cos(0.5 * np.pi * xx[1])
    res, taus = [], []
    for K in (8, 16, 32, 64):
        st = spacetime(g, T, K)
        tt = st.axis_coords(0)
        gu = np.cos(3 * tt) + 0.3 * np.sin(5 * tt + 0.4)
        gv = np.sin(2 * tt + 0.3)
        u = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", gu, w1)] * 2, axis=-1))
        v = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", gv, w2)] * 2, axis=-1))
        res.append(discrete_ibp_check(u, v, dom))
        taus.append(T / K)
    slope = np.polyfit(np.log(taus), np.log(res), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


# -- manufactured solutions ---------------------------------------------------


def test_mms_bump_derivatives():
    s = np.linspace(0.05, 0.95, 31)
    e = 1e-6
    fd1 = (mms_bump(s + e) - mms_bump(s - e)) / (2 * e)
    assert np.allclose(fd1, mms_bump(s, 1), rtol=1e-6, atol=1e-9)
    fd2 = (mms_bump(s + e, 1) - mms_bump(s - e, 1)) / (2 * e)
    assert np.allclose(fd2, mms_bump(s, 2), rtol=1e-5, atol=1e-7)
    assert mms_bump(np.array([0.0, 1.0, -0.3, 1.2])).tolist() == [0, 0, 0, 0]


def test_mms_time_order_sanity():
    dom = box_domain(16)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    T = 0.5
    errs = []
    for K in (8, 16):
        u_star, _, u0 = mms_solution_p2(dom, T, K)
        base = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
        f = mms_forcing_discrete(u_star, law, base, mms_time_derivative_p2(dom, T, K))
        data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f)
        traj, _ = rothe_solve(data, law)
        errs.append(max_l2_err(traj, u_star, dom))
    assert 1.4 <= errs[0] / errs[1] <= 2.6


def test_mms_varp_runs_and_decreases():
    dom = box_domain(12)
    pfun = lambda x, y: 2.0 + 0.5 * np.sin(np.pi * x) * np.cos(np.pi * y)
    T = 0.25
    errs = []
    for K in (4, 8):
        u_star, f, u0, law = mms_varp(dom, T, K, pfun, 1e-2, refine=2)
        data = ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f)
        traj, _ = rothe_solve(data, law)
        errs.append(max_l2_err(traj, u_star, dom))
    assert errs[1] < errs[0]


def test_diagnostics_csv_schema(tmp_path):
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    rng = np.random.default_rng(11)
    T, K = 0.1, 2
    st = spacetime(g, T, K)
    f = vx.VectorField(st, 0.1 * rng.normal(size=st.dims + (2,)))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=T, tau=T / K, f=f)
    traj, diags = rothe_solve(data, law)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, diags, comment="probe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "k,t,energy,l2norm,modular_eps,residual,iters"
    assert len(lines) == 2 + K
    assert all(d.residual <= 1e-8 * (1 + 10) or d.residual >= 0 for d in diags)
