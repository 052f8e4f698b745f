import logging

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
        growth = np.sqrt(np.sum(b**2, axis=-1)) - (low.gamma * (1 + mag) ** low.r + low.eta_offset)
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


def test_descent_energy_monotone():
    rng = np.random.default_rng(5)
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.8), delta=0.05)
    op = EpsOperator(dom)
    p_nodes = np.full(op.n_masked, 1.8)
    x_prev = np.zeros(op.n_free * 2)
    fk = rng.normal(size=op.n_free * 2)
    trail = []
    x, J, res, it = _descend(_Step(op, x_prev, 0.05, p_nodes, law, fk), x_prev, 1e-10, 5000, trace=trail)
    assert res <= 1e-10
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

    # the exact-Newton solve, refactoring at every iteration, reaches the
    # same trajectory to within the step tolerance
    monkeypatch.setattr(rothe, "_PCG_MAX", 0)
    ref, ref_infos, _ = damped_varp_solve(monkeypatch)
    assert all(i["factorizations"] == i["iters"] and i["cg_iters"] == 0 for i in ref_infos)
    for k in range(1, data.steps + 1):
        assert np.abs(traj[k].values - ref[k].values).max() <= _tolerance(data, ref[k - 1], k)


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
    slopes, from_cg = [], []
    real = rothe._Step.newton_direction

    def recorded(self, x, g, rtol):
        dx, cg_iters, factorized = real(self, x, g, rtol)
        slopes.append(float(np.dot(g, dx)))
        from_cg.append(not factorized)
        return dx, cg_iters, factorized

    monkeypatch.setattr(rothe._Step, "newton_direction", recorded)
    _, info = energy_step(data.u0, 1, law, None, data)
    assert len(slopes) == info["iters"]
    assert sum(from_cg) == info["iters"] - info["factorizations"] > 0
    assert max(slopes) < 0.0


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


def test_nonconvergence_raises_with_residual():
    # p = 1.1 with small delta and strong forcing: two Newton steps are not enough
    dom = box_domain(10)
    g = dom.grid
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.1), delta=1e-3)
    rng = np.random.default_rng(9)
    st = spacetime(g, 0.2, 2)
    f = vx.VectorField(st, 50.0 * rng.normal(size=st.dims + (2,)))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))), T=0.2, tau=0.1, f=f)
    with pytest.raises(RotheStepError) as err:
        energy_step(data.u0, 1, law, None, data, max_iter=2)
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
