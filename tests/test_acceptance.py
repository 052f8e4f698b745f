"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 carries a known-unattainable middle clause (the ratio-growth
factor); its test asserts every clause as stated, reports all measured
values first, and places the doomed assertion last so the remainder stays
visible.  Everything else runs at the stated tolerances.
"""

import filecmp
import os
import time

import numpy as np

import varexp as vx
from varexp.calculus import sym_gradient
from varexp.mollify import convolve, maximal, restrict, smooth_R, smooth_Rstar, zero_extend
from varexp.mollify import sym_grad_smooth_decomposition
from varexp.rothe import (
    ConstitutiveLaw,
    EpsOperator,
    LowerOrderLaw,
    ProblemData,
    discrete_ibp_check,
    energy_inequality_report,
    energy_step,
    mms_forcing_discrete,
    mms_solution_p2,
    mms_time_derivative_p2,
    mms_varp,
    rothe_solve,
)

SEP = "ACCEPTANCE"


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{SEP} {num:02d} [{status}] {label} {detail}")
    return ok


def smooth_field(grid, seed, modes=4):
    rng = np.random.default_rng(seed)
    xx = grid.coords()
    vals = np.zeros(grid.dims)
    for _ in range(modes):
        ks = rng.integers(1, 4, size=grid.ndim)
        ph = rng.uniform(0, 2 * np.pi, size=grid.ndim)
        term = rng.normal() * np.ones(grid.dims)
        for a in range(grid.ndim):
            span = grid.axis_coords(a)[-1] - grid.axis_coords(a)[0]
            term = term * np.sin(np.pi * ks[a] * (xx[a] - grid.origin[a]) / span + ph[a])
        vals += term
    return vx.ScalarField(grid, vals)


def unit_square(res):
    grid = vx.grid_on_box([0, 0], [1, 1], [res, res])
    return grid, vx.make_rectangle_domain([-0.1, -0.1], [1.1, 1.1], grid)


def two_region_exponent(grid):
    xx = grid.coords()
    mix = 0.5 * (1.0 + np.tanh((xx[0] - 0.5) / 0.15))
    return vx.ExponentField(vx.ScalarField(grid, 1.3 + 0.9 * mix))


def test_criterion_01_luxembourg_oracle_equivalence():
    start = time.time()
    grid, dom = unit_square(64)
    worst = 0.0
    for i in range(100):
        q = [1.1, 1.5, 2.0, 3.0][i % 4]
        f = smooth_field(grid, i)
        p = vx.constant_exponent(grid, q)
        lux = vx.luxembourg_norm(f, p, dom, tol=1e-8)
        oracle = vx.modular(f, p, dom) ** (1.0 / q)
        worst = max(worst, abs(lux - oracle) / oracle)
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(1, "luxembourg vs modular^(1/p) on 100 fields", ok,
                  f"(worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_unit_ball_property():
    grid, dom = unit_square(64)
    p = two_region_exponent(grid)
    worst = 0.0
    for i in range(100):
        f = smooth_field(grid, 1000 + i)
        norm = vx.luxembourg_norm(f, p, dom, tol=1e-8)
        worst = max(worst, abs(vx.modular(f * (1.0 / norm), p, dom) - 1.0))
    ok = worst <= 1e-6
    assert report(2, "unit-ball property on two-region exponent", ok, f"(worst {worst:.2e})")


def test_criterion_03_holder_constant_two():
    grid, dom = unit_square(48)
    p = two_region_exponent(grid)
    pc = vx.conjugate(p)
    worst = -np.inf
    for i in range(1000):
        f = smooth_field(grid, 2 * i, modes=3)
        g = smooth_field(grid, 2 * i + 1, modes=3)
        pairing = abs(vx.holder_pairing(f, g, domain=dom))
        bound = 2.0 * vx.luxembourg_norm(f, pc, dom) * vx.luxembourg_norm(g, p, dom)
        worst = max(worst, pairing - bound)
    ok = worst <= 1e-6
    assert report(3, "Hoelder inequality with constant 2 on 1000 pairs", ok, f"(worst excess {worst:.2e})")


def test_criterion_04_mollifier_domination():
    grid = vx.grid_on_box([0, 0], [1, 1], [128, 128])
    rng = np.random.default_rng(0)
    hx = grid.spacing[0]
    worst = -np.inf
    for _ in range(20):
        f = vx.ScalarField(grid, rng.normal(size=grid.dims))
        M = maximal(f).values
        for k in (1, 2, 4, 8, 16, 32):
            out = convolve(f, k * hx)
            worst = max(worst, float(np.max(np.abs(out.values) - 2.0 * M)))
    ok = worst <= 1e-6
    assert report(4, "sup_eps |omega_eps * f| <= 2 M(f) at 128^2", ok, f"(worst excess {worst:.2e})")


def test_criterion_05_smoothing_support_and_convergence():
    # support containment (cell-exact) on a 2-d domain
    spatial = vx.grid_on_box([0, 0], [1, 1], [48, 48])
    dom2 = vx.make_rectangle_domain([-0.05, -0.05], [1.05, 1.05], spatial)
    st2 = vx.Grid((24,) + spatial.dims, (1 / 24,) + spatial.spacing, (0.5 / 24,) + spatial.origin)
    from varexp.rothe import mms_bump

    xx = spatial.coords()
    prof = mms_bump((xx[0] - 0.2) / 0.6) * mms_bump((xx[1] - 0.2) / 0.6)
    u2 = vx.VectorField(st2, np.broadcast_to(np.stack([prof, prof], axis=-1), st2.dims + (2,)).copy())
    h2 = 0.125
    hx = max(spatial.spacing)
    out = smooth_R(u2, dom2, h2)
    nz = np.abs(out.values).sum(axis=-1) > 0
    support_ok = bool(dom2.r[nz.any(axis=0)].min() >= h2 - 2 * hx)
    times = out.grid.axis_coords(0)[nz.any(axis=(1, 2))]
    support_ok &= times.min() > -h2 - out.grid.spacing[0] and times.max() < 1 + h2 + out.grid.spacing[0]
    star = smooth_Rstar(u2, dom2, h2)
    nzs = np.abs(star.values).sum(axis=-1) > 0
    support_ok &= bool(dom2.r[nzs.any(axis=0)].min() >= 2 * h2 - 2 * hx)

    # monotone convergence along h = 2^-k, k = 2..6, for 5 smooth fields (1+1d)
    res = 256
    xgrid = vx.grid_on_box([0.0], [2.0], [res])
    dom1 = vx.make_rectangle_domain([-0.01], [2.01], xgrid)
    st1 = vx.Grid((128,) + xgrid.dims, (1 / 128,) + xgrid.spacing, (0.5 / 128,) + xgrid.origin)
    p1 = vx.ExponentField(vx.ScalarField(xgrid, 1.7 + 0.4 * np.sin(np.pi * xgrid.coords()[0])))
    pst = p1.extend_constant_in_time(st1)
    conv_ok = True
    floors = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = xgrid.coords()[0]
        tt = st1.axis_coords(0)
        prof = mms_bump((x - 0.5) / 1.0)
        wob = 1.0 + 0.4 * np.sin(2 * np.pi * tt * rng.integers(1, 3) + rng.uniform(0, 6))
        u = vx.VectorField(st1, (wob[:, None] * prof[None, :] * rng.uniform(0.5, 2.0))[..., None])
        errs = []
        for k in range(2, 7):
            diff = restrict(smooth_R(u, dom1, 2.0**-k), st1) - u
            errs.append(vx.luxembourg_norm(diff, pst, dom1))
        floor = vx.luxembourg_norm(restrict(convolve(zero_extend(u, smooth_R(u, dom1, 2.0**-6).grid),
                                                     2 * xgrid.spacing[0]), st1) - u, pst, dom1)
        floors.append(errs[-1] / floor if floor > 0 else 0.0)
        conv_ok &= all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        conv_ok &= errs[-1] <= 3.0 * floor
    ok = support_ok and conv_ok
    assert report(5, "smoothing support cell-exact + monotone convergence", ok,
                  f"(max err/floor {max(floors):.2f})")


def test_criterion_06_decomposition_identity():
    from varexp.rothe import mms_bump

    tres, tau = 16, 1.0 / 16

    def run(res, h):
        spatial = vx.grid_on_box([-2.2, -2.2], [2.2, 2.2], [res, res])
        dom = vx.make_disc_domain((0, 0), 2.0, spatial)
        st = vx.Grid((tres,) + spatial.dims, (tau,) + spatial.spacing, (tau / 2,) + spatial.origin)
        xx = spatial.coords()
        prof = mms_bump((xx[0] + 1.2) / 2.4) * mms_bump((xx[1] + 1.2) / 2.4)
        wobble = 1.0 + 0.5 * np.sin(2 * np.pi * st.axis_coords(0))
        u = vx.VectorField(st, wobble[:, None, None, None] * np.stack([prof, 2 * prof], axis=-1)[None, ...])
        termA, termB = sym_grad_smooth_decomposition(u, dom, h)
        eps_smooth = sym_gradient(smooth_R(u, dom, h), None)
        return dom, termB, float(vx.field_abs(eps_smooth - termA - termB).values.max())

    h = 3 * 4.4 / 40
    dom, termB, r1 = run(40, h)
    _, _, r2 = run(80, h)
    ratio = r1 / r2
    hx = max(dom.grid.spacing)
    far = vx.shrink(dom, 4 * h + 3 * hx).mask
    far_zero = bool(far.any()) and float(np.abs(vx.field_abs(termB).values[:, far]).max()) == 0.0
    ok = 3.2 <= ratio <= 4.8 and far_zero
    assert report(6, "decomposition residual O(spacing^2) + termB far-field zero", ok,
                  f"(ratio {ratio:.2f}, far zero {far_zero})")


def test_criterion_07_korn_figure_reproduction():
    from varexp.korn import WetBlanketConfig, korn_ratio_sequence

    start = time.time()
    grid = vx.grid_on_box([-3, -3], [3, 3], [96, 96])
    dom = vx.make_disc_domain((0, 0), 2.5, grid)
    tg = vx.grid_on_box([-1.5], [1.5], [256])
    rows = korn_ratio_sequence(WetBlanketConfig(alpha=1.1, beta=2.0, eps=0.4), dom, tg, 5)
    for r in rows:
        print(f"{SEP} 07 table n={r.n} num={r.num:.4f} den={r.den:.4f} "
              f"ratio={r.ratio:.4f} lower={r.lower_bound:.4f}")
    increasing = all(rows[i + 1].ratio > rows[i].ratio for i in range(4))
    above_lower = all(r.ratio >= 0.95 * r.lower_bound for r in rows)
    growth = rows[4].ratio / rows[0].ratio

    flat = korn_ratio_sequence(WetBlanketConfig(alpha=1.5, beta=1.5, eps=0.4), dom, tg, 5)
    fr = [r.ratio for r in flat]
    contrast_ok = max(fr) / min(fr) <= 1.5
    elapsed = time.time() - start

    ok = increasing and above_lower and contrast_ok and elapsed < 60.0 and growth >= 2.0
    report(7, "Korn figure: monotone, lower bound, contrast, runtime, x2 growth", ok,
           f"(growth {growth:.3f}, elapsed {elapsed:.1f}s)")
    assert increasing, "ratio sequence must increase strictly"
    assert above_lower, "ratio must dominate the factorized lower bound"
    assert contrast_ok, "constant-exponent contrast must stay flat"
    assert elapsed < 60.0, "runtime budget exceeded"
    # Known-red clause: |phi_n|_2 grows like sqrt(n log 2 + C) (the squared
    # profile is only log-divergent) and both space-time norms are dominated
    # by the small-exponent ring, whose contributions cancel in the ratio.
    # The measured gain over n = 1..5 is ~3%, so the x2 requirement cannot
    # be met by this construction at any resolution.
    assert growth >= 2.0, f"ratio(5)/ratio(1) = {growth:.4f} < 2"


def ring_samples(dom, rings, h0, per_ring=60):
    g = dom.grid
    origin = np.asarray(g.origin)
    spacing = np.asarray(g.spacing)
    samples, seen = [], set()
    for rr in rings:
        for a in np.linspace(0, 2 * np.pi, per_ring + 1)[:-1]:
            nd = tuple(np.rint((np.array([rr * np.cos(a), rr * np.sin(a)]) - origin) / spacing).astype(int))
            if nd not in seen and dom.mask[nd] and 0 < dom.r[nd] <= h0:
                samples.append(nd)
                seen.add(nd)
    return samples[:200]


def test_criterion_08_pointwise_poincare():
    from varexp.poincare import ConeParams, poincare_verify, standard_test_fields

    cone = ConeParams(theta=np.pi / 4, h=1.0)
    c0 = {}
    ok = True
    for res in (96, 192):
        grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
        dom = vx.make_disc_domain((0, 0), 2.5, grid)
        samples = ring_samples(dom, (2.26, 2.28, 2.30, 2.32), cone.h0)
        for name, u in standard_test_fields(dom, support_radius=2.4).items():
            rep = poincare_verify(u, dom, samples, cone=cone)
            c0.setdefault(name, {})[res] = rep.c0_empirical
            # lhs <= c0_emp * rhs at every sample (with the zero-sample floor)
            ok &= bool(np.all(rep.lhs <= rep.c0_empirical * rep.rhs + 1e-14))
        # the zero field passes trivially
        zero = vx.VectorField(grid, np.zeros(grid.dims + (2,)))
        rep0 = poincare_verify(zero, dom, samples, cone=cone)
        ok &= rep0.passed and rep0.c0_empirical == 0.0
    drifts = {}
    for name, d in c0.items():
        base = d[96] if d[96] > 0 else 1.0
        drifts[name] = abs(d[192] - d[96]) / base
        ok &= drifts[name] <= 0.20
    assert report(8, "pointwise Poincare: bound + c0 stability across grids", ok,
                  f"(max drift {max(drifts.values()):.3f})")


def test_criterion_09_phi_map_and_cap_geometry():
    from varexp.poincare import cap_area, phi_jacobian_fd, phi_map, upphi_det

    rng = np.random.default_rng(1)
    unit_worst = 0.0
    for d in (2, 3):
        for _ in range(200):
            eta = rng.normal(size=d - 1) * rng.uniform(0.1, 4)
            for i in range(1, d + 1):
                unit_worst = max(unit_worst, abs(np.linalg.norm(phi_map(i, eta)) - 1.0))
    jac_ok = True
    for d in (2, 3):
        J = phi_jacobian_fd(d, np.zeros(d - 1))
        jac_ok &= abs(np.linalg.det(J.T @ J) - 1.0) <= 1e-6
    det_err = abs(abs(upphi_det([1.0])) - 1.0)
    fits = []
    for d in (2, 3):
        radii = np.array([0.5, 1.0, 2.0, 4.0])
        areas = np.array([cap_area(d, 0.7, 2 * r) for r in radii])
        fits.append(np.polyfit(np.log(2 * radii), np.log(areas), 1)[0] - (d - 1))
    fit_err = max(abs(f) for f in fits)
    ok = unit_worst <= 1e-12 and jac_ok and det_err <= 1e-12 and fit_err <= 1e-6
    assert report(9, "Phi maps unit norm, Jacobian det 1, cap scaling", ok,
                  f"(unit {unit_worst:.1e}, det {det_err:.1e}, fit {fit_err:.1e})")


def test_criterion_10_constitutive_sampling():
    rng = np.random.default_rng(2)
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [4, 4])
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.2)
    n = 10_000
    A = rng.normal(size=(n, 3)) * rng.uniform(0.05, 4.0, size=(n, 1))
    B = rng.normal(size=(n, 3))
    p = rng.uniform(1.05, 4.0, size=n)
    w = np.array([1.0, 1.0, 2.0])
    SA, SB = law.flux(A, p, 2), law.flux(B, p, 2)
    magA = np.sqrt(np.sum(w * A**2, axis=-1))
    worst = max(
        float(np.max(np.sqrt(np.sum(w * SA**2, axis=-1)) - ((law.delta + magA) ** (p - 2) * magA))),
        float(np.max(-(np.sum(w * SA * A, axis=-1) - (law.delta + magA) ** (p - 2) * magA**2))),
        float(np.max(-np.sum(w * (SA - SB) * (A - B), axis=-1))),
    )
    a = rng.normal(size=(n, 2)) * rng.uniform(0.05, 4.0, size=(n, 1))
    for low in (LowerOrderLaw.power(0.8, 1.3), LowerOrderLaw.damped(0.5, 1.2, 0.6)):
        b = low(a)
        mag = np.sqrt(np.sum(a**2, axis=-1))
        worst = max(worst, float(np.max(np.sqrt(np.sum(b**2, axis=-1)) - (low.gamma * (1 + mag) ** low.r))))
        worst = max(worst, float(np.max(-(np.sum(b * a, axis=-1) + low.c2))))
    ok = worst <= 1e-10
    assert report(10, "structure conditions on 10^4 random tuples", ok, f"(worst {worst:.1e})")


def test_criterion_11_solver_linear_oracle():
    from scipy import sparse
    from scipy.sparse.linalg import cg

    rng = np.random.default_rng(3)
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [24, 24])
    dom = vx.make_rectangle_domain([-0.001, -0.001], [1.001, 1.001], g)
    op = EpsOperator(dom)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(g, 2.0), delta=0.0)
    tau = 5e-4
    st = vx.Grid((3,) + g.dims, (tau,) + g.spacing, (0.0,) + g.origin)
    f = vx.VectorField(st, rng.normal(size=st.dims + (2,)))
    F = vx.SymTensorField(st, rng.normal(size=st.dims + (3,)))
    data = ProblemData(domain=dom, u0=vx.VectorField(g, np.zeros(g.dims + (2,))),
                       T=2 * tau, tau=tau, f=f, F=F)
    u1, _ = energy_step(data.u0, 1, law, None, data)

    W = sparse.diags(np.repeat(op.weights, op.n_masked))
    A = sparse.eye(op.n_free * 2) / tau + op.B.T @ W @ op.B
    flat = f.values[1].reshape(-1, 2)
    rhs = np.concatenate([flat[op.free_idx, i] for i in range(2)]) + op.eps_adjoint(
        op.masked_values(F.values[1], 3)
    )
    x_oracle, info = cg(A, rhs, rtol=1e-13, maxiter=50000)
    rel = np.linalg.norm(op.to_free(u1) - x_oracle) / np.linalg.norm(x_oracle)
    ok = info == 0 and rel <= 1e-6
    assert report(11, "implicit step vs conjugate-direction linear oracle", ok, f"(rel {rel:.1e})")


def max_l2_err(traj, u_star, dom):
    vol = dom.grid.cell_volume
    return max(
        float(np.sqrt(np.sum(np.where(dom.mask[..., None], u.values - u_star.values[k], 0.0) ** 2) * vol))
        for k, u in enumerate(traj)
    )


def test_criterion_12_manufactured_convergence():
    start = time.time()

    def box(n):
        g = vx.vertex_grid_on_box([0, 0], [1, 1], [n, n])
        pad = 0.01 / n
        return vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)

    # p = 2: first order in tau on a fixed fine grid (discrete injection)
    dom = box(24)
    law = ConstitutiveLaw(exponent=vx.constant_exponent(dom.grid, 2.0), delta=0.0)
    T = 0.5
    errs_t = []
    for K in (8, 16, 32):
        u_star, _, u0 = mms_solution_p2(dom, T, K)
        base = ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
        f = mms_forcing_discrete(u_star, law, base, mms_time_derivative_p2(dom, T, K))
        traj, _ = rothe_solve(ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f), law)
        errs_t.append(max_l2_err(traj, u_star, dom))
    t_ratios = [errs_t[i] / errs_t[i + 1] for i in range(2)]
    time_ok = all(1.4 <= r <= 2.6 for r in t_ratios)

    # p = 2: second order in spacing at a fixed small tau (analytic forcing)
    T2, K2 = 0.1, 512
    errs_s = []
    for n in (16, 32):
        dom_n = box(n)
        law_n = ConstitutiveLaw(exponent=vx.constant_exponent(dom_n.grid, 2.0), delta=0.0)
        u_star, f, u0 = mms_solution_p2(dom_n, T2, K2)
        traj, _ = rothe_solve(ProblemData(domain=dom_n, u0=u0, T=T2, tau=T2 / K2, f=f), law_n)
        errs_s.append(max_l2_err(traj, u_star, dom_n))
    s_ratio = errs_s[0] / errs_s[1]
    space_ok = 2.4 <= s_ratio <= 5.6

    # variable exponent: monotone decrease under the same refinements
    pfun = lambda x, y: 2.0 + 0.5 * np.sin(np.pi * x) * np.cos(np.pi * y)
    Tv = 0.25
    dom_v = box(20)
    errs_vt = []
    for K in (8, 16, 32):
        u_star, f, u0, law_v = mms_varp(dom_v, Tv, K, pfun, 1e-2)
        traj, _ = rothe_solve(ProblemData(domain=dom_v, u0=u0, T=Tv, tau=Tv / K, f=f), law_v)
        errs_vt.append(max_l2_err(traj, u_star, dom_v))
    errs_vs = []
    for n in (12, 24):
        dom_n = box(n)
        u_star, f, u0, law_v = mms_varp(dom_n, Tv, 128, pfun, 1e-2)
        traj, _ = rothe_solve(ProblemData(domain=dom_n, u0=u0, T=Tv, tau=Tv / 128, f=f), law_v)
        errs_vs.append(max_l2_err(traj, u_star, dom_n))
    var_ok = all(errs_vt[i] > errs_vt[i + 1] for i in range(2)) and errs_vs[0] > errs_vs[1]

    elapsed = time.time() - start
    ok = time_ok and space_ok and var_ok and elapsed < 300.0
    assert report(12, "manufactured solutions: tau order, space order, variable p", ok,
                  f"(tau ratios {t_ratios[0]:.2f},{t_ratios[1]:.2f}; space ratio {s_ratio:.2f}; {elapsed:.0f}s)")


def test_criterion_13_discrete_a_priori_bound():
    ok = True
    worst_margin = np.inf
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        g = vx.vertex_grid_on_box([0, 0], [1, 1], [12, 12])
        pad = 1e-3
        dom = vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)
        xx = g.coords()
        # p- of 1.8 keeps r = 1.2 lower-order terms subcritical in d = 2
        law = ConstitutiveLaw(
            exponent=vx.ExponentField(
                vx.ScalarField(g, 1.8 + 0.7 * np.abs(np.sin(3 * xx[0] + 2 * xx[1])))
            ),
            delta=float(rng.uniform(0.0, 0.2)),
        )
        low = (LowerOrderLaw.zero(), LowerOrderLaw.power(0.5, 1.2),
               LowerOrderLaw.damped(0.4, 1.2, 0.3), LowerOrderLaw.zero(),
               LowerOrderLaw.damped(0.2, 1.1, 0.5))[seed]
        T, K = 0.2, 5
        st = vx.Grid((K + 1,) + g.dims, (T / K,) + g.spacing, (0.0,) + g.origin)
        f = vx.VectorField(st, 0.7 * rng.normal(size=st.dims + (2,)))
        F = vx.SymTensorField(st, 0.7 * rng.normal(size=st.dims + (3,)))
        u0v = np.zeros(g.dims + (2,))
        inner = dom.interior_mask()
        u0v[inner] = 0.2 * rng.normal(size=(int(inner.sum()), 2))
        data = ProblemData(domain=dom, u0=vx.VectorField(g, u0v), T=T, tau=T / K, f=f, F=F)
        traj, _ = rothe_solve(data, law, low)
        for lhs, rhs in energy_inequality_report(traj, law, low, data):
            worst_margin = min(worst_margin, rhs - lhs)
            ok &= lhs <= rhs + 1e-9 * (abs(rhs) + 1.0)
    assert report(13, "discrete coercivity (a priori) bound on 5 data sets", ok,
                  f"(min margin {worst_margin:.3e})")


def test_criterion_14_integration_by_parts_order():
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [16, 16])
    dom = vx.make_rectangle_domain([-0.01, -0.01], [1.01, 1.01], g)
    xx = g.coords()
    T = 0.8
    rng = np.random.default_rng(4)
    slopes = []
    for trial in range(3):
        a1, a2 = rng.uniform(1, 3, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        w1 = np.sin(np.pi * xx[0]) * np.sin(np.pi * xx[1])
        w2 = np.sin(np.pi * xx[0]) * np.cos(0.5 * np.pi * xx[1])
        res, taus = [], []
        for K in (16, 32, 64, 128):
            st = vx.Grid((K + 1,) + g.dims, (T / K,) + g.spacing, (0.0,) + g.origin)
            tt = st.axis_coords(0)
            gu = np.cos(a1 * tt) + 0.3 * np.sin(3 * tt + phase)
            gv = np.sin(a2 * tt + 0.3)
            u = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", gu, w1)] * 2, axis=-1))
            v = vx.VectorField(st, np.stack([np.einsum("k,ij->kij", gv, w2)] * 2, axis=-1))
            res.append(discrete_ibp_check(u, v, dom))
            taus.append(T / K)
        slopes.append(np.polyfit(np.log(taus), np.log(res), 1)[0])
    ok = all(abs(s - 2.0) <= 0.3 for s in slopes)
    assert report(14, "integration-by-parts residual O(tau^2)", ok,
                  f"(orders {', '.join(f'{s:.2f}' for s in slopes)})")


def test_criterion_15_determinism(tmp_path):
    from varexp.cli import main

    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["property-suite", "--seed", "0", "--out", str(out1)]) == 0
    assert main(["property-suite", "--seed", "0", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    ok = names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    ok &= sorted(match) == names and not mismatch and not errors
    assert report(15, "property-suite rerun is byte-identical", ok, f"(files {len(names)})")
