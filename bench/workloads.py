"""Workload inputs, task lists and correctness gates for the varexp benchmark.

`build(name, seed, smoke)` makes a workload's inputs from the seed and
returns its task list.  Building is the set-up the benchmark times as
`setup_s`; running the tasks is one pass, timed as `wall_s`.  Each task runs
one operation of the program and checks its result against an invariant of
the paper with the tolerance the CLI and the acceptance tests use.  A task
returns `(ok, digest)`: `ok` is False when the result is out of tolerance,
and `digest` holds the science numbers the pass produced.  A task that
raises counts as failed too.

The seed changes the inputs (random fields, the amplitude of the rigid
velocity, the time profile of the manufactured solutions) but never the
number of tasks.  Known failures at this commit stay in the task lists:

* rothe-mms solve (d), p = 1.1 with delta = 1e-3, hits the descent's
  iteration cap at step 1;
* norms-poincare sweep cases c <= 1e-4 at p = 100, where `luxembourg_norm`
  underflows.  At c >= 1e4 it overflows too, but its first bracket is
  already the exact norm of a constant field, so those cases pass.

The program's functions are always reached through their modules at call
time (`vx.luxembourg_norm`, `kn.build_phi`), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import dataclasses
import importlib
import os

import numpy as np

import varexp as vx
from varexp import korn as kn
from varexp import mollify as ml
from varexp import poincare as pc
from varexp import rothe as rt

# `varexp.modular` is the function re-exported by the package, not the module
vmod = importlib.import_module("varexp.modular")

#: relative tolerance of a norm against its oracle (CLI `norms` experiment)
NORM_RTOL = 1e-6
#: absolute tolerance of the unit-ball and Hoelder checks (CLI `norms`)
MODULAR_ATOL = 1e-6
#: slack of the domination |omega * f| <= 2 M f (criterion 4)
DOMINATION_ATOL = 1e-6
#: tolerance of <R* u, v> = <u, R v> relative to <|u|, |R v|> (test_mollify)
ADJOINT_RTOL = 1e-12
#: Korn ratio must stay above this share of the factorized lower bound (CLI)
KORN_LOWER_SHARE = 0.95
#: Poincare budget c0 (CLI default)
POINCARE_BUDGET = 10.0
#: slack on the a-priori error bound of a converged MMS solve; it covers the
#: solver's residual tolerance, 1e-8 of the data's size
MMS_BOUND_SLACK = 1.01


@dataclasses.dataclass
class Task:
    name: str
    run: object  # callable(outdir) -> (ok, digest)


def build(name, seed, smoke=False):
    """Inputs of workload `name` made from `seed`; returns the task list."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    return builder(np.random.default_rng(seed), smoke)


def smooth_field(rng, grid, modes=4):
    """Seeded band-limited field: a short trigonometric series."""
    xx = grid.coords()
    vals = np.zeros(grid.dims)
    for _ in range(modes):
        ks = rng.integers(1, 4, size=grid.ndim)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=grid.ndim)
        term = np.full(grid.dims, rng.normal())
        for a in range(grid.ndim):
            ax = grid.axis_coords(a)
            span = (ax[-1] - ax[0]) or 1.0
            term = term * np.sin(np.pi * ks[a] * (xx[a] - ax[0]) / span + phase[a])
        vals += term
    return vals


def two_region_exponent(dom):
    """Smooth exponent from 1.4 in the centre to 2.2 near the boundary (CLI default)."""
    xx = dom.grid.coords()
    rho = np.sqrt(sum(c**2 for c in xx))
    scale = float(dom.r.max())
    mix = 0.5 * (1.0 + np.tanh((rho - 0.5 * scale) / (0.15 * scale)))
    return vx.ExponentField(vx.ScalarField(dom.grid, 1.4 + 0.8 * mix))


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


# ---------------------------------------------------------------------------
# korn-spacetime


def _korn_spacetime(rng, smoke):
    cells, t_nodes, n_max = (48, 128, 3) if smoke else (96, 256, 5)
    grid = vx.grid_on_box([-3.0, -3.0], [3.0, 3.0], [cells, cells])
    dom = vx.make_disc_domain((0.0, 0.0), 2.5, grid)
    tg = vx.grid_on_box([-1.5], [1.5], [t_nodes])
    # the ratio is invariant under scaling the rigid velocity; the norms are not
    amp = float(rng.uniform(0.5, 2.0))
    cfg = kn.WetBlanketConfig(alpha=1.1, beta=2.0, eps=0.4, skew=((0.0, -amp), (amp, 0.0)))
    state = {}

    def ratio_sequence(outdir):
        rows = kn.korn_ratio_sequence(cfg, dom, tg, n_max)
        state["rows"] = rows
        increasing = all(rows[i + 1].ratio > rows[i].ratio for i in range(len(rows) - 1))
        above = all(r.ratio >= KORN_LOWER_SHARE * r.lower_bound for r in rows)
        digest = {
            "korn.ratio": [r.ratio for r in rows],
            "korn.lower_bound": [r.lower_bound for r in rows],
            "korn.num": [r.num for r in rows],
        }
        return increasing and above, digest

    def phi_profiles(outdir):
        profiles = [kn.build_phi(n, tg).values for n in range(1, n_max + 1)]
        tt = tg.axis_coords(0)
        raw = kn.phi_raw(tt)
        with open(os.path.join(outdir, "phi_profiles.csv"), "w", encoding="ascii") as fh:
            fh.write("t,phi_raw," + ",".join(f"phi_{n}" for n in range(1, n_max + 1)) + "\n")
            for i, t in enumerate(tt):
                cols = [t, raw[i]] + [pr[i] for pr in profiles]
                fh.write(",".join(repr(float(v)) for v in cols) + "\n")
        # mollifying a nonnegative profile keeps it nonnegative, and its L2
        # norm grows with n as the spike sharpens (test_korn)
        l2 = [float(np.sqrt(np.sum(pr**2) * tg.spacing[0])) for pr in profiles]
        ok = all(float(pr.min()) >= -1e-12 for pr in profiles)
        ok = ok and all(l2[i + 1] > l2[i] for i in range(len(l2) - 1))
        return ok, {"korn.phi_l2": l2}

    def write_outputs(outdir):
        rows = state["rows"]
        path = os.path.join(outdir, "korn_ratio.csv")
        kn.write_ratio_csv(path, rows, comment=f"skew amplitude {amp!r}")
        paths = kn.write_heatmaps(outdir, cfg, dom)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        ok = len(lines) == 2 + len(rows) and all(os.path.getsize(p) > 0 for p in paths)
        return ok, {}

    return [
        Task("korn.ratio_sequence", ratio_sequence),
        Task("korn.phi_profiles", phi_profiles),
        Task("korn.write_outputs", write_outputs),
    ]


# ---------------------------------------------------------------------------
# smoothing


def _smoothing(rng, smoke):
    cells, n_fields, scales = (48, 1, (1, 2)) if smoke else (128, 4, (1, 2, 4, 8, 16))
    grid = vx.grid_on_box([-3.0, -3.0], [3.0, 3.0], [cells, cells])
    disc = vx.make_disc_domain((0.0, 0.0), 2.5, grid)
    hx = max(grid.spacing)
    fields = [vx.ScalarField(grid, smooth_field(rng, grid) * disc.mask) for _ in range(n_fields)]

    # space-time part on the unit square (test_mollify geometry)
    s_cells, t_nodes, hs, decomp_h = (24, 12, (2,), 2) if smoke else (48, 24, (2, 8), 4)
    spatial = vx.grid_on_box([0.0, 0.0], [1.0, 1.0], [s_cells, s_cells])
    box = vx.make_rectangle_domain([-0.05, -0.05], [1.05, 1.05], spatial)
    st = vx.Grid((t_nodes,) + spatial.dims, (1.0 / t_nodes,) + spatial.spacing,
                 (0.5 / t_nodes,) + spatial.origin)
    prof = rt.mms_bump((spatial.coords()[0] - 0.2) / 0.6) * rt.mms_bump((spatial.coords()[1] - 0.2) / 0.6)
    wobble = 1.0 + 0.5 * np.sin(2.0 * np.pi * st.axis_coords(0) + rng.uniform(0.0, 2.0 * np.pi))
    mix = rng.uniform(0.5, 2.0, size=2)
    u = vx.VectorField(st, wobble[:, None, None, None] * (prof[..., None] * mix)[None, ...])
    v = vx.VectorField(st, rng.normal(size=st.dims + (2,)))
    p2 = vx.constant_exponent(spatial, 2.0)
    sx = max(spatial.spacing)
    g3 = vx.grid_on_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], (8, 12, 12) if smoke else (16, 24, 24))
    f3 = vx.ScalarField(g3, smooth_field(rng, g3))

    tasks = []
    maximals = {}

    def maximal_task(i):
        def run(outdir):
            M = ml.maximal(fields[i]).values
            maximals[i] = M
            a = np.abs(fields[i].values)
            # the radius ladder starts at the node itself, and averages never
            # exceed the largest value
            ok = bool(np.all(M >= a) and float(M.max()) <= float(a.max()) * (1 + 1e-12))
            return ok, {f"smoothing.maximal_mean[{i}]": float(M.mean())}
        return run

    def convolve_task(i, k):
        def run(outdir):
            out = ml.convolve(fields[i], k * hx).values
            excess = float(np.max(np.abs(out) - 2.0 * maximals[i]))
            return excess <= DOMINATION_ATOL, {f"smoothing.conv_l1[{i},{k}]": float(np.abs(out).sum())}
        return run

    for i in range(n_fields):
        tasks.append(Task(f"mollify.maximal[{i}]", maximal_task(i)))
        for k in scales:
            tasks.append(Task(f"mollify.convolve[{i},{k}]", convolve_task(i, k)))

    def adjoint_task(k):
        def run(outdir):
            h = k * sx
            star_u = ml.restrict(ml.smooth_Rstar(u, box, h), st)
            r_v = ml.restrict(ml.smooth_R(v, box, h), st)
            lhs = vx.holder_pairing(star_u, v, p2, box)
            rhs = vx.holder_pairing(u, r_v, p2, box)
            # roundoff scales with the pairing of magnitudes, not with the
            # pairing itself, whose terms cancel
            size = vx.integrate(vx.ScalarField(st, np.sum(np.abs(u.values * r_v.values), axis=-1)), box)
            return abs(lhs - rhs) <= ADJOINT_RTOL * size, {f"smoothing.adjoint_pairing[{k}]": lhs}
        return run

    for k in hs:
        tasks.append(Task(f"mollify.adjointness[{k}]", adjoint_task(k)))

    def decomposition(outdir):
        h = decomp_h * sx
        termA, termB = ml.sym_grad_smooth_decomposition(u, box, h)
        eps_smooth = vx.sym_gradient(ml.smooth_R(u, box, h), None)
        resid = float(vx.field_abs(eps_smooth - termA - termB).values.max())
        scale = float(vx.field_abs(eps_smooth).values.max())
        # termB vanishes identically on the 4h shrinkage, up to kernel-snap cells
        far = vx.shrink(box, 4 * h + 3 * sx).mask
        far_zero = bool(far.any()) and float(np.abs(vx.field_abs(termB).values[:, far]).max()) == 0.0
        # the identity holds to O(spacing^2); 5 % of the gradient's size is
        # far above that and far below any structural error
        ok = far_zero and resid <= 0.05 * scale
        return ok, {"smoothing.decomposition_residual": resid}

    def maximal_3d(outdir):
        M = ml.maximal(f3).values
        a = np.abs(f3.values)
        ok = bool(np.all(M >= a) and float(M.max()) <= float(a.max()) * (1 + 1e-12))
        return ok, {"smoothing.maximal3d_mean": float(M.mean())}

    tasks.append(Task("mollify.decomposition", decomposition))
    tasks.append(Task("mollify.maximal_3d", maximal_3d))
    return tasks


# ---------------------------------------------------------------------------
# rothe-mms


def _box(cells):
    g = vx.vertex_grid_on_box([0.0, 0.0], [1.0, 1.0], [cells, cells])
    pad = 0.01 / cells
    return vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)


def _varp(x, y):
    return 1.6 + 0.8 * x


def _rothe_mms(rng, smoke):
    g_amp = float(rng.uniform(0.4, 0.6))
    solves = {}

    # (a) mesh growth at the CLI's regime: p = 2, delta = 0
    dom = _box(16 if smoke else 48)
    T, K = 0.5, 4 if smoke else 16
    law = _constant_law(dom.grid, 2.0, 0.0)
    u_star, _, u0 = rt.mms_solution_p2(dom, T, K, g_amplitude=g_amp)
    solves["a"] = _p2_problem(dom, T, K, law, u_star, u0, g_amp)

    # (b) the variable-exponent regime
    dom = _box(16 if smoke else 32)
    T, K = 0.25, 4
    u_star, f, u0, law = rt.mms_varp(dom, T, K, _varp, 1e-2, g_amplitude=g_amp)
    solves["b"] = (rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f), law, None, u_star)

    # (c) the Picard path: the same exponent with a damped lower-order term,
    # whose value at u* is added to the forcing so u* stays the target
    dom = _box(8 if smoke else 16)
    T, K = 0.25, 2
    low = rt.LowerOrderLaw.damped(0.5, 1.2, 0.6)
    u_star, f, u0, law = rt.mms_varp(dom, T, K, _varp, 1e-2, g_amplitude=g_amp)
    f = vx.VectorField(f.grid, f.values + low(u_star.values))
    solves["c"] = (rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f), law, low, u_star)

    # (d) the paper's alpha: p = 1.1 with small delta
    dom = _box(16 if smoke else 32)
    T, K = 0.25, 4
    law = _constant_law(dom.grid, 1.1, 1e-3)
    u_star, _, u0 = rt.mms_solution_p2(dom, T, K, g_amplitude=g_amp)
    solves["d"] = _p2_problem(dom, T, K, law, u_star, u0, g_amp)

    bounds = {key: mms_error_bound(*problem) for key, problem in solves.items()}

    def solve_task(key):
        def run(outdir):
            data, law, low, u_star = solves[key]
            traj, diags = rt.rothe_solve(data, law, low)
            op = bounds[key][1]
            vol = data.domain.grid.cell_volume
            errs = [
                float(np.linalg.norm(op.to_free(u) - op.to_free(vx.VectorField(u.grid, u_star.values[k])))
                      * np.sqrt(vol))
                for k, u in enumerate(traj)
            ]
            sub = os.path.join(outdir, f"solve_{key}")
            os.makedirs(sub, exist_ok=True)
            for k, u in enumerate(traj):
                vx.write_field(os.path.join(sub, f"u_{k:04d}.field"), u)
            rt.write_diagnostics_csv(os.path.join(sub, "diagnostics.csv"), diags,
                                     extra_columns={"l2_error": errs[1:]})
            ok = all(e <= MMS_BOUND_SLACK * b for e, b in zip(errs, bounds[key][0]))
            return ok, {
                f"rothe.max_l2_error[{key}]": max(errs),
                f"rothe.iters_per_step[{key}]": [dg.iters for dg in diags],
            }
        return run

    return [Task(f"rothe.solve[{key}]", solve_task(key)) for key in solves]


def _constant_law(grid, p, delta):
    return rt.ConstitutiveLaw(exponent=vx.constant_exponent(grid, p), delta=delta)


def _p2_problem(dom, T, K, law, u_star, u0, g_amp):
    base = rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
    f = rt.mms_forcing_discrete(u_star, law, base, rt.mms_time_derivative_p2(dom, T, K, g_amp))
    return rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f), law, None, u_star


def mms_error_bound(data, law, low, u_star):
    """A-priori bound on |u_k - u*(t_k)| at the free nodes of a converged solve.

    u* leaves the discrete residual r_k = f_k - (u*_k - u*_{k-1})/tau -
    A(u*_k) - b(u*_k) in the implicit step.  The flux is monotone and the
    lower-order term is monotone up to a Lipschitz part of size c2, so
    testing the error equation with e_k gives
        |e_k| (1 - tau c2) <= |e_{k-1}| + tau |r_k|.
    The bound holds for any solver that meets the step's residual rule; it
    does not depend on how the step is solved.  Returns the bounds per step
    in the L2 norm, and the EpsOperator that packs free nodes.
    """
    op = rt.EpsOperator(data.domain)
    grid = data.domain.grid
    scale = np.sqrt(grid.cell_volume)
    if law.delta == 0.0 and law.exponent.p_minus < 2.0:
        law = dataclasses.replace(law, delta=1e-8)  # the solver's own regularisation
    lip = low.c2 if low is not None else 0.0
    star = [op.to_free(vx.VectorField(grid, u)) for u in u_star.values]
    bound = [float(np.linalg.norm(op.to_free(data.u0) - star[0])) * scale]
    for k in range(1, data.steps + 1):
        p_nodes = law.exponent_at(data, k).reshape(-1)[op.masked_idx]
        r = op.to_free(vx.VectorField(grid, data.f_at(k))) - (star[k] - star[k - 1]) / data.tau
        r -= op.eps_adjoint(law.flux(op.eps(star[k]), p_nodes, op.d))
        if low is not None:
            r -= op.to_free(vx.VectorField(grid, low(u_star.values[k])))
        bound.append((bound[-1] + data.tau * float(np.linalg.norm(r)) * scale) / (1.0 - data.tau * lip))
    return bound, op


# ---------------------------------------------------------------------------
# norms-poincare

SWEEP_MAGNITUDES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
SWEEP_EXPONENTS = (1.1, 3.0, 10.0, 100.0)


def _norms_poincare(rng, smoke):
    n_each, p_cells = (6, 48) if smoke else (60, 128)
    grid = vx.grid_on_box([-3.0, -3.0], [3.0, 3.0], [64, 64])
    dom = vx.make_disc_domain((0.0, 0.0), 2.5, grid)
    p_two = two_region_exponent(dom)
    p_conj = vx.conjugate(p_two)
    oracle_f = [vx.ScalarField(grid, smooth_field(rng, grid)) for _ in range(n_each)]
    unit_f = [vx.ScalarField(grid, smooth_field(rng, grid)) for _ in range(n_each)]
    pairs = [
        (vx.ScalarField(grid, smooth_field(rng, grid)), vx.ScalarField(grid, smooth_field(rng, grid)))
        for _ in range(n_each)
    ]
    measure = dom.measure()
    tasks = []

    def oracle_task(i):
        def run(outdir):
            q = (1.1, 1.5, 2.0, 3.0)[i % 4]
            p = vx.constant_exponent(grid, q)
            lux = vx.luxembourg_norm(oracle_f[i], p, dom)
            oracle = vx.modular(oracle_f[i], p, dom) ** (1.0 / q)
            return _rel(lux, oracle) <= NORM_RTOL, {f"norms.oracle[{i}]": lux}
        return run

    def unit_task(i):
        def run(outdir):
            norm = vx.luxembourg_norm(unit_f[i], p_two, dom)
            gap = abs(vx.modular(unit_f[i] * (1.0 / norm), p_two, dom) - 1.0)
            return gap <= MODULAR_ATOL, {f"norms.unit[{i}]": norm}
        return run

    def holder_task(i):
        def run(outdir):
            f, g = pairs[i]
            pairing = abs(vx.holder_pairing(f, g, p_two, dom))
            nf = vx.luxembourg_norm(f, p_conj, dom)
            ng = vx.luxembourg_norm(g, p_two, dom)
            return pairing - 2.0 * nf * ng <= MODULAR_ATOL, {f"norms.holder[{i}]": [nf, ng]}
        return run

    def sweep_task(c, q):
        def run(outdir):
            f = vx.ScalarField(grid, np.full(grid.dims, c))
            lux = vx.luxembourg_norm(f, vx.constant_exponent(grid, q), dom)
            exact = c * measure ** (1.0 / q)
            return _rel(lux, exact) <= NORM_RTOL, {f"norms.sweep[{c:g},{q:g}]": lux}
        return run

    for i in range(n_each):
        tasks.append(Task(f"modular.oracle[{i}]", oracle_task(i)))
        tasks.append(Task(f"modular.unit_ball[{i}]", unit_task(i)))
        tasks.append(Task(f"modular.holder[{i}]", holder_task(i)))
    for c in SWEEP_MAGNITUDES:
        for q in SWEEP_EXPONENTS:
            tasks.append(Task(f"modular.sweep[{c:g},{q:g}]", sweep_task(c, q)))

    def clog_task(outdir):
        est = vmod.log_holder_estimate(p_two, vmod.CLOG_RADIUS_CELLS)
        # the scan covers nearest-neighbour pairs, so it bounds their modulus
        vals = p_two.values.values
        floor = 0.0
        for ax, h in enumerate(grid.spacing):
            diff = float(np.abs(np.diff(vals, axis=ax)).max())
            floor = max(floor, diff * np.log(np.e + 1.0 / h))
        return est >= floor * (1 - 1e-12) and np.isfinite(est), {"norms.clog": est}

    tasks.append(Task("modular.log_holder_estimate", clog_task))

    # Poincare: every near-boundary sample of a 128^2 disc
    pgrid = vx.grid_on_box([-3.0, -3.0], [3.0, 3.0], [p_cells, p_cells])
    pdom = vx.make_disc_domain((0.0, 0.0), 2.5, pgrid)
    state = {}

    def cone_task(outdir):
        cone = pc.cone_params_for(pdom, theta=np.pi / 4, h=1.0)
        state["cone"] = cone
        nodes = np.argwhere(pdom.mask & (pdom.r > 0) & (pdom.r <= cone.h0))
        state["samples"] = [tuple(nd) for nd in nodes]
        return len(nodes) > 0, {"poincare.samples": len(nodes)}

    def verify_task(name):
        def run(outdir):
            u = pc.standard_test_fields(pdom)[name]
            rep = pc.poincare_verify(u, pdom, state["samples"], cone=state["cone"],
                                     c0_budget=POINCARE_BUDGET)
            pc.write_report_csv(os.path.join(outdir, f"poincare_{name}.csv"), rep, pdom)
            return rep.passed, {f"poincare.c0[{name}]": rep.c0_empirical}
        return run

    def geometry_task(outdir):
        # cap areas scale exactly like radius^(d-1); the direction maps stay
        # non-degenerate on the sampled cone
        cap_err = max(_rel(pc.cap_area(d, 0.7, r), pc.cap_area(d, 0.7, 1.0) * r ** (d - 1))
                      for d in (2, 3) for r in (0.5, 2.0))
        det = pc.min_upphi_det(0.5, d=2)
        return cap_err <= 1e-12 and det > 0.0, {"poincare.min_upphi_det": det}

    tasks.append(Task("poincare.cone_params", cone_task))
    for name in ("radial", "swirl", "rigid_core"):
        tasks.append(Task(f"poincare.verify[{name}]", verify_task(name)))
    tasks.append(Task("poincare.geometry", geometry_task))
    return tasks


BUILDERS = {
    "korn-spacetime": _korn_spacetime,
    "smoothing": _smoothing,
    "rothe-mms": _rothe_mms,
    "norms-poincare": _norms_poincare,
}
