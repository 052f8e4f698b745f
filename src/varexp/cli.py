"""Command-line driver: wires configs to experiments and output writers.

Subcommands: norms, mollify, korn-figure, poincare-verify, rothe-solve,
property-suite.  Configs are plain-text INI files with one section per
module; command-line flags override config values.  Every CSV written
carries a comment line with the effective-config hash and the seed, and
rerunning with the same config and seed reproduces outputs byte for byte.

Exit status is 0 iff every enabled check passes; a failing check names the
module invariant that failed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import os
import sys

import numpy as np

import varexp as vx
from varexp import korn as kn
from varexp import poincare as pc
from varexp import rothe as rt
from varexp.calculus import gradient, sym_gradient
from varexp.mollify import MollifierFamily, convolve, extend_exponent, maximal, reflect_extend, zero_extend

_DEFAULTS = {
    "run": {"seed": "0", "out": "out", "resolution": "64"},
    "domain": {"kind": "disc", "center": "0 0", "radius": "2.5", "extent": "-3 3"},
    "modular": {"exponent": "two-region"},
    "norms": {"fields": "100", "pairs": "200"},
    "mollify": {"fields": "8", "scales": "1 2 4 8"},
    "korn": {
        "alpha": "1.1",
        "beta": "2.0",
        "eps": "0.4",
        "time_interval": "-1.5 1.5",
        "time_resolution": "256",
        "n_max": "5",
    },
    "poincare": {"samples": "200", "budget": "10.0"},
    "rothe": {"T": "0.5", "steps_ladder": "8 16 32", "delta": "0.0", "p_constant": "2.0"},
}


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
    experiment: str
    out: str
    sections: dict
    digest: str

    @property
    def seed(self):
        return self.get("run", "seed", int)

    @property
    def resolution(self):
        return self.get("run", "resolution", int)

    def get(self, section, key, cast=str):
        try:
            raw = self.sections[section][key]
        except KeyError:
            raise ConfigError(f"missing config value [{section}] {key}")
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad config value [{section}] {key} = {raw!r}: {exc}")

    def get_pair(self, section, key):
        def pair(raw):
            lo, hi = map(float, raw.split())  # any other count is a ValueError
            return lo, hi

        return self.get(section, key, pair)

    def get_ints(self, section, key):
        return self.get(section, key, lambda raw: [int(tok) for tok in raw.split()])

    def stamp(self):
        return f"config {self.digest} seed {self.seed}"


def load_config(experiment, path, overrides):
    """Effective config: defaults, then file, then command-line overrides."""
    sections = {name: dict(values) for name, values in _DEFAULTS.items()}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file does not exist: {path}")
        parser = configparser.ConfigParser(strict=True, interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}")
        for name in parser.sections():
            sections.setdefault(name, {})
            for key, value in parser.items(name):
                sections[name][key] = value
    run = sections.setdefault("run", {})
    for key, value in overrides.items():
        if value is not None:
            run[key] = str(value)

    spec = sections.get("modular", {}).get("exponent", "two-region").split()
    if spec and spec[0] == "file":
        if len(spec) != 2 or not os.path.exists(spec[1]):
            raise ConfigError(f"[modular] exponent file does not exist: {' '.join(spec[1:])}")
    elif spec and spec[0] not in ("constant", "two-region"):
        raise ConfigError(f"[modular] exponent must be constant/two-region/file, got {spec[0]!r}")

    canon = []
    for name in sorted(sections):
        for key in sorted(sections[name]):
            if name == "run" and key == "out":
                continue  # the output location is not part of the experiment
            canon.append(f"[{name}] {key} = {sections[name][key]}")
    digest = hashlib.sha256(("\n".join([experiment] + canon)).encode()).hexdigest()[:16]
    cfg = RunConfig(experiment=experiment, out=run.get("out", "out"), sections=sections, digest=digest)
    if cfg.seed < 0:
        raise ConfigError("[run] seed must be a nonnegative integer")
    if cfg.resolution < 16:
        raise ConfigError(f"[run] resolution must be >= 16 cells per axis, got {cfg.resolution}")
    return cfg


class CheckLog:
    """Accumulates named pass/fail checks; failures name the module invariant."""

    def __init__(self):
        self.rows = []

    def record(self, invariant, value, bound, ok):
        self.rows.append((invariant, float(value), float(bound), bool(ok)))
        status = "pass" if ok else "FAIL"
        print(f"  [{status}] {invariant}: value={value:.6g} bound={bound:.6g}")

    def write_csv(self, path, stamp):
        rows = [(n, value, bound, "pass" if ok else "fail") for n, value, bound, ok in self.rows]
        vx.write_table(path, ["invariant", "value", "bound", "status"], rows, stamp)

    @property
    def failed(self):
        return [name for name, _, _, ok in self.rows if not ok]


def _build_domain(cfg):
    kind = cfg.get("domain", "kind")
    lo, hi = cfg.get_pair("domain", "extent")
    grid = vx.grid_on_box([lo, lo], [hi, hi], [cfg.resolution] * 2)
    if kind == "disc":
        center = cfg.get_pair("domain", "center")
        radius = cfg.get("domain", "radius", float)
        return vx.make_disc_domain(center, radius, grid)
    if kind == "rectangle":
        return vx.make_rectangle_domain([lo + 1e-9] * 2, [hi - 1e-9] * 2, grid)
    raise ConfigError(f"[domain] kind must be disc or rectangle, got {kind!r}")


def _random_smooth_field(rng, grid):
    """Seeded band-limited random field: a sum of four trigonometric products."""
    xx = grid.coords()
    span = [
        (grid.axis_coords(a)[-1] - grid.axis_coords(a)[0]) or 1.0 for a in range(grid.ndim)
    ]
    vals = np.zeros(grid.dims)
    for _ in range(4):
        ks = rng.integers(1, 4, size=grid.ndim)
        phase = rng.uniform(0, 2 * np.pi, size=grid.ndim)
        amp = rng.normal()
        term = np.ones(grid.dims)
        for a in range(grid.ndim):
            term = term * np.sin(np.pi * ks[a] * (xx[a] - grid.axis_coords(a)[0]) / span[a] + phase[a])
        vals += amp * term
    return vx.ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# experiments


def _configured_exponent(cfg, dom):
    """Exponent source per config: constant value, two-region, or field file."""
    spec = cfg.get("modular", "exponent").split()
    if spec[0] == "constant":
        return vx.constant_exponent(dom.grid, float(spec[1]) if len(spec) > 1 else 1.7)
    if spec[0] == "file":
        return vx.ExponentField(vx.read_field(spec[1]))
    return _two_region_exponent(dom)


def _exp_norms(cfg, outdir, log):
    rng = np.random.default_rng(cfg.seed)
    dom = _build_domain(cfg)
    grid = dom.grid
    n_fields = cfg.get("norms", "fields", int)
    worst_oracle = 0.0
    for i in range(n_fields):
        q = [1.1, 1.5, 2.0, 3.0][i % 4]
        f = _random_smooth_field(rng, grid)
        p = vx.constant_exponent(grid, q)
        lux = vx.luxembourg_norm(f, p, dom)
        oracle = vx.modular(f, p, dom) ** (1.0 / q)
        if oracle > 0:
            worst_oracle = max(worst_oracle, abs(lux - oracle) / oracle)
    log.record("modular.luxembourg_constant_exponent_oracle", worst_oracle, 1e-6, worst_oracle <= 1e-6)

    worst_unit = 0.0
    p_two = _configured_exponent(cfg, dom)
    for _ in range(n_fields // 2):
        f = _random_smooth_field(rng, grid)
        norm = vx.luxembourg_norm(f, p_two, dom)
        if norm > 0:
            worst_unit = max(worst_unit, abs(vx.modular(f * (1.0 / norm), p_two, dom) - 1.0))
    log.record("modular.unit_ball_property", worst_unit, 1e-6, worst_unit <= 1e-6)

    n_pairs = cfg.get("norms", "pairs", int)
    worst_holder = 0.0
    p_conj = vx.conjugate(p_two)
    for _ in range(n_pairs):
        f = _random_smooth_field(rng, grid)
        g = _random_smooth_field(rng, grid)
        pairing = abs(vx.holder_pairing(f, g, p_two, dom))
        bound = 2.0 * vx.luxembourg_norm(f, p_conj, dom) * vx.luxembourg_norm(g, p_two, dom)
        worst_holder = max(worst_holder, pairing - bound)
    log.record("modular.holder_constant_two", worst_holder, 1e-6, worst_holder <= 1e-6)
    log.write_csv(os.path.join(outdir, "norms.csv"), cfg.stamp())


def _two_region_exponent(dom):
    xx = dom.grid.coords()
    rho = np.sqrt(sum(c**2 for c in xx))
    scale = float(dom.r.max())
    mix = 0.5 * (1.0 + np.tanh((rho - 0.5 * scale) / (0.15 * scale)))
    return vx.ExponentField(vx.ScalarField(dom.grid, 1.4 + 0.8 * mix))


def _exp_mollify(cfg, outdir, log):
    rng = np.random.default_rng(cfg.seed)
    dom = _build_domain(cfg)
    grid = dom.grid
    scales = cfg.get_ints("mollify", "scales")
    hx = max(grid.spacing)
    worst = -np.inf
    for _ in range(cfg.get("mollify", "fields", int)):
        f = _random_smooth_field(rng, grid)
        M = maximal(f).values
        for k in scales:
            smooth = convolve(f, k * hx)
            worst = max(worst, float(np.max(np.abs(smooth.values) - 2.0 * M)))
    log.record("mollify.domination_two_maximal", worst, 1e-6, worst <= 1e-6)

    f = _random_smooth_field(rng, grid)
    p = _two_region_exponent(dom)
    errs = []
    for k in sorted(scales, reverse=True):
        err = vx.luxembourg_norm(convolve(f, k * hx) - f, p, dom)
        errs.append(err)
    monotone = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    log.record("mollify.convergence_monotone", float(monotone), 1.0, monotone)
    log.write_csv(os.path.join(outdir, "mollify.csv"), cfg.stamp())


def _exp_korn_figure(cfg, outdir, log):
    dom = _build_domain(cfg)
    t_lo, t_hi = cfg.get_pair("korn", "time_interval")
    t_res = cfg.get("korn", "time_resolution", int)
    tg = vx.grid_on_box([t_lo], [t_hi], [t_res])
    cfg_k = kn.WetBlanketConfig(
        alpha=cfg.get("korn", "alpha", float),
        beta=cfg.get("korn", "beta", float),
        eps=cfg.get("korn", "eps", float),
    )
    n_max = cfg.get("korn", "n_max", int)
    rows = kn.korn_ratio_sequence(cfg_k, dom, tg, n_max)
    kn.write_ratio_csv(os.path.join(outdir, "korn_ratio.csv"), rows, comment=cfg.stamp())
    kn.write_heatmaps(outdir, cfg_k, dom, comment=cfg.stamp())

    tt = tg.axis_coords(0)
    profiles = [kn.phi_raw(tt)] + [kn.build_phi(n, tg).values for n in range(1, n_max + 1)]
    vx.write_table(
        os.path.join(outdir, "phi_profiles.csv"),
        ["t", "phi_raw"] + [f"phi_{n}" for n in range(1, n_max + 1)],
        zip(tt, *profiles),
        cfg.stamp(),
    )

    increasing = all(rows[i + 1].ratio > rows[i].ratio for i in range(len(rows) - 1))
    log.record("korn.ratio_strictly_increasing", float(increasing), 1.0, increasing)
    above = min(r.ratio - (r.lower_bound * 0.95) for r in rows)
    log.record("korn.ratio_above_lower_bound", above, 0.0, above >= 0.0)


def _exp_poincare(cfg, outdir, log):
    dom = _build_domain(cfg)
    if dom.mask.all():
        raise ConfigError(
            f"[domain] kind = {cfg.get('domain', 'kind')} fills the grid, and poincare-verify "
            "needs nodes outside the domain for its exterior cones"
        )
    cone = pc.cone_params_for(dom, theta=np.pi / 4, h=1.0)
    budget = cfg.get("poincare", "budget", float)
    n_samples = cfg.get("poincare", "samples", int)
    samples = _near_boundary_samples(dom, cone.h0, n_samples)

    for name, u in pc.standard_test_fields(dom).items():
        rep = pc.poincare_verify(u, dom, samples, cone=cone, c0_budget=budget)
        pc.write_report_csv(
            os.path.join(outdir, f"poincare_{name}.csv"), rep, dom, comment=cfg.stamp()
        )
        log.record(f"poincare.pointwise_bound[{name}]", rep.c0_empirical, budget, rep.passed)


def _near_boundary_samples(dom, h0, count):
    cand = np.argwhere(dom.mask & (dom.r > 0) & (dom.r <= h0))  # C order
    stride = max(1, len(cand) // count)
    return [tuple(nd) for nd in cand[::stride][:count]]


def _exp_rothe(cfg, outdir, log):
    dom_cells = cfg.resolution
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [dom_cells, dom_cells])
    pad = 0.01 / dom_cells
    dom = vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)
    T = cfg.get("rothe", "T", float)
    delta = cfg.get("rothe", "delta", float)
    p_const = cfg.get("rothe", "p_constant", float)
    law = rt.ConstitutiveLaw(exponent=vx.constant_exponent(g, p_const), delta=delta)
    ladder = cfg.get_ints("rothe", "steps_ladder")
    if len(ladder) < 2:
        raise ConfigError(f"[rothe] steps_ladder needs two or more rungs, got {ladder}")

    errors = []
    for K in ladder:
        u_star, _, u0 = rt.mms_solution_p2(dom, T, K)
        base = rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
        f = rt.mms_forcing_discrete(u_star, law, base, rt.mms_time_derivative_p2(dom, T, K))
        data = rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K, f=f)
        traj, diags = rt.rothe_solve(data, law)
        step_errs = [
            float(np.sqrt(np.sum((u.values - u_star.values[k]) ** 2) * g.cell_volume))
            for k, u in enumerate(traj)
        ]
        errors.append(max(step_errs))
    # fields and diagnostics of the last ladder rung
    for k, u in enumerate(traj):
        vx.write_field(os.path.join(outdir, f"u_{k:04d}.field"), u, comment=cfg.stamp())
    rt.write_diagnostics_csv(
        os.path.join(outdir, "diagnostics.csv"),
        diags,
        comment=cfg.stamp(),
        extra_columns={"l2_error": step_errs[1:]},
    )
    vx.write_table(
        os.path.join(outdir, "mms_convergence.csv"),
        ["steps", "tau", "max_l2_error"],
        [(K_, T / K_, err) for K_, err in zip(ladder, errors)],
        cfg.stamp(),
    )
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(1.4 <= r <= 2.6 for r in ratios)
    log.record("rothe.mms_first_order_in_tau", min(ratios), 1.4, ok)


def _exp_property_suite(cfg, outdir, log):
    rng = np.random.default_rng(cfg.seed)
    g = vx.grid_on_box([0, 0], [1, 1], [24, 24])
    dom = vx.make_rectangle_domain([0, 0], [1, 1], g)

    # fields: integrate linearity and the triangle bound
    f1, f2 = (_random_smooth_field(rng, g) for _ in range(2))
    a, b = rng.normal(size=2)
    lin = abs(
        vx.integrate(a * f1 + b * f2, dom) - a * vx.integrate(f1, dom) - b * vx.integrate(f2, dom)
    )
    log.record("fields.integrate_linear", lin, 1e-12, lin <= 1e-12)
    tri = abs(vx.integrate(f1, dom)) - vx.integrate(vx.ScalarField(g, np.abs(f1.values)), dom)
    log.record("fields.integral_triangle_bound", tri, 1e-12, tri <= 1e-12)

    # calculus: trace identity and |eps| <= |grad| pointwise
    u = vx.VectorField(g, np.stack([f1.values, f2.values], axis=-1))
    eps = sym_gradient(u, dom)
    div_u = eps.values[..., 0] + eps.values[..., 1]
    gv = gradient(u, dom).values
    tr = float(np.abs(div_u - gv[..., 0, 0] - gv[..., 1, 1]).max())
    log.record("calculus.trace_eps_equals_div", tr, 1e-12, tr <= 1e-12)
    gap = float(np.max(vx.field_abs(eps).values - vx.field_abs(gradient(u, dom)).values))
    log.record("calculus.eps_below_gradient", gap, 1e-12, gap <= 1e-12)

    # mollify: kernel normalization, extension exactness, reflection modular
    w = MollifierFamily(2).sampled_weights(g.spacing, 4 * g.spacing[0])
    norm_err = abs(float(w.sum()) - 1.0)
    log.record("mollify.kernel_weights_sum_one", norm_err, 1e-12, norm_err <= 1e-12)
    p_var = _two_region_exponent(dom)
    big = zero_extend(f1, g.extended(0, 4, 4).extended(1, 3, 5))
    dom_big = vx.make_rectangle_domain([-2, -2], [3, 3], big.grid)
    ext_err = abs(
        vx.modular(big, extend_exponent(p_var, big.grid), dom_big) - vx.modular(f1, p_var, dom)
    )
    log.record("mollify.zero_extension_preserves_modular", ext_err, 1e-12, ext_err <= 1e-12)
    st = vx.Grid((12,) + g.dims, (1 / 12,) + g.spacing, (0.5 / 12,) + g.origin)
    u_st = vx.ScalarField(st, rng.normal(size=st.dims))
    refl = abs(
        vx.modular(reflect_extend(u_st), p_var, dom) - 3.0 * vx.modular(u_st, p_var, dom)
    )
    log.record("mollify.reflection_triples_modular", refl, 1e-10, refl <= 1e-10)

    # poincare geometry: unit range, cap scaling, rhs monotone in |eps|
    eta = rng.normal(size=1)
    unit = abs(np.linalg.norm(pc.phi_map(1, eta)) - 1.0)
    log.record("poincare.phi_unit_norm", unit, 1e-12, unit <= 1e-12)
    caps = [pc.cap_area(2, 0.7, r) / r for r in (0.5, 1.0, 2.0)]
    cap_err = max(abs(c - caps[0]) for c in caps)
    log.record("poincare.cap_scaling", cap_err, 1e-12, cap_err <= 1e-12)
    disc = vx.make_disc_domain((0.5, 0.5), 0.45, g)
    node = tuple(np.argwhere(disc.mask & (disc.r > 0) & (disc.r < 0.1))[0])
    small = np.abs(rng.normal(size=g.dims))
    zero_u = vx.VectorField(g, np.zeros(g.dims + (2,)))
    mono_gap = pc.riesz_rhs(zero_u, disc, node, eps_u_abs=small) - pc.riesz_rhs(
        zero_u, disc, node, eps_u_abs=small + 0.5
    )
    log.record("poincare.riesz_monotone_in_eps", mono_gap, 1e-14, mono_gap <= 1e-14)

    # korn: exponent sandwich with exact pure regions
    g_k = vx.grid_on_box([-3, -3], [3, 3], [48, 48])
    disc_k = vx.make_disc_domain((0, 0), 2.5, g_k)
    cfg_k = kn.WetBlanketConfig()
    p_k = kn.build_exponent(cfg_k, disc_k)
    sandwich = max(cfg_k.alpha - p_k.p_minus, p_k.p_plus - cfg_k.beta)
    log.record("korn.exponent_sandwich", sandwich, 1e-12, sandwich <= 1e-12)

    # rothe: constitutive sampling
    law = rt.ConstitutiveLaw(exponent=vx.constant_exponent(g, 1.8), delta=0.1)
    A = rng.normal(size=(2000, 3))
    B = rng.normal(size=(2000, 3))
    p_s = rng.uniform(1.1, 3.5, size=2000)
    SA = law.flux(A, p_s, 2)
    SB = law.flux(B, p_s, 2)
    wts = np.array([1.0, 1.0, 2.0])
    mono = float(np.min(np.sum(wts * (SA - SB) * (A - B), axis=-1)))
    log.record("rothe.flux_monotonicity", mono, -1e-10, mono >= -1e-10)

    log.write_csv(os.path.join(outdir, "property_suite.csv"), cfg.stamp())


EXPERIMENTS = {
    "norms": _exp_norms,
    "mollify": _exp_mollify,
    "korn-figure": _exp_korn_figure,
    "poincare-verify": _exp_poincare,
    "rothe-solve": _exp_rothe,
    "property-suite": _exp_property_suite,
}


def run(cfg):
    """Execute one experiment; returns the process exit status."""
    os.makedirs(cfg.out, exist_ok=True)
    print(f"experiment {cfg.experiment} (seed {cfg.seed}, out {cfg.out})")
    log = CheckLog()
    EXPERIMENTS[cfg.experiment](cfg, cfg.out, log)
    if log.failed:
        print("FAILED invariants: " + ", ".join(log.failed), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def main(argv=None):
    # numpy is already loaded here, so the cap reaches only the environment
    # of child processes; this process's thread pools keep their size
    threads = os.environ.get("VAREXP_THREADS")
    if threads is not None:
        if not threads.isdigit() or int(threads) < 1:
            print(f"VAREXP_THREADS must be a positive integer, got {threads!r}", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    parser = argparse.ArgumentParser(
        prog="varexp",
        description="variable-exponent norm, smoothing, and parabolic-solver experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (recorded in outputs)")
        p.add_argument("--resolution", type=int, default=None, help="grid cells per spatial axis")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.experiment,
            args.config,
            {"out": args.out, "seed": args.seed, "resolution": args.resolution},
        )
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
