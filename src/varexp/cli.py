"""Command-line driver: wires configs to experiments and output writers.

Subcommands: norms, mollify, korn-figure, poincare-verify, rothe-solve,
property-suite.  Configs are plain-text INI files with one section per
module; command-line flags override config values.  `_KEYS` lists every
config key once, with its default and the parser that admits its range;
an unknown section or key, or a value outside its range, is a config
error that names its `[section] key`, and the process exits with status 2.
Every CSV written carries a comment line with the effective-config hash and
the seed, and rerunning with the same config and seed reproduces outputs
byte for byte.

Exit status is 0 iff every enabled check passes; a failing check names the
module invariant that failed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import dataclasses
import hashlib
import logging
import math
import os
import sys

import numpy as np

import varexp as vx
from varexp import korn as kn
from varexp import poincare as pc
from varexp import rothe as rt
from varexp.calculus import _grad_sym
from varexp.mollify import MollifierFamily, _env_threads, convolve, extend_exponent, maximal, reflect_extend, zero_extend


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _blame(keys):
    """Re-raise a library ValueError from a rule across config keys as a ConfigError naming `keys`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _values(cast, count=1, lo=-math.inf, hi=math.inf, above=False, more=False, increasing=False):
    """Parser of `count` (or, with `more`, count or more) finite values of `cast` in [lo, hi].

    `above` excludes lo and `increasing` asks a pair for lo < hi.  One value
    parses to a scalar, several to a list; other text raises ValueError.
    """
    noun = ("an integer", "integers") if cast is int else ("a finite number", "finite numbers")
    rule = f"must be {noun[0]}" if count == 1 else f"needs {count}{' or more' if more else ''} {noun[1]}"
    bounds = [f"{op} {b:g}" for op, b in ((">" if above else ">=", lo), ("<=", hi)) if math.isfinite(b)]
    rule += (" " + " and ".join(bounds) if bounds else "") + (", lo < hi" if increasing else "")

    def parse(raw):
        try:
            vals = [cast(tok) for tok in raw.split()]
        except ValueError:
            vals = []
        ok = len(vals) == count or (more and len(vals) > count)
        ok = ok and all(-math.inf < v < math.inf and (v > lo if above else v >= lo) and v <= hi for v in vals)
        if not ok or (increasing and vals[0] >= vals[1]):
            raise ValueError(rule)
        return vals[0] if count == 1 else vals

    return parse


def _text(*options):
    """Parser of nonempty text, one of `options` when any are given."""

    def parse(raw):
        if not raw.strip() or (options and raw not in options):
            raise ValueError(f"must be one of {', '.join(options)}" if options else "must not be empty")
        return raw

    return parse


def _two_region_exponent(dom):
    xx = dom.grid.coords()
    rho = np.sqrt(sum(c**2 for c in xx))
    scale = float(dom.r.max())
    mix = 0.5 * (1.0 + np.tanh((rho - 0.5 * scale) / (0.15 * scale)))
    return vx.ExponentField(vx.ScalarField(dom.grid, 1.4 + 0.8 * mix))


def _exponent_spec(raw):
    """The exponent as a function of the domain: constant P, two-region, or a field file."""
    kind, *args = raw.split() or [""]
    if kind == "constant" and len(args) == 1:
        p = _values(float, lo=1.0, hi=100.0, above=True)(args[0])
        return lambda dom: vx.constant_exponent(dom.grid, p)
    if kind == "two-region" and not args:
        return _two_region_exponent
    if kind == "file" and len(args) == 1:
        if not os.path.isfile(args[0]):
            raise ValueError(f"exponent file does not exist: {args[0]}")
        p = vx.ExponentField(vx.read_field(args[0]))

        def on_domain(dom):
            if p.grid != dom.grid:
                raise ValueError(f"the file's grid {p.grid} is not the domain's {dom.grid}")
            return p

        return on_domain
    raise ValueError("must be constant/two-region/file: `constant P` with P > 1, `two-region`, or `file PATH`")


_CORE = kn.WetBlanketConfig.eta_radius - kn.WetBlanketConfig.eta_moll_eps  # radius of the rigid core

# (section, key) -> (default text, parser); the digest hashes the merged texts
_KEYS = {
    ("run", "seed"): ("0", _values(int, lo=0)),
    ("run", "out"): ("out", _text()),
    ("run", "resolution"): ("64", _values(int, lo=16)),
    ("domain", "kind"): ("disc", _text("disc", "rectangle")),
    ("domain", "center"): ("0 0", _values(float, count=2, lo=-1e6, hi=1e6)),
    ("domain", "radius"): ("2.5", _values(float, lo=0.0, above=True)),
    ("domain", "extent"): ("-3 3", _values(float, count=2, lo=-1e6, hi=1e6, increasing=True)),
    ("modular", "exponent"): ("two-region", _exponent_spec),
    ("norms", "fields"): ("100", _values(int, lo=2, hi=10_000)),
    ("norms", "pairs"): ("200", _values(int, lo=1, hi=10_000)),
    ("mollify", "fields"): ("8", _values(int, lo=1, hi=1_000)),
    ("mollify", "scales"): ("1 2 4 8", _values(int, count=2, lo=1, hi=256, more=True)),
    ("korn", "alpha"): ("1.1", _values(float, lo=1.0, hi=100.0, above=True)),
    ("korn", "beta"): ("2.0", _values(float, lo=1.0, hi=100.0, above=True)),
    ("korn", "eps"): ("0.4", _values(float, lo=0.0, hi=_CORE, above=True)),
    ("korn", "time_interval"): ("-1.5 1.5", _values(float, count=2, increasing=True)),
    ("korn", "time_resolution"): ("256", _values(int, lo=2, hi=4096)),
    ("korn", "n_max"): ("5", _values(int, lo=1)),
    ("poincare", "samples"): ("200", _values(int, lo=1)),
    ("poincare", "budget"): ("10.0", _values(float, lo=0.0, above=True)),
    ("rothe", "T"): ("0.5", _values(float, lo=1e-6)),
    ("rothe", "steps_ladder"): ("8 16 32", _values(int, count=2, lo=1, hi=1024, more=True)),
    ("rothe", "delta"): ("0.0", _values(float, lo=0.0, hi=1e3)),
    ("rothe", "p_constant"): ("2.0", _values(float, lo=1.0, hi=10.0, above=True)),
}


def _resolution_cap(experiment):
    """Largest [run] resolution the experiment takes."""
    # from whole-process runs on a 2-vCPU VM: rothe-solve passes at 256 in 20 s and 428 MB but
    # fails at 512 after 205 s and 4.6 GB; the others finish 512 in at most 33 s
    return 256 if experiment == "rothe-solve" else 512


@dataclasses.dataclass
class RunConfig:
    experiment: str
    values: dict
    digest: str

    @property
    def seed(self):
        return self.get("run", "seed")

    @property
    def resolution(self):
        return self.get("run", "resolution")

    def get(self, section, key):
        return self.values[section, key]

    def stamp(self):
        return f"config {self.digest} seed {self.seed}"


def load_config(experiment, path, overrides):
    """Effective config: defaults, then file, then command-line overrides, each key parsed once."""
    texts = {section_key: default for section_key, (default, _) in _KEYS.items()}
    if path is not None:
        parser = configparser.ConfigParser(strict=True, interpolation=None)
        parser.optionxform = str  # keys are case-sensitive, as `[rothe] T` is
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file does not exist: {path}")
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}")
        for name in parser.sections():
            if name not in {section for section, _ in _KEYS}:
                raise ConfigError(f"unknown config section [{name}]")
            texts.update(((name, key), text) for key, text in parser.items(name))
    texts.update((("run", key), str(value)) for key, value in overrides.items() if value is not None)

    # the output location is not part of the experiment
    canon = [f"[{name}] {key} = {text}" for (name, key), text in sorted(texts.items())
             if (name, key) != ("run", "out")]
    digest = hashlib.sha256(("\n".join([experiment] + canon)).encode()).hexdigest()[:16]

    values = {}
    for (name, key), text in texts.items():
        if (name, key) not in _KEYS:
            raise ConfigError(f"unknown config key [{name}] {key}")
        try:
            values[name, key] = _KEYS[name, key][1](text)
        except ValueError as exc:
            raise ConfigError(f"bad config value [{name}] {key} = {text!r}: {exc}")
    cap = _resolution_cap(experiment)
    if values["run", "resolution"] > cap:
        text = texts["run", "resolution"]
        raise ConfigError(f"bad config value [run] resolution = {text!r}: {experiment} is capped at {cap}")
    return RunConfig(experiment=experiment, values=values, digest=digest)


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
    lo, hi = cfg.get("domain", "extent")
    grid = vx.grid_on_box([lo, lo], [hi, hi], [cfg.resolution] * 2)
    if cfg.get("domain", "kind") == "rectangle":
        with _blame(f"[domain] extent = {lo:g} {hi:g} for a rectangle"):
            return vx.make_rectangle_domain([lo + 1e-9] * 2, [hi - 1e-9] * 2, grid)
    radius = cfg.get("domain", "radius")
    with _blame(f"[domain] radius = {radius} does not fit [domain] center and [domain] extent"):
        dom = vx.make_disc_domain(cfg.get("domain", "center"), radius, grid)
    if not dom.mask.any():
        raise ConfigError(f"[domain] radius = {radius} holds no node at [run] resolution = {cfg.resolution}")
    return dom


def _random_smooth_field(rng, grid):
    """Seeded band-limited random field: a sum of four trigonometric products."""
    xs = [grid.axis_coords(a) for a in range(grid.ndim)]
    span = [(x[-1] - x[0]) or 1.0 for x in xs]
    vals = np.zeros(grid.dims)
    for _ in range(4):
        ks = rng.integers(1, 4, size=grid.ndim)
        phase = rng.uniform(0, 2 * np.pi, size=grid.ndim)
        amp = rng.normal()
        term = 1.0
        for a, x in enumerate(xs):
            # a factor varies along one axis: evaluate it there and broadcast it into the
            # product, which is the full-grid product bit for bit (1.0 * x is exact)
            sine = np.sin(np.pi * ks[a] * (x - x[0]) / span[a] + phase[a])
            term = term * sine.reshape((-1,) + (1,) * (grid.ndim - 1 - a))
        vals += amp * term
    return vx.ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# experiments


def _exp_norms(cfg, outdir, log):
    rng = np.random.default_rng(cfg.seed)
    dom = _build_domain(cfg)
    grid = dom.grid
    n_fields = cfg.get("norms", "fields")
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
    with _blame(f"[modular] exponent and [run] resolution = {cfg.resolution}"):
        p_two = cfg.get("modular", "exponent")(dom)
    for _ in range(n_fields // 2):
        f = _random_smooth_field(rng, grid)
        norm = vx.luxembourg_norm(f, p_two, dom)
        if norm > 0:
            worst_unit = max(worst_unit, abs(vx.modular(f * (1.0 / norm), p_two, dom) - 1.0))
    log.record("modular.unit_ball_property", worst_unit, 1e-6, worst_unit <= 1e-6)

    worst_holder = 0.0
    p_conj = vx.conjugate(p_two)
    for _ in range(cfg.get("norms", "pairs")):
        f, g = (_random_smooth_field(rng, grid) for _ in range(2))
        pairing = abs(vx.holder_pairing(f, g, domain=dom))
        bound = 2.0 * vx.luxembourg_norm(f, p_conj, dom) * vx.luxembourg_norm(g, p_two, dom)
        worst_holder = max(worst_holder, pairing - bound)
    log.record("modular.holder_constant_two", worst_holder, 1e-6, worst_holder <= 1e-6)
    log.write_csv(os.path.join(outdir, "norms.csv"), cfg.stamp())


def _exp_mollify(cfg, outdir, log):
    rng = np.random.default_rng(cfg.seed)
    dom = _build_domain(cfg)
    grid = dom.grid
    scales = cfg.get("mollify", "scales")
    hx = max(grid.spacing)
    worst = -np.inf
    for _ in range(cfg.get("mollify", "fields")):
        f = _random_smooth_field(rng, grid)
        M = maximal(f).values
        for k in scales:
            worst = max(worst, float(np.max(np.abs(convolve(f, k * hx).values) - 2.0 * M)))
    log.record("mollify.domination_two_maximal", worst, 1e-6, worst <= 1e-6)

    f = _random_smooth_field(rng, grid)
    p = _two_region_exponent(dom)
    errs = [vx.luxembourg_norm(convolve(f, k * hx) - f, p, dom) for k in sorted(scales, reverse=True)]
    monotone = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    log.record("mollify.convergence_monotone", float(monotone), 1.0, monotone)
    log.write_csv(os.path.join(outdir, "mollify.csv"), cfg.stamp())


def _exp_korn_figure(cfg, outdir, log):
    dom = _build_domain(cfg)
    tg = vx.grid_on_box(*cfg.get("korn", "time_interval"), cfg.get("korn", "time_resolution"))
    alpha, beta, eps = (cfg.get("korn", key) for key in ("alpha", "beta", "eps"))
    with _blame(f"[korn] alpha = {alpha} and [korn] beta = {beta}"):
        cfg_k = kn.WetBlanketConfig(alpha=alpha, beta=beta, eps=eps)
    n_max = cfg.get("korn", "n_max")
    tt = tg.axis_coords(0)
    # the profiles come first: build_phi checks the time grid against 2^-n
    with _blame(f"[korn] time_interval, [korn] time_resolution and [korn] n_max = {n_max}"):
        profiles = [kn.phi_raw(tt)] + [kn.build_phi(n, tg).values for n in range(1, n_max + 1)]
    with _blame(f"[run] resolution = {cfg.resolution}, the [domain] keys and [korn] eps = {eps}"):
        rows = kn.korn_ratio_sequence(cfg_k, dom, tg, n_max)
    kn.write_ratio_csv(os.path.join(outdir, "korn_ratio.csv"), rows, comment=cfg.stamp())
    kn.write_heatmaps(outdir, cfg_k, dom, comment=cfg.stamp())

    vx.write_table(
        os.path.join(outdir, "phi_profiles.csv"),
        ["t", "phi_raw"] + [f"phi_{n}" for n in range(1, n_max + 1)],
        np.column_stack([tt, *profiles]),
        cfg.stamp(),
    )

    increasing = all(rows[i + 1].ratio > rows[i].ratio for i in range(len(rows) - 1))
    log.record("korn.ratio_strictly_increasing", float(increasing), 1.0, increasing)
    above = min(r.ratio - (r.lower_bound * 0.95) for r in rows)
    log.record("korn.ratio_above_lower_bound", above, 0.0, above >= 0.0)


def _exp_poincare(cfg, outdir, log):
    dom = _build_domain(cfg)
    if dom.mask.all():
        raise ConfigError(f"[domain] kind = {cfg.get('domain', 'kind')} fills the grid, and poincare-verify "
                          "needs nodes outside the domain for its exterior cones")
    cone = pc.cone_params_for(dom, theta=np.pi / 4, h=1.0)
    budget = cfg.get("poincare", "budget")
    n_samples = cfg.get("poincare", "samples")
    cand = np.argwhere(dom.mask & (dom.r > 0) & (dom.r <= cone.h0))  # C order
    samples = cand[:: max(1, len(cand) // n_samples)][:n_samples]

    with _blame(f"[run] resolution = {cfg.resolution} and the [domain] keys"):
        reps = {name: pc.poincare_verify(u, dom, samples, cone=cone, c0_budget=budget)
                for name, u in pc.standard_test_fields(dom).items()}
    for name, rep in reps.items():
        pc.write_report_csv(os.path.join(outdir, f"poincare_{name}.csv"), rep, dom, comment=cfg.stamp())
        log.record(f"poincare.pointwise_bound[{name}]", rep.c0_empirical, budget, rep.passed)


def _exp_rothe(cfg, outdir, log):
    dom_cells = cfg.resolution
    g = vx.vertex_grid_on_box([0, 0], [1, 1], [dom_cells, dom_cells])
    pad = 0.01 / dom_cells
    dom = vx.make_rectangle_domain([-pad, -pad], [1 + pad, 1 + pad], g)
    T = cfg.get("rothe", "T")
    p = vx.constant_exponent(g, cfg.get("rothe", "p_constant"))
    law = rt.ConstitutiveLaw(exponent=p, delta=cfg.get("rothe", "delta"))
    ladder = cfg.get("rothe", "steps_ladder")

    errors = []
    for K in ladder:
        u_star, _, u0 = rt.mms_solution_p2(dom, T, K)
        base = rt.ProblemData(domain=dom, u0=u0, T=T, tau=T / K)
        f = rt.mms_forcing_discrete(u_star, law, base, rt.mms_time_derivative_p2(dom, T, K))
        data = dataclasses.replace(base, f=f)
        try:
            traj, diags = rt.rothe_solve(data, law)
        except rt.RotheStepError as exc:
            print(f"  rothe_solve at steps={K}: {exc}")
            log.record("rothe.energy_step_converged", exc.residual, math.nan, False)
            return
        step_errs = [float(np.sqrt(np.sum((u.values - u_star.values[k]) ** 2) * g.cell_volume))
                     for k, u in enumerate(traj)]
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
    lin = abs(vx.integrate(a * f1 + b * f2, dom) - a * vx.integrate(f1, dom) - b * vx.integrate(f2, dom))
    log.record("fields.integrate_linear", lin, 1e-12, lin <= 1e-12)
    tri = abs(vx.integrate(f1, dom)) - vx.integrate(vx.ScalarField(g, np.abs(f1.values)), dom)
    log.record("fields.integral_triangle_bound", tri, 1e-12, tri <= 1e-12)

    # calculus: trace identity and |eps| <= |grad| pointwise
    u = vx.VectorField(g, np.stack([f1.values, f2.values], axis=-1))
    grad, eps = _grad_sym(u, dom)
    div_u = eps.values[..., 0] + eps.values[..., 1]
    gv = grad.values
    tr = float(np.abs(div_u - gv[..., 0, 0] - gv[..., 1, 1]).max())
    log.record("calculus.trace_eps_equals_div", tr, 1e-12, tr <= 1e-12)
    gap = float(np.max(vx.field_abs(eps).values - vx.field_abs(grad).values))
    log.record("calculus.eps_below_gradient", gap, 1e-12, gap <= 1e-12)

    # mollify: kernel normalization, extension exactness, reflection modular
    w = MollifierFamily(2).sampled_weights(g.spacing, 4 * g.spacing[0])
    norm_err = abs(float(w.sum()) - 1.0)
    log.record("mollify.kernel_weights_sum_one", norm_err, 1e-12, norm_err <= 1e-12)
    p_var = _two_region_exponent(dom)
    big = zero_extend(f1, g.extended(0, 4, 4).extended(1, 3, 5))
    dom_big = vx.make_rectangle_domain([-2, -2], [3, 3], big.grid)
    ext_err = abs(vx.modular(big, extend_exponent(p_var, big.grid), dom_big) - vx.modular(f1, p_var, dom))
    log.record("mollify.zero_extension_preserves_modular", ext_err, 1e-12, ext_err <= 1e-12)
    st = vx.Grid((12,) + g.dims, (1 / 12,) + g.spacing, (0.5 / 12,) + g.origin)
    u_st = vx.ScalarField(st, rng.normal(size=st.dims))
    refl = abs(vx.modular(reflect_extend(u_st), p_var, dom) - 3.0 * vx.modular(u_st, p_var, dom))
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
    rhs = [pc.riesz_rhs(zero_u, disc, node, eps_u_abs=small + shift) for shift in (0.0, 0.5)]
    mono_gap = rhs[0] - rhs[1]
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
    A, B = (rng.normal(size=(2000, 3)) for _ in range(2))
    p_s = rng.uniform(1.1, 3.5, size=2000)
    SA, SB = (law.flux(X, p_s, 2) for X in (A, B))
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
    out = cfg.get("run", "out")
    os.makedirs(out, exist_ok=True)
    print(f"experiment {cfg.experiment} (seed {cfg.seed}, out {out})")
    log = CheckLog()
    EXPERIMENTS[cfg.experiment](cfg, out, log)
    if log.failed:
        print("FAILED invariants: " + ", ".join(log.failed), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _openblas_threads(verb):
    """numpy's bundled OpenBLAS `*_{verb}_num_threads*` ("set" or "get"), or None.

    The library is a dependency of numpy's core extension, so a symbol
    lookup through that extension finds it; numpy built on another BLAS has
    none of these symbols.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                # both take and return a C int, in LP64 and ILP64 builds alike
                fn.argtypes, fn.restype = ([ctypes.c_int], None) if verb == "set" else ([], ctypes.c_int)
                return fn
    return None


def main(argv=None):
    # numpy is loaded by now, so its OpenBLAS pool is capped through its own
    # setter; scipy loads later (with the Rothe solver) and reads the
    # environment, as child processes do
    try:
        threads = _env_threads()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(threads))
        set_threads = _openblas_threads("set")
        if set_threads is None:
            logging.getLogger(__name__).warning(
                "numpy's BLAS has no OpenBLAS thread setter; VAREXP_THREADS does not cap it")
        else:
            set_threads(threads)

    parser = argparse.ArgumentParser(
        prog="varexp", description="variable-exponent norm, smoothing, and parabolic-solver experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="RNG seed (recorded in outputs)")
        p.add_argument("--resolution", help="grid cells per spatial axis")
    args = parser.parse_args(argv)

    try:
        if args.out:  # exists even when the config is rejected
            os.makedirs(args.out, exist_ok=True)
        overrides = {key: getattr(args, key) for key in ("out", "seed", "resolution")}
        return run(load_config(args.experiment, args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
