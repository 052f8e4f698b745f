"""Failure of the parabolic Korn inequality: construction and measurement.

A smooth two-valued exponent is laid over a velocity field that is rigid
(rotation-like) on an inner disc: its full gradient survives there while
the symmetric gradient vanishes.  Pairing the field with a time profile
whose small-exponent norm stays finite but whose large-exponent norm blows
up makes the ratio ||grad(phi_n u)|| / ||eps(phi_n u)|| grow without bound
in the space-time Luxembourg norm, while for a constant exponent the ratio
stays flat.  This module builds all ingredients on a spatial grid and a
1-d time grid, never on their product: the exponent is constant in time, so
the space-time modular of phi(t) F(x) factors into spatial and time sums.
The mollified profile phi_n is sampled with one fixed Gauss-Legendre rule,
after a substitution that removes the profile's singularity at t = 0.
It reports the ratio table plus its analytic lower bound.
"""

from __future__ import annotations

import dataclasses
import logging
import os

import numpy as np
from scipy import ndimage as _ndi
from scipy.special import logsumexp

from .calculus import gradient, sym_gradient
from .fields import ScalarField, VectorField, field_abs, write_pgm, write_table
from .modular import ExponentField, _luxembourg_root
from .mollify import MollifierFamily, _gauss_legendre, convolve

log = logging.getLogger(__name__)

__all__ = [
    "WetBlanketConfig",
    "build_exponent",
    "build_velocity",
    "build_phi",
    "phi_raw",
    "korn_ratio_sequence",
    "KornRatioRow",
    "write_ratio_csv",
    "write_heatmaps",
]


@dataclasses.dataclass(frozen=True)
class WetBlanketConfig:
    """Parameters of the two-valued exponent and the rigid-core velocity.

    alpha/beta are the exponent bounds (1 < alpha < beta), eps the
    separation scale of the exponent transition ring, eta_radius the radius
    of the indicator mollified into the velocity cutoff, and eta_moll_eps
    that mollification scale.  omega1 is the region carrying the small
    exponent; it must admit an eps-neighborhood inside the domain whose
    complement still meets the support of the full gradient.
    """

    alpha: float = 1.1
    beta: float = 2.0
    eps: float = 0.4
    skew: tuple = ((0.0, -1.0), (1.0, 0.0))
    eta_radius: float = 1.0
    eta_moll_eps: float = 0.4

    def __post_init__(self):
        if not (1.0 < self.alpha <= self.beta):
            raise ValueError("need 1 < alpha <= beta")
        if self.eps <= 0:
            raise ValueError("need eps > 0")
        A = np.asarray(self.skew, dtype=float)
        if not np.allclose(A, -A.T):
            raise ValueError("skew matrix must satisfy A = -A^T")


def build_velocity(cfg, domain):
    """Velocity u(x) = eta(x) A x with eta the mollified ball indicator.

    eta equals 1 on the ball of radius eta_radius - eta_moll_eps, so there
    grad u = A exactly while eps(u) = 0; outside the eta_radius +
    eta_moll_eps ball u vanishes.
    """
    g = domain.grid
    if g.ndim != 2:
        raise ValueError("the construction is two-dimensional")
    ball = cfg.eta_radius + cfg.eta_moll_eps
    xx = g.coords()
    dist = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    covered = dist <= ball + max(g.spacing)
    if not domain.mask[covered].all():
        raise ValueError("the mollified ball does not fit compactly inside the domain")
    chi = ScalarField(g, (dist < cfg.eta_radius).astype(float))
    eta = convolve(chi, cfg.eta_moll_eps)
    A = np.asarray(cfg.skew, dtype=float)
    ax = np.stack([A[0, 0] * xx[0] + A[0, 1] * xx[1], A[1, 0] * xx[0] + A[1, 1] * xx[1]], axis=-1)
    return VectorField(g, eta.values[..., None] * ax)


def _dilate_mask(mask, radius, grid):
    """Nodes within physical `radius` of the mask (Euclidean dilation)."""
    out_dist = _ndi.distance_transform_edt(~mask, sampling=grid.spacing)
    return mask | (out_dist < radius)


def build_exponent(cfg, domain, velocity=None):
    """Two-valued smooth exponent: alpha on the absorbing region, beta far away.

    The region carrying alpha is the discrete support of eps(u); the
    exponent is the mollified indicator mix
        p = alpha * (omega_{eps/2} * chi) + beta * (1 - omega_{eps/2} * chi)
    with chi the indicator of the eps/2-neighborhood of that support.
    Exactly alpha on the support, exactly beta at distance > eps from it.
    """
    u = build_velocity(cfg, domain) if velocity is None else velocity
    eps_u = sym_gradient(u, domain)
    supp = field_abs(eps_u).values > 1e-13 * field_abs(eps_u).max_abs()
    g = domain.grid
    grown = _dilate_mask(supp, cfg.eps, g)
    if not (grown <= domain.mask).all():
        raise ValueError("the eps-neighborhood of the rigid ring leaks out of the domain")
    outside = domain.mask & ~grown
    gu_supp = field_abs(gradient(u, domain)).values > 1e-13
    if not (outside & gu_supp).any():
        raise ValueError("the large-exponent region misses the gradient support")

    chi = ScalarField(g, _dilate_mask(supp, cfg.eps / 2.0, g).astype(float))
    mix = convolve(chi, cfg.eps / 2.0).values
    p = cfg.alpha * mix + cfg.beta * (1.0 - mix)
    return ExponentField(ScalarField(g, p))


def phi_raw(t):
    """The singular profile chi_(-1,1)(t) * (|t|^(-1/2) - 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (np.abs(t) < 1.0) & (t != 0.0)
    out[inside] = np.abs(t[inside]) ** -0.5 - 1.0
    return out


def build_phi(n, time_grid):
    """Mollification phi_n = phi * omega_{2^-n} sampled on a 1-d time grid.

    The window (t - delta, t + delta) within (-1, 1) is split at 0; on each
    side s = sign * u^2 turns (|s|^-1/2 - 1) ds into the smooth (2 - 2u) du,
    and one fixed Gauss-Legendre rule runs over all nodes at once.  The time
    grid must resolve the scale 2^-n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if time_grid.ndim != 1:
        raise ValueError("build_phi expects a 1-d time grid")
    delta = 2.0 ** (-n)
    tau = time_grid.spacing[0]
    if tau > delta:
        raise ValueError(f"time grid too coarse for n={n}: spacing {tau} > {delta}")
    omega = MollifierFamily(1).scaled
    t = time_grid.axis_coords(0)
    vals = np.zeros_like(t)
    for sign in (1.0, -1.0):  # an empty side has lo == hi and adds 0
        lo, hi = (np.sqrt(np.clip(sign * t + d, 0.0, 1.0)) for d in (-delta, delta))
        vals += _gauss_legendre(
            lambda u: (2.0 - 2.0 * u) * omega((t[:, None] - sign * u * u)[..., None], delta), lo, hi
        )
    return ScalarField(time_grid, vals)


def _log_time_modular(phi, q):
    """log(tau * sum_t |phi(t)|^q) for each exponent in q, once per distinct value."""
    qs, inv = np.unique(q, return_inverse=True)
    a = np.abs(phi.values)
    log_a = np.log(a[a > 0.0])
    log_mod = logsumexp(qs[:, None] * log_a[None, :], axis=1) + np.log(phi.grid.spacing[0])
    return log_mod[inv]


@dataclasses.dataclass(frozen=True)
class KornRatioRow:
    n: int
    norm_alpha: float
    norm_beta: float
    num: float
    den: float
    ratio: float
    lower_bound: float


def korn_ratio_sequence(cfg, domain, time_grid, n_max):
    """Table of (n, norms, num, den, ratio, lower bound) for n = 1..n_max.

    num and den are space-time Luxembourg norms of phi_n grad u and
    phi_n eps(u), to the relative accuracy 1e-8 of `luxembourg_norm`; the
    exponent p(x) must be constant in time.  Then the modular factors exactly,
        rho(phi_n F / lambda) = sum_x w |F(x)|^p(x) lambda^-p(x) Phi_n(p(x)),
    with Phi_n(q) the midpoint-rule time modular of phi_n, so both norms are
    Luxembourg roots over the spatial nodes alone.  The lower
    bound is the separable-region factorization
        ||phi_n||_beta ||grad u||_{beta, far region} /
        (||phi_n||_alpha ||eps u||_{alpha, ring}),
    computed independently of the Luxembourg root finder.
    """
    u = build_velocity(cfg, domain)
    p = build_exponent(cfg, domain, velocity=u)
    gu = gradient(u, domain)
    eu = sym_gradient(u, domain)
    abs_gu = field_abs(gu)
    abs_eu = field_abs(eu)
    if not (np.all(np.isfinite(abs_gu.values)) and np.all(np.isfinite(abs_eu.values))):
        raise ValueError("field has non-finite values")

    # pure-exponent regions for the factorized bound
    ring = abs_eu.values > 1e-13 * abs_eu.max_abs()
    far = domain.mask & (p.values.values >= cfg.beta - 1e-12) & ~ring
    vol = domain.grid.cell_volume
    g_beta = float(np.sum(abs_gu.values[far] ** cfg.beta) * vol) ** (1.0 / cfg.beta)
    e_alpha = float(np.sum(abs_eu.values[ring] ** cfg.alpha) * vol) ** (1.0 / cfg.alpha)

    a_gu = abs_gu.values[domain.mask]
    a_eu = abs_eu.values[domain.mask]
    q = p.values.values[domain.mask]
    log_w = np.log(vol)
    bounds = np.array([cfg.alpha, cfg.beta])
    rows = []
    for n in range(1, n_max + 1):
        phi = build_phi(n, time_grid)
        log_phi = _log_time_modular(phi, q)
        num = _luxembourg_root(a_gu, q, log_phi, log_w, 1e-8)
        den = _luxembourg_root(a_eu, q, log_phi, log_w, 1e-8)
        if den <= 1e-12 * max(num, 1.0):
            log.warning("korn ratio denominator below quadrature floor at n=%d", n)
            ratio = float("inf")
        else:
            ratio = num / den
        na, nb = (float(v) for v in np.exp(_log_time_modular(phi, bounds) / bounds))
        lower = (nb * g_beta) / (na * e_alpha) if na * e_alpha > 0 else float("inf")
        rows.append(KornRatioRow(n, na, nb, num, den, ratio, lower))
    return rows


def write_ratio_csv(path, rows, comment=None):
    """One line per KornRatioRow, in field order."""
    header = [f.name for f in dataclasses.fields(KornRatioRow)]
    write_table(path, header, [dataclasses.astuple(r) for r in rows], comment)


def write_heatmaps(outdir, cfg, domain, comment=None):
    """Graymap rasters of |grad u|, |eps(u)|, and the exponent, with sidecars."""
    u = build_velocity(cfg, domain)
    p = build_exponent(cfg, domain, velocity=u)
    panels = {
        "grad_u_abs.pgm": field_abs(gradient(u, domain)),
        "sym_grad_abs.pgm": field_abs(sym_gradient(u, domain)),
        "exponent.pgm": p.values,
    }
    paths = []
    for name, fld in panels.items():
        path = os.path.join(outdir, name)
        write_pgm(path, fld, comment=comment)
        paths.append(path)
    return paths
