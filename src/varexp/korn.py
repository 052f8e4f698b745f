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

Each ingredient is built once.  `build_velocity` keeps u, and one
construction keeps |grad u|, |eps(u)| and p, each per (config, domain
object): both magnitudes come from one gradient pass over u, eps(u) being
its symmetric part, and `build_exponent`, `korn_ratio_sequence` and
`write_heatmaps` all read that construction.  `build_phi` keeps the
samples of phi_n per (n, time grid geometry).  Each cache is a bounded LRU
(four velocities, four constructions, 64 profiles) of immutable fields
with read-only arrays; configs are frozen and domains immutable, so keying
by them is exact.  A cached result has the bits of a fresh build: no output
depends on the caches.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os

import numpy as np

from .calculus import _grad_sym
from .fields import Grid, ScalarField, VectorField, _check_finite, _check_scalar, field_abs
from .fields import write_pgm, write_table
from .modular import ExponentField, _luxembourg_root
from .mollify import MollifierFamily, _gauss_legendre, _PaddedFFT, convolve

log = logging.getLogger(__name__)

#: velocities and constructions kept, each by (config, domain); at the CLI's
#: 512^2 cap one of each holds about 10 MB together
_CONSTRUCTIONS_KEPT = 4
#: phi_n samples kept, by n and the time grid's geometry
_PROFILES_KEPT = 64
#: time nodes per block of phi_n's quadrature integrand: 64 KB temporaries, where
#: whole-grid ones (2 MB a call at 256 nodes) can let glibc trim the heap after
#: each call and fault the pages in again on the next
_PHI_ROWS = 64

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
    that mollification scale; these three are finite and > 0.  omega1 is
    the region carrying the small exponent; it must admit an
    eps-neighborhood inside the domain whose complement still meets the
    support of the full gradient.
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
        for name in ("eps", "eta_radius", "eta_moll_eps"):
            _check_scalar(name, getattr(self, name), 0.0, above=True)
        A = np.asarray(self.skew, dtype=float)
        if not np.allclose(A, -A.T):
            raise ValueError("skew matrix must satisfy A = -A^T")
        # a nested tuple of floats keeps the config hashable and immutable
        object.__setattr__(self, "skew", tuple(map(tuple, A.tolist())))


@functools.lru_cache(maxsize=_CONSTRUCTIONS_KEPT)
def build_velocity(cfg, domain):
    """Velocity u(x) = eta(x) A x with eta the mollified ball indicator.

    eta equals 1 on the ball of radius eta_radius - eta_moll_eps, so there
    grad u = A exactly while eps(u) = 0; outside the eta_radius +
    eta_moll_eps ball u vanishes.  Built once per (cfg, domain).
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
    """Nodes at physical distance < radius from the mask (Euclidean dilation).

    The mask correlated with the open lattice ball of offsets k with
    sqrt(sum_i (k_i h_i)^2) < radius, the squares summed in axis order as a
    Euclidean distance transform sums them, in one zero-padded FFT product:
    a node is kept where its count of mask nodes in the ball exceeds 0.5.
    The ball reaches int(radius/h) + 1 nodes along an axis, at most n - 1:
    further offsets meet no node of the grid.
    """
    reach = [min(int(radius / h) + 1, n - 1) for h, n in zip(grid.spacing, grid.dims)]
    pad = _PaddedFFT(grid.dims, reach)
    d2 = 0.0
    for k, h in zip(np.ix_(*(np.arange(-r, r + 1) for r in reach)), grid.spacing):
        d2 = d2 + (k * h) * (k * h)
    spec, ball = (pad.rfft(a, np.empty(pad.half, complex)) for a in (mask, np.sqrt(d2) < radius))
    return pad.irfft(np.multiply(spec, ball, out=spec), np.empty(pad.rows)) > 0.5


def build_exponent(cfg, domain):
    """Two-valued smooth exponent: alpha on the absorbing region, beta far away.

    The region carrying alpha is the discrete support of eps(u); the
    exponent is the mollified indicator mix
        p = alpha * (omega_{eps/2} * chi) + beta * (1 - omega_{eps/2} * chi)
    with chi the indicator of the eps/2-neighborhood of that support.
    Exactly alpha on the support, exactly beta at distance > eps from it,
    and alpha <= p <= beta everywhere.  Built once per (cfg, domain).
    """
    return _construction(cfg, domain)[2]


@functools.lru_cache(maxsize=_CONSTRUCTIONS_KEPT)
def _construction(cfg, domain):
    """(|grad u|, |eps(u)|, p) of the velocity and the exponent, once per (cfg, domain)."""
    grad_abs, eps_abs = (field_abs(f) for f in _grad_sym(build_velocity(cfg, domain), domain))
    supp = _strain_support(eps_abs)
    g = domain.grid
    grown = _dilate_mask(supp, cfg.eps, g)
    if not (grown <= domain.mask).all():
        raise ValueError("the eps-neighborhood of the rigid ring leaks out of the domain")
    outside = domain.mask & ~grown
    gu_supp = grad_abs.values > 1e-13
    if not (outside & gu_supp).any():
        raise ValueError("the large-exponent region misses the gradient support")

    chi = ScalarField(g, _dilate_mask(supp, cfg.eps / 2.0, g).astype(float))
    # the FFT convolution leaves roundoff just outside [0, 1] in the transition ring
    mix = np.clip(convolve(chi, cfg.eps / 2.0).values, 0.0, 1.0)
    p = cfg.alpha * mix + cfg.beta * (1.0 - mix)
    return grad_abs, eps_abs, ExponentField(ScalarField(g, p))


def _strain_support(eps_abs):
    """The discrete support of eps(u): the nodes where |eps(u)| exceeds 1e-13 of its max."""
    return eps_abs.values > 1e-13 * eps_abs.max_abs()


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
    return ScalarField(time_grid, _phi_samples(n, time_grid.dims, time_grid.spacing, time_grid.origin))


@functools.lru_cache(maxsize=_PROFILES_KEPT)
def _phi_samples(n, dims, spacing, origin):
    """The values of `build_phi(n, Grid(dims, spacing, origin))`, read-only.

    A `Grid` cannot key the cache: its tolerant equality has no hash.
    """
    delta = 2.0 ** (-n)
    omega = MollifierFamily(1).scaled
    t = Grid(dims, spacing, origin).axis_coords(0)
    vals = np.zeros_like(t)

    def integrand(u, sign):
        out = np.empty_like(u)
        for start in range(0, t.size, _PHI_ROWS):
            rows = slice(start, start + _PHI_ROWS)
            ur = u[rows]
            out[rows] = (2.0 - 2.0 * ur) * omega((t[rows, None] - sign * ur * ur)[..., None], delta)
        return out

    for sign in (1.0, -1.0):  # an empty side has lo == hi and adds 0
        lo, hi = (np.sqrt(np.clip(sign * t + d, 0.0, 1.0)) for d in (-delta, delta))
        vals += _gauss_legendre(functools.partial(integrand, sign=sign), lo, hi)
    vals.flags.writeable = False
    return vals


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) of a finite 2-d array, max-shifted.

    The m entries that tie for a row's max a_max leave the sum:
    log1p(sum_rest exp(a - a_max) / m) + log(m) + a_max, the real-input
    formula of scipy.special.logsumexp (1.17), with its bits.
    """
    a_max = np.max(a, axis=1, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=1, keepdims=True, dtype=float)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def _log_time_modular(phi, qs):
    """log(tau * sum_t |phi(t)|^q) for each exponent q in the 1-d array qs."""
    a = np.abs(phi.values)
    log_a = np.log(a[a > 0.0])
    return _logsumexp_rows(qs[:, None] * log_a[None, :]) + np.log(phi.grid.spacing[0])


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
    abs_gu, abs_eu, p = _construction(cfg, domain)
    _check_finite(abs_gu.values)
    _check_finite(abs_eu.values)

    # pure-exponent regions for the factorized bound
    ring = _strain_support(abs_eu)
    far = domain.mask & (p.values.values >= cfg.beta - 1e-12) & ~ring
    vol = domain.grid.cell_volume
    g_beta = float(np.sum(abs_gu.values[far] ** cfg.beta) * vol) ** (1.0 / cfg.beta)
    e_alpha = float(np.sum(abs_eu.values[ring] ** cfg.alpha) * vol) ** (1.0 / cfg.alpha)

    a_gu = abs_gu.values[domain.mask]
    a_eu = abs_eu.values[domain.mask]
    q = p.values.values[domain.mask]
    # Phi_n(q) once per distinct exponent value; q is the same for every n
    qs, inv = np.unique(q, return_inverse=True)
    log_w = np.log(vol)
    bounds = np.array([cfg.alpha, cfg.beta])
    rows = []
    for n in range(1, n_max + 1):
        phi = build_phi(n, time_grid)
        log_phi = _log_time_modular(phi, qs)[inv]
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
    grad_abs, eps_abs, p = _construction(cfg, domain)
    panels = {"grad_u_abs.pgm": grad_abs, "sym_grad_abs.pgm": eps_abs, "exponent.pgm": p.values}
    paths = []
    for name, fld in panels.items():
        path = os.path.join(outdir, name)
        write_pgm(path, fld, comment=comment)
        paths.append(path)
    return paths
