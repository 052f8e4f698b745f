"""Pointwise Poincare inequality for the symmetric gradient near the boundary.

For x close to the boundary, |u(x)| is controlled by a Riesz-type integral
of |eps(u)| over the ball of radius 2 r(x) around x intersected with the
domain.  The geometric ingredients of the verification live here too: the
exterior-cone parameters of a domain, hyperspherical cap areas, and the
unit-sphere direction maps whose determinants make the averaging argument
non-degenerate.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .calculus import sym_gradient
from .fields import VectorField as VectorFieldNS
from .fields import field_abs, fmt_float, write_table

log = logging.getLogger(__name__)

__all__ = [
    "ConeParams",
    "cone_params_for",
    "cap_area",
    "phi_map",
    "phi_jacobian_fd",
    "upphi_det",
    "min_upphi_det",
    "riesz_rhs",
    "poincare_verify",
    "standard_test_fields",
    "PoincareReport",
    "write_report_csv",
]


@dataclasses.dataclass(frozen=True)
class ConeParams:
    """Exterior-cone data: opening angle, height, and the derived scales.

    h0 = h/4 is the near-boundary band where the pointwise inequality is
    checked; h1 = h0/4 is the smoothing-scale ceiling that keeps the
    near-boundary estimate applicable.
    """

    theta: float
    h: float

    def __post_init__(self):
        if not (0.0 < self.theta < np.pi / 2):
            raise ValueError("opening angle must lie in (0, pi/2)")
        if self.h <= 0:
            raise ValueError("cone height must be positive")

    @property
    def h0(self):
        return self.h / 4.0

    @property
    def h1(self):
        return self.h0 / 4.0


def _boundary_nodes(domain, count=64):
    """A deterministic sample of masked nodes adjacent to the boundary."""
    near = domain.mask & (domain.r <= 1.5 * max(domain.grid.spacing))
    pts = np.argwhere(near)
    if len(pts) == 0:
        raise ValueError("domain has no boundary-adjacent nodes")
    stride = max(1, len(pts) // count)
    return pts[::stride]


def _outward_axis(domain, node):
    """Unit direction of decreasing r at a node (outward normal proxy)."""
    g = domain.grid
    vec = np.zeros(g.ndim)
    for ax in range(g.ndim):
        lo = list(node)
        hi = list(node)
        lo[ax] = max(node[ax] - 1, 0)
        hi[ax] = min(node[ax] + 1, g.dims[ax] - 1)
        vec[ax] = (domain.r[tuple(lo)] - domain.r[tuple(hi)]) / (
            (hi[ax] - lo[ax]) * g.spacing[ax] or 1.0
        )
    n = np.linalg.norm(vec)
    if n == 0.0:
        vec[0] = 1.0
        return vec
    return vec / n


def cone_params_for(domain, theta=np.pi / 4, h=None, samples=48, rays=40):
    """Exterior-cone parameters verified by sampling the cone against the mask.

    Discs admit any opening below pi/2 with outward radial axes; rectangles
    work with pi/4 cones along outward normals.  Every sampled boundary
    point gets its cone sampled on a deterministic ray fan; a cone point
    landing strictly inside the mask rejects the parameters.
    """
    if domain.kind not in ("disc", "rectangle", "polygon-mask"):
        raise ValueError(f"unsupported domain kind {domain.kind!r}")
    if not (0.0 < theta < np.pi / 2):
        raise ValueError("opening angle must lie in (0, pi/2)")
    g = domain.grid
    if h is None:
        h = float(domain.r.max())
    params = ConeParams(theta=theta, h=float(h))

    spacing = np.asarray(g.spacing)
    origin = np.asarray(g.origin)
    rng = np.random.default_rng(0)
    for node in _boundary_nodes(domain, samples):
        x = origin + node * spacing
        axis = _outward_axis(domain, tuple(node))
        for _ in range(rays):
            # random direction within the cone, biased by rejection
            v = rng.normal(size=g.ndim)
            v /= np.linalg.norm(v)
            if v @ axis < np.cos(theta):
                continue
            t = rng.uniform(1.5 * spacing.max(), h)
            y = x + t * v
            idx = np.rint((y - origin) / spacing).astype(int)
            if np.any(idx < 0) or np.any(idx >= g.dims):
                continue
            # one-cell tolerance: a boundary-layer hit is not a violation
            if domain.mask[tuple(idx)] and domain.r[tuple(idx)] > 1.5 * spacing.max():
                raise ValueError(
                    f"exterior cone verification failed at node {tuple(node)}: "
                    f"cone point {y} lies inside the domain"
                )
    return params


def cap_area(d, opening, radius):
    """Surface area of the hyperspherical cap with given half-opening angle.

    d=2: arc length 2 * opening * radius; d=3: 2 pi radius^2 (1 - cos opening).
    Scales exactly like radius^(d-1).
    """
    if d not in (2, 3):
        raise ValueError("cap areas implemented for d in {2, 3}")
    if not (0.0 < opening <= np.pi):
        raise ValueError("opening must lie in (0, pi]")
    radius = float(radius)
    if d == 2:
        return 2.0 * opening * radius
    return 2.0 * np.pi * radius**2 * (1.0 - np.cos(opening))


def phi_map(i, eta):
    """Unit-sphere direction map Phi_i(eta) for i = 1..d, eta in R^(d-1).

    Phi_d(eta) = (eta, 1)/sqrt(|eta|^2+1); Phi_i flips the sign of the i-th
    component, which realizes Phi_i = E_i^T Phi_d.  |Phi_i(eta)| = 1 exactly.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    d = eta.size + 1
    if not (1 <= i <= d):
        raise ValueError(f"i must lie in 1..{d}")
    denom = np.sqrt(np.sum(eta**2) + 1.0)
    out = np.empty(d)
    out[: d - 1] = eta / denom
    out[d - 1] = 1.0 / denom
    if i < d:
        out[i - 1] = -eta[i - 1] / denom
    return out


def phi_jacobian_fd(i, eta, step=1e-6):
    """Finite-difference Jacobian D(Phi_i) at eta, shape (d, d-1)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    d = eta.size + 1
    J = np.empty((d, d - 1))
    for k in range(d - 1):
        e = np.zeros_like(eta)
        e[k] = step
        J[:, k] = (phi_map(i, eta + e) - phi_map(i, eta - e)) / (2.0 * step)
    return J


def upphi_det(eta):
    """Determinant of the d x d matrix with rows Phi_1(eta) .. Phi_d(eta).

    Nonzero whenever every component of eta is nonzero; a zero component is
    flagged in the log because the determinant may then vanish.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(eta == 0.0):
        log.warning("upphi_det: eta has a zero component; determinant may vanish")
    d = eta.size + 1
    M = np.stack([phi_map(i, eta) for i in range(1, d + 1)], axis=0)
    return float(np.linalg.det(M))


def min_upphi_det(alpha, d=2, samples_per_axis=9):
    """Minimum |det| over a deterministic sweep of Q_alpha = {alpha/(2d) < |eta_i| < alpha}."""
    lo = alpha / (2.0 * d)
    axis = np.concatenate(
        [np.linspace(-alpha * 0.999, -lo * 1.001, samples_per_axis),
         np.linspace(lo * 1.001, alpha * 0.999, samples_per_axis)]
    )
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    pts = np.stack([gg.reshape(-1) for gg in grids], axis=-1)
    best = np.inf
    for eta in pts:
        if np.linalg.norm(eta) >= alpha:
            continue
        best = min(best, abs(upphi_det(eta)))
    return best


# ---------------------------------------------------------------------------
# the inequality itself


def _singular_cell_average(spacing, d, refine=32):
    """Cell average of |y|^(1-d) over the cell containing the singularity.

    Midpoint refinement with an even subgrid keeps all sample points away
    from the origin; the kernel is locally integrable so the average is
    finite.
    """
    axes = [(np.arange(refine) + 0.5) / refine * s - s / 2.0 for s in spacing[:d]]
    mesh = np.meshgrid(*axes, indexing="ij")
    rr = np.sqrt(sum(m**2 for m in mesh))
    return float(np.mean(rr ** (1 - d)))


def riesz_rhs(u, domain, node, eps_u_abs=None):
    """Riesz-type integral of |eps(u)| over B_{2 r(x)}(x) intersected with the domain.

    `node` is a grid multi-index with r > 0 there.  All cells use the nodal
    kernel value except the singular cell, which uses a refined average.
    """
    g = domain.grid
    node = tuple(int(k) for k in node)
    rx = float(domain.r[node])
    if rx <= 0.0:
        raise ValueError("sample point must lie strictly inside the domain")
    a = field_abs(sym_gradient(u, domain)).values if eps_u_abs is None else eps_u_abs
    spacing = np.asarray(g.spacing)
    d = g.ndim
    rad = 2.0 * rx
    lo = [max(0, int(np.floor(node[ax] - rad / spacing[ax]))) for ax in range(d)]
    hi = [min(g.dims[ax], int(np.ceil(node[ax] + rad / spacing[ax])) + 1) for ax in range(d)]
    window = tuple(slice(l, h) for l, h in zip(lo, hi))
    mesh = np.meshgrid(
        *[(np.arange(l, h) - node[ax]) * spacing[ax] for ax, (l, h) in enumerate(zip(lo, hi))],
        indexing="ij",
    )
    dist = np.sqrt(sum(m**2 for m in mesh))
    inside = (dist <= rad) & domain.mask[window]
    kern = np.zeros_like(dist)
    nonzero = inside & (dist > 0)
    kern[nonzero] = dist[nonzero] ** (1 - d)
    center = tuple(node[ax] - lo[ax] for ax in range(d))
    if inside[center]:
        kern[center] = _singular_cell_average(spacing, d)
    return float(np.sum(a[window] * kern) * g.cell_volume)


def standard_test_fields(domain, support_radius=None):
    """Three compactly supported velocity fields for disc-domain verification.

    Cubic compact profiles keep the values at near-boundary samples well
    above the float floor (an exponential bump would underflow there), and
    the support radii are grid-independent so empirical constants can be
    compared across resolutions.  The third field is rigid (rotation) on an
    inner core, so its symmetric gradient vanishes there.
    """
    g = domain.grid
    # pass support_radius explicitly when fields must agree across grids;
    # r.max() is only a per-grid fallback
    R0 = support_radius if support_radius is not None else 0.96 * float(domain.r.max())
    scale = R0 / 0.96

    def cubic(dist, radius):
        s2 = np.clip((dist / radius) ** 2, 0.0, 1.0)
        return (1.0 - s2) ** 3

    xx = g.coords()
    rho = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    radial = cubic(rho, R0)
    fields = {
        "radial": VectorFieldNS(g, np.stack([radial, -0.5 * radial], axis=-1)),
    }
    x0 = (0.15 * scale, -0.1 * scale)
    rho2 = np.sqrt((xx[0] - x0[0]) ** 2 + (xx[1] - x0[1]) ** 2)
    swirl = cubic(rho2, R0 - float(np.hypot(*x0)))
    fields["swirl"] = VectorFieldNS(
        g, np.stack([-swirl * (xx[1] - x0[1]), swirl * (xx[0] - x0[0])], axis=-1)
    )
    # plateau 1 on the core, then a C1 cubic decay: rigid rotation inside
    eta = cubic(np.clip(rho - 0.24 * scale, 0.0, None), 0.4 * scale)
    fields["rigid_core"] = VectorFieldNS(g, np.stack([-eta * xx[1], eta * xx[0]], axis=-1))
    return fields


@dataclasses.dataclass(frozen=True)
class PoincareReport:
    """Per-sample left/right sides of the pointwise inequality and the empirical constant."""

    nodes: tuple
    r: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    c0_empirical: float
    passed: bool
    budget: float


def poincare_verify(u, domain, samples, cone=None, c0_budget=10.0, rhs_floor=1e-14):
    """Check |u(x)| <= c0 * riesz_rhs(x) on near-boundary samples.

    Samples must satisfy 0 < r(x) <= h0 from the cone parameters.  u must
    be compactly supported: any nonzero value within one cell of the
    boundary rejects the field.  The report records the empirical constant
    max(lhs/rhs) and passes when lhs <= c0_budget * rhs at every sample.
    """
    g = domain.grid
    cone = cone or cone_params_for(domain)
    h0 = cone.h0
    spacing_max = max(g.spacing)

    absu = field_abs(u).values
    edge = domain.mask & (domain.r <= spacing_max)
    if absu[edge].max(initial=0.0) > 1e-14 * max(absu.max(), 1.0):
        raise ValueError("u is not compactly supported: nonzero within one cell of the boundary")

    eps_abs = field_abs(sym_gradient(u, domain)).values
    nodes = [tuple(int(k) for k in nd) for nd in samples]
    for nd in nodes:
        rx = domain.r[nd]
        if not (0.0 < rx <= h0 + 1e-12):
            raise ValueError(f"sample {nd} violates 0 < r <= h0 (r={rx}, h0={h0})")

    r_arr = np.array([domain.r[nd] for nd in nodes])
    lhs = np.array([absu[nd] for nd in nodes])
    rhs = np.array([riesz_rhs(u, domain, nd, eps_u_abs=eps_abs) for nd in nodes])
    usable = rhs > rhs_floor
    ratios = lhs[usable] / rhs[usable]
    c0 = float(ratios.max()) if ratios.size else 0.0
    ok = bool(np.all(lhs <= c0_budget * rhs + rhs_floor))
    return PoincareReport(tuple(nodes), r_arr, lhs, rhs, c0, ok, c0_budget)


def write_report_csv(path, report, domain, comment=None):
    """Per-sample rows x1..xd,r,lhs,rhs,ratio plus a summary line."""
    g = domain.grid
    origin = np.asarray(g.origin)
    spacing = np.asarray(g.spacing)
    header = [f"x{a + 1}" for a in range(g.ndim)] + ["r", "lhs", "rhs", "ratio"]
    rows = []
    for k, nd in enumerate(report.nodes):
        ratio = report.lhs[k] / report.rhs[k] if report.rhs[k] > 0 else 0.0
        x = origin + np.asarray(nd) * spacing
        rows.append([*x, report.r[k], report.lhs[k], report.rhs[k], ratio])
    verdict = "PASS" if report.passed else "FAIL"
    c0, budget = fmt_float(report.c0_empirical), fmt_float(report.budget)
    rows.append([f"# c0_empirical {c0} budget {budget} {verdict}"])  # summary as a comment row
    write_table(path, header, rows, comment)
