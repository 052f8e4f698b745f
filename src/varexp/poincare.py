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
from .fields import _abs_values, fmt_float, write_table

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


def _boundary_nodes(domain):
    """A deterministic sample of about 48 masked nodes adjacent to the boundary."""
    near = domain.mask & (domain.r <= 1.5 * max(domain.grid.spacing))
    pts = np.argwhere(near)
    if len(pts) == 0:
        raise ValueError("domain has no boundary-adjacent nodes")
    return pts[:: max(1, len(pts) // 48)]


def _outward_axes(domain, nodes):
    """Unit directions of decreasing r at `nodes` (outward normal proxies), one row per node.

    Central differences of r, one-sided at the grid's edge; a node where every
    difference vanishes gets the first coordinate axis.
    """
    g = domain.grid
    shift = np.eye(g.ndim, dtype=np.intp)[:, None, :]  # [axis, node, :] steps one node along axis
    lo = np.maximum(nodes - shift, 0)
    hi = np.minimum(nodes + shift, np.subtract(g.dims, 1))
    step = np.sum(hi - lo, axis=2).T * np.asarray(g.spacing)
    vec = (domain.r[tuple(lo.T)] - domain.r[tuple(hi.T)]) / np.where(step == 0.0, 1.0, step)
    norm = np.linalg.norm(vec, axis=1, keepdims=True)
    vec[norm[:, 0] == 0.0, 0] = 1.0
    return vec / np.where(norm == 0.0, 1.0, norm)


def cone_params_for(domain, theta=np.pi / 4, h=None):
    """Exterior-cone parameters verified by sampling the cone against the mask.

    Discs admit any opening below pi/2 with outward radial axes; rectangles
    work with pi/4 cones along outward normals.  Each sampled boundary
    point draws 40 random directions, each with a random height, from
    `default_rng(0)`; a direction within the cone whose point lands
    strictly inside the mask rejects the parameters, and the error names
    the first such draw of the first such boundary point.  The draws are
    seeded but random, so on a domain that fails only along a few rays the
    verdict can depend on the draw order.
    """
    if domain.kind not in ("disc", "rectangle", "polygon-mask"):
        raise ValueError(f"unsupported domain kind {domain.kind!r}")
    g = domain.grid
    if h is None:
        h = float(domain.r.max())
    params = ConeParams(theta=theta, h=float(h))

    spacing = np.asarray(g.spacing)
    origin = np.asarray(g.origin)
    nodes = _boundary_nodes(domain)
    axes = _outward_axes(domain, nodes)
    # [node, draw]: a random direction, kept when it lies within the cone, and a height
    rng = np.random.default_rng(0)
    v = rng.normal(size=(len(nodes), 40, g.ndim))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    t = rng.uniform(1.5 * spacing.max(), h, size=(len(nodes), 40))
    y = (origin + nodes * spacing)[:, None, :] + t[..., None] * v
    idx = np.rint((y - origin) / spacing).astype(int)
    in_grid = np.all((idx >= 0) & (idx < g.dims), axis=2)
    at = tuple(np.where(in_grid[..., None], idx, 0).T)
    # one-cell tolerance: a boundary-layer hit is not a violation
    inside = (domain.mask[at] & (domain.r[at] > 1.5 * spacing.max())).T
    bad = (np.sum(v * axes[:, None, :], axis=2) >= np.cos(theta)) & in_grid & inside
    if bad.any():
        k, j = np.unravel_index(np.argmax(bad), bad.shape)  # node-major: first node, then first draw
        raise ValueError(
            f"exterior cone verification failed at node {tuple(nodes[k].tolist())}: "
            f"cone point {y[k, j]} lies inside the domain"
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


def phi_jacobian_fd(i, eta):
    """Central-difference Jacobian D(Phi_i) at eta (step 1e-6), shape (d, d-1)."""
    step = 1e-6
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    diff = [phi_map(i, eta + e) - phi_map(i, eta - e) for e in step * np.eye(eta.size)]
    return np.stack(diff, axis=1) / (2.0 * step)


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


def min_upphi_det(alpha, d=2):
    """Minimum |det| over a deterministic sweep of Q_alpha = {alpha/(2d) < |eta_i| < alpha}.

    The sweep takes 9 samples per sign on each axis.
    """
    lo = alpha / (2.0 * d)
    axis = np.concatenate(
        [np.linspace(-alpha * 0.999, -lo * 1.001, 9), np.linspace(lo * 1.001, alpha * 0.999, 9)]
    )
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    pts = np.stack([gg.reshape(-1) for gg in grids], axis=-1)
    return min((abs(upphi_det(eta)) for eta in pts if np.linalg.norm(eta) < alpha), default=np.inf)


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


def _riesz_batch(eps_abs, domain, nodes):
    """Riesz integrals of eps_abs over B_{2 r(x)}(x) intersected with the domain, per node.

    Nodes whose windows (the ball's bounding box, clipped to the grid) agree share one
    offset stencil of kernel values |y|^(1-d), with the singular-cell average at offset
    0, and are gathered in chunks of 64.  A window node counts when it is in the mask and
    within 2 r(x); each row sums in window order, so it equals the per-node sum exactly.
    """
    g = domain.grid
    d = g.ndim
    nodes = np.asarray(nodes, dtype=np.intp).reshape(-1, d)
    spacing = np.asarray(g.spacing)
    rad = 2.0 * domain.r[tuple(nodes.T)]
    reach = rad[:, None] / spacing
    lo = np.maximum(np.floor(nodes - reach).astype(int), 0) - nodes
    hi = np.minimum(np.ceil(nodes + reach).astype(int) + 1, g.dims) - nodes
    # one integer key per window: on an axis of n nodes lo + n - 1 is in [0, n), hi in [1, n]
    n = np.array(g.dims)
    key = np.ravel_multi_index(tuple(np.hstack([lo + n - 1, hi]).T), tuple(n) + tuple(n + 1))
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    strides = np.cumprod((1,) + g.dims[:0:-1])[::-1]
    # a node outside the mask adds a * 0.0 = 0.0 for finite a, so zero it once here
    flat_a = np.where(domain.mask, eps_abs, 0.0).ravel()
    singular = _singular_cell_average(spacing, d)
    out = np.empty(len(nodes))
    for w, (w_lo, w_hi) in enumerate(zip(lo[first], hi[first])):
        offsets = np.indices(w_hi - w_lo).reshape(d, -1).T + w_lo
        dist = np.sqrt(sum((offsets[:, ax] * spacing[ax]) ** 2 for ax in range(d)))
        kern = np.full(dist.shape, singular)
        kern[dist > 0] = dist[dist > 0] ** (1 - d)
        members = np.flatnonzero(which == w)
        for s in range(0, len(members), 64):
            rows = members[s : s + 64]
            flat = (nodes[rows] @ strides)[:, None] + offsets @ strides
            out[rows] = np.sum(flat_a[flat] * np.where(dist <= rad[rows, None], kern, 0.0), axis=1)
    return out * g.cell_volume


def riesz_rhs(u, domain, node, eps_u_abs=None):
    """Riesz-type integral of |eps(u)| over B_{2 r(x)}(x) intersected with the domain.

    `node` is a grid multi-index with r > 0 there.  All cells use the nodal
    kernel value except the singular cell, which uses a refined average.
    This is the one-sample call of the batch that `poincare_verify` uses.
    """
    node = tuple(int(k) for k in node)
    if float(domain.r[node]) <= 0.0:
        raise ValueError("sample point must lie strictly inside the domain")
    a = _abs_values(sym_gradient(u, domain)) if eps_u_abs is None else eps_u_abs
    return float(_riesz_batch(a, domain, [node])[0])


def _boundary_band(domain):
    """Domain nodes within one cell of the boundary, where a compactly supported field is zero."""
    return domain.mask & (domain.r <= max(domain.grid.spacing))


def standard_test_fields(domain, support_radius=None):
    """Three compactly supported velocity fields for disc-domain verification.

    Cubic compact profiles keep the values at near-boundary samples well
    above the float floor (an exponential bump would underflow there), and
    the support radii are grid-independent so empirical constants can be
    compared across resolutions.  The third field is rigid (rotation) on an
    inner core, so its symmetric gradient vanishes there.
    """
    g = domain.grid
    xx = g.coords()
    rho = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    # pass support_radius explicitly when fields must agree across grids;
    # 0.96 r.max() is only a per-grid fallback
    R0 = support_radius
    if R0 is None:
        R0 = 0.96 * float(domain.r.max())
        # on a disc centred at the origin (r + |x| is its radius) with a node
        # at or near the centre, r.max() is nearly the radius, and on a coarse
        # grid 0.96 of it reaches the boundary band that `poincare_verify`
        # asks to be zero: the support stops at the band's nearest node
        depth = (domain.r + rho)[domain.mask]
        if domain.kind == "disc" and depth.size and np.ptp(depth) <= 1e-12 * depth.max():
            R0 = min(R0, float(rho[_boundary_band(domain)].min(initial=np.inf)))
    if not R0 > 0.0:
        raise ValueError(f"the test fields' support radius {R0} is not positive")
    scale = R0 / 0.96

    def cubic(dist, radius):
        s2 = np.clip((dist / radius) ** 2, 0.0, 1.0)
        return (1.0 - s2) ** 3

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

    nodes: np.ndarray  # the samples' grid indices, a read-only (n, d) intp array
    r: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    c0_empirical: float
    passed: bool
    budget: float


def poincare_verify(u, domain, samples, cone=None, c0_budget=10.0):
    """Check |u(x)| <= c0 * riesz_rhs(x) on near-boundary samples, all in one batch.

    `samples` are grid multi-indices, as an (n, d) integer array or a
    sequence of d-tuples, and must satisfy 0 < r(x) <= h0 from the cone
    parameters.  u must be compactly supported: any nonzero value within one
    cell of the boundary rejects the field.  The report records the
    empirical constant max(lhs/rhs) over samples with rhs > 1e-14, and
    passes when lhs <= c0_budget * rhs + 1e-14 at every sample.
    """
    rhs_floor = 1e-14
    g = domain.grid
    cone = cone or cone_params_for(domain)
    h0 = cone.h0
    idx = np.array(samples, dtype=np.intp).reshape(-1, g.ndim)
    if not len(idx):
        raise ValueError("no samples to check")

    absu = _abs_values(u)
    if absu[_boundary_band(domain)].max(initial=0.0) > 1e-14 * max(absu.max(), 1.0):
        raise ValueError("u is not compactly supported: nonzero within one cell of the boundary")

    idx.flags.writeable = False
    r_arr = domain.r[tuple(idx.T)]
    bad = np.flatnonzero(~((r_arr > 0.0) & (r_arr <= h0 + 1e-12)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"sample {tuple(idx[k].tolist())} violates 0 < r <= h0 (r={r_arr[k]}, h0={h0})")

    lhs = absu[tuple(idx.T)]
    rhs = _riesz_batch(_abs_values(sym_gradient(u, domain)), domain, idx)
    usable = rhs > rhs_floor
    ratios = lhs[usable] / rhs[usable]
    c0 = float(ratios.max()) if ratios.size else 0.0
    ok = bool(np.all(lhs <= c0_budget * rhs + rhs_floor))
    return PoincareReport(idx, r_arr, lhs, rhs, c0, ok, c0_budget)


def write_report_csv(path, report, domain, comment=None):
    """Per-sample rows x1..xd,r,lhs,rhs,ratio, then a `# c0_empirical` summary line."""
    g = domain.grid
    header = [f"x{a + 1}" for a in range(g.ndim)] + ["r", "lhs", "rhs", "ratio"]
    x = np.asarray(g.origin) + report.nodes * np.asarray(g.spacing)
    ratio = np.divide(report.lhs, report.rhs, out=np.zeros_like(report.rhs), where=report.rhs > 0)
    write_table(path, header, np.column_stack([x, report.r, report.lhs, report.rhs, ratio]), comment)
    verdict = "PASS" if report.passed else "FAIL"
    c0, budget = fmt_float(report.c0_empirical), fmt_float(report.budget)
    with open(path, "a", encoding="ascii", newline="\n") as fh:
        fh.write(f"# c0_empirical {c0} budget {budget} {verdict}\n")
