"""Mollifiers, cutoffs, the maximal operator, extensions, and smoothing.

The scaled standard mollifier is sampled on the grid and its weights are
renormalized to sum exactly to 1, so convolution is exact on constants.
Convolution is a direct sum; the maximal operator is one zero-padded FFT
correlation per ladder radius.  The smoothing operator cuts off,
zero-extends, then mollifies; its quasi adjoint mollifies first and cuts
off afterwards.  Smoothing scales are snapped to whole grid cells so
support statements stay cell-exact.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage as _ndi

from .fields import Grid, ScalarField, SymTensorField, VectorField, _Field, _sym_part, field_abs
from .calculus import axis_derivative, sym_gradient
from .modular import ExponentField

__all__ = [
    "MollifierFamily",
    "CutoffFamily",
    "convolve",
    "maximal",
    "zero_extend",
    "restrict",
    "reflect_extend",
    "extend_exponent",
    "smooth_R",
    "smooth_Rstar",
    "sym_grad_smooth_decomposition",
]

_CNORM_CACHE = {}

# the one quadrature rule of the package (Golub & Welsch, Math. Comp. 23, 1969)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def _gauss_legendre(f, lo, hi):
    """Integral of a smooth f over [lo, hi]; bounds broadcast, the rule runs on a new last axis."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return half * (f((0.5 * (hi + lo))[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS)


def _unit_ball_mass(dim):
    """Integral of exp(-1/(1-|x|^2)) over the unit ball in R^dim, by the radial rule."""
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    radial = _gauss_legendre(lambda s: s ** (dim - 1) * np.exp(-1.0 / (1.0 - s * s)), 0.0, 1.0)
    return surf * float(radial)


class MollifierFamily:
    """The standard mollifier profile and its grid samplings in one dimension count.

    profile(x) = c_norm * exp(-1/(1-|x|^2)) inside the unit ball, 0 outside;
    the scaled kernel at scale eps is eps^-dim * profile(x/eps), supported in
    the closed ball of radius eps.
    """

    __slots__ = ("dim", "c_norm")

    def __init__(self, dim):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if dim not in _CNORM_CACHE:
            _CNORM_CACHE[dim] = 1.0 / _unit_ball_mass(dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c_norm", _CNORM_CACHE[dim])

    def __setattr__(self, name, value):
        raise AttributeError("MollifierFamily is immutable")

    def profile(self, x):
        """Unscaled profile omega(x) for points with |x| measured per row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r2 = np.sum(x * x, axis=-1)
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = self.c_norm * np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def scaled(self, x, eps):
        return self.profile(np.asarray(x, dtype=float) / eps) / eps**self.dim

    def sampled_weights(self, spacing, eps):
        """Discrete kernel on the grid lattice, renormalized to sum exactly 1.

        Rejects eps below any axis spacing (the kernel would degenerate to a
        point mass).  Returns an ndarray with odd length per axis.
        """
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != self.dim:
            raise ValueError(f"kernel is {self.dim}-dimensional, got {len(spacing)} spacings")
        eps = float(eps)
        if any(eps < s for s in spacing):
            raise ValueError(
                f"mollifier scale {eps} is below the grid spacing {max(spacing)}; "
                "refine the grid or enlarge the scale"
            )
        radii = [int(np.floor(eps / s)) for s in spacing]
        axes = [np.arange(-k, k + 1) * s for k, s in zip(radii, spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        w = self.profile(pts / eps).reshape([2 * k + 1 for k in radii])
        total = w.sum()
        if total <= 0.0:
            # only the center sample survives: point mass
            w = np.zeros_like(w)
            w[tuple(k for k in radii)] = 1.0
            return w
        return w / total


def convolve(f, eps):
    """Discrete convolution with the sampled scaled mollifier, componentwise.

    The mollifier has the dimension of the field's grid (time counts on a
    space-time grid), and the field is treated as zero outside its grid
    (zero-extension).  Direct summation, so the result is exactly 0
    wherever the kernel meets only zeros; an FFT leaves roundoff there, and
    the support statements of the cutoff and smoothing operators rely on
    the exact zeros.
    """
    if not isinstance(f, _Field):
        raise TypeError(f"not a field: {type(f)!r}")
    w = MollifierFamily(f.grid.ndim).sampled_weights(f.grid.spacing, eps)
    # trailing singleton axes leave the component axes unmixed
    w = w.reshape(w.shape + (1,) * (f.values.ndim - w.ndim))
    return type(f)(f.grid, _ndi.convolve(f.values, w, mode="constant", cval=0.0))


def _maximal_radii(max_cells, ndim):
    """Unit steps up to 8 cells, then ~2^(1/ndim) geometric steps.

    Consecutive ball node counts then stay within a factor ~2, which keeps
    the discrete averages a faithful lower proxy for the radius supremum.
    """
    radii = list(range(1, min(8, max_cells) + 1))
    factor = 2.0 ** (1.0 / ndim)
    while radii[-1] < max_cells:
        radii.append(min(max_cells, max(radii[-1] + 1, int(radii[-1] * factor))))
    return radii


def _lattice_ball(offsets, spacing, r):
    """Indicator of the lattice ball of radius r on broadcast signed offsets.

    A leading-axis offset k counts when |k| <= r/s and the leading radius
    rho stays within r; the last axis then keeps |k| <= floor(sqrt(r^2 -
    rho^2)/h_last).
    """
    *lead, last = offsets
    rho2 = 0.0
    keep = True
    for k, s in zip(lead, spacing[:-1]):
        rho2 = rho2 + (k * s) ** 2
        keep = keep & (np.abs(k) <= int(r / s))
    keep = keep & (rho2 <= r * r)
    half = np.floor(np.sqrt(np.maximum(r * r - rho2, 0.0)) / spacing[-1])
    return keep & (np.abs(last) <= half)


def maximal(f):
    """Discrete Hardy-Littlewood maximal function of |f|.

    M(f)(x) = max over a fixed radius ladder of the average of |f| over
    in-grid nodes within distance r of x (masked midpoint quadrature).
    Each rung is one zero-padded FFT correlation of |f|, and of the
    in-grid indicator, with the lattice ball; the node counts are rounded
    to integers.  Averages over in-grid nodes keep M(const) = const up to
    roundoff, and the ladder starts at the node value itself -- the
    discrete r -> 0 limit -- so M(f) >= |f| holds exactly, as in the
    continuum.
    """
    g = f.grid
    a = field_abs(f).values
    spacing = np.asarray(g.spacing)
    h_min = float(min(spacing))
    radii = _maximal_radii(int(np.ceil(g.diameter() / h_min)), g.ndim)

    # zero padding to 2n nodes per axis keeps the circular correlation
    # acyclic; its layout holds the offsets -n..n-1, and no offset of size
    # n or more reaches an in-grid node
    shape = tuple(2 * n for n in g.dims)
    axes = tuple(range(g.ndim))
    inside = tuple(slice(0, n) for n in g.dims)
    fa = np.fft.rfftn(a, shape, axes)
    fone = np.fft.rfftn(np.ones(g.dims), shape, axes)
    offsets = np.ix_(*[np.fft.ifftshift(np.arange(-n, n)) for n in g.dims])

    best = a.copy()
    for r_cells in radii:
        fk = np.fft.rfftn(_lattice_ball(offsets, spacing, r_cells * h_min), axes=axes)
        total = np.fft.irfftn(fa * fk, shape, axes)[inside]
        count = np.rint(np.fft.irfftn(fone * fk, shape, axes)[inside])
        np.maximum(best, total / count, out=best)
    return ScalarField(g, best)


# ---------------------------------------------------------------------------
# extensions


def _alignment_offsets(src, target):
    """Integer node offsets of src inside target; raises on misalignment."""
    if src.ndim != target.ndim:
        raise ValueError("grids have different dimensionality")
    offs = []
    for ax in range(src.ndim):
        if not np.isclose(src.spacing[ax], target.spacing[ax], rtol=1e-12):
            raise ValueError(f"axis {ax}: spacing differs between grids")
        delta = (src.origin[ax] - target.origin[ax]) / src.spacing[ax]
        k = int(round(delta))
        if abs(delta - k) > 1e-9:
            raise ValueError(f"axis {ax}: grids are not node-aligned")
        if k < 0 or k + src.dims[ax] > target.dims[ax]:
            raise ValueError(f"axis {ax}: source grid does not fit inside target")
        offs.append(k)
    return offs


def zero_extend(u, target_grid):
    """Copy the field onto a larger aligned grid, zero outside.

    Preserves every modular and Luxembourg norm exactly: zero adds nothing.
    """
    offs = _alignment_offsets(u.grid, target_grid)
    comp_shape = u.values.shape[u.grid.ndim :]
    out = np.zeros(target_grid.dims + comp_shape)
    sl = tuple(slice(k, k + n) for k, n in zip(offs, u.grid.dims))
    out[sl] = u.values
    cls = type(u)
    return cls(target_grid, out)


def restrict(u, target_grid):
    """Inverse of zero_extend: values of u at the nodes of a contained grid."""
    offs = _alignment_offsets(target_grid, u.grid)
    sl = tuple(slice(k, k + n) for k, n in zip(offs, target_grid.dims))
    return type(u)(target_grid, u.values[sl])


def reflect_extend(u):
    """Extension in time by reflection: u(-t) before, u(t), then u(2T - t).

    The time axis (axis 0) is read as cell-centered on (a, a+T); reflection
    about the interval endpoints is then node-aligned, every original value
    appears exactly three times, and the modular of the extension is
    exactly three times the modular of u.  Works for fields and exponent
    fields alike (exponents extend the same way).
    """
    if isinstance(u, ExponentField):
        ext = reflect_extend(u.values)
        return ExponentField(ext, _clog=u._clog[0])
    g = u.grid
    if g.ndim < 2:
        raise ValueError("reflect_extend expects a space-time field")
    K = g.dims[0]
    tau = g.spacing[0]
    ext_grid = Grid(
        (3 * K,) + g.dims[1:],
        g.spacing,
        (g.origin[0] - K * tau,) + g.origin[1:],
    )
    vals = np.concatenate([u.values[::-1], u.values, u.values[::-1]], axis=0)
    return type(u)(ext_grid, vals)


def extend_exponent(p, target_grid):
    """Exponent extension by nearest-node clamping.

    Preserves p- and p+ exactly; the log-Hoelder constant is only
    approximately preserved (clamping flattens the modulus off the source
    block), so the cached estimate is dropped and recomputed on demand.
    """
    offs = _alignment_offsets(p.grid, target_grid)
    src = p.values.values
    idx = []
    for ax in range(target_grid.ndim):
        j = np.arange(target_grid.dims[ax]) - offs[ax]
        idx.append(np.clip(j, 0, p.grid.dims[ax] - 1))
    mesh = np.meshgrid(*idx, indexing="ij")
    return ExponentField(ScalarField(target_grid, src[tuple(mesh)]))


# ---------------------------------------------------------------------------
# cutoffs and smoothing operators


def _snap_scale(h, domain):
    """Smoothing scale snapped to a whole number of (max) spatial cells."""
    hx = max(domain.grid.spacing)
    cells = int(round(float(h) / hx))
    if cells < 1:
        raise ValueError(f"smoothing scale {h} is below one grid cell ({hx})")
    return cells * hx


class CutoffFamily:
    """Smooth plateau eta_h: mollification of the indicator of the 5h/2 shrinkage.

    eta_h equals 1 on the 3h shrinkage, is supported in the 2h shrinkage
    (both up to one cell), takes values in [0, 1], and |grad eta_h| stays
    below c_eta / h with c_eta uniform over the tested range of h.  Every
    domain takes the discrete convolution of a one-cell antialiased
    indicator built from its distance function r.
    """

    __slots__ = ("domain", "h", "eta", "c_eta")

    def __init__(self, domain, h):
        h = _snap_scale(h, domain)
        hx = max(domain.grid.spacing)
        # antialiased indicator: nodal cell-coverage of {r > 5h/2}.  A sharp
        # 0/1 sampling would leave O(spacing) quadrature wiggles in eta; the
        # one-cell ramp keeps the sampling second order.
        chi = ScalarField(domain.grid, np.clip(0.5 + (domain.r - 2.5 * h) / hx, 0.0, 1.0))
        # kernel scale floors at 1.5 cells so the sampled kernel keeps
        # off-center weights even when h/2 dips below one spacing
        eps = max(0.5 * h, 1.5 * hx)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "eta", convolve(chi, eps))
        object.__setattr__(self, "c_eta", float(np.max(np.abs(self.grad_eta().values))) * h)

    def __setattr__(self, name, value):
        raise AttributeError("CutoffFamily is immutable")

    def grad_eta(self):
        """Spatial gradient of the cutoff as a VectorField (unmasked stencils)."""
        g = self.domain.grid
        comps = [axis_derivative(self.eta.values, ax, g.spacing[ax], None) for ax in range(g.ndim)]
        return VectorField(g, np.stack(comps, axis=-1))


def _spacetime_setup(u, domain, h):
    """Common plumbing: snap h, build cutoff, zero-extend in time by the kernel radius."""
    if not u.grid.matches_spatial(domain.grid):
        raise ValueError("u must live on a space-time grid over the domain's grid")
    h_eff = _snap_scale(h, domain)
    cutoff = CutoffFamily(domain, h_eff)
    kt = int(np.ceil(h_eff / u.grid.spacing[0] - 1e-12))
    target = u.grid.extended(0, kt, kt)
    return h_eff, cutoff, zero_extend(u, target)


def _mul_spatial(field, spatial_values):
    """Multiply a space-time field by a spatial nodal function (broadcast in time)."""
    shape = spatial_values.shape + (1,) * (field.values.ndim - 1 - spatial_values.ndim)
    vals = field.values * spatial_values.reshape((1,) + shape)
    return type(field)(field.grid, vals)


def smooth_R(u, domain, h):
    """Smoothing operator: mollify the cutoff zero-extension.

    Support is contained in (-h, T+h) x Omega_h up to one cell, the result
    is dominated pointwise by twice the maximal function of the
    zero-extension, and it converges to u as h -> 0.
    """
    h_eff, cutoff, fu = _spacetime_setup(u, domain, h)
    return convolve(_mul_spatial(fu, cutoff.eta.values), h_eff)


def smooth_Rstar(u, domain, h):
    """Quasi adjoint smoothing: mollify first, cut off afterwards.

    (Rstar u, v) = (u, R v) holds exactly on the discrete pairing; support
    is contained in (-h, T+h) x Omega_2h up to one cell.
    """
    h_eff, cutoff, fu = _spacetime_setup(u, domain, h)
    return _mul_spatial(convolve(fu, h_eff), cutoff.eta.values)


def sym_grad_smooth_decomposition(u, domain, h):
    """The two right-hand terms of eps(smooth_R(u)).

    termA smooths the symmetric gradient itself; termB mollifies the
    symmetrized tensor product of the zero-extension with grad eta_h.
    termB vanishes identically on Omega_4h (up to kernel snapping cells),
    and termA + termB reproduces eps(smooth_R(u)) to O(spacing^2) nodewise.
    """
    if not isinstance(u, VectorField):
        raise TypeError("decomposition expects a VectorField")
    h_eff, cutoff, fu = _spacetime_setup(u, domain, h)

    eps_u = sym_gradient(u, domain)
    f_eps = zero_extend(eps_u, fu.grid)
    termA = convolve(_mul_spatial(f_eps, cutoff.eta.values), h_eff)

    # u (x) grad eta_h, broadcast along time, then symmetrized
    outer = fu.values[..., :, None] * cutoff.grad_eta().values[np.newaxis, ..., None, :]
    termB = convolve(SymTensorField(fu.grid, _sym_part(outer)), h_eff)
    return termA, termB
