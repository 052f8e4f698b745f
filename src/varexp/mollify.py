"""Mollifiers, cutoffs, the maximal operator, extensions, and smoothing.

The scaled standard mollifier is sampled on the grid and its weights are
renormalized to sum exactly to 1, so convolution is exact on constants.
Convolution and the maximal operator share one zero-padded FFT core,
`_PaddedFFT`, which also dilates `korn`'s masks.  Convolution is one
product per component, and an integer window sum restores the exact zeros
and exact constants that the support statements need; the maximal operator
is one correlation per ladder radius, each padded only as far as its ball
reaches.  The smoothing operator cuts off, zero-extends, then mollifies;
its quasi adjoint mollifies first and cuts off afterwards.  Neither builds
the zero-extended field or the cutoff product: the padded transform takes
the field's own values a few rows into its time axis, and the cutoff
multiplies each component on its way into the transform's buffer, with the
same values, bit for bit.  Smoothing scales are snapped to whole grid
cells so support statements stay cell-exact.

The FFT work runs on two lanes where the process may use two or more CPUs
and VAREXP_THREADS is not 1: the calling thread and one worker thread,
started on first use.  `maximal` splits its padded-shape groups of rungs
between them, and `convolve` computes its window sum on the worker while
the caller transforms the components, once the padded transform holds
`_LANE_MIN_NODES` nodes.  Each lane computes the same values the serial
path does, so the outputs do not depend on the lanes; VAREXP_THREADS=1
keeps mollify serial, and a value that is not a positive integer is
refused with a ValueError.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily: load it here, not in the first convolve)

from .fields import Grid, ScalarField, SymTensorField, VectorField, _check_finite, _check_scalar, _check_values_finite
from .fields import _close, _Field, _Frozen, field_abs, sym_pairs
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

#: padded transform nodes from which `convolve` hands its window sum to the
#: worker lane; below it the hand-off costs more than the overlap saves
#: (measured on 2 vCPUs: 20 736 nodes 0.65 -> 0.87 ms, 28 800 1.37 -> 0.97 ms)
_LANE_MIN_NODES = 30_000

_WORKER = None

# the one quadrature rule of the package (Golub & Welsch, Math. Comp. 23, 1969)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def _gauss_legendre(f, lo, hi):
    """Integral of a smooth f over [lo, hi]; bounds broadcast, the rule runs on a new last axis."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return half * (f((0.5 * (hi + lo))[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS)


@functools.cache
def _unit_ball_mass(dim):
    """Integral of exp(-1/(1-|x|^2)) over the unit ball in R^dim, by the radial rule."""
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    radial = _gauss_legendre(lambda s: s ** (dim - 1) * np.exp(-1.0 / (1.0 - s * s)), 0.0, 1.0)
    return surf * float(radial)


class MollifierFamily(_Frozen):
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
        self._set(dim=dim, c_norm=1.0 / _unit_ball_mass(dim))

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
        eps = _check_scalar("mollifier scale eps", eps, 0.0, above=True)
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
        return w / w.sum()


def _fast_length(n):
    """Smallest 2*3*5-smooth length >= n, where the FFT runs fastest."""
    m = n
    while True:
        k = m
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        if k == 1:
            return m
        m += 1


def _env_threads():
    """VAREXP_THREADS as a positive int, read at each call; None when it is unset.

    Anything but a positive decimal integer is refused with a ValueError.
    """
    threads = os.environ.get("VAREXP_THREADS")
    if threads is not None and not (threads.isdecimal() and int(threads) >= 1):
        raise ValueError(f"VAREXP_THREADS must be a positive integer, got {threads!r}")
    return None if threads is None else int(threads)


def _lane():
    """The worker lane, started on first use; None where mollify runs serial.

    The worker runs only numpy and the private helpers below, never a
    public varexp function, so a traced run keeps one span stack.  Every
    large array it writes is allocated by the calling thread, so its own
    malloc arena stays small.
    """
    global _WORKER
    threads = _env_threads()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if threads == 1 or cpus < 2:
        return None
    # a forked child inherits the executor but not its thread: it starts its own
    if _WORKER is None or _WORKER[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _WORKER = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="varexp-mollify")
    return _WORKER[1]


class _PaddedFFT:
    """Zero-padded real FFTs over the grid axes, for linear convolution with a centred kernel.

    A kernel of 2k+1 nodes on an axis of n nodes needs n + k padded nodes
    to keep the circular product acyclic on the n output nodes, which sit
    k nodes into the transform; each axis is then padded on to a fast
    length.  Transforms of data and kernel take the same padded shape, so
    their spectra multiply.  The forward transform places its data at the
    corner, or a given number of nodes into the first axis, which lets a
    field stand for its zero-extension in time without being copied onto
    the extended grid.  Both directions write into arrays the caller passes,
    zero only what lies outside the data box, and skip the lines that hold
    only padding or only off-grid output; every line they transform is the
    line `np.fft.rfftn` and `np.fft.irfftn` transform, so the values are
    theirs, bit for bit.
    """

    __slots__ = ("shape", "half", "rows", "inside")

    def __init__(self, dims, reach):
        self.shape = tuple(_fast_length(n + k) for n, k in zip(dims, reach))
        self.half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        # the inverse's last pass: in-grid rows at full padded length
        self.rows = tuple(dims[:-1]) + self.shape[-1:]
        self.inside = tuple(slice(k, k + n) for n, k in zip(dims, reach))

    def rfft(self, a, out, lead=0):
        """Spectrum of `a`, placed `lead` nodes into the first axis and zero-padded (or cropped), into `out`.

        `lead` is 0 unless the transform has two or more axes.
        """
        starts = [lead if ax == 0 else 0 for ax in range(len(self.shape) - 1)]
        a = a[tuple(slice(0, n - s) for n, s in zip(self.shape, starts))]
        box = tuple(slice(s, s + n) for s, n in zip(starts, a.shape))
        for ax, rows in enumerate(box):
            out[box[:ax] + (slice(0, rows.start),)] = 0.0
            out[box[:ax] + (slice(rows.stop, None),)] = 0.0
        np.fft.rfft(a, self.shape[-1], axis=-1, out=out[box])
        # rfftn's order; the axes before `ax` are still zero outside the box
        for ax in range(len(self.shape) - 2, -1, -1):
            lines = out[box[:ax]]
            np.fft.fft(lines, axis=ax, out=lines)
        return out

    def irfft(self, spec, out):
        """In-grid nodes of the inverse transform of `spec`, which it overwrites; `out` has shape `rows`."""
        # irfftn's order; past the axes already done only in-grid rows are needed
        for ax in range(len(self.shape) - 1):
            lines = spec[self.inside[:ax]]
            np.fft.ifft(lines, axis=ax, out=lines)
        np.fft.irfft(spec[self.inside[:-1]], self.shape[-1], axis=-1, out=out)
        return out[..., self.inside[-1]]


def convolve(f, eps):
    """Discrete convolution with the sampled scaled mollifier, componentwise.

    The mollifier has the dimension of the field's grid (time counts on a
    space-time grid), and the field is treated as zero outside its grid
    (zero-extension).  Each component is one zero-padded FFT product with
    the kernel's spectrum.  The support statements of the cutoff and
    smoothing operators need exact values that an FFT leaves roundoff in,
    so one integer window sum restores them: a node whose kernel footprint
    sees no nonzero component is exactly 0, and one whose footprint lies
    in the grid and sees only ones is exactly 1, the sum the weights are
    renormalized to.  From `_LANE_MIN_NODES` padded nodes on, the worker
    lane computes the window sum while this thread transforms the
    components.  A field holding a NaN or inf is refused with a ValueError.
    """
    if not isinstance(f, _Field):
        raise TypeError(f"not a field: {type(f)!r}")
    _check_values_finite(f.values)
    out = _mollified(_parts(f.values, f.grid.ndim), f.grid, eps)
    return f._own(f.grid, out.reshape(f.values.shape))


def _parts(values, axes, eta=None):
    """Writers of the components of eta * values over its first `axes` axes: parts[c](out) fills `out`.

    `eta` is a nodal array over the last axes of those, broadcast along
    the first (a spatial cutoff along time); None stands for 1.
    """
    comps = values.reshape(values.shape[:axes] + (-1,))
    if eta is None:
        return [functools.partial(np.copyto, src=comps[..., c]) for c in range(comps.shape[-1])]
    return [functools.partial(np.multiply, comps[..., c], eta) for c in range(comps.shape[-1])]


def _mollified(parts, grid, eps, lead=0):
    """The values of `convolve(F, eps)` on `grid`, where `parts` write the components of F's data.

    The data are the nodes of `grid` but the first and last `lead` along
    its first axis, and F is 0 on those: F is the zero-extension in time
    of the data, which is never built.  parts[c](out) writes component c
    into a buffer of the data's shape, on its way into the transform and
    again on the worker lane for the window sum, so a product such as
    cutoff times field is never held whole.  Returns an array of shape
    grid.dims + (components,).
    """
    w = MollifierFamily(grid.ndim).sampled_weights(grid.spacing, eps)
    pad = _PaddedFFT(grid.dims, [n // 2 for n in w.shape])
    footprint = w != 0.0
    box = (grid.dims[0] - 2 * lead,) + grid.dims[1:]
    window = np.empty((2,) + pad.half, complex), np.empty(pad.rows), np.empty(box)
    lane = _lane() if math.prod(pad.shape) >= _LANE_MIN_NODES else None
    if lane is not None:
        sums = lane.submit(_window_sums, parts, lead, footprint, pad, *window)

    kspec, spec = np.empty((2,) + pad.half, complex)
    pad.rfft(w, kspec)
    rows = np.empty(pad.rows)
    data = np.empty(box)
    out = np.empty(grid.dims + (len(parts),))
    # one contiguous component at a time: strided transforms of the whole
    # field are slower and hold every component's spectrum at once
    for c, part in enumerate(parts):
        part(data)
        pad.rfft(data, spec, lead)
        out[..., c] = pad.irfft(np.multiply(spec, kspec, out=spec), rows)
    del kspec, spec, rows, data

    sums = _window_sums(parts, lead, footprint, pad, *window) if lane is None else sums.result()
    if sums is not None:
        zero, one = sums == 0.0, sums == 2 * footprint.sum()
        # per component, the masks have the shape of what they select: about
        # five times faster than one boolean index over all components
        for c in range(out.shape[-1]):
            np.copyto(out[..., c], 0.0, where=zero)
            np.copyto(out[..., c], 1.0, where=one)
    return out


def _window_sums(parts, lead, footprint, pad, spectra, rows, data):
    """Sums of the node levels over each kernel footprint, or None where no node is all 0 or all 1.

    A node's level is 0 where every component is 0, 2 where every one is
    1, else 1, and 0 off the data: in the padding, and on the `lead` rows
    of the time extension at each end.  A window's level sum is 0 exactly
    when it sees only zeros, and twice its node count exactly when it lies
    in the grid and sees only ones.  The sums are small integers, so
    rounding recovers them exactly.  The components are written into
    `data`, and the rest of the work lands in `spectra` and `rows`.
    """
    zero, one = np.ones((2,) + data.shape, dtype=bool)
    for part in parts:
        part(data)
        zero &= data == 0.0
        one &= data == 1.0
    # the extension's rows are zeros
    if not (lead or zero.any() or one.any()):
        return None
    levels = rows[tuple(slice(0, n) for n in data.shape)]
    np.logical_not(zero, out=levels)
    np.add(levels, one, out=levels)
    fl, ff = spectra
    pad.rfft(levels, fl, lead)
    pad.rfft(footprint, ff)
    sums = pad.irfft(np.multiply(fl, ff, out=fl), rows)
    return np.rint(sums, out=sums)


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
    in-grid indicator, with the lattice ball, on the smallest padding the
    ball needs; the spectra of |f| and of the indicator are taken once per
    padded shape.  The node counts are rounded to integers.  Averages over
    in-grid nodes keep M(const) = const up to roundoff, and the ladder
    starts at the node value itself -- the discrete r -> 0 limit -- so
    M(f) >= |f| holds exactly, as in the continuum.  With the worker lane
    the padded-shape groups are split between the two lanes, each with its
    own running maximum; the maximum does not depend on the order of the
    rungs, so the result is the serial one.  A field holding a NaN or inf
    is refused with a ValueError.
    """
    g = f.grid
    a = field_abs(f).values
    _check_finite(a)
    spacing = np.asarray(g.spacing)
    h_min = float(min(spacing))
    groups = {}
    for r_cells in _maximal_radii(int(np.ceil(g.diameter() / h_min)), g.ndim):
        r = r_cells * h_min
        # offsets past n-1 never meet an in-grid node, so each axis pads only
        # as far as the ball reaches, at most n-1 nodes
        reach = [min(int(r / s), n - 1) for s, n in zip(spacing, g.dims)]
        pad = _PaddedFFT(g.dims, reach)
        groups.setdefault(pad.shape, []).append((r, reach, pad))

    # costliest group first, onto the less loaded lane
    lane = _lane() if len(groups) > 1 else None
    lanes, loads = ([], []), [0, 0]
    for rungs in sorted(groups.values(), key=_group_cost, reverse=True):
        i = 0 if lane is None else loads.index(min(loads))
        lanes[i].append(rungs)
        loads[i] += _group_cost(rungs)

    best = a.copy()
    if lanes[1]:
        other = a.copy()
        done = lane.submit(_maximal_lane, a, spacing, lanes[1], other, _maximal_work(lanes[1]))
    _maximal_lane(a, spacing, lanes[0], best, _maximal_work(lanes[0]))
    if lanes[1]:
        done.result()
        np.maximum(best, other, out=best)
    return ScalarField._own(g, best)


def _group_cost(rungs):
    """FFT work of one padded-shape group: |f| and the ones once, per rung the ball and two inverses."""
    return (2 + 3 * len(rungs)) * math.prod(rungs[0][2].shape)


def _maximal_work(groups):
    """Flat buffers whose leading parts serve every group of one lane: four spectra, three real arrays."""
    pad = max((rungs[0][2] for rungs in groups), key=lambda pad: math.prod(pad.shape))
    return np.empty((4, math.prod(pad.half)), complex), np.empty((3, math.prod(pad.shape)))


def _maximal_lane(a, spacing, groups, best, work):
    """Raise `best` to the ball averages of `a` on every rung of `groups`, in the buffers `work`."""
    spectra, reals = work
    ones = np.broadcast_to(1.0, a.shape)
    for rungs in groups:
        pad = rungs[0][2]
        fa, fone, fk, spec = (w[: math.prod(pad.half)].reshape(pad.half) for w in spectra)
        # the spectra of |f| and of the in-grid ones depend on the padded shape alone
        pad.rfft(a, fa)
        pad.rfft(ones, fone)
        total, nodes = (w[: math.prod(pad.rows)].reshape(pad.rows) for w in reals[1:])
        for r, reach, pad in rungs:
            # the ball is zero past offset int(r/s): only its corner is built
            ext = [min(N, k + int(r / s) + 1) for N, k, s in zip(pad.shape, reach, spacing)]
            ball = reals[0][: math.prod(ext)].reshape(ext)
            ball[...] = _lattice_ball(np.ix_(*[np.arange(m) - k for m, k in zip(ext, reach)]), spacing, r)
            pad.rfft(ball, fk)
            means = pad.irfft(np.multiply(fa, fk, out=spec), total)
            counts = pad.irfft(np.multiply(fone, fk, out=spec), nodes)
            np.maximum(best, np.divide(means, np.rint(counts, out=counts), out=means), out=best)


# ---------------------------------------------------------------------------
# extensions


def _alignment_offsets(src, target):
    """Integer node offsets of src inside target; raises on misalignment."""
    if src.ndim != target.ndim:
        raise ValueError("grids have different dimensionality")
    offs = []
    for ax in range(src.ndim):
        # the spacing rule of `Grid ==`: on a spacing it calls different the
        # cell volume differs, and the extension would change the modular
        if not _close(src.spacing[ax], target.spacing[ax]):
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
    return u._own(target_grid, out)


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
        return ExponentField(ext, _clog=u._clog)
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
    """Exponent extension by nearest-node clamping: numpy's edge padding.

    Preserves p- and p+ exactly; the log-Hoelder constant is only
    approximately preserved (clamping flattens the modulus off the source
    block), so the cached estimate is dropped and recomputed on demand.
    """
    offs = _alignment_offsets(p.grid, target_grid)
    pads = [(k, N - k - n) for k, N, n in zip(offs, target_grid.dims, p.grid.dims)]
    return ExponentField(ScalarField(target_grid, np.pad(p.values.values, pads, mode="edge")))


# ---------------------------------------------------------------------------
# cutoffs and smoothing operators


def _snap_scale(h, domain):
    """Smoothing scale snapped to a whole number of (max) spatial cells."""
    hx = max(domain.grid.spacing)
    cells = int(round(_check_scalar("smoothing scale h", h, 0.0, above=True) / hx))
    if cells < 1:
        raise ValueError(f"smoothing scale {h} is below one grid cell ({hx})")
    return cells * hx


class CutoffFamily(_Frozen):
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
        self._set(domain=domain, h=h, eta=convolve(chi, eps))
        self._set(c_eta=float(np.max(np.abs(self.grad_eta().values))) * h)

    def grad_eta(self):
        """Spatial gradient of the cutoff as a VectorField (unmasked stencils)."""
        g = self.domain.grid
        comps = [axis_derivative(self.eta.values, ax, g.spacing[ax], None) for ax in range(g.ndim)]
        return VectorField(g, np.stack(comps, axis=-1))


def _spacetime_setup(u, domain, h):
    """Common plumbing: snap h, build the cutoff, and extend the grid in time by the kernel radius.

    Returns the snapped scale, the cutoff, the extension kt (nodes before
    and after u's time nodes) and the extended grid.
    """
    if not u.grid.matches_spatial(domain.grid):
        raise ValueError("u must live on a space-time grid over the domain's grid")
    _check_values_finite(u.values)
    h_eff = _snap_scale(h, domain)
    kt = int(np.ceil(h_eff / u.grid.spacing[0] - 1e-12))
    return h_eff, CutoffFamily(domain, h_eff), kt, u.grid.extended(0, kt, kt)


def smooth_R(u, domain, h):
    """Smoothing operator: mollify the cutoff zero-extension.

    Support is contained in (-h, T+h) x Omega_h up to one cell, the result
    is dominated pointwise by twice the maximal function of the
    zero-extension, and it converges to u as h -> 0.  The result is
    convolve(zero_extend(eta_h u), h), computed without building either.
    """
    h_eff, cutoff, kt, target = _spacetime_setup(u, domain, h)
    out = _mollified(_parts(u.values, u.grid.ndim, cutoff.eta.values), target, h_eff, kt)
    return u._own(target, out.reshape(target.dims + u.values.shape[u.grid.ndim :]))


def smooth_Rstar(u, domain, h):
    """Quasi adjoint smoothing: mollify first, cut off afterwards.

    (Rstar u, v) = (u, R v) holds exactly on the discrete pairing; support
    is contained in (-h, T+h) x Omega_2h up to one cell.
    """
    h_eff, cutoff, kt, target = _spacetime_setup(u, domain, h)
    out = _mollified(_parts(u.values, u.grid.ndim), target, h_eff, kt)
    out *= cutoff.eta.values[..., None]
    return u._own(target, out.reshape(target.dims + u.values.shape[u.grid.ndim :]))


def sym_grad_smooth_decomposition(u, domain, h):
    """The two right-hand terms of eps(smooth_R(u)).

    termA smooths the symmetric gradient itself; termB mollifies the
    symmetrized tensor product of the zero-extension with grad eta_h.
    termB vanishes identically on Omega_4h (up to kernel snapping cells),
    and termA + termB reproduces eps(smooth_R(u)) to O(spacing^2) nodewise.
    Neither term's input is extended in time: the FFT places it.
    """
    if not isinstance(u, VectorField):
        raise TypeError("decomposition expects a VectorField")
    h_eff, cutoff, kt, target = _spacetime_setup(u, domain, h)
    eps_u = sym_gradient(u, domain).values
    termA = _mollified(_parts(eps_u, u.grid.ndim, cutoff.eta.values), target, h_eff, kt)
    del eps_u

    # u (x) grad eta_h, broadcast along time and symmetrized, one component
    # at a time: the entries (A + A^T)/2 of `_sym_part`
    uv, grad = u.values, cutoff.grad_eta().values
    parts = [functools.partial(np.multiply, uv[..., i], grad[..., i]) if i == j
             else functools.partial(_sym_entry, uv[..., i], grad[..., j], uv[..., j], grad[..., i])
             for i, j in sym_pairs(u.ncomp)]
    termB = _mollified(parts, target, h_eff, kt)
    return SymTensorField._own(target, termA), SymTensorField._own(target, termB)


def _sym_entry(a, b, c, d, out):
    """(a b + c d) / 2 into `out`: the entry (A_ij + A_ji)/2 of `_sym_part` where A_ij = a b, A_ji = c d.

    a, c and `out` are space-time arrays and b, d spatial ones; c d is
    formed one time slice at a time, so the only temporary is one slice.
    """
    np.multiply(a, b, out=out)
    for row, c_row in zip(out, c):
        row += c_row * d
    out *= 0.5
