"""Structured grids, masked domains, and sampled scalar/vector/tensor fields.

Every other module operates on the types defined here.  A field is a plain
array of nodal values on a uniform grid; a domain is a boolean mask on a
spatial grid together with the distance-to-boundary function r(x).  Fields
follow the zero-extension convention: nodes outside a domain's mask carry
the value 0, which keeps convolution and extension operators total.

Every value type (grids, domains, fields, and the exponents, mollifiers
and cutoffs of the other modules) derives from `_Frozen`: its attributes
are set once, in the constructor, and assigning or deleting one raises
AttributeError.  Together with read-only arrays and pure operations this
makes everything here safe to evaluate concurrently.

The four field kinds differ only in their component layout, which each
kind states in three class attributes of `_Field`: the number of component
axes after the grid axes (0 for `ScalarField`, 1 for `VectorField` and
`SymTensorField`, 2 for `TensorField`), the layout name in a field file
(none for `TensorField`), and the weights of the Frobenius product (2 on
the off-diagonals of the compact symmetric storage, else 1).  Magnitudes,
the Hoelder pairing's contraction and the field files read that layout.
The kernels that compute with it (magnitudes, the contraction and the
symmetric part) go one component plane at a time, summing in np.sum's
order: they hold a few plane-sized arrays, where a reduction over the
short trailing axes would copy the whole field, and give np.sum's bits.

A field constructor keeps a read-only copy of the values it is given, so
later writes to the caller's array never reach the field.  The package's
own results (field arithmetic, `field_abs`, the gradients, `convolve`, the
smoothing operators, `maximal` and `zero_extend`) keep the array they have
just made, which nothing else holds: `_Field._own` runs the same checks
and makes that array read-only instead of copying it.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "Grid",
    "Domain",
    "ScalarField",
    "VectorField",
    "TensorField",
    "SymTensorField",
    "grid_on_box",
    "vertex_grid_on_box",
    "make_disc_domain",
    "make_rectangle_domain",
    "domain_from_mask",
    "shrink",
    "integrate",
    "field_abs",
    "sym_pairs",
    "sym_weights",
    "fmt_float",
    "write_table",
    "write_field",
    "read_field",
    "export_csv",
    "write_pgm",
]


def _close(a, b, atol=1e-12):
    """numpy's allclose rule with rtol 1e-12, in plain floats; atol 1e-12 is the spacing rule of `Grid`."""
    return abs(a - b) <= atol + 1e-12 * abs(b)


def _check_scalar(name, value, lo=-math.inf, above=False):
    """`value` as a float; a ValueError naming `name` unless it is finite and >= lo (> lo with `above`)."""
    v = float(value)
    if not (math.isfinite(v) and (v > lo if above else v >= lo)):
        bound = f" and {'>' if above else '>='} {lo:g}" if lo > -math.inf else ""
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return v


def _check_finite(magnitudes):
    """A ValueError unless every value is finite: magnitudes are >= 0, so their max is inf or nan exactly then."""
    if not np.isfinite(magnitudes.max()):
        raise ValueError("field has non-finite values")


def _check_values_finite(values):
    """(min, max) of `values` as floats; a ValueError unless every value is finite.

    The min is nan or -inf, or the max inf, for any value that is not.
    """
    lo, hi = float(values.min()), float(values.max())
    _check_finite(np.abs([lo, hi]))
    return lo, hi


class _Frozen:
    """Base of the immutable value types: constructors set attributes with `_set`, nothing else can."""

    __slots__ = ()

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Grid(_Frozen):
    """Uniform tensor-product grid.

    Node ``(i0, ..., ik)`` sits at ``origin + i * spacing``, exactly
    reproducible.  Space-only grids have d axes; space-time grids have
    1 + d axes with time as axis 0.  Spacing and origin are finite.  Grids
    are equal when dims agree and each spacing (origin) a of the left grid is
    within 1e-12 (1e-14) + 1e-12 |b| of the right grid's b: numpy's allclose
    rule in plain floats, which `matches_spatial` applies to trailing axes.
    """

    __slots__ = ("dims", "spacing", "origin")

    def __init__(self, dims, spacing, origin):
        dims = tuple(int(n) for n in dims)
        spacing = tuple(float(s) for s in spacing)
        origin = tuple(float(o) for o in origin)
        if not (len(dims) == len(spacing) == len(origin)):
            raise ValueError("dims, spacing, origin must have equal length")
        if any(n < 2 for n in dims):
            raise ValueError(f"every axis needs >= 2 nodes, got dims={dims}")
        if not all(map(math.isfinite, spacing + origin)):
            raise ValueError(f"spacing and origin must be finite, got spacing={spacing}, origin={origin}")
        if any(s <= 0 for s in spacing):
            raise ValueError(f"every spacing must be > 0, got spacing={spacing}")
        self._set(dims=dims, spacing=spacing, origin=origin)

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_coords(self, axis):
        """Node coordinates along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def coords(self):
        """Tuple of broadcastable coordinate arrays (indexing='ij')."""
        return np.meshgrid(*(self.axis_coords(a) for a in range(self.ndim)), indexing="ij")

    def node_count(self):
        return int(np.prod(self.dims))

    def diameter(self):
        return float(np.hypot.reduce([(n - 1) * s for n, s in zip(self.dims, self.spacing)]))

    def extended(self, axis, before, after):
        """New grid with `before`/`after` extra nodes along one axis."""
        dims = list(self.dims)
        origin = list(self.origin)
        dims[axis] += int(before) + int(after)
        origin[axis] -= int(before) * self.spacing[axis]
        return Grid(dims, self.spacing, origin)

    def _trailing_axes_equal(self, other):
        """Whether self's last other.ndim axes equal other's axes, by the rule in the class docstring."""
        lead = self.ndim - other.ndim
        axes = ((self.spacing, other.spacing, 1e-12), (self.origin, other.origin, 1e-14))
        return self.dims[lead:] == other.dims and all(
            _close(a, b, atol) for mine, theirs, atol in axes for a, b in zip(mine[lead:], theirs)
        )

    def __eq__(self, other):
        if other is self:  # geometry is finite, so every grid equals itself
            return True
        if not isinstance(other, Grid):
            return NotImplemented
        return self.ndim == other.ndim and self._trailing_axes_equal(other)

    def matches_spatial(self, spatial):
        """True if self is a space-time grid whose axes 1.. equal `spatial`."""
        return self.ndim == spatial.ndim + 1 and self._trailing_axes_equal(spatial)

    def __repr__(self):
        return f"Grid(dims={self.dims}, spacing={self.spacing}, origin={self.origin})"


def grid_on_box(lo, hi, cells):
    """Cell-centered grid covering the box [lo, hi]: `cells` nodes per axis.

    Node i sits at lo + (i + 1/2) * (hi - lo) / cells; no node lies on the
    box boundary, which keeps time reflection node-aligned.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    spacing = (hi - lo) / cells
    return Grid(cells, spacing, lo + spacing / 2)


def vertex_grid_on_box(lo, hi, cells):
    """Vertex-centered grid on [lo, hi]: cells+1 nodes per axis, endpoints included."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    return Grid(cells + 1, (hi - lo) / cells, lo)


# ---------------------------------------------------------------------------
# fields


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class _Field(_Frozen):
    """Nodal values on a grid: the grid axes, then `_COMP_AXES` component axes.

    The constructor keeps a read-only copy of what it is given; `_own`
    keeps a float array the package has just made, with the same checks.
    """

    __slots__ = ("grid", "values")
    #: component axes after the grid axes
    _COMP_AXES = 0
    #: layout name in a field file; None for a kind that has no file layout
    _LAYOUT = None
    #: weights of the Frobenius product over the components
    _weights = 1.0

    def __init__(self, grid, values):
        self._place(grid, _freeze(values))

    @classmethod
    def _own(cls, grid, values):
        """A field on `values` itself: a fresh float array that no one else holds, made read-only here."""
        values.flags.writeable = False
        field = object.__new__(cls)
        field._place(grid, values)
        return field

    def _place(self, grid, values):
        """Check the read-only float `values` against the grid and the kind's layout, then keep them."""
        if values.ndim != grid.ndim + self._COMP_AXES or values.shape[: grid.ndim] != grid.dims:
            kind = type(self).__name__
            raise ValueError(f"{kind} values shape {values.shape} incompatible with grid {grid.dims}")
        self._set(grid=grid, values=values)

    @property
    def ncomp(self):
        return math.prod(self.values.shape[self.grid.ndim :])

    @property
    def _comp_axes(self):
        """The component axes of `values`, last first: () for a scalar field."""
        return tuple(range(-1, -1 - self._COMP_AXES, -1))

    def _like(self, values):
        return self._own(self.grid, values)

    def __add__(self, other):
        self._check_same(other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        self._check_same(other)
        return self._like(self.values - other.values)

    def __mul__(self, c):
        return self._like(self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)

    def _check_same(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            raise ValueError("field mismatch: incompatible type or grid")
        if self.values.shape != other.values.shape:
            raise ValueError("field mismatch: incompatible component count")

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


class ScalarField(_Field):
    """One value per node; values.shape == grid.dims."""

    _LAYOUT = "scalar"


class VectorField(_Field):
    """d values per node; values.shape == grid.dims + (d,).

    On a space-time grid the component count is the *spatial* dimension,
    so it must be passed explicitly via the trailing axis of `values`.
    """

    _COMP_AXES = 1
    _LAYOUT = "vector"


class TensorField(_Field):
    """Full d x d tensor per node, row-major components; shape dims + (d, d).  No field-file layout."""

    _COMP_AXES = 2

    def _place(self, grid, values):
        super()._place(grid, values)
        if values.shape[-1] != values.shape[-2]:
            raise ValueError(f"TensorField values shape {values.shape} is not square in its components")

    @property
    def d(self):
        return self.values.shape[-1]


def sym_pairs(d):
    """Component index pairs of the compact symmetric storage: diagonal first."""
    return [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]

def sym_weights(d):
    """Multiplicity of each compact component in the Frobenius product."""
    return np.array([1.0] * d + [2.0] * (d * (d - 1) // 2))


class SymTensorField(_Field):
    """Symmetric d x d tensor per node in compact storage of d(d+1)/2 components.

    Order: d diagonal entries, then off-diagonals (i<j) lexicographically.
    Frobenius norms and contractions weight off-diagonals by 2.
    """

    _COMP_AXES = 1
    _LAYOUT = "sym"

    def _place(self, grid, values):
        super()._place(grid, values)
        if self.d * (self.d + 1) // 2 != self.ncomp:
            raise ValueError(f"{self.ncomp} components is not a d(d+1)/2 count")

    @property
    def d(self):
        m = self.values.shape[-1]
        return int(round((np.sqrt(8 * m + 1) - 1) / 2))

    @property
    def _weights(self):
        return sym_weights(self.d)

    def to_full(self):
        d = self.d
        full = np.zeros(self.grid.dims + (d, d))
        for c, (i, j) in enumerate(sym_pairs(d)):
            full[..., i, j] = self.values[..., c]
            if i != j:
                full[..., j, i] = self.values[..., c]
        return TensorField(self.grid, full)

    @classmethod
    def from_full(cls, tensor):
        """Compact storage of a full tensor field; raises unless it is exactly symmetric."""
        full = tensor.values
        if not np.array_equal(full, np.swapaxes(full, -1, -2)):
            raise ValueError("tensor is not exactly symmetric")
        return cls._own(tensor.grid, _sym_part(lambda i, j: full[..., i, j], tensor.d))


def _sym_part(entry, d):
    """Compact components of (A + A^T)/2, written one component plane at a time into one array.

    entry(i, j) is the array of A's entry (i, j) over the nodes; every
    entry has one shape, which is that of each plane of the result.
    """
    first = entry(0, 0)
    out = np.empty(first.shape + (d * (d + 1) // 2,))
    for c, (i, j) in enumerate(sym_pairs(d)):
        if i == j:
            out[..., c] = entry(i, i)
        else:
            np.multiply(0.5, np.add(entry(i, j), entry(j, i), out=out[..., c]), out=out[..., c])
    return out


def _plane_sum(term, n, first=0):
    """term(first) + ... + term(first + n - 1), in the order np.sum adds n values along a contiguous axis.

    Below eight terms that is left to right.  From eight to 128, eight
    running sums each take every eighth term, they are added pairwise, and
    the terms past the last whole eight follow one at a time; above 128
    the two halves, the first a multiple of eight long, are summed so and
    added (numpy's pairwise summation).  np.sum starts from +0.0, which
    only turns a sum of -0.0 terms into +0.0; this sum does not.  Each
    term(c) is a new plane array, and the sum is accumulated in one of them.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _plane_sum(term, half, first)
        acc += _plane_sum(term, n - half, first + half)
        return acc
    whole = n - n % 8 if n >= 8 else 0

    def running(j):
        acc = term(first + j)
        for c in range(first + j + 8, first + whole, 8):
            acc += term(c)
        return acc

    if whole:
        acc, pair = running(0), running(2)
        acc += running(1)
        pair += running(3)
        acc += pair
        pair, other = running(4), running(6)
        pair += running(5)
        other += running(7)
        pair += other
        acc += pair
    else:
        acc = term(first)
    for c in range(first + max(whole, 1), first + n):
        acc += term(c)
    return acc


def _abs_max(planes):
    """max over the last axis of |planes|, one component plane at a time; a NaN stays NaN."""
    m = np.abs(planes[..., 0], out=np.empty(planes.shape[:-1]))
    buf = np.empty_like(m)
    for c in range(1, planes.shape[-1]):
        np.maximum(m, np.abs(planes[..., c], out=buf), out=m)
    return m


def _magnitude(v, w, axes):
    """Pointwise sqrt(sum of w v^2) over the component `axes` of v, safe at extreme magnitudes.

    v * v overflows above about 1e154 and underflows below about 1e-162, so a
    node whose largest component m lies outside [1e-150, 1e150] is computed
    as m |v / m|; every other node takes m = 1, which is exact.  The
    components are read one plane at a time, in C order of `axes`, and the
    squares summed as np.sum sums them, so the bits are np.sum's; the work
    holds three plane-sized arrays, never a copy of v.
    """
    planes = v.reshape(v.shape[: v.ndim - len(axes)] + (-1,))
    w = np.broadcast_to(w, planes.shape[-1:])
    m = _abs_max(planes)
    m = np.where(((m > 1e150) & (m < np.inf)) | ((m < 1e-150) & (m > 0.0)), m, 1.0)

    def term(c):
        t = np.divide(planes[..., c], m)
        t *= t
        if w[c] != 1.0:
            t *= w[c]
        return t

    return m * np.sqrt(_plane_sum(term, planes.shape[-1]))


def field_abs(f):
    """Pointwise magnitude of a field as a ScalarField.

    Euclidean norm for vectors, Frobenius norm for tensors (compact
    symmetric storage is weighted so that |A| matches the full matrix).
    """
    return ScalarField._own(f.grid, _abs_values(f))


def _abs_values(f):
    """The values of `field_abs(f)`, as a plain array: |f| of a scalar, else the norm over the components."""
    if not isinstance(f, _Field):
        raise TypeError(f"not a field: {type(f)!r}")
    if not f._COMP_AXES:
        return np.abs(f.values)
    return _magnitude(f.values, f._weights, f._comp_axes)


# ---------------------------------------------------------------------------
# domains


class Domain(_Frozen):
    """Masked region of a spatial grid with distance-to-boundary function r.

    r(x) approximates dist(x, boundary) and vanishes outside the mask; it is
    1-Lipschitz across neighboring nodes up to one grid spacing.
    """

    __slots__ = ("grid", "mask", "r", "kind")

    def __init__(self, grid, mask, r, kind):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.dims:
            raise ValueError("mask shape does not match grid")
        r = np.asarray(r, dtype=float)
        if r.shape != grid.dims:
            raise ValueError("r shape does not match grid")
        mask = mask.copy()
        mask.flags.writeable = False
        self._set(grid=grid, mask=mask, r=_freeze(r), kind=str(kind))
        if self.is_empty:
            log.warning("domain of kind %r has an empty mask", kind)

    @property
    def is_empty(self):
        return not bool(self.mask.any())

    def measure(self):
        """Midpoint-rule measure: one cell volume per masked node."""
        return float(np.count_nonzero(self.mask)) * self.grid.cell_volume

    def interior_mask(self):
        """Masked nodes whose axis neighbors are all masked too."""
        inner = self.mask.copy()
        for ax in range(self.grid.ndim):
            e = (0,) * ax
            inner &= _shift(self.mask, e + (1,)) & _shift(self.mask, e + (-1,))
        return inner


def _shift_slices(offsets):
    """(src, dst) index tuples with dst[i] = src[i + offsets]; both cover the overlap."""
    src = tuple(slice(k, None) if k >= 0 else slice(None, k) for k in offsets)
    dst = tuple(slice(None, -k) if k > 0 else slice(-k, None) for k in offsets)
    return src, dst


def _shift(a, offsets):
    """Zero-filled shift by integer offsets along the leading axes: out[i] = a[i + offsets]."""
    if not any(offsets):
        return a
    src, dst = _shift_slices(offsets)
    out = np.zeros_like(a)
    out[dst] = a[src]
    return out


def make_disc_domain(center, radius, grid):
    """Disc domain {|x - center| < radius} on a 2-d grid.

    The disc must fit strictly inside the grid extent.
    """
    if grid.ndim != 2:
        raise ValueError("disc domains need a 2-d grid")
    center = np.array([_check_scalar("center", c) for c in center])
    radius = _check_scalar("radius", radius, 0.0, above=True)
    for ax in range(2):
        lo, hi = grid.axis_coords(ax)[0], grid.axis_coords(ax)[-1]
        if center[ax] - radius <= lo or center[ax] + radius >= hi:
            raise ValueError(
                f"disc (center={tuple(center.tolist())}, radius={radius}) not strictly inside "
                f"grid extent [{lo}, {hi}] on axis {ax}"
            )
    xx = grid.coords()
    dist = np.sqrt(sum((xx[a] - center[a]) ** 2 for a in range(2)))
    r = np.clip(radius - dist, 0.0, None)
    return Domain(grid, dist < radius, r, "disc")


def make_rectangle_domain(lo, hi, grid):
    """Axis-aligned box domain {lo < x < hi} with analytic distance to the faces."""
    lo = np.array([_check_scalar("lo", v) for v in np.atleast_1d(lo)])
    hi = np.array([_check_scalar("hi", v) for v in np.atleast_1d(hi)])
    if len(lo) != grid.ndim or len(hi) != grid.ndim:
        raise ValueError("box bounds do not match grid dimension")
    if np.any(hi <= lo):
        raise ValueError("need lo < hi componentwise")
    xx = grid.coords()
    mask = np.ones(grid.dims, dtype=bool)
    r = np.full(grid.dims, np.inf)
    for ax in range(grid.ndim):
        mask &= (xx[ax] > lo[ax]) & (xx[ax] < hi[ax])
        r = np.minimum(r, np.minimum(xx[ax] - lo[ax], hi[ax] - xx[ax]))
    r = np.where(mask, np.clip(r, 0.0, None), 0.0)
    return Domain(grid, mask, r, "rectangle")


def domain_from_mask(mask, grid):
    """Domain from an arbitrary boolean mask.

    r is the Euclidean distance from each masked node to the nearest
    unmasked node of the grid (an exact distance transform).  Such a node
    always has a masked axis neighbor, so r is the distance to the
    discrete boundary.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.dims:
        raise ValueError("mask shape does not match grid")
    r = np.zeros(grid.dims)
    if mask.any() and not mask.all():
        from scipy import ndimage  # only this constructor needs scipy

        r = ndimage.distance_transform_edt(mask, sampling=grid.spacing)
    elif mask.all():
        # no boundary inside the grid; fall back to distance to grid edge
        xx = grid.coords()
        r = np.full(grid.dims, np.inf)
        for ax in range(grid.ndim):
            r = np.minimum(r, np.minimum(xx[ax] - xx[ax].min(), xx[ax].max() - xx[ax]))
    return Domain(grid, mask, r, "polygon-mask")


def shrink(domain, eps):
    """Inner approximation {x in domain : r(x) > eps}.

    eps=0 returns an identical domain; an empty result is allowed and is
    flagged by the Domain constructor.
    """
    eps = _check_scalar("eps", eps, 0.0)
    if eps == 0.0:
        return domain
    mask = domain.r > eps
    r = np.where(mask, domain.r - eps, 0.0)
    return Domain(domain.grid, mask, r, domain.kind)


# ---------------------------------------------------------------------------
# quadrature


def _time_axes(f_grid, grid, what):
    """0 if the field grid is `grid`, 1 if it is a space-time grid over it; else raises, naming `what`."""
    if f_grid == grid:
        return 0
    if f_grid.matches_spatial(grid):
        return 1
    raise ValueError(f"grid mismatch: field grid is neither the {what} grid nor a space-time grid over it")


def _on_field_grid(f_grid, grid, values, what):
    """Nodal values on `grid` placed on a field grid: as-is, or broadcast along time."""
    return np.broadcast_to(values, f_grid.dims) if _time_axes(f_grid, grid, what) else values


def integrate(f, domain):
    """Midpoint-rule integral of a scalar field over the domain.

    Sums f * cell_volume over masked nodes in C order (deterministic).
    Space-time fields are integrated over I x Omega with the mask
    broadcast along the time axis.
    """
    if not isinstance(f, ScalarField):
        raise TypeError("integrate expects a ScalarField")
    mask = _on_field_grid(f.grid, domain.grid, domain.mask, "domain")
    return float(np.sum(f.values[mask]) * f.grid.cell_volume)


# ---------------------------------------------------------------------------
# serialization

def fmt_float(v):
    """Shortest round-trip decimal of a float (plain Python repr)."""
    return repr(float(v))


def _comment_lines(comment):
    """`# ` before each line of `comment` (split at \\n, \\r\\n and \\r), so every line stays a comment."""
    if not comment:
        return ""
    return "".join(f"# {line}\n" for line in comment.replace("\r\n", "\n").replace("\r", "\n").split("\n"))


def _float_text(values):
    """fmt_float's text of every value of a float array, flat in C order.

    `repr` runs once per distinct bit pattern (so -0.0 and 0.0 keep their
    own text), and the result holds references to those shared strings.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    # stable: the int64 sort poincare's window keys already run, so no other sort code is paged in
    order = np.argsort(bits, kind="stable")
    sorted_bits = bits[order]
    first = np.ones(len(bits), dtype=bool)
    first[1:] = sorted_bits[1:] != sorted_bits[:-1]
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return np.array(list(map(repr, sorted_bits[first].view(np.float64).tolist())), dtype=object)[inverse]


def _cell_texts(rows):
    """Each row's width and the text of every cell, row-major: floats by `_float_text`, the rest by str."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        return np.full(len(rows), rows.shape[1]), _float_text(rows)
    rows = [tuple(row) for row in rows]
    cells = np.fromiter(itertools.chain.from_iterable(rows), object)
    is_float = np.fromiter((isinstance(c, (float, np.floating)) for c in cells), bool, len(cells))
    texts = np.empty(len(cells), dtype=object)
    texts[is_float] = _float_text(cells[is_float])
    texts[~is_float] = [str(c) for c in cells[~is_float]]
    return np.array([len(row) for row in rows], dtype=np.intp), texts


def write_table(path, header, rows, comment=None):
    """CSV table: `comment` as `# ` lines, the header, one line per row.

    `rows` is a 2-d float array or an iterable of rows, which may differ in
    length.  Float cells (numpy scalars included) are written with
    fmt_float's text, formatted once per distinct value; any other cell,
    such as an integer or a label, is written as str(cell).
    """
    widths, texts = _cell_texts(rows)
    bounds = np.concatenate([[0], np.cumsum(widths)])
    lines = np.array([",".join(["%s"] * w) + "\n" for w in range(widths.max(initial=0) + 1)], dtype=object)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_comment_lines(comment) + ",".join(header) + "\n")
        # one % per chunk of rows keeps the text of only one chunk alive, as in write_field
        for start in range(0, len(widths), _FIELD_CHUNK_ROWS):
            stop = min(start + _FIELD_CHUNK_ROWS, len(widths))
            line = "".join(lines[widths[start:stop]].tolist())
            fh.write(line % tuple(texts[bounds[start] : bounds[stop]].tolist()))


_FIELD_KINDS = {cls._LAYOUT: cls for cls in (ScalarField, VectorField, SymTensorField)}
#: rows that `write_field` and `write_table` format with one % operation
_FIELD_CHUNK_ROWS = 4096


def _field_kind(f):
    """The layout name of f in a field file; a TypeError for a kind that has none."""
    if getattr(f, "_LAYOUT", None) is None:
        raise TypeError(f"cannot serialize field of type {type(f).__name__}")
    return f._LAYOUT


def write_field(path, f, comment=None):
    """Plain-text field file: small header, then one node per line in C order."""
    kind = _field_kind(f)
    g = f.grid
    flat = f.values.reshape(-1, f.ncomp)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# varexp field v1\n")
        fh.write(_comment_lines(comment))
        fh.write("dims " + " ".join(str(n) for n in g.dims) + "\n")
        fh.write("spacing " + " ".join(fmt_float(s) for s in g.spacing) + "\n")
        fh.write("origin " + " ".join(fmt_float(o) for o in g.origin) + "\n")
        fh.write(f"ncomp {f.ncomp}\n")
        fh.write(f"layout {kind}\n")
        # the values are float64, so %r of each Python float is fmt_float's text;
        # one % per chunk of rows keeps the text of only one chunk alive
        line = " ".join(["%r"] * f.ncomp) + "\n"
        for start in range(0, len(flat), _FIELD_CHUNK_ROWS):
            chunk = flat[start : start + _FIELD_CHUNK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def read_field(path):
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline()
        if not magic.startswith("# varexp field"):
            raise ValueError(f"{path}: not a varexp field file")
        keys = ("dims", "spacing", "origin", "ncomp", "layout")
        header = {}
        while not all(key in header for key in keys):
            line = fh.readline()
            if not line:
                missing = next(key for key in keys if key not in header)
                raise ValueError(f"{path}: header ends before the {missing!r} line")
            if line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            header[key.strip()] = rest.split()
        dims = [int(n) for n in header["dims"]]
        spacing = [float(s) for s in header["spacing"]]
        origin = [float(o) for o in header["origin"]]
        ncomp = int(header["ncomp"][0])
        layout = header["layout"][0]
        if layout not in _FIELD_KINDS:
            raise ValueError(f"{path}: unknown layout {layout!r}")
        cls = _FIELD_KINDS[layout]
        if not cls._COMP_AXES and ncomp != 1:
            raise ValueError(f"{path}: layout {layout} has 1 component per node, got ncomp {ncomp}")
        values = np.array(fh.read().split(), dtype=float)
        expected = int(np.prod(dims)) * ncomp
        if values.size != expected:
            raise ValueError(
                f"{path}: {values.size} values for dims {dims} x ncomp {ncomp} (needs {expected})"
            )
    return cls(Grid(dims, spacing, origin), values.reshape(dims + [ncomp] * cls._COMP_AXES))


def export_csv(path, f, comment=None):
    """CSV export: one row per node, coordinates then components."""
    _field_kind(f)  # raises on a kind with no field-file layout
    g = f.grid
    coords = np.stack([c.reshape(-1) for c in g.coords()], axis=-1)
    flat = f.values.reshape(-1, f.ncomp)
    header = [f"x{a + 1}" for a in range(g.ndim)] + [f"c{c}" for c in range(f.ncomp)]
    write_table(path, header, np.concatenate([coords, flat], axis=1), comment)


def write_pgm(path, f, comment=None):
    """Scalar field as an ASCII portable graymap plus a value-range sidecar.

    The raster maps axis 0 to rows and [min, max] to gray levels 0..255.
    The sidecar `<path>.range.txt` records the min and max so the gray
    levels can be mapped back.
    """
    if not isinstance(f, ScalarField) or f.grid.ndim != 2:
        raise TypeError("write_pgm expects a ScalarField on a 2-d grid")
    v = f.values
    vmin, vmax = _check_values_finite(v)
    span = vmax - vmin
    levels = np.zeros_like(v, dtype=int) if span == 0 else np.rint((v - vmin) / span * 255).astype(int)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("P2\n" + _comment_lines(comment))
        fh.write(f"{v.shape[1]} {v.shape[0]}\n255\n")
        # one % over the whole raster, as write_field formats its chunks
        line = " ".join(["%d"] * v.shape[1]) + "\n"
        fh.write(line * v.shape[0] % tuple(levels.ravel().tolist()))
    with open(str(path) + ".range.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"min {fmt_float(vmin)}\nmax {fmt_float(vmax)}\n")
