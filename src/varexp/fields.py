"""Structured grids, masked domains, and sampled scalar/vector/tensor fields.

Every other module operates on the types defined here.  A field is a plain
array of nodal values on a uniform grid; a domain is a boolean mask on a
spatial grid together with the distance-to-boundary function r(x).  Fields
follow the zero-extension convention: nodes outside a domain's mask carry
the value 0, which keeps convolution and extension operators total.

All objects are immutable after construction and all operations are pure,
so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy import ndimage as _ndi

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


class Grid:
    """Uniform tensor-product grid.

    Node ``(i0, ..., ik)`` sits at ``origin + i * spacing``, exactly
    reproducible.  Space-only grids have d axes; space-time grids have
    1 + d axes with time as axis 0.
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
        if any(s <= 0 for s in spacing):
            raise ValueError(f"every spacing must be > 0, got spacing={spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, rtol=1e-12, atol=1e-12)
            and np.allclose(self.origin, other.origin, rtol=1e-12, atol=1e-14)
        )

    def matches_spatial(self, spatial):
        """True if self is a space-time grid whose axes 1.. equal `spatial`."""
        if self.ndim != spatial.ndim + 1:
            return False
        return Grid(self.dims[1:], self.spacing[1:], self.origin[1:]) == spatial

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


class _Field:
    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _freeze(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, values):
        return type(self)(self.grid, values)

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

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.dims:
            raise ValueError(f"scalar values shape {values.shape} != grid dims {grid.dims}")
        super().__init__(grid, values)

    @property
    def ncomp(self):
        return 1


class VectorField(_Field):
    """d values per node; values.shape == grid.dims + (d,).

    On a space-time grid the component count is the *spatial* dimension,
    so it must be passed explicitly via the trailing axis of `values`.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != grid.ndim + 1 or values.shape[: grid.ndim] != grid.dims:
            raise ValueError(f"vector values shape {values.shape} incompatible with grid {grid.dims}")
        super().__init__(grid, values)

    @property
    def ncomp(self):
        return self.values.shape[-1]


class TensorField(_Field):
    """Full d x d tensor per node, row-major components; shape dims + (d, d)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if (
            values.ndim != grid.ndim + 2
            or values.shape[: grid.ndim] != grid.dims
            or values.shape[-1] != values.shape[-2]
        ):
            raise ValueError(f"tensor values shape {values.shape} incompatible with grid {grid.dims}")
        super().__init__(grid, values)

    @property
    def ncomp(self):
        return self.values.shape[-1] * self.values.shape[-2]

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

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != grid.ndim + 1 or values.shape[: grid.ndim] != grid.dims:
            raise ValueError(f"sym tensor values shape {values.shape} incompatible with grid {grid.dims}")
        super().__init__(grid, values)
        if self.d * (self.d + 1) // 2 != self.ncomp:
            raise ValueError(f"{self.ncomp} components is not a d(d+1)/2 count")

    @property
    def d(self):
        m = self.values.shape[-1]
        return int(round((np.sqrt(8 * m + 1) - 1) / 2))

    @property
    def ncomp(self):
        return self.values.shape[-1]

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
        return cls(tensor.grid, _sym_part(full))


def _sym_part(full):
    """Compact components of (A + A^T)/2 for full d x d tensors on the trailing two axes."""
    comps = [full[..., i, i] if i == j else 0.5 * (full[..., i, j] + full[..., j, i])
             for i, j in sym_pairs(full.shape[-1])]
    return np.stack(comps, axis=-1)


def _magnitude(v, w, axes):
    """Pointwise sqrt(sum of w v^2) over the component `axes` of v, safe at extreme magnitudes.

    v * v overflows above about 1e154 and underflows below about 1e-162, so a
    node whose largest component m lies outside [1e-150, 1e150] is computed
    as m |v / m|; every other node takes m = 1, which is exact.  The max runs
    over a component-major copy: along the short trailing axes it is ~10x slower.
    """
    comps = np.abs(v).reshape(v.shape[: v.ndim - len(axes)] + (-1,))
    m = np.max(np.moveaxis(comps, -1, 0).copy(), axis=0)
    m = np.where(((m > 1e150) & (m < np.inf)) | ((m < 1e-150) & (m > 0.0)), m, 1.0)
    v = v / m[(...,) + (None,) * len(axes)]
    return m * np.sqrt(np.sum(w * v**2, axis=axes))


def field_abs(f):
    """Pointwise magnitude of a field as a ScalarField.

    Euclidean norm for vectors, Frobenius norm for tensors (compact
    symmetric storage is weighted so that |A| matches the full matrix).
    """
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, np.abs(f.values))
    if not isinstance(f, (VectorField, SymTensorField, TensorField)):
        raise TypeError(f"not a field: {type(f)!r}")
    axes = (-1, -2) if isinstance(f, TensorField) else (-1,)
    w = sym_weights(f.d) if isinstance(f, SymTensorField) else 1.0
    return ScalarField(f.grid, _magnitude(f.values, w, axes))


# ---------------------------------------------------------------------------
# domains


class Domain:
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
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "r", _freeze(r))
        object.__setattr__(self, "kind", str(kind))
        if self.is_empty:
            log.warning("domain of kind %r has an empty mask", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Domain is immutable")

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
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    for ax in range(2):
        lo, hi = grid.axis_coords(ax)[0], grid.axis_coords(ax)[-1]
        if center[ax] - radius <= lo or center[ax] + radius >= hi:
            raise ValueError(
                f"disc (center={tuple(center)}, radius={radius}) not strictly inside "
                f"grid extent [{lo}, {hi}] on axis {ax}"
            )
    xx = grid.coords()
    dist = np.sqrt(sum((xx[a] - center[a]) ** 2 for a in range(2)))
    r = np.clip(radius - dist, 0.0, None)
    return Domain(grid, dist < radius, r, "disc")


def make_rectangle_domain(lo, hi, grid):
    """Axis-aligned box domain {lo < x < hi} with analytic distance to the faces."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
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
        r = _ndi.distance_transform_edt(mask, sampling=grid.spacing)
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
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return domain
    mask = domain.r > eps
    r = np.where(mask, domain.r - eps, 0.0)
    return Domain(domain.grid, mask, r, domain.kind)


# ---------------------------------------------------------------------------
# quadrature


def _on_field_grid(f_grid, grid, values, what):
    """Nodal values on `grid` placed on a field grid.

    As-is when f_grid is `grid`; broadcast along time when f_grid is a
    space-time grid over it.  `what` names the values' owner in the error.
    """
    if f_grid == grid:
        return values
    if f_grid.matches_spatial(grid):
        return np.broadcast_to(values, f_grid.dims)
    raise ValueError(
        f"grid mismatch: field grid is neither the {what} grid nor a space-time grid over it"
    )


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


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_table(path, header, rows, comment=None):
    """CSV table: an optional `# comment` line, the header, one line per row.

    Float cells (numpy scalars included) are written with fmt_float, integer
    cells with str; any other cell, such as a label, is written as str(cell).
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


_FIELD_KINDS = {"scalar": ScalarField, "vector": VectorField, "sym": SymTensorField}


def _field_kind(f):
    for name, cls in _FIELD_KINDS.items():
        if type(f) is cls:
            return name
    raise TypeError(f"cannot serialize field of type {type(f).__name__}")


def write_field(path, f, comment=None):
    """Plain-text field file: small header, then one node per line in C order."""
    kind = _field_kind(f)
    g = f.grid
    ncomp = 1 if kind == "scalar" else f.values.shape[-1]
    flat = f.values.reshape(-1, ncomp) if ncomp > 1 else f.values.reshape(-1, 1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# varexp field v1\n")
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("dims " + " ".join(str(n) for n in g.dims) + "\n")
        fh.write("spacing " + " ".join(fmt_float(s) for s in g.spacing) + "\n")
        fh.write("origin " + " ".join(fmt_float(o) for o in g.origin) + "\n")
        fh.write(f"ncomp {ncomp}\n")
        fh.write(f"layout {kind}\n")
        for row in flat:
            fh.write(" ".join(fmt_float(v) for v in row) + "\n")


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
        values = np.array(fh.read().split(), dtype=float)
        expected = int(np.prod(dims)) * ncomp
        if values.size != expected:
            raise ValueError(
                f"{path}: {values.size} values for dims {dims} x ncomp {ncomp} (needs {expected})"
            )
        values = values.reshape(dims + ([ncomp] if ncomp > 1 else []))
    if layout not in _FIELD_KINDS:
        raise ValueError(f"{path}: unknown layout {layout!r}")
    return _FIELD_KINDS[layout](Grid(dims, spacing, origin), values)


def export_csv(path, f, comment=None):
    """CSV export: one row per node, coordinates then components."""
    g = f.grid
    ncomp = 1 if _field_kind(f) == "scalar" else f.values.shape[-1]
    coords = np.stack([c.reshape(-1) for c in g.coords()], axis=-1)
    flat = f.values.reshape(-1, ncomp)
    header = [f"x{a + 1}" for a in range(g.ndim)] + [f"c{c}" for c in range(ncomp)]
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
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    levels = np.zeros_like(v, dtype=int) if span == 0 else np.rint((v - vmin) / span * 255).astype(int)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("P2\n")
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"{v.shape[1]} {v.shape[0]}\n255\n")
        for row in levels:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
    with open(str(path) + ".range.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"min {fmt_float(vmin)}\nmax {fmt_float(vmax)}\n")
