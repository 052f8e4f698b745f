"""Discrete differential operators: gradient, symmetric gradient, divergence.

One stencil serves every operator here and the solver's symmetric-gradient
map: a sparse d/dx_axis built from a boolean mask, central at interior
nodes and first-order one-sided where a neighbor leaves the mask,
consistent with the zero-extension convention (fields vanish outside the
mask, so errors concentrate in a boundary layer).  Only masked values are
read, and rows of nodes outside the mask are empty.  On space-time grids
the operators act along the spatial axes only: all time slices and
components go through one sparse product, column by column, so the result
equals the slice-by-slice one exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse

from .fields import SymTensorField, TensorField, VectorField, _shift, field_abs, sym_pairs
from .modular import luxembourg_norm

__all__ = [
    "gradient",
    "sym_gradient",
    "divergence",
    "korn_steady_check",
    "KornReport",
    "axis_derivative",
]


def _axis_operator(mask, axis, h):
    """Sparse d/dx_axis on the nodes of `mask` (C order), spacing h.

    Central where both neighbors are masked in, one-sided toward the masked
    side otherwise; nodes outside the mask, or with no masked neighbor,
    have empty rows.
    """
    dims = mask.shape
    N = mask.size
    idx = np.arange(N).reshape(dims)
    e = (0,) * axis
    up_ok = _shift(mask, e + (1,))
    dn_ok = _shift(mask, e + (-1,))
    central = mask & up_ok & dn_ok
    fwd = mask & up_ok & ~dn_ok
    bwd = mask & ~up_ok & dn_ok
    up_idx = np.roll(idx, -1, axis=axis)
    dn_idx = np.roll(idx, +1, axis=axis)

    rows, cols, vals = [], [], []

    def add(sel, col_idx, coeff):
        rows.append(idx[sel])
        cols.append(col_idx[sel])
        vals.append(np.full(np.count_nonzero(sel), coeff))

    add(central, up_idx, +0.5 / h)
    add(central, dn_idx, -0.5 / h)
    add(fwd, up_idx, +1.0 / h)
    add(fwd, idx, -1.0 / h)
    add(bwd, idx, +1.0 / h)
    add(bwd, dn_idx, -1.0 / h)
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()


def _derivative(values, off, mask, axis, h):
    """d/dx_axis over the spatial axes values.shape[off : off + mask.ndim].

    The leading (time) and trailing (component) axes become the columns
    of a single sparse product.
    """
    n = mask.size
    V = values.reshape(math.prod(values.shape[:off]), n, -1)
    out = _axis_operator(mask, axis, h) @ V.transpose(1, 0, 2).reshape(n, -1)
    return out.reshape(n, V.shape[0], V.shape[2]).transpose(1, 0, 2).reshape(values.shape)


def _spatial_info(f_grid, domain, d=None):
    """(axis offset of first spatial axis, spatial mask).

    With domain=None the split is inferred from the component count d:
    the last d axes are spatial, anything before is time, and the mask is
    all true.
    """
    if domain is None:
        off = f_grid.ndim - d
        if off not in (0, 1):
            raise ValueError(f"cannot place {d} vector components on a {f_grid.ndim}-d grid")
        return off, np.ones(f_grid.dims[off:], dtype=bool)
    if f_grid == domain.grid:
        return 0, domain.mask
    if f_grid.matches_spatial(domain.grid):
        return 1, domain.mask
    raise ValueError("grid mismatch between field and domain")


def axis_derivative(values, axis, h, mask=None):
    """d/dx_axis of one nodal component array.

    `mask` covers the trailing axes of `values`; a leading time axis is
    differentiated slice by slice.  Central where both neighbors are masked
    in, one-sided toward the masked side otherwise; nodes outside the mask
    (or with no masked neighbor) report 0.  `mask=None` treats the whole
    array as inside, with one-sided stencils at the array edge.
    """
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    off = values.ndim - mask.ndim
    return _derivative(values, off, mask, axis - off, h)


def gradient(u, domain):
    """Full tensor (grad u)_{ij} = du_i/dx_j along the spatial axes.

    Exact on affine fields at interior nodes (central differences), and on
    quadratics in a single variable.  `domain=None` applies unmasked
    stencils on the whole grid (one-sided at the array edge), which is the
    right choice for smooth fields on extended grids.
    """
    if not isinstance(u, VectorField):
        raise TypeError("gradient expects a VectorField")
    d = u.ncomp
    off, mask = _spatial_info(u.grid, domain, d)
    if u.grid.ndim - off != d:
        raise ValueError(
            f"vector with {d} components on a grid with {u.grid.ndim - off} spatial axes"
        )
    out = np.empty(u.grid.dims + (d, d))
    for j in range(d):
        out[..., j] = _derivative(u.values, off, mask, j, u.grid.spacing[off + j])
    return TensorField(u.grid, out)


def sym_gradient(u, domain):
    """Symmetric part of the gradient in compact storage; symmetric by construction."""
    g = gradient(u, domain).values
    d = g.shape[-1]
    comps = []
    for i, j in sym_pairs(d):
        comps.append(g[..., i, i] if i == j else 0.5 * (g[..., i, j] + g[..., j, i]))
    return SymTensorField(u.grid, np.stack(comps, axis=-1))


def divergence(T, domain):
    """Row-wise divergence of a symmetric tensor field: (div T)_i = sum_j d_j T_ij.

    Discretely adjoint to -sym_gradient up to the boundary layer: for phi
    vanishing near the boundary, (div T, phi) = -(T, eps(phi)) to roundoff.
    """
    if not isinstance(T, SymTensorField):
        raise TypeError("divergence expects a SymTensorField")
    d = T.d
    off, mask = _spatial_info(T.grid, domain, d)
    if T.grid.ndim - off != d:
        raise ValueError("tensor dimension does not match the spatial axes")
    full = T.to_full().values
    out = np.zeros(T.grid.dims + (d,))
    for j in range(d):
        out += _derivative(full[..., j], off, mask, j, T.grid.spacing[off + j])
    return VectorField(T.grid, out)


@dataclasses.dataclass(frozen=True)
class KornReport:
    """Ratio ||grad u|| / ||eps(u)|| in the Luxembourg norm, with degeneracy flag."""

    numerator: float
    denominator: float
    ratio: float
    flagged: bool


def korn_steady_check(u, p, domain, tol=1e-8):
    """Steady Korn ratio report for a compactly supported field.

    Rigid motions (eps(u) = 0 with grad u != 0) are flagged: the ratio is
    reported as inf and must not be read as a Korn constant.
    """
    num = luxembourg_norm(field_abs(gradient(u, domain)), p, domain, tol)
    den = luxembourg_norm(field_abs(sym_gradient(u, domain)), p, domain, tol)
    floor = 1e-14 * max(num, 1.0)
    if den <= floor:
        return KornReport(num, den, float("inf"), True)
    return KornReport(num, den, num / den, False)
