"""Discrete differential operators: gradient, symmetric gradient, divergence.

One stencil serves every operator here and the solver's symmetric-gradient
map: d/dx_axis on a boolean mask, central at interior nodes and
first-order one-sided where a neighbor leaves the mask, consistent with the
zero-extension convention (fields vanish outside the mask, so errors
concentrate in a boundary layer).  `_stencil` holds its one definition,
the node groups and their coefficients.  The operators here apply it by
numpy indexing, reading only masked values and computing only the nodes
of a group; every other node reports 0.  `rothe` builds the solver's
operator B straight from the same node groups, and both sum a node's two
terms in the same order, so they agree bit for bit.  On space-time grids
the operators act along the spatial axes only, on all time slices and
components at once, so the result equals the slice-by-slice one exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fields import SymTensorField, TensorField, VectorField, _shift, _sym_part, _time_axes, field_abs
from .modular import luxembourg_norm

__all__ = [
    "gradient",
    "sym_gradient",
    "divergence",
    "korn_steady_check",
    "KornReport",
    "axis_derivative",
]


def _stencil(mask, axis, h):
    """d/dx_axis on the nodes of `mask`, spacing h, as three row groups.

    Each group is (flat C-order indices of its nodes, (neighbor offset,
    coefficient) of the lower and the upper term), with offsets in flat
    indices: central where both neighbors are masked in, one-sided toward
    the masked side otherwise.  Nodes outside the mask, or with no masked
    neighbor, are in no group.
    """
    e = (0,) * axis
    up_ok = _shift(mask, e + (1,))
    dn_ok = _shift(mask, e + (-1,))
    s = math.prod(mask.shape[axis + 1 :])
    return (
        (np.flatnonzero(mask & up_ok & dn_ok), (-s, -0.5 / h), (s, +0.5 / h)),
        (np.flatnonzero(mask & up_ok & ~dn_ok), (0, -1.0 / h), (s, +1.0 / h)),
        (np.flatnonzero(mask & ~up_ok & dn_ok), (-s, -1.0 / h), (0, +1.0 / h)),
    )


def _derivative(values, off, mask, axis, h):
    """d/dx_axis over the spatial axes values.shape[off : off + mask.ndim].

    Only the rows of the stencil's groups are computed, each as
    0.0 + lower term + upper term: the order in which a sparse row product
    sums, so the solver's operator gives the same bits, signed zeros too.
    """
    V = values.reshape(math.prod(values.shape[:off]), mask.size, -1)
    out = np.zeros(V.shape)
    for rows, (lo, c_lo), (hi, c_hi) in _stencil(mask, axis, h):
        out[:, rows] = 0.0 + c_lo * np.take(V, rows + lo, axis=1) + c_hi * np.take(V, rows + hi, axis=1)
    return out.reshape(values.shape)


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
    return _time_axes(f_grid, domain.grid, "domain"), domain.mask


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
    return TensorField._own(u.grid, out)


def _grad_sym(u, domain):
    """(grad u, eps(u)) from one `gradient` pass, eps(u) the symmetric part of that gradient."""
    grad = gradient(u, domain)
    return grad, SymTensorField._own(u.grid, _sym_part(grad.values))


def sym_gradient(u, domain):
    """Symmetric part of the gradient in compact storage; symmetric by construction."""
    return _grad_sym(u, domain)[1]


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


def korn_steady_check(u, p, domain):
    """Steady Korn ratio report for a compactly supported field.

    Both norms are Luxembourg norms at their default accuracy.  Rigid
    motions (eps(u) = 0 with grad u != 0) are flagged: the ratio is
    reported as inf and must not be read as a Korn constant.
    """
    num, den = (luxembourg_norm(field_abs(f), p, domain) for f in _grad_sym(u, domain))
    floor = 1e-14 * max(num, 1.0)
    if den <= floor:
        return KornReport(num, den, float("inf"), True)
    return KornReport(num, den, num / den, False)
