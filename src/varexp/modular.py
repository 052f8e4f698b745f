"""Variable exponents, modulars, Luxembourg norms, and the Hoelder pairing.

The modular of a field f with exponent p is the integral of |f(x)|^p(x)
over the domain; the Luxembourg norm is the equality root of
lambda -> modular(f / lambda) = 1.  For f not identically zero the map is
strictly decreasing, so the root is unique; the norm of the zero field is 0.
The root is found by Newton's method on the log-modular in s = log lambda,
which is convex and decreasing, and is returned once a Newton step in s is
below the tolerance: a relative accuracy in lambda.
"""

from __future__ import annotations

import warnings
from itertools import product

import numpy as np

from .fields import ScalarField, _abs_values, _check_finite, _Frozen, _on_field_grid, _shift_slices, integrate

__all__ = [
    "ExponentField",
    "constant_exponent",
    "conjugate",
    "modular",
    "luxembourg_norm",
    "holder_pairing",
]

#: pair radius (in grid cells) used for the log-Hoelder estimate
CLOG_RADIUS_CELLS = 8


class ExponentField(_Frozen):
    """A sampled variable exponent with recorded bounds and log-Hoelder estimate.

    Requires 1 < min p at every node.  The estimate

        clog = max over node pairs within a radius of |p(x)-p(y)| * log(e + 1/|x-y|)

    is a local modulus, so only pairs within ``CLOG_RADIUS_CELLS`` cells are
    scanned; long-range pairs would only loosen it.  It is computed on first
    use and kept in the `_clog` slot, which is set only by the constructor
    and that first use.
    """

    __slots__ = ("values", "p_minus", "p_plus", "_clog")

    def __init__(self, values, _clog=None):
        if not isinstance(values, ScalarField):
            raise TypeError("ExponentField wraps a ScalarField")
        p_minus = float(values.values.min())
        p_plus = float(values.values.max())
        if not p_minus > 1.0:
            raise ValueError(f"exponent must satisfy p > 1 everywhere, got min {p_minus}")
        if not np.isfinite(p_plus):
            raise ValueError("exponent must be finite")
        self._set(values=values, p_minus=p_minus, p_plus=p_plus, _clog=_clog)

    @property
    def grid(self):
        return self.values.grid

    @property
    def clog_estimate(self):
        if self._clog is None:
            self._set(_clog=log_holder_estimate(self.values, CLOG_RADIUS_CELLS))
        return self._clog

    def extend_constant_in_time(self, spacetime_grid):
        """Exponent on a space-time grid, constant along the time axis.

        The log-Hoelder estimate carries over unchanged: equal-time pairs
        dominate, since purely temporal separation only shrinks the log
        factor while |p(x)-p(y)| stays the same.
        """
        if not spacetime_grid.matches_spatial(self.grid):
            raise ValueError("space-time grid does not extend the exponent's spatial grid")
        vals = np.broadcast_to(self.values.values, spacetime_grid.dims)
        return ExponentField(ScalarField(spacetime_grid, vals), _clog=self.clog_estimate)


def log_holder_estimate(p, radius_cells):
    """Brute-force local log-Hoelder constant of a sampled exponent."""
    vals = p.values.values if isinstance(p, ExponentField) else p.values
    grid = p.grid
    spacing = np.asarray(grid.spacing)
    r2 = radius_cells * radius_cells
    best = 0.0
    # scan half of the offset lattice, the offsets whose first nonzero entry
    # is positive; swapped pairs give the same value
    for o in product(range(-radius_cells, radius_cells + 1), repeat=grid.ndim):
        if o <= (0,) * grid.ndim or sum(k * k for k in o) > r2:
            continue
        src, dst = _shift_slices(o)
        a = vals[src]
        if a.size == 0:
            continue
        diff = float(np.max(np.abs(a - vals[dst])))
        dist = float(np.sqrt(np.sum((np.asarray(o) * spacing) ** 2)))
        best = max(best, diff * np.log(np.e + 1.0 / dist))
    return best


def constant_exponent(grid, value):
    return ExponentField(ScalarField(grid, np.full(grid.dims, float(value))))


def conjugate(p):
    """Pointwise conjugate exponent p/(p-1); bounds swap accordingly."""
    if not p.p_minus > 1.0:
        raise ValueError("conjugate needs p > 1 everywhere")
    vals = p.values.values
    return ExponentField(ScalarField(p.grid, vals / (vals - 1.0)))


def modular(f, p, domain):
    """rho_p(f) = integral of |f(x)|^p(x) over the domain (>= 0).

    |f| is the Euclidean / Frobenius magnitude for vector / tensor fields.
    A spatial exponent on a space-time field is extended constantly in time.
    A field holding a NaN or inf is refused with a ValueError, as in
    `luxembourg_norm`.
    """
    absf, q = _masked_abs(f, p, domain)
    return float(np.sum(absf**q) * f.grid.cell_volume)


def luxembourg_norm(f, p, domain, tol=1e-8):
    """Luxembourg norm: the root lambda of modular(f/lambda) = 1, by Newton in s = log lambda
    (see `_luxembourg_root`); 0 for the zero field."""
    absf, q = _masked_abs(f, p, domain)
    return _luxembourg_root(absf, q, None, np.log(f.grid.cell_volume), tol)


def _masked_abs(f, p, domain):
    """|f| and p at the domain's nodes, a NaN or inf in f refused, p and the mask placed on f's grid."""
    absf = _abs_values(f)
    _check_finite(absf)
    mask = _on_field_grid(f.grid, domain.grid, domain.mask, "domain")
    return absf[mask], _on_field_grid(f.grid, p.grid, p.values.values, "exponent")[mask]


def _luxembourg_root(a, q, log_c, log_w, tol):
    """e^s at the root of G(s) = logsumexp(q (log a - s) + log c) + log w.

    G = log sum w c a^q e^(-q s) over the nodes with a > 0 and c > 0 (magnitudes
    a, exponents q, per-node factors c or None for c = 1, cell volume w) is convex
    and decreasing.  Newton starts at s0 = log a_top + (log w + log c_top)/q_top, top
    the largest magnitude, where that node alone gives G(s0) >= 0, so the iterates
    climb to the root from the left.  Stops once a step is <= `tol`; 0 if no node counts.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    nz = a > 0.0 if log_c is None else (a > 0.0) & (log_c > -np.inf)
    a, q, log_c = a[nz], q[nz], None if log_c is None else log_c[nz]
    if a.size == 0:
        return 0.0
    # log space throughout: a_i^{q_i} under- or overflows at extreme
    # magnitudes and large exponents
    log_a = np.log(a)
    top = int(np.argmax(a))
    s = log_a[top] + (log_w + (0.0 if log_c is None else log_c[top])) / q[top]
    # two work arrays for the whole loop: e, then q * t in e's place
    e, t = np.empty_like(log_a), np.empty_like(log_a)
    for _ in range(100):
        np.multiply(q, np.subtract(log_a, s, out=e), out=e)
        if log_c is not None:
            e += log_c
        top_e = e.max()
        total = np.exp(np.subtract(e, top_e, out=t), out=t).sum()
        # step = G / -G'.  sum(q * t), not np.dot: inside this loop the
        # BLAS dot made a 315k-node norm 2.5x slower on a 2-vCPU machine
        step = (top_e + np.log(total) + log_w) * total / np.multiply(q, t, out=e).sum()
        s += step
        if step <= tol:
            return float(np.exp(s))
    raise RuntimeError("luxembourg_norm: Newton did not converge in 100 steps")


def _contract(f, g):
    """Pointwise Frobenius contraction of two fields of one kind, as a ScalarField.

    The plain product for scalars; for the other kinds the product (w f) g,
    with the kind's weights w (1, or 2 on the compact off-diagonals of a
    symmetric tensor), summed over the component axes: the dot product for
    vectors and the Frobenius product of the full matrices for either
    tensor kind.
    """
    if type(f) is not type(g):
        raise TypeError("holder_pairing needs fields of the same kind")
    if not f._COMP_AXES:
        return ScalarField(f.grid, f.values * g.values)
    return ScalarField(f.grid, np.sum(f._weights * f.values * g.values, axis=f._comp_axes))


def holder_pairing(f, g, p=None, domain=None):
    """The L^p(.) product (f, g) = integral of f . g over the domain.

    Componentwise contraction for vector and tensor fields.  Satisfies
    |(f, g)| <= 2 ||f||_{p'} ||g||_p (Hoelder with constant 2).  The value
    does not depend on p: call holder_pairing(f, g, domain=...).  Passing p
    still works but is deprecated.
    """
    if p is not None:
        msg = "holder_pairing ignores p; call holder_pairing(f, g, domain=...)"
        warnings.warn(msg, DeprecationWarning, stacklevel=2)
    if domain is None:
        raise TypeError("holder_pairing() missing required argument: 'domain'")
    if f.grid != g.grid:
        raise ValueError("grid mismatch between pairing factors")
    return integrate(_contract(f, g), domain)
