"""Implicit-Euler (Rothe) solver for the model parabolic problem.

Each backward-Euler step minimizes an energy whose gradient is the weak
form of

    (u - u_prev)/tau - div S(., ., eps(u)) + b(., ., u) = f - div F,

with a flux of (p(t,x), delta)-structure, S(A) = (delta+|A|)^(p-2) A, and a
lower-order term b = grad Psi, both implicit, so one Newton solve settles
the step.  A step's data is assembled once into a `_Step`, a stateless
energy: `point(x)` evaluates the energy and strain at x into an immutable
`_Point`, and the gradient and Hessian I/tau + B^T D B + L (B the
exact-adjoint symmetric-gradient operator, L the Jacobian of b) take that
point.  Inexact damped Newton (`_descend`) owns the current point, its
forcing term floored at the step tolerance; the solve's one
`NewtonSolver` holds the LU factor that carries from step to step and
chooses each direction, so `EpsOperator` keeps no solver state.  D and L
are built once per point as per-node block arrays (`_Step._blocks`),
which `hessian` assembles for SuperLU and `hessian_operator` applies for
conjugate gradients.  A Newton direction that does not descend shows an
energy that is not convex, as tau kappa >= 1 can make it, and raises
RotheStepError.  Dirichlet boundary values are enforced by constraining
the boundary layer of masked nodes to zero.  This is the package's one sparse user:
scipy.sparse and its SuperLU load with the first `EpsOperator`, so
`import varexp` needs numpy only.  The module also provides the discrete
energy (a priori) inequality report, the integration-by-parts residual in
time, and manufactured-solution helpers.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import typing

import numpy as np

from .calculus import _stencil
from .fields import Grid, ScalarField, VectorField, _abs_max, _magnitude, _plane_sum, make_rectangle_domain
from .fields import sym_pairs, sym_weights
from .fields import _check_scalar, _close, _time_axes, write_table
from .modular import ExponentField

log = logging.getLogger(__name__)

__all__ = [
    "ConstitutiveLaw",
    "LowerOrderLaw",
    "flux_factor",
    "flux_potential",
    "ProblemData",
    "EpsOperator",
    "NewtonSolver",
    "energy_step",
    "rothe_solve",
    "StepDiagnostics",
    "RotheStepError",
    "energy_inequality_report",
    "discrete_ibp_check",
    "critical_growth_bound",
    "mms_bump",
    "mms_solution_p2",
    "mms_time_derivative_p2",
    "mms_varp",
    "mms_forcing_discrete",
    "write_diagnostics_csv",
]


# ---------------------------------------------------------------------------
# constitutive structure


def flux_factor(s, p, delta):
    """(delta + s)^(p-2), with 0^0 = 1 at p = 2 and 0 at any other p where delta + s = 0.

    At delta + s = 0 the flux phi A vanishes whatever phi is, since A = 0 there.
    """
    base, pexp = np.broadcast_arrays(delta + np.asarray(s, dtype=float), np.asarray(p, dtype=float))
    out = (pexp == 2.0).astype(float)
    pos = base > 0.0
    out[pos] = base[pos] ** (pexp[pos] - 2.0)
    return out


def flux_potential(s, p, delta):
    """Antiderivative Phi with Phi'(s) = (delta+s)^(p-2) s and Phi(0) = 0."""
    p = np.asarray(p, dtype=float)
    base = delta + np.asarray(s, dtype=float)
    return s * base ** (p - 1.0) / (p - 1.0) - (base**p - float(delta) ** p) / (p * (p - 1.0))


@dataclasses.dataclass(frozen=True)
class ConstitutiveLaw:
    """Flux S(t,x,A) = (delta+|A|)^(p(t,x)-2) A.

    Its structure constants are the canonical ones: growth constant 1,
    coercivity constant c0 = 1 and vanishing offsets, with which the growth,
    coercivity and monotonicity conditions hold with equality slack.
    """

    exponent: ExponentField
    delta: float = 0.0

    def __post_init__(self):
        _check_scalar("delta", self.delta, 0.0)

    def exponent_at(self, data, k):
        """Spatial exponent values at vertex time index k; a space-time p sits on the step's time nodes."""
        p = self.exponent
        if not _time_axes(p.grid, data.domain.grid, "domain"):
            return p.values.values
        data._check_time_nodes("p(t, x)", p.grid)
        return p.values.values[k]

    def flux(self, eps_comps, p_nodes, d):
        """S applied to compact symmetric components at a set of nodes."""
        mag = _magnitude(eps_comps, sym_weights(d), (-1,))
        return flux_factor(mag, p_nodes, self.delta)[..., None] * eps_comps

    def potential(self, eps_mag, p_nodes):
        return flux_potential(eps_mag, p_nodes, self.delta)


def p_star(p, d):
    """Parabolic embedding exponent: p (d+2)/d below dimension d, else p + 2."""
    return p * (d + 2) / d if p < d else p + 2.0


def critical_growth_bound(p_minus, d):
    """Upper bound (p-)_* / (p-)' for the lower-order growth exponent r."""
    conj = p_minus / (p_minus - 1.0)
    return p_star(p_minus, d) / conj


@dataclasses.dataclass(frozen=True)
class LowerOrderLaw:
    """Lower-order term b(a) = (c |a|^(r-1) - kappa/(1+|a|^2)) a, a's components on its trailing axis.

    b = grad Psi with Psi(a) = c |a|^(r+1)/(r+1) - (kappa/2) log(1+|a|^2).
    gamma = c + kappa is the growth constant and c2 = kappa the sign
    constant.  `zero` has c = kappa = 0 and `power` kappa = 0, which is
    sign-positive; `damped` subtracts the bounded attractor kappa a/(1+|a|^2).
    """

    c: float
    r: float
    kappa: float = 0.0

    def __post_init__(self):
        # c is refused as gamma, the growth constant that `power` and `damped` take it as
        for field, name, lo in (("c", "gamma", 0.0), ("r", "r", 1.0), ("kappa", "kappa", 0.0)):
            object.__setattr__(self, field, _check_scalar(name, getattr(self, field), lo))

    @classmethod
    def zero(cls):
        return cls(0.0, 1.0)

    @classmethod
    def power(cls, gamma, r):
        return cls(gamma, r)

    @classmethod
    def damped(cls, gamma, r, kappa):
        """Power law minus the bounded perturbation kappa a/(1+|a|^2)."""
        return cls(gamma, r, kappa)

    @property
    def gamma(self):
        return self.c + self.kappa

    @property
    def c2(self):
        return self.kappa

    @property
    def is_zero(self):
        return self.c == 0.0 and self.kappa == 0.0

    def potential(self, a):
        """Psi at each node of a."""
        s = _magnitude(a, 1.0, (-1,))
        psi = self.c * s ** (self.r + 1.0) / (self.r + 1.0)
        if self.kappa:
            psi = psi - 0.5 * self.kappa * np.log1p(s * s)
        return psi

    def __call__(self, a):
        out = self.c * _magnitude(a, 1.0, (-1,))[..., None] ** (self.r - 1.0) * a
        if self.kappa:
            # kappa (a/m) / (m |a/m|^2 + 1/m) where |a|^2 would overflow; m = 1 elsewhere
            m = _abs_max(a)[..., None]
            m = np.where((m > 1e150) & (m < np.inf), m, 1.0)
            s = a / m
            s2 = _plane_sum(lambda c: s[..., c] * s[..., c], a.shape[-1])
            out = out - self.kappa * s / (m * s2[..., None] + 1.0 / m)
        return out

    def curvature(self, a):
        """(beta, coef, a/|a|) per node, b's Jacobian being beta I + coef (a/|a|)(a/|a|)^T.

        For b(a) = phi(|a|) a, beta = phi and coef = |a| phi'; a/|a| is 0 at a = 0.
        """
        s = _magnitude(a, 1.0, (-1,))
        sr = s ** (self.r - 1.0)
        beta, coef = self.c * sr, self.c * (self.r - 1.0) * sr
        if self.kappa:
            w = 1.0 / (1.0 + s * s)
            beta = beta - self.kappa * w
            coef = coef + 2.0 * self.kappa * (s * w) ** 2
        unit = np.divide(a, s[..., None], out=np.zeros_like(a), where=s[..., None] > 0.0)
        return beta, coef, unit


@dataclasses.dataclass(frozen=True)
class ProblemData:
    """Initial condition, forcing fields, horizon and step of one solve.

    f and F live on the vertex-time space-time grid (K+1 time nodes at
    t_k = k tau); either may be None for zero forcing.  u0 must be
    supported in the domain.
    """

    domain: object
    u0: VectorField
    T: float
    tau: float
    f: object = None
    F: object = None

    def __post_init__(self):
        for name in ("T", "tau"):
            _check_scalar(name, getattr(self, name), 0.0, above=True)
        K = self.T / self.tau
        if abs(K - round(K)) > 1e-9 * max(1.0, K):
            raise ValueError(f"tau={self.tau} does not divide T={self.T}")
        if self.u0.grid != self.domain.grid:
            raise ValueError("u0 must live on the domain grid")
        # rothe_solve keeps steps + 1 fields like u0: refuse a trajectory physical memory cannot hold
        size = (self.steps + 1) * self.u0.values.nbytes
        try:  # where the platform cannot tell, the check is skipped
            page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):
            page = pages = -1
        memory = page * pages if page > 0 and pages > 0 else np.inf
        if size > memory:
            raise ValueError(f"{self.steps} steps need a trajectory of {size / 2**30:.1f} GiB, more than the "
                             f"{memory / 2**30:.1f} GiB of physical memory")
        # a NaN or inf would reach the solver as a residual no tolerance test can decide
        for name in ("u0", "f", "F"):
            fld = getattr(self, name)
            if fld is not None and not np.all(np.isfinite(fld.values)):
                raise ValueError(f"{name} must be finite, got a NaN or inf value")
        outside = ~self.domain.mask
        if np.abs(self.u0.values[outside]).max(initial=0.0) > 0.0:
            raise ValueError("u0 must be supported in the domain")
        for name in ("f", "F"):
            fld = getattr(self, name)
            if fld is not None and not fld.grid.matches_spatial(self.domain.grid):
                raise ValueError(f"{name} must live on a space-time grid over the domain")
            if fld is not None:
                self._check_time_nodes(name, fld.grid)

    @property
    def steps(self):
        return int(round(self.T / self.tau))

    def _check_time_nodes(self, name, grid):
        """Refuse a space-time grid whose time axis is not the vertex times t_k = k tau, k = 0..K."""
        n = self.steps + 1
        if grid.dims[0] != n:
            raise ValueError(f"{name} needs steps + 1 = {n} vertex time nodes, got {grid.dims[0]}")
        if not (_close(grid.spacing[0], self.tau) and _close(grid.origin[0], 0.0)):
            raise ValueError(
                f"{name} must sit on the vertex times t_k = k tau from t = 0 (tau = {self.tau!r}), "
                f"got time origin {grid.origin[0]!r} and spacing {grid.spacing[0]!r}"
            )

    def f_at(self, k):
        return None if self.f is None else self.f.values[k]

    def F_at(self, k):
        return None if self.F is None else self.F.values[k]


# ---------------------------------------------------------------------------
# discrete symmetric-gradient operator (exact adjoint via sparse transpose),
# built from the same masked stencil as calculus.gradient


def splu(A, **options):
    """scipy.sparse.linalg.splu; the one name through which the solver factorizes."""
    from scipy.sparse.linalg import splu

    return splu(A, **options)


class EpsOperator:
    """Sparse map from free velocity dofs to symmetric-gradient components.

    Free dofs are the interior masked nodes (the Dirichlet boundary layer is
    constrained to zero); rows run over all masked nodes and compact
    components.  The transpose is the exact discrete adjoint, which is what
    makes analytic energy gradients match finite differences to roundoff.
    """

    def __init__(self, domain):
        import scipy.sparse.linalg  # noqa: F401  (SuperLU loads with the operator, not in a step)
        from scipy import sparse

        g = domain.grid
        d = g.ndim
        mask_flat = domain.mask.reshape(-1)
        free_flat = domain.interior_mask().reshape(-1)
        self.domain = domain
        self.d = d
        self.m = d * (d + 1) // 2  # compact symmetric components per node
        self.masked_idx = np.flatnonzero(mask_flat)
        self.free_idx = np.flatnonzero(free_flat)
        self.n_masked = len(self.masked_idx)
        self.n_free = len(self.free_idx)
        self.weights = sym_weights(d)

        # d/dx_ax at the masked rows and the free columns, straight from the
        # stencil's node groups: a neighbor with no free column is a Dirichlet
        # zero.  The index maps are int32, B's own index dtype, until B's rows outgrow it.
        idx = np.int32 if self.m * self.n_masked <= np.iinfo(np.int32).max else np.int64
        row, col = np.full((2, mask_flat.size), -1, dtype=idx)
        row[self.masked_idx] = np.arange(self.n_masked)
        col[self.free_idx] = np.arange(self.n_free)
        stencils = [_stencil(domain.mask, ax, g.spacing[ax]) for ax in range(d)]

        # component c = (i, j) of eps is 0.5 (d_j u_i + d_i u_j), at rows c*n_masked + node
        rows, cols, vals = [], [], []
        for c, (i, j) in enumerate(sym_pairs(d)):
            for comp, ax in {(i, j), (j, i)}:
                for nodes, *terms in stencils[ax]:
                    for shift, coeff in terms:
                        k = col[nodes + shift]
                        keep = k >= 0
                        rows.append(c * self.n_masked + row[nodes[keep]])
                        cols.append(comp * self.n_free + k[keep])
                        vals.append(np.full(np.count_nonzero(keep), coeff if i == j else 0.5 * coeff))
        self.B = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                   shape=(self.m * self.n_masked, d * self.n_free))

    @functools.cached_property
    def _Bt(self):
        """B^T as the CSC view that shares B's arrays, built once for every adjoint."""
        return self.B.T

    # -- dof packing -------------------------------------------------------
    def free_values(self, nodal):
        """Free-dof vector (component-major blocks) from nodal values of shape dims + (d,)."""
        flat = nodal.reshape(-1, self.d)
        return np.concatenate([flat[self.free_idx, i] for i in range(self.d)])

    def to_free(self, u):
        """Free-dof vector (component-major blocks) from a VectorField."""
        return self.free_values(u.values)

    def to_field(self, x):
        g = self.domain.grid
        out = np.zeros((g.node_count(), self.d))
        for i in range(self.d):
            out[self.free_idx, i] = x[i * self.n_free : (i + 1) * self.n_free]
        return VectorField(g, out.reshape(g.dims + (self.d,)))

    def masked_values(self, field_values, ncomp):
        flat = field_values.reshape(-1, ncomp)
        return flat[self.masked_idx]

    def eps(self, x):
        """Compact components at masked nodes, shape (n_masked, m)."""
        return (self.B @ x).reshape(self.m, self.n_masked).T

    def eps_adjoint(self, comps):
        """Exact adjoint of eps applied to weighted masked-node components."""
        y = (self.weights * comps).T.reshape(self.m * self.n_masked)
        return self._Bt @ y


class RotheStepError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclasses.dataclass(frozen=True)
class StepDiagnostics:
    k: int
    t: float
    energy: float
    l2norm: float
    modular_eps: float
    residual: float
    iters: int


def _step_law(law, data, k, op):
    """(p at the masked nodes, law) of step k; delta = 0 with p < 2 becomes delta = 1e-8."""
    p = law.exponent_at(data, k).reshape(-1)[op.masked_idx]
    if law.delta == 0.0 and float(np.min(p)) < 2.0:
        law = dataclasses.replace(law, delta=1e-8)
    return p, law


def _outer_blocks(diag, weights, coef, vec):
    """Node blocks diag weights_a delta_ab + (coef vec_a) vec_b, contiguous (k, n, k), of vec (n, k)."""
    blocks = (coef * vec.T)[:, :, None] * vec
    for a, w in enumerate(weights):
        blocks[a, :, a] += diag * w
    return blocks


def _block_csr(blocks):
    """Block-diagonal CSR matrix of (k, n, k) blocks: [a, node, b] at row a*n + node, column b*n + node."""
    from scipy import sparse

    k, n, _ = blocks.shape
    indptr = np.arange(0, k * n * k + 1, k, dtype=np.int32)
    cols = np.arange(k, dtype=np.int32) * n + np.arange(n, dtype=np.int32)[:, None]
    indices = np.broadcast_to(cols, (k, n, k)).ravel()
    return sparse.csr_matrix((blocks.ravel(), indices, indptr), shape=(k * n, k * n))


def _block_apply(blocks, v):
    """`_block_csr(blocks) @ v` node by node, without the matrix."""
    return np.einsum("anb,bn->an", blocks, v.reshape(blocks.shape[:2])).ravel()


class _Point(typing.NamedTuple):
    """One evaluated point of a step energy: free dofs x, energy J, eps(x) at the masked nodes, |eps|_W."""

    x: np.ndarray
    J: float
    eps: np.ndarray
    mag: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Step:
    """The energy of one implicit step over the free dofs of `op`: pure maths, no state.

    x_prev and f are free-dof vectors, F holds compact components at the
    masked nodes, p is the exponent there, and low is the lower-order law;
    f, F and low may be None for zero data.  Values are per unit cell volume.
    `point(x)` evaluates the energy and strain at x once; the gradient and
    the Hessian there take that `_Point`, so they never evaluate eps again.
    """

    op: EpsOperator
    x_prev: np.ndarray
    tau: float
    p: np.ndarray
    law: ConstitutiveLaw
    f: np.ndarray = None
    F: np.ndarray = None
    low: LowerOrderLaw = None

    @classmethod
    def at(cls, law, data, k, op, u_prev, low=None):
        """Step k of `data` from u_prev with lower-order law `low`; a zero law is left out."""
        p, law = _step_law(law, data, k, op)
        fk, Fk = data.f_at(k), data.F_at(k)
        f = op.free_values(fk) if fk is not None else None
        F = op.masked_values(Fk, op.m) if Fk is not None else None
        low = None if low is None or low.is_zero else low
        return cls(op, op.to_free(u_prev), data.tau, p, law, f, F, low)

    def _nodes(self, x):
        """Free-dof vector x as node values, shape (n_free, d)."""
        return x.reshape(self.op.d, -1).T

    def point(self, x):
        """The `_Point` at free dofs x: its energy, eps(x) and |eps(x)|_W."""
        eps = self.op.eps(x)
        w = self.op.weights
        du = x - self.x_prev
        mag = _magnitude(eps, w, (-1,))
        J = float(np.sum(0.5 * du * du) / self.tau + np.sum(self.law.potential(mag, self.p)))
        if self.f is not None:
            J -= float(np.dot(self.f, x))
        if self.low is not None:
            J += float(np.sum(self.low.potential(self._nodes(x))))
        if self.F is not None:
            J -= float(np.sum(w * self.F * eps))
        return _Point(x, J, eps, mag)

    def gradient(self, pt):
        """Energy gradient at the point `pt`."""
        S = flux_factor(pt.mag, self.p, self.law.delta)[..., None] * pt.eps
        if self.F is not None:
            S = S - self.F
        g = (pt.x - self.x_prev) / self.tau + self.op.eps_adjoint(S)
        if self.f is not None:
            g -= self.f
        if self.low is not None:
            g += self.low(self._nodes(pt.x)).T.ravel()
        return g

    @property
    def quadratic(self):
        """True when b is absent and p = 2 at every masked node: then H = I/tau + B^T W B for every x."""
        return self.low is None and bool(np.all(self.p == 2.0))

    def _blocks(self, pt):
        """(D, L) at the point `pt` as per-node block arrays, laid out as `_block_csr` reads them.

        D is (m, n_masked, m): with s = |eps|_W and W = diag(sym_weights) a
        node's block is (delta+s)^(p-2) [W + (p-2)/(s(delta+s)) (W eps)(W eps)^T]
        = phi W + coef (W eps)(W eps)^T, the second term 0 at s = 0.  Where
        s(delta+s) would under- or overflow, W eps is divided by s and coef
        multiplied by s^2, which leaves the block as it is.  Every block is
        positive semidefinite for p > 1.  L is (d, n_free, d), the lower-order
        law's `curvature` at each free node, or None without a law.
        """
        op, p_nodes, s = self.op, self.p, pt.mag
        we = op.weights * pt.eps
        base = self.law.delta + s
        # base > 0 wherever p < 2 (see _step_law); phi = 1 at base = 0 keeps p = 2 exact
        phi = flux_factor(s, p_nodes, self.law.delta)
        coef = np.zeros_like(s)
        # s * base leaves the float range where s lies outside [1e-150, 1e150]
        # (see _magnitude); there the second term is (p-2) s/base (W eps/s)(W eps/s)^T
        far = ((s < 1e-150) & (s > 0.0)) | (s > 1e150)
        near = (s > 0.0) & ~far
        coef[near] = phi[near] * (p_nodes[near] - 2.0) / (s[near] * base[near])
        if far.any():
            we[far] /= s[far, None]
            coef[far] = phi[far] * (p_nodes[far] - 2.0) * (s[far] / base[far])
        D = _outer_blocks(phi, op.weights, coef, we)
        if self.low is None:
            return D, None
        beta, coef, unit = self.low.curvature(self._nodes(pt.x))
        return D, _outer_blocks(beta, np.ones(op.d), coef, unit)

    def hessian(self, pt):
        """Hessian I/tau + B^T D B + L of the energy at the point `pt`, as a CSC matrix.

        D's and L's blocks are `_blocks`'; D's are positive semidefinite, so H is symmetric
        positive definite unless L outweighs I/tau.  Only a factorization needs H as a
        matrix: CG multiplies by `hessian_operator`.
        """
        op = self.op
        D, L = self._blocks(pt)
        # B^T is converted per assembly, so an operator that never factorizes holds no copy of it
        H = op._Bt.tocsr() @ (_block_csr(D) @ op.B)
        if L is not None:
            H = H + _block_csr(L)
        # setdiag also inserts the diagonal entries the product dropped as exact zeros
        H.setdiag(H.diagonal() + 1.0 / self.tau)
        return H.tocsc()

    def hessian_operator(self, pt):
        """H = I/tau + B^T D B + L at the point `pt` as a LinearOperator that never forms the matrix.

        A product v/tau + B^T (D (B v)) + L v applies `_blocks`' arrays node by node.
        """
        from scipy.sparse.linalg import LinearOperator

        D, L = self._blocks(pt)
        B, bt, inv_tau = self.op.B, self.op._Bt, 1.0 / self.tau

        def matvec(v):
            out = v * inv_tau + bt @ _block_apply(D, B @ v)
            if L is not None:
                out += _block_apply(L, v)
            return out

        n = B.shape[1]
        return LinearOperator((n, n), matvec=matvec, dtype=np.float64)


class NewtonSolver:
    """Newton's state over the steps of one solve on the operator `op`: the held LU factor.

    `held` is None or (tau, exact, LU): one factor, tagged with its tau and
    with whether it is the exact Hessian of a quadratic step.  `direction`
    is the one rule that uses and replaces it.
    """

    def __init__(self, op):
        self.op = op
        self.held = None

    def direction(self, step, pt, g, rtol):
        """Newton step dx, |H dx + g| <= rtol |g|, at `step`'s point `pt`: (dx, CG iterations, factorized).

        A quadratic step's Hessian depends only on the operator and tau, so
        a quadratic step at the tau of an exact quadratic factor solves with
        it directly.  Any other step runs CG from dx = 0, preconditioned by
        the held factor, for at most `_PCG_MAX` iterations; with an SPD
        preconditioner every CG iterate is a descent direction.  CG
        multiplies by H through `hessian_operator` without forming it: H is
        assembled only to be factorized.  When no factor is held, CG
        stalls, or a quadratic step lacks its exact factor, the step
        assembles and factorizes H, holds that factor in place of the old
        one and solves exactly, so at most one factor is alive.
        """
        held, quadratic = self.held, step.quadratic
        if quadratic and held is not None and held[1] and held[0] == step.tau:
            return held[2].solve(-g), 0, False
        cg_iters = 0
        if not quadratic and held is not None:
            dx, cg_iters = _pcg(step.hessian_operator(pt), -g, held[2].solve, rtol, _PCG_MAX)
            if dx is not None:
                return dx, cg_iters, False
        self.held = None
        H = step.hessian(pt)
        # H is symmetric positive definite: symmetric ordering, no pivoting
        lu = splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        self.held = (step.tau, quadratic, lu)
        return lu.solve(-g), cg_iters, True


#: Newton iterations one step energy minimization may take
_NEWTON_MAX = 5000
#: CG iterations a Newton solve may take on the held factor before it refactorizes
_PCG_MAX = 8
#: Eisenstat-Walker forcing term: eta_0 = _ETA_MAX, then `_forcing`
_ETA_MAX, _ETA_MIN, _EW_GAMMA = 0.1, 1e-6, 0.9


def _forcing(res, res_old, tol):
    """eta_k = min(_ETA_MAX, max(_EW_GAMMA (res/res_old)^2, _ETA_MIN, tol/(2 res))), Kelley's floor last."""
    return min(_ETA_MAX, max(_EW_GAMMA * (res / res_old) ** 2, _ETA_MIN, 0.5 * tol / max(res, tol)))


def _pcg(H, b, precond, rtol, maxiter):
    """Preconditioned CG for H x = b from x = 0, stopped at |b - H x| <= rtol |b|.

    Returns (x, iterations); x is None when `maxiter` iterations do not
    reach rtol or a curvature turns non-positive.
    """
    x = np.zeros_like(b)
    r = b.copy()
    stop = rtol * np.linalg.norm(b)
    p = rz = None
    for it in range(1, maxiter + 1):
        z = precond(r)
        rz_new = float(np.dot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Hp = H @ p
        curv = float(np.dot(p, Hp))
        if not (rz > 0.0 and curv > 0.0):
            return None, it
        alpha = rz / curv
        x += alpha * p
        r -= alpha * Hp
        if np.linalg.norm(r) <= stop:
            return x, it
    return None, maxiter


def _descend(step, newton, x0, tol):
    """Inexact damped Newton on the step energy, globalised by Armijo backtracking.

    Each iteration solves H dx = -g to the relative residual eta_k of an
    Eisenstat-Walker forcing term (`newton.direction`): eta_0 = 0.1, then
    eta_k = `_forcing`: min(0.1, max(0.9 (res_k/res_{k-1})^2, 1e-6,
    tol/(2 res_k))), so the solve tightens as Newton converges, but never
    past what res <= tol needs.  It then halves t from 1 until the
    energy meets the Armijo test along dx.  The loop owns the current
    point, gradient, residual and counts; `newton` owns the held factor.
    The accepted point is the last `_Point` the line search evaluated, so
    the gradient and Newton direction there read its energy and strain
    instead of computing them again.  The energy trail is monotone up to
    float roundoff; the loop stops when the rms nodal residual falls below
    tol.  A residual that does not end at or below tol, NaN included,
    raises RotheStepError, as does a Newton direction with g.dx >= 0,
    which shows a non-convex energy.  Returns (point, residual, counts),
    counts holding `iters`, `factorizations` and `cg_iters`.
    """
    pt = step.point(x0.copy())  # the point owns its x, which the caller may change
    g = step.gradient(pt)
    n = max(x0.size, 1)
    res = float(np.sqrt(np.dot(g, g) / n))
    eta = _ETA_MAX
    it = factorizations = cg_total = 0
    while res > tol and it < _NEWTON_MAX:
        dx, cg_iters, factorized = newton.direction(step, pt, g, eta)
        factorizations += int(factorized)
        cg_total += cg_iters
        slope = float(np.dot(g, dx))
        if slope >= 0.0:
            raise RotheStepError(f"energy step is not convex: the Newton direction at iteration {it} "
                                 f"does not descend (g.dx = {slope:.3e})", res)
        t = 1.0
        x, J = pt.x, pt.J
        # the roundoff allowance keeps Armijo decidable once the decrease
        # drops below the float noise of the (possibly large) energy value
        noise = 1e-14 * (abs(J) + 1.0)
        # each trial replaces pt: the current point's strain is freed once the first trial is made
        for _ in range(60):
            pt = step.point(x + t * dx)
            if pt.J <= J + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        else:
            raise RotheStepError("backtracking stalled", res)
        g = step.gradient(pt)
        res, res_old = float(np.sqrt(np.dot(g, g) / n)), res
        eta = _forcing(res, res_old, tol)
        it += 1
    # a NaN residual fails every comparison, so "converged" must be res <= tol
    if not res <= tol:
        if np.isfinite(res):
            why = f"did not converge in {_NEWTON_MAX} iterations"
        else:
            why = f"reached a non-finite residual at iteration {it}"
        raise RotheStepError(f"energy step {why} (residual {res:.3e})", res)
    return pt, res, {"iters": it, "factorizations": factorizations, "cg_iters": cg_total}


def _tolerance(data, u_prev, k):
    """1e-8 * (1 + data magnitude): the step's rms residual target."""
    g = data.domain.grid
    mag = u_prev.max_abs() / data.tau
    fk = data.f_at(k)
    if fk is not None:
        mag += float(np.abs(fk).max())
    Fk = data.F_at(k)
    if Fk is not None:
        mag += 2.0 * g.ndim * float(np.abs(Fk).max()) / min(g.spacing)
    return 1e-8 * (1.0 + mag)


def energy_step(u_prev, k, law, low, data, newton=None):
    """One implicit step: minimize the step energy, lower-order potential included.

    `newton` is the solve's `NewtonSolver`, whose held factor carries over
    from step to step; None builds one.  Its operator must be built on
    `data.domain`'s grid and mask.  Returns (u, info): the new VectorField
    and a dict carrying the converged energy and modular sum |eps(u)|_W^p
    over the masked nodes (`modular_eps`), both per unit cell volume, the
    residual, `iters`, `factorizations`, `cg_iters` and `delta`, the delta
    the step ran at.  `_descend` stops at an rms weak-form residual below
    tol = 1e-8 * (1 + data magnitude); RotheStepError carries the final
    residual when the step does not converge within 5000 Newton iterations
    or meets a non-convex energy.
    """
    if newton is None:
        newton = NewtonSolver(EpsOperator(data.domain))
    own = newton.op.domain
    if own.grid != data.domain.grid or not np.array_equal(own.mask, data.domain.mask):
        raise ValueError("newton's EpsOperator is built on another grid or mask than data.domain's")
    step = _Step.at(law, data, k, newton.op, u_prev, low)
    pt, res, counts = _descend(step, newton, step.x_prev, _tolerance(data, u_prev, k))
    info = {"energy": pt.J, "residual": res, **counts, "delta": step.law.delta,
            "modular_eps": float(np.sum(pt.mag**step.p))}
    return newton.op.to_field(pt.x), info


def rothe_solve(data, law, low=None):
    """March the implicit scheme over all steps; returns (trajectory, diagnostics).

    The trajectory holds K+1 VectorFields starting from u0 projected onto
    the free dofs (Dirichlet layer zeroed).  Diagnostics record per-step
    energy, L2 norm, the exponent modular of eps(u), the final residual,
    and the iteration count, all as `energy_step` reports them.  A delta = 0
    law that a step regularizes is logged once, at the first such step,
    before that step runs.
    """
    domain = data.domain
    op = EpsOperator(domain)
    newton = NewtonSolver(op)
    if low is not None and not low.is_zero:
        p_minus = law.exponent.p_minus
        bound = critical_growth_bound(p_minus, op.d)
        if low.r >= bound:
            raise ValueError(
                f"lower-order growth r={low.r} is supercritical (needs r < {bound:.3f})"
            )
    vol = domain.grid.cell_volume

    u = op.to_field(op.to_free(data.u0))  # projects the boundary layer to zero
    traj = [u]
    diags = []
    warned = False
    for k in range(1, data.steps + 1):
        # decided before the step runs, so a step that fails is still reported
        if not warned:
            delta = _step_law(law, data, k, op)[1].delta
            warned = delta != law.delta
            if warned:
                log.warning("delta=0 with p_min < 2 is non-smooth at eps=0; regularized with delta=%r, "
                            "first at step %d of %d", delta, k, data.steps)
        u, info = energy_step(traj[-1], k, law, low, data, newton=newton)
        traj.append(u)
        diags.append(
            StepDiagnostics(
                k=k,
                t=k * data.tau,
                energy=info["energy"] * vol,
                l2norm=float(np.sqrt(np.sum(u.values**2) * vol)),
                modular_eps=info["modular_eps"] * vol,
                residual=info["residual"],
                iters=info["iters"],
            )
        )
    return traj, diags


def write_diagnostics_csv(path, diags, comment=None, extra_columns=None):
    """Per-step diagnostics CSV: the StepDiagnostics fields, then any extra columns."""
    extra = extra_columns or {}
    header = [f.name for f in dataclasses.fields(StepDiagnostics)] + list(extra)
    rows = [
        list(dataclasses.astuple(dg)) + [float(extra[name][i]) for name in extra]
        for i, dg in enumerate(diags)
    ]
    write_table(path, header, rows, comment)


# ---------------------------------------------------------------------------
# discrete a priori (energy) inequality


def energy_inequality_report(traj, law, low, data):
    """Per-step sides of the discrete coercivity (a priori) bound.

    Tested with the solution itself, the step equations telescope into

        1/2 ||u^K||^2 + 1/2 sum tau rho_p(eps u^k)
            <= 1/2 ||u^0||^2 + sum tau [ (f,u^k) + (F,eps u^k) + g_k ]
               + sum tau [ rho_p(delta) + ||c2||_1 ],

    the flux's coercivity constant being c0 = 1 with no offset c1, where
    g_k is the measured weak-form defect of step k (zero for exact
    minimizers).  Returns a list of (lhs, rhs) pairs for K = 1..steps.
    """
    op = EpsOperator(data.domain)
    vol = data.domain.grid.cell_volume
    half_u0 = 0.5 * float(np.sum(traj[0].values**2)) * vol

    lhs_rhs = []
    acc_eps = 0.0
    acc_data = 0.0
    acc_floor = 0.0
    for k in range(1, data.steps + 1):
        step = _Step.at(law, data, k, op, traj[k - 1], low)
        x, _, eps, mag = pt = step.point(op.to_free(traj[k]))
        g_k = float(np.dot(step.gradient(pt), x)) * vol
        f_pair = float(np.dot(step.f, x)) * vol if step.f is not None else 0.0
        F_pair = float(np.sum(op.weights * step.F * eps)) * vol if step.F is not None else 0.0

        acc_eps += data.tau * float(np.sum(mag**step.p)) * vol
        acc_data += data.tau * (f_pair + F_pair + g_k)
        delta = step.law.delta
        rho_delta = float(np.sum(delta**step.p)) * vol if delta > 0 else 0.0
        c2_mass = (low.c2 if low is not None else 0.0) * data.domain.measure()
        acc_floor += data.tau * (rho_delta + c2_mass)

        lhs = 0.5 * float(np.sum(traj[k].values**2)) * vol + 0.5 * acc_eps
        rhs = half_u0 + acc_data + acc_floor
        lhs_rhs.append((lhs, rhs))
    return lhs_rhs


# ---------------------------------------------------------------------------
# integration by parts in time


def _space_inner(u_vals, v_vals, mask, vol):
    prod = np.sum(u_vals * v_vals, axis=-1)
    return np.sum(np.where(mask, prod, 0.0), axis=tuple(range(1, prod.ndim))) * vol


def _time_derivative(vals, tau):
    """Central differences in time with second-order one-sided ends.

    First-order ends would pair with the trapezoid rule into an exact
    summation-by-parts identity, leaving nothing to measure; the
    second-order ends keep a genuine O(tau^2) quadrature residual.
    """
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * tau)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * tau)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * tau)
    return out


def discrete_ibp_check(u, v, domain):
    """Residual of the integration-by-parts formula in time.

    |int (du/dt, v) dt - [(u, v)]_0^T + int (dv/dt, u) dt| with discrete
    time derivatives and trapezoid time quadrature; O(tau^2) for smooth
    inputs, exactly zero when one factor is constant or linear in time.
    """
    if u.grid != v.grid or not u.grid.matches_spatial(domain.grid):
        raise ValueError("u, v must share a space-time grid over the domain")
    if u.grid.dims[0] < 3:
        raise ValueError("need at least 3 time nodes")
    tau = u.grid.spacing[0]
    vol = domain.grid.cell_volume
    du = _time_derivative(u.values, tau)
    dv = _time_derivative(v.values, tau)
    a = _space_inner(du, v.values, domain.mask, vol)
    b = _space_inner(dv, u.values, domain.mask, vol)
    pair = _space_inner(u.values, v.values, domain.mask, vol)

    def trapz(y):
        return tau * (0.5 * y[0] + np.sum(y[1:-1]) + 0.5 * y[-1])

    boundary = pair[-1] - pair[0]
    return float(abs(trapz(a) - boundary + trapz(b)))


# ---------------------------------------------------------------------------
# manufactured solutions


def mms_bump(s, order=0):
    """C-infinity bump on (0,1), its first, or its second derivative.

    b(s) = exp(4 - 1/(s(1-s))) inside (0,1), 0 outside; normalized to peak
    1 at s = 1/2.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    q = si * (1.0 - si)
    b = np.exp(4.0 - 1.0 / q)
    if order == 0:
        out[inside] = b
    elif order == 1:
        out[inside] = b * (1.0 - 2.0 * si) / q**2
    elif order == 2:
        one = (1.0 - 2.0 * si) ** 2
        out[inside] = b * (one - 2.0 * q**2 - 2.0 * one * q) / q**4
    else:
        raise ValueError("order must be 0, 1, or 2")
    return out


def _mms_psi(grid, lo, hi):
    """Separable bump psi and its needed partials on a 2-d grid box."""
    xx = grid.coords()
    L = [hi[a] - lo[a] for a in range(2)]
    s = [(xx[a] - lo[a]) / L[a] for a in range(2)]
    bx, by = mms_bump(s[0]), mms_bump(s[1])
    bx1, by1 = mms_bump(s[0], 1) / L[0], mms_bump(s[1], 1) / L[1]
    bx2, by2 = mms_bump(s[0], 2) / L[0] ** 2, mms_bump(s[1], 2) / L[1] ** 2
    psi = bx * by
    return {
        "psi": psi,
        "xx": bx2 * by,
        "yy": bx * by2,
        "xy": bx1 * by1,
    }


def _mms_box(grid):
    """(lo, hi) corners of a 2-d vertex grid: the support box of the manufactured bump."""
    lo = [grid.origin[a] for a in range(2)]
    hi = [grid.origin[a] + (grid.dims[a] - 1) * grid.spacing[a] for a in range(2)]
    return lo, hi


def _mms_profile(T, amp):
    """Time profile g(t) = 1 + amp sin(2 pi t / T) of the manufactured solution, and g'."""

    def g(t):
        return 1.0 + amp * np.sin(2.0 * np.pi * t / T)

    def gp(t):
        return amp * 2.0 * np.pi / T * np.cos(2.0 * np.pi * t / T)

    return g, gp


def mms_solution_p2(domain, T, K, box=None, g_amplitude=0.5):
    """Manufactured fields for the p = 2, delta = 0 flux: u*, f (analytic), u0.

    u*(t, x) = g(t) (psi, -psi) with psi a separable smooth bump on `box`
    (default: the grid's corners) and g(t) = 1 + g_amplitude sin(2 pi t / T);
    the forcing comes from the closed-form divergence of the symmetric
    gradient, so the spatial error of the scheme is genuinely second order.
    """
    g2 = domain.grid
    lo, hi = _mms_box(g2) if box is None else box
    parts = _mms_psi(g2, lo, hi)
    psi = parts["psi"]
    dive1 = parts["xx"] + 0.5 * parts["yy"] - 0.5 * parts["xy"]
    dive2 = 0.5 * parts["xy"] - 0.5 * parts["xx"] - parts["yy"]

    tau = T / K
    times = np.arange(K + 1) * tau
    g, gp = _mms_profile(T, g_amplitude)

    w = np.stack([psi, -psi], axis=-1)
    st = Grid((K + 1,) + g2.dims, (tau,) + g2.spacing, (0.0,) + g2.origin)
    u_star = VectorField(st, g(times)[:, None, None, None] * w[None, ...])
    f_vals = (
        gp(times)[:, None, None, None] * w[None, ...]
        - g(times)[:, None, None, None] * np.stack([dive1, dive2], axis=-1)[None, ...]
    )
    f = VectorField(st, f_vals)
    u0 = VectorField(g2, g(0.0) * w)
    return u_star, f, u0


def mms_time_derivative_p2(domain, T, K, g_amplitude=0.5):
    """Exact time derivative of the p=2 manufactured solution at vertex index k."""
    g2 = domain.grid
    parts = _mms_psi(g2, *_mms_box(g2))
    w = np.stack([parts["psi"], -parts["psi"]], axis=-1)
    _, gp = _mms_profile(T, g_amplitude)

    def deriv(k):
        return gp(k * T / K) * w

    return deriv


def mms_varp(domain, T, K, exponent_fn, delta, refine=4, g_amplitude=0.5):
    """Manufactured problem for a variable exponent: forcing from a finer grid.

    The divergence of the nonlinear flux has no convenient closed form for
    variable p, so the forcing is assembled with the same discrete
    operators on a `refine`-times finer vertex grid and sampled back at the
    shared coarse nodes.  Returns (u_star, f, u0, law).
    """
    g2 = domain.grid
    lo, hi = _mms_box(g2)
    cells = [g2.dims[a] - 1 for a in range(2)]
    u_star, _, u0 = mms_solution_p2(domain, T, K, box=(lo, hi), g_amplitude=g_amplitude)

    def law_on(grid):
        xx = grid.coords()
        return ConstitutiveLaw(
            exponent=ExponentField(ScalarField(grid, exponent_fn(*xx))), delta=delta
        )

    fine_grid = Grid(
        [c * refine + 1 for c in cells],
        [s / refine for s in g2.spacing],
        g2.origin,
    )
    pad = [s * 0.01 for s in fine_grid.spacing]
    fine_dom = make_rectangle_domain(
        [lo[a] - pad[a] for a in range(2)], [hi[a] + pad[a] for a in range(2)], fine_grid
    )
    star_fine, _, _ = mms_solution_p2(fine_dom, T, K, box=(lo, hi), g_amplitude=g_amplitude)
    fine_data = ProblemData(domain=fine_dom, u0=VectorField(fine_grid, star_fine.values[0]), T=T, tau=T / K)
    f_fine = mms_forcing_discrete(
        star_fine, law_on(fine_grid), fine_data, mms_time_derivative_p2(fine_dom, T, K, g_amplitude)
    )
    sl = (slice(None), slice(None, None, refine), slice(None, None, refine), slice(None))
    f = VectorField(u_star.grid, f_fine.values[sl])
    return u_star, f, u0, law_on(g2)


def mms_forcing_discrete(u_star, law, data, time_derivative):
    """Forcing that makes u* the exact semidiscrete solution.

    f_k := du*/dt(t_k) + adjoint-eps of S(eps_h u*(t_k)) on the free dofs,
    built with the solver's own discrete operators; the remaining error of
    the full scheme is then pure backward-Euler time error.
    """
    op = EpsOperator(data.domain)
    d = op.d
    K = data.steps
    g = data.domain.grid
    out = np.zeros((K + 1,) + g.dims + (d,))
    for k in range(K + 1):
        p_nodes, law_k = _step_law(law, data, k, op)
        S = law_k.flux(op.eps(op.free_values(u_star.values[k])), p_nodes, d)
        # time_derivative(k) is the exact time derivative on the spatial grid
        out[k] = op.to_field(op.free_values(time_derivative(k)) + op.eps_adjoint(S)).values
    return VectorField(u_star.grid, out)
