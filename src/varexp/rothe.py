"""Implicit-Euler (Rothe) solver for the model parabolic problem.

Each backward-Euler step solves a convex minimization whose gradient is the
weak form of

    (u - u_prev)/tau - div S(., ., eps(u)) + b(., ., u) = f - div F,

with a flux of (p(t,x), delta)-structure, S(A) = (delta+|A|)^(p-2) A, and a
lower-order term b treated explicitly inside a relaxed fixed-point loop:
v <- (1 - theta) v + theta x, undamped (theta = 1) first, with theta halved
whenever the gap rms(x - v) stops shrinking (keeps more than 0.8 of the
previous sweep's gap).
A step's data (u_prev, tau, p at the masked nodes, the regularized law, f,
F and b) is assembled once into a `_Step`, whose energy, gradient and
Hessian are what damped Newton reads.  The strain eps(x) that the line
search evaluates at the point it accepts serves the gradient and Hessian
there, so each Newton iterate evaluates it once.  The sparse step Hessian
I/tau + B^T D B is assembled from the exact-adjoint symmetric-gradient
operator B.  The operator holds one sparse LU factor.  A quadratic step
(p = 2 at every masked node) has a Hessian that depends on tau alone, so
its factor serves every quadratic step at that tau exactly.  Any other
step solves its Newton system inexactly, by conjugate gradients
preconditioned with the held factor to an Eisenstat-Walker forcing term.
CG multiplies by the Hessian without forming it; the step assembles and
factorizes its current Hessian only when no factor is held or CG stalls.
Armijo backtracking on the energy globalises the step.
`energy_step` returns the new field and an info dict, which `rothe_solve`
records as it is.  Dirichlet boundary values are enforced by constraining
the boundary layer of masked nodes to zero.  This
is the package's one sparse user: scipy.sparse and its SuperLU load with
the first `EpsOperator`, so `import varexp` needs numpy only.  The
module also provides the discrete energy (a priori) inequality report, the
integration-by-parts residual in time, and manufactured-solution helpers.
"""

from __future__ import annotations

import dataclasses
import functools
import logging

import numpy as np

from .calculus import _stencil
from .fields import Grid, ScalarField, VectorField, _magnitude, make_rectangle_domain, sym_pairs, sym_weights
from .fields import _close, _time_axes, write_table
from .modular import ExponentField

log = logging.getLogger(__name__)

__all__ = [
    "ConstitutiveLaw",
    "LowerOrderLaw",
    "flux_factor",
    "flux_potential",
    "ProblemData",
    "EpsOperator",
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
    """(delta + s)^(p-2) with the s = delta = 0 limit resolved to 0."""
    s = np.asarray(s, dtype=float)
    base = delta + s
    pexp = np.broadcast_to(np.asarray(p, dtype=float), base.shape)
    out = np.zeros_like(base)
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
    """Flux S(t,x,A) = (delta+|A|)^(p(t,x)-2) A with its structure constants.

    The canonical instance has growth constant alpha=1, coercivity constant
    c0=1, and vanishing offsets beta, c1; those values make the growth,
    coercivity, and monotonicity conditions hold with equality slack.
    """

    exponent: ExponentField
    delta: float = 0.0
    alpha: float = 1.0
    c0: float = 1.0
    beta_offset: float = 0.0
    c1_offset: float = 0.0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")

    def exponent_at(self, data, k):
        """Spatial exponent values at vertex time index k; a space-time p sits on the step's time nodes."""
        p = self.exponent
        if not _time_axes(p.grid, data.domain.grid, "domain"):
            return p.values.values
        data._check_time_nodes("p(t, x)", p.grid)
        return p.values.values[k]

    def flux(self, eps_comps, p_nodes, d):
        """S applied to compact symmetric components at a set of nodes."""
        return self._flux(eps_comps, _magnitude(eps_comps, sym_weights(d), (-1,)), p_nodes)

    def _flux(self, eps_comps, eps_mag, p_nodes):
        """`flux` given the components' magnitudes |eps|_W."""
        return flux_factor(eps_mag, p_nodes, self.delta)[..., None] * eps_comps

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
    """Lower-order term b(t,x,a) with growth exponent r and sign constant c2.

    Canonical instances: `zero` (b = 0), `power` (gamma |a|^(r-1) a, which
    is sign-positive), and `damped` which subtracts a bounded attractor and
    therefore carries a genuine c2 > 0.
    """

    func: object
    r: float
    gamma: float
    c2: float = 0.0
    name: str = "custom"

    @classmethod
    def zero(cls):
        return cls(func=lambda a: np.zeros_like(a), r=1.0, gamma=0.0, name="zero")

    @classmethod
    def power(cls, gamma, r):
        if gamma < 0 or r < 1:
            raise ValueError("need gamma >= 0 and r >= 1")

        def f(a):
            return gamma * _magnitude(a, 1.0, (-1,))[..., None] ** (r - 1.0) * a

        return cls(func=f, r=float(r), gamma=float(gamma), name="power")

    @classmethod
    def damped(cls, gamma, r, kappa):
        """Power law minus the bounded perturbation kappa a/(1+|a|^2)."""
        if kappa < 0:
            raise ValueError("kappa must be >= 0")
        base = cls.power(gamma, r)

        def f(a):
            # kappa (a/m) / (m |a/m|^2 + 1/m) where |a|^2 would overflow; m = 1 elsewhere
            m = np.max(np.abs(a), axis=-1)[..., None]
            m = np.where((m > 1e150) & (m < np.inf), m, 1.0)
            s = a / m
            return base.func(a) - kappa * s / (m * np.sum(s**2, axis=-1)[..., None] + 1.0 / m)

        return cls(func=f, r=float(r), gamma=float(gamma) + kappa, c2=float(kappa), name="damped")

    def __call__(self, a):
        return self.func(a)

    @property
    def is_zero(self):
        return self.gamma == 0.0 and self.c2 == 0.0


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
        K = self.T / self.tau
        if abs(K - round(K)) > 1e-9 * max(1.0, K):
            raise ValueError(f"tau={self.tau} does not divide T={self.T}")
        if self.u0.grid != self.domain.grid:
            raise ValueError("u0 must live on the domain grid")
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
        if self.f is None:
            return None
        return self.f.values[k]

    def F_at(self, k):
        if self.F is None:
            return None
        return self.F.values[k]


# ---------------------------------------------------------------------------
# discrete symmetric-gradient operator (exact adjoint via sparse transpose),
# built from the same masked stencil as calculus.gradient


def splu(A, **options):
    """scipy.sparse.linalg.splu; the one name through which the solver factorizes."""
    from scipy.sparse.linalg import splu

    return splu(A, **options)


def _axis_operator(mask, axis, h):
    """Sparse d/dx_axis on the nodes of `mask` (C order), spacing h, as CSR."""
    from scipy import sparse

    rows, cols, vals = [], [], []
    for nodes, *terms in _stencil(mask, axis, h):
        for shift, coeff in terms:
            rows.append(nodes)
            cols.append(nodes + shift)
            vals.append(np.full(len(nodes), coeff))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(mask.size, mask.size)).tocsr()


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

        # d/dx_ax with rows at the masked nodes and columns at the free ones
        D = [_axis_operator(domain.mask, ax, g.spacing[ax]) for ax in range(d)]
        D = [Da[self.masked_idx][:, self.free_idx] for Da in D]

        blocks = []
        for i, j in sym_pairs(d):
            row = [None] * d
            if i == j:
                row[i] = D[i]
            else:
                row[i] = 0.5 * D[j]
                row[j] = 0.5 * D[i]
            zero = sparse.csr_matrix((self.n_masked, self.n_free))
            blocks.append([blk if blk is not None else zero for blk in row])
        self.B = sparse.bmat(blocks, format="csr")
        self._lu = None  # (tau, exact_quadratic, LU) of the last factor, see _Step.newton_direction

    @functools.cached_property
    def _hessian_parts(self):
        """(B^T as CSR, indptr and indices of D as CSR), built on the first Hessian.

        Row a*n_masked + node of D holds the node's m block entries, at
        columns b*n_masked + node for b = 0..m-1.
        """
        nm, m = self.n_masked, self.m
        indptr = np.arange(0, m * nm * m + 1, m, dtype=np.int32)
        cols = np.arange(m, dtype=np.int32) * nm + np.arange(nm, dtype=np.int32)[:, None]
        indices = np.broadcast_to(cols, (m, nm, m)).ravel()
        return self._Bt.tocsr(), indptr, indices

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


@dataclasses.dataclass(frozen=True)
class _Step:
    """The convex energy of one implicit step over the free dofs of `op`.

    x_prev, f and b are free-dof vectors, F holds compact components at
    the masked nodes, and p is the exponent there; f, F and b may be None
    for zero data.  Values are per unit cell volume.
    """

    op: EpsOperator
    x_prev: np.ndarray
    tau: float
    p: np.ndarray
    law: ConstitutiveLaw
    f: np.ndarray = None
    F: np.ndarray = None
    b: np.ndarray = None
    #: [x, (J, eps, |eps|_W)] of the last point evaluated, see `_point`
    _last: list = dataclasses.field(
        default_factory=lambda: [None, None], init=False, repr=False, compare=False
    )

    @classmethod
    def at(cls, law, data, k, op, u_prev):
        """Step k of `data` from u_prev, without a lower-order term."""
        p, law = _step_law(law, data, k, op)
        fk, Fk = data.f_at(k), data.F_at(k)
        f = op.free_values(fk) if fk is not None else None
        F = op.masked_values(Fk, op.m) if Fk is not None else None
        return cls(op, op.to_free(u_prev), data.tau, p, law, f, F)

    def _point(self, x):
        """(energy, eps, |eps|_W) at free dofs x; the last point's values are kept.

        Newton's line search evaluates the energy at the point it accepts,
        and the gradient and Hessian there read these values rather than
        recompute them, so each iterate's strain is evaluated once.  The
        point is recognised by the identity of x, which callers therefore
        never change in place.
        """
        last = self._last
        if last[0] is not x:
            eps = self.op.eps(x)
            w = self.op.weights
            du = x - self.x_prev
            mag = _magnitude(eps, w, (-1,))
            J = float(np.sum(0.5 * du * du) / self.tau + np.sum(self.law.potential(mag, self.p)))
            if self.f is not None:
                J -= float(np.dot(self.f, x))
            if self.b is not None:
                J += float(np.dot(self.b, x))
            if self.F is not None:
                J -= float(np.sum(w * self.F * eps))
            last[:] = x, (J, eps, mag)
        return last[1]

    def energy(self, x):
        """Energy value at free dofs x, and eps(x) at masked nodes."""
        J, eps, _ = self._point(x)
        return J, eps

    def energy_grad(self, x):
        """Energy value and gradient at free dofs x."""
        J, eps, mag = self._point(x)
        S = self.law._flux(eps, mag, self.p)
        if self.F is not None:
            S = S - self.F
        g = (x - self.x_prev) / self.tau + self.op.eps_adjoint(S)
        if self.f is not None:
            g -= self.f
        if self.b is not None:
            g += self.b
        return J, g

    @property
    def quadratic(self):
        """True when p = 2 at every masked node, where H = I/tau + B^T W B for every x."""
        return bool(np.all(self.p == 2.0))

    def _curvature(self, x):
        """(phi, coef, W eps) at free dofs x: the blocks of D, node by node.

        D is block-diagonal over masked nodes; with s = |eps|_W and W =
        diag(sym_weights) the block of a node is
        (delta+s)^(p-2) [W + (p-2)/(s(delta+s)) (W eps)(W eps)^T] =
        phi W + coef (W eps)(W eps)^T, the second term taken as 0 at s = 0.
        Where s(delta+s) would under- or overflow, W eps is returned divided
        by s and coef multiplied by s^2, which leaves the block as it is.
        Every block is positive semidefinite for p > 1.
        """
        p_nodes = self.p
        _, eps, s = self._point(x)
        we = self.op.weights * eps
        base = self.law.delta + s
        # base > 0 wherever p < 2 (see _step_law); 0^0 = 1 keeps p = 2 exact
        phi = base ** (p_nodes - 2.0)
        coef = np.zeros_like(s)
        # s * base leaves the float range where s lies outside [1e-150, 1e150]
        # (see _magnitude); there the second term is (p-2) s/base (W eps/s)(W eps/s)^T
        far = ((s < 1e-150) & (s > 0.0)) | (s > 1e150)
        near = (s > 0.0) & ~far
        coef[near] = phi[near] * (p_nodes[near] - 2.0) / (s[near] * base[near])
        if far.any():
            we[far] /= s[far, None]
            coef[far] = phi[far] * (p_nodes[far] - 2.0) * (s[far] / base[far])
        return phi, coef, we

    def hessian(self, x):
        """Hessian I/tau + B^T D B of the energy at free dofs x, as a CSC matrix.

        D's blocks are `_curvature`'s; they are positive semidefinite, so H
        is symmetric positive definite.  Only a factorization needs H as a
        matrix: CG multiplies by `hessian_operator` instead.
        """
        from scipy import sparse

        op = self.op
        phi, coef, we = self._curvature(x)
        # blocks[a, node, b] is the entry of D at row a*nm + node, column b*nm + node
        blocks = coef[None, :, None] * we.T[:, :, None] * we[None, :, :]
        blocks += phi[None, :, None] * np.diag(op.weights)[:, None, :]
        bt, indptr, indices = op._hessian_parts
        n = blocks.shape[0] * blocks.shape[1]
        D = sparse.csr_matrix((blocks.ravel(), indices, indptr), shape=(n, n))
        H = bt @ (D @ op.B)
        # setdiag also inserts the diagonal entries the product dropped as exact zeros
        H.setdiag(H.diagonal() + 1.0 / self.tau)
        return H.tocsc()

    def hessian_operator(self, x):
        """H(x) = I/tau + B^T D B as a LinearOperator that never forms the matrix.

        A product v/tau + B^T y reads `_curvature`'s blocks node by node:
        y = phi W (B v) + coef (W eps) ((W eps) . B v), laid out as B's rows.
        """
        from scipy.sparse.linalg import LinearOperator

        op = self.op
        phi, coef, we = self._curvature(x)
        phi_w = op.weights[:, None] * phi  # (m, n_masked), the layout of B v
        we = np.ascontiguousarray(we.T)
        B, bt, inv_tau = op.B, op._Bt, 1.0 / self.tau

        def matvec(v):
            e = (B @ v).reshape(we.shape)
            y = phi_w * e
            y += (coef * np.einsum("an,an->n", we, e)) * we
            return v * inv_tau + bt @ y.reshape(-1)

        n = B.shape[1]
        return LinearOperator((n, n), matvec=matvec, dtype=np.float64)

    def newton_direction(self, x, g, rtol):
        """A Newton step dx with |H(x) dx + g| <= rtol |g|; returns (dx, CG iterations, factorized).

        The operator holds one LU factor, tagged with its tau and with
        whether it is the exact Hessian of a quadratic step.  A quadratic
        step's Hessian depends only on the operator and tau, so a quadratic
        step at the tau of an exact quadratic factor solves with it
        directly.  Any other step runs CG from dx = 0, preconditioned by
        the held factor, for at most `_PCG_MAX` iterations; with an SPD
        preconditioner every CG iterate is a descent direction.  CG
        multiplies by H(x) through `hessian_operator` without forming it:
        H is assembled only to be factorized.  When no factor is held, CG
        stalls, or a quadratic step lacks its exact factor, the step
        assembles and factorizes H(x), holds that factor in place of the
        old one and solves exactly, so at most one factor is alive.
        """
        op, held, quadratic = self.op, self.op._lu, self.quadratic
        if quadratic and held is not None and held[1] and held[0] == self.tau:
            return held[2].solve(-g), 0, False
        cg_iters = 0
        if not quadratic and held is not None:
            dx, cg_iters = _pcg(self.hessian_operator(x), -g, held[2].solve, rtol, _PCG_MAX)
            if dx is not None:
                return dx, cg_iters, False
        op._lu = None
        H = self.hessian(x)
        # H is symmetric positive definite: symmetric ordering, no pivoting
        lu = splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        op._lu = (self.tau, quadratic, lu)
        return lu.solve(-g), cg_iters, True


#: Newton iterations one step energy minimization may take
_NEWTON_MAX = 5000
#: CG iterations a Newton solve may take on the held factor before it refactorizes
_PCG_MAX = 8
#: Eisenstat-Walker forcing term: eta_0 = _ETA_MAX, then
#: eta_k = max(min(_ETA_MAX, _EW_GAMMA (res_k/res_{k-1})^2), _ETA_MIN)
_ETA_MAX, _ETA_MIN, _EW_GAMMA = 0.1, 1e-6, 0.9


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


def _descend(step, x0, tol):
    """Inexact damped Newton on the convex step energy, globalised by Armijo backtracking.

    Each iteration solves H dx = -g to the relative residual eta_k of an
    Eisenstat-Walker forcing term (`_Step.newton_direction`): eta_0 = 0.1,
    then eta_k = max(min(0.1, 0.9 (res_k/res_{k-1})^2), 1e-6), so the
    solve tightens as Newton converges.  It then halves t from 1 until the
    energy meets the Armijo test along dx.  The accepted point is the last
    one the line search evaluated, so the gradient and Newton direction
    there read its energy and strain (`_Step._point`) instead of computing
    them again.  The energy trail is monotone up to float roundoff; the loop
    stops when the rms nodal residual falls below tol.  A residual that
    does not end at or below tol, NaN included, raises RotheStepError.
    Returns (x, J, residual, counts), counts holding `iters`,
    `factorizations` and `cg_iters`.
    """
    x = x0.copy()
    J, g = step.energy_grad(x)
    n = max(x.size, 1)
    res = float(np.sqrt(np.dot(g, g) / n))
    eta = _ETA_MAX
    it = factorizations = cg_total = 0
    while res > tol and it < _NEWTON_MAX:
        dx, cg_iters, factorized = step.newton_direction(x, g, eta)
        factorizations += int(factorized)
        cg_total += cg_iters
        slope = float(np.dot(g, dx))
        t = 1.0
        # the roundoff allowance keeps Armijo decidable once the decrease
        # drops below the float noise of the (possibly large) energy value
        noise = 1e-14 * (abs(J) + 1.0)
        for _ in range(60):
            xn = x + t * dx
            Jn, _ = step.energy(xn)
            if Jn <= J + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        else:
            raise RotheStepError("backtracking stalled", res)
        x = xn
        J, g = step.energy_grad(x)
        res, res_old = float(np.sqrt(np.dot(g, g) / n)), res
        eta = max(min(_ETA_MAX, _EW_GAMMA * (res / res_old) ** 2), _ETA_MIN)
        it += 1
    # a NaN residual fails every comparison, so "converged" must be res <= tol
    if not res <= tol:
        if np.isfinite(res):
            why = f"did not converge in {_NEWTON_MAX} iterations"
        else:
            why = f"reached a non-finite residual at iteration {it}"
        raise RotheStepError(f"energy step {why} (residual {res:.3e})", res)
    return x, J, res, {"iters": it, "factorizations": factorizations, "cg_iters": cg_total}


#: Picard sweeps allowed for the explicit lower-order argument of one step
_PICARD_MAX = 50
#: a Picard sweep whose gap exceeds this share of the previous sweep's gap has
#: stopped shrinking: at that rate 50 sweeps shrink it by less than five orders
_PICARD_SHRINK = 0.8


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


def energy_step(u_prev, k, law, low, data, op=None):
    """One implicit step: minimize the step energy, Picard-iterating the b-term.

    Returns (u, info): the new VectorField and a dict carrying the
    converged energy and modular sum |eps(u)|_W^p over the masked nodes
    (`modular_eps`), both per unit cell volume, the residual, `iters`,
    `factorizations` and `cg_iters` summed over the Picard sweeps, the
    sweeps (`sweeps`, 1 without a lower-order term) and `delta`, the delta
    the step ran at.  The minimizer runs
    inexact damped Newton with Armijo backtracking (`_descend`): CG on the
    held factor, a factorization only when CG stalls, and a quadratic
    step's exact factor reused at its tau; the gradient and Hessian at an
    accepted iterate reuse the strain its line search evaluated.  It stops
    when the rms weak-form residual is below tol = 1e-8 * (1 + data
    magnitude); non-convergence within 5000 Newton iterations raises
    RotheStepError with the final residual.  A sweep minimizes with b taken
    at v, from the previous sweep's minimizer x, and relaxes v <- (1 - theta)
    v + theta x: theta = 1 at first, halved whenever the gap rms(x - v)
    stops shrinking, that is whenever it keeps more than 0.8 of the previous
    sweep's gap.  The loop stops once that gap is at most tol, and
    raises RotheStepError when it has not after 50 sweeps.
    """
    if op is None:
        op = EpsOperator(data.domain)
    step = _Step.at(law, data, k, op, u_prev)
    tol = _tolerance(data, u_prev, k)

    # an undamped map that nearly flips the gap's sign each sweep shrinks it
    # by a factor close to 1, which theta = 1/2 cancels; without a
    # lower-order term the first sweep is the whole step
    plain = low is None or low.is_zero
    v = x = step.x_prev
    theta, gap = 1.0, np.inf
    counts = {}
    for sweep in range(1, _PICARD_MAX + 1):
        if not plain:
            step = dataclasses.replace(step, b=op.free_values(low(op.to_field(v).values)))
        x, J, res, swept = _descend(step, x, tol)
        counts = {key: counts.get(key, 0) + n for key, n in swept.items()}
        gap, gap_old = float(np.sqrt(np.sum((x - v) ** 2) / max(v.size, 1))), gap
        if plain or gap <= tol:
            _, _, mag = step._point(x)  # the strain the last Newton iterate evaluated
            info = {"energy": J, "residual": res, **counts, "sweeps": sweep,
                    "delta": step.law.delta, "modular_eps": float(np.sum(mag**step.p))}
            return op.to_field(x), info
        if gap > _PICARD_SHRINK * gap_old:
            theta *= 0.5
        v = (1.0 - theta) * v + theta * x
    raise RotheStepError(f"Picard loop did not settle in {_PICARD_MAX} iterations", gap)


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
        u, info = energy_step(traj[-1], k, law, low, data, op=op)
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

        1/2 ||u^K||^2 + (c0/2) sum tau rho_p(eps u^k)
            <= 1/2 ||u^0||^2 + sum tau [ (f,u^k) + (F,eps u^k) + g_k ]
               + sum tau [ c0 rho_p(delta) + ||c1||_1 + ||c2||_1 ],

    where g_k is the measured weak-form defect of step k (zero for exact
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
        step = _Step.at(law, data, k, op, traj[k - 1])
        if low is not None and not low.is_zero:
            step = dataclasses.replace(step, b=op.free_values(low(traj[k].values)))
        x = op.to_free(traj[k])
        _, g = step.energy_grad(x)
        _, eps, mag = step._point(x)  # the strain energy_grad evaluated
        g_k = float(np.dot(g, x)) * vol
        f_pair = float(np.dot(step.f, x)) * vol if step.f is not None else 0.0
        F_pair = float(np.sum(op.weights * step.F * eps)) * vol if step.F is not None else 0.0

        acc_eps += data.tau * float(np.sum(mag**step.p)) * vol
        acc_data += data.tau * (f_pair + F_pair + g_k)
        delta = step.law.delta
        rho_delta = float(np.sum(delta**step.p)) * vol if delta > 0 else 0.0
        c2_mass = (low.c2 if low is not None else 0.0) * data.domain.measure()
        c1_mass = law.c1_offset * data.domain.measure()
        acc_floor += data.tau * (law.c0 * rho_delta + c1_mass + c2_mass)

        lhs = 0.5 * float(np.sum(traj[k].values**2)) * vol + 0.5 * law.c0 * acc_eps
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
