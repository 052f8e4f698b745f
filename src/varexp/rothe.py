"""Implicit-Euler (Rothe) solver for the model parabolic problem.

Each backward-Euler step solves a convex minimization whose gradient is the
weak form of

    (u - u_prev)/tau - div S(., ., eps(u)) + b(., ., u) = f - div F,

with a flux of (p(t,x), delta)-structure, S(A) = (delta+|A|)^(p-2) A, and a
lower-order term b treated explicitly inside a damped fixed-point loop.
A step's data (u_prev, tau, p at the masked nodes, the regularized law, f,
F and b) is assembled once into a `_Step`, whose energy, gradient and
Hessian are what damped Newton reads: the sparse step Hessian
I/tau + B^T D B is assembled from the exact-adjoint symmetric-gradient
operator B.  The operator holds one sparse LU factor.  A quadratic step
(p = 2 at every masked node) has a Hessian that depends on tau alone, so
its factor serves every quadratic step at that tau exactly.  Any other
step solves its Newton system inexactly, by conjugate gradients
preconditioned with the held factor to an Eisenstat-Walker forcing term,
and factorizes its current Hessian only when no factor is held or CG
stalls.  Armijo
backtracking on the energy globalises the step.  `energy_step`
returns the new field and an info dict.  Dirichlet boundary values are
enforced by constraining the boundary layer of masked nodes to zero.  This
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
from .fields import write_table
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
        """Spatial exponent values at vertex time index k."""
        p = self.exponent
        if p.grid == data.domain.grid:
            return p.values.values
        if p.grid.matches_spatial(data.domain.grid):
            return p.values.values[k]
        raise ValueError("law exponent lives on neither the spatial nor the space-time grid")

    def flux(self, eps_comps, p_nodes, d):
        """S applied to compact symmetric components at a set of nodes."""
        fac = flux_factor(_magnitude(eps_comps, sym_weights(d), (-1,)), p_nodes, self.delta)
        return fac[..., None] * eps_comps

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
    eta_offset: float = 0.0
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
        outside = ~self.domain.mask
        if np.abs(self.u0.values[outside]).max(initial=0.0) > 0.0:
            raise ValueError("u0 must be supported in the domain")
        for name in ("f", "F"):
            fld = getattr(self, name)
            if fld is not None and not fld.grid.matches_spatial(self.domain.grid):
                raise ValueError(f"{name} must live on a space-time grid over the domain")
            if fld is not None and fld.grid.dims[0] != self.steps + 1:
                raise ValueError(f"{name} needs {self.steps + 1} vertex time nodes")

    @property
    def steps(self):
        return int(round(self.T / self.tau))

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
        nm, m = self.n_masked, self.d * (self.d + 1) // 2
        indptr = np.arange(0, m * nm * m + 1, m, dtype=np.int32)
        cols = np.arange(m, dtype=np.int32) * nm + np.arange(nm, dtype=np.int32)[:, None]
        indices = np.broadcast_to(cols, (m, nm, m)).ravel()
        return self.B.T.tocsr(), indptr, indices

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
        m = self.d * (self.d + 1) // 2
        return (self.B @ x).reshape(m, self.n_masked).T

    def eps_adjoint(self, comps):
        """Exact adjoint of eps applied to weighted masked-node components."""
        m = self.d * (self.d + 1) // 2
        y = (self.weights * comps).T.reshape(m * self.n_masked)
        return self.B.T @ y


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

    @classmethod
    def at(cls, law, data, k, op, u_prev):
        """Step k of `data` from u_prev, without a lower-order term."""
        p, law = _step_law(law, data, k, op)
        fk, Fk = data.f_at(k), data.F_at(k)
        f = op.free_values(fk) if fk is not None else None
        F = op.masked_values(Fk, op.d * (op.d + 1) // 2) if Fk is not None else None
        return cls(op, op.to_free(u_prev), data.tau, p, law, f, F)

    def energy(self, x):
        """Energy value at free dofs x, and eps(x) at masked nodes."""
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
        return J, eps

    def energy_grad(self, x):
        """Energy value and gradient at free dofs x."""
        J, eps = self.energy(x)
        S = self.law.flux(eps, self.p, self.op.d)
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

    def hessian(self, x):
        """Hessian I/tau + B^T D B of the energy at free dofs x, as a CSC matrix.

        D is block-diagonal over masked nodes; with s = |eps|_W and W =
        diag(sym_weights) the block of a node is
        (delta+s)^(p-2) [W + (p-2)/(s(delta+s)) (W eps)(W eps)^T], the second
        term taken as 0 at s = 0 and scaled by s^2 where s(delta+s) would
        under- or overflow.  Every block is positive semidefinite for p > 1,
        so H is symmetric positive definite.
        """
        from scipy import sparse

        op, p_nodes = self.op, self.p
        eps = op.eps(x)
        w = op.weights
        we = w * eps
        s = _magnitude(eps, w, (-1,))
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
        # blocks[a, node, b] is the entry of D at row a*nm + node, column b*nm + node
        blocks = coef[None, :, None] * we.T[:, :, None] * we[None, :, :]
        blocks += phi[None, :, None] * np.diag(w)[:, None, :]
        bt, indptr, indices = op._hessian_parts
        n = blocks.shape[0] * blocks.shape[1]
        D = sparse.csr_matrix((blocks.ravel(), indices, indptr), shape=(n, n))
        H = bt @ (D @ op.B)
        # setdiag also inserts the diagonal entries the product dropped as exact zeros
        H.setdiag(H.diagonal() + 1.0 / self.tau)
        return H.tocsc()

    def newton_direction(self, x, g, rtol):
        """A Newton step dx with |H(x) dx + g| <= rtol |g|; returns (dx, CG iterations, factorized).

        The operator holds one LU factor, tagged with its tau and with
        whether it is the exact Hessian of a quadratic step.  A quadratic
        step's Hessian depends only on the operator and tau, so a quadratic
        step at the tau of an exact quadratic factor solves with it
        directly.  Any other step runs CG from dx = 0, preconditioned by
        the held factor, for at most `_PCG_MAX` iterations; with an SPD
        preconditioner every CG iterate is a descent direction.  When no
        factor is held, CG stalls, or a quadratic step lacks its exact
        factor, the step factorizes H(x), holds that factor in place of the
        old one and solves exactly, so at most one factor is alive.
        """
        op, held, quadratic = self.op, self.op._lu, self.quadratic
        if quadratic and held is not None and held[1] and held[0] == self.tau:
            return held[2].solve(-g), 0, False
        H = self.hessian(x)
        cg_iters = 0
        if not quadratic and held is not None:
            dx, cg_iters = _pcg(H, -g, held[2].solve, rtol, _PCG_MAX)
            if dx is not None:
                return dx, cg_iters, False
        op._lu = None
        # H is symmetric positive definite: symmetric ordering, no pivoting
        lu = splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        op._lu = (self.tau, quadratic, lu)
        return lu.solve(-g), cg_iters, True


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


def _descend(step, x0, tol, max_iter, trace=None, counts=None):
    """Inexact damped Newton on the convex step energy, globalised by Armijo backtracking.

    Each iteration solves H dx = -g to the relative residual eta_k of an
    Eisenstat-Walker forcing term (`_Step.newton_direction`): eta_0 = 0.1,
    then eta_k = max(min(0.1, 0.9 (res_k/res_{k-1})^2), 1e-6), so the
    solve tightens as Newton converges.  It then halves t from 1 until the
    energy meets the Armijo test along dx.  The energy trail is therefore
    monotone up to float roundoff; the loop stops when the rms nodal
    residual falls below tol.  `trace`, if given, collects the energy after
    every accepted step; `counts`, if given, adds up the step's
    `factorizations` and `cg_iters`.
    """
    x = x0.copy()
    J, g = step.energy_grad(x)
    n = max(x.size, 1)
    res = float(np.sqrt(np.dot(g, g) / n))
    eta = _ETA_MAX
    it = 0
    while res > tol and it < max_iter:
        dx, cg_iters, factorized = step.newton_direction(x, g, eta)
        if counts is not None:
            counts["factorizations"] += int(factorized)
            counts["cg_iters"] += cg_iters
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
        if trace is not None:
            trace.append(J)
        res, res_old = float(np.sqrt(np.dot(g, g) / n)), res
        eta = max(min(_ETA_MAX, _EW_GAMMA * (res / res_old) ** 2), _ETA_MIN)
        it += 1
    if res > tol:
        raise RotheStepError(
            f"energy step did not converge in {max_iter} iterations (residual {res:.3e})", res
        )
    return x, J, res, it


#: Picard sweeps allowed for the explicit lower-order argument of one step
_PICARD_MAX = 50


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


def energy_step(u_prev, k, law, low, data, op=None, max_iter=5000):
    """One implicit step: minimize the step energy, Picard-iterating the b-term.

    Returns (u, info): the new VectorField and a dict carrying the
    converged energy and residual, and the Newton iterations
    (`iters`), Hessian factorizations (`factorizations`) and CG iterations
    (`cg_iters`), each summed over the Picard sweeps.  The minimizer runs
    inexact damped Newton with Armijo backtracking (`_descend`): CG on the
    held factor, a factorization only when CG stalls, and a quadratic
    step's exact factor reused at its tau.  It stops when the rms
    weak-form residual is below 1e-8 * (1 + data magnitude);
    non-convergence within max_iter Newton iterations raises
    RotheStepError with the final residual, and so does a Picard loop that
    has not settled after 50 sweeps.  Each sweep's descent starts from the
    previous sweep's minimizer.
    """
    if op is None:
        op = EpsOperator(data.domain)
    step = _Step.at(law, data, k, op, u_prev)
    if step.law is not law:
        log.warning(
            "delta=0 with p_min < 2 is non-smooth at eps=0; regularized with delta=%r",
            step.law.delta,
        )
    tol = _tolerance(data, u_prev, k)

    # damped fixed point in the explicit b argument; without a lower-order
    # term the first sweep is the whole step
    plain = low is None or low.is_zero
    v = x = step.x_prev
    total_iters = 0
    counts = {"factorizations": 0, "cg_iters": 0}
    drift = np.inf
    for _ in range(_PICARD_MAX):
        if not plain:
            step = dataclasses.replace(step, b=op.free_values(low(op.to_field(v).values)))
        x, J, res, it = _descend(step, x, tol, max_iter, counts=counts)
        total_iters += it
        v_new = 0.5 * v + 0.5 * x
        drift = float(np.sqrt(np.sum((v_new - v) ** 2) / max(v.size, 1)))
        v = v_new
        if plain or drift <= tol:
            return op.to_field(x), {"energy": J, "residual": res, "iters": total_iters, **counts}
    raise RotheStepError(f"Picard loop did not settle in {_PICARD_MAX} iterations", drift)


def rothe_solve(data, law, low=None):
    """March the implicit scheme over all steps; returns (trajectory, diagnostics).

    The trajectory holds K+1 VectorFields starting from u0 projected onto
    the free dofs (Dirichlet layer zeroed).  Diagnostics record per-step
    energy, L2 norm, the exponent modular of eps(u), the final residual,
    and the iteration count.
    """
    domain = data.domain
    op = EpsOperator(domain)
    d = op.d
    if low is not None and not low.is_zero:
        p_minus = law.exponent.p_minus
        bound = critical_growth_bound(p_minus, d)
        if low.r >= bound:
            raise ValueError(
                f"lower-order growth r={low.r} is supercritical (needs r < {bound:.3f})"
            )
    vol = domain.grid.cell_volume

    u = op.to_field(op.to_free(data.u0))  # projects the boundary layer to zero
    traj = [u]
    diags = []
    for k in range(1, data.steps + 1):
        u, info = energy_step(traj[-1], k, law, low, data, op=op)
        traj.append(u)
        p_nodes, _ = _step_law(law, data, k, op)
        mag = _magnitude(op.eps(op.to_free(u)), op.weights, (-1,))
        diags.append(
            StepDiagnostics(
                k=k,
                t=k * data.tau,
                energy=info["energy"] * vol,
                l2norm=float(np.sqrt(np.sum(u.values**2) * vol)),
                modular_eps=float(np.sum(mag**p_nodes) * vol),
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
    w = op.weights
    half_u0 = 0.5 * float(np.sum(traj[0].values**2)) * vol

    lhs_rhs = []
    acc_eps = 0.0
    acc_data = 0.0
    acc_floor = 0.0
    for k in range(1, data.steps + 1):
        step = _Step.at(law, data, k, op, traj[k - 1])
        x = op.to_free(traj[k])
        eps = op.eps(x)
        mag = _magnitude(eps, w, (-1,))
        f_pair = float(np.dot(step.f, x)) * vol if step.f is not None else 0.0
        F_pair = float(np.sum(w * step.F * eps)) * vol if step.F is not None else 0.0

        if low is not None and not low.is_zero:
            step = dataclasses.replace(step, b=op.free_values(low(traj[k].values)))
        _, g = step.energy_grad(x)
        g_k = float(np.dot(g, x)) * vol

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
