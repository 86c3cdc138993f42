"""One-step solvers for the coupled phase/temperature systems.

The obstacle scheme leads to a nonsmooth saddle point problem: a heat row
that is linear in (U, W) and a variational inequality for U over the box
[-1, 1]^J.  ``run_simulation`` solves each step with ``newton_smooth_step``
for the quartic well and with ``lagged_step`` otherwise.

* ``lagged_step``, the obstacle step: a fixed point over a primal-dual
  active-set iteration (the semismooth Newton method of Hintermueller, Ito
  and Kunisch) with the coefficients frozen at the iterate, accelerated by
  Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 2011) and damped by
  omega.  With the phase-row residual ``res = C U - lam M_rho W - g``, the
  nodes where the predictor ``U - res / diag(C)`` leaves [-1, 1] are pinned
  at the bound they cross; the saddle system on the free phase nodes and
  all temperature nodes gives the next iterate, until the sign conditions
  of the inequality hold.  When no coefficient moves with the new phase
  (r = 1 and no implicit shape part) the first frozen solve is the answer.
* ``newton_smooth_step`` solves the smooth (quartic) scheme by a damped
  Newton method with an analytic Jacobian in which the direction argument
  of the anisotropic linearization is frozen per iteration; it stops once
  the max-norm residual is below ``tol``.

Every linear solve is one saddle system, a phase block coupled to the
heat block ``theta M + tau A``, on a set of free phase nodes (all nodes for
Newton); ``_FrozenSolver`` solves it for any right-hand side and borders a
changed free set onto the LU in hand.

All factorizations run in a fixed order, so identical inputs produce
bit-identical outputs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import lumped_mass
from .errors import (
    NewtonDivergence,
    NonConvergence,
    NotApplicable,
    SingularSystem,
    ZeroDiagonal,
)

__all__ = [
    "SolverConfig",
    "StepReport",
    "active_set_step",
    "lagged_step",
    "newton_smooth_step",
    "conservation_audit",
    "residual_audit",
]


@dataclass
class SolverConfig:
    """Iteration controls for the step solvers."""

    tol: float = 1e-8
    omega: float = 0.5            # lagged Anderson damping, in (0, 1]

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be a finite number > 0")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("damping omega must lie in (0, 1]")


@dataclass
class StepReport:
    """Diagnostics of one time-step solve."""

    method: str
    outer_iterations: int = 0
    inner_iterations: int = 0
    active_plus: int = 0
    active_minus: int = 0
    residual: float = float("nan")
    factorizations: int = 0       # sparse LUs of the step


def _factor(K):
    """Sparse LU of a step system.

    The step systems have a symmetric sparsity pattern, so the columns are
    ordered by minimum degree on A^T + A and SuperLU prefers diagonal
    pivots; its threshold pivoting still guards a singular heat block.
    """
    try:
        return spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from None


def _saddle_matrix(C_FF, top, bottom, MW, F):
    """CSC matrix [[C_FF, diag(top)_F,:], [diag(bottom)_:,F, MW]].

    ``C_FF`` and ``MW`` are CSC; ``_FrozenSolver`` factors the result.  It
    holds the entries ``scipy.sparse.bmat`` gives, in the same order and
    with the explicit zeros of the coupling blocks, without its COO round
    trip.
    """
    nF, n = len(F), MW.shape[0]
    free = np.zeros(n, dtype=np.int64)
    free[F] = 1
    # the two block rows as CSC arrays (column pointers, rows, values)
    up = np.concatenate([C_FF.indptr, C_FF.nnz + np.cumsum(free)])
    lo = np.concatenate([np.arange(nF), nF + MW.indptr])
    rows = np.concatenate([C_FF.indices, np.arange(nF), nF + F, nF + MW.indices])
    vals = np.concatenate([C_FF.data, top[F], bottom[F], MW.data])
    # column j of K: its upper entries, then its lower ones
    pos = np.concatenate([np.arange(up[-1]) + np.repeat(lo[:-1], np.diff(up)),
                          np.arange(lo[-1]) + np.repeat(up[1:], np.diff(lo))])
    indices = np.empty(len(pos), dtype=np.int64)
    data = np.empty(len(pos))
    indices[pos], data[pos] = rows, vals
    return sp.csc_matrix((data, indices, up + lo), shape=(nF + n, nF + n))


# iterations of one active-set solve and of one lagged fixed point
_MAX_OUTER = 200

# iterates mixed by the Anderson step of ``lagged_step``
_AA_DEPTH = 5

# Newton iterations of one smooth step
_NEWTON_MAX_ITER = 30

# largest active-set change (newly free plus newly pinned nodes) that a
# frozen-coefficient iteration solves from the factorization in hand
_BORDER_CAP = 32


def _pinned(sys, plus, minus):
    """Phase values with the active nodes at their bounds, zero elsewhere."""
    if (plus | minus).all() and sys.theta == 0.0 and not sys.dirichlet.any():
        raise SingularSystem(
            "all nodes active under pure Neumann conditions with theta = 0")
    return np.where(plus, 1.0, np.where(minus, -1.0, 0.0))


class _FrozenSolver:
    """Solves [[C_FF, diag(top)_F,:], [diag(bottom)_:,F, MW]] [u_F; w] =
    [r_F; h] for changing free sets F and any (r, h); u is zero off F.

    The first solve factors the saddle matrix K0 of its free set F0.  A
    later free set F differs from F0 by the newly free nodes A (in F, not
    in F0) and the newly pinned nodes R (in F0, not in F).  Its system is
    K0 bordered by the rows and columns of u_A and by one multiplier per
    node of R, which takes up that node's phase row while u_R is held at
    zero.  The bordered system is solved from the LU of K0 through its
    k x k Schur complement, k = |A| + |R| (Gill, Murray, Saunders and
    Wright, "A Schur-complement method for sparse quadratic programming",
    1990):

        Z = K0^-1 [B_A, E_R],  S = D - [B_A'; E_R'] Z,  x = z0 - Z y,

    where z0 = K0^-1 b0 and S y is the border rows' residual at z0; z0 and
    Z come from one batched solve.  A change of more than ``_BORDER_CAP``
    nodes, or a Schur matrix LAPACK finds singular, is factored afresh, and
    that factorization becomes K0.
    """

    def __init__(self, C, top, bottom, MW, report):
        self.C, self.top, self.bottom, self.MW = C, top, bottom, MW
        self.report = report
        self.lu = None

    def solve(self, free, r, h):
        """(u, w) of the saddle system on the free set of the mask ``free``."""
        if self.lu is not None:
            A = np.flatnonzero(free & (self.pos < 0))
            R = np.flatnonzero(~free & (self.pos >= 0))
            if A.size + R.size <= _BORDER_CAP:
                out = self._bordered(free, A, R, r, h)
                if out is not None:
                    return out
        return self._fresh(free, r, h)

    def _fresh(self, free, r, h):
        """Factor the saddle matrix of F = ``free`` afresh; F becomes F0."""
        # the superseded LU goes before the next factorization
        self.lu = None
        self.F0 = F = np.flatnonzero(free)
        nF = F.size
        K = _saddle_matrix(self.C[F][:, F].tocsc(), self.top, self.bottom,
                           self.MW, F)
        # vanishing coupling entries (Dirichlet rows, liquid nodes of the
        # quartic shape) stay out of the pattern the LU orders and fills
        K.eliminate_zeros()
        self.lu = _factor(K)
        self.report.factorizations += 1
        sol = self.lu.solve(np.concatenate([r[F], h]))
        self.pos = np.full(free.size, -1)
        self.pos[F] = np.arange(nF)
        u = np.zeros(free.size)
        u[F] = sol[:nF]
        return u, sol[nF:]

    def _bordered(self, free, A, R, r, h):
        C, F0, pos = self.C, self.F0, self.pos
        nF0, nA, n = F0.size, A.size, free.size
        # one solve for the right-hand side and the border columns: column
        # a holds C_F0,a and the heat entry of u_a, column r the unit
        # vector of u_r
        rhs = np.zeros((nF0 + n, 1 + nA + R.size))
        rhs[:nF0, 0] = r[F0]
        rhs[nF0:, 0] = h
        if nA:
            j = np.arange(1, 1 + nA)
            rhs[:nF0, j] = C[:, A].toarray()[F0]
            rhs[nF0 + A, j] = self.bottom[A]
        rhs[pos[R], np.arange(1 + nA, rhs.shape[1])] = 1.0
        Zx = self.lu.solve(rhs)
        x = Zx[:, 0]
        u = np.zeros(n)
        if nA + R.size:
            # the border rows times [z0, Z]: phase rows of A, then E_R'
            C_A = C[A].toarray()
            T = np.vstack([
                C_A[:, F0] @ Zx[:nF0] + self.top[A, None] * Zx[nF0 + A],
                Zx[pos[R]]])
            S = -T[:, 1:]
            S[:nA, :nA] += C_A[:, A]
            b = -T[:, 0]
            b[:nA] += r[A]
            try:
                y = np.linalg.solve(S, b)
            except np.linalg.LinAlgError:
                return None
            x = x - Zx[:, 1:] @ y
            u[A] = y[:nA]
        kept = F0[free[F0]]
        u[kept] = x[pos[kept]]
        return u, x[nF0:]


def _pdas_solve(sys, cfg, U0, W0, report):
    """Primal-dual active-set iteration with the coefficients frozen at the
    clipped start ``U0``; each iteration pins its active nodes and solves
    for the free ones with one ``_FrozenSolver``."""
    U = np.clip(np.asarray(U0, dtype=float), -1.0, 1.0)
    W = None if W0 is None else np.asarray(W0, dtype=float).copy()
    kkt_tol = 10.0 * cfg.tol * (1.0 + np.abs(sys.g).max())
    C = sys.c_matrix(sys.b_matrix_at(U))
    d = C.diagonal()
    if np.any(d <= 0.0):
        raise ZeroDiagonal("system diagonal must be positive")
    m_rho = sys.m_rho_diag(U)
    f = sys.f_rhs(m_rho)
    coup = sys.lam * m_rho
    heat_u = np.where(sys.dirichlet, 0.0, coup)
    solver = _FrozenSolver(C, -coup, heat_u, sys.MW, report)
    res = None if W is None else C @ U - coup * W - sys.g
    for _ in range(_MAX_OUTER):
        if res is None:
            # no temperature guess: read the active sets off the phase
            plus, minus = U == 1.0, U == -1.0
        else:
            pred = U - res / d
            plus, minus = pred > 1.0, pred < -1.0
        U_new = _pinned(sys, plus, minus)
        u, W_new = solver.solve(~(plus | minus), sys.g - C @ U_new,
                                f - heat_u * U_new)
        U_new += u
        W_new[sys.dirichlet] = sys.u_D
        report.outer_iterations += 1
        if W is None:
            diff = np.inf
        else:
            diff = max(np.abs(U_new - U).max(), np.abs(W_new - W).max())
        U, W = U_new, W_new
        res = C @ U - coup * W - sys.g
        # at a marginally stable state the sets flip at round-off level,
        # so acceptance rests on the sign conditions, not on set repetition
        if (np.all(res[plus] <= kkt_tol) and np.all(res[minus] >= -kkt_tol)
                and np.all(np.abs(U[~(plus | minus)]) <= 1.0 + cfg.tol)):
            break
    else:
        raise NonConvergence(
            f"active-set iteration did not converge in {_MAX_OUTER} steps")
    report.active_plus = int(plus.sum())
    report.active_minus = int(minus.sum())
    report.residual = diff
    return np.clip(U, -1.0, 1.0), W


def _start(sys, u0, w0):
    """The iterate a step solver starts from.

    ``u0=None`` is the previous phase and ``w0="prev"`` the previous
    temperature; ``w0=None`` means no temperature guess exists.  Both step
    solvers take this start, and it moves their iteration count, not
    their answer beyond solver tolerance; ``run_simulation`` passes
    ``2 U_n - U_{n-1}`` and ``2 W_n - W_{n-1}``.
    """
    U0 = sys.phi_prev if u0 is None else np.asarray(u0, dtype=float)
    W0 = sys.w_prev if isinstance(w0, str) and w0 == "prev" else w0
    return U0, W0


def lagged_step(sys, cfg, u0=None, w0="prev"):
    """One obstacle step via the lagged fixed point, Anderson-accelerated.

    The map G(U, W) solves the step by the active-set iteration with the
    coefficients frozen at the clipped U.  Each new iterate mixes the last
    ``_AA_DEPTH`` iterates by the least-squares weights of their residuals
    G(x) - x, damped by omega, and has its U clipped to the box; once
    |G(x) - x| < tol in the max norm, G(x) is the answer.  When the
    coefficients do not move (``SystemMatrices.coefficients_move``), G does
    not depend on x: the first solve is the answer, returned with its own
    report (method ``active-set``).  ``u0``/``w0`` give the start (see
    ``_start``); ``u0`` is clipped to [-1, 1], and without a temperature
    guess the first solve reads its active sets off ``u0`` and is the first
    iterate.
    """
    report = StepReport(method="lagged")
    n, omega = sys.n, cfg.omega
    U, W = _start(sys, u0, w0)
    U = np.clip(U, -1, 1)
    x = None if W is None else np.concatenate([U, W])
    xs, fs = [], []     # the last iterates and their residuals G(x) - x
    for _ in range(_MAX_OUTER):
        sub = StepReport(method="active-set")
        U, W = _pdas_solve(sys, cfg, U, W, sub)
        if not sys.coefficients_move:
            return U, W, sub
        report.outer_iterations += 1
        report.inner_iterations += sub.outer_iterations
        report.factorizations += sub.factorizations
        g = np.concatenate([U, W])
        report.residual = np.inf if x is None else np.abs(g - x).max()
        if report.residual < cfg.tol:
            report.active_plus = sub.active_plus
            report.active_minus = sub.active_minus
            return U, W, report
        if x is None:
            x = g
        else:
            keep = 1 - _AA_DEPTH
            xs, fs = xs[keep:] + [x], fs[keep:] + [g - x]
            x = x + omega * fs[-1]
            if len(xs) > 1:
                dX, dF = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
                # an explicit rcond means the same in numpy 1.x and 2.x
                gam = np.linalg.lstsq(dF, fs[-1], rcond=1e-12)[0]
                x -= (dX + omega * dF) @ gam
            x[:n] = np.clip(x[:n], -1.0, 1.0)
        U, W = x[:n], x[n:]
    raise NonConvergence(
        f"lagged fixed point not within tol after {_MAX_OUTER} "
        f"iterations (residual {report.residual:.3e}, omega={omega:g})")


# the obstacle step's earlier name, under which the acceptance tests call it
active_set_step = lagged_step


def _smooth_residual(sys, U, W, B):
    C = sys.c_matrix(B)
    m_rho = sys.m_rho_diag(U)
    r_phi = C @ U + sys.c_conc * sys.M * U**3 - sys.lam * m_rho * W - sys.g
    r_w = (sys.lam * m_rho * (U - sys.phi_prev)
           + sys.theta * sys.M * (W - sys.w_prev)
           + sys.tau * (sys.A_diff @ W))
    r_w[sys.dirichlet] = W[sys.dirichlet] - sys.u_D
    return r_phi, r_w, m_rho, C


def newton_smooth_step(sys, cfg, u0=None, w0="prev"):
    """One smooth-potential step by damped Newton with analytic Jacobian.

    The implicit cubic and the clamped implicit shape part are linearized
    exactly; the direction argument of the anisotropic stiffness is frozen
    within each linearization and refreshed between iterations.  Newton
    starts from ``u0``/``w0`` (see ``_start``), with ``w0=None`` read as
    the previous temperature.  The step stops once the max-norm residual
    is below ``cfg.tol`` and raises ``NonConvergence`` after
    ``_NEWTON_MAX_ITER`` iterations.
    """
    report = StepReport(method="newton")
    n = sys.n
    sh = sys._shape
    U, W = _start(sys, u0, w0)
    U = np.array(U, dtype=float)
    W = np.array(sys.w_prev if W is None else W, dtype=float)
    B = sys.b_matrix_at(U)
    r_phi, r_w, m_rho, C = _smooth_residual(sys, U, W, B)
    rnorm = max(np.abs(r_phi).max(), np.abs(r_w).max())
    while rnorm >= cfg.tol:
        if report.outer_iterations == _NEWTON_MAX_ITER:
            raise NonConvergence(
                f"Newton reached {_NEWTON_MAX_ITER} iterations at "
                f"residual {rnorm:.3e}")
        drho = sh.rho_plus_deriv_clamped(U)
        J11 = (C + sp.diags(sys.c_conc * sys.M * 3.0 * U**2)
               - sp.diags(sys.lam * sys.M * drho * W))
        bottom = sys.lam * (m_rho + sys.M * drho * (U - sys.phi_prev))
        bottom[sys.dirichlet] = 0.0
        du, dw = _FrozenSolver(J11, -sys.lam * m_rho, bottom, sys.MW,
                               report).solve(np.ones(n, bool), -r_phi, -r_w)
        t = 1.0
        for _ls in range(20):
            U_t = U + t * du
            W_t = W + t * dw
            B_t = sys.b_matrix_at(U_t)
            r_phi_t, r_w_t, m_rho_t, C_t = _smooth_residual(sys, U_t, W_t, B_t)
            rn_t = max(np.abs(r_phi_t).max(), np.abs(r_w_t).max())
            if rn_t < (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise NewtonDivergence(
                f"line search exhausted at residual {rnorm:.3e}")
        U, W, B = U_t, W_t, B_t
        r_phi, r_w, m_rho, C = r_phi_t, r_w_t, m_rho_t, C_t
        rnorm = rn_t
        report.outer_iterations += 1
    report.residual = rnorm
    W[sys.dirichlet] = sys.u_D
    return U, W, report


def conservation_audit(mesh, shape, phi_prev, phi_new, theta, bc_case):
    """|(rho(Phi_old), Phi_new - Phi_old)^h| for conserving configurations.

    Testing the heat row with the constant function shows this vanishes
    when theta = 0 under pure Neumann conditions and an explicit-only
    shape split.
    """
    if theta != 0.0 or bc_case != "neumann":
        raise NotApplicable("audit requires theta = 0 and pure Neumann walls")
    M = lumped_mass(mesh)
    w = shape.rho(np.asarray(phi_prev, dtype=float))
    return float(abs(np.sum(M * w * (np.asarray(phi_new) - np.asarray(phi_prev)))))


def residual_audit(sys, U, W, smooth=False):
    """Max-norm residuals of the heat row and the phase row/VI.

    Returns a dict with the heat-row residual, the phase-row residual on
    nodes where the constraint is inactive, and the worst complementarity
    violation at the pinned nodes (positive residual at +1, negative at
    -1; both should be <= 0 up to solver tolerance).
    """
    res, heat, _, _ = _smooth_residual(sys, U, W, sys.b_matrix_at(U))
    if not smooth:
        # the obstacle row has no cubic term
        res = res - sys.c_conc * sys.M * U**3
    at_plus = U == 1.0
    at_minus = U == -1.0
    interior = ~(at_plus | at_minus)
    return {
        "heat_max": float(np.abs(heat).max()),
        "vi_interior_max": float(np.abs(res[interior]).max()) if interior.any() else 0.0,
        "comp_plus_worst": float(res[at_plus].max()) if at_plus.any() else 0.0,
        "comp_minus_worst": float(-res[at_minus].min()) if at_minus.any() else 0.0,
    }
