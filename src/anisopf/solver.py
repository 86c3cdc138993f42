"""One-step solvers for the coupled phase/temperature systems.

The obstacle scheme leads to a nonsmooth saddle point problem: a heat row
that is linear in (U, W) and a variational inequality for U over the box
[-1, 1]^J.  Two solution methods are provided.

* ``active_set_step``: a primal-dual active-set iteration (the semismooth
  Newton method of Hintermueller, Ito and Kunisch).  With the phase-row
  residual ``res = C U - lam M_rho W - g``, the nodes where the predictor
  ``U - res / diag(C)`` leaves [-1, 1] are pinned at the bound they cross;
  a sparse LU factorization of the saddle system on the free phase nodes
  and all temperature nodes gives the next iterate.  The iteration stops
  when the sign conditions of the inequality hold and, if the
  coefficients depend on the iterate, the increment has stalled.
* ``lagged_step``: an outer fixed point that freezes the iterate-dependent
  coefficients (the rho-hat weighted coupling and, for r > 1, the
  anisotropic stiffness), solves the resulting linear-coefficient problem
  with the same active-set iteration, and relaxes with a factor omega.
  This is the robust choice for strongly nonlinear exponents.

The smooth (quartic) scheme is solved by ``newton_smooth_step``, a damped
Newton method with an analytic Jacobian in which the direction argument of
the anisotropic linearization is frozen per iteration.

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
    "choose_method",
]


@dataclass
class SolverConfig:
    """Iteration controls for the step solvers."""

    method: str = "auto"          # active-set | lagged | auto
    tol: float = 1e-8
    max_outer: int = 200
    omega: float = 0.5            # lagged relaxation, in (0, 1]
    newton_tol: float = 1e-8
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.method not in ("active-set", "lagged", "auto"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0.0 or self.newton_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("relaxation omega must lie in (0, 1]")
        if self.max_outer < 1 or self.newton_max_iter < 1:
            raise ValueError("iteration limits must be >= 1")


@dataclass
class StepReport:
    """Diagnostics of one time-step solve."""

    method: str
    outer_iterations: int = 0
    inner_iterations: int = 0
    active_plus: int = 0
    active_minus: int = 0
    residual: float = float("nan")
    converged: bool = False


def choose_method(cfg, aniso):
    """Resolve ``auto``: active-set up to r = 3, lagged beyond."""
    if cfg.method != "auto":
        return cfg.method
    return "active-set" if aniso.exponent <= 3.0 else "lagged"


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

    ``C_FF`` and ``MW`` are CSC.  Both step solvers factor this matrix:
    the active-set iteration on its free set, Newton with ``F`` = all
    nodes.  The result holds the entries ``scipy.sparse.bmat`` gives, in
    the same order and with the explicit zeros of the coupling blocks,
    without its COO round trip.
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


def _solve_free(sys, C, m_rho, f, plus, minus):
    """Solve for the free phase nodes and W with the active nodes pinned.

    The unknowns are U on the free set F and all of W; the saddle system
    is [[C_FF, -lam M_rho,F], [MU_:,F, MW]] with the pinned values moved
    to the right-hand side.
    """
    free = ~(plus | minus)
    if not free.any() and sys.theta == 0.0 and not sys.dirichlet.any():
        raise SingularSystem(
            "all nodes active under pure Neumann conditions with theta = 0")
    F = np.flatnonzero(free)
    nF = F.size
    U = np.where(plus, 1.0, np.where(minus, -1.0, 0.0))
    coup = sys.lam * m_rho
    heat_u = np.where(sys.dirichlet, 0.0, coup)
    C_F = C[F]
    K = _saddle_matrix(C_F[:, F].tocsc(), -coup, heat_u, sys.MW, F)
    sol = _factor(K).solve(np.concatenate([sys.g[F] - C_F @ U, f - heat_u * U]))
    U[F] = sol[:nF]
    W = sol[nF:].copy()
    W[sys.dirichlet] = sys.u_D
    return U, W


def _pdas_solve(sys, cfg, U0, W0, rebuild, report):
    """Primal-dual active-set iteration; ``rebuild`` refreshes coefficients
    at the iterates."""
    U = np.clip(np.asarray(U0, dtype=float), -1.0, 1.0)
    W = None if W0 is None else np.asarray(W0, dtype=float).copy()
    moving = rebuild and (sys.b_depends_on_iterate or sys.rho_plus_nonzero)
    kkt_tol = 10.0 * cfg.tol * (1.0 + np.abs(sys.g).max())

    def mats(Uk):
        C = sys.c_matrix(sys.b_matrix_at(Uk))
        d = C.diagonal()
        if np.any(d <= 0.0):
            raise ZeroDiagonal("system diagonal must be positive")
        m_rho = sys.m_rho_diag(Uk)
        return C, d, m_rho, sys.f_rhs(m_rho)

    C, d, m_rho, f = mats(U)
    res = None if W is None else C @ U - sys.lam * m_rho * W - sys.g
    for _ in range(cfg.max_outer):
        if res is None:
            # no temperature guess: read the active sets off the phase
            plus, minus = U == 1.0, U == -1.0
        else:
            pred = U - res / d
            plus, minus = pred > 1.0, pred < -1.0
        U_new, W_new = _solve_free(sys, C, m_rho, f, plus, minus)
        report.outer_iterations += 1
        if W is None:
            diff = np.inf
        else:
            diff = max(np.abs(U_new - U).max(), np.abs(W_new - W).max())
        U, W = U_new, W_new
        if moving:
            C, d, m_rho, f = mats(np.clip(U, -1.0, 1.0))
        res = C @ U - sys.lam * m_rho * W - sys.g
        # at a marginally stable state the sets flip at round-off level,
        # so acceptance rests on the sign conditions, not on set repetition
        if (np.all(res[plus] <= kkt_tol) and np.all(res[minus] >= -kkt_tol)
                and np.all(np.abs(U[~(plus | minus)]) <= 1.0 + cfg.tol)
                and (not moving or diff < cfg.tol)):
            report.converged = True
            break
    else:
        raise NonConvergence(
            f"active-set iteration did not converge in {cfg.max_outer} steps")
    report.active_plus = int(plus.sum())
    report.active_minus = int(minus.sum())
    report.residual = diff
    return np.clip(U, -1.0, 1.0), W


def active_set_step(sys, cfg, u0=None, w0="prev"):
    """One obstacle step via the primal-dual active-set iteration.

    ``u0``/``w0`` seed the iteration (defaults: the previous state); ``u0``
    is clipped to [-1, 1].  Pass ``w0=None`` when no temperature guess
    exists; the initial active sets are then read off ``u0``.  The start
    moves the iteration count, not the answer (to the bit when the
    coefficients do not depend on the iterate, else to ``cfg.tol``);
    ``run_simulation`` passes ``2 U_n - U_{n-1}`` and ``2 W_n - W_{n-1}``.
    """
    report = StepReport(method="active-set")
    U0 = sys.phi_prev if u0 is None else u0
    W0 = sys.w_prev if isinstance(w0, str) and w0 == "prev" else w0
    U, W = _pdas_solve(sys, cfg, U0, W0, rebuild=True, report=report)
    return U, W, report


def lagged_step(sys, cfg, u0=None, w0="prev"):
    """One obstacle step via the lagged (frozen-coefficient) fixed point.

    Each outer iteration solves the problem with coefficients frozen at the
    current iterate, then relaxes with factor omega.  On non-convergence
    omega is halved, up to four times.
    """
    U0 = np.clip(sys.phi_prev if u0 is None else np.asarray(u0, float), -1, 1)
    W0 = sys.w_prev if isinstance(w0, str) and w0 == "prev" else w0
    omega = cfg.omega
    last_exc = None
    for _attempt in range(5):
        report = StepReport(method="lagged")
        try:
            U, W = _lagged_once(sys, cfg, U0, W0, omega, report)
            return U, W, report
        except NonConvergence as exc:
            last_exc = exc
            omega *= 0.5
    raise NonConvergence(
        f"lagged iteration failed down to omega={omega * 2:g}: {last_exc}")


def _lagged_once(sys, cfg, U0, W0, omega, report):
    U = U0.copy()
    W = None if W0 is None else np.asarray(W0, float).copy()
    for _ in range(cfg.max_outer):
        sub = StepReport(method="active-set")
        U_half, W_half = _pdas_solve(sys, cfg, U, W, rebuild=False, report=sub)
        report.inner_iterations += sub.outer_iterations
        if W is None:
            U_new, W_new = U_half, W_half
            diff = np.inf
        else:
            U_new = (1.0 - omega) * U + omega * U_half
            W_new = (1.0 - omega) * W + omega * W_half
            diff = max(np.abs(U_new - U).max(), np.abs(W_new - W).max())
        U, W = U_new, W_new
        report.outer_iterations += 1
        if diff < cfg.tol:
            sub = StepReport(method="active-set")
            U, W = _pdas_solve(sys, cfg, U, W, rebuild=False, report=sub)
            report.inner_iterations += sub.outer_iterations
            report.active_plus = sub.active_plus
            report.active_minus = sub.active_minus
            report.residual = diff
            report.converged = True
            return U, W
    raise NonConvergence(
        f"lagged fixed point stalled after {cfg.max_outer} iterations "
        f"(omega={omega:g})")


def _smooth_residual(sys, U, W, B):
    C = sys.c_matrix(B)
    m_rho = sys.m_rho_diag(U)
    r_phi = C @ U + sys.c_conc * sys.M * U**3 - sys.lam * m_rho * W - sys.g
    r_w = (sys.lam * m_rho * (U - sys.phi_prev)
           + sys.theta * sys.M * (W - sys.w_prev)
           + sys.tau * (sys.A_diff @ W))
    r_w[sys.dirichlet] = W[sys.dirichlet] - sys.u_D
    return r_phi, r_w, m_rho, C


def newton_smooth_step(sys, cfg):
    """One smooth-potential step by damped Newton with analytic Jacobian.

    The implicit cubic and the clamped implicit shape part are linearized
    exactly; the direction argument of the anisotropic stiffness is frozen
    within each linearization and refreshed between iterations.
    """
    report = StepReport(method="newton")
    n = sys.n
    sh = sys._shape
    U = sys.phi_prev.copy()
    W = sys.w_prev.copy()
    B = sys.b_matrix_at(U)
    r_phi, r_w, m_rho, C = _smooth_residual(sys, U, W, B)
    rnorm = max(np.abs(r_phi).max(), np.abs(r_w).max())
    for _it in range(cfg.newton_max_iter):
        if rnorm < cfg.newton_tol:
            report.converged = True
            break
        drho = sh.rho_plus_deriv_clamped(U)
        J11 = (C + sp.diags(sys.c_conc * sys.M * 3.0 * U**2)
               - sp.diags(sys.lam * sys.M * drho * W)).tocsc()
        bottom = sys.lam * (m_rho + sys.M * drho * (U - sys.phi_prev))
        bottom[sys.dirichlet] = 0.0
        K = _saddle_matrix(J11, -sys.lam * m_rho, bottom, sys.MW, np.arange(n))
        # vanishing coupling entries (Dirichlet rows, liquid nodes of the
        # quartic shape) stay out of the pattern the LU orders and fills
        K.eliminate_zeros()
        delta = _factor(K).solve(-np.concatenate([r_phi, r_w]))
        t = 1.0
        for _ls in range(20):
            U_t = U + t * delta[:n]
            W_t = W + t * delta[n:]
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
    else:
        if rnorm >= cfg.newton_tol:
            raise NonConvergence(
                f"Newton reached {cfg.newton_max_iter} iterations at "
                f"residual {rnorm:.3e}")
        report.converged = True
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
