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
Newton).  ``_FrozenSolver`` solves it for any right-hand side on the phase
unknowns alone (the Schur complement reduction of Benzi, Golub and Liesen,
Acta Numerica 2005): the heat block is factored once per mesh, and each
free set is solved by the package's own preconditioned CG, which carries
the temperature along its iterates, or by scipy's GMRES for Newton.  A CG
solve whose loose iterate already predicts other active sets stops there
(the forcing-term idea of inexact semismooth Newton methods, Kanzow 2004);
only a solve to ``_KRYLOV_RTOL`` can end the active-set iteration.

Every LU uses SuperLU's one-column panels without relaxed supernodes
(``_factor``), which factor the blocks of the benchmark workloads, 2d and
3d, faster than its defaults at equal fill.

All factorizations and Krylov iterations run in a fixed order, so
identical inputs produce bit-identical outputs.
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
    # sparse LUs: heat-block LUs made in this step plus phase-block LUs
    factorizations: int = 0
    krylov_iterations: int = 0    # preconditioned CG/GMRES iterations


def _factor(K):
    """Sparse LU of a heat or phase block.

    The blocks have a symmetric sparsity pattern, so the columns are
    ordered by minimum degree on A^T + A and SuperLU prefers diagonal
    pivots; its threshold pivoting still guards a singular block.  The
    columns are factored one at a time, without relaxed supernodes: at
    equal fill this takes x0.49-0.79 of the time of SuperLU's 10-column
    panels on 2d blocks up to n = 66,049 and x0.55-0.68 on 3d phase
    blocks up to n = 2,846.  3d heat blocks gain at n = 729 and 4,913
    (x0.83, x0.93) and lose at n = 15,625 (x1.40), a size that no
    benchmark workload factors.
    """
    try:
        return spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True),
                         relax=1, panel_size=1)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from None


# iterations of one active-set solve and of one lagged fixed point
_MAX_OUTER = 200

# iterates mixed by the Anderson step of ``lagged_step``
_AA_DEPTH = 5

# Newton iterations of one smooth step
_NEWTON_MAX_ITER = 30

# relative residual of each Krylov solve, far below the step tolerances
_KRYLOV_RTOL = 1e-12

# relative residual at which CG first asks whether its free set is wrong
_ABANDON_RTOL = 1e-5


class _FrozenSolver:
    """Solves [[C_FF, diag(top)_F,:], [diag(bottom)_:,F, MW]] [u_F; w] =
    [r_F; h] for changing free sets F and any (r, h); u is zero off F.

    W is eliminated through an LU of the heat block MW, made once and kept
    in its mesh cache entry (``sys.heat``), so every step on the same mesh
    with the same theta, tau and conductivities reuses it; the step that
    makes it counts it.  With z = MW^-1 h, u_F solves

        S u_F = r_F - top_F z_F,
        S = C_FF - diag(top_F) [MW^-1]_FF diag(bottom_F),

    and w = z - t with t = MW^-1 (bottom u).  S is applied as an operator,
    one heat solve per product, and never formed; the Krylov solve is
    preconditioned by an LU of C_FF that is made when F changes and starts
    from ``u0``.  The obstacle step has top = -bottom off the Dirichlet
    rows; there MW is the identity and bottom vanishes, so
    (MW^-1 bottom u)_D = 0, and S is symmetric positive definite also when
    a free node sits on a Dirichlet wall: the package's own preconditioned
    CG serves it, and carries t along its iterates from the heat solves of
    its products.  Newton's bottom block differs from its top one
    (``symmetric=False``), and scipy's GMRES serves it.

    Under pure Neumann walls with theta = 0, MW = tau A is singular and W
    carries a constant c that it does not fix.  The LU is then made of
    tau A with its first diagonal entry doubled, whose inverse is
    symmetric and solves tau A x = v for any v of zero sum.  Summing the
    heat rows gives the constraint bottom_F . u_F = sum(h), which is
    bordered onto S: u_F = x - c y with S x = r_F - top_F z_F and
    S y = top_F.  All nodes pinned, or no coupling on the free ones,
    leaves c undetermined.
    """

    def __init__(self, sys, C, top, bottom, report, symmetric=True):
        self.C, self.top, self.bottom = C, top, bottom
        self.report, self.symmetric = report, symmetric
        self.neumann = sys.theta == 0.0 and not sys.dirichlet.any()
        lu = sys.heat.get("lu")
        if lu is None:
            MW = sys.MW
            if self.neumann:
                MW = MW + sp.csc_matrix(([MW[0, 0]], ([0], [0])), MW.shape)
            lu = sys.heat["lu"] = _factor(MW)
            report.factorizations += 1
        self.heat = lu.solve
        self.free = None
        self.loose = _ABANDON_RTOL

    def solve(self, free, r, h, u0=None, check=None):
        """(u, w) of the saddle system on the free set of the mask ``free``;
        ``exact`` is False when ``check(u, w)`` stopped CG (``_krylov``)."""
        F = np.flatnonzero(free)
        if not np.array_equal(free, self.free):
            self.free = free.copy()
            self.C_FF = self.C[free][:, free].tocsc()
            self.pre = _factor(self.C_FF) if F.size else None
            self.report.factorizations += bool(F.size)
        top, bottom = self.top[F], self.bottom[F]
        v = np.zeros(free.size)

        def S(x):           # (S x, MW^-1 (bottom x))
            v[F] = bottom * x
            t = self.heat(v)
            return self.C_FF @ x - top * t[F], t

        z = self.heat(h)
        y = ty = 0.0
        if self.neumann:
            y, ty, _ = self._krylov(S, top)
            if bottom @ y == 0.0:
                raise SingularSystem("the constant of W is undetermined: "
                                     "pure Neumann walls, theta = 0")

        def full(x, t):     # (u, w) of the iterate x
            c = (bottom @ x - h.sum()) / (bottom @ y) if self.neumann else 0.0
            u = np.zeros(free.size)
            u[F] = x - c * y
            return u, z - t + c * ty + c

        x, t, self.exact = self._krylov(
            S, r[F] - top * z[F], None if u0 is None else u0[F],
            check and (lambda x, t: check(*full(x, t))))
        return full(x, t)

    def _krylov(self, S, b, x=None, check=None):
        """(x, t, exact): S x = b solved from x, preconditioned by the LU of
        C_FF, to the relative residual ``_KRYLOV_RTOL``; t = MW^-1 (bottom x).
        CG asks ``check`` once, after its first iteration within the relative
        residual ``self.loose``: if the iterate shows F wrong, CG stops there,
        not exact, and ``self.loose`` falls tenfold."""
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return b, np.zeros(self.C.shape[0]), True
        if not self.symmetric:
            # a given dtype spares the operators scipy's probing product
            op, pre = (spla.LinearOperator((b.size,) * 2, f, dtype=float)
                       for f in (lambda x: S(x)[0], self.pre.solve))
            calls = []
            x, info = spla.gmres(op, b, x0=x, rtol=_KRYLOV_RTOL, atol=0.0,
                                 M=pre, callback=calls.append,
                                 callback_type="pr_norm")
            self.report.krylov_iterations += len(calls)
            if info:
                raise _krylov_failure(len(calls))
            return x, S(x)[1], True
        x = np.zeros(b.size) if x is None else x
        Sx, t = S(x)
        res, k, rho = b - Sx, 0, None
        while (rnorm := np.linalg.norm(res)) >= _KRYLOV_RTOL * bnorm:
            if check and k and rnorm < self.loose * bnorm:
                if check(x, t):
                    self.loose /= 10.0
                    break
                check = None
            if k == 10 * b.size:        # scipy's default maxiter
                raise _krylov_failure(k)
            zr = self.pre.solve(res)
            rho_prev, rho = rho, res @ zr
            p = zr if k == 0 else zr + (rho / rho_prev) * p
            q, tp = S(p)
            alpha = rho / (p @ q)
            x, t, res = x + alpha * p, t + alpha * tp, res - alpha * q
            k += 1
        self.report.krylov_iterations += k
        return x, t, rnorm < _KRYLOV_RTOL * bnorm


def _krylov_failure(iterations):
    return NonConvergence(f"Krylov solve not within rtol {_KRYLOV_RTOL:g} "
                          f"after {iterations} iterations")


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
    solver = _FrozenSolver(sys, C, -coup, heat_u, report)

    def predicted(U, W):
        """the phase-row residual at (U, W) and the active sets it predicts"""
        res = C @ U - coup * W - sys.g
        pred = U - res / d
        return res, pred > 1.0, pred < -1.0

    sets = None if W is None else predicted(U, W)[1:]
    for _ in range(_MAX_OUTER):
        # no temperature guess: read the active sets off the phase
        plus, minus = sets or (U == 1.0, U == -1.0)
        U_new = np.where(plus, 1.0, np.where(minus, -1.0, 0.0))

        def moved(u, w):
            # a loose iterate that predicts other sets shows F is wrong
            _, p, m = predicted(U_new + u, np.where(sys.dirichlet, sys.u_D, w))
            return not (np.array_equal(p, plus) and np.array_equal(m, minus))

        # the free values start from the iterate in hand
        u, w = solver.solve(~(plus | minus), sys.g - C @ U_new,
                            f - heat_u * U_new, u0=U, check=moved)
        U_new += u
        W_new = np.where(sys.dirichlet, sys.u_D, w)
        report.outer_iterations += 1
        diff = np.inf if W is None else max(np.abs(U_new - U).max(),
                                            np.abs(W_new - W).max())
        U, W = U_new, W_new
        res, *sets = predicted(U, W)
        # at a marginally stable state the sets flip at round-off level, so
        # acceptance rests on the sign conditions, not on set repetition; a
        # solve abandoned short of its tolerance is never accepted
        if (solver.exact and np.all(res[plus] <= kkt_tol)
                and np.all(res[minus] >= -kkt_tol)
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
        report.krylov_iterations += sub.krylov_iterations
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
        frozen = _FrozenSolver(sys, J11, -sys.lam * m_rho, bottom, report,
                               symmetric=False)
        du, dw = frozen.solve(np.ones(n, bool), -r_phi, -r_w)
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
