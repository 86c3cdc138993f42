"""One-step solvers for the coupled phase/temperature systems.

Each step solves one nonlinear problem: a heat row linear in (U, W) and a
phase row whose stiffness depends on the new phase when r > 1 and whose
coupling lam M_rho(U) does for the quartic shape; the obstacle well adds
the box [-1, 1]^J, the quartic well an implicit cubic.  ``lagged_step``
(obstacle) and ``newton_smooth_step`` (quartic well) run one semismooth
Newton loop, of which the primal-dual active-set method of Hintermueller,
Ito and Kunisch (SIAM J. Optim. 2002) is the case of frozen coefficients.
At each iterate it linearizes the step exactly (``_Linearization``; the
stiffness through the derivative of B(U) U, ``SystemMatrices.b_matrix_at``),
pins the nodes where the predictor ``U - res / diag(C)`` of the phase-row
residual ``res = C U - lam M_rho W - g`` leaves [-1, 1] at the bound they
cross, solves the linearization on the free phase nodes and all
temperature nodes, and stops once that solve met its Krylov tolerance, the
sign conditions of the inequality hold and, when the coefficients move,
the residual is below ``tol``.  When nothing moves (obstacle, r = 1, no
implicit shape part) the loop is the active-set iteration over one
linearization, reported as ``active-set``; otherwise each Newton step is
backtracked on the residual from the step ``omega``.

Every linear solve is one saddle system, a phase block coupled to the
heat block ``theta M + tau A``, on a set of free phase nodes.
``_FrozenSolver`` solves it for any right-hand side on the phase unknowns
alone (the Schur complement reduction of Benzi, Golub and Liesen, Acta
Numerica 2005): the heat block is factored once per mesh, and each free set
is solved by the package's own preconditioned CG, which carries the
temperature along its iterates, or by scipy's GMRES when the blocks are not
symmetric.  A CG solve whose loose iterate already predicts other active
sets stops there (the forcing-term idea of inexact semismooth Newton
methods, Kanzow 2004); only a solve to ``_KRYLOV_RTOL`` can end the loop.

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
    omega: float = 1.0            # first step of the line search, in (0, 1]

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be a finite number > 0")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("step omega must lie in (0, 1]")


@dataclass
class StepReport:
    """Diagnostics of one time-step solve."""

    method: str
    outer_iterations: int = 0     # Newton (active-set) iterations
    inner_iterations: int = 0     # line-search trials, when coefficients move
    active_plus: int = 0
    active_minus: int = 0
    residual: float = float("nan")    # frozen coefficients: the last change
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
        return spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True),
                         relax=1, panel_size=1)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from None


# Newton iterations of one step
_MAX_OUTER = 200

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
    from ``u0``.  When C is symmetric and top = -bottom off the Dirichlet
    rows (there MW is the identity and bottom vanishes, so
    (MW^-1 bottom u)_D = 0), S is symmetric positive definite also when a
    free node sits on a Dirichlet wall: the package's own preconditioned CG
    serves it, and carries t along its iterates from the heat solves of its
    products.  Other blocks (the derivative of B for r > 1, the quartic
    shape's coupling) go to scipy's GMRES.

    Under pure Neumann walls with theta = 0, MW = tau A is singular and W
    carries a constant c that it does not fix.  The LU is then made of
    tau A with its first diagonal entry doubled, whose inverse is
    symmetric and solves tau A x = v for any v of zero sum.  Summing the
    heat rows gives the constraint bottom_F . u_F = sum(h), which is
    bordered onto S: u_F = x - c y with S x = r_F - top_F z_F and
    S y = top_F.  All nodes pinned, or no coupling on the free ones,
    leaves c undetermined.
    """

    def __init__(self, sys, C, top, bottom, report):
        self.C, self.top, self.bottom, self.report = C, top, bottom, report
        # C's symmetry up to the rounding of its element matrices, probed
        # with a fixed vector
        Cv, CTv = (K @ (np.arange(C.shape[0]) % 3 - 1.0) for K in (C, C.T))
        wet = ~sys.dirichlet
        self.symmetric = (np.abs(Cv - CTv).max() <= 1e-12 * np.abs(Cv).max()
                          and np.array_equal(bottom[wet], -top[wet]))
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
            self.C_FF = (self.C if F.size == free.size
                         else self.C[free][:, free].tocsc())
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
        C_FF, to the relative residual ``_KRYLOV_RTOL`` of b - S x itself,
        not only of CG's updated residual; t = MW^-1 (bottom x).  CG asks
        ``check`` once, after its first iteration within the relative
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
        res, k, rho, tol = b - Sx, 0, None, _KRYLOV_RTOL * bnorm
        while (rnorm := np.linalg.norm(res)) >= tol or rho is not None:
            if rnorm < tol:
                # the updated residual falls on where the true one stalls:
                # CG ends on the true one, else restarts from it
                Sx, t_x = S(x)
                if np.linalg.norm(b - Sx) < tol:
                    break
                res, t, rho = b - Sx, t_x, None
                continue
            if check and k and rnorm < self.loose * bnorm:
                if check(x, t):
                    self.loose /= 10.0
                    break
                check = None
            if k == 10 * b.size:        # scipy's default maxiter
                raise _krylov_failure(k)
            zr = self.pre.solve(res)
            rho_prev, rho = rho, res @ zr
            p = zr if rho_prev is None else zr + (rho / rho_prev) * p
            q, tp = S(p)
            alpha = rho / (p @ q)
            x, t, res = x + alpha * p, t + alpha * tp, res - alpha * q
            k += 1
        self.report.krylov_iterations += k
        return x, t, rnorm < tol


def _krylov_failure(iterations):
    return NonConvergence(f"Krylov solve not within rtol {_KRYLOV_RTOL:g} "
                          f"after {iterations} iterations")


class _Linearization:
    """Newton's linearization of the step at (U, W),

        J U - lam M_rho W = rhs,   bottom U + MW W = f,

    with J = C_J + diag(3 c_conc M U^2 - lam M rho+' W) (the cubic only for
    the quartic well) and bottom = lam (M_rho + M rho+' (U - Phi_old)),
    zero on the Dirichlet rows; rhs and f make (U, W) leave the step's own
    residuals, ``res`` on the phase rows and ``heat``.  When nothing moves,
    J = C, bottom = lam M_rho, rhs = g and f is the heat-row rhs.  ``heat``
    and the max-norm residual ``norm`` are kept too; for the obstacle,
    ``norm`` reads the natural residual U - clip(U - res / diag(C)) of the
    inequality, continuous where U meets a bound, and heat / diag(MW),
    both in the units of U and W.
    """

    def __init__(self, sys, U, W, box):
        C = sys.c_matrix(sys.b_matrix_at(U))
        self.d, self.box = C.diagonal(), box
        if np.any(self.d <= 0.0):
            raise ZeroDiagonal("system diagonal must be positive")
        m_rho = sys.m_rho_diag(U)
        self.coup = sys.lam * m_rho
        cube = 0.0 if box else sys.c_conc * sys.M * U**2
        self.res = res = C @ U + cube * U - self.coup * W - sys.g
        self.heat = heat = (self.coup * (U - sys.phi_prev)
                            + sys.theta * sys.M * (W - sys.w_prev)
                            + sys.tau * (sys.A_diff @ W))
        heat[sys.dirichlet] = W[sys.dirichlet] - sys.u_D
        if box:
            res = U - np.clip(U - res / self.d, -1.0, 1.0)
            heat = heat / sys.MW.diagonal()
        self.norm = max(np.abs(res).max(), np.abs(heat).max())
        dcoup = sys.lam * sys.M * sys._shape.rho_plus_deriv_clamped(U)
        dJ = 3.0 * cube - dcoup * W
        self.J = C + sp.diags(dJ) if np.any(dJ) else C
        self.rhs = sys.g + (dJ - cube) * U
        db = np.where(sys.dirichlet, 0.0, dcoup * (U - sys.phi_prev))
        self.bottom = np.where(sys.dirichlet, 0.0, self.coup) + db
        self.f = sys.f_rhs(m_rho) + db * U

    def sets(self, U, W):
        """(res, plus, minus): the linearized phase-row residual at (U, W)
        and the nodes its predictor U - res / diag(C) puts above 1 and
        below -1, none without the box."""
        res = self.J @ U - self.coup * W - self.rhs
        pred = U - res / self.d if self.box else np.zeros(U.size)
        return res, pred > 1.0, pred < -1.0


def _newton(sys, cfg, u0, w0, report, box):
    """(U, W) of one step by the loop of the module docstring; ``box`` is
    the obstacle.

    ``u0=None`` starts from the previous phase and ``w0="prev"`` from the
    previous temperature; ``w0=None`` means no temperature guess exists,
    so the obstacle step reads its first active sets off ``u0`` (clipped to
    [-1, 1]), and W starts at the previous temperature.  The start moves
    the iteration count, not the answer beyond solver tolerance;
    ``run_simulation`` passes ``2 U_n - U_{n-1}`` and ``2 W_n - W_{n-1}``.
    """
    moving = sys.coefficients_move or not box
    U = np.array(sys.phi_prev if u0 is None else u0, dtype=float)
    U = np.clip(U, -1.0, 1.0) if box else U
    W = np.array(sys.w_prev if w0 is None or isinstance(w0, str) else w0,
                 dtype=float)
    kkt_tol = 10.0 * cfg.tol * (1.0 + np.abs(sys.g).max())
    lin = _Linearization(sys, U, W, box)
    plus, minus = sets = ((U == 1.0, U == -1.0) if box and w0 is None
                          else lin.sets(U, W)[1:])
    done = moving and lin.norm < cfg.tol
    while not done:
        if report.outer_iterations == _MAX_OUTER:
            raise NonConvergence(f"{report.method} iteration not within tol "
                                 f"after {_MAX_OUTER} iterations")
        if report.outer_iterations == 0 or moving:
            solver = _FrozenSolver(sys, lin.J, -lin.coup, lin.bottom, report)
        plus, minus = sets
        pinned = plus | minus
        # moving coefficients solve for a Newton step from (U, W), frozen
        # ones for the iterate itself; either way the solve starts at U
        U_b, W_b = (U, W) if moving else (0.0, np.zeros(sys.n))
        U_new = np.where(plus, 1.0, np.where(minus, -1.0, U_b))

        def moved(u, w):
            # a loose iterate that predicts other sets shows F is wrong
            _, p, m = lin.sets(U_new + u,
                               np.where(sys.dirichlet, sys.u_D, W_b + w))
            return not (np.array_equal(p, plus) and np.array_equal(m, minus))

        u, w = solver.solve(~pinned, lin.rhs - lin.J @ U_new + lin.coup * W_b,
                            lin.f - lin.bottom * U_new - sys.MW @ W_b,
                            u0=U - U_new, check=box and moved)
        U_new = U_new + u
        W_new = np.where(sys.dirichlet, sys.u_D, W_b + w)
        report.outer_iterations += 1
        if moving:
            t = cfg.omega       # backtracking, at most 20 halvings
            for _ in range(20):
                U_t = U_new if t == 1.0 else U + t * (U_new - U)
                U_t = np.clip(U_t, -1.0, 1.0) if box else U_t
                W_t = W + t * (W_new - W)
                lin_t = _Linearization(sys, U_t, W_t, box)
                report.inner_iterations += 1
                if lin_t.norm < (1.0 - 1e-4 * t) * lin.norm:
                    break
                t *= 0.5
            else:
                raise NewtonDivergence(
                    f"line search exhausted at residual {lin.norm:.3e}")
            U, W, lin = U_t, W_t, lin_t
        else:
            report.residual = max(np.abs(U_new - U).max(),
                                  np.abs(W_new - W).max())
            U, W = U_new, W_new
        res, *sets = lin.sets(U, W)
        # at a marginally stable state the sets flip at round-off level, so
        # acceptance rests on the sign conditions, not on set repetition; a
        # solve abandoned short of its tolerance is never accepted
        done = solver.exact and (lin.norm < cfg.tol if moving else (
            np.all(res[plus] <= kkt_tol) and np.all(res[minus] >= -kkt_tol)
            and np.all(np.abs(U[~pinned]) <= 1.0 + cfg.tol)))
    report.active_plus, report.active_minus = int(plus.sum()), int(minus.sum())
    W[sys.dirichlet] = sys.u_D
    if moving:
        # a damped step only nears a bound; a node predicted beyond it is
        # within tol of it
        U = np.where(sets[0], 1.0, np.where(sets[1], -1.0, U))
        report.residual = lin.norm
    return (np.clip(U, -1.0, 1.0) if box else U), W


def lagged_step(sys, cfg, u0=None, w0="prev"):
    """One obstacle step from the start ``u0``/``w0`` (see ``_newton``),
    reported as ``active-set`` when the coefficients do not move
    (``SystemMatrices.coefficients_move``), else as ``lagged``."""
    report = StepReport("lagged" if sys.coefficients_move else "active-set")
    return (*_newton(sys, cfg, u0, w0, report, box=True), report)


# the obstacle step's earlier name, under which the acceptance tests call it
active_set_step = lagged_step


def newton_smooth_step(sys, cfg, u0=None, w0="prev"):
    """One smooth-potential (quartic well) step from the start ``u0``/``w0``
    (see ``_newton``; ``w0=None`` is the previous temperature), done once
    the max-norm residual is below ``cfg.tol``."""
    report = StepReport("newton")
    return (*_newton(sys, cfg, u0, w0, report, box=False), report)


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
    lin = _Linearization(sys, U, W, box=not smooth)
    res, heat = lin.res, lin.heat
    at_plus = U == 1.0
    at_minus = U == -1.0
    interior = ~(at_plus | at_minus)
    return {
        "heat_max": float(np.abs(heat).max()),
        "vi_interior_max": float(np.abs(res[interior]).max()) if interior.any() else 0.0,
        "comp_plus_worst": float(res[at_plus].max()) if at_plus.any() else 0.0,
        "comp_minus_worst": float(-res[at_minus].min()) if at_minus.any() else 0.0,
    }
