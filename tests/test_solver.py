import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisopf import solver
from anisopf.anisotropy import (
    MobilitySpec,
    anisotropy_from_name,
    make_isotropic,
    make_regularized_l1,
)
from anisopf.assembly import assemble_step_system
from anisopf.errors import (
    NonConvergence,
    NotApplicable,
    SingularSystem,
    ZeroDiagonal,
)
from anisopf.mesh import build_uniform_mesh
from anisopf.potentials import PotentialSpec, ShapeSpec
from anisopf.solver import (
    _NEWTON_MAX_ITER,
    SolverConfig,
    StepReport,
    _factor,
    _FrozenSolver,
    _smooth_residual,
    active_set_step,
    conservation_audit,
    lagged_step,
    newton_smooth_step,
    residual_audit,
)
from anisopf.stepper import PhysicalParams, initial_phase

CFG = SolverConfig()


def small_setup(n=8, theta=0.0, rho=0.01, u_D=-2.0, bc="dirichlet",
                shape=ShapeSpec("lin-minus", "for-negative-uD"),
                pot=PotentialSpec("obstacle"), aniso=None, eps=None,
                tau=1e-3, dim=2):
    aniso = aniso or make_regularized_l1(0.3, dim)
    eps = eps or 1.0 / (4.0 * np.pi)
    params = PhysicalParams(theta=theta, rho=rho, alpha=0.03, eps=eps,
                            u_D=u_D, H=0.5, bc_case=bc, R0=0.25,
                            T_end=1e-3, tau=tau)
    mesh = build_uniform_mesh(params.H, n, dim, bc)
    phi = initial_phase(mesh, params.R0, params.eps).values
    w = np.full(mesh.n_vertices, params.u_D if theta == 0.0 else 0.0)
    mob = MobilitySpec("gamma")
    sys = assemble_step_system(mesh, params, pot, shape, aniso, mob, phi, w)
    return sys, params, CFG


def _dense_saddle(C, top, bottom, MW, free, r, h):
    """(u, w) of [[C_FF, diag(top)_F,:], [diag(bottom)_:,F, MW]] [u_F; w] =
    [r_F; h], assembled by ``sp.bmat`` and solved densely."""
    F = np.flatnonzero(free)
    nF, n = F.size, MW.shape[0]
    K = sp.bmat([
        [C[F][:, F],
         sp.csr_matrix((top[F], (np.arange(nF), F)), shape=(nF, n))],
        [sp.csr_matrix((bottom[F], (F, np.arange(nF))), shape=(n, nF)), MW],
    ])
    sol = np.linalg.solve(K.toarray(), np.r_[r[F], h])
    u = np.zeros(n)
    u[F] = sol[:nF]
    return u, sol[nF:]


def _assert_solves(got, ref, bound=1e-9):
    """The Krylov answer agrees with the dense one to ``bound`` relative to
    its largest entry: the reduced system is solved to rtol 1e-12."""
    ref = np.r_[ref]
    assert np.abs(np.r_[got] - ref).max() <= bound * np.abs(ref).max()


def _obstacle_coupling(sys):
    """C, top and bottom of the frozen obstacle step at the previous phase."""
    coup = sys.lam * sys.m_rho_diag(sys.phi_prev)
    return sys.c_matrix(), -coup, np.where(sys.dirichlet, 0.0, coup)


def _newton_coupling(sys, rng):
    """C, top and bottom with a bottom block unlike the top one, as in
    Newton, nonzero off the Dirichlet rows."""
    top, bottom = sys.lam * sys.M * rng.uniform(0.5, 1.5, (2, sys.n))
    bottom[sys.dirichlet] = 0.0
    return sys.c_matrix(), -top, bottom


def _counted_factor(monkeypatch):
    calls = []

    def counted(K):
        calls.append(K.shape[0])
        return _factor(K)

    monkeypatch.setattr(solver, "_factor", counted)
    return calls


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 6)])
def test_factor_uses_one_column_panels(dim, n):
    # heat and phase blocks are factored with one-column panels and no
    # relaxed supernodes in 2d and 3d, which moves their solves away from
    # those of SuperLU's default panels by round-off only
    sys, _, _ = small_setup(n=n, dim=dim, theta=1.0)
    free = np.abs(sys.phi_prev) < 1.0
    rng = np.random.default_rng(29)
    for K in (sys.MW, sys.c_matrix()[free][:, free].tocsc()):
        b = rng.standard_normal(K.shape[0])

        def splu_solve(**panels):
            return spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                             options=dict(SymmetricMode=True),
                             **panels).solve(b)

        x, want = _factor(K).solve(b), splu_solve()
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(x, splu_solve(relax=1, panel_size=1))


@pytest.mark.parametrize("bc,theta", [("dirichlet", 0.0), ("mixed", 1.0),
                                      ("neumann", 0.0), ("neumann", 1.0)])
@pytest.mark.parametrize("free_set", ["band", "none", "all"])
def test_saddle_matrix_matches_bmat(bc, theta, free_set, monkeypatch):
    # the free-set solve answers the saddle system that sp.bmat assembles;
    # with all nodes free, free nodes sit on the Dirichlet walls, and under
    # pure Neumann walls with theta = 0 only the coupling fixes W
    sys, params, cfg = small_setup(n=8, bc=bc, theta=theta)
    free = {"band": np.abs(sys.phi_prev) < 1.0, "none": np.zeros(sys.n, bool),
            "all": np.ones(sys.n, bool)}[free_set]
    C, top, bottom = _obstacle_coupling(sys)
    r, h = np.random.default_rng(5).standard_normal((2, sys.n))
    calls = _counted_factor(monkeypatch)
    frozen = _FrozenSolver(sys, C, top, bottom, StepReport("active-set"))
    if free_set == "none" and bc == "neumann" and theta == 0.0:
        with pytest.raises(SingularSystem):
            frozen.solve(free, r, h)
        return
    u, w = frozen.solve(free, r, h)
    assert not u[~free].any()
    _assert_solves((u, w), _dense_saddle(C, top, bottom, sys.MW, free, r, h))
    # the heat LU, then the phase-block LU of a nonempty free set
    assert calls == [sys.n] + ([free.sum()] if free.any() else [])
    assert frozen.report.factorizations == len(calls)
    assert frozen.report.krylov_iterations > 0 or not free.any()


@pytest.mark.parametrize("krylov", ["cg", "gmres"])
@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "mixed"])
@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_free_set_solve_matches_dense_saddle(dim, n, bc, theta, krylov):
    # random free sets of one solver; CG serves the symmetric coupling of
    # the obstacle step, GMRES Newton's unlike top and bottom blocks
    sys, params, cfg = small_setup(n=n, dim=dim, theta=theta, bc=bc)
    rng = np.random.default_rng(dim + 2 * len(bc) + int(theta))
    if krylov == "cg":
        C, top, bottom = _obstacle_coupling(sys)
    else:
        C, top, bottom = _newton_coupling(sys, rng)
    frozen = _FrozenSolver(sys, C, top, bottom, StepReport(krylov),
                           symmetric=krylov == "cg")
    for share in (0.3, 0.7):
        free = rng.random(sys.n) < share
        # free nodes on the Dirichlet walls, where there are any
        free[np.flatnonzero(sys.dirichlet)[::2]] = True
        r, h = rng.standard_normal((2, sys.n))
        u, w = frozen.solve(free, r, h, u0=rng.standard_normal(sys.n))
        assert not u[~free].any()
        _assert_solves((u, w), _dense_saddle(C, top, bottom, sys.MW, free,
                                             r, h))


def _change_sets(sys, plus, minus, change, k, rng):
    """Copies of the active sets with ``k`` nodes changed: ``free`` releases
    active nodes (Dirichlet boundary nodes first), ``pin`` pins free nodes
    at alternating bounds, ``both`` does half of each."""
    plus, minus = plus.copy(), minus.copy()
    n_free = {"free": k, "pin": 0, "both": k // 2}[change]
    active = np.flatnonzero(plus | minus)
    edge = active[sys.dirichlet[active]][:n_free // 2]
    release = np.r_[edge, rng.choice(np.setdiff1d(active, edge),
                                     n_free - edge.size, replace=False)]
    pin = rng.choice(np.flatnonzero(~(plus | minus)), k - n_free,
                     replace=False)
    plus[release] = minus[release] = False
    plus[pin[::2]] = True
    minus[pin[1::2]] = True
    return plus, minus


def _pdas_iteration(sys, C, f, frozen, plus, minus):
    """U and W with the nodes of ``plus``/``minus`` pinned at +1/-1: the
    solve of one ``_pdas_solve`` iteration."""
    U = np.where(plus, 1.0, np.where(minus, -1.0, 0.0))
    u, W = frozen.solve(~(plus | minus), sys.g - C @ U, f - frozen.bottom * U)
    W[sys.dirichlet] = sys.u_D
    return U + u, W


# Free sets that change by k nodes.  The test names keep the ids they had
# when a change was bordered onto the LU of a saddle matrix; now every
# change costs one LU of its phase block, and the heat LU stays.
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("theta,bc", [(0.0, "dirichlet"), (1.0, "mixed"),
                                      (1.0, "neumann")])
@pytest.mark.parametrize("change,k", [
    ("free", 12), ("pin", 12), ("both", 20), ("both", 40)])
def test_bordered_solve_matches_fresh_factorization(
        dim, n, theta, bc, change, k, monkeypatch):
    sys, params, cfg = small_setup(n=n, dim=dim, theta=theta, bc=bc)
    C, top, bottom = _obstacle_coupling(sys)
    f = sys.f_rhs(sys.m_rho_diag(sys.phi_prev))
    plus0, minus0 = sys.phi_prev == 1.0, sys.phi_prev == -1.0
    plus1, minus1 = _change_sets(sys, plus0, minus0, change, k,
                                 np.random.default_rng(dim + k))
    assert ((plus0 | minus0) != (plus1 | minus1)).sum() == k
    if change != "pin" and bc != "neumann":
        # some released nodes carry Dirichlet heat rows
        assert (sys.dirichlet & (plus0 | minus0) & ~(plus1 | minus1)).any()
    calls = _counted_factor(monkeypatch)
    frozen = _FrozenSolver(sys, C, top, bottom, StepReport("active-set"))
    # the base, the change, the base again and the change twice
    sets = [(plus0, minus0), (plus1, minus1)] * 2 + [(plus1, minus1)]
    for p, m in sets:
        U, W = _pdas_iteration(sys, C, f, frozen, p, m)
        assert np.array_equal(U[p], np.ones(p.sum()))
        assert np.array_equal(U[m], -np.ones(m.sum()))
        # the oracle: the dense saddle solve of the same iteration
        U_pin = np.where(p, 1.0, np.where(m, -1.0, 0.0))
        u, W_ref = _dense_saddle(C, top, bottom, sys.MW, ~(p | m),
                                 sys.g - C @ U_pin, f - bottom * U_pin)
        W_ref[sys.dirichlet] = sys.u_D
        _assert_solves((U, W), (U_pin + u, W_ref))
    # one heat LU, and one phase-block LU per change of the free set
    nF = [(~(p | m)).sum() for p, m in sets]
    assert calls == [sys.n] + nF[:4]
    # a second solver of the same step finds the heat LU in the mesh cache
    again = _FrozenSolver(sys, C, top, bottom, StepReport("active-set"))
    _pdas_iteration(sys, C, f, again, plus1, minus1)
    assert calls == [sys.n] + nF[:4] + nF[-1:]
    assert frozen.report.factorizations == 5
    assert again.report.factorizations == 1


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("theta,bc", [(0.0, "dirichlet"), (1.0, "mixed")])
@pytest.mark.parametrize("k", [20, 40])
def test_bordered_solve_takes_any_right_hand_side(dim, n, theta, bc, k,
                                                  monkeypatch):
    # a random (r, h), not the right-hand side of an active-set iteration,
    # and coupling diagonals that vanish nowhere off the Dirichlet rows (the
    # shape's rho vanishes at phi = 1, where most released nodes sit); the
    # top and bottom blocks differ, as in Newton, so GMRES solves
    sys, params, cfg = small_setup(n=n, dim=dim, theta=theta, bc=bc)
    rng = np.random.default_rng(dim + k)
    C, top, bottom = _newton_coupling(sys, rng)
    plus0, minus0 = sys.phi_prev == 1.0, sys.phi_prev == -1.0
    plus1, minus1 = _change_sets(sys, plus0, minus0, "both", k, rng)
    sets = [~(plus0 | minus0), ~(plus1 | minus1)]
    r, h = rng.standard_normal((2, sys.n))
    calls = _counted_factor(monkeypatch)
    frozen = _FrozenSolver(sys, C, top, bottom, StepReport("newton"),
                           symmetric=False)
    for free in sets * 2:
        u, w = frozen.solve(free, r, h)
        assert not u[~free].any()
        _assert_solves((u, w), _dense_saddle(C, top, bottom, sys.MW, free,
                                             r, h))
        # the saddle system itself: phase rows of the free set, heat rows
        phase = (C @ u + top * w - r)[free]
        heat = bottom * u + sys.MW @ w - h
        assert np.abs(np.r_[phase, heat]).max() <= 1e-9
    assert calls == [sys.n] + [free.sum() for free in sets * 2]
    assert frozen.report.factorizations == len(calls)
    assert frozen.report.krylov_iterations >= 4


def test_bordered_update_to_all_active_is_singular(monkeypatch):
    # pure Neumann, theta = 0: the constant of W is bordered onto the
    # reduced system, and pinning the last free nodes leaves it undetermined
    sys, params, cfg = small_setup(n=4, theta=0.0, bc="neumann")
    C, top, bottom = _obstacle_coupling(sys)
    f = sys.f_rhs(sys.m_rho_diag(sys.phi_prev))
    plus, minus = sys.phi_prev == 1.0, sys.phi_prev == -1.0
    assert (~(plus | minus)).any()
    calls = _counted_factor(monkeypatch)
    frozen = _FrozenSolver(sys, C, top, bottom, StepReport("active-set"))
    _pdas_iteration(sys, C, f, frozen, plus, minus)
    with pytest.raises(SingularSystem):
        _pdas_iteration(sys, C, f, frozen, ~minus, minus)
    # the heat LU and the first free set's; an empty free set has none
    assert calls == [sys.n, (~(plus | minus)).sum()]


def test_krylov_starts_from_the_iterate():
    # restarted from its own answer, the step makes one active-set
    # iteration whose Krylov solve starts at the solution; the cold step's
    # count is a total, since iterations whose free set proves wrong stop
    # their solves early
    sys, params, cfg = small_setup(n=16)
    U, W, rep = active_set_step(sys, cfg, w0=None)
    assert rep.krylov_iterations >= 10
    U2, W2, rep2 = active_set_step(sys, cfg, u0=U, w0=W)
    assert rep2.outer_iterations == 1 and rep2.krylov_iterations <= 2
    assert max(np.abs(U2 - U).max(), np.abs(W2 - W).max()) <= 1e-12


def test_krylov_solve_short_of_its_tolerance_raises(monkeypatch):
    monkeypatch.setattr(solver, "_KRYLOV_RTOL", 1e-30)
    sys, params, cfg = small_setup(n=4, pot=PotentialSpec("quartic"))
    with pytest.raises(NonConvergence, match="Krylov solve"):
        newton_smooth_step(sys, cfg)


def test_pgs_rejects_zero_diagonal():
    sys, params, cfg = small_setup(n=4)
    sys0 = dataclasses.replace(sys, c_mu=0.0, c_B=0.0)
    with pytest.raises(ZeroDiagonal):
        active_set_step(sys0, cfg)


def _box_qp_oracle(K, r, tol=1e-12, iters=500_000, project=None):
    """Projected gradient for min 1/2 x'Kx - r'x over [-1,1]^n (or over the
    set ``project`` maps onto)."""
    project = project or (lambda y: np.clip(y, -1.0, 1.0))
    L = np.linalg.eigvalsh(K).max()
    x = np.zeros(len(r))
    for _ in range(iters):
        x_new = project(x - (K @ x - r) / L)
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    return x


def _box_slice_projection(d, s):
    """Projection onto {x in [-1,1]^n : d.x = s} for d >= 0: bisection on
    the multiplier nu of x = clip(y - nu d)."""
    def project(y):
        hi = (np.abs(y).max() + 1.0) / d[d > 0.0].min()
        lo = -hi
        for _ in range(100):
            nu = 0.5 * (lo + hi)
            if np.clip(y - nu * d, -1.0, 1.0) @ d > s:
                lo = nu
            else:
                hi = nu
        return np.clip(y - 0.5 * (lo + hi) * d, -1.0, 1.0)
    return project


def dense_coupled_oracle(sys):
    """Eliminate W and solve the box-constrained reduced problem densely."""
    if sys.theta == 0.0 and not sys.dirichlet.any():
        return _singular_heat_oracle(sys)
    n = sys.n
    C = sys.c_matrix().toarray()
    D = sys.lam * sys.M_rho
    A = (sys.theta * np.diag(sys.M) + sys.tau * sys.A_diff.toarray())
    f_raw = sys.lam * sys.M_rho * sys.phi_prev + sys.theta * sys.M * sys.w_prev
    free = ~sys.dirichlet
    Aff = A[np.ix_(free, free)]
    Afd = A[np.ix_(free, ~free)]
    rhs_f = f_raw[free] - Afd @ np.full((~free).sum(), sys.u_D)
    Ainv = np.linalg.inv(Aff)
    P = np.zeros((n, free.sum()))
    P[free, np.arange(free.sum())] = 1.0
    K = C + (D[:, None] * P) @ Ainv @ (P.T * D[None, :])
    w_aff = P @ (Ainv @ rhs_f)
    w_aff[~free] = sys.u_D
    r = sys.g + D * w_aff
    U = _box_qp_oracle(K, r, tol=1e-13)
    W = P @ (Ainv @ (rhs_f - (P.T * D[None, :]) @ U))
    W[~free] = sys.u_D
    return U, W


def _singular_heat_oracle(sys):
    """Dense oracle for pure Neumann walls with theta = 0.

    The heat row tau A W = D (Phi_old - U) fixes W only up to a constant
    and forces d.U = d.Phi_old with d = lam M_rho.  With the pseudo-inverse
    the reduced problem is the box QP restricted to that hyperplane; the
    constant in W is the multiplier of the constraint.
    """
    C = sys.c_matrix().toarray()
    d = sys.lam * sys.M_rho
    A_pinv = np.linalg.pinv(sys.tau * sys.A_diff.toarray())
    f = d * sys.phi_prev
    K = C + d[:, None] * A_pinv * d[None, :]
    r = sys.g + d * (A_pinv @ f)
    U = _box_qp_oracle(K, r, tol=1e-13,
                       project=_box_slice_projection(d, d @ sys.phi_prev))
    # phase row on free nodes: K U - r = c d
    free = (np.abs(U) < 1.0) & (d > 0.0)
    c = np.mean((K @ U - r)[free] / d[free])
    return U, A_pinv @ (f - d * U) + c


def test_active_set_matches_dense_oracle():
    sys, params, cfg = small_setup(n=8)
    U, W, rep = active_set_step(sys, cfg, w0=None)
    U_ref, W_ref = dense_coupled_oracle(sys)
    assert np.abs(U - U_ref).max() <= 1e-6
    assert np.abs(W - W_ref).max() <= 1e-6


# Dirichlet walls at every step size and theta, plus the pure Neumann
# theta = 0 case (the heat block alone is singular, the LU pivots through
# the coupling) and mixed walls.
ORACLE_CASES = (
    [pytest.param(tau, theta, "dirichlet", id=f"{tau}-{theta}")
     for tau in (1e-2, 1.0, 10.0) for theta in (0.0, 1.0)]
    + [pytest.param(tau, 0.0, "neumann", id=f"neumann-{tau}-0.0")
       for tau in (1e-2, 1.0, 10.0)]
    + [pytest.param(tau, theta, "mixed", id=f"mixed-{tau}-{theta}")
       for tau, theta in ((1e-2, 0.0), (1.0, 1.0), (10.0, 0.0))])


@pytest.mark.parametrize("tau,theta,bc", ORACLE_CASES)
def test_active_set_matches_dense_oracle_any_step_size(tau, theta, bc):
    sys, params, cfg = small_setup(n=8, theta=theta, tau=tau, bc=bc,
                                   u_D=0.0 if bc == "neumann" else -2.0)
    U, W, rep = active_set_step(sys, cfg, w0=None if theta == 0.0 else "prev")
    U_ref, W_ref = dense_coupled_oracle(sys)
    assert U.max() <= 1.0 and U.min() >= -1.0
    assert np.abs(U - U_ref).max() <= 1e-6
    assert np.abs(W - W_ref).max() <= 1e-6


def test_active_set_unconstrained_matches_linear_solve():
    # no node reaches the bounds when the previous phase stays well inside
    sys, params, cfg = small_setup(n=8)
    rng = np.random.default_rng(3)
    phi = 0.3 * np.sin(3 * sys.mesh.vertices[:, 0]) * np.cos(
        2 * sys.mesh.vertices[:, 1])
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec("lin-minus", "for-negative-uD")
    sysi = assemble_step_system(sys.mesh, dataclasses.replace(params, u_D=-0.01),
                                pot, sh, make_regularized_l1(0.3, 2),
                                MobilitySpec("gamma"), phi,
                                np.full(sys.n, -0.01))
    U, W, rep = active_set_step(sysi, cfg)
    assert rep.active_plus == 0 and rep.active_minus == 0
    n = sysi.n
    C = sysi.c_matrix().toarray()
    MU = np.diag(np.where(sysi.dirichlet, 0.0, sysi.lam * sysi.M_rho))
    K = np.block([[C, -np.diag(sysi.lam * sysi.M_rho)],
                  [MU, sysi.MW.toarray()]])
    sol = np.linalg.solve(K, np.concatenate([sysi.g, sysi.f_rhs(sysi.M_rho)]))
    assert np.abs(U - sol[:n]).max() <= 1e-10
    assert np.abs(W - sol[n:]).max() <= 1e-10


def test_active_set_pure_phase_fixed_point():
    # previous state identically liquid, supercooling above the detachment
    # threshold -2 alpha / (a c_psi eps) = -64: the state must stay put
    params = PhysicalParams(theta=0.0, rho=1e-3, alpha=1.0,
                            eps=1.0 / (16.0 * np.pi), u_D=-2.0, H=0.5,
                            bc_case="dirichlet", R0=0.2, tau=1e-3)
    mesh = build_uniform_mesh(params.H, 8, 2, "dirichlet")
    phi = np.ones(mesh.n_vertices)
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec("const", "for-negative-uD")
    sys1 = assemble_step_system(mesh, params, pot, sh,
                                make_regularized_l1(0.3, 2),
                                MobilitySpec("gamma"), phi,
                                np.full(mesh.n_vertices, params.u_D))
    U, W, rep = active_set_step(sys1, CFG, w0=None)
    assert np.all(U == 1.0)
    assert np.abs(W - params.u_D).max() <= 1e-10
    assert rep.outer_iterations <= 2


def test_active_set_initial_iterate_independence():
    sys, params, cfg = small_setup(n=8)
    U1, W1, _ = active_set_step(sys, cfg, w0=np.zeros(sys.n))
    U2, W2, _ = active_set_step(sys, cfg, w0=np.full(sys.n, params.u_D))
    assert np.abs(U1 - U2).max() <= 1e-7
    assert np.abs(W1 - W2).max() <= 1e-7


def test_active_set_determinism():
    sys, params, cfg = small_setup(n=8)
    U1, W1, _ = active_set_step(sys, cfg)
    U2, W2, _ = active_set_step(sys, cfg)
    assert np.array_equal(U1, U2) and np.array_equal(W1, W2)


def test_obstacle_bounds_exact():
    sys, params, cfg = small_setup(n=8)
    U, _, _ = active_set_step(sys, cfg, w0=None)
    assert U.max() <= 1.0 and U.min() >= -1.0


def test_residual_audit_after_convergence():
    sys, params, cfg = small_setup(n=8)
    U, W, _ = active_set_step(sys, cfg, w0=None)
    audit = residual_audit(sys, U, W)
    assert audit["heat_max"] <= 10 * cfg.tol
    assert audit["vi_interior_max"] <= 10 * cfg.tol
    assert audit["comp_plus_worst"] <= 10 * cfg.tol * (1 + np.abs(sys.g).max())
    assert audit["comp_minus_worst"] <= 10 * cfg.tol * (1 + np.abs(sys.g).max())


def _heat_lu_cached(rep):
    """The report of the same solve once the heat LU is in the mesh cache."""
    return dataclasses.replace(rep, factorizations=rep.factorizations - 1)


def test_lagged_omega_one_equals_active_set():
    sys, params, cfg = small_setup(n=8)
    cfg1 = dataclasses.replace(cfg, omega=1.0)
    U_a, W_a, rep_a = active_set_step(sys, cfg, w0=None)
    U_l, W_l, rep = lagged_step(sys, cfg1, w0=None)
    assert np.abs(U_a - U_l).max() <= 1e-10
    assert np.abs(W_a - W_l).max() <= 1e-10
    # a frozen step is the one active-set solve and reports as such; the
    # second solve finds the heat LU of the first in the mesh cache
    assert rep == _heat_lu_cached(rep_a) and rep.method == "active-set"


def test_lagged_nonlinear_shape_converges():
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    sys, params, cfg = small_setup(n=8, aniso=make_isotropic(2), shape=sh)
    U, W, rep = lagged_step(sys, cfg, w0=None)
    audit = residual_audit(sys, U, W)
    scale = 1 + np.abs(sys.g).max()
    assert audit["heat_max"] <= 10 * cfg.tol * scale
    assert audit["vi_interior_max"] <= 10 * cfg.tol * scale


def test_omega_zero_rejected():
    with pytest.raises(ValueError):
        SolverConfig(omega=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    # a NaN tolerance would stop Newton before its first iteration
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SolverConfig(tol=bad)
        with pytest.raises(ValueError):
            SolverConfig(omega=bad)


def test_coefficients_move_rule():
    frozen, _, _ = small_setup(n=4)
    r2, _, _ = small_setup(n=4, dim=3,
                           aniso=anisotropy_from_name("cube3d:0.3:2", dim=3))
    quartic, _, _ = small_setup(
        n=4, shape=ShapeSpec("quartic-shape", "for-negative-uD"))
    assert not frozen.coefficients_move
    # r = 2 moves the stiffness, the r = 1 quartic shape split the coupling
    assert r2.coefficients_move and quartic.coefficients_move
    # the stiffness follows the iterate only for r > 1
    for sys in (frozen, quartic):
        assert sys.b_matrix_at(-sys.phi_prev) is sys.B_stiff
    assert r2.b_matrix_at(r2.phi_prev) is not r2.B_stiff


def _moving_system(case):
    if case == "cube3d-r2":
        return small_setup(n=8, dim=3,
                           aniso=anisotropy_from_name("cube3d:0.3:2", dim=3))
    return small_setup(n=8, tau=1e-2,
                       shape=ShapeSpec("quartic-shape", "for-negative-uD"))


@pytest.mark.parametrize("case", ["cube3d-r2", "quartic-shape"])
def test_active_set_step_on_moving_coefficients_is_the_lagged_step(case):
    sys, params, cfg = _moving_system(case)
    assert sys.coefficients_move
    U, W, rep = active_set_step(sys, cfg)
    U_l, W_l, rep_l = lagged_step(sys, cfg)
    assert np.array_equal(U, U_l) and np.array_equal(W, W_l)
    assert _heat_lu_cached(rep) == rep_l and rep.method == "lagged"


@pytest.mark.parametrize("w0", [None, "prev"])
def test_lagged_frozen_system_solves_once(w0, monkeypatch):
    sys, params, cfg = small_setup(n=8)
    calls = []
    pdas = solver._pdas_solve

    def counted(*args):
        calls.append(args)
        return pdas(*args)

    monkeypatch.setattr(solver, "_pdas_solve", counted)
    U, W, rep = lagged_step(sys, cfg, w0=w0)
    assert len(calls) == 1
    # the one solve's own report: its outer count, no inner iterations
    assert rep.method == "active-set" and rep.inner_iterations == 0
    monkeypatch.undo()
    rep_a = StepReport(method="active-set")
    U_a, W_a = solver._pdas_solve(sys, cfg, *solver._start(sys, None, w0),
                                  rep_a)
    assert np.array_equal(U, U_a) and np.array_equal(W, W_a)
    assert _heat_lu_cached(rep) == rep_a


@pytest.mark.parametrize("omega", [0.5, 1.0])
@pytest.mark.parametrize("case", ["cube3d-r2", "quartic-shape"])
def test_lagged_converges_on_moving_coefficients(case, omega):
    sys, params, cfg = _moving_system(case)
    cfg = dataclasses.replace(cfg, omega=omega)
    U, W, rep = lagged_step(sys, cfg)
    assert rep.residual < cfg.tol and rep.outer_iterations > 1
    assert U.max() <= 1.0 and U.min() >= -1.0
    audit = residual_audit(sys, U, W)
    bound = 10 * cfg.tol * (1 + np.abs(sys.g).max())
    assert max(audit.values()) <= bound, audit
    U_t, W_t, _ = lagged_step(sys, dataclasses.replace(cfg, tol=1e-12))
    assert max(np.abs(U - U_t).max(), np.abs(W - W_t).max()) <= 1e-7


# The two tests below record open defects (ROADMAP item 2): the step raises
# NonConvergence where another start or more damping converges.


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="frozen-coefficient active-set iteration cycles "
                          "from the placeholder temperature w_prev")
@pytest.mark.parametrize("n", [4, 6])
def test_lagged_cube3d_r2_from_previous_temperature(n):
    sys, params, cfg = small_setup(
        n=n, dim=3, aniso=anisotropy_from_name("cube3d:0.3:2", dim=3))
    lagged_step(sys, cfg)


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="the undamped first iterate melts the seed and the "
                          "active-set solve at it cycles")
def test_lagged_undamped_quartic_shape_without_temperature_guess():
    sys, params, cfg = _moving_system("quartic-shape")
    lagged_step(sys, dataclasses.replace(cfg, omega=1.0), w0=None)


def test_singular_system_detected():
    # all nodes active, theta = 0, pure Neumann: W is undetermined
    params = PhysicalParams(theta=0.0, rho=0.0, eps=0.04, u_D=0.0, H=0.5,
                            bc_case="neumann", R0=0.2, tau=1e-3)
    mesh = build_uniform_mesh(params.H, 4, 2, "neumann")
    phi = np.ones(mesh.n_vertices)
    sys = assemble_step_system(mesh, params, PotentialSpec("obstacle"),
                               ShapeSpec("const", "for-negative-uD"),
                               make_regularized_l1(0.3, 2),
                               MobilitySpec("gamma"), phi,
                               np.zeros(mesh.n_vertices))
    with pytest.raises(SingularSystem):
        active_set_step(sys, CFG, u0=np.ones(sys.n), w0=None)


def test_newton_fixed_point_zero_iterations():
    sh = ShapeSpec("lin-minus", "for-negative-uD")
    pot = PotentialSpec("quartic")
    sys, params, cfg = small_setup(n=8, pot=pot, shape=sh)
    phi = np.ones(sys.n)
    sys1 = assemble_step_system(sys.mesh, params, pot, sh,
                                make_regularized_l1(0.3, 2),
                                MobilitySpec("gamma"), phi,
                                np.full(sys.n, params.u_D))
    U, W, rep = newton_smooth_step(sys1, cfg)
    assert rep.outer_iterations <= 1
    assert np.abs(U - 1.0).max() <= 1e-9
    assert np.abs(W - params.u_D).max() <= 1e-9


def test_newton_residual_below_tolerance():
    pot = PotentialSpec("quartic")
    sys, params, cfg = small_setup(n=8, pot=pot)
    U, W, rep = newton_smooth_step(sys, cfg)
    assert rep.residual < cfg.tol


def _bmat_newton(sys, cfg):
    """Reference copy of the Newton iteration that rebuilt both heat
    blocks and assembled the Jacobian with ``sp.bmat`` at every iteration."""
    n = sys.n
    sh = sys._shape
    U = sys.phi_prev.copy()
    W = sys.w_prev.copy()
    B = sys.b_matrix_at(U)
    r_phi, r_w, m_rho, C = _smooth_residual(sys, U, W, B)
    rnorm = max(np.abs(r_phi).max(), np.abs(r_w).max())
    iterations = 0
    for _it in range(_NEWTON_MAX_ITER):
        if rnorm < cfg.tol:
            break
        drho = sh.rho_plus_deriv_clamped(U)
        J11 = (C + sp.diags(sys.c_conc * sys.M * 3.0 * U**2)
               - sp.diags(sys.lam * sys.M * drho * W)).tocsr()
        J12 = sp.diags(-sys.lam * m_rho)
        u = sys.lam * (m_rho + sys.M * drho * (U - sys.phi_prev))
        J21 = sp.diags(np.where(sys.dirichlet, 0.0, u), format="csr")
        J22 = (sys.theta * sp.diags(sys.M) + sys.tau * sys.A_diff).tocsr()
        J22.data[np.repeat(sys.dirichlet, np.diff(J22.indptr))] = 0.0
        J22 = J22 + sp.diags(sys.dirichlet.astype(float))
        K = sp.bmat([[J11, J12], [J21, J22]], format="csc")
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
        U, W, B = U_t, W_t, B_t
        r_phi, r_w, m_rho, C = r_phi_t, r_w_t, m_rho_t, C_t
        rnorm = rn_t
        iterations += 1
    W[sys.dirichlet] = sys.u_D
    return U, W, iterations, rnorm


@pytest.mark.parametrize("theta,bc,u_D", [(1.0, "mixed", -2.0),
                                          (0.0, "dirichlet", -2.0),
                                          (1.0, "neumann", 0.0)])
def test_newton_matches_bmat_reference(theta, bc, u_D):
    # Newton solves each linearization by GMRES to rtol 1e-12, the
    # reference by a direct LU: the iterations agree, and the answers to
    # within round-off of the quadratic convergence
    pot = PotentialSpec("quartic")
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    sys, params, cfg = small_setup(n=8, theta=theta, bc=bc, u_D=u_D, pot=pot,
                                   shape=sh, tau=1e-2)
    U, W, rep = newton_smooth_step(sys, cfg)
    U_ref, W_ref, iterations, rnorm = _bmat_newton(sys, cfg)
    assert rep.outer_iterations == iterations >= 2
    assert rep.residual < cfg.tol and rnorm < cfg.tol
    assert max(np.abs(U - U_ref).max(), np.abs(W - W_ref).max()) <= 1e-12
    # the heat LU, one LU of the phase block per iteration, and GMRES
    assert rep.factorizations == iterations + 1
    assert rep.krylov_iterations >= iterations


def _picard_oracle(sys, omega=0.5, tol=1e-10, iters=5000):
    """Coefficient-lagged linear iterations, no derivatives."""
    sh = sys._shape
    n = sys.n
    U = sys.phi_prev.copy()
    W = sys.w_prev.copy()
    dir_idx = np.nonzero(sys.dirichlet)[0]
    for _ in range(iters):
        m_rho = sys.m_rho_diag(U)
        C = sys.c_matrix(sys.b_matrix_at(U)).toarray()
        J11 = C + np.diag(sys.c_conc * sys.M * U**2)
        J12 = -np.diag(sys.lam * m_rho)
        MW = (sys.theta * np.diag(sys.M) + sys.tau * sys.A_diff.toarray())
        MU = np.diag(sys.lam * m_rho)
        MW[dir_idx] = 0.0
        MU[dir_idx] = 0.0
        MW[dir_idx, dir_idx] = 1.0
        K = np.block([[J11, J12], [MU, MW]])
        rhs = np.concatenate([sys.g, sys.f_rhs(m_rho)])
        sol = np.linalg.solve(K, rhs)
        U_new = (1 - omega) * U + omega * sol[:n]
        W_new = (1 - omega) * W + omega * sol[n:]
        diff = max(np.abs(U_new - U).max(), np.abs(W_new - W).max())
        U, W = U_new, W_new
        if diff < tol:
            break
    return U, W


def test_newton_matches_picard_oracle():
    pot = PotentialSpec("quartic")
    sys, params, cfg = small_setup(n=8, pot=pot)
    U, W, _ = newton_smooth_step(sys, cfg)
    U_p, W_p = _picard_oracle(sys)
    assert np.abs(U - U_p).max() <= 1e-6
    assert np.abs(W - W_p).max() <= 1e-6


def test_newton_line_search_halves_the_step(monkeypatch):
    sys, params, cfg = small_setup(pot=PotentialSpec("quartic"), tau=1.0)
    calls = []
    residual = solver._smooth_residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(solver, "_smooth_residual", counted)
    U, W, rep = newton_smooth_step(sys, cfg)
    # one evaluation at the start and one per full step: any more are halvings
    assert len(calls) > rep.outer_iterations + 1
    assert rep.residual < cfg.tol
    monkeypatch.undo()
    U_p, W_p = _picard_oracle(sys)
    assert np.abs(U - U_p).max() <= 1e-6
    assert np.abs(W - W_p).max() <= 1e-6


def test_conservation_audit_contract():
    sys, params, cfg = small_setup(n=8, theta=0.0, u_D=0.0, bc="neumann",
                                   shape=ShapeSpec("const", "for-negative-uD"))
    sh = ShapeSpec("const", "for-negative-uD")
    phi = sys.phi_prev
    assert conservation_audit(sys.mesh, sh, phi, phi, 0.0, "neumann") == 0.0
    with pytest.raises(NotApplicable):
        conservation_audit(sys.mesh, sh, phi, phi, 1.0, "neumann")
    with pytest.raises(NotApplicable):
        conservation_audit(sys.mesh, sh, phi, phi, 0.0, "dirichlet")
    # constant shape: the identity is mean conservation of the phase
    rng = np.random.default_rng(11)
    new = np.clip(phi + rng.normal(scale=0.01, size=sys.n), -1, 1)
    from anisopf.assembly import lumped_mass
    M = lumped_mass(sys.mesh)
    expect = abs(0.5 * float(np.sum(M * (new - phi))))
    assert conservation_audit(sys.mesh, sh, phi, new, 0.0, "neumann") == \
        pytest.approx(expect, abs=1e-15)
