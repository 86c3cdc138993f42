"""Time stepping driver: initial data, per-step solves, energy bookkeeping.

Every accepted step is checked against the discrete stability estimates of
the schemes: the energy

    E_h = theta/2 |W - u_D|_h^2
          + (lam alpha / a) (1/c_psi) [ eps/2 ||gamma(grad Phi)||^2
                                        + 1/eps (Psi(Phi), 1)^h ]

decreases once the supercooling work and the two dissipation terms
(conductive and kinetic) are added, and the free energy
F_h = E_h - lam u_D (P(Phi), 1)^h is monotone outright whenever the shape
split matches the sign of u_D.  Violations beyond round-off indicate a
broken scheme, so the driver records the slack of both inequalities each
step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import output
from .assembly import assemble_step_system, lumped_mass
from .errors import (
    InterfaceTooWide,
    MeshChanged,
    StabilityViolation,
)
from .mesh import (
    _BC_CASES,
    NodalField,
    adapt_to_interface,
    build_uniform_mesh,
    transfer_field,
)
from .solver import active_set_step, lagged_step, newton_smooth_step

__all__ = [
    "PhysicalParams",
    "SimulationState",
    "EnergyRow",
    "initial_phase",
    "initial_temperature",
    "discrete_energy",
    "verify_stability",
    "run_simulation",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Constant physical parameters of one run."""

    theta: float = 0.0
    lam: float = 1.0
    a: float = 1.0
    alpha: float = 1.0
    rho: float = 0.0
    Kplus: float = 1.0
    Kminus: float = 1.0
    eps: float = 1.0 / (16.0 * math.pi)
    u_D: float = 0.0
    H: float = 0.5
    bc_case: str = "dirichlet"
    R0: float = 0.1
    T_end: float = 1e-3
    tau: float = 1e-5

    def __post_init__(self):
        checks = [
            (self.theta >= 0.0, "theta must be >= 0"),
            (self.lam > 0.0, "lambda must be > 0"),
            (self.a > 0.0, "a must be > 0"),
            (self.alpha > 0.0, "alpha must be > 0"),
            (self.rho >= 0.0, "rho must be >= 0"),
            (self.Kplus > 0.0 and self.Kminus > 0.0, "K+- must be > 0"),
            (self.eps > 0.0, "eps must be > 0"),
            (self.H > 0.0, "H must be > 0"),
            (0.0 < self.R0 < self.H, "R0 must lie in (0, H)"),
            (self.T_end > 0.0, "T_end must be > 0"),
            (self.tau > 0.0, "tau must be > 0"),
            (self.bc_case in _BC_CASES, "unknown boundary case"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


@dataclass
class EnergyRow:
    t: float
    E_h: float
    F_h: float
    diffusive: float
    kinetic: float
    stab2_slack: float
    stab3_slack: float
    stab2_holds: bool
    stab3_holds: bool
    phi_within_split_bound: bool = True


@dataclass
class SimulationState:
    """Fields and bookkeeping at one time level."""

    t: float
    mesh: object
    phi: NodalField
    w: NodalField
    ledger: list = field(default_factory=list)
    reports: list = field(default_factory=list)


def initial_phase(mesh, R0, eps):
    """Circular/spherical seed: solid (-1) inside radius R0, liquid outside.

    The profile ramps through sin((|x| - R0)/eps) across a band of width
    eps*pi, which must fit inside the seed.
    """
    if eps * math.pi / 2.0 >= R0:
        raise InterfaceTooWide(
            f"interface half-width {eps * math.pi / 2:.4g} exceeds R0 = {R0}")
    r = np.linalg.norm(mesh.vertices, axis=1)
    vals = np.sin((r - R0) / eps)
    vals[r <= R0 - eps * math.pi / 2.0] = -1.0
    vals[r >= R0 + eps * math.pi / 2.0] = 1.0
    return NodalField(vals, mesh)


def initial_temperature(mesh, u_D, R0, H):
    """Radial initial temperature: zero in the seed, u_D at the far field."""
    r = np.linalg.norm(mesh.vertices, axis=1)
    vals = np.where(
        r <= R0,
        0.0,
        u_D * (1.0 - np.exp(R0 - r)) / (1.0 - math.exp(R0 - H)),
    )
    vals[r >= H] = u_D
    return NodalField(vals, mesh)


def discrete_energy(mesh, phi, w, params, pot, sh, aniso):
    """(E_h, F_h) of a nodal pair; gradient term integrated exactly."""
    phi = np.asarray(phi, dtype=float)
    w = np.asarray(w, dtype=float)
    M = lumped_mass(mesh)
    grads = mesh.field_gradients(phi)
    g = aniso.gamma(grads)
    grad_term = 0.5 * params.eps * float(np.sum(mesh.volumes * g * g))
    s = np.clip(phi, -1.0, 1.0) if pot.kind == "obstacle" else phi
    psi_term = float(np.sum(M * pot.psi(s))) / params.eps
    scale = params.lam * params.alpha / (params.a * pot.c_psi)
    E = 0.5 * params.theta * float(np.sum(M * (w - params.u_D) ** 2))
    E += scale * (grad_term + psi_term)
    F = E - params.lam * params.u_D * float(np.sum(M * sh.interp(s)))
    return E, F


def verify_stability(prev, new, params, pot, sh, aniso, sys,
                     prev_energy=None):
    """Evaluate both per-step stability inequalities on a fixed mesh.

    The first compares E_h plus the supercooling work and both dissipation
    terms against the previous E_h; the second is the plain monotonicity of
    F_h including the dissipation.  A flag holds when the left side exceeds
    the right by at most 1e-8 (1 + |rhs|).  The masses, the conductivity,
    the coupling weight and tau are read from ``sys``, the step system the
    solver was given.  ``prev_energy`` is the ``(E_h, F_h)`` pair of
    ``prev`` when the caller already has it.  Returns the ledger row of
    ``new``.
    """
    if prev.mesh is not new.mesh:
        raise MeshChanged("stability check requires a common mesh")
    mesh = prev.mesh
    phi_o, w_o = prev.phi.values, prev.w.values
    phi_n, w_n = new.phi.values, new.w.values

    if prev_energy is None:
        prev_energy = discrete_energy(mesh, phi_o, w_o, params, pot, sh, aniso)
    E_o, F_o = prev_energy
    E_n, F_n = discrete_energy(mesh, phi_n, w_n, params, pot, sh, aniso)
    dphi = phi_n - phi_o
    diffusive = sys.tau * float(w_n @ (sys.A_diff @ w_n))
    c_kin = (params.lam * params.rho * params.eps
             / (params.a * pot.c_psi * sys.tau))
    kinetic = c_kin * float(np.sum(sys.M_mu * dphi * dphi))
    work = -params.u_D * params.lam * float(np.sum(sys.m_rho_diag(phi_n) * dphi))

    slack2 = E_n + work + diffusive + kinetic - E_o
    slack3 = F_n + diffusive + kinetic - F_o
    return EnergyRow(
        t=new.t, E_h=E_n, F_h=F_n, diffusive=diffusive, kinetic=kinetic,
        stab2_slack=slack2, stab3_slack=slack3,
        stab2_holds=bool(slack2 <= 1e-8 * (1.0 + abs(E_o))),
        stab3_holds=bool(slack3 <= 1e-8 * (1.0 + abs(F_o))),
        phi_within_split_bound=_phi_within_split_bound(sh, phi_o, phi_n),
    )


def _phi_within_split_bound(sh, phi_o, phi_n):
    bound = 2.0 / math.sqrt(3.0)
    if sh.kind != "quartic-shape":
        return True
    if sh.split_sign == "for-negative-uD":
        return bool(phi_o.max() <= bound and phi_n.max() <= bound)
    return bool(phi_o.min() >= -bound and phi_n.min() >= -bound)


def run_simulation(cfg, out_dir=None, strict=False):
    """Run a configured simulation and write its artifact files.

    Produces VTK snapshots every ``vtk_every`` steps, the energy ledger CSV
    and a JSON run report in the output directory.  With ``strict`` a
    failed stability inequality aborts the run.  Failures abort cleanly:
    partial outputs are written, the report's ``error`` field names the
    step, and the original exception is re-raised with the step index set
    as its ``step`` attribute.

    Every step starts from the linear extrapolation ``2 U_n - U_{n-1}`` of
    the last two phase fields, and from ``2 W_n - W_{n-1}`` once two solved
    temperatures exist (with theta = 0 the initial W is only a
    placeholder); on adaptive runs the older state is moved to each new
    mesh with the same transfer map.  The start changes how many
    iterations a step takes, not its answer beyond solver tolerance.
    """
    params = cfg.physical_params()
    pot, sh, aniso, mobility = cfg.model_objects()
    scfg = cfg.solver_config()
    out = output.OutputWriter(cfg, out_dir)

    mesh = build_uniform_mesh(params.H, cfg.N_f, cfg.dim, params.bc_case)
    if cfg.initial == "liquid":
        phi = NodalField(np.ones(mesh.n_vertices), mesh)
    else:
        phi = initial_phase(mesh, params.R0, params.eps)
    if cfg.adaptive:
        mesh2, tmap = adapt_to_interface(mesh, phi, cfg.N_f, cfg.N_c)
        phi = transfer_field(phi, tmap)
        mesh = mesh2
    if params.theta > 0.0:
        w = initial_temperature(mesh, params.u_D, params.R0, params.H)
    else:
        w = NodalField(np.full(mesh.n_vertices, params.u_D), mesh)
    state = SimulationState(0.0, mesh, phi, w)

    n_steps = int(math.floor(params.T_end / params.tau + 1e-9))
    out.vtk_snapshot(state, 0)

    n = 0
    energy = None      # (E_h, F_h) of ``state`` once known
    older = None       # (phi, w) one step before ``state``, on its mesh
    # solved temperatures so far; with theta = 0 the initial W is only a
    # placeholder, so the first step has no temperature guess
    solved_w = int(params.theta > 0.0)
    try:
        for n in range(1, n_steps + 1):
            if cfg.adaptive and n > 1:
                new_mesh, tmap = adapt_to_interface(state.mesh, state.phi,
                                                    cfg.N_f, cfg.N_c)
                state = SimulationState(
                    state.t, new_mesh,
                    transfer_field(state.phi, tmap),
                    transfer_field(state.w, tmap),
                    state.ledger, state.reports)
                if older is not None:
                    older = tuple(transfer_field(f, tmap) for f in older)
                energy = None   # the transfer changed the fields
            sys = assemble_step_system(
                state.mesh, params, pot, sh, aniso, mobility,
                state.phi.values, state.w.values)
            u0 = None if older is None else 2.0 * state.phi.values - older[0].values
            w0 = (2.0 * state.w.values - older[1].values if solved_w > 1
                  else "prev" if solved_w else None)
            if pot.kind == "quartic":
                step = newton_smooth_step
            elif sys.coefficients_move:
                step = lagged_step
            else:
                step = active_set_step
            U, W, rep = step(sys, scfg, u0=u0, w0=w0)
            new_state = SimulationState(
                state.t + params.tau, state.mesh,
                NodalField(U, state.mesh), NodalField(W, state.mesh),
                state.ledger, state.reports)
            row = verify_stability(state, new_state, params, pot, sh, aniso,
                                   sys, prev_energy=energy)
            energy = (row.E_h, row.F_h)
            new_state.ledger.append(row)
            new_state.reports.append(rep)
            older = (state.phi, state.w)
            solved_w += 1
            state = new_state
            if strict and not (row.stab2_holds and row.stab3_holds):
                raise StabilityViolation(
                    f"stab2_slack={row.stab2_slack:.3e} "
                    f"stab3_slack={row.stab3_slack:.3e}")
            out.vtk_snapshot(state, n)
    except Exception as exc:
        # the original exception travels on, with its type and attributes
        # intact; the failing step index rides along as ``exc.step``
        exc.step = max(n, 1)
        out.finalize(state, error=f"step {exc.step}: {exc}")
        raise

    out.finalize(state)
    return state
