import dataclasses
import errno
import json
import math

import numpy as np
import pytest

from anisopf.anisotropy import MobilitySpec, make_regularized_l1
from anisopf.assembly import assemble_step_system, lumped_mass
from anisopf.config import RunConfig
from anisopf.errors import InterfaceTooWide, MeshChanged
from anisopf.mesh import NodalField, build_uniform_mesh
from anisopf.potentials import PotentialSpec, ShapeSpec
from anisopf.stepper import (
    PhysicalParams,
    SimulationState,
    discrete_energy,
    initial_phase,
    initial_temperature,
    run_simulation,
    verify_stability,
)


@pytest.fixture
def mesh():
    return build_uniform_mesh(0.5, 16, 2, "dirichlet")


def test_initial_phase_profile(mesh):
    eps = 1.0 / (16.0 * math.pi)
    R0 = 0.25
    f = initial_phase(mesh, R0, eps)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.all(np.abs(f.values) <= 1.0)
    assert np.all(f.values[r <= R0 - eps * math.pi / 2] == -1.0)
    assert np.all(f.values[r >= R0 + eps * math.pi / 2] == 1.0)
    # vertices on the zero circle (if any) vanish; check the formula instead
    assert float(np.interp(R0, [0.0, 2 * R0], [0.0, 0.0])) == 0.0
    probe = np.sin((r - R0) / eps)
    band = np.abs(r - R0) < eps * math.pi / 2
    assert np.allclose(f.values[band], probe[band])


def test_initial_phase_rejects_wide_interface(mesh):
    with pytest.raises(InterfaceTooWide):
        initial_phase(mesh, R0=0.01, eps=0.1)


def test_initial_temperature_profile(mesh):
    u_D, R0, H = -2.0, 0.25, 0.5
    f = initial_temperature(mesh, u_D, R0, H)
    r = np.linalg.norm(mesh.vertices, axis=1)
    inner = r <= R0
    assert np.all(f.values[inner] == 0.0)
    edge = np.isclose(r, H)
    # corner vertices have |z| > H and take the far-field value
    assert np.all(f.values[r >= H] == u_D)
    mid = (r > R0) & (r < H)
    expect = u_D * (1.0 - np.exp(R0 - r[mid])) / (1.0 - math.exp(R0 - H))
    assert np.allclose(f.values[mid], expect)
    zero = initial_temperature(mesh, 0.0, R0, H)
    assert np.all(zero.values == 0.0)


def _model(u_D=-1.0):
    params = PhysicalParams(theta=1.0, lam=2.0, a=1.0, alpha=0.5, rho=0.0,
                            eps=0.02, u_D=u_D, H=0.5, R0=0.2, tau=1e-4)
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec("lin-minus", "for-negative-uD")
    aniso = make_regularized_l1(0.3, 2)
    return params, pot, sh, aniso, MobilitySpec("gamma")


def test_energy_pure_liquid(mesh):
    params, pot, sh, aniso, _ = _model()
    phi = np.ones(mesh.n_vertices)
    w = np.full(mesh.n_vertices, params.u_D)
    E, F = discrete_energy(mesh, phi, w, params, pot, sh, aniso)
    assert E == pytest.approx(0.0, abs=1e-14)
    assert F == pytest.approx(-params.lam * params.u_D * 1.0, rel=1e-12)


def test_energy_flat_midstate(mesh):
    params, pot, sh, aniso, _ = _model()
    phi = np.zeros(mesh.n_vertices)
    w = np.full(mesh.n_vertices, params.u_D)
    E, _ = discrete_energy(mesh, phi, w, params, pot, sh, aniso)
    expect = (params.lam * params.alpha / params.a) / pot.c_psi \
        * (1.0 / params.eps) * 0.5
    assert E == pytest.approx(expect, rel=1e-12)


def test_energy_scales_with_latent_heat(mesh):
    # every term of F_h except the theta-term carries one factor of lambda
    import dataclasses
    params, pot, sh, aniso, _ = _model()
    params = dataclasses.replace(params, theta=0.0)
    rng = np.random.default_rng(0)
    phi = np.clip(rng.uniform(-1, 1, mesh.n_vertices), -1, 1)
    w = rng.normal(size=mesh.n_vertices)
    params2 = dataclasses.replace(params, lam=2.0 * params.lam)
    E1, F1 = discrete_energy(mesh, phi, w, params, pot, sh, aniso)
    E2, F2 = discrete_energy(mesh, phi, w, params2, pot, sh, aniso)
    assert E2 == pytest.approx(2.0 * E1, rel=1e-12)
    assert F2 == pytest.approx(2.0 * F1, rel=1e-12)


def test_stability_stationary_state(mesh):
    params, pot, sh, aniso, mob = _model()
    phi = initial_phase(mesh, params.R0, params.eps)
    w = NodalField(np.full(mesh.n_vertices, params.u_D), mesh)
    s = SimulationState(0.0, mesh, phi, w)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi.values,
                               w.values)
    rep = verify_stability(s, s, params, pot, sh, aniso, sys)
    assert rep.stab2_holds and rep.stab3_holds
    assert rep.diffusive >= 0.0 and rep.kinetic == 0.0
    assert rep.stab2_slack <= 1e-12 and rep.stab3_slack <= 1e-12


def test_stability_rejects_mesh_change(mesh):
    params, pot, sh, aniso, mob = _model()
    other = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    a = SimulationState(
        0.0, mesh, NodalField(np.ones(mesh.n_vertices), mesh),
        NodalField(np.zeros(mesh.n_vertices), mesh))
    b = SimulationState(
        0.0, other, NodalField(np.ones(other.n_vertices), other),
        NodalField(np.zeros(other.n_vertices), other))
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob,
                               a.phi.values, a.w.values)
    with pytest.raises(MeshChanged):
        verify_stability(a, b, params, pot, sh, aniso, sys)


def base_config(tmp_path, **kw):
    defaults = dict(theta=0.0, rho=1e-3, alpha=1.0, u_D=-1.0, H=0.5,
                    eps=1.0 / (16 * np.pi), R0=0.25, bc="dirichlet",
                    potential="obstacle", shape="linear", anisotropy="ani1:0.3",
                    initial="seed", T_end=5e-5, tau=1e-5, N_f=16, N_c=16,
                    vtk_every=0, out_dir=str(tmp_path))
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_zero_steps_outputs_initial_state(tmp_path):
    cfg = base_config(tmp_path, T_end=1e-6, tau=1e-5, vtk_every=1)
    state = run_simulation(cfg)
    assert state.t == 0.0
    assert state.ledger == []
    assert (tmp_path / "fields_000000.vtk").exists()
    assert (tmp_path / "energies.csv").read_text().count("\n") == 1


def test_run_writes_artifacts_and_holds_bounds(tmp_path):
    cfg = base_config(tmp_path, vtk_every=2)
    state = run_simulation(cfg)
    assert len(state.ledger) == 5
    assert np.abs(state.phi.values).max() <= 1.0
    d = state.mesh.dirichlet_mask
    assert np.all(state.w.values[d] == cfg.u_D)
    assert (tmp_path / "energies.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "fields_000000.vtk").exists()
    assert (tmp_path / "fields_000002.vtk").exists()
    assert (tmp_path / "fields_final.vtk").exists()
    assert all(r.stab2_holds and r.stab3_holds for r in state.ledger)


def test_run_steady_state_preserved(tmp_path):
    # liquid everywhere, supercooling above threshold, rho(1) = 0 shape
    cfg = base_config(tmp_path, initial="liquid", shape="linear", u_D=-1000.0,
                      T_end=10e-5)
    state = run_simulation(cfg)
    assert np.all(state.phi.values == 1.0)
    assert np.abs(state.w.values - cfg.u_D).max() <= 1e-7


def test_run_strict_mode_passes_clean_runs(tmp_path):
    cfg = base_config(tmp_path)
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == 5


def test_run_theta_zero_const_shape_collapses(tmp_path):
    # the reduced model (theta = 0, constant shape) runs the same machinery
    cfg = base_config(tmp_path, shape="const", rho=1e-3)
    state = run_simulation(cfg)
    assert all(r.stab2_holds for r in state.ledger)


def test_run_smooth_scheme_logs_bound_flags(tmp_path):
    cfg = base_config(tmp_path, potential="quartic", shape="quartic-shape",
                      rho=1e-3)
    state = run_simulation(cfg)
    assert len(state.ledger) == 5
    assert all(r.phi_within_split_bound for r in state.ledger)


def test_run_adaptive_remesh(tmp_path):
    cfg = base_config(tmp_path, N_f=32, N_c=16, adaptive=True, T_end=3e-5)
    state = run_simulation(cfg)
    assert len(state.ledger) == 3
    state.mesh.check_conforming()
    n_f = build_uniform_mesh(0.5, 32, 2, "dirichlet").n_elements
    assert state.mesh.n_elements < n_f
    assert all(r.stab2_holds for r in state.ledger)


def test_run_adaptive_strict_holds_bounds_every_step(tmp_path):
    cfg = base_config(tmp_path, N_f=64, N_c=16, adaptive=True)
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == 5
    assert all(r.stab2_holds and r.stab3_holds for r in state.ledger)
    assert state.phi.values.min() >= -1.0 and state.phi.values.max() <= 1.0
    state.mesh.check_conforming()


def test_run_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = base_config(tmp_path, N_f=32, N_c=16, adaptive=True, T_end=3e-5,
                      vtk_every=1)
    names = ["report.json", "energies.csv", "fields_final.vtk"] + [
        f"fields_{n:06d}.vtk" for n in range(4)]
    run_simulation(cfg)
    first = {name: (tmp_path / name).read_bytes() for name in names}
    run_simulation(cfg)
    assert {name: (tmp_path / name).read_bytes() for name in names} == first
    doc = json.loads(first["report.json"])
    assert all("wall_time" not in row for row in doc["solver"])


def test_run_aborts_cleanly_with_partial_outputs(tmp_path, monkeypatch):
    from anisopf import solver
    from anisopf.errors import NonConvergence

    monkeypatch.setattr(solver, "_MAX_OUTER", 1)
    cfg = base_config(tmp_path, u_D=-2.0)
    with pytest.raises(NonConvergence) as err:
        run_simulation(cfg)
    assert err.value.step == 1
    assert (tmp_path / "energies.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["error"] is not None and "step 1" in doc["error"]


def test_strict_run_aborts_on_a_failed_inequality(tmp_path, monkeypatch,
                                                 capsys):
    from anisopf import stepper
    from anisopf.cli import main
    from anisopf.config import serialize_config
    from anisopf.errors import StabilityViolation

    verify = stepper.verify_stability

    def failing_at_step_2(prev, new, *args, **kw):
        row = verify(prev, new, *args, **kw)
        # the ledger holds the rows of the earlier steps
        if len(new.ledger) == 1:
            row = dataclasses.replace(row, stab2_holds=False)
        return row

    monkeypatch.setattr(stepper, "verify_stability", failing_at_step_2)
    cfg = base_config(tmp_path)
    with pytest.raises(StabilityViolation) as err:
        run_simulation(cfg, strict=True)
    assert err.value.step == 2
    csv = (tmp_path / "energies.csv").read_text().splitlines()
    assert len(csv) == 1 + 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["error"].startswith("step 2:")
    assert doc["stab2_violations"] == 1
    assert len(run_simulation(cfg).ledger) == 5
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    assert main(["verify", str(path)]) == 1
    assert "step 2: StabilityViolation" in capsys.readouterr().err
    assert main(["simulate", str(path)]) == 0


@pytest.mark.parametrize("name", ["flat:1", "tall:1"])
def test_axis_weighted_mobility_end_to_end(tmp_path, name):
    cfg = base_config(tmp_path, mobility=name, rho=0.01)
    params = cfg.physical_params()
    pot, sh, aniso, mob = cfg.model_objects()
    mesh = build_uniform_mesh(params.H, cfg.N_f, cfg.dim, params.bc_case)
    phi = initial_phase(mesh, params.R0, params.eps).values
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi,
                               np.full(mesh.n_vertices, params.u_D))
    grads = mesh.field_gradients(phi)
    e1 = np.eye(cfg.dim)[0]
    ref = []
    for p in grads:
        q = p if p.any() else e1
        ref.append(aniso.gamma(q) / mob.beta(aniso, q))
    # both branches are taken: flat seed regions and the interface
    assert not grads.any(axis=1).all() and grads.any()
    assert np.ptp(ref) > 0.0
    assert np.allclose(sys.M_mu, lumped_mass(mesh, np.array(ref)),
                       rtol=1e-14, atol=0.0)
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == 5
    assert all(r.stab2_holds and r.stab3_holds for r in state.ledger)


def test_run_failure_keeps_exception_type_and_attributes(tmp_path, monkeypatch):
    from anisopf import output

    target = str(tmp_path / "fields_000002.vtk")
    write_vtk = output.write_vtk

    def full_disk(state, path):
        if path == target:
            raise OSError(errno.ENOSPC, "No space left on device", path)
        write_vtk(state, path)

    monkeypatch.setattr(output, "write_vtk", full_disk)
    cfg = base_config(tmp_path, vtk_every=1)
    with pytest.raises(OSError) as err:
        run_simulation(cfg)
    assert type(err.value) is OSError
    assert err.value.errno == errno.ENOSPC
    assert err.value.filename == target
    assert err.value.step == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["steps_completed"] == 2
    assert doc["error"].startswith("step 2: ")


# the nonlinear coupling of the quartic shape split with tau = 1e-2
_QUARTIC_LARGE_STEP = dict(
    theta=0.0, rho=0.01, alpha=0.03, u_D=-2.0, H=2.0,
    eps=1.0 / (4.0 * math.pi), R0=0.5, bc="dirichlet", potential="obstacle",
    shape="quartic-shape", anisotropy="hex2d:0.1", initial="seed",
    T_end=2e-2, tau=1e-2, N_f=32, N_c=16, vtk_every=0)


def test_run_obstacle_quartic_shape_large_step(tmp_path):
    cfg = RunConfig(**_QUARTIC_LARGE_STEP, out_dir=str(tmp_path))
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == 2
    assert all(r.stab2_holds and r.stab3_holds for r in state.ledger)
    assert state.phi.values.min() >= -1.0 and state.phi.values.max() <= 1.0


# the physics of the shipped demo on a coarse mesh: the interface moves
# enough per step for the start to matter
_DEMO = dict(rho=0.01, alpha=0.03, u_D=-2.0, H=2.0, R0=0.5,
             eps=1.0 / (4.0 * math.pi), anisotropy="hex2d-rot:0.1",
             tau=1e-3, T_end=5e-3, N_f=32, N_c=16)


# the answer of a step does not depend on its start; the bound is the
# solver's: a frozen active-set solve reaches it up to round-off, a lagged
# fixed point within its tolerance, and Newton within its residual tolerance
@pytest.mark.parametrize("kw,step_name,bound", [
    (dict(_DEMO, theta=0.0), "active_set_step", 1e-12),
    (dict(_DEMO, theta=1.0), "active_set_step", 1e-12),
    (dict(_DEMO, adaptive=True, T_end=3e-3), "active_set_step", 1e-12),
    (dict(_DEMO, theta=0.0, shape="quartic-shape", anisotropy="hex2d:0.1"),
     "lagged_step", 1e-7),
    (dict(_DEMO, theta=1.0, potential="quartic"), "newton_smooth_step", 1e-6),
], ids=["theta0", "theta1", "adaptive", "lagged", "newton"])
def test_warm_start_changes_iterations_not_answer(tmp_path, monkeypatch, kw,
                                                  step_name, bound):
    from anisopf import solver, stepper

    step = getattr(solver, step_name)
    starts, last, outer = [], [], {"warm": 0, "cold": 0}

    def from_both_starts(sys, scfg, u0=None, w0="prev"):
        extrapolated = not isinstance(w0, (str, type(None)))
        if last and not kw.get("adaptive"):
            assert np.array_equal(u0, 2.0 * sys.phi_prev - last[0])
            if extrapolated:
                assert np.array_equal(w0, 2.0 * sys.w_prev - last[1])
        last[:] = sys.phi_prev, sys.w_prev
        U, W, rep = step(sys, scfg, u0=u0, w0=w0)
        # the start without extrapolation: the previous state
        U_c, W_c, rep_c = step(sys, scfg, w0=None if w0 is None else "prev")
        assert max(np.abs(U - U_c).max(), np.abs(W - W_c).max()) <= bound
        starts.append((u0 is not None, extrapolated))
        outer["warm"] += rep.outer_iterations
        outer["cold"] += rep_c.outer_iterations
        return U, W, rep

    monkeypatch.setattr(stepper, step_name, from_both_starts)
    cfg = base_config(tmp_path, **kw)
    state = run_simulation(cfg, strict=True)
    n = len(state.ledger)
    assert n >= 3
    # U is extrapolated from step 2 on, W once two solved temperatures exist
    first_w = 2 if cfg.theta > 0.0 else 3
    assert starts == [(k >= 2, k >= first_w) for k in range(1, n + 1)]
    assert outer["warm"] <= outer["cold"]


def test_report_counts_every_factorization(tmp_path, monkeypatch):
    from anisopf import solver

    calls = []
    factor = solver._factor

    def counted(K):
        calls.append(K.shape[0])
        return factor(K)

    monkeypatch.setattr(solver, "_factor", counted)
    for kw, method in [(dict(_DEMO, theta=0.0), "active-set"),
                       (_QUARTIC_LARGE_STEP, "lagged")]:
        calls.clear()
        out = tmp_path / method
        state = run_simulation(base_config(out, **kw))
        doc = json.loads((out / "report.json").read_text())
        assert {row["method"] for row in doc["solver"]} == {method}
        lu = [row["lu"] for row in doc["solver"]]
        assert lu == [rep.factorizations for rep in state.reports]
        assert sum(lu) == len(calls)
        # follow-up iterations are bordered onto the step's factorization
        iterations = "outer" if method == "active-set" else "inner"
        assert sum(lu) < sum(row[iterations] for row in doc["solver"])


@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("shape", ["linear", "quartic-shape"])
@pytest.mark.parametrize("potential", ["obstacle", "quartic"])
@pytest.mark.parametrize("tau", [1e-2, 1.0, 10.0])
def test_any_step_size_keeps_both_inequalities(tmp_path, monkeypatch, tau,
                                               potential, shape, theta):
    # the paper's estimates hold for every step size; strict mode raises
    # on the first violated inequality
    from anisopf import stepper

    phases = []
    verify = stepper.verify_stability

    def recorded(prev, new, *args, **kw):
        phases.append(new.phi.values)
        return verify(prev, new, *args, **kw)

    monkeypatch.setattr(stepper, "verify_stability", recorded)
    cfg = base_config(tmp_path, potential=potential, shape=shape,
                      theta=theta, tau=tau, T_end=2.0 * tau, N_f=16)
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == len(phases) == 2
    assert all(r.stab2_holds and r.stab3_holds for r in state.ledger)
    methods = {rep.method for rep in state.reports}
    if potential == "quartic":
        assert methods == {"newton"}
    else:
        assert methods == {"lagged" if shape == "quartic-shape"
                           else "active-set"}
        assert all(phi.min() >= -1.0 and phi.max() <= 1.0 for phi in phases)


def test_stability_with_carried_energy_is_unchanged(mesh):
    params, pot, sh, aniso, mob = _model()
    phi = initial_phase(mesh, params.R0, params.eps)
    w = NodalField(np.full(mesh.n_vertices, params.u_D), mesh)
    rng = np.random.default_rng(5)
    phi_n = np.clip(phi.values + 0.05 * rng.normal(size=mesh.n_vertices),
                    -1.0, 1.0)
    prev = SimulationState(0.0, mesh, phi, w)
    new = SimulationState(params.tau, mesh, NodalField(phi_n, mesh), w)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi.values,
                               w.values)
    plain = verify_stability(prev, new, params, pot, sh, aniso, sys)
    assert plain.t == new.t and plain.phi_within_split_bound
    carried = discrete_energy(mesh, phi.values, w.values, params, pot, sh,
                              aniso)
    assert verify_stability(prev, new, params, pot, sh, aniso, sys,
                            prev_energy=carried) == plain
    assert (plain.E_h, plain.F_h) == discrete_energy(
        mesh, phi_n, w.values, params, pot, sh, aniso)


def test_stability_work_term_weighs_new_phase_implicitly(mesh):
    # with the quartic shape the supercooling work weighs dphi with
    # rho-(old) + rho+(new); it is what separates the two slacks
    params, pot, _, aniso, mob = _model()
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    phi = initial_phase(mesh, params.R0, params.eps)
    w = NodalField(np.full(mesh.n_vertices, params.u_D), mesh)
    rng = np.random.default_rng(6)
    phi_n = np.clip(phi.values + 0.05 * rng.normal(size=mesh.n_vertices),
                    -1.0, 1.0)
    prev = SimulationState(0.0, mesh, phi, w)
    new = SimulationState(params.tau, mesh, NodalField(phi_n, mesh), w)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi.values,
                               w.values)
    row = verify_stability(prev, new, params, pot, sh, aniso, sys)
    E_o, F_o = discrete_energy(mesh, phi.values, w.values, params, pot, sh,
                               aniso)
    work = row.stab2_slack - row.stab3_slack - (row.E_h - row.F_h) + (E_o - F_o)
    dphi = phi_n - phi.values
    weight = sh.rho_minus(phi.values) + sh.rho_plus(phi_n)
    want = -params.u_D * params.lam * float(
        np.sum(lumped_mass(mesh) * weight * dphi))
    assert abs(want) > 1e-6
    assert work == pytest.approx(want, abs=1e-12)


def _count_energy_calls(monkeypatch):
    from anisopf import stepper

    calls = []
    energy = stepper.discrete_energy

    def counted(mesh, phi, *args):
        calls.append(mesh)
        return energy(mesh, phi, *args)

    monkeypatch.setattr(stepper, "discrete_energy", counted)
    return calls


def test_run_evaluates_energy_once_per_step(tmp_path, monkeypatch):
    calls = _count_energy_calls(monkeypatch)
    state = run_simulation(base_config(tmp_path))
    assert len(state.ledger) == 5
    assert len(calls) == 5 + 1


def test_run_adaptive_recomputes_energy_after_remesh(tmp_path, monkeypatch):
    calls = _count_energy_calls(monkeypatch)
    cfg = base_config(tmp_path, N_f=64, N_c=16, adaptive=True)
    state = run_simulation(cfg, strict=True)
    assert len(state.ledger) == 5
    # every step runs on a fresh mesh: old and new state are both evaluated
    # on it, and the pair carried from the previous mesh is never used
    assert len(calls) == 2 * 5
    assert all(calls[2 * k] is calls[2 * k + 1] for k in range(5))
    assert len({id(m) for m in calls}) == 5
