"""The package under the benchmark's outside tracer (``perfbench/spans.py``).

The tracer replaces module attributes of ``anisopf`` with timing wrappers,
so the package must keep looking its layer functions up where the tracer
patches them, and the step reports must agree with what the wrappers count.
Only counts are checked here, never times.
"""

import importlib.util
import math
import pathlib

import pytest

import anisopf
from anisopf import stepper
from anisopf.config import RunConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# targets this package does not have: the PGS solver is gone, the time
# loop reaches the obstacle step under the name ``lagged_step``, and the
# package no longer locates points (the remesh moves fields through the
# bisection parents, and the zero level is measured from its segments)
EXPECTED_MISSING = {"solver.pgs_vi_solve", "stepper.active_set_step",
                    "mesh.SimplicialMesh.locate",
                    "mesh.SimplicialMesh.interpolate"}

# three steps each; the obstacle run borders its LUs and factors twice in
# its last step
_DEMO = dict(rho=0.01, alpha=0.03, u_D=-2.0, H=0.5, R0=0.25,
             eps=1.0 / (4.0 * math.pi), anisotropy="hex2d-rot:0.1",
             tau=1e-2, T_end=3e-2, N_f=8, N_c=8, vtk_every=0)
_LAGGED = dict(rho=0.01, alpha=0.03, u_D=-2.0, H=0.5, R0=0.3,
               eps=1.0 / (2.0 * math.pi), anisotropy="cube3d:0.3:9", dim=3,
               tau=1e-3, T_end=2e-3, N_f=8, N_c=8, vtk_every=0)


def _patched_attributes():
    """(owner, attribute) -> current object for every target present."""
    out = {}
    for owner_path, attr, _ in spans.TARGETS:
        owner = spans._resolve(anisopf, owner_path)
        if owner is not None and hasattr(owner, attr):
            out[owner_path, attr] = getattr(owner, attr)
    out["solver", "spla"] = anisopf.solver.spla
    return out


@pytest.mark.parametrize("kw,span_name,method", [
    (_DEMO, "solver.lagged_step", "active-set"),
    (dict(_DEMO, vtk_every=1), "solver.lagged_step", "active-set"),
    (_LAGGED, "solver.lagged_step", "lagged"),
    (dict(_DEMO, theta=1.0, potential="quartic"), "solver.newton_smooth_step",
     "newton"),
], ids=["frozen-obstacle", "frozen-obstacle-vtk", "lagged", "quartic"])
def test_traced_run_counts_match_the_step_reports(tmp_path, kw, span_name,
                                                  method):
    cfg = RunConfig(**kw, out_dir=str(tmp_path))
    before = _patched_attributes()
    tracer = spans.Tracer()
    tracer.install(anisopf)
    try:
        state = tracer.root(stepper.run_simulation, cfg)
    finally:
        tracer.uninstall()
    after = _patched_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    reports = state.reports
    steps = len(reports)
    assert steps >= 2 and {rep.method for rep in reports} == {method}
    assert spans.check_spans(tracer.spans) == []
    solver_spans = [s[2] for s in tracer.spans if s[2] in spans.STEP_SOLVERS]
    assert solver_spans == [span_name] * steps
    m = spans.layer_metrics(tracer.spans)
    assert m["solver.factor_calls"] == sum(r.factorizations for r in reports)
    assert m["solver.outer_iters"] == sum(r.outer_iterations for r in reports)
    assert m["solver.inner_iters"] == sum(r.inner_iterations for r in reports)
    assert m["stepper.energy_calls"] == steps + 1
    # the output spans count every file the run wrote, and their sizes
    # (read from the path, the writers' last argument)
    vtk = list(tmp_path.glob("fields_*.vtk"))
    assert len(vtk) == (steps + 2 if cfg.vtk_every else 0)
    names = [s[2] for s in tracer.spans]
    assert names.count("output.write_vtk") == len(vtk)
    assert m["output.bytes"] == sum(p.stat().st_size
                                    for p in tmp_path.iterdir())
    assert set(tracer.missing) <= EXPECTED_MISSING
