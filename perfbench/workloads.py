"""Benchmark workloads: generated configs, the program import and the
correctness gate.

Every workload is a config text that the program parses itself; the
benchmark only fills in the seed-dependent initial radius ``R0`` and the
end time.  Step counts are cut from the originating runs (the shipped demo
runs 100 steps, the adaptive run 10, criterion 10 five, the Stefan run 50)
so that one run takes about two seconds and several fit into one
measurement window; problem sizes are the originals.
"""

import json
import math
import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# relative perturbation of R0 for a non-default seed; small enough that the
# interface length, and with it the solver work, stays nearly the same
R0_SPREAD = 0.005
DEFAULT_SEED = 0
# final energies agree to this relative tolerance with the reference; the
# step solvers stop at 1e-8 in the max norm of the iterates
ENERGY_RTOL = 1e-6

_DEMO_PHYSICS = """\
[physics]
theta = {theta}
rho = 0.01
alpha = 0.03
u_D = -2
H = 2
R0 = {R0!r}
eps_inv = 12.566370614359172
T_end = {T_end!r}
tau = 1e-3

[model]
potential = {potential}
shape = linear
anisotropy = hex2d-rot:0.1
mobility = gamma

[solver]
method = auto
"""

_DEMO_MESH = """
[mesh]
N_f = {N_f}
N_c = 16
adaptive = {adaptive}

[output]
vtk_every = {vtk_every}
"""

_LAGGED_3D = """\
[physics]
theta = 0
rho = 0.01
alpha = 0.03
u_D = -2
H = 0.5
R0 = {R0!r}
eps = 0.15915494309189535
T_end = {T_end!r}
tau = 1e-3

[model]
potential = obstacle
shape = linear
anisotropy = cube3d:0.3:9

[solver]
method = auto

[mesh]
N_f = 8
N_c = 8
dim = 3

[output]
vtk_every = {vtk_every}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    fields: dict
    R0: float
    eps: float
    steps: int
    vtk_every: int
    obstacle: bool
    # final (E_h, F_h) of the default seed, recorded from the seed code
    reference: tuple

    @property
    def adaptive(self):
        return self.fields.get("adaptive") == "true"

    def config_text(self, seed, setup=False):
        """Config for ``seed``; ``setup`` gives the zero-step run, output off."""
        R0 = seed_radius(self.R0, self.eps, seed)
        tau = 1e-3
        T_end = 0.5 * tau if setup else self.steps * tau
        vtk_every = 0 if setup else self.vtk_every
        return self.template.format(R0=R0, T_end=T_end, vtk_every=vtk_every,
                                    **self.fields)


def seed_radius(R0, eps, seed):
    """Initial radius for ``seed``: R0 itself for the default seed, else
    R0 scaled by a factor in [1 - R0_SPREAD, 1 + R0_SPREAD]."""
    if seed == DEFAULT_SEED:
        return R0
    r = R0 * (1.0 + R0_SPREAD * random.Random(seed).uniform(-1.0, 1.0))
    if r <= eps * math.pi / 2.0:
        raise ValueError(f"seed {seed}: R0 = {r} leaves no room for the interface")
    return r


_EPS_DEMO = 1.0 / 12.566370614359172

WORKLOADS = {
    w.name: w for w in [
        Workload(
            "demo-2d", _DEMO_PHYSICS + _DEMO_MESH,
            dict(theta=0, potential="obstacle", N_f=64, adaptive="false"),
            R0=0.5, eps=_EPS_DEMO, steps=8, vtk_every=20, obstacle=True,
            reference=(0.19504107638654403, 30.651673894626086)),
        Workload(
            "adaptive-2d", _DEMO_PHYSICS + _DEMO_MESH,
            dict(theta=0, potential="obstacle", N_f=128, adaptive="true"),
            R0=0.5, eps=_EPS_DEMO, steps=2, vtk_every=0, obstacle=True,
            reference=(0.19499912828407714, 30.75773224489474)),
        Workload(
            "lagged-3d", _LAGGED_3D, {},
            R0=0.3, eps=1.0 / (2.0 * math.pi), steps=2, vtk_every=0,
            obstacle=True,
            reference=(0.0377448445759865, 1.8024787301772571)),
        Workload(
            "stefan-quartic-2d", _DEMO_PHYSICS + _DEMO_MESH,
            dict(theta=1, potential="quartic", N_f=64, adaptive="false"),
            R0=0.5, eps=_EPS_DEMO, steps=12, vtk_every=0, obstacle=False,
            reference=(4.928499987355984, 35.4675733637265)),
    ]
}


def import_program():
    """Import the checkout's ``anisopf`` from ``src``; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import anisopf
        from anisopf import config, stepper  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import anisopf from {src}: {exc}")
    pkg = os.path.dirname(os.path.abspath(anisopf.__file__))
    if os.path.dirname(pkg) != src:
        sys.exit(f"perfbench: anisopf resolved to {pkg}, not under {src}")
    return anisopf


def write_config(workload, seed, out_dir, setup=False):
    """Write the generated config into ``out_dir`` and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "setup.cfg" if setup else "run.cfg")
    with open(path, "w") as f:
        f.write(workload.config_text(seed, setup=setup))
    return path


def step_failures(workload, ledger, phi_ranges=None):
    """Indices of accepted steps that fail a per-step check.

    A step fails when either stability inequality is violated or, for the
    obstacle well, when its phase leaves [-1, 1]; ``phi_ranges`` holds the
    (min, max) phase of every step when it was observed.
    """
    bad = set()
    for i, row in enumerate(ledger):
        if not (row.stab2_holds and row.stab3_holds):
            bad.add(i)
    if workload.obstacle and phi_ranges is not None:
        for i, (lo, hi) in enumerate(phi_ranges):
            if lo < -1.0 or hi > 1.0:
                bad.add(i)
    return bad


def run_gate(workload, seed, state):
    """Whole-run checks; returns a list of failure messages."""
    errors = []
    rows = state.ledger
    if len(rows) != workload.steps:
        errors.append(f"{len(rows)} steps, expected {workload.steps}")
    phi = state.phi.values
    if workload.obstacle and (phi.min() < -1.0 or phi.max() > 1.0):
        errors.append(f"final phi in [{phi.min()!r}, {phi.max()!r}]")
    if seed == DEFAULT_SEED and rows:
        for label, got, ref in (("E_h", rows[-1].E_h, workload.reference[0]),
                                ("F_h", rows[-1].F_h, workload.reference[1])):
            if not abs(got - ref) <= ENERGY_RTOL * abs(ref):
                errors.append(f"final {label} = {got!r}, reference {ref!r}")
    return errors


def count_failed_steps(workload, seed, state, out_dir, exc=None,
                       phi_ranges=None):
    """Failed steps of one run and its gate messages.

    A run that raised fails every step it did not complete, read from the
    report the program writes before re-raising; a run whose gate fails
    fails every step.
    """
    if exc is not None:
        try:
            with open(os.path.join(out_dir, "report.json")) as f:
                doc = json.load(f)
            done = doc["steps_completed"]
            violated = max(doc["stab2_violations"], doc["stab3_violations"])
        except (OSError, ValueError, KeyError):
            done = violated = 0
        return workload.steps - done + violated, [f"raised {exc!r}"]
    errors = run_gate(workload, seed, state)
    if errors:
        return workload.steps, errors
    return len(step_failures(workload, state.ledger, phi_ranges)), []
