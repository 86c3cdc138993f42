"""Span recorder that wraps the program's layer functions from outside.

``Tracer.install`` replaces module attributes of ``anisopf`` with timing
wrappers and ``uninstall`` puts the originals back, so the package source
is never edited.  Spans (id, parent, name, start, end) are kept in memory;
a span's self time is its duration minus the durations of its children,
which never overlap because the program is single-threaded.  A target the
program no longer has is skipped and listed in ``missing``; its metrics
then read zero.
"""

import functools
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("mesh", "assembly", "solver", "stepper", "output")
STEP_SOLVERS = ("solver.active_set_step", "solver.lagged_step",
                "solver.newton_smooth_step")

# (module, attribute, span name); a function imported into several modules
# is wrapped wherever the program looks it up
TARGETS = [
    ("stepper", "build_uniform_mesh", "mesh.build_uniform_mesh"),
    ("mesh", "build_uniform_mesh", "mesh.build_uniform_mesh"),
    ("stepper", "adapt_to_interface", "mesh.adapt_to_interface"),
    ("stepper", "transfer_field", "mesh.transfer_field"),
    ("mesh.SimplicialMesh", "locate", "mesh.locate"),
    ("mesh.SimplicialMesh", "interpolate", "mesh.interpolate"),
    ("stepper", "assemble_step_system", "assembly.assemble_step_system"),
    ("assembly", "anisotropic_stiffness", "assembly.anisotropic_stiffness"),
    ("stepper", "active_set_step", "solver.active_set_step"),
    ("stepper", "lagged_step", "solver.lagged_step"),
    ("stepper", "newton_smooth_step", "solver.newton_smooth_step"),
    ("solver", "pgs_vi_solve", "solver.pgs_vi_solve"),
    ("solver.spla", "splu", "solver.splu"),
    ("stepper", "verify_stability", "stepper.verify_stability"),
    ("stepper", "discrete_energy", "stepper.discrete_energy"),
    ("output", "write_vtk", "output.write_vtk"),
    ("output", "write_energy_csv", "output.write_energy_csv"),
    ("output", "write_report_json", "output.write_report_json"),
]


class _ModuleShim:
    """Stands in for a module attribute such as ``solver.spla`` so that one
    of its functions can be wrapped without touching the real module."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, name, start, end, extra]
        self._stack = []
        self._saved = []
        self.missing = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [len(spans), stack[-1] if stack else None, name,
                   time.perf_counter(), None, {}]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5]["raised"] = type(exc).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            _annotate(name, rec[5], args, out)
            return out

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span ``run``."""
        return self._wrap("run", fn)(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def install(self, package):
        wrapped = {}
        for owner_path, attr, name in TARGETS:
            owner = _resolve(package, owner_path)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if owner_path == "solver.spla":
                parent = _resolve(package, "solver")
                self._saved.append((parent, "spla", owner))
                owner = _ModuleShim(owner)
                parent.spla = owner
            orig = getattr(owner, attr)
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self._wrap(name, orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _annotate(name, extra, args, out):
    """Counts taken at the boundary from arguments and results."""
    if name == "mesh.locate":
        extra["points"] = len(args[1])
    elif name == "assembly.assemble_step_system":
        extra["vertices"] = args[0].n_vertices
    elif name == "solver.splu":
        extra["dim"] = args[0].shape[0]
    elif name == "solver.pgs_vi_solve":
        extra["sweeps"] = out[1]
    elif name in STEP_SOLVERS:
        rep = out[2]
        n = len(out[0])
        extra["outer"] = rep.outer_iterations
        extra["inner"] = rep.inner_iterations
        extra["free"] = (n - rep.active_plus - rep.active_minus) / n
    elif name.startswith("output.") and isinstance(args[-1], str):
        extra["bytes"] = os.path.getsize(args[-1])


# -- analysis ------------------------------------------------------------

def self_times(spans):
    child = defaultdict(float)
    for sid, parent, name, start, end, extra in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, start, end, _ in spans]


def check_spans(spans, tol=1e-9):
    """Trace sanity: one root, parents recorded earlier and enclosing their
    children, non-negative self times.  Returns failure messages."""
    errors = []
    roots = [s for s in spans if s[1] is None]
    if len(roots) != 1 or roots[0][2] != "run":
        errors.append(f"{len(roots)} root spans, expected the one run span")
    for sid, parent, name, start, end, _ in spans:
        if end is None or end < start:
            errors.append(f"span {sid} {name} has no valid end")
        elif parent is not None:
            p = spans[parent]
            if not (parent < sid and p[3] <= start and end <= p[4]):
                errors.append(f"span {sid} {name} not nested in {parent}")
    for s, st in zip(spans, self_times(spans)):
        if st < -tol:
            errors.append(f"span {s[0]} {s[2]} has self time {st}")
    return errors


def layer_metrics(spans):
    """Per-layer metrics of one traced run (one root span)."""
    total = Counter()
    calls = Counter()
    sums = Counter()
    layer_self = Counter()
    free, vertices, factor_dims = [], [], []
    system_self = audit = 0.0
    for s, st in zip(spans, self_times(spans)):
        sid, parent, name, start, end, extra = s
        dur = end - start
        layer_self[name.split(".")[0]] += st
        total[name] += dur
        calls[name] += 1
        for key in ("points", "sweeps", "outer", "inner", "bytes"):
            sums[key] += extra.get(key, 0)
        if "free" in extra:
            free.append(extra["free"])
        if "vertices" in extra:
            vertices.append(extra["vertices"])
        if "dim" in extra:
            factor_dims.append(extra["dim"])
        if name == "assembly.assemble_step_system":
            system_self += st
        if name.startswith("stepper.") and (
                parent is None or not spans[parent][2].startswith("stepper.")):
            audit += dur
    fallbacks = sum(1 for s in spans if s[2] == "solver.active_set_step"
                    and s[5].get("raised") == "NonConvergence")
    m = {
        "mesh.remesh_s": (total["mesh.adapt_to_interface"]
                          + total["mesh.transfer_field"]),
        "mesh.locate_s": total["mesh.locate"],
        "mesh.locate_points": sums["points"],
        "mesh.interpolate_calls": calls["mesh.interpolate"],
        "mesh.vertices": _mean(vertices),
        "assembly.system_s": system_self,
        "assembly.aniso_stiffness_s": total["assembly.anisotropic_stiffness"],
        "assembly.aniso_stiffness_calls":
            calls["assembly.anisotropic_stiffness"],
        "solver.step_s": sum(total[n] for n in STEP_SOLVERS),
        "solver.pgs_s": total["solver.pgs_vi_solve"],
        "solver.pgs_sweeps": sums["sweeps"],
        "solver.factor_s": total["solver.splu"],
        "solver.factor_calls": calls["solver.splu"],
        "solver.factor_dim_mean": _mean(factor_dims),
        "solver.outer_iters": sums["outer"],
        "solver.inner_iters": sums["inner"],
        "solver.fallbacks": fallbacks,
        "solver.free_fraction": _mean(free),
        "stepper.audit_s": audit,
        "stepper.energy_calls": calls["stepper.discrete_energy"],
        "output.write_s": sum(v for k, v in total.items()
                              if k.startswith("output.")),
        "output.bytes": sums["bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["run.self_s"] = layer_self["run"]
    m["run.traced_s"] = total["run"]
    return m


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0
