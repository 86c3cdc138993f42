"""anisopf benchmark: end-to-end and per-layer timings on fixed workloads.

    python3 perfbench/run.py --workload demo-2d --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics:

* ``run_s``: median time of one ``run_simulation`` call at nominal host
  speed, repeated for ``--seconds`` seconds (quartiles, sample count and
  the raw wall-time median are printed);
* ``setup_s``: median time at nominal host speed of the same config run
  for zero steps with output off (mesh, initial data, initial adapt,
  writer set-up);
* ``peak_rss_mb``: peak resident memory of a fresh process that runs the
  workload once; that run also checks the obstacle bound at every step.

A call's time at nominal host speed is its wall time divided by the
host's slowdown, which the reference kernel in ``calib.py`` measures just
before and just after the call.  The host's single-thread speed moves
between levels about 1.5x apart for seconds to minutes; raw wall-time
medians of two windows differ by up to a third, scaled ones by a few
percent.

With ``--trace 1`` untraced and traced runs alternate for ``--seconds``
seconds; the traced ones wrap the layer functions (see ``spans.py``) and
give the per-layer metrics as medians over traced runs, plus
``trace_overhead_s``, the traced minus the untraced median run time.

Every run is checked: step count, both stability inequalities at every
step, the obstacle bound, the final energies against the reference for
the default seed, and bit-identical final energies across the runs of one
invocation.  Failed steps over attempted steps is the fail rate, reported
in the ``attempted``/``failed`` fields of the last output line, a JSON
object.  Spans and run metadata are written to ``.perfbench_out/``.
"""

import os

# pinned before numpy is imported, here and in the child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 3
# share of the timed-run time spent on interleaved set-up runs
SETUP_SHARE = 0.1
CHILD_TIMEOUT_S = 120
# largest share of a traced run spent outside every layer span
UNATTRIBUTED_MAX = 0.1


class Tally:
    """Attempted and failed steps, gate messages and the repeat check."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.errors = []
        self.final = None

    def add(self, label, failed, errors, final):
        self.attempted += self.workload.steps
        if final is not None:
            if self.final is None:
                self.final = final
            elif final != self.final:
                errors = errors + [f"final energies {final} differ from "
                                   f"the first run's {self.final}"]
                failed = self.workload.steps
        self.failed += failed
        self.errors += [f"{label}: {e}" for e in errors]

    def add_run(self, label, state, exc, out_dir):
        failed, errors = wl.count_failed_steps(self.workload, self.seed, state,
                                               out_dir, exc=exc)
        final = None
        if state is not None and state.ledger:
            final = [state.ledger[-1].E_h, state.ledger[-1].F_h]
        self.add(label, failed, errors, final)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out, exc = fn(*args, **kwargs), None
    except Exception as e:  # a raising run is recorded, not fatal
        out, exc = None, e
    return time.perf_counter() - t0, out, exc


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure_end_to_end(stepper, config, workload, seed, out, seconds, tally):
    """The fresh-process run, one warm-up run, then timed runs until
    ``seconds`` have passed since the start.

    The reference kernel (``calib.py``) runs between all timed calls, so
    each one is bracketed by two kernel times; its wall time divided by
    their mean speed factor is its time at nominal host speed.  After each
    timed run comes a block of set-up runs, bracketed the same way, so
    that both medians sample the same stretch of machine load."""
    t0 = time.perf_counter()
    cfg_path = os.path.join(out, "run.cfg")
    once_dir = os.path.join(out, "once")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "once.py"), workload.name,
         str(seed), cfg_path, once_dir],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: single-run process failed:\n{proc.stderr}")
    once = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.add("fresh-process run", once["failed"], once["errors"], once["final"])

    cfg = config.load_config(cfg_path)
    setup_cfg = config.load_config(wl.write_config(workload, seed, out, setup=True))
    run_dir = os.path.join(out, "run")
    setup_dir = os.path.join(out, "setup")
    # caches fill and lazy imports finish before anything is timed
    _, state, exc = timed(stepper.run_simulation, cfg, out_dir=run_dir)
    tally.add_run("warm-up run", state, exc, run_dir)
    calib.kernel()
    kernels = [calib.kernel()]
    wall, times, setup = [], [], []
    while len(times) < MIN_SAMPLES or time.perf_counter() - t0 < seconds:
        dt, state, exc = timed(stepper.run_simulation, cfg, out_dir=run_dir)
        kernels.append(calib.kernel())
        wall.append(dt)
        times.append(dt / calib.speed_factor(kernels[-2], kernels[-1]))
        tally.add_run(f"run {len(times)}", state, exc, run_dir)
        if exc is not None:
            break
        block = []
        while True:
            dt, _, exc = timed(stepper.run_simulation, setup_cfg,
                               out_dir=setup_dir)
            if exc is not None:
                tally.errors.append(f"setup raised {exc!r}")
                break
            block.append(dt)
            if sum(block) >= SETUP_SHARE * wall[-1]:
                break
        kernels.append(calib.kernel())
        factor = calib.speed_factor(kernels[-2], kernels[-1])
        setup += [dt / factor for dt in block]
    q1, med, q3 = quartiles(times)
    w1, wmed, w3 = quartiles(wall)
    info = {"run_s_q1": q1, "run_s_q3": q3, "run_s_samples": len(times),
            "run_wall_s": wmed, "run_wall_s_q1": w1, "run_wall_s_q3": w3,
            "setup_s_samples": len(setup),
            "kernel_s": statistics.median(kernels),
            "kernel_nominal_s": calib.NOMINAL_S}
    samples = {"run_s": times, "run_wall_s": wall, "setup_s": setup,
               "kernel_s": kernels}
    return {"run_s": med, "setup_s": statistics.median(setup or [0.0]),
            "peak_rss_mb": once["peak_rss_mb"]}, info, samples


def measure_layers(package, stepper, config, workload, seed, out, seconds,
                   tally):
    cfg = config.load_config(os.path.join(out, "run.cfg"))
    run_dir = os.path.join(out, "run")
    plain, traced, per_run, recorded = [], [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        dt, state, exc = timed(stepper.run_simulation, cfg, out_dir=run_dir)
        plain.append(dt)
        tally.add_run(f"untraced run {len(plain)}", state, exc, run_dir)
        tracer = sp.Tracer()
        tracer.install(package)
        try:
            dt, state, exc = timed(tracer.root, stepper.run_simulation, cfg,
                                   out_dir=run_dir)
        finally:
            tracer.uninstall()
        traced.append(dt)
        label = f"traced run {len(traced)}"
        tally.add_run(label, state, exc, run_dir)
        tally.errors += [f"{label}: {e}" for e in sp.check_spans(tracer.spans)]
        per_run.append(sp.layer_metrics(tracer.spans))
        recorded.append({"run": len(traced), "spans": tracer.spans})
        if exc is not None:
            break
    with open(os.path.join(out, "spans.json"), "w") as f:
        json.dump({"missing_targets": tracer.missing, "runs": recorded}, f)

    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace_overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    tally.errors += layer_sanity(workload, metrics, per_run)
    info = {"missing_targets": tracer.missing, "traced_runs": len(traced),
            "untraced_runs": len(plain)}
    samples = {"run_s": plain, "run_traced_s": traced}
    return metrics, info, samples


def layer_sanity(workload, metrics, per_run):
    """Checks on the per-layer split that hold for any correct trace."""
    errors = []
    for m in per_run:
        layers = sum(m[f"{layer}.self_s"] for layer in sp.LAYERS)
        total = m["run.traced_s"]
        if abs(layers + m["run.self_s"] - total) > 1e-9 * total:
            errors.append(f"self times sum to {layers + m['run.self_s']}, "
                          f"traced run took {total}")
        if m["run.self_s"] > UNATTRIBUTED_MAX * total:
            errors.append(f"layers account for only {layers / total:.1%} "
                          f"of the traced run")
    if not workload.adaptive and metrics["mesh.remesh_s"] != 0:
        errors.append("mesh.remesh_s is not 0 on a non-adaptive workload")
    if not workload.obstacle and metrics["solver.pgs_s"] != 0:
        errors.append("solver.pgs_s is not 0 on the smooth-well workload")
    return errors


def metadata():
    import numpy
    import scipy

    src = os.path.join(wl.ROOT, "src", "anisopf")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_lines": lines,
    }


def git_commit():
    """HEAD of the checkout, read without git; None outside a repository."""
    git = os.path.join(wl.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args):
    """Run every workload in its own process; a failing one is recorded."""
    summary = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            summary[name] = {"correct": False, "error": proc.stderr.strip()[-500:]}
        else:
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r.get("correct") for r in summary.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    package = wl.import_program()
    if args.workload == "all":
        return run_all(args)
    config, stepper = package.config, package.stepper
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # the metrics this mode reports, name -> unit
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    workload = wl.WORKLOADS[args.workload]
    out = os.path.join(wl.OUT_ROOT, workload.name)
    wl.write_config(workload, args.seed, out)
    meta = metadata()
    tally = Tally(workload, args.seed)
    if args.trace:
        metrics, info, samples = measure_layers(
            package, stepper, config, workload, args.seed, out, args.seconds,
            tally)
    else:
        metrics, info, samples = measure_end_to_end(
            stepper, config, workload, args.seed, out, args.seconds, tally)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "metadata": meta, "info": info, "errors": tally.errors,
              "metrics": metrics, "samples": samples}
    with open(os.path.join(out, f"result_trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, val in {**meta, **info}.items():
        print(f"  {key:30s} {val}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:<14.6g} {unit}")
    print(f"  {'fail_rate':30s} {tally.failed}/{tally.attempted} steps")
    for e in tally.errors:
        print(f"  FAIL {e}")
    print(json.dumps({
        "correct": not tally.errors and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
