"""Run one workload once in a fresh process and report its peak memory.

    python3 perfbench/once.py <workload> <seed> <config> <out_dir>

Prints one JSON line: peak resident set size in MiB, failed steps, gate
messages and the final energies.  The phase range of every step is
observed through ``verify_stability``, which receives each new state, so
the obstacle bound is checked per step here rather than only at the end.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    name, seed, cfg_path, out_dir = sys.argv[1:5]
    workload, seed = wl.WORKLOADS[name], int(seed)
    package = wl.import_program()
    stepper = package.stepper
    cfg = package.config.load_config(cfg_path)

    phi_ranges = []
    verify = stepper.verify_stability

    def observed(prev, new, *args, **kwargs):
        phi = new.phi.values
        phi_ranges.append((float(phi.min()), float(phi.max())))
        return verify(prev, new, *args, **kwargs)

    stepper.verify_stability = observed
    state = exc = None
    try:
        state = stepper.run_simulation(cfg, out_dir=out_dir)
    except Exception as e:  # recorded as failed steps, not fatal
        exc = e
    finally:
        stepper.verify_stability = verify
    failed, errors = wl.count_failed_steps(workload, seed, state, out_dir,
                                           exc=exc, phi_ranges=phi_ranges)
    final = [state.ledger[-1].E_h, state.ledger[-1].F_h] if (
        state is not None and state.ledger) else None
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed,
        "errors": errors,
        "final": final,
    }))


if __name__ == "__main__":
    main()
