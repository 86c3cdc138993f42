"""Command line entry points.

Subcommands:

* ``simulate <config>``: run a simulation, writing VTK/CSV/JSON artifacts.
* ``check-anisotropy <preset>``: randomized verification of the structural
  inequalities of a density preset; nonzero exit on any violation.
* ``check-threshold <config>``: boundary-layer experiment starting from
  the pure liquid state; reports whether the state stays put or detaches.
* ``verify <config>``: like simulate, but failed per-step stability
  inequalities abort with a nonzero exit code.
"""

import argparse
import sys
from dataclasses import replace

from .anisotropy import anisotropy_from_name, verify_anisotropy_inequalities
from .config import load_config
from .errors import AnisoPFError, ParseError, ValidationError
from .potentials import boundary_layer_check
from .stepper import run_simulation

__all__ = ["main"]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="anisopf",
        description="Anisotropic phase-field solidification simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("config")
    sim.add_argument("--out", default=None, help="output directory override")

    chk = sub.add_parser("check-anisotropy",
                         help="randomized inequality verification")
    chk.add_argument("preset")
    chk.add_argument("--samples", type=int, default=100_000)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--dim", type=int, default=2, choices=(2, 3))

    thr = sub.add_parser("check-threshold",
                         help="boundary-layer experiment from the liquid state")
    thr.add_argument("config")
    thr.add_argument("--out", default=None)

    ver = sub.add_parser("verify",
                         help="simulate with fatal stability assertions")
    ver.add_argument("config")
    ver.add_argument("--out", default=None)
    return p


def _load(path):
    try:
        return load_config(path)
    except FileNotFoundError:
        print(f"anisopf: config file not found: {path}", file=sys.stderr)
        raise SystemExit(2) from None
    except (ParseError, ValidationError) as exc:
        print(f"anisopf: bad config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_simulate(args, strict=False):
    cfg = _load(args.config)
    state = run_simulation(cfg, out_dir=args.out, strict=strict)
    rows = state.ledger
    bad2 = sum(1 for r in rows if not r.stab2_holds)
    bad3 = sum(1 for r in rows if not r.stab3_holds)
    print(f"completed {len(rows)} steps to t = {state.t:.6g}; "
          f"stability violations: stab2={bad2} stab3={bad3}")
    return 0


def _cmd_check_anisotropy(args):
    aniso = anisotropy_from_name(args.preset, dim=args.dim)
    report = verify_anisotropy_inequalities(aniso, args.samples, seed=args.seed)
    print(report)
    if report.total_violations:
        print(f"FAIL: {report.total_violations} violations")
        return 1
    print("OK: 0 violations")
    return 0


def _cmd_check_threshold(args):
    cfg = _load(args.config)
    cfg = replace(cfg, initial="liquid")
    params = cfg.physical_params()
    pot, sh, _aniso, _mob = cfg.model_objects()
    layer = boundary_layer_check(pot, sh, params.eps, params.alpha,
                                 params.a, params.u_D)
    print(f"critical_uD = {layer.critical_uD:.6g} "
          f"(configured u_D = {params.u_D:g})")
    state = run_simulation(cfg, out_dir=args.out)
    phi = state.phi.values
    drift = abs(phi - 1.0).max()
    if drift <= 1e-7:
        print("stable")
    elif phi.min() < 1.0 - 1e-3:
        print("layer-forms")
    else:
        print(f"undecided (drift {drift:.3e})")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "check-anisotropy":
            return _cmd_check_anisotropy(args)
        if args.command == "check-threshold":
            return _cmd_check_threshold(args)
        if args.command == "verify":
            return _cmd_simulate(args, strict=True)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    except ValueError as exc:
        print(f"anisopf: {exc}", file=sys.stderr)
        return 2
    except (AnisoPFError, OSError) as exc:
        # an error raised inside the time loop carries its step
        where = f"step {exc.step}: " if hasattr(exc, "step") else ""
        print(f"anisopf: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
