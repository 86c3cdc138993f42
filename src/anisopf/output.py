"""Deterministic file writers: legacy VTK, energy CSV, JSON run report.

All floating point values are printed with 17 significant digits, which
round-trips IEEE doubles exactly, and files use LF line endings, so a
given state always produces byte-identical output.
"""

import json
import os

import numpy as np

__all__ = ["write_vtk", "write_energy_csv", "write_report_json", "OutputWriter"]

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA


def _fmt(x):
    return f"{float(x):.17g}"


def _lines(fmt, rows):
    """``fmt`` filled with each row of a 2d array in turn, joined."""
    return "".join(map(fmt.format, *np.asarray(rows).T.tolist()))


def _vtk_mesh_block(mesh):
    """Header, POINTS, CELLS and CELL_TYPES text of a mesh, kept in its
    cache (which a refinement drops), since every snapshot repeats it."""
    c = mesh._finalize(geometry=False)
    if "vtk_mesh" not in c:
        elems = c["elements"]
        nv, d = c["vertices"].shape
        ne = len(elems)
        points = np.zeros((nv, 3))
        points[:, :d] = c["vertices"]
        c["vtk_mesh"] = "".join([
            "# vtk DataFile Version 3.0\nanisotropic phase field state\n"
            f"ASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {nv} double\n",
            _lines("{:.17g} {:.17g} {:.17g}\n", points),
            f"CELLS {ne} {ne * (d + 2)}\n",
            _lines(f"{d + 1}" + " {}" * (d + 1) + "\n", elems),
            f"CELL_TYPES {ne}\n" + f"{_CELL_TYPE[d]}\n" * ne
            + f"POINT_DATA {nv}\n",
        ])
    return c["vtk_mesh"]


def write_vtk(state, path):
    """Write phi and w as point data on the mesh, legacy ASCII format."""
    parts = [_vtk_mesh_block(state.mesh)]
    for name, vals in (("phi", state.phi.values), ("w", state.w.values)):
        parts += [f"SCALARS {name} double\nLOOKUP_TABLE default\n",
                  _lines("{:.17g}\n", np.asarray(vals, dtype=float)[:, None])]
    with open(path, "w", newline="\n") as f:
        f.write("".join(parts))


_CSV_HEADER = ("t,E_h,F_h,diffusive_dissipation,kinetic_dissipation,"
               "stab2_slack,stab3_slack")


def write_energy_csv(ledger, path):
    """One row per accepted step; header only for an empty ledger."""
    with open(path, "w", newline="\n") as f:
        f.write(_CSV_HEADER + "\n")
        for row in ledger:
            f.write(",".join(_fmt(v) for v in (
                row.t, row.E_h, row.F_h, row.diffusive, row.kinetic,
                row.stab2_slack, row.stab3_slack)) + "\n")


def write_report_json(cfg, state, path, error=None):
    """Machine-readable run summary: config echo and per-step diagnostics."""
    rows = state.ledger
    reports = state.reports
    doc = {
        "config": cfg.to_dict(),
        "steps_completed": len(rows),
        "final_time": state.t,
        "error": error,
        "stab2_violations": sum(1 for r in rows if not r.stab2_holds),
        "stab3_violations": sum(1 for r in rows if not r.stab3_holds),
        "phi_bound_violations": sum(
            1 for r in rows if not r.phi_within_split_bound),
        "solver": [
            {
                "method": r.method,
                "outer": r.outer_iterations,
                "inner": r.inner_iterations,
                "lu": r.factorizations,
                "active_plus": r.active_plus,
                "active_minus": r.active_minus,
            }
            for r in reports
        ],
        "phi_min": float(np.min(state.phi.values)),
        "phi_max": float(np.max(state.phi.values)),
    }
    with open(path, "w", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


class OutputWriter:
    """Owns the output directory of one run."""

    def __init__(self, cfg, out_dir=None):
        self.cfg = cfg
        self.dir = out_dir or cfg.out_dir
        self.vtk_every = cfg.vtk_every
        os.makedirs(self.dir, exist_ok=True)

    def vtk_snapshot(self, state, step):
        if self.vtk_every > 0 and step % self.vtk_every == 0:
            write_vtk(state, os.path.join(self.dir, f"fields_{step:06d}.vtk"))

    def finalize(self, state, error=None):
        write_energy_csv(state.ledger, os.path.join(self.dir, "energies.csv"))
        write_report_json(self.cfg, state, os.path.join(self.dir, "report.json"),
                          error=error)
        if self.vtk_every > 0:
            write_vtk(state, os.path.join(self.dir, "fields_final.vtk"))
