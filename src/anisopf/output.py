"""Deterministic file writers: legacy VTK, energy CSV, JSON run report.

VTK snapshots are legacy binary VTK: ASCII keyword lines, each followed by
its array as big-endian float64 or int32, as the format requires, so the
arrays round-trip bit for bit.  The CSV and JSON files print floating
point values with 17 significant digits, which round-trips IEEE doubles
exactly, and use LF line endings, so a given state always produces
byte-identical output.
"""

import json
import os

import numpy as np

__all__ = ["write_vtk", "write_energy_csv", "write_report_json", "OutputWriter"]

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA


def _fmt(x):
    return f"{float(x):.17g}"


def _block(head, values, dtype):
    """An ASCII keyword line, then ``values`` in big-endian binary."""
    return head.encode() + np.asarray(values).astype(dtype).tobytes() + b"\n"


def write_vtk(state, path):
    """Write phi and w as point data on the mesh, legacy binary VTK."""
    verts, elems = state.mesh.vertices, state.mesh.elements
    nv, d = verts.shape
    ne = len(elems)
    points = np.zeros((nv, 3))
    points[:, :d] = verts
    cells = np.column_stack([np.full(ne, d + 1), elems])
    parts = [
        b"# vtk DataFile Version 3.0\nanisotropic phase field state\n"
        b"BINARY\nDATASET UNSTRUCTURED_GRID\n",
        _block(f"POINTS {nv} double\n", points, ">f8"),
        _block(f"CELLS {ne} {ne * (d + 2)}\n", cells, ">i4"),
        _block(f"CELL_TYPES {ne}\n", np.full(ne, _CELL_TYPE[d]), ">i4"),
        f"POINT_DATA {nv}\n".encode(),
    ]
    for name, vals in (("phi", state.phi.values), ("w", state.w.values)):
        parts.append(_block(f"SCALARS {name} double\nLOOKUP_TABLE default\n",
                            vals, ">f8"))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


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
                "krylov": r.krylov_iterations,
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

    def report(self, state, error=None):
        path = os.path.join(self.dir, "report.json")
        write_report_json(self.cfg, state, path, error=error)

    def finalize(self, state, error=None):
        write_energy_csv(state.ledger, os.path.join(self.dir, "energies.csv"))
        self.report(state, error)
        if self.vtk_every > 0:
            write_vtk(state, os.path.join(self.dir, "fields_final.vtk"))
