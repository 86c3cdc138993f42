"""Mesh audits used only by the tests: face matching, element diameters,
and a per-point reference for point location and the P1 interpolant.

The reference walks the bisection forest one point at a time with one
``np.linalg.solve`` per element visited, starting from the Kuhn simplex of
the point's cell in the uniform mesh; at each split the child whose
smallest barycentric coordinate is larger wins, ties going to the first.
"""

import itertools

import numpy as np


def check_conforming(mesh):
    """Face-matching audit; raises AssertionError on a hanging face."""
    elements = mesh.elements
    faces = np.sort(np.stack([np.delete(elements, k, axis=1)
                              for k in range(mesh.dim + 1)]), axis=2)
    faces, counts = np.unique(faces.reshape(-1, mesh.dim), axis=0,
                              return_counts=True)
    if (counts > 2).any():
        k = np.argmax(counts > 2)
        raise AssertionError(
            f"face {faces[k].tolist()} shared by {counts[k]} elements")
    lone = faces[counts == 1]
    tol = 1e-12 * max(1.0, mesh.H)
    on_plane = np.zeros(len(lone), dtype=bool)
    for side in (-mesh.H, mesh.H):
        on_plane |= (np.abs(mesh.vertices[lone] - side) <= tol).all(axis=1).any(axis=1)
    if not on_plane.all():
        face = lone[np.argmin(on_plane)].tolist()
        raise AssertionError(f"interior face {face} has one owner")
    return True


def diameters(mesh):
    """Longest edge of every active element."""
    P = mesh.vertices[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, 1)
    return np.linalg.norm(P[:, i] - P[:, j], axis=2).max(axis=1)


def reference_barycentric(mesh, eid, x):
    P = mesh._coords[mesh._verts[eid]]
    A = np.vstack([np.ones(mesh.dim + 1), P.T])
    return np.linalg.solve(A, np.concatenate([[1.0], x]))


def reference_locate(mesh, points):
    """Containing element (internal id) and barycentric weights per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h = 2.0 * mesh.H / mesh.N0
    rel = (points + mesh.H) / h
    cells = np.clip(np.floor(rel).astype(np.int64), 0, mesh.N0 - 1)
    order = np.argsort(-(rel - cells), axis=1, kind="stable")
    perms = list(itertools.permutations(range(mesh.dim)))
    perm_index = {p: i for i, p in enumerate(perms)}
    eids = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), mesh.dim + 1))
    for i, x in enumerate(points):
        lin = 0
        for k in range(mesh.dim):
            lin = lin * mesh.N0 + int(cells[i, k])
        eid = lin * len(perms) + perm_index[tuple(order[i])]
        lam = reference_barycentric(mesh, eid, x)
        while mesh._child[eid] >= 0:
            best, best_lam, best_min = None, None, -np.inf
            for ch in (mesh._child[eid], mesh._child[eid] + 1):
                lam_c = reference_barycentric(mesh, ch, x)
                if lam_c.min() > best_min:
                    best, best_lam, best_min = ch, lam_c, lam_c.min()
            eid, lam = best, best_lam
        eids[i] = eid
        bary[i] = lam
    return eids, bary


def reference_interpolate(mesh, values, points):
    """Per point, the interpolant of ``values`` (clipped barycentrics),
    one column per field."""
    eids, bary = reference_locate(mesh, points)
    out = np.empty((len(eids),) + values.shape[1:])
    for i, (eid, lam) in enumerate(zip(eids, bary)):
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        out[i] = lam @ values[mesh._verts[eid]]
    return out
