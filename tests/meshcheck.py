"""Mesh audits used only by the tests: face matching, element diameters,
and a per-point reference for point location and the P1 interpolant.

The reference locates a point in the element whose smallest barycentric
coordinate, by ``np.linalg.solve``, is largest, ties going to the first
row; it searches the elements of the point's cell of the uniform N0 mesh
and of the neighbouring cells.
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
    """Longest edge of every element."""
    P = mesh.vertices[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, 1)
    return np.linalg.norm(P[:, i] - P[:, j], axis=2).max(axis=1)


def reference_locate(mesh, points):
    """Containing element (row of ``mesh.elements``) and barycentric
    weights per point.

    The candidates are the elements whose centroid lies in the point's
    uniform-N0 cell or a neighbouring one and whose bounding box holds the
    point; every element that contains it is one.  The candidate whose
    smallest barycentric coordinate is largest wins, ties going to the
    first row.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = mesh.dim
    P = mesh.vertices[mesh.elements]                  # (ne, d+1, d)
    A = np.concatenate([np.ones((len(P), 1, d + 1)), np.swapaxes(P, 1, 2)],
                       axis=1)
    tol = 1e-9 * mesh.H
    lo, hi = P.min(axis=1) - tol, P.max(axis=1) + tol

    def cell(x):
        rel = (x + mesh.H) * (mesh.N0 / (2.0 * mesh.H))
        return np.clip(np.floor(rel).astype(np.int64), 0, mesh.N0 - 1)

    stride = mesh.N0 ** np.arange(d)
    home = cell(P.mean(axis=1)) @ stride
    by_cell = np.argsort(home, kind="stable")
    start = np.searchsorted(home[by_cell], np.arange(mesh.N0 ** d + 1))
    around = np.array(list(itertools.product((-1, 0, 1), repeat=d)))
    at = cell(points)
    key = at @ stride
    eids = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), d + 1))
    for c in np.unique(key):
        idx = np.flatnonzero(key == c)
        nb = at[idx[0]] + around
        nb = nb[((nb >= 0) & (nb < mesh.N0)).all(axis=1)] @ stride
        cand = np.sort(np.concatenate([by_cell[start[k]:start[k + 1]] for k in nb]))
        x = points[idx]
        inside = ((lo[cand] <= x[:, None]) & (x[:, None] <= hi[cand])).all(axis=2)
        pt, k = np.nonzero(inside)
        if not np.array_equal(np.unique(pt), np.arange(len(idx))):
            raise AssertionError("a point lies outside the mesh")
        rhs = np.concatenate([np.ones((len(pt), 1)), x[pt]], axis=1)
        lam = np.linalg.solve(A[cand[k]], rhs[:, :, None])[:, :, 0]
        # per point the largest smallest coordinate, then the first row
        order = np.lexsort((k, -lam.min(axis=1), pt))
        first = order[np.searchsorted(pt[order], np.arange(len(idx)))]
        eids[idx] = cand[k[first]]
        bary[idx] = lam[first]
    return eids, bary


def reference_interpolate(mesh, values, points):
    """Per point, the interpolant of ``values`` (clipped barycentrics),
    one column per field."""
    eids, bary = reference_locate(mesh, points)
    out = np.empty((len(eids),) + values.shape[1:])
    for i, (eid, lam) in enumerate(zip(eids, bary)):
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        out[i] = lam @ values[mesh.elements[eid]]
    return out
