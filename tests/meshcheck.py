"""Mesh audits used only by the tests: face matching and element diameters."""

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
