"""Interface measurements on nodal phase fields."""

import numpy as np

__all__ = ["zero_level_radii", "count_radial_maxima"]


def zero_level_radii(mesh, phi, n_angles=720, r_max=None):
    """Polar radius of the zero level set along rays from the origin.

    The zero level of a P1 field on a 2d mesh is a polygon: one segment
    per element whose vertices change sign (``phi < 0`` against
    ``phi >= 0``), joining the linear crossings on its two sign-changing
    edges.  Each ray is intersected with every segment; the result per
    angle is the largest hit radius in ``(0, r_max]`` (default 0.95 H),
    or NaN where the ray meets no segment.
    """
    if mesh.dim != 2:
        raise ValueError(f"zero_level_radii needs a 2d mesh, got dim={mesh.dim}")
    phi = np.asarray(phi, dtype=float)
    if r_max is None:
        r_max = 0.95 * mesh.H
    angles = np.arange(n_angles) * 2.0 * np.pi / n_angles
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    # every cut element has exactly two cut edges, listed in a row
    elems = mesh.elements
    a, b = elems, np.roll(elems, -1, axis=1)
    row, k = np.nonzero((phi[a] < 0.0) != (phi[b] < 0.0))
    a, b = a[row, k], b[row, k]
    x = mesh.vertices
    t = phi[a] / (phi[a] - phi[b])
    ends = x[a] + t[:, None] * (x[b] - x[a])
    p, e = ends[0::2], ends[1::2] - ends[0::2]
    # r dir - s e = p, solved by cross products for every ray and segment
    cross_de = np.outer(dirs[:, 0], e[:, 1]) - np.outer(dirs[:, 1], e[:, 0])
    cross_pd = np.outer(dirs[:, 1], p[:, 0]) - np.outer(dirs[:, 0], p[:, 1])
    cross_pe = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cross_pe / cross_de
        s = cross_pd / cross_de
    # a ray through a segment end may round just past both segments there
    hit = (s >= -1e-12) & (s <= 1.0 + 1e-12) & (r > 0.0) & (r <= r_max)
    r = np.where(hit, r, 0.0).max(axis=1, initial=0.0)
    r[r == 0.0] = np.nan
    return angles, r


def count_radial_maxima(r, window=15):
    """Count cyclic local maxima of a sampled radius function.

    The zero level of a P1 field is a polygon, so its raw radius function
    carries mesh-scale wiggles; a short circular moving average (default
    +-7 samples) removes them before the sign changes of the discrete
    derivative are counted.
    """
    r = np.asarray(r, dtype=float)
    n = len(r)
    if window > 1:
        half = window // 2
        padded = np.concatenate([r[-half:], r, r[:half]])
        r = np.convolve(padded, np.ones(window) / window, mode="valid")[:n]
    dr = np.diff(np.concatenate([r, r[:1]]))
    sign = np.sign(dr)
    nz = sign[sign != 0.0]
    if len(nz) == 0:
        return 0
    return int(sum(1 for i in range(len(nz))
                   if nz[i] > 0.0 and nz[(i + 1) % len(nz)] < 0.0))
