"""The zero level of a P1 phase, measured along rays from its segments.

``zero_level_radii`` intersects every ray with the zero-level segment of
each element whose vertex values change sign.  On fields whose zero level
is a known polygon the radii are checked in closed form; on phase states
they are checked against the rule the segments replaced, a bisection of
the P1 interpolant along each ray (``meshcheck.reference_interpolate``),
which finds the crossing of a ray that meets the level once.
"""

import math

import numpy as np
import pytest

from anisopf.config import RunConfig
from anisopf.measure import zero_level_radii
from anisopf.mesh import adapt_to_interface, build_uniform_mesh
from anisopf.stepper import initial_phase, run_simulation

from meshcheck import reference_interpolate


def bisected_radii(mesh, phi, n_angles, r_max):
    """Bisection of the interpolant on (1e-6, r_max) along each ray."""
    angles = np.arange(n_angles) * 2.0 * np.pi / n_angles
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    lo = np.full(n_angles, 1e-6)
    hi = np.full(n_angles, r_max)
    assert (reference_interpolate(mesh, phi, lo[:, None] * dirs) < 0.0).all()
    assert (reference_interpolate(mesh, phi, hi[:, None] * dirs) > 0.0).all()
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = reference_interpolate(mesh, phi, mid[:, None] * dirs) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def ray_distances(n, c, r_max):
    """Distance along each of 720 rays to the line ``n . x = c``, or NaN
    where the ray meets it beyond ``r_max`` or not at all."""
    angles = np.arange(720) * 2.0 * np.pi / 720
    nd = n[0] * np.cos(angles) + n[1] * np.sin(angles)
    with np.errstate(divide="ignore"):
        r = c / nd
    return np.where((nd > 0.0) & (r <= r_max), r, np.nan)


@pytest.mark.parametrize("n,c", [
    ((math.cos(0.3), math.sin(0.3)), 0.2),
    ((1.0, 0.0), 0.125),      # along a grid line: phi is 0 at its vertices
], ids=["oblique", "grid-line"])
def test_linear_field_gives_the_distance_to_its_zero_line(n, c):
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    phi = m.vertices @ np.array(n) - c
    _, r = zero_level_radii(m, phi)
    want = ray_distances(n, c, 0.95 * m.H)
    assert np.array_equal(np.isnan(r), np.isnan(want))
    assert 0 < np.isnan(r).sum() < 720
    assert np.nanmax(np.abs(r - want)) <= 1e-14


def test_a_ray_crossing_twice_reads_the_outer_crossing():
    # solid for x < 0.125 and for x > 0.375; the kink at x = 0.25 is a
    # grid line, so the P1 field is exact
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    phi = 0.125 - np.abs(m.vertices[:, 0] - 0.25)
    _, r = zero_level_radii(m, phi)
    r_max = 0.95 * m.H
    inner = ray_distances((1.0, 0.0), 0.125, r_max)
    outer = ray_distances((1.0, 0.0), 0.375, r_max)
    want = np.where(np.isnan(outer), inner, outer)
    assert (~np.isnan(outer)).sum() > 0
    assert np.array_equal(np.isnan(r), np.isnan(want))
    assert np.nanmax(np.abs(r - want)) <= 1e-14


def test_a_ray_through_a_zero_vertex_hits_the_level_there():
    # the crossings at a vertex where phi is 0 round apart on the edges
    # that end there, and the ray at 135 degrees passes between them
    m = build_uniform_mesh(0.5, 10, 2, "dirichlet")
    x = m.vertices
    j = np.argmin(np.abs(x - [-0.3, 0.3]).sum(axis=1))
    n = np.array([-1.0, 1.0])
    phi = x @ n - x[j] @ n
    _, r = zero_level_radii(m, phi, 8)
    assert abs(r[3] - np.linalg.norm(x[j])) <= 1e-15


@pytest.mark.parametrize("value", [1.0, -1.0], ids=["liquid", "solid"])
def test_a_field_without_sign_change_has_no_radius(value):
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    _, r = zero_level_radii(m, np.full(m.n_vertices, value), 90)
    assert r.shape == (90,) and np.isnan(r).all()


def test_adapted_mesh_matches_bisection():
    eps = 1.0 / (16 * np.pi)
    m = build_uniform_mesh(0.5, 64, 2, "dirichlet")
    m1, _ = adapt_to_interface(m, initial_phase(m, 0.2, eps), 64, 8)
    x = m1.vertices
    phi = np.hypot(x[:, 0] - 0.01, x[:, 1] + 0.02) - 0.2
    _, r = zero_level_radii(m1, phi, 48)
    ref = bisected_radii(m1, phi, 48, 0.95 * m1.H)
    assert np.abs(r - ref).max() <= 1e-12 * m1.H


def test_uniform_hex2d_state_matches_bisection(tmp_path):
    cfg = RunConfig(theta=0.0, rho=0.01, alpha=0.03, u_D=-2.0, H=2.0,
                    eps=1.0 / (4.0 * math.pi), R0=0.5,
                    anisotropy="hex2d-rot:0.1", initial="seed", T_end=3e-3,
                    tau=1e-3, N_f=32, N_c=32, vtk_every=0,
                    out_dir=str(tmp_path))
    state = run_simulation(cfg)
    phi = state.phi.values
    _, r = zero_level_radii(state.mesh, phi, 120)
    ref = bisected_radii(state.mesh, phi, 120, 0.95 * state.mesh.H)
    assert np.abs(r - ref).max() <= 1e-12 * state.mesh.H


def test_3d_mesh_is_rejected():
    m = build_uniform_mesh(0.5, 2, 3, "dirichlet")
    with pytest.raises(ValueError, match="2d"):
        zero_level_radii(m, np.zeros(m.n_vertices))
