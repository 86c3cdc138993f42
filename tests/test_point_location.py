"""Field transfer against a per-point reference interpolant.

A transfer map locates nothing: a new vertex that coincides with a source
vertex reads its value, any other takes the mean of its bisection parents'
values, and the transferred fields must equal the reference interpolant
(``meshcheck.reference_interpolate``, which walks the bisection forest one
point at a time) to rounding.  Sources outside the bisection hierarchy of
the N_c mesh are rejected.
"""

import itertools
import math

import numpy as np
import pytest

from anisopf.errors import InvalidN
from anisopf.mesh import (
    NodalField,
    SimplicialMesh,
    adapt_to_interface,
    build_uniform_mesh,
    transfer_field,
)

from meshcheck import reference_interpolate


def circular_phase(mesh, R0, eps):
    r = np.linalg.norm(mesh.vertices, axis=1)
    vals = np.sin((r - R0) / eps)
    vals[r <= R0 - eps * np.pi / 2] = -1.0
    vals[r >= R0 + eps * np.pi / 2] = 1.0
    return NodalField(np.clip(vals, -1.0, 1.0), mesh)


def coincident_source_vertex(source, points):
    """Source vertex within 1e-12 H of each point (there is at most one),
    or -1, by comparing every point with every source vertex."""
    out = np.full(len(points), -1)
    for start in range(0, len(points), 256):
        x = points[start:start + 256]
        near = (np.abs(x[:, None, :] - source.vertices[None]).max(axis=2)
                <= 1e-12 * source.H)
        assert (near.sum(axis=1) <= 1).all()
        hit = near.any(axis=1)
        out[start:start + 256][hit] = near[hit].argmax(axis=1)
    return out


def assert_transfer_matches_reference(source, tmap, rng, tol=2.3e-16):
    """Coincident source vertices where they exist, and transferred random
    fields equal to the reference interpolant to ``tol`` max|f|; returns
    the target vertices that are not source vertices."""
    points = tmap.target.vertices
    same = coincident_source_vertex(source, points)
    assert np.array_equal(tmap.src, same)
    fields = rng.uniform(-1.0, 1.0, (source.n_vertices, 3))
    want = reference_interpolate(source, fields, points)
    for f, ref in zip(fields.T, want.T):
        got = transfer_field(NodalField(f, source), tmap).values
        assert np.abs(got - ref).max() <= tol * np.abs(f).max()
    return same < 0


@pytest.fixture(scope="module")
def adapted_2d():
    """Twice-adapted 2d mesh, N_c = 8 to N_f = 64 (forest 6 levels deep)."""
    eps = 1.0 / (16 * np.pi)
    m = build_uniform_mesh(0.5, 64, 2, "dirichlet")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 64, 8)
    m2, _ = adapt_to_interface(m1, circular_phase(m1, 0.27, eps), 64, 8)
    return m1, m2


def test_forest_is_several_levels_deep(adapted_2d):
    m1, m2 = adapted_2d
    for m in (m1, m2):
        assert m._gen[m._child < 0].max() >= 4


def test_transfer_map_matches_reference_2d(adapted_2d):
    m1, m2 = adapted_2d
    eps = 1.0 / (16 * np.pi)
    _, tmap = adapt_to_interface(m2, circular_phase(m2, 0.3, eps), 64, 8)
    miss = assert_transfer_matches_reference(m2, tmap, np.random.default_rng(6))
    assert 0 < miss.sum() < (~miss).sum()


def test_locate_and_transfer_match_reference_3d():
    rng = np.random.default_rng(4)
    eps = 1.0 / (8 * np.pi)
    m = build_uniform_mesh(0.5, 8, 3, "neumann")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 8, 4)
    gens = m1._gen[m1._child < 0]
    assert gens.min() < gens.max() == 3
    _, tmap = adapt_to_interface(m1, circular_phase(m1, 0.3, eps), 8, 4)
    miss = assert_transfer_matches_reference(m1, tmap, rng)
    assert 0 < miss.sum() < (~miss).sum()


def readapted_3d():
    """3d source two levels deep, re-adapted around a shifted interface."""
    eps = 1.0 / (8 * np.pi)
    m = build_uniform_mesh(0.5, 16, 3, "neumann")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 16, 4)
    assert m1._gen[m1._child < 0].max() == 6
    return m1, circular_phase(m1, 0.32, eps), 16, 4


def coarse_to_finer_fine():
    """N_f = 64 adaptive source, re-adapted at N_f = 128."""
    eps = 1.0 / (16 * np.pi)
    m = build_uniform_mesh(0.5, 64, 2, "dirichlet")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 64, 8)
    return m1, circular_phase(m1, 0.23, eps), 128, 8


def one_refined_element():
    """Uniform N_c mesh with one element bisected and its closure."""
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    m.refine([5], gen_cap=4)
    return m, circular_phase(m, 0.2, 1.0 / (8 * np.pi)), 32, 8


@pytest.mark.parametrize("case", [readapted_3d, coarse_to_finer_fine,
                                  one_refined_element])
def test_transfer_is_exact_without_location(case):
    source, phi, N_f, N_c = case()
    new, tmap = adapt_to_interface(source, phi, N_f, N_c)
    miss = assert_transfer_matches_reference(source, tmap,
                                             np.random.default_rng(8))
    # some midpoints have a parent that is not a source vertex either
    assert miss[new._parent[miss]].any()


@pytest.mark.parametrize("dim,H,N_f,N_c", [(2, 0.1, 32, 4), (2, 0.3, 64, 8),
                                         (3, 0.3, 16, 4)])
def test_transfer_is_exact_for_any_box_size(dim, H, N_f, N_c):
    # unless H is a power of two, the uniform N_f mesh (linspace) and the
    # new mesh (repeated midpoints) round a lattice node apart: every new
    # vertex must still read its source vertex, not its parents' mean
    rng = np.random.default_rng(9)
    m = build_uniform_mesh(H, N_f, dim, "neumann")
    eps = 2.0 * H / (N_f / 4 * np.pi)
    m1, tmap = adapt_to_interface(m, circular_phase(m, 0.4 * H, eps), N_f, N_c)
    assert (tmap.src >= 0).all()
    assert not np.array_equal(m.vertices[tmap.src], m1.vertices)
    f = rng.uniform(-1.0, 1.0, m.n_vertices)
    assert np.array_equal(transfer_field(NodalField(f, m), tmap).values,
                          f[tmap.src])
    # the reference's barycentrics of elements 2H/N_f wide at coordinates
    # up to H round at a few N_f ulps
    tol = 1e-15 * N_f
    assert_transfer_matches_reference(m, tmap, rng, tol)
    _, tmap = adapt_to_interface(m1, circular_phase(m1, 0.54 * H, eps), N_f, N_c)
    assert assert_transfer_matches_reference(m1, tmap, rng, tol).any()


def refined_past_fine():
    """Uniform N_c = 8 mesh bisected everywhere down to spacing 2H/32."""
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    for _ in range(4):
        m.refine(np.flatnonzero(m._child < 0), gen_cap=8)
    return m


@pytest.mark.parametrize("source,N_f,N_c", [
    (lambda: build_uniform_mesh(0.5, 48, 2, "dirichlet"), 64, 8),
    (lambda: build_uniform_mesh(0.5, 32, 2, "dirichlet"), 64, 16),
    (lambda: build_uniform_mesh(0.5, 8, 3, "dirichlet"), 16, 4),
    (lambda: build_uniform_mesh(0.5, 128, 2, "dirichlet"), 64, 8),
    (refined_past_fine, 16, 8),
], ids=["2d-N48", "2d-N32", "3d-N8", "2d-N128", "2d-refined-past-N_f"])
def test_adapt_rejects_sources_off_the_bisection_hierarchy(source, N_f, N_c,
                                                           monkeypatch):
    # only N_c and its bisections, or the uniform N_f mesh, share the
    # parents of the new mesh's vertices, and a source finer than N_f has
    # two vertices on one fine lattice node
    m = source()
    phi = circular_phase(m, 0.2, 1.0 / (16 * np.pi))
    monkeypatch.setattr(SimplicialMesh, "refine",
                        lambda *args: pytest.fail("refined before rejecting"))
    with pytest.raises(InvalidN):
        adapt_to_interface(m, phi, N_f, N_c)


@pytest.mark.parametrize("dim,N", [(2, 6), (3, 4)])
def test_uniform_mesh_numbering(dim, N):
    H = 0.75
    m = build_uniform_mesh(H, N, dim, "dirichlet")
    axis = np.linspace(-H, H, N + 1)

    def vid(idx):
        out = 0
        for i in idx:
            out = out * (N + 1) + i
        return out

    coords = [np.array([axis[i] for i in idx])
              for idx in itertools.product(range(N + 1), repeat=dim)]
    elems = []
    for lin, cell in enumerate(itertools.product(range(N), repeat=dim)):
        for p, perm in enumerate(itertools.permutations(range(dim))):
            corner = list(cell)
            verts = [vid(corner)]
            for k in perm:
                corner[k] += 1
                verts.append(vid(corner))
            eid = len(elems)
            assert eid == lin * math.factorial(dim) + p
            elems.append(verts)
    assert np.array_equal(m._coords, coords)
    assert np.array_equal(m._verts, elems)
