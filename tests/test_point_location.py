"""Batched point location against a per-point reference implementation.

The reference walks the bisection forest one point at a time with one
``np.linalg.solve`` per element visited; the batched code must reproduce
its element ids, barycentric coordinates and interpolated values bit for
bit.  A transfer map locates nothing: a new vertex that coincides with a
source vertex reads its value, any other takes the mean of its bisection
parents' values, and the transferred fields must equal the reference
interpolant to rounding.  Sources outside the bisection hierarchy of the
N_c mesh are rejected.
"""

import itertools

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


def reference_barycentric(mesh, eid, x):
    P = mesh._coords[mesh._verts[eid]]
    A = np.vstack([np.ones(mesh.dim + 1), P.T])
    return np.linalg.solve(A, np.concatenate([[1.0], x]))


def reference_locate(mesh, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h = 2.0 * mesh.H / mesh.N0
    rel = (points + mesh.H) / h
    cells = np.clip(np.floor(rel).astype(np.int64), 0, mesh.N0 - 1)
    order = np.argsort(-(rel - cells), axis=1, kind="stable")
    perm_index = {p: i for i, p in enumerate(mesh._perms)}
    eids = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), mesh.dim + 1))
    for i, x in enumerate(points):
        lin = 0
        for k in range(mesh.dim):
            lin = lin * mesh.N0 + int(cells[i, k])
        eid = lin * len(mesh._perms) + perm_index[tuple(order[i])]
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
    """Per point, the interpolant of ``values``, one column per field."""
    eids, bary = reference_locate(mesh, points)
    out = np.empty((len(eids),) + values.shape[1:])
    for i, (eid, lam) in enumerate(zip(eids, bary)):
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        out[i] = lam @ values[mesh._verts[eid]]
    return out


def circular_phase(mesh, R0, eps):
    r = np.linalg.norm(mesh.vertices, axis=1)
    vals = np.sin((r - R0) / eps)
    vals[r <= R0 - eps * np.pi / 2] = -1.0
    vals[r >= R0 + eps * np.pi / 2] = 1.0
    return NodalField(np.clip(vals, -1.0, 1.0), mesh)


def probe_points(mesh, rng, n_random):
    """Vertices, random points, edge and face midpoints, boundary, corners."""
    H, d = mesh.H, mesh.dim
    verts = mesh.vertices
    elems = mesh.elements[rng.choice(mesh.n_elements, n_random)]
    sub = [verts[elems[:, list(s)]].mean(axis=1)
           for r in range(2, d + 1)
           for s in itertools.combinations(range(d + 1), r)]
    boundary = rng.uniform(-H, H, (n_random, d))
    axis = rng.integers(0, d, n_random)
    boundary[np.arange(n_random), axis] = rng.choice([-H, H], n_random)
    corners = np.array(list(itertools.product([-H, H], repeat=d)))
    return np.concatenate([verts, rng.uniform(-H, H, (n_random, d)), *sub,
                           boundary, corners])


def assert_matches_reference(mesh, points, values):
    eids, bary = mesh.locate(points)
    ref_eids, ref_bary = reference_locate(mesh, points)
    assert np.array_equal(eids, ref_eids)
    assert np.array_equal(bary, ref_bary)
    assert np.array_equal(mesh.interpolate(values, points),
                          reference_interpolate(mesh, values, points))


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


def count_located(monkeypatch):
    """List that receives the point count of every later ``locate`` call."""
    located = []
    locate = SimplicialMesh.locate

    def counted(self, points):
        located.append(len(points))
        return locate(self, points)

    monkeypatch.setattr(SimplicialMesh, "locate", counted)
    return located


def adapt_unlocated(monkeypatch, mesh, phi, N_f, N_c):
    """``adapt_to_interface``, asserting that it locates no point."""
    with monkeypatch.context() as mp:
        located = count_located(mp)
        out = adapt_to_interface(mesh, phi, N_f, N_c)
    assert located == []
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


def test_locate_matches_reference_2d(adapted_2d):
    rng = np.random.default_rng(3)
    for m in adapted_2d:
        values = rng.uniform(-1.0, 1.0, m.n_vertices)
        assert_matches_reference(m, probe_points(m, rng, 400), values)


def test_transfer_map_matches_reference_2d(adapted_2d, monkeypatch):
    m1, m2 = adapted_2d
    eps = 1.0 / (16 * np.pi)
    _, tmap = adapt_unlocated(monkeypatch, m2, circular_phase(m2, 0.3, eps), 64, 8)
    miss = assert_transfer_matches_reference(m2, tmap, np.random.default_rng(6))
    assert 0 < miss.sum() < (~miss).sum()


def test_locate_and_transfer_match_reference_3d(monkeypatch):
    rng = np.random.default_rng(4)
    eps = 1.0 / (8 * np.pi)
    m = build_uniform_mesh(0.5, 8, 3, "neumann")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 8, 4)
    gens = m1._gen[m1._child < 0]
    assert gens.min() < gens.max() == 3
    values = rng.uniform(-1.0, 1.0, m1.n_vertices)
    assert_matches_reference(m1, probe_points(m1, rng, 200), values)
    _, tmap = adapt_unlocated(monkeypatch, m1, circular_phase(m1, 0.3, eps), 8, 4)
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
def test_transfer_is_exact_without_location(case, monkeypatch):
    source, phi, N_f, N_c = case()
    new, tmap = adapt_unlocated(monkeypatch, source, phi, N_f, N_c)
    miss = assert_transfer_matches_reference(source, tmap,
                                             np.random.default_rng(8))
    # some midpoints have a parent that is not a source vertex either
    assert miss[new._parent[miss]].any()


@pytest.mark.parametrize("dim,H,N_f,N_c", [(2, 0.1, 32, 4), (2, 0.3, 64, 8),
                                         (3, 0.3, 16, 4)])
def test_transfer_is_exact_for_any_box_size(dim, H, N_f, N_c, monkeypatch):
    # unless H is a power of two, the uniform N_f mesh (linspace) and the
    # new mesh (repeated midpoints) round a lattice node apart: every new
    # vertex must still read its source vertex, not its parents' mean
    rng = np.random.default_rng(9)
    m = build_uniform_mesh(H, N_f, dim, "neumann")
    eps = 2.0 * H / (N_f / 4 * np.pi)
    m1, tmap = adapt_unlocated(monkeypatch, m, circular_phase(m, 0.4 * H, eps),
                               N_f, N_c)
    assert (tmap.src >= 0).all()
    assert not np.array_equal(m.vertices[tmap.src], m1.vertices)
    f = rng.uniform(-1.0, 1.0, m.n_vertices)
    assert np.array_equal(transfer_field(NodalField(f, m), tmap).values,
                          f[tmap.src])
    # the reference's barycentrics of elements 2H/N_f wide at coordinates
    # up to H round at a few N_f ulps
    tol = 1e-15 * N_f
    assert_transfer_matches_reference(m, tmap, rng, tol)
    _, tmap = adapt_unlocated(monkeypatch, m1,
                              circular_phase(m1, 0.54 * H, eps), N_f, N_c)
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
            assert eid == lin * len(m._perms) + p
            elems.append(verts)
    assert np.array_equal(m._coords, coords)
    assert np.array_equal(m._verts, elems)
    # locate's first guess is this numbering; on an unrefined mesh it is
    # the containing simplex
    rng = np.random.default_rng(5)
    pts = rng.uniform(-H, H, (200, dim))
    eids, bary = m.locate(pts)
    assert np.array_equal(eids, reference_locate(m, pts)[0])
    assert bary.min() >= -1e-12
