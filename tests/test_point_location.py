"""Batched point location against a per-point reference implementation.

The reference walks the bisection forest one point at a time with one
``np.linalg.solve`` per element visited; the batched code must reproduce
its element ids, barycentric coordinates and interpolated values bit for
bit.  A transfer map reads the new vertices that coincide with source
vertices as one-hot rows and locates the rest: its located rows and its
transferred values must match the reference bit for bit.
"""

import itertools

import numpy as np
import pytest

from anisopf.mesh import (
    NodalField,
    SimplicialMesh,
    _weighted,
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
    eids, bary = reference_locate(mesh, points)
    out = np.empty(len(eids))
    for i, (eid, lam) in enumerate(zip(eids, bary)):
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        out[i] = float(lam @ values[mesh._verts[eid]])
    return out


def reference_transfer(mesh, points):
    eids, bary = reference_locate(mesh, points)
    vert_ids = mesh._verts[eids]
    weights = np.clip(bary, 0.0, None)
    return vert_ids, weights / weights.sum(axis=1, keepdims=True)


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
    """Source vertex with exactly the coordinates of each point, or -1."""
    index = {tuple(x): i for i, x in enumerate(source.vertices.tolist())}
    return np.array([index.get(tuple(x), -1) for x in points.tolist()])


def count_located(monkeypatch):
    """List that receives the point count of every later ``locate`` call."""
    located = []
    locate = SimplicialMesh.locate

    def counted(self, points):
        located.append(len(points))
        return locate(self, points)

    monkeypatch.setattr(SimplicialMesh, "locate", counted)
    return located


def assert_transfer_matches_reference(source, tmap, rng):
    """One-hot rows at coincident vertices, reference rows elsewhere, and
    transferred random fields equal to the reference's bit for bit."""
    points = tmap.target.vertices
    same = coincident_source_vertex(source, points)
    hit = same >= 0
    one_hot = np.zeros(source.dim + 1)
    one_hot[0] = 1.0
    assert np.all(tmap.vert_ids[hit] == same[hit, None])
    assert np.all(tmap.weights[hit] == one_hot)
    vert_ids, weights = reference_transfer(source, points)
    assert np.array_equal(tmap.vert_ids[~hit], vert_ids[~hit])
    assert np.array_equal(tmap.weights[~hit], weights[~hit])
    for _ in range(3):
        field = NodalField(rng.uniform(-1.0, 1.0, source.n_vertices), source)
        assert np.array_equal(transfer_field(field, tmap).values,
                              _weighted(field.values, vert_ids, weights))
    return hit


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


def test_transfer_map_matches_reference_2d(adapted_2d):
    m1, m2 = adapted_2d
    eps = 1.0 / (16 * np.pi)
    _, tmap = adapt_to_interface(m2, circular_phase(m2, 0.3, eps), 64, 8)
    hit = assert_transfer_matches_reference(m2, tmap, np.random.default_rng(6))
    assert 0 < (~hit).sum() < hit.sum()


def test_locate_and_transfer_match_reference_3d():
    rng = np.random.default_rng(4)
    eps = 1.0 / (8 * np.pi)
    m = build_uniform_mesh(0.5, 8, 3, "neumann")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), 8, 4)
    gens = m1._gen[m1._child < 0]
    assert gens.min() < gens.max() == 3
    values = rng.uniform(-1.0, 1.0, m1.n_vertices)
    assert_matches_reference(m1, probe_points(m1, rng, 200), values)
    _, tmap = adapt_to_interface(m1, circular_phase(m1, 0.3, eps), 8, 4)
    hit = assert_transfer_matches_reference(m1, tmap, rng)
    assert 0 < (~hit).sum() < hit.sum()


@pytest.mark.parametrize("dim", [2, 3])
def test_adapt_locates_each_new_vertex_once(dim, monkeypatch):
    # the transfer map reuses the weights of the marking rounds: the same
    # map as locating all new vertices at the end, for one locate per new
    # vertex that is not a source vertex
    eps = 1.0 / (16 * np.pi) if dim == 2 else 1.0 / (8 * np.pi)
    N_f, N_c = (64, 8) if dim == 2 else (8, 4)
    m = build_uniform_mesh(0.5, N_f, dim, "dirichlet")
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.2, eps), N_f, N_c)
    located = count_located(monkeypatch)
    new, tmap = adapt_to_interface(m1, circular_phase(m1, 0.3, eps), N_f, N_c)
    miss = coincident_source_vertex(m1, new.vertices) < 0
    assert sum(located) == miss.sum()
    vert_ids, weights = m1._transfer_weights(new.vertices[miss])
    assert np.array_equal(tmap.vert_ids[miss], vert_ids)
    assert np.array_equal(tmap.weights[miss], weights)


def test_adapt_locates_vertices_off_the_source_grid(monkeypatch):
    # a uniform N = 48 source shares with the 2H/64 lattice only the points
    # of the 2H/16 grid, so most new vertices miss the lookup
    m = build_uniform_mesh(0.5, 48, 2, "dirichlet")
    phi = circular_phase(m, 0.2, 1.0 / (16 * np.pi))
    located = count_located(monkeypatch)
    _, tmap = adapt_to_interface(m, phi, 64, 8)
    monkeypatch.undo()
    hit = assert_transfer_matches_reference(m, tmap, np.random.default_rng(7))
    assert sum(located) == (~hit).sum() > 2 * hit.sum() > 0


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
