"""Batched conforming refinement against the recursive closure.

The reference is the recursive newest-vertex closure on plain lists: to
bisect an element it first bisects, recursively, every active sharer of
its bisection edge that would bisect another edge, then splits the whole
edge patch at one midpoint.  The batched ``SimplicialMesh.refine`` numbers
vertices and elements in another order, so the meshes are compared as sets:
every active element by its vertex coordinates in slot order, its tag and
its generation, and every vertex by its coordinates and the coordinates
of its two bisection parents, all bitwise.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anisopf.errors import RefinementDepthExceeded
from anisopf.mesh import (
    NodalField,
    SimplicialMesh,
    _member,
    _sorted_unique,
    adapt_to_interface,
    build_uniform_mesh,
    transfer_field,
)

from meshcheck import check_conforming, diameters, reference_locate


class RecursiveForest:
    """The forest of a mesh as plain lists, refined by the recursive closure."""

    def __init__(self, mesh):
        self.dim = mesh.dim
        self.coords = list(mesh._coords)
        self.verts = [tuple(v) for v in mesh._verts.tolist()]
        self.tag = mesh._tag.tolist()
        self.gen = mesh._gen.tolist()
        self.child = mesh._child.tolist()
        self.parent = [tuple(p) for p in mesh._parent.tolist()]
        self.edge_mid = {}
        self.vert_elems = defaultdict(set)
        for eid, verts in enumerate(self.verts):
            if self.child[eid] < 0:
                for v in verts:
                    self.vert_elems[v].add(eid)

    def bisection_edge(self, eid):
        v = self.verts[eid]
        return v[0], v[self.tag[eid]]

    def midpoint(self, a, b):
        key = (a, b) if a < b else (b, a)
        if key not in self.edge_mid:
            self.coords.append(0.5 * (self.coords[a] + self.coords[b]))
            self.parent.append(key)
            self.edge_mid[key] = len(self.coords) - 1
        return self.edge_mid[key]

    def edge_sharers(self, a, b):
        return sorted(self.vert_elems[a] & self.vert_elems[b])

    def add_elem(self, verts, tag, gen):
        self.verts.append(tuple(verts))
        self.tag.append(tag)
        self.gen.append(gen)
        self.child.append(-1)
        for v in verts:
            self.vert_elems[v].add(len(self.verts) - 1)
        return len(self.verts) - 1

    def split(self, eid, z):
        v, t = self.verts[eid], self.tag[eid]
        newtag = t - 1 if t > 1 else self.dim
        gen = self.gen[eid] + 1
        self.child[eid] = self.add_elem(v[:t] + (z,) + v[t + 1:], newtag, gen)
        self.add_elem(v[1:t + 1] + (z,) + v[t + 1:], newtag, gen)
        for u in v:
            self.vert_elems[u].discard(eid)

    def refine(self, eid, gen_cap, depth=0):
        if self.child[eid] >= 0:
            return
        if depth > gen_cap + 4 or self.gen[eid] >= gen_cap:
            raise RefinementDepthExceeded("reference closure too deep")
        a, b = self.bisection_edge(eid)
        while True:
            sharers = self.edge_sharers(a, b)
            bad = [e for e in sharers
                   if set(self.bisection_edge(e)) != {a, b}]
            if not bad:
                break
            for e in bad:
                self.refine(e, gen_cap, depth + 1)
        z = self.midpoint(a, b)
        for e in sharers:
            self.split(e, z)

    def store(self, mesh):
        mesh._coords = np.array(self.coords)
        mesh._verts = np.array(self.verts, dtype=np.int64)
        mesh._tag = np.array(self.tag, dtype=np.int64)
        mesh._gen = np.array(self.gen, dtype=np.int64)
        mesh._child = np.array(self.child, dtype=np.int64)
        mesh._parent = np.array(self.parent, dtype=np.int64)
        mesh._cache = None


def recursive_refine(mesh, eids, gen_cap):
    """Drop-in for ``SimplicialMesh.refine``: one closure per element, in
    ascending id order."""
    forest = RecursiveForest(mesh)
    for eid in sorted(set(np.asarray(eids).tolist())):
        forest.refine(eid, gen_cap)
    forest.store(mesh)


def active_set(mesh):
    """Active elements as (vertex coordinates in slot order, tag, generation)."""
    active = np.flatnonzero(mesh._child < 0)
    P = mesh._coords[mesh._verts[active]]
    return {(P[k].tobytes(), int(mesh._tag[e]), int(mesh._gen[e]))
            for k, e in enumerate(active)}


def parent_table(mesh):
    """Per vertex coordinates, the coordinates of its parents (none for a
    root vertex); every other vertex is their exact midpoint."""
    x, p = mesh._coords, mesh._parent
    root = (p < 0).all(axis=1)
    assert np.all(p[~root] >= 0) and np.all(p[~root] < np.arange(len(x))[~root, None])
    assert np.array_equal(x[~root], 0.5 * (x[p[~root, 0]] + x[p[~root, 1]]))
    return {x[v].tobytes(): None if root[v] else
            frozenset(x[u].tobytes() for u in p[v]) for v in range(len(x))}


def assert_same_forest(mesh, ref):
    assert active_set(mesh) == active_set(ref)
    coords = {x.tobytes() for x in mesh._coords}
    assert len(coords) == mesh.n_vertices == ref.n_vertices
    assert coords == {x.tobytes() for x in ref._coords}
    assert parent_table(mesh) == parent_table(ref)
    check_conforming(mesh)


def circular_phase(mesh, R0, eps):
    r = np.linalg.norm(mesh.vertices, axis=1)
    vals = np.sin((r - R0) / eps)
    vals[r <= R0 - eps * np.pi / 2] = -1.0
    vals[r >= R0 + eps * np.pi / 2] = 1.0
    return NodalField(np.clip(vals, -1.0, 1.0), mesh)


@pytest.mark.parametrize("dim,N,rounds,per_round", [(2, 4, 12, 4), (3, 2, 10, 3)])
def test_random_marking_matches_recursive_closure(dim, N, rounds, per_round):
    rng = np.random.default_rng(20 + dim)
    mesh = build_uniform_mesh(0.5, N, dim, "dirichlet")
    ref = build_uniform_mesh(0.5, N, dim, "dirichlet")
    for _ in range(rounds):
        # the same simplices in both meshes: located from the same points,
        # half of them in a small box so that the forest grows deep there
        pts = rng.uniform(-0.5, 0.5, (per_round, dim))
        pts[::2] = 0.1 + 0.15 * pts[::2]
        mesh.refine(reference_locate(mesh, pts)[0], gen_cap=40)
        recursive_refine(ref, reference_locate(ref, pts)[0], gen_cap=40)
        assert_same_forest(mesh, ref)
    assert mesh._gen[mesh._child < 0].max() >= 2 * dim


def test_refine_skips_inactive_and_repeated_ids():
    mesh = build_uniform_mesh(0.5, 4, 2, "dirichlet")
    ref = build_uniform_mesh(0.5, 4, 2, "dirichlet")
    mesh.refine([5, 5, 9], gen_cap=8)
    mesh.refine([5, 9], gen_cap=8)          # both are parents now
    recursive_refine(ref, [5, 9], gen_cap=8)
    assert_same_forest(mesh, ref)


def adapt_twice(dim, N_f, N_c):
    eps = 1.0 / (N_f / 4 * np.pi)
    m = build_uniform_mesh(0.5, N_f, dim, "neumann")
    phi = circular_phase(m, 0.2, eps)
    m1, t1 = adapt_to_interface(m, phi, N_f, N_c)
    m2, t2 = adapt_to_interface(m1, circular_phase(m1, 0.27, eps), N_f, N_c)
    return m1, m2, transfer_field(transfer_field(phi, t1), t2)


@pytest.mark.parametrize("dim,N_f,N_c", [(2, 64, 8), (3, 8, 4)])
def test_adapt_matches_recursive_closure(monkeypatch, dim, N_f, N_c):
    m1, m2, field = adapt_twice(dim, N_f, N_c)
    with monkeypatch.context() as mp:
        mp.setattr(SimplicialMesh, "refine", recursive_refine)
        r1, r2, ref_field = adapt_twice(dim, N_f, N_c)
    assert_same_forest(m1, r1)
    assert_same_forest(m2, r2)
    # transferred values keyed by vertex coordinates
    got = {x.tobytes(): v.tobytes() for x, v in zip(m2._coords, field.values)}
    want = {x.tobytes(): v.tobytes() for x, v in zip(r2._coords, ref_field.values)}
    assert got == want


@pytest.mark.parametrize("dim,H", [(2, 0.5), (2, 0.3), (3, 0.5), (3, 1.7)])
def test_coarse_generation_is_coarse_diameter(dim, H):
    # d bisections of a Kuhn simplex give a similar one at half the size,
    # so generation < d * levels means diameter > the fine diameter
    rng = np.random.default_rng(30 + dim)
    for N_c in (2, 4, 6):
        mesh = build_uniform_mesh(H, N_c, dim, "dirichlet")
        for _ in range(4 * dim):
            # random elements, and as many of the deepest, so that the
            # forest grows past the finest level tested
            active = np.flatnonzero(mesh._child < 0)
            deep = active[np.argsort(-mesh._gen[active], kind="stable")[:4]]
            mesh.refine(np.concatenate([rng.choice(active, 4), deep]),
                        gen_cap=40)
            gen = mesh._gen[mesh._child < 0]
            for levels in (1, 2, 3):
                fine = np.sqrt(dim) * (2.0 * H / (N_c * 2 ** levels))
                assert np.array_equal(gen < dim * levels,
                                      diameters(mesh) > fine * (1.0 + 1e-9))
        assert gen.max() > 3 * dim


@pytest.mark.parametrize("dim,H,N_f,N_c", [(2, 0.3, 64, 8), (3, 1.7, 8, 2)])
def test_adapted_vertices_lie_on_the_fine_lattice(dim, H, N_f, N_c):
    h = 2.0 * H / N_f
    m = build_uniform_mesh(H, N_f, dim, "neumann")
    eps = 2.0 * H / (N_f / 4 * np.pi)
    m1, _ = adapt_to_interface(m, circular_phase(m, 0.4 * H, eps), N_f, N_c)
    m2, _ = adapt_to_interface(m1, circular_phase(m1, 0.54 * H, eps), N_f, N_c)
    for mesh in (m1, m2):
        x = mesh.vertices + H
        assert np.abs(x - h * np.rint(x / h)).max() <= 1e-14 * H


@pytest.mark.parametrize("dim,N_f,N_c", [(2, 64, 8), (3, 8, 4)])
def test_adapt_makes_no_hashed_set_operation(monkeypatch, dim, N_f, N_c):
    # refinement tests edge sets by sorted search; numpy's unique, isin and
    # union1d hash from numpy 2.3 on and cost several times more here
    expect = adapt_twice(dim, N_f, N_c)

    def refuse(*args, **kwargs):
        raise AssertionError("hashed set operation in the remesh")

    with monkeypatch.context() as mp:
        for name in ("unique", "isin", "union1d"):
            mp.setattr(np, name, refuse)
        got = adapt_twice(dim, N_f, N_c)
    for mesh, ref in zip(got[:2], expect[:2]):
        for name in ("_coords", "_verts", "_parent", "_tag", "_gen", "_child"):
            assert np.array_equal(getattr(mesh, name), getattr(ref, name))
    assert np.array_equal(got[2].values, expect[2].values)


@st.composite
def int64_pair(draw):
    """Two int64 arrays over one range of 8 values, near 0 or just below
    nv**2, the largest edge key of a mesh with nv vertices."""
    nv = draw(st.integers(2, 3_000_000))
    lo = draw(st.sampled_from([-3, nv * nv - 8]))
    values = st.lists(st.integers(lo, lo + 7), max_size=30)
    return (np.array(draw(values), dtype=np.int64),
            np.array(draw(values), dtype=np.int64))


_EMPTY = np.zeros(0, dtype=np.int64)
_SAME = np.full(7, 2**40 - 1, dtype=np.int64)     # the last key at nv = 2**20


@given(int64_pair())
@example((_EMPTY, _EMPTY))
@example((_SAME, _SAME))
def test_sorted_unique_is_np_unique(pair):
    for x in pair:
        got = _sorted_unique(x)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(x))


@given(int64_pair(), st.sampled_from([1, 3, 6]))
@example((_EMPTY, _SAME), 1)
@example((_SAME, _EMPTY), 1)
@example((_SAME[:6], _SAME), 3)
def test_member_is_np_isin(pair, width):
    xs, keys = pair
    x = xs[:len(xs) // width * width].reshape(-1, width)
    keys = np.unique(keys)
    got = _member(x, keys)
    assert got.shape == x.shape
    assert np.array_equal(got, np.isin(x, keys))
