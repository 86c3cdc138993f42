"""Conforming simplicial meshes of the box (-H, H)^d with bisection refinement.

Uniform meshes split every grid square into two triangles (d = 2) or every
grid cube into six tetrahedra sharing the main diagonal (d = 3, Kuhn
split).  Local refinement bisects the tagged edge of a simplex and
recursively forces the neighbours sharing that edge first, so the mesh
stays conforming; the tag bookkeeping follows the ordered-vertex bisection
rule for Kuhn-type meshes (new vertex replaces slot ``tag``, the tag
decreases cyclically).

The two-level strategy used by the simulator rebuilds, every time step, a
mesh that is uniformly fine (spacing 2H/N_f) inside the diffuse interface
band ``|phi| < 1`` and coarse (spacing 2H/N_c) elsewhere, then transfers
the nodal fields by piecewise-linear interpolation.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidN,
    MeshMismatch,
    RefinementDepthExceeded,
)

__all__ = [
    "SimplicialMesh",
    "NodalField",
    "TransferMap",
    "build_uniform_mesh",
    "adapt_to_interface",
    "transfer_field",
]

_BC_CASES = ("dirichlet", "neumann", "mixed")


class SimplicialMesh:
    """Simplicial mesh of (-H, H)^d with boundary tags and refinement forest.

    Instances are created by :func:`build_uniform_mesh` and refined through
    :func:`adapt_to_interface`; once handed to the assembly they are
    treated as immutable.  Every element ever created, active or not, keeps
    its vertex tuple, bisection tag, generation and first child (-1 for a
    leaf; the second child is the next id).  The active elements are the
    leaves.
    """

    def __init__(self, H, N, dim, bc_case):
        if bc_case not in _BC_CASES:
            raise ValueError(f"unknown boundary case {bc_case!r}")
        self.H = float(H)
        self.N0 = int(N)
        self.dim = int(dim)
        self.bc_case = bc_case
        self._coords = []
        self._verts = []
        self._tag = []
        self._gen = []
        self._child = []
        self._vert_elems = None
        self._edge_mid = {}
        self._perms = list(itertools.permutations(range(dim)))
        self._cache = None

    # -- construction ---------------------------------------------------

    def _add_vertex(self, xyz):
        self._coords.append(np.asarray(xyz, dtype=float))
        return len(self._coords) - 1

    def _add_elem(self, verts, tag, gen):
        self._verts.append(tuple(verts))
        self._tag.append(tag)
        self._gen.append(gen)
        self._child.append(-1)
        return len(self._verts) - 1

    def _vertex_elements(self):
        """Vertex id -> set of active element ids, built on first use."""
        if self._vert_elems is None:
            self._vert_elems = defaultdict(set)
            for eid, verts in enumerate(self._verts):
                if self._child[eid] < 0:
                    for v in verts:
                        self._vert_elems[v].add(eid)
        return self._vert_elems

    # -- refinement -----------------------------------------------------

    def _bisection_edge(self, eid):
        v = self._verts[eid]
        return v[0], v[self._tag[eid]]

    def _midpoint(self, a, b):
        key = (a, b) if a < b else (b, a)
        vid = self._edge_mid.get(key)
        if vid is None:
            vid = self._add_vertex(0.5 * (self._coords[a] + self._coords[b]))
            self._edge_mid[key] = vid
        return vid

    def _edge_sharers(self, a, b):
        vert_elems = self._vertex_elements()
        return sorted(vert_elems[a] & vert_elems[b])

    def _split(self, eid, z):
        v = self._verts[eid]
        t = self._tag[eid]
        newtag = t - 1 if t > 1 else self.dim
        gen = self._gen[eid] + 1
        first = self._add_elem(v[:t] + (z,) + v[t + 1:], newtag, gen)
        second = self._add_elem(v[1:t + 1] + (z,) + v[t + 1:], newtag, gen)
        self._child[eid] = first
        vert_elems = self._vertex_elements()
        for u in v:
            vert_elems[u].discard(eid)
        for child in (first, second):
            for u in self._verts[child]:
                vert_elems[u].add(child)

    def _refine(self, eid, gen_cap, _depth=0):
        """Bisect element ``eid`` conformingly (recursive closure)."""
        if self._child[eid] >= 0:
            return
        if _depth > gen_cap + 4:
            raise RefinementDepthExceeded(
                f"closure recursion exceeded {gen_cap + 4} levels")
        if self._gen[eid] >= gen_cap:
            raise RefinementDepthExceeded(
                f"element generation would exceed cap {gen_cap}")
        a, b = self._bisection_edge(eid)
        for _pass in range(64):
            sharers = self._edge_sharers(a, b)
            bad = [e for e in sharers
                   if set(self._bisection_edge(e)) != {a, b}]
            if not bad:
                break
            for e in bad:
                self._refine(e, gen_cap, _depth + 1)
        else:
            raise RefinementDepthExceeded("edge closure did not stabilize")
        z = self._midpoint(a, b)
        for e in sharers:
            self._split(e, z)
        self._cache = None

    # -- finalized views -------------------------------------------------

    def _finalize(self):
        if self._cache is None:
            self._cache = self._geometry(
                np.array(self._coords, dtype=float),
                np.array(self._verts, dtype=np.int64),
                np.array(self._child, dtype=np.int64))
        return self._cache

    def _geometry(self, vertices, forest_verts, forest_child):
        """Active-element geometry, boundary masks and the forest arrays."""
        active = np.flatnonzero(forest_child < 0)
        elements = forest_verts[active]
        P = vertices[elements]                       # (ne, d+1, d)
        T = np.swapaxes(P[:, 1:, :] - P[:, :1, :], 1, 2)   # (ne, d, d)
        det = np.linalg.det(T)
        volumes = np.abs(det) / math.factorial(self.dim)
        Tinv = np.linalg.inv(T)                      # rows of Tinv = grad lambda_k
        grads = np.empty((len(active), self.dim + 1, self.dim))
        grads[:, 1:, :] = Tinv
        grads[:, 0, :] = -Tinv.sum(axis=1)
        diam = np.zeros(len(active))
        for i in range(self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                diam = np.maximum(diam, np.linalg.norm(P[:, i] - P[:, j], axis=1))
        onb = np.zeros(len(vertices), dtype=bool)
        tol = 1e-12 * max(1.0, self.H)
        for k in range(self.dim):
            onb |= np.abs(vertices[:, k] - self.H) <= tol
            onb |= np.abs(vertices[:, k] + self.H) <= tol
        if self.bc_case == "dirichlet":
            dirichlet = onb.copy()
        elif self.bc_case == "neumann":
            dirichlet = np.zeros_like(onb)
        else:
            dirichlet = np.abs(vertices[:, -1] - self.H) <= tol
        return {
            "active": active,
            "elements": elements,
            "vertices": vertices,
            "volumes": volumes,
            "grads": grads,
            "diameters": diam,
            "boundary_mask": onb,
            "dirichlet_mask": dirichlet,
            "forest_verts": forest_verts,
            "forest_child": forest_child,
        }

    @property
    def vertices(self):
        return self._finalize()["vertices"]

    @property
    def elements(self):
        return self._finalize()["elements"]

    @property
    def volumes(self):
        return self._finalize()["volumes"]

    @property
    def grads(self):
        return self._finalize()["grads"]

    @property
    def diameters(self):
        return self._finalize()["diameters"]

    @property
    def boundary_mask(self):
        return self._finalize()["boundary_mask"]

    @property
    def dirichlet_mask(self):
        return self._finalize()["dirichlet_mask"]

    @property
    def n_vertices(self):
        return len(self._coords)

    @property
    def n_elements(self):
        return len(self._finalize()["active"])

    @property
    def boundary_tags(self):
        """Map boundary vertex id -> 'dirichlet' | 'neumann'."""
        c = self._finalize()
        tags = {}
        for v in np.nonzero(c["boundary_mask"])[0]:
            tags[int(v)] = "dirichlet" if c["dirichlet_mask"][v] else "neumann"
        return tags

    def field_gradients(self, values):
        """Per-element constant gradient of a nodal field, shape (ne, d)."""
        c = self._finalize()
        values = np.asarray(values, dtype=float)
        if values.shape[0] != len(c["vertices"]):
            raise MeshMismatch("field length does not match vertex count")
        return np.einsum("ekd,ek->ed", c["grads"], values[c["elements"]])

    # -- conformity audit -------------------------------------------------

    def check_conforming(self):
        """Face-matching audit; raises AssertionError on a hanging face."""
        c = self._finalize()
        counts = {}
        for elem in c["elements"]:
            for drop in range(self.dim + 1):
                face = tuple(sorted(v for i, v in enumerate(elem) if i != drop))
                counts[face] = counts.get(face, 0) + 1
        tol = 1e-12 * max(1.0, self.H)
        verts = c["vertices"]
        for face, cnt in counts.items():
            if cnt == 2:
                continue
            if cnt != 1:
                raise AssertionError(f"face {face} shared by {cnt} elements")
            on_plane = False
            for k in range(self.dim):
                for side in (-self.H, self.H):
                    if np.all(np.abs(verts[list(face), k] - side) <= tol):
                        on_plane = True
            if not on_plane:
                raise AssertionError(f"interior face {face} has one owner")
        return True

    # -- point location ----------------------------------------------------

    def _barycentric(self, eids, x):
        """Barycentric coordinates of points ``x`` in elements ``eids``."""
        c = self._finalize()
        P = c["vertices"][c["forest_verts"][eids]]       # (n, d+1, d)
        A = np.ones((len(eids), self.dim + 1, self.dim + 1))
        A[:, 1:, :] = np.swapaxes(P, 1, 2)
        rhs = np.ones((len(eids), self.dim + 1, 1))
        rhs[:, 1:, 0] = x
        return np.linalg.solve(A, rhs)[:, :, 0]

    def locate(self, points):
        """Containing active element and barycentric weights per point.

        Returns (elem_ids, bary) with elem_ids internal element indices and
        bary of shape (n, d+1) ordered like the element's vertex tuple.
        Points descend the bisection forest one level at a time; at each
        split the child whose smallest barycentric coordinate is larger
        wins, ties going to the first child.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.dim
        h = 2.0 * self.H / self.N0
        rel = (points + self.H) / h
        cells = np.clip(np.floor(rel).astype(np.int64), 0, self.N0 - 1)
        order = np.argsort(-(rel - cells), axis=1, kind="stable")
        lin = cells[:, 0]
        for k in range(1, d):
            lin = lin * self.N0 + cells[:, k]
        # Kuhn simplex of each cell: the permutation sorting frac downwards
        radix = d ** np.arange(d - 1, -1, -1)
        perm_of_code = np.zeros(d ** d, dtype=np.int64)
        perm_of_code[np.array(self._perms) @ radix] = np.arange(len(self._perms))
        eids = lin * len(self._perms) + perm_of_code[order @ radix]
        bary = self._barycentric(eids, points)
        child = self._finalize()["forest_child"]
        todo = np.flatnonzero(child[eids] >= 0)
        while todo.size:
            first = child[eids[todo]]
            lam0 = self._barycentric(first, points[todo])
            lam1 = self._barycentric(first + 1, points[todo])
            second = lam1.min(axis=1) > lam0.min(axis=1)
            eids[todo] = first + second        # second child is first + 1
            bary[todo] = np.where(second[:, None], lam1, lam0)
            todo = todo[child[eids[todo]] >= 0]
        return eids, bary

    def _transfer_weights(self, points):
        """Vertex ids and clipped, renormalised barycentrics per point."""
        eids, bary = self.locate(points)
        weights = np.clip(bary, 0.0, None)
        weights = weights / weights.sum(axis=1, keepdims=True)
        return self._finalize()["forest_verts"][eids], weights

    def interpolate(self, values, points):
        """Evaluate the P1 interpolant of nodal ``values`` at ``points``."""
        vert_ids, lam = self._transfer_weights(points)
        vals = np.asarray(values, dtype=float)[vert_ids]
        return (lam[:, None, :] @ vals[:, :, None])[:, 0, 0]


@dataclass
class NodalField:
    """Nodal values of a continuous piecewise-linear function."""

    values: np.ndarray
    mesh: SimplicialMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise MeshMismatch("value array does not match mesh vertex count")


@dataclass
class TransferMap:
    """Interpolation data moving nodal fields from ``source`` to ``target``."""

    source: SimplicialMesh
    target: SimplicialMesh
    vert_ids: np.ndarray     # (n_target, d+1) source vertex indices
    weights: np.ndarray      # (n_target, d+1) convex weights


def build_uniform_mesh(H, N, dim=2, bc_case="dirichlet"):
    """Uniform Kuhn mesh of (-H, H)^dim with N cells per direction.

    Vertex ``(i_1, .., i_d)`` has id ``sum_k i_k (N+1)^(d-k)``; element
    ``lin * d! + p`` is the Kuhn simplex of permutation ``p`` (in
    ``itertools.permutations`` order) of the cell with lexicographic index
    ``lin``, walking from the cell's lower corner along the axes ``p``.
    """
    if N < 2 or N % 2 != 0:
        raise InvalidN(f"N must be an even count >= 2, got {N}")
    if dim not in (2, 3):
        raise InvalidN(f"dim must be 2 or 3, got {dim}")
    mesh = SimplicialMesh(H, N, dim, bc_case)
    axis = np.linspace(-H, H, N + 1)
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    vertices = grid.reshape(-1, dim)
    stride = (N + 1) ** np.arange(dim - 1, -1, -1)
    corner = np.indices((N,) * dim).reshape(dim, -1).T @ stride
    walk = np.zeros((len(mesh._perms), dim + 1), dtype=np.int64)
    walk[:, 1:] = np.cumsum(stride[np.array(mesh._perms)], axis=1)
    elems = (corner[:, None, None] + walk).reshape(-1, dim + 1)
    mesh._coords = list(vertices)
    mesh._verts = list(map(tuple, elems.tolist()))
    mesh._tag = [dim] * len(elems)
    mesh._gen = [0] * len(elems)
    mesh._child = [-1] * len(elems)
    mesh._cache = mesh._geometry(vertices, elems,
                                 np.full(len(elems), -1, dtype=np.int64))
    return mesh


def adapt_to_interface(mesh, phi, N_f, N_c):
    """Two-level re-mesh: fine spacing 2H/N_f inside ``|phi| < 1``.

    Starting from the uniform N_c mesh, elements whose interpolated phase
    value is strictly inside (-1, 1) at some vertex, together with one
    layer of vertex-neighbours, are bisected until their diameter drops to
    the fine-mesh diameter sqrt(d) * 2H/N_f.  Returns the new mesh and the
    transfer map for moving nodal fields onto it.
    """
    if N_f < N_c or N_f % N_c != 0 or ((N_f // N_c) & (N_f // N_c - 1)) != 0:
        raise InvalidN(f"N_f={N_f} must be a power-of-two multiple of N_c={N_c}")
    d = mesh.dim
    new = build_uniform_mesh(mesh.H, N_c, d, mesh.bc_case)
    levels = int(round(math.log2(N_f // N_c)))
    gen_cap = max(0, 2 * levels * d)
    target = math.sqrt(d) * (2.0 * mesh.H / N_f) * (1.0 + 1e-9)

    phi_at = np.empty(0)
    for _round in range(8 * (levels + 1) * d + 8):
        cache = new._finalize()
        if len(phi_at) < new.n_vertices:
            phi_at = np.concatenate([phi_at, mesh.interpolate(
                phi.values, cache["vertices"][len(phi_at):])])
        elems = cache["elements"]
        coarse = cache["diameters"] > target
        hit = coarse & (np.abs(phi_at[elems]) < 1.0 - 1e-7).any(axis=1)
        # one layer of vertex neighbours around the elements hit
        touched = np.zeros(new.n_vertices, dtype=bool)
        touched[elems[hit]] = True
        marked = cache["active"][coarse & touched[elems].any(axis=1)]
        if not marked.size:
            break
        for eid in marked.tolist():
            new._refine(eid, gen_cap)
    else:
        raise RefinementDepthExceeded("marking loop did not terminate")

    vert_ids, weights = mesh._transfer_weights(new.vertices)
    return new, TransferMap(mesh, new, vert_ids, weights)


def transfer_field(field, tmap):
    """Interpolate a nodal field through a transfer map."""
    if field.mesh is not tmap.source:
        raise MeshMismatch("field does not live on the map's source mesh")
    vals = field.values[tmap.vert_ids]
    return NodalField((tmap.weights * vals).sum(axis=1), tmap.target)
