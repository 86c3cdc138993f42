"""Conforming simplicial meshes of the box (-H, H)^d with bisection refinement.

Uniform meshes split every grid square into two triangles (d = 2) or every
grid cube into six tetrahedra sharing the main diagonal (d = 3, Kuhn
split).  Local refinement bisects the tagged edge of a simplex.  It works in
passes over all wanted elements at once: each pass bisects every edge
whose patch of sharing elements agrees on it as their bisection edge and
wants first the sharers that do not, so the mesh stays conforming; the tag
bookkeeping follows the ordered-vertex bisection rule for Kuhn-type meshes
(new vertex replaces slot ``tag``, the tag decreases cyclically).  Edge sets
are tested by sorted search, as numpy's hashed set operations cost more here.
A mesh keeps only its current elements: a pass writes each first child
over its parent's row and appends the second children in split order, so
the rows it does not split keep their index.

The two-level strategy used by the simulator rebuilds, every time step, a
mesh that is uniformly fine (spacing 2H/N_f) inside the diffuse interface
band ``|phi| < 1`` and coarse (spacing 2H/N_c) elsewhere; an element is
coarse while its generation is below d * log2(N_f/N_c).  Old and new mesh
bisect the same N_c mesh, so a new vertex is an old one or the midpoint
of an edge inside one old element: the nodal fields move exactly, through
the bisection parents of the new vertices.
"""

import itertools
import math
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
    """Simplicial mesh of (-H, H)^d with a Dirichlet mask and bisection data.

    Instances are created by :func:`build_uniform_mesh` and refined through
    :func:`adapt_to_interface`; once handed to the assembly they are
    treated as immutable.  ``_coords`` (nv, d) holds the vertex
    coordinates; every element has a row in ``_verts`` (ne, d+1), which
    is ``elements``, and an entry in ``_tag`` (bisection tag) and ``_gen``
    (generation).  ``_parent`` (nv, 2) holds the bisected edge's ends per
    vertex, -1 for the vertices of the uniform mesh.
    """

    def __init__(self, H, N, dim, bc_case, coords, verts):
        if bc_case not in _BC_CASES:
            raise ValueError(f"unknown boundary case {bc_case!r}")
        self.H = float(H)
        self.N0 = int(N)
        self.dim = int(dim)
        self.bc_case = bc_case
        self._coords = np.asarray(coords, dtype=float)
        self._verts = np.asarray(verts, dtype=np.int64)
        self._tag = np.full(len(self._verts), self.dim, dtype=np.int64)
        self._gen = np.zeros(len(self._verts), dtype=np.int64)
        self._parent = np.full((len(self._coords), 2), -1, dtype=np.int64)
        self._cache = None

    # -- refinement -----------------------------------------------------

    def refine(self, eids, gen_cap):
        """Bisect the rows ``eids`` of ``elements`` and their conforming closure.

        Each pass takes the bisection edge of every wanted element and the
        elements sharing it.  Sharers that would bisect another edge are
        wanted too, for a later pass; every edge whose sharers all agree is
        bisected in this pass, at one new midpoint.  The pass writes each
        first child over its parent's row of new arrays and appends the
        second children in row order, so arrays taken from the mesh before
        are not written.  The closure of a set of bisections is unique
        (Stevenson, Math. Comp. 2008), so the mesh does not depend on the
        order of the passes or of the rows.
        """
        d = self.dim
        pairs = np.array(list(itertools.combinations(range(d + 1), 2))).T
        cols = np.arange(d + 1)
        want = _sorted_unique(np.asarray(eids, dtype=np.int64))
        if want.size and (want[0] < 0 or want[-1] >= len(self._verts)):
            raise IndexError(f"element ids must lie in [0, {len(self._verts)})")
        while want.size:
            if (self._gen[want] >= gen_cap).any():
                raise RefinementDepthExceeded(
                    f"element generation would exceed cap {gen_cap}")
            nv = len(self._coords)
            # edges as min * nv + max; an element bisects (v0, v_tag)
            a, b = self._verts[want, 0], self._verts[want, self._tag[want]]
            keys = _sorted_unique(np.minimum(a, b) * nv + np.maximum(a, b))
            # every sharer of an edge holds its lower vertex
            low = np.zeros(nv, dtype=bool)
            low[keys // nv] = True
            cand = np.flatnonzero(_any_row(low[self._verts]))
            v, t = self._verts[cand], self._tag[cand]
            a, b = v[:, pairs[0]], v[:, pairs[1]]
            edges = np.minimum(a, b) * nv + np.maximum(a, b)
            # pair tag - 1 is (0, tag), the element's own bisection edge
            rows = np.arange(len(cand))
            shared = _member(edges, keys)
            own = edges[rows, t - 1]
            other = shared & (edges != own[:, None])
            agree = shared[rows, t - 1] & ~_member(own, _sorted_unique(edges[other]))
            blocking = cand[_any_row(other)]
            # free the pair arrays before the element arrays grow: peak memory
            del a, b, edges, shared, other
            if not agree.any() and _member(blocking, want).all():
                raise RefinementDepthExceeded("edge closure did not stabilize")
            want = _sorted_unique(np.concatenate([want, blocking]))
            mids = _sorted_unique(own[agree])
            z = nv + np.searchsorted(mids, own[agree])
            parent = np.stack([mids // nv, mids % nv], axis=1)
            x = self._coords[parent]
            self._coords = np.vstack([self._coords, 0.5 * (x[:, 0] + x[:, 1])])
            self._parent = np.concatenate([self._parent, parent])
            # both children take the midpoint at slot tag; the second drops v0
            split, v, t = cand[agree], v[agree], t[agree]
            rows = np.arange(len(split))
            second = np.take_along_axis(
                v, np.where(cols < t[:, None], cols + 1, cols), axis=1)
            second[rows, t] = z
            v[rows, t] = z
            tag = np.where(t > 1, t - 1, d)
            gen = self._gen[split] + 1
            self._verts = np.concatenate([self._verts, second])
            self._tag = np.concatenate([self._tag, tag])
            self._gen = np.concatenate([self._gen, gen])
            self._verts[split], self._tag[split], self._gen[split] = v, tag, gen
            self._cache = None
            want = want[~_member(want, split)]

    # -- finalized views -------------------------------------------------

    def _finalize(self):
        """Cache of elements, vertices, volumes, P1 gradients (closed-form
        inverses) and the Dirichlet mask, which the assembly extends;
        dropped on refinement."""
        if self._cache is not None:
            return self._cache
        P = self._coords[self._verts]                # (ne, d+1, d)
        E = P[:, 1:, :] - P[:, :1, :]                # row k: edge to vertex k+1
        # rows of adj / det are the rows of the inverse of [e_1 .. e_d]
        if self.dim == 2:
            adj = np.stack([E[:, 1, ::-1], E[:, 0, ::-1]], axis=1) * [[1, -1], [-1, 1]]
        else:
            adj = np.cross(E[:, [1, 2, 0]], E[:, [2, 0, 1]])
        det = (E[:, 0] * adj[:, 0]).sum(axis=1)
        Tinv = adj / det[:, None, None]              # rows = grad lambda_k
        grads = np.concatenate([-Tinv.sum(axis=1, keepdims=True), Tinv], axis=1)
        vertices = self._coords
        onb = np.zeros(len(vertices), dtype=bool)
        tol = 1e-12 * max(1.0, self.H)
        for k in range(self.dim):
            onb |= np.abs(vertices[:, k] - self.H) <= tol
            onb |= np.abs(vertices[:, k] + self.H) <= tol
        if self.bc_case == "dirichlet":
            dirichlet = onb
        elif self.bc_case == "neumann":
            dirichlet = np.zeros_like(onb)
        else:
            dirichlet = np.abs(vertices[:, -1] - self.H) <= tol
        self._cache = {
            "elements": self._verts,
            "vertices": vertices,
            "volumes": np.abs(det) / math.factorial(self.dim),
            "grads": grads,
            "dirichlet_mask": dirichlet,
        }
        return self._cache

    @property
    def vertices(self):
        return self._coords

    @property
    def elements(self):
        return self._verts

    @property
    def volumes(self):
        return self._finalize()["volumes"]

    @property
    def grads(self):
        return self._finalize()["grads"]

    @property
    def dirichlet_mask(self):
        return self._finalize()["dirichlet_mask"]

    @property
    def n_vertices(self):
        return len(self._coords)

    @property
    def n_elements(self):
        return len(self._verts)

    def field_gradients(self, values):
        """Per-element constant gradient of a nodal field, shape (ne, d)."""
        c = self._finalize()
        values = np.asarray(values, dtype=float)
        if values.shape[0] != len(c["vertices"]):
            raise MeshMismatch("field length does not match vertex count")
        return np.einsum("ekd,ek->ed", c["grads"], values[c["elements"]])


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
    """Moves nodal fields from ``source`` to ``target``: per target vertex,
    the source vertex at its coordinates, or -1 where the value is the mean
    of the vertex's bisection parents' values (``target._parent``)."""

    source: SimplicialMesh
    target: SimplicialMesh
    src: np.ndarray          # (n_target,) source vertex ids, -1 for a miss


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
    axis = np.linspace(-H, H, N + 1)
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    stride = (N + 1) ** np.arange(dim - 1, -1, -1)
    corner = np.indices((N,) * dim).reshape(dim, -1).T @ stride
    perms = np.array(list(itertools.permutations(range(dim))))
    walk = np.zeros((len(perms), dim + 1), dtype=np.int64)
    walk[:, 1:] = np.cumsum(stride[perms], axis=1)
    elems = (corner[:, None, None] + walk).reshape(-1, dim + 1)
    return SimplicialMesh(H, N, dim, bc_case, grid.reshape(-1, dim), elems)


def adapt_to_interface(mesh, phi, N_f, N_c):
    """Two-level re-mesh: fine spacing 2H/N_f inside ``|phi| < 1``.

    Starting from the uniform N_c mesh, elements whose phase value is
    strictly inside (-1, 1) at some vertex, together with one layer of
    vertex-neighbours, are bisected until they reach the fine generation
    d * log2(N_f/N_c): d bisections of a Kuhn simplex give a similar
    simplex at half the size (Maubach 1995), so an element is coarser than
    the fine diameter sqrt(d) * 2H/N_f exactly when its generation is
    lower.  Each round reads the phase at the new vertices from one of two
    sources.  From a ``NodalField`` on ``mesh`` (a remesh), a new vertex
    at a vertex of ``mesh`` reads its value, any other the mean of its
    bisection parents'; ``mesh`` must be the uniform N_f mesh, or a
    bisection of the uniform N_c mesh with at most one vertex per fine
    lattice node; returns the new mesh and the transfer map onto it.  From
    a function of points (the first mesh), a new vertex reads it at its
    N_f lattice node, at the coordinates ``np.linspace(-H, H, N_f + 1)``
    of the uniform N_f mesh, which bisection midpoints miss by a rounding
    when H is not a power of two; ``mesh`` must be the uniform N_c mesh,
    which is refined in place; returns it and the phase on it.
    """
    if N_f < N_c or N_f % N_c != 0 or ((N_f // N_c) & (N_f // N_c - 1)) != 0:
        raise InvalidN(f"N_f={N_f} must be a power-of-two multiple of N_c={N_c}")
    field = isinstance(phi, NodalField)
    allowed = (N_c, N_f) if field else (N_c,)
    if mesh.N0 not in allowed:
        raise InvalidN(f"source mesh refines N={mesh.N0}, not one of {allowed}")
    d = mesh.dim
    if field:
        coincident = _vertex_lookup(mesh, N_f)
        new = build_uniform_mesh(mesh.H, N_c, d, mesh.bc_case)
    else:
        axis = np.linspace(-mesh.H, mesh.H, N_f + 1)
        new = mesh
    levels = int(round(math.log2(N_f // N_c)))
    gen_cap = max(0, 2 * levels * d)

    src = np.empty(0, dtype=np.int64)
    phi_at = np.empty(0)
    for _round in range(8 * (levels + 1) * d + 8):
        x = new.vertices[len(phi_at):]
        if field:
            src = np.concatenate([src, coincident(x)])
            phi_at = _moved(phi.values, src, new._parent, phi_at)
        else:
            phi_at = np.concatenate([phi_at, phi(axis[_lattice(x, mesh.H, N_f)])])
        elems = new.elements
        coarse = new._gen < d * levels
        hit = coarse & _any_row(np.abs(phi_at[elems]) < 1.0 - 1e-7)
        # one layer of vertex neighbours around the elements hit
        touched = np.zeros(new.n_vertices, dtype=bool)
        touched[elems[hit]] = True
        marked = np.flatnonzero(coarse & _any_row(touched[elems]))
        if not marked.size:
            break
        new.refine(marked, gen_cap)
    else:
        raise RefinementDepthExceeded("marking loop did not terminate")

    if field:
        return new, TransferMap(mesh, new, src)
    return new, NodalField(phi_at, new)


def _sorted_unique(x):
    """``np.unique(x)`` by one sort and a mask, without numpy's hashing."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _any_row(mask):
    """``mask.any(axis=1)``, several times faster on rows of a few entries."""
    return mask @ np.ones(mask.shape[1]) > 0


def _member(x, keys):
    """``np.isin(x, keys)`` for sorted distinct ``keys``, by binary search."""
    if not keys.size:
        return np.zeros(np.shape(x), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, x), keys.size - 1)
    return keys[pos] == x


def _vertex_lookup(mesh, N_f):
    """Function giving per point the vertex of ``mesh`` at its coordinates
    (to 1e-12 H: linspace and midpoints round apart), or -1.  Vertices are
    keyed by their nearest 2H/N_f lattice node; two on one raise InvalidN."""
    H, src = mesh.H, mesh.vertices
    stride = (N_f + 1) ** np.arange(mesh.dim - 1, -1, -1)

    def keys(x):
        return _lattice(x, H, N_f) @ stride

    src_keys = keys(src)
    order = np.argsort(src_keys, kind="stable")
    sorted_keys = src_keys[order]
    if (np.diff(sorted_keys) == 0).any():
        raise InvalidN(f"source mesh is finer than N_f={N_f}")

    def coincident(x):
        pos = np.searchsorted(sorted_keys, keys(x))
        j = order[np.minimum(pos, len(order) - 1)]
        return np.where(~_any_row(np.abs(src[j] - x) > 1e-12 * H), j, -1)

    return coincident


def _lattice(x, H, N_f):
    """Per point the integer indices of its nearest 2H/N_f lattice node."""
    return np.rint((x + H) * (N_f / (2.0 * H))).astype(np.int64)


def _moved(values, src, parent, head=()):
    """Source nodal ``values`` at the vertices of a bisection mesh, after
    the ``head`` already moved: a vertex with a source vertex ``src``
    reads its value, a miss the mean of its parents', one pass at a time."""
    n = len(head)
    out = np.concatenate([head, np.asarray(values, dtype=float)[src[n:]]])
    waiting = (src < 0) & (np.arange(len(src)) >= n)
    todo = np.flatnonzero(waiting)
    while todo.size:
        ready = todo[~waiting[parent[todo]].any(axis=1)]
        out[ready] = out[parent[ready]].mean(axis=1)
        waiting[ready] = False
        todo = todo[waiting[todo]]
    return out


def transfer_field(field, tmap):
    """Move a nodal field through a transfer map."""
    if field.mesh is not tmap.source:
        raise MeshMismatch("field does not live on the map's source mesh")
    return NodalField(_moved(field.values, tmap.src, tmap.target._parent),
                      tmap.target)
