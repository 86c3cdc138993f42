"""The element kernels against test-local copies of their stacked forms.

The mesh geometry, the P1 gradients, the field gradients, the element
matrices, the element mean of the conductivity and the band mask work on
component rows with the element axis last.  Each must equal, bit for bit,
the stacked (ne, d+1, d) form it replaced, whose copies are kept here.

The geometry, the field gradients, the element mean and the band mask are
plain sums in the same order on both sides, so they are compared on boxes
of any size and on a mesh with moved vertices, whose gradients have no zero
component, so that a change of the summation order shows.  The stacked
element matrices are BLAS products, which round with fused multiply-adds;
they equal the separately rounded sums only where every product is exact.
That holds on a box of dyadic half-width H, where each gradient component
of a Kuhn or bisection simplex is 0 or a power of two, and for gradients
of random powers of two, where the order of the sums shows.
"""

import math

import numpy as np
import pytest

from anisopf.anisotropy import MobilitySpec, anisotropy_from_name
from anisopf.assembly import _local_matrices, _on_band, assemble_step_system
from anisopf.mesh import SimplicialMesh, adapt_to_interface, build_uniform_mesh
from anisopf.potentials import PotentialSpec, ShapeSpec, diffusivity_b
from anisopf.stepper import PhysicalParams

_ANISO = {2: "hex2d-rot:0.1", 3: "cube3d:0.3:9"}


# -- the stacked kernels, as they were ------------------------------------

def stacked_geometry(mesh):
    P = mesh.vertices[mesh.elements]
    E = P[:, 1:, :] - P[:, :1, :]
    if mesh.dim == 2:
        adj = np.stack([E[:, 1, ::-1], E[:, 0, ::-1]], axis=1) * [[1, -1], [-1, 1]]
    else:
        adj = np.cross(E[:, [1, 2, 0]], E[:, [2, 0, 1]])
    det = (E[:, 0] * adj[:, 0]).sum(axis=1)
    Tinv = adj / det[:, None, None]
    grads = np.concatenate([-Tinv.sum(axis=1, keepdims=True), Tinv], axis=1)
    return grads, np.abs(det) / math.factorial(mesh.dim)


def stacked_field_gradients(mesh, grads, values):
    return np.einsum("ekd,ek->ed", grads, values[mesh.elements])


def stacked_local_matrices(volumes, grads, coeff=None):
    if coeff is None:
        return volumes[:, None, None] * (grads @ np.swapaxes(grads, 1, 2))
    return volumes[:, None, None] * (grads @ coeff @ np.swapaxes(grads, 1, 2))


def stacked_on_band(grads):
    return (grads != 0) @ np.ones(grads.shape[1]) > 0


# -- meshes -----------------------------------------------------------------

def _mesh(dim, kind, H):
    """A uniform mesh, the same with its vertices moved at random by up to
    a fifth of the spacing, or a mesh adapted to a sphere of radius
    0.45 H: fine in the band, coarse elsewhere, of several generations."""
    if kind in ("uniform", "moved"):
        N = 8 if dim == 2 else 4
        mesh = build_uniform_mesh(H, N, dim)
        if kind == "uniform":
            return mesh
        rng = np.random.default_rng(dim)
        x = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape) * 2.0 * H / N
        return SimplicialMesh(H, N, dim, mesh.bc_case, x, mesh.elements)
    N_c, N_f, cells = (4, 32, 3.0) if dim == 2 else (4, 16, 0.5)
    width = cells * 2.0 * H / N_f

    def phase(x):
        return np.clip((np.linalg.norm(x, axis=1) - 0.45 * H) / width, -1.0, 1.0)

    mesh, _ = adapt_to_interface(build_uniform_mesh(H, N_c, dim), phase, N_f, N_c)
    assert len(np.unique(mesh._gen)) > 1
    return mesh


def _fields(mesh, seed):
    """Two nodal fields with an interface band and flat parts (gradient 0)."""
    rng = np.random.default_rng(seed)
    r = np.linalg.norm(mesh.vertices, axis=1) / mesh.H
    phi = np.clip((r - 0.45) * 6.0, -1.0, 1.0)
    other = np.clip(phi + 0.1 * rng.standard_normal(mesh.n_vertices), -1.0, 1.0)
    return phi, other


MESHES = [(dim, kind) for dim in (2, 3) for kind in ("uniform", "adapted")]
ALL_MESHES = MESHES + [(2, "moved"), (3, "moved")]


@pytest.mark.parametrize("H", [0.5, 1.3])
@pytest.mark.parametrize("dim,kind", ALL_MESHES)
def test_geometry_and_field_gradients_match_stacked_kernels(dim, kind, H):
    mesh = _mesh(dim, kind, H)
    grads, volumes = stacked_geometry(mesh)
    assert mesh.grads.shape == (mesh.n_elements, dim + 1, dim)
    if kind == "moved":
        assert (grads != 0).all()
    assert np.array_equal(mesh.grads, grads)
    assert np.array_equal(mesh.volumes, volumes)
    rng = np.random.default_rng(dim)
    for values in (rng.standard_normal(mesh.n_vertices), *_fields(mesh, 1)):
        g = mesh.field_gradients(values)
        assert g.shape == (mesh.n_elements, dim)
        assert np.array_equal(g, stacked_field_gradients(mesh, grads, values))


@pytest.mark.parametrize("dim,kind", MESHES)
def test_local_matrices_match_stacked_product(dim, kind):
    mesh = _mesh(dim, kind, 0.5)
    grads, volumes = stacked_geometry(mesh)
    gradsT = mesh._finalize()["gradsT"]
    aniso = anisotropy_from_name(_ANISO[dim], dim)
    q, p = (mesh.field_gradients(f) for f in _fields(mesh, 2))
    band = np.flatnonzero(_on_band(q))
    assert 0 < band.size < mesh.n_elements
    B0 = aniso.b_matrix(*np.zeros((2, dim)))
    cases = [
        (volumes, gradsT, grads, None),
        (volumes, gradsT, grads, B0),
        (volumes.take(band), gradsT.take(band, axis=2), grads.take(band, axis=0),
         aniso.b_matrix(q.take(band, axis=0), p.take(band, axis=0))),
    ]
    for vol, gT, g, coeff in cases:
        local = _local_matrices(vol, gT, coeff)
        assert local.shape == (len(vol), dim + 1, dim + 1)
        assert local.flags.c_contiguous
        assert np.array_equal(local, stacked_local_matrices(vol, g, coeff))


@pytest.mark.parametrize("dim", [2, 3])
def test_local_matrices_match_stacked_product_in_summation_order(dim):
    # gradient components of random sign and power of two, none zero, make
    # every product exact and every sum depend on its order
    rng = np.random.default_rng(10 + dim)
    n = 400
    gradsT = rng.choice([-1.0, 1.0], (dim, dim + 1, n)) * 2.0 ** rng.integers(
        -4, 5, (dim, dim + 1, n))
    grads = np.ascontiguousarray(gradsT.transpose(2, 1, 0))
    volumes = rng.uniform(0.5, 1.0, n)
    for coeff in (None, rng.standard_normal((dim, dim)),
                  rng.standard_normal((n, dim, dim))):
        assert np.array_equal(_local_matrices(volumes, gradsT, coeff),
                              stacked_local_matrices(volumes, grads, coeff))


@pytest.mark.parametrize("H", [0.5, 1.3])
@pytest.mark.parametrize("dim,kind", ALL_MESHES)
def test_element_mean_of_the_conductivity_matches_stacked_mean(dim, kind, H):
    mesh = _mesh(dim, kind, H)
    phi, _ = _fields(mesh, 3)
    params = PhysicalParams(theta=0.5, rho=0.01, Kplus=1.0, Kminus=0.3,
                            eps=0.04, u_D=-1.0, H=H, bc_case="dirichlet",
                            R0=0.2, T_end=1e-3, tau=1e-3)
    sys = assemble_step_system(
        mesh, params, PotentialSpec("obstacle"),
        ShapeSpec("lin-minus", "for-negative-uD"),
        anisotropy_from_name(_ANISO[dim], dim), MobilitySpec("gamma"),
        phi, np.zeros(mesh.n_vertices))
    b_vertex = diffusivity_b(phi, params.Kplus, params.Kminus)
    b_elem = sys.heat["key"][2]
    assert np.unique(b_elem).size > 2
    assert np.array_equal(b_elem, b_vertex[mesh.elements].mean(axis=1))


@pytest.mark.parametrize("dim", [2, 3])
def test_on_band_matches_stacked_any_in_either_order(dim):
    rng = np.random.default_rng(4)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0])
    q = rng.choice(special, size=(500, dim), p=[0.5, 0.2, 0.05, 0.05, 0.05, 0.15])
    q[:20] = -0.0
    q[20:40, 0] = 5e-324
    expect = stacked_on_band(q)
    assert 20 <= expect.sum() < len(q) - 20
    for grads in (q, np.asfortranarray(q), np.ascontiguousarray(q.T).T):
        assert np.array_equal(_on_band(grads), expect)
    mesh = _mesh(dim, "adapted", 0.5)
    g = mesh.field_gradients(_fields(mesh, 5)[0])
    assert np.array_equal(_on_band(g), stacked_on_band(np.ascontiguousarray(g)))
