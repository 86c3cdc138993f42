from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from anisopf.anisotropy import (
    AnisotropyDensity,
    MobilitySpec,
    anisotropy_from_name,
    make_isotropic,
    make_regularized_l1,
)
from anisopf.assembly import (
    _on_band,
    anisotropic_stiffness,
    assemble_step_system,
    lumped_mass,
    stiffness,
)
from anisopf.errors import InconsistentDimensions, ZeroDirection
from anisopf.mesh import SimplicialMesh, adapt_to_interface, build_uniform_mesh
from anisopf.potentials import PotentialSpec, ShapeSpec
from anisopf.stepper import PhysicalParams, initial_phase


def single_triangle_mesh():
    """Right triangle (0,0), (1,0), (0,1) packed into the mesh structure."""
    return SimplicialMesh(1.0, 2, 2, "neumann",
                          [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


@pytest.fixture
def unit_mesh():
    return build_uniform_mesh(0.5, 4, 2, "dirichlet")


def test_lumped_mass_partition_of_unity(unit_mesh):
    M = lumped_mass(unit_mesh)
    assert M.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(M > 0.0)


def test_lumped_mass_single_triangle():
    M = lumped_mass(single_triangle_mesh())
    assert np.allclose(M, 1.0 / 6.0)


def test_lumped_mass_unit_mobility_weight(unit_mesh):
    aniso = make_regularized_l1(0.3, 2)
    mob = MobilitySpec("gamma")
    rng = np.random.default_rng(0)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    mu = mob.mu(aniso, unit_mesh.field_gradients(phi))
    assert np.allclose(mu, 1.0)
    assert np.allclose(lumped_mass(unit_mesh, mu), lumped_mass(unit_mesh))


def test_lumped_product_matches_vertex_quadrature(unit_mesh):
    # (u, v)^h for nodal u, v equals the element-wise vertex sum
    rng = np.random.default_rng(1)
    u = rng.normal(size=unit_mesh.n_vertices)
    v = rng.normal(size=unit_mesh.n_vertices)
    M = lumped_mass(unit_mesh)
    direct = float(np.sum(M * u * v))
    c = unit_mesh._finalize()
    ref = sum(vol / 3.0 * np.sum(u[el] * v[el])
              for vol, el in zip(c["volumes"], c["elements"]))
    assert direct == pytest.approx(ref, abs=1e-13)


def test_stiffness_reference_triangle():
    K = stiffness(single_triangle_mesh()).toarray()
    ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, ref, atol=1e-14)


def test_stiffness_kernel_and_linearity(unit_mesh):
    K = stiffness(unit_mesh)
    ones = np.ones(unit_mesh.n_vertices)
    assert np.abs(K @ ones).max() <= 1e-12
    K2 = stiffness(unit_mesh, 2.0)
    assert np.abs((K2 - 2.0 * K).toarray()).max() <= 1e-14


def test_stiffness_symmetry(unit_mesh):
    rng = np.random.default_rng(2)
    coeff = rng.uniform(0.5, 2.0, unit_mesh.n_elements)
    K = stiffness(unit_mesh, coeff)
    diff = np.abs((K - K.T).toarray()).max()
    assert diff <= 1e-13 * np.abs(K.toarray()).max()


def test_anisotropic_stiffness_isotropic_equals_plain(unit_mesh):
    iso = make_isotropic(2)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    B = anisotropic_stiffness(unit_mesh, iso, phi, phi)
    K = stiffness(unit_mesh)
    assert np.abs((B - K).toarray()).max() <= 1e-13


def test_anisotropic_stiffness_r1_ignores_iterate(unit_mesh):
    a = make_regularized_l1(0.3, 2)
    rng = np.random.default_rng(4)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    B1 = anisotropic_stiffness(unit_mesh, a, phi,
                               rng.uniform(-1, 1, unit_mesh.n_vertices))
    B2 = anisotropic_stiffness(unit_mesh, a, phi,
                               rng.uniform(-1, 1, unit_mesh.n_vertices))
    assert np.abs((B1 - B2).toarray()).max() == 0.0


def test_anisotropic_stiffness_positive_semidefinite():
    mesh = build_uniform_mesh(0.5, 4, 2, "dirichlet")  # 25 vertices
    a = anisotropy_from_name("hex2d:0.1")
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1, 1, mesh.n_vertices)
    cur = rng.uniform(-1, 1, mesh.n_vertices)
    B = anisotropic_stiffness(mesh, a, phi, cur).toarray()
    eig = np.linalg.eigvalsh(0.5 * (B + B.T))
    assert eig.min() >= -1e-10


def _default_setup(mesh, theta=0.0, rho=0.0, bc="dirichlet", u_D=-1.0,
                   Kplus=1.0, Kminus=1.0, shape_kind="lin-minus"):
    params = PhysicalParams(theta=theta, rho=rho, Kplus=Kplus, Kminus=Kminus,
                            eps=0.04, u_D=u_D, H=0.5, bc_case=bc,
                            R0=0.2, T_end=1e-3, tau=1e-3)
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec(shape_kind, "for-negative-uD")
    aniso = make_regularized_l1(0.3, 2)
    mob = MobilitySpec("gamma")
    return params, pot, sh, aniso, mob


def test_step_system_blocks(unit_mesh):
    rng = np.random.default_rng(6)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params, pot, sh, aniso, mob = _default_setup(unit_mesh)
    sys = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    # unit conductivities: A_diff equals the unweighted stiffness
    assert np.abs((sys.A_diff - stiffness(unit_mesh)).toarray()).max() <= 1e-13
    # rho = 0 removes the mobility contribution from C and g
    assert sys.c_mu == 0.0
    assert np.allclose(sys.g, sys.c_conc * sys.M * phi)
    # symmetric raw blocks
    for K in (sys.A_diff, sys.B_stiff):
        assert np.abs((K - K.T).toarray()).max() <= 1e-13 * max(
            1e-30, np.abs(K.toarray()).max())
    # Dirichlet rows of the heat block are identity rows
    assert sys.MW.format == "csc"
    d = np.nonzero(sys.dirichlet)[0]
    sub = sys.MW.toarray()[d]
    expect = np.zeros_like(sub)
    expect[np.arange(len(d)), d] = 1.0
    assert np.array_equal(sub, expect)
    assert np.all(sys.f_rhs(sys.M_rho)[d] == params.u_D)


def test_step_system_conservation_row_sum():
    mesh = build_uniform_mesh(0.5, 4, 2, "neumann")
    rng = np.random.default_rng(7)
    phi = rng.uniform(-1, 1, mesh.n_vertices)
    w = rng.normal(size=mesh.n_vertices)
    params, pot, sh, aniso, mob = _default_setup(mesh, bc="neumann", u_D=0.0,
                                                 shape_kind="const")
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi, w)
    ones = np.ones(mesh.n_vertices)
    # stiffness columns sum to zero, so testing the heat row with the
    # constant function reduces it to conservation of the rho-weighted phase
    assert np.abs(sys.A_diff.T @ ones).max() <= 1e-12
    assert float(ones @ (sys.MW @ w)) == pytest.approx(0.0, abs=1e-12)
    assert float(ones @ sys.f_rhs(sys.M_rho)) == pytest.approx(
        sys.lam * float(np.sum(sys.M_rho * phi)), abs=1e-13)


def test_theta_term_only_when_positive(unit_mesh):
    rng = np.random.default_rng(8)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params0, pot, sh, aniso, mob = _default_setup(unit_mesh, theta=0.0)
    params1, *_ = _default_setup(unit_mesh, theta=2.0)
    s0 = assemble_step_system(unit_mesh, params0, pot, sh, aniso, mob, phi, w)
    s1 = assemble_step_system(unit_mesh, params1, pot, sh, aniso, mob, phi, w)
    free = ~s0.dirichlet
    diff = (s1.MW - s0.MW).toarray()[free]
    expect = 2.0 * np.diag(s0.M)[free]
    assert np.allclose(diff, expect, atol=1e-14)


def _product_heat_block(sys):
    """The heat W-block as products with 0/1 diagonal matrices."""
    D_free = sp.diags((~sys.dirichlet).astype(float))
    MW = sys.theta * sp.diags(sys.M) + sys.tau * sys.A_diff
    return (D_free @ MW + sp.diags(sys.dirichlet.astype(float))).tocsc()


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "mixed"])
@pytest.mark.parametrize("theta", [0.0, 1.5])
def test_heat_blocks_match_product_expressions(bc, theta):
    mesh = build_uniform_mesh(0.5, 8, 2, bc)
    rng = np.random.default_rng(13)
    phi = rng.uniform(-1, 1, mesh.n_vertices)
    w = rng.normal(size=mesh.n_vertices)
    params, pot, sh, aniso, mob = _default_setup(mesh, theta=theta, rho=0.01,
                                                 bc=bc, Kplus=2.0)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi, w)
    want = _product_heat_block(sys)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sys.MW, name), getattr(want, name)), name


def _same_csr(K, ref):
    return K.format == ref.format and all(
        np.array_equal(getattr(K, name), getattr(ref, name))
        for name in ("indptr", "indices", "data"))


def _heat_setup(refine=None, **kw):
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    if refine is not None:
        mesh.refine(refine, 4)
    return (mesh,) + _default_setup(mesh, theta=1.5, **kw)


def _cold_heat_block(params, phi, w, refine=None):
    """A_diff and MW assembled on a fresh mesh, whose cache is empty."""
    mesh, _, pot, sh, aniso, mob = _heat_setup(refine)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi, w)
    return sys.A_diff, sys.MW


def test_heat_block_is_reused_while_conductivities_hold():
    mesh, params, pot, sh, aniso, mob = _heat_setup()
    rng = np.random.default_rng(21)
    phi0, phi1 = rng.uniform(-1, 1, (2, mesh.n_vertices))
    w = rng.normal(size=mesh.n_vertices)
    s0 = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi0, w)
    s1 = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi1, w)
    # K+ = K-: the conductivity does not see the phase
    assert s1.A_diff is s0.A_diff and s1.MW is s0.MW
    A, MW = _cold_heat_block(params, phi1, w)
    assert _same_csr(s1.A_diff, A) and _same_csr(s1.MW, MW)


def test_heat_block_follows_phase_step_size_and_mesh():
    mesh, params, pot, sh, aniso, mob = _heat_setup(Kplus=2.0)
    rng = np.random.default_rng(22)
    phi0, phi1 = rng.uniform(-1, 1, (2, mesh.n_vertices))
    w = rng.normal(size=mesh.n_vertices)
    s0 = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi0, w)
    # K+ != K-: a new phase gives new conductivities, never the stale block
    s1 = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi1, w)
    A, MW = _cold_heat_block(params, phi1, w)
    assert _same_csr(s1.A_diff, A) and _same_csr(s1.MW, MW)
    assert not _same_csr(s1.MW, s0.MW)
    # another tau or theta misses the cache
    for changed in (replace(params, tau=2e-3), replace(params, theta=0.0)):
        s = assemble_step_system(mesh, changed, pot, sh, aniso, mob, phi1, w)
        assert s.MW is not s1.MW
        assert _same_csr(s.MW, _cold_heat_block(changed, phi1, w)[1])
    # a refinement drops the cached block with the rest of the mesh cache
    mesh.refine([5], 4)
    assert "heat_block" not in mesh._finalize()
    phi = rng.uniform(-1, 1, mesh.n_vertices)
    w = rng.normal(size=mesh.n_vertices)
    s = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi, w)
    A, MW = _cold_heat_block(params, phi, w, refine=[5])
    assert _same_csr(s.A_diff, A) and _same_csr(s.MW, MW)


def test_gamma_mobility_is_exactly_one(monkeypatch):
    aniso = make_regularized_l1(0.3, 2)
    mob = MobilitySpec("gamma")
    rng = np.random.default_rng(14)
    p = rng.normal(size=(40, 2))
    p[::5] = 0.0
    # the former evaluation: gamma / beta with beta = gamma, and the value
    # gamma(e1) / beta(e1) where p = 0
    g = b = aniso.gamma(p)
    want = np.where(b > 0.0, g / np.where(b > 0.0, b, 1.0), mob.fallback(aniso))
    calls = []

    def counting_gamma(q, gamma=aniso.gamma):
        calls.append(np.ndim(q))
        return gamma(q)

    monkeypatch.setattr(aniso, "gamma", counting_gamma)
    got = mob.mu(aniso, p)
    single = (mob.mu(aniso, p[1]), mob.mu(aniso, p[0]))
    assert calls == []
    assert got.shape == want.shape and np.array_equal(got, want)
    assert single == (1.0, 1.0)


def test_weight_length_validation(unit_mesh):
    with pytest.raises(InconsistentDimensions):
        lumped_mass(unit_mesh, np.ones(3))
    with pytest.raises(InconsistentDimensions):
        stiffness(unit_mesh, np.ones(3))


def test_rebuild_tracks_iterate(unit_mesh):
    rng = np.random.default_rng(9)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params = PhysicalParams(theta=0.0, rho=0.0, eps=0.04, u_D=-1.0, H=0.5,
                            R0=0.2, tau=1e-3)
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    aniso = make_regularized_l1(0.3, 2)
    mob = MobilitySpec("gamma")
    sys = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    assert sys.coefficients_move
    U = rng.uniform(-1, 1, unit_mesh.n_vertices)
    expected = sys.M * (sh.rho_minus(phi) + sh.rho_plus(U))
    assert np.allclose(sys.m_rho_diag(U), expected)


@pytest.mark.parametrize("kind", ["const", "lin-minus", "lin-plus",
                                  "quartic-shape"])
@pytest.mark.parametrize("split", ["for-negative-uD", "for-positive-uD"])
def test_obstacle_coupling_weight_is_unclamped(unit_mesh, kind, split):
    # the clamp of the implicit argument at +-m >= 2 never acts on the
    # obstacle box, so the weight is the plain rho-(old) + rho+(new)
    rng = np.random.default_rng(15)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params, pot, _, aniso, mob = _default_setup(unit_mesh)
    sh = ShapeSpec(kind, split)
    sys = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    U = rng.uniform(-1, 1, unit_mesh.n_vertices)
    U[:4] = [-1.0, 1.0, 0.0, -0.0]
    for s in (U, phi):
        want = sys.M * (sh.rho_minus(phi) + sh.rho_plus(s))
        assert np.array_equal(sys.m_rho_diag(s), want)
    assert np.array_equal(sys.M_rho, sys.m_rho_diag(phi))


# -- oracles for the batched kernels ------------------------------------
# Test-local einsum/COO references: the formulas the kernels compute,
# written term by term.

def _einsum_stiffness(mesh, coeff=None):
    elements, volumes, grads = mesh.elements, mesh.volumes, mesh.grads
    ne, d1, _ = grads.shape
    coeff = np.ones(ne) if coeff is None else np.asarray(coeff, dtype=float)
    if coeff.ndim == 0:
        coeff = np.full(ne, float(coeff))
    if coeff.ndim == 1:
        local = np.einsum("e,ekd,emd->ekm", volumes * coeff, grads, grads)
    else:
        local = np.einsum("e,ekd,edf,emf->ekm", volumes, grads, coeff, grads)
    rows = np.repeat(elements, d1, axis=1).ravel()
    cols = np.tile(elements, (1, d1)).ravel()
    nv = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def _einsum_gamma_l(a, p):
    quad = np.einsum("...i,lij,...j->...l", p, a.matrices, p)
    return np.sqrt(np.maximum(quad, 0.0))


def _einsum_b_matrix(a, q, p):
    r, L = a.exponent, a.nmat
    gl_p, gl_q = _einsum_gamma_l(a, p), _einsum_gamma_l(a, q)
    g_p = (gl_p**r).sum(axis=-1) ** (1.0 / r)
    g_q = (gl_q**r).sum(axis=-1) ** (1.0 / r)
    w = np.ones_like(gl_p)
    if r != 1.0:
        pos = g_p[..., None] > 0.0
        w = np.where(pos, gl_p / np.where(pos, g_p[..., None], 1.0), 1.0) ** (r - 1.0)
    coef = np.where((g_q == 0.0)[..., None], L ** (1.0 / r),
                    g_q[..., None] / np.where(gl_q > 0.0, gl_q, 1.0))
    return np.einsum("...l,lij->...ij", coef * w, a.matrices)


def _einsum_a_prime(a, p):
    r = a.exponent
    gl = _einsum_gamma_l(a, p)
    g = (gl**r).sum(axis=-1) ** (1.0 / r)
    w = np.ones_like(gl)
    if r != 1.0:
        pos = g[..., None] > 0.0
        w = np.where(pos, gl / np.where(pos, g[..., None], 1.0), 1.0) ** (r - 1.0)
    Gp = np.einsum("lij,...j->...li", a.matrices, p)
    coef = np.where(gl > 0.0, g[..., None] * w / np.where(gl > 0.0, gl, 1.0), 0.0)
    return np.einsum("...l,...li->...i", coef, Gp)


def _einsum_gamma_grad(a, p):
    r = a.exponent
    gl = _einsum_gamma_l(a, p)
    g = (gl**r).sum(axis=-1) ** (1.0 / r)
    w = (gl / g[..., None]) ** (r - 1.0)
    Gp = np.einsum("lij,...j->...li", a.matrices, p)
    return np.einsum("...l,...li->...i", w / gl, Gp)


def _add_at_lumped_mass(mesh, weight=None):
    d1 = mesh.dim + 1
    vol = mesh.volumes if weight is None else mesh.volumes * weight
    diag = np.zeros(mesh.n_vertices)
    np.add.at(diag, mesh.elements.ravel(), np.repeat(vol / d1, d1))
    return diag


def _assert_csr_close(K, ref, rtol=1e-13):
    ref = ref.copy()
    ref.sort_indices()
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.abs(K.data - ref.data).max() <= rtol * np.abs(ref.data).max()


KERNEL_MESHES = [(2, 8), (3, 4)]


@pytest.mark.parametrize("dim,N", KERNEL_MESHES)
@pytest.mark.parametrize("kind", ["none", "scalar", "element", "matrix"])
def test_stiffness_matches_einsum_reference(dim, N, kind):
    mesh = build_uniform_mesh(0.5, N, dim, "neumann")
    rng = np.random.default_rng(dim)
    ne = mesh.n_elements
    if kind == "none":
        coeff = None
    elif kind == "scalar":
        coeff = 1.7
    elif kind == "element":
        coeff = rng.uniform(0.5, 2.0, ne)
    else:
        X = rng.normal(size=(ne, dim, dim))
        coeff = X @ np.swapaxes(X, 1, 2) + 0.1 * np.eye(dim)
    _assert_csr_close(stiffness(mesh, coeff), _einsum_stiffness(mesh, coeff))


@pytest.mark.parametrize("name,dim", [("hex2d-rot:0.1", 2), ("ani1:0.3", 2),
                                      ("cube3d:0.3:9", 3), ("hexprism3d:0.2", 3),
                                      ("ani1:0.3", 3)])
def test_gamma_l_and_b_matrix_match_einsum_reference(name, dim):
    a = anisotropy_from_name(name, dim)
    rng = np.random.default_rng(7)
    P = rng.uniform(-3.0, 3.0, size=(200, dim))
    Q = rng.uniform(-3.0, 3.0, size=(200, dim))
    P[0] = 0.0
    Q[1] = 0.0
    P[2] = Q[2] = 0.0
    for p in (P, P[5], P.reshape(20, 10, dim)):
        ref = _einsum_gamma_l(a, p)
        assert a.gamma_l(p).shape == ref.shape
        assert np.abs(a.gamma_l(p) - ref).max() <= 1e-13 * np.abs(ref).max()
    for q, p in ((Q, P), (Q[5], P[5]), (Q[1], P[0])):
        ref = _einsum_b_matrix(a, q, p)
        B = a.b_matrix(q, p)
        assert B.shape == ref.shape
        assert np.abs(B - ref).max() <= 1e-13 * np.abs(ref).max()
    for p in (P, P[5], P.reshape(20, 10, dim)):
        ref = _einsum_a_prime(a, p)
        assert a.a_prime(p).shape == ref.shape
        assert np.abs(a.a_prime(p) - ref).max() <= 1e-13 * np.abs(ref).max()
    for p in (P[3:], P[5], P[10:].reshape(19, 10, dim)):
        ref = _einsum_gamma_grad(a, p)
        assert a.gamma_grad(p).shape == ref.shape
        assert np.abs(a.gamma_grad(p) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.all(a.a_prime(P[0]) == 0.0)
    assert np.all(a.a_prime(P)[[0, 2]] == 0.0)
    with pytest.raises(ZeroDirection):
        a.gamma_grad(P)


@pytest.mark.parametrize("dim,N", KERNEL_MESHES)
def test_field_gradients_and_lumped_mass_match_reference(dim, N):
    mesh = build_uniform_mesh(0.5, N, dim, "dirichlet")
    rng = np.random.default_rng(11)
    u = rng.normal(size=mesh.n_vertices)
    ref = np.einsum("ekd,ek->ed", mesh.grads, u[mesh.elements])
    assert np.abs(mesh.field_gradients(u) - ref).max() <= 1e-13 * np.abs(ref).max()
    we = rng.uniform(0.5, 2.0, mesh.n_elements)
    for args in ((), (we,)):
        ref = _add_at_lumped_mass(mesh, *args)
        assert np.abs(lumped_mass(mesh, *args) - ref).max() <= 1e-13 * ref.max()


def test_stiffness_pattern_follows_refinement():
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    rng = np.random.default_rng(12)
    _assert_csr_close(stiffness(mesh), _einsum_stiffness(mesh))
    # an in-place bisection drops the cached pattern with the geometry
    mesh.refine([5], 4)
    coeff = rng.uniform(0.5, 2.0, mesh.n_elements)
    _assert_csr_close(stiffness(mesh, coeff), _einsum_stiffness(mesh, coeff))
    phi = initial_phase(mesh, 0.2, 1.0 / (16.0 * np.pi))
    new, _ = adapt_to_interface(mesh, phi, 32, 8)
    assert new.n_vertices != mesh.n_vertices
    coeff = rng.uniform(0.5, 2.0, new.n_elements)
    _assert_csr_close(stiffness(new, coeff), _einsum_stiffness(new, coeff))


# -- band assembly and the per-mesh caches --------------------------------

def _slab(mesh, shift):
    """Phase field that is +-1 off a slab crossing the whole box, so that
    its interface band reaches the boundary."""
    n = np.array([1.0, 0.3, 0.2][:mesh.dim])
    return np.clip(5.0 * (mesh.vertices @ n - shift), -1.0, 1.0)


@pytest.mark.parametrize("name,dim,r", [("hex2d-rot:0.1", 2, 1.0),
                                        ("hex2d-rot:0.1", 2, 3.0),
                                        ("ani1:0.3", 3, 1.0),
                                        ("cube3d:0.3:2", 3, 2.0)])
def test_band_assembly_matches_full_assembly(name, dim, r):
    mesh = build_uniform_mesh(0.5, 8 if dim == 2 else 4, dim, "dirichlet")
    a = AnisotropyDensity(anisotropy_from_name(name, dim).matrices, r)
    phi_prev, phi_cur = _slab(mesh, 0.0), _slab(mesh, 0.2)
    q, p = mesh.field_gradients(phi_prev), mesh.field_gradients(phi_cur)
    band = q.any(axis=1)
    # the band reaches the boundary, and the iterate's gradient is nonzero
    # on elements where the previous one is zero
    assert not band.all() and mesh.dirichlet_mask[mesh.elements[band]].any()
    assert (p.any(axis=1) & ~band).any()
    for cur in (phi_prev, phi_cur, phi_prev.copy()):
        ref = stiffness(mesh, a.b_matrix(q, mesh.field_gradients(cur)))
        _assert_csr_close(anisotropic_stiffness(mesh, a, phi_prev, cur), ref)
    _assert_csr_close(anisotropic_stiffness(mesh, a, phi_prev, phi_cur, q=q),
                      stiffness(mesh, a.b_matrix(q, p)))


def _cold_anisotropic_stiffness(a, phi, refine=None):
    """anisotropic_stiffness on a fresh mesh, whose cache is empty."""
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    if refine is not None:
        mesh.refine(refine, 4)
    return anisotropic_stiffness(mesh, a, phi, phi)


def test_off_band_matrices_are_cached_per_density_and_mesh():
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    phi, other = _slab(mesh, 0.0), _slab(mesh, 0.2)
    a1, a2 = anisotropy_from_name("hex2d-rot:0.1"), make_regularized_l1(0.3, 2)
    # two densities on one mesh each get their own stiffness, with the
    # bits of a cold cache
    for a in (a1, a2, a1):
        B = anisotropic_stiffness(mesh, a, phi, phi)
        assert _same_csr(B, _cold_anisotropic_stiffness(a, phi))
    assert not _same_csr(B, anisotropic_stiffness(mesh, a2, phi, phi))
    # keyed on the value of B0, not on the density object
    cached = mesh._finalize()["aniso_off_band"][1]
    B = anisotropic_stiffness(mesh, AnisotropyDensity(a2.matrices), other, other)
    assert mesh._finalize()["aniso_off_band"][1] is cached
    assert _same_csr(B, _cold_anisotropic_stiffness(a2, other))
    # a refinement drops the cached matrices with the rest of the mesh cache
    mesh.refine([5], 4)
    assert "aniso_off_band" not in mesh._finalize()
    phi = _slab(mesh, 0.0)
    assert _same_csr(anisotropic_stiffness(mesh, a2, phi, phi),
                     _cold_anisotropic_stiffness(a2, phi, refine=[5]))


def test_each_element_matrix_is_computed_once_per_band(monkeypatch):
    from anisopf import assembly

    rows = []
    local = assembly._local_matrices

    def counted(volumes, grads, coeff):
        rows.append(len(volumes))
        return local(volumes, grads, coeff)

    monkeypatch.setattr(assembly, "_local_matrices", counted)
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    a = anisotropy_from_name("hex2d-rot:0.1")
    phi, other = _slab(mesh, 0.0), _slab(mesh, 0.2)
    band, moved = (mesh.field_gradients(f).any(axis=1) for f in (phi, other))
    # a cold call computes every element matrix once: B0 off the band
    B = anisotropic_stiffness(mesh, a, phi, phi)
    assert sum(rows) == mesh.n_elements and 0 < band.sum() < mesh.n_elements
    # a warm call computes the band, and B0 only where the band has left
    rows.clear()
    assert _same_csr(anisotropic_stiffness(mesh, a, phi, phi), B)
    assert rows == [band.sum()]
    rows.clear()
    anisotropic_stiffness(mesh, a, other, other)
    assert (band & ~moved).any()
    assert sum(rows) == moved.sum() + (band & ~moved).sum()


def test_c_matrix_is_the_sum_on_the_stiffness_pattern():
    mesh = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    rng = np.random.default_rng(23)
    phi = _slab(mesh, 0.0)
    w = rng.normal(size=mesh.n_vertices)
    params, pot, sh, aniso, mob = _default_setup(mesh, rho=0.01)
    sys = assemble_step_system(mesh, params, pot, sh, aniso, mob, phi, w)
    # B0 is a multiple of the identity for the regularized l1 density, so
    # off the band the stiffness holds entries that are exactly zero
    assert sys.c_mu > 0.0 and (sys.B_stiff.data == 0.0).any()
    before = sys.B_stiff.copy()
    cur = rng.uniform(-1, 1, mesh.n_vertices)
    for B in (None, anisotropic_stiffness(mesh, aniso, phi, cur)):
        want = (sp.diags(sys.c_mu * sys.M_mu)
                + sys.c_B * (before if B is None else B)).tocsr()
        assert _same_csr(sys.c_matrix(B), want)
    assert _same_csr(sys.B_stiff, before)


def test_unweighted_lumped_mass_is_cached_read_only(unit_mesh):
    M = lumped_mass(unit_mesh)
    assert lumped_mass(unit_mesh) is M and not M.flags.writeable
    with pytest.raises(ValueError):
        M[0] = 1.0
    # weighted diagonals are computed per call and stay writable
    Mw = lumped_mass(unit_mesh, np.ones(unit_mesh.n_elements))
    assert Mw is not M and Mw.flags.writeable and np.array_equal(Mw, M)
    assert lumped_mass(unit_mesh) is M


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_step_system_takes_one_phase_gradient(unit_mesh, monkeypatch, r):
    rng = np.random.default_rng(24)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params, pot, sh, aniso, _ = _default_setup(unit_mesh, rho=0.01)
    aniso = AnisotropyDensity(aniso.matrices, r)
    mob = MobilitySpec("flat", 1)
    want = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    calls = []
    gradients = unit_mesh.field_gradients

    def counting(values):
        calls.append(values)
        return gradients(values)

    monkeypatch.setattr(unit_mesh, "field_gradients", counting)
    sys = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    assert len(calls) == 1
    assert sys.M is lumped_mass(unit_mesh)
    assert np.array_equal(sys.M_mu, want.M_mu)
    assert _same_csr(sys.B_stiff, want.B_stiff)


def test_b_matrix_at_reuses_the_previous_phase_gradient(unit_mesh,
                                                       monkeypatch):
    rng = np.random.default_rng(26)
    phi = rng.uniform(-1, 1, unit_mesh.n_vertices)
    w = rng.normal(size=unit_mesh.n_vertices)
    params, pot, sh, aniso, mob = _default_setup(unit_mesh, rho=0.01)
    aniso = AnisotropyDensity(aniso.matrices, 2.0)
    sys = assemble_step_system(unit_mesh, params, pot, sh, aniso, mob, phi, w)
    U = rng.uniform(-1, 1, unit_mesh.n_vertices)
    want = anisotropic_stiffness(unit_mesh, aniso, phi, U)
    calls = []
    gradients = unit_mesh.field_gradients

    def counting(values):
        calls.append(values)
        return gradients(values)

    monkeypatch.setattr(unit_mesh, "field_gradients", counting)
    B = sys.b_matrix_at(U)
    # grad Phi_old comes from the step system, only grad U is computed
    assert len(calls) == 1 and calls[0] is U
    assert _same_csr(B, want)


@pytest.mark.parametrize("d", [2, 3])
def test_band_mask_is_the_rows_with_a_nonzero_entry(d):
    special = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [5e-324, 0.0, 0.0],
                        [0.0, -0.0, -2.0], [np.nan, 0.0, 0.0],
                        [np.nan, np.nan, np.nan], [0.0, np.inf, -0.0]])[:, :d]
    rng = np.random.default_rng(27)
    q = rng.normal(size=(200, d)) * (rng.uniform(size=(200, d)) < 0.3)
    q[rng.uniform(size=q.shape) < 0.2] = -0.0
    q = np.vstack([special, q])
    band = q.any(axis=1)
    assert band.any() and not band.all()
    assert np.array_equal(_on_band(q), band)
