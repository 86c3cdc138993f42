import numpy as np
import pytest

from anisopf.errors import InvalidN, MeshMismatch
from anisopf.mesh import (
    NodalField,
    SimplicialMesh,
    adapt_to_interface,
    build_uniform_mesh,
    transfer_field,
)

from meshcheck import check_conforming, diameters, reference_locate


def circular_phase_at(x, R0=0.25, eps=1.0 / (16 * np.pi)):
    r = np.linalg.norm(x, axis=1)
    vals = np.sin((r - R0) / eps)
    vals[r <= R0 - eps * np.pi / 2] = -1.0
    vals[r >= R0 + eps * np.pi / 2] = 1.0
    return np.clip(vals, -1, 1)


def circular_phase(mesh, R0=0.25, eps=1.0 / (16 * np.pi)):
    return NodalField(circular_phase_at(mesh.vertices, R0, eps), mesh)


def test_uniform_2d_counts_and_area():
    m = build_uniform_mesh(0.5, 2, 2, "dirichlet")
    assert m.n_vertices == 9
    assert m.n_elements == 8
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(m.volumes > 0.0)


def test_uniform_2d_spacing():
    m = build_uniform_mesh(8.0, 128, 2, "dirichlet")
    xs = np.unique(m.vertices[:, 0])
    assert np.diff(xs).max() == pytest.approx(2 * 8.0 / 128)


def test_uniform_3d_counts_and_volume():
    m = build_uniform_mesh(0.5, 2, 3, "dirichlet")
    assert m.n_elements == 48
    assert m.n_vertices == 27
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    check_conforming(m)


def test_invalid_subdivisions():
    with pytest.raises(InvalidN):
        build_uniform_mesh(0.5, 1, 2)
    with pytest.raises(InvalidN):
        build_uniform_mesh(0.5, 3, 2)
    with pytest.raises(InvalidN):
        build_uniform_mesh(0.5, 4, 4)


@pytest.mark.parametrize("bc,expect_dirichlet", [
    ("dirichlet", "all"),
    ("neumann", "none"),
    ("mixed", "top"),
])
def test_boundary_tags(bc, expect_dirichlet):
    m = build_uniform_mesh(0.5, 4, 2, bc)
    onb = np.abs(m.vertices).max(axis=1) == 0.5
    assert onb.sum() == 16  # 4*N boundary vertices
    d = m.dirichlet_mask
    if expect_dirichlet == "all":
        assert np.array_equal(d, onb)
    elif expect_dirichlet == "none":
        assert not d.any()
    else:
        assert np.all(m.vertices[d, -1] == 0.5)
        assert d.sum() == 5
    assert not (d & ~onb).any()


def test_conformity_after_local_refinement():
    m = build_uniform_mesh(0.5, 4, 2, "dirichlet")
    for _ in range(25):
        eid, _ = reference_locate(m, np.array([[0.11, 0.07]]))
        m.refine([int(eid[0])], gen_cap=40)
    check_conforming(m)
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-12)


def test_conformity_after_local_refinement_3d():
    m = build_uniform_mesh(0.5, 2, 3, "neumann")
    for _ in range(15):
        eid, _ = reference_locate(m, np.array([[0.05, 0.02, -0.04]]))
        m.refine([int(eid[0])], gen_cap=40)
    check_conforming(m)
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-12)


def test_conformity_audit_rejects_hanging_node():
    # the square as two triangles, the second one bisected alone at the
    # midpoint of the shared diagonal
    coords = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5), (0.0, 0.0)]
    m = SimplicialMesh(0.5, 2, 2, "dirichlet", coords,
                       [(0, 1, 2), (1, 3, 4), (3, 2, 4)])
    with pytest.raises(AssertionError, match="has one owner"):
        check_conforming(m)


def test_conformity_audit_rejects_face_with_three_owners():
    u = build_uniform_mesh(0.5, 2, 2, "dirichlet")
    m = SimplicialMesh(0.5, 2, 2, "dirichlet", u.vertices,
                       np.vstack([u.elements, u.elements[3:4]]))
    with pytest.raises(AssertionError, match="shared by 3 elements"):
        check_conforming(m)


@pytest.mark.parametrize("dim,N_f,N_c", [(2, 32, 8), (3, 8, 4)])
def test_closed_form_geometry_matches_linalg(dim, N_f, N_c):
    m = build_uniform_mesh(0.5, N_f, dim, "dirichlet")
    out, _ = adapt_to_interface(m, circular_phase(m), N_f, N_c)
    P = out.vertices[out.elements]
    T = np.swapaxes(P[:, 1:] - P[:, :1], 1, 2)
    Tinv = np.linalg.inv(T)
    # a few hundred ulps on matrices whose condition number is at most ~10
    tol = 1e-13 * np.abs(Tinv).max()
    assert np.abs(out.grads[:, 1:] - Tinv).max() <= tol
    assert np.abs(out.grads[:, 0] + Tinv.sum(axis=1)).max() <= tol
    vol = np.abs(np.linalg.det(T)) / (2 if dim == 2 else 6)
    assert np.abs(out.volumes / vol - 1.0).max() <= 1e-13


def test_adapt_no_interface_is_coarse_mesh():
    m = build_uniform_mesh(0.5, 32, 2, "dirichlet")
    phi = NodalField(np.ones(m.n_vertices), m)
    out, _ = adapt_to_interface(m, phi, 32, 16)
    ref = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    assert out.n_elements == ref.n_elements
    assert out.n_vertices == ref.n_vertices


def test_adapt_everything_marked_reaches_fine_diameter():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = NodalField(np.zeros(m.n_vertices), m)
    out, _ = adapt_to_interface(m, phi, 32, 16)
    target = np.sqrt(2.0) * (1.0 / 32) * (1 + 1e-9)
    assert np.all(diameters(out) <= target)
    ref = build_uniform_mesh(0.5, 32, 2, "dirichlet")
    assert out.n_elements == ref.n_elements


def test_adapt_circular_interface_band():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = circular_phase(m)
    out, tmap = adapt_to_interface(m, phi, 64, 16)
    check_conforming(out)
    n_c = build_uniform_mesh(0.5, 16, 2, "dirichlet").n_elements
    n_f = build_uniform_mesh(0.5, 64, 2, "dirichlet").n_elements
    assert n_c < out.n_elements < n_f
    assert out.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    # the interface band is resolved at the fine diameter
    phi2 = transfer_field(phi, tmap)
    target = np.sqrt(2.0) * (1.0 / 64) * (1 + 1e-9)
    diam = diameters(out)
    for pos in range(out.n_elements):
        vals = phi2.values[out.elements[pos]]
        if np.any(np.abs(vals) < 1.0 - 1e-7):
            assert diam[pos] <= target


def test_adapt_validates_ratio():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = NodalField(np.ones(m.n_vertices), m)
    with pytest.raises(InvalidN):
        adapt_to_interface(m, phi, 48, 16)
    with pytest.raises(InvalidN):
        adapt_to_interface(m, phi, 8, 16)


def test_adapt_from_a_profile_refines_the_N_c_mesh_in_place():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    out, phi = adapt_to_interface(m, circular_phase_at, 32, 16)
    # the uniform N_f mesh has the same lattice coordinates, so its field
    # is the source that gives the same mesh and phase
    fine = build_uniform_mesh(0.5, 32, 2, "dirichlet")
    src = circular_phase(fine)
    ref, tmap = adapt_to_interface(fine, src, 32, 16)
    assert out is m and out.n_elements == ref.n_elements > 2 * 16 * 16
    assert np.array_equal(phi.values, transfer_field(src, tmap).values)
    # a profile is read on the N_c mesh only
    with pytest.raises(InvalidN):
        adapt_to_interface(fine, circular_phase_at, 32, 16)


def test_transfer_constant_and_linear_exact():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = circular_phase(m)
    out, tmap = adapt_to_interface(m, phi, 32, 16)
    const = transfer_field(NodalField(np.full(m.n_vertices, 0.7), m), tmap)
    assert np.all(const.values == pytest.approx(0.7, abs=1e-15))
    x = m.vertices
    lin = NodalField(1.5 * x[:, 0] - 2.0 * x[:, 1] + 0.25, m)
    got = transfer_field(lin, tmap)
    y = out.vertices
    expect = 1.5 * y[:, 0] - 2.0 * y[:, 1] + 0.25
    assert np.abs(got.values - expect).max() <= 1e-13


def test_transfer_preserves_range():
    rng = np.random.default_rng(0)
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = circular_phase(m)
    out, tmap = adapt_to_interface(m, phi, 32, 16)
    f = NodalField(rng.uniform(-1.0, 1.0, m.n_vertices), m)
    got = transfer_field(f, tmap)
    assert got.values.min() >= -1.0 and got.values.max() <= 1.0


def test_transfer_rejects_wrong_mesh():
    m = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    other = build_uniform_mesh(0.5, 16, 2, "dirichlet")
    phi = circular_phase(m)
    _, tmap = adapt_to_interface(m, phi, 32, 16)
    with pytest.raises(MeshMismatch):
        transfer_field(NodalField(np.ones(other.n_vertices), other), tmap)


def test_field_gradient_of_linear_is_exact():
    m = build_uniform_mesh(0.5, 8, 2, "dirichlet")
    x = m.vertices
    g = m.field_gradients(3.0 * x[:, 0] + 4.0 * x[:, 1] - 1.0)
    assert np.abs(g - np.array([3.0, 4.0])).max() <= 1e-13


def test_nodal_field_validates_length():
    m = build_uniform_mesh(0.5, 4, 2, "dirichlet")
    with pytest.raises(MeshMismatch):
        NodalField(np.ones(3), m)


def test_refinement_depth_cap_raises():
    from anisopf.errors import RefinementDepthExceeded

    m = build_uniform_mesh(0.5, 4, 2, "dirichlet")
    with pytest.raises(RefinementDepthExceeded):
        for _ in range(20):
            eid, _ = reference_locate(m, np.array([[0.01, 0.02]]))
            m.refine([int(eid[0])], gen_cap=4)


def test_radial_maxima_counter():
    from anisopf.measure import count_radial_maxima

    theta = np.arange(720) * 2 * np.pi / 720
    rng = np.random.default_rng(0)
    r = 1.0 + 0.1 * np.cos(6.0 * theta) + 1e-4 * rng.normal(size=720)
    assert count_radial_maxima(r) == 6
    assert count_radial_maxima(np.ones(720)) == 0
    assert count_radial_maxima(1.0 + 0.2 * np.cos(4.0 * theta)) == 4
