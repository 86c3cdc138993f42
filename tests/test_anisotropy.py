import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisopf.anisotropy import (
    AnisotropyDensity,
    MobilitySpec,
    anisotropy_from_name,
    make_isotropic,
    make_regularized_l1,
    make_rotated_family,
    mobility_from_name,
    verify_anisotropy_inequalities,
)
from anisopf.errors import InvalidDelta, NotRotation, ZeroDirection

PRESETS = {
    "iso": make_isotropic(2),
    "ani1_03": make_regularized_l1(0.3, 2),
    "ani1_001": make_regularized_l1(0.01, 2),
    "hex": anisotropy_from_name("hex2d:0.1"),
    "cube9": anisotropy_from_name("cube3d:0.3:9"),
}


def rand_dirs(a, n, seed=0, lo=0.1, hi=10.0):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, a.dim))
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    radii = rng.uniform(lo, hi, size=(n, 1))
    return p / norms * radii


def test_gamma_isotropic_345():
    assert make_isotropic(2).gamma([3.0, 4.0]) == pytest.approx(5.0)


def test_gamma_regularized_l1_axis():
    a = make_regularized_l1(0.3, 2)
    assert a.gamma([1.0, 0.0]) == pytest.approx(1.3)


def test_gamma_zero_iff_zero():
    for a in PRESETS.values():
        assert a.gamma(np.zeros(a.dim)) == 0.0
        assert a.gamma(0.37 * np.ones(a.dim)) > 0.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_homogeneity(name):
    a = PRESETS[name]
    P = rand_dirs(a, 50, seed=3)
    g = a.gamma(P)
    for lam in (-3, -2, -1, 1, 2, 3):
        assert np.all(np.abs(a.gamma(lam * P) - abs(lam) * g) <= 1e-12 * g)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_euler_identity(name):
    a = PRESETS[name]
    P = rand_dirs(a, 50, seed=4)
    grad = a.gamma_grad(P)
    g = a.gamma(P)
    assert np.all(np.abs(np.einsum("ni,ni->n", grad, P) - g) <= 1e-12 * g)


def test_grad_isotropic():
    assert make_isotropic(2).gamma_grad([3.0, 4.0]) == pytest.approx([0.6, 0.8])


def test_grad_zero_raises():
    with pytest.raises(ZeroDirection):
        PRESETS["ani1_03"].gamma_grad(np.zeros(2))


def _fd_gradient(fun, p, step):
    g = np.zeros_like(p)
    for i in range(len(p)):
        e = np.zeros_like(p)
        e[i] = step
        g[i] = (fun(p + e) - fun(p - e)) / (2.0 * step)
    return g


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_gradient_matches_finite_differences(name):
    a = PRESETS[name]
    for p in rand_dirs(a, 25, seed=11):
        h = 1e-6 * np.linalg.norm(p)
        fd = _fd_gradient(a.gamma, p, h)
        grad = a.gamma_grad(p)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gradient_fd_spec_point():
    a = PRESETS["ani1_03"]
    p = np.array([1.0, 1.0])
    fd = _fd_gradient(a.gamma, p, 1e-6 * np.linalg.norm(p))
    assert np.linalg.norm(a.gamma_grad(p) - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_prime_matches_fd_of_half_gamma_sq(name):
    a = PRESETS[name]

    def half_g2(p):
        return 0.5 * a.gamma(p) ** 2

    for p in rand_dirs(a, 25, seed=12):
        fd = _fd_gradient(half_g2, p, 1e-6 * np.linalg.norm(p))
        ap = a.a_prime(p)
        assert np.linalg.norm(ap - fd) <= 1e-6 * np.linalg.norm(fd)


def test_a_prime_spec_points():
    iso = PRESETS["iso"]
    assert iso.a_prime(np.zeros(2)) == pytest.approx([0.0, 0.0])
    assert iso.a_prime([3.0, 4.0]) == pytest.approx([3.0, 4.0])
    a = PRESETS["ani1_03"]
    p = np.array([2.0, -1.0])
    fd = _fd_gradient(lambda q: 0.5 * a.gamma(q) ** 2, p, 1e-6 * np.linalg.norm(p))
    assert np.linalg.norm(a.a_prime(p) - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_prime_dot_p_is_gamma_squared(name):
    a = PRESETS[name]
    P = rand_dirs(a, 40, seed=13)
    lhs = np.einsum("ni,ni->n", a.a_prime(P), P)
    rhs = a.gamma(P) ** 2
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)


def test_b_matrix_isotropic_is_identity():
    iso = PRESETS["iso"]
    for q in ([0.0, 0.0], [1.0, 2.0]):
        for p in ([0.0, 0.0], [3.0, -1.0]):
            assert iso.b_matrix(q, p) == pytest.approx(np.eye(2))


def test_b_matrix_r1_independent_of_p():
    a = PRESETS["ani1_03"]
    rng = np.random.default_rng(5)
    q = np.array([0.4, -1.1])
    base = a.b_matrix(q, np.zeros(2))
    for p in rng.normal(size=(100, 2)):
        assert np.allclose(a.b_matrix(q, p), base, rtol=0.0, atol=1e-15)


def test_b_matrix_diagonal_identity():
    a = PRESETS["cube9"]
    for p in rand_dirs(a, 30, seed=6):
        lhs = a.b_matrix(p, p) @ p
        rhs = a.a_prime(p)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_b_matrix_cholesky(name):
    a = PRESETS[name]
    rng = np.random.default_rng(7)
    pairs = list(rng.uniform(-5, 5, size=(20, 2, a.dim)))
    z = np.zeros(a.dim)
    pairs += [(z, z), (z, pairs[0][1]), (pairs[0][0], z)]
    for q, p in pairs:
        np.linalg.cholesky(a.b_matrix(q, p))  # raises if not SPD


def test_mobility_gamma_unity():
    a = PRESETS["ani1_03"]
    m = MobilitySpec("gamma")
    assert m.mu(a, np.array([1.3, -0.2])) == pytest.approx(1.0)
    assert m.fallback(a) == pytest.approx(1.0)
    assert m.mu(a, np.zeros(2)) == pytest.approx(1.0)


def test_mobility_flat_axis_value():
    a = make_regularized_l1(0.3, 3)
    m = mobility_from_name("flat:3")
    p = np.array([0.0, 0.0, 1.0])
    assert m.mu(a, p) == pytest.approx(a.gamma(p) / 1e-3)


def test_mobility_fallback_in_admissible_range():
    a = PRESETS["hex"]
    m = MobilitySpec("gamma")
    P = rand_dirs(a, 200, seed=8)
    ratios = a.gamma(P) / m.beta(a, P)
    bar = m.fallback(a)
    assert ratios.min() - 1e-12 <= bar <= ratios.max() + 1e-12


def test_make_regularized_l1_validates():
    with pytest.raises(InvalidDelta):
        make_regularized_l1(0.0, 2)
    with pytest.raises(InvalidDelta):
        make_regularized_l1(1.0, 2)


def test_make_regularized_l1_near_one_is_near_euclidean():
    a = make_regularized_l1(0.999, 2)
    p = np.array([1.0, 1.0])
    brute = sum(np.sqrt(0.999**2 * p @ p + pj**2 * (1 - 0.999**2)) for pj in p)
    assert a.gamma(p) == pytest.approx(brute, rel=1e-14)
    assert a.gamma(p) == pytest.approx(2.0 * np.sqrt(2.0), rel=2e-3)


def test_rotated_family_identity_is_isotropic():
    a = make_rotated_family(1.0, [np.eye(2)], 1.0)
    P = rand_dirs(a, 20, seed=9)
    assert np.allclose(a.gamma(P), np.linalg.norm(P, axis=1))


def test_rotated_family_rejects_non_rotation():
    with pytest.raises(NotRotation):
        make_rotated_family(0.5, [np.array([[1.0, 0.1], [0.0, 1.0]])])
    with pytest.raises(NotRotation):
        make_rotated_family(0.5, [np.diag([1.0, -1.0])])  # det = -1


def test_hexagonal_sixfold_symmetry():
    a = anisotropy_from_name("hex2d:0.1")
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    R = np.array([[c, -s], [s, c]])
    P = rand_dirs(a, 50, seed=10)
    assert np.all(np.abs(a.gamma(P @ R.T) - a.gamma(P)) <= 1e-12 * a.gamma(P))


def test_preset_registry_names():
    assert anisotropy_from_name("iso", dim=3).dim == 3
    assert anisotropy_from_name("ani1:0.3", dim=2).nmat == 2
    assert anisotropy_from_name("hex2d:0.1").nmat == 3
    assert anisotropy_from_name("hex2d-rot:0.1").nmat == 3
    a = anisotropy_from_name("cube3d:0.3:9")
    assert a.dim == 3 and a.exponent == 9.0 and a.nmat == 3
    assert anisotropy_from_name("hexprism3d:0.2").nmat == 4
    assert anisotropy_from_name("hexprism3d:0.2:rot").dim == 3
    with pytest.raises(ValueError):
        anisotropy_from_name("nope")
    with pytest.raises(ValueError):
        mobility_from_name("nope")


# Test-local copies of the former per-preset constructors, kept to pin the
# matrices of every preset spelling bit for bit.

def _rot2d_ref(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rot3d_z_ref(angle):
    R = np.eye(3)
    R[:2, :2] = _rot2d_ref(angle)
    return R


_E1_TO_E3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _hex2d_ref(delta, extra_angle=0.0):
    angles = [extra_angle + k * np.pi / 3 for k in range(3)]
    return make_rotated_family(delta, [_rot2d_ref(t) for t in angles], 1.0)


def _cube3d_ref(delta, exponent, rotated=False):
    rots = [np.eye(3), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            _E1_TO_E3]
    a = make_rotated_family(delta, rots, exponent)
    if rotated:
        R = _rot3d_z_ref(np.pi / 12)
        return AnisotropyDensity(np.array([R.T @ G @ R for G in a.matrices]),
                                 a.exponent)
    return a


def _hexprism3d_ref(delta, extra_angle=0.0):
    rots = [_rot3d_z_ref(extra_angle + k * np.pi / 3) for k in range(3)]
    return make_rotated_family(delta, rots + [_E1_TO_E3], 1.0)


def test_presets_match_parent_constructors():
    t = np.pi / 12
    cases = [
        ("iso", 2, make_isotropic(2)), ("iso", 3, make_isotropic(3)),
        ("ani1:0.3", 2, make_regularized_l1(0.3, 2)),
        ("ani1:0.3", 3, make_regularized_l1(0.3, 3)),
        ("hex2d:0.1", 2, _hex2d_ref(0.1)),
        ("hex2d-rot:0.1", 2, _hex2d_ref(0.1, 0.0 + t)),
        ("hex2d:0.1:rot", 2, _hex2d_ref(0.1, t)),
        ("hex2d-rot:0.1:rot", 2, _hex2d_ref(0.1, t + t)),
        ("cube3d:0.3:9", 3, _cube3d_ref(0.3, 9.0)),
        ("cube3d:0.3:2:rot", 3, _cube3d_ref(0.3, 2.0, rotated=True)),
        ("hexprism3d:0.2", 3, _hexprism3d_ref(0.2)),
        ("hexprism3d:0.2:rot", 3, _hexprism3d_ref(0.2, t)),
    ]
    for name, dim, ref in cases:
        a = anisotropy_from_name(name, dim)
        assert np.array_equal(a.matrices, ref.matrices), name
        assert a.exponent == ref.exponent, name
    for name in ("iso:rot", "ani1:0.3:rot", "hex2d", "cube3d:0.3", "hex2d:0.1:0.2",
                 "rot"):
        with pytest.raises(ValueError):
            anisotropy_from_name(name)


def test_density_validation():
    with pytest.raises(ValueError):
        AnisotropyDensity(np.array([[[1.0, 0.5], [0.4, 1.0]]]))  # asymmetric
    with pytest.raises(ValueError):
        AnisotropyDensity(np.array([[[1.0, 0.0], [0.0, -1.0]]]))  # indefinite
    with pytest.raises(ValueError):
        AnisotropyDensity(np.eye(2)[None], exponent=0.5)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_inequality_harness_clean(name):
    report = verify_anisotropy_inequalities(PRESETS[name], 20_000, seed=42)
    assert report.total_violations == 0


def test_inequality_equality_at_p_equals_q():
    a = PRESETS["ani1_03"]
    p = np.array([1.5, -0.4])
    lhs = (a.b_matrix(p, p) @ p) @ (p - p)
    rhs = 0.5 * a.gamma(p) ** 2 - 0.5 * a.gamma(p) ** 2
    assert lhs == 0.0 and rhs == 0.0


def test_harness_seeded_and_counts():
    a = PRESETS["hex"]
    r1 = verify_anisotropy_inequalities(a, 5000, seed=1)
    r2 = verify_anisotropy_inequalities(a, 5000, seed=1)
    assert r1.violations == r2.violations
    assert set(r1.violations) == {
        "component_bound", "dual_estimate", "a_prime_monotone",
        "b_monotone", "b_energy_stable"}


@settings(max_examples=60, deadline=None)
@given(
    px=st.floats(-10, 10), py=st.floats(-10, 10),
    lam=st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3),
)
def test_homogeneity_property(px, py, lam):
    a = PRESETS["ani1_03"]
    p = np.array([px, py])
    g = float(a.gamma(p))
    assert abs(float(a.gamma(lam * p)) - abs(lam) * g) <= 1e-12 * (1.0 + g)


@settings(max_examples=60, deadline=None)
@given(
    qx=st.floats(-10, 10), qy=st.floats(-10, 10),
    px=st.floats(-10, 10), py=st.floats(-10, 10),
)
def test_b_energy_inequality_property(px, py, qx, qy):
    a = PRESETS["hex"]
    p = np.array([px, py])
    q = np.array([qx, qy])
    lhs = float((a.b_matrix(q, p) @ p) @ (p - q))
    rhs = 0.5 * float(a.gamma(p)) ** 2 - 0.5 * float(a.gamma(q)) ** 2
    assert lhs >= rhs - 1e-9 * (1.0 + abs(lhs) + abs(rhs))
