import math

import numpy as np
import pytest
from scipy.integrate import quad

from anisopf.potentials import (
    PotentialSpec,
    ShapeSpec,
    boundary_layer_check,
    diffusivity_b,
    shape_from_name,
)

ALL_SHAPES = [
    ShapeSpec("const", "for-negative-uD"),
    ShapeSpec("lin-minus", "for-negative-uD"),
    ShapeSpec("lin-plus", "for-positive-uD"),
    ShapeSpec("quartic-shape", "for-negative-uD"),
    ShapeSpec("quartic-shape", "for-positive-uD"),
]


def test_c_psi_values():
    assert PotentialSpec("obstacle").c_psi == pytest.approx(math.pi / 2)
    assert PotentialSpec("quartic").c_psi == pytest.approx(2.0**1.5 / 3.0)


@pytest.mark.parametrize("kind", ["obstacle", "quartic"])
def test_c_psi_matches_quadrature(kind):
    pot = PotentialSpec(kind)
    val, _ = quad(lambda s: math.sqrt(2.0 * float(pot.psi(s))), -1.0, 1.0)
    assert pot.c_psi == pytest.approx(val, abs=1e-10)


def test_shape_values():
    quartic = ShapeSpec("quartic-shape")
    assert quartic.rho(1.0) == 0.0 and quartic.rho(-1.0) == 0.0
    assert quartic.rho(0.0) == pytest.approx(15.0 / 16.0)
    for sh in ALL_SHAPES:
        assert sh.interp(1.0) == pytest.approx(1.0, abs=1e-14)
        assert sh.interp(-1.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sh", ALL_SHAPES, ids=lambda s: f"{s.kind}:{s.split_sign}")
def test_interp_is_antiderivative(sh):
    # P' = rho checked by quadrature of rho against the closed form
    for s in np.linspace(-1.0, 1.0, 7):
        val, _ = quad(lambda y: float(sh.rho(y)), -1.0, s)
        assert float(sh.interp(s)) == pytest.approx(val, abs=1e-12)
    val, _ = quad(lambda y: float(sh.rho(y)), -1.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("sh", ALL_SHAPES, ids=lambda s: f"{s.kind}:{s.split_sign}")
def test_split_sums_to_rho(sh):
    s = np.linspace(-2.0, 2.0, 1000)
    total = sh.rho_plus(s) + sh.rho_minus(s)
    assert np.all(np.abs(total - sh.rho(s)) <= 1e-14)


def test_split_monotonicity_for_negative_uD():
    # rho+ nondecreasing, rho- nonincreasing on s <= 2/sqrt(3) (u_D < 0 form)
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    s = np.linspace(-2.0, 2.0 / math.sqrt(3.0), 800)
    assert np.all(np.diff(sh.rho_plus(s)) >= 0.0)
    assert np.all(np.diff(sh.rho_minus(s)) <= 1e-15)


def test_split_monotonicity_for_positive_uD():
    sh = ShapeSpec("quartic-shape", "for-positive-uD")
    s = np.linspace(-2.0 / math.sqrt(3.0), 2.0, 800)
    assert np.all(np.diff(sh.rho_plus(s)) <= 0.0)
    assert np.all(np.diff(sh.rho_minus(s)) >= -1e-15)


def test_shape_cutoff_clamps():
    sh = ShapeSpec("quartic-shape", "for-negative-uD")
    # rho+ at the clamp: (3/2) * 2
    assert sh.rho_hat(0.3, 5.0) == pytest.approx(float(sh.rho_minus(0.3)) + 3.0)
    assert sh.rho_hat(0.3, -5.0) == pytest.approx(
        float(sh.rho_minus(0.3)) - 3.0)
    # inside the clamp the weight is the plain semi-implicit one
    assert sh.rho_hat(0.3, 1.7) == float(sh.rho_minus(0.3) + sh.rho_plus(1.7))


def test_shape_cutoff_trivial_for_zero_plus():
    sh = ShapeSpec("lin-minus")
    for s_new in (-7.0, 0.0, 9.0):
        assert sh.rho_hat(0.25, s_new) == pytest.approx(float(sh.rho(0.25)))


def test_diffusivity_values():
    assert diffusivity_b(1.0, 3.0, 7.0) == pytest.approx(3.0)
    assert diffusivity_b(-1.0, 3.0, 7.0) == pytest.approx(7.0)
    s = np.linspace(-1, 1, 11)
    assert np.allclose(diffusivity_b(s, 1.0, 1.0), 1.0)
    # out-of-range phase values are clipped to [-1, 1]
    assert diffusivity_b(3.0, 2.0, 1.0) == pytest.approx(2.0)
    assert diffusivity_b(-3.0, 2.0, 1.0) == pytest.approx(1.0)


def test_boundary_layer_threshold_matches_reported_value():
    pot = PotentialSpec("obstacle")
    sh = ShapeSpec("const")
    eps = 1.0 / (16.0 * math.pi)
    rep = boundary_layer_check(pot, sh, eps, alpha=1.0, a=1.0, u_D=-64.0)
    assert rep.critical_uD == pytest.approx(-64.0)
    assert rep.stable_at_plus1
    rep = boundary_layer_check(pot, sh, eps, alpha=1.0, a=1.0, u_D=-64.0 - 1e-6)
    assert not rep.stable_at_plus1


def test_boundary_layer_vanishing_rho_is_always_stable():
    pot = PotentialSpec("obstacle")
    for kind in ("lin-minus", "quartic-shape"):
        sh = ShapeSpec(kind)
        rep = boundary_layer_check(pot, sh, 0.01, 1.0, 1.0, u_D=-1e9)
        assert rep.stable_at_plus1
        assert rep.critical_uD == -math.inf


def test_boundary_layer_zero_supercooling():
    pot = PotentialSpec("obstacle")
    rep = boundary_layer_check(pot, ShapeSpec("const"), 0.02, 1.0, 1.0, 0.0)
    assert rep.stable_at_plus1 and rep.stable_at_minus1


def test_boundary_layer_quartic_condition():
    pot = PotentialSpec("quartic")
    assert boundary_layer_check(pot, ShapeSpec("const"), 0.02, 1, 1, -1.0) \
        .stable_at_plus1 is False
    assert boundary_layer_check(pot, ShapeSpec("lin-minus"), 0.02, 1, 1, -1.0) \
        .stable_at_plus1 is True


def test_shape_from_name_resolves_by_sign():
    assert shape_from_name("linear", u_D=-2.0).kind == "lin-minus"
    assert shape_from_name("linear", u_D=2.0).kind == "lin-plus"
    assert shape_from_name("const", u_D=-1.0).split_sign == "for-negative-uD"
    sh = shape_from_name("quartic-shape", u_D=3.0)
    assert sh.split_sign == "for-positive-uD"
    with pytest.raises(ValueError):
        shape_from_name("bogus")
