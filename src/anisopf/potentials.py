"""Double-well potentials, shape functions and their implicit/explicit splits.

Two potentials are supported: the quartic well Psi(s) = (s^2-1)^2/4 with the
convex/concave derivative split phi+(s) = s^3, phi-(s) = -s, and the
obstacle well Psi(s) = (1-s^2)/2 on [-1,1] whose constraint is handled by
the variational-inequality solver rather than by a derivative.

Shape functions rho weight the latent-heat coupling; each comes with the
exact interpolation function P (antiderivative with P(-1) = 0) and a split
rho = rho+ + rho- chosen so that the implicit part keeps the scheme's
energy estimate valid for the configured sign of the boundary supercooling.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PotentialSpec",
    "ShapeSpec",
    "diffusivity_b",
    "boundary_layer_check",
    "shape_from_name",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well potential, ``obstacle`` or ``quartic``."""

    kind: str = "obstacle"

    def __post_init__(self):
        if self.kind not in ("obstacle", "quartic"):
            raise ValueError(f"unknown potential {self.kind!r}")

    @property
    def c_psi(self):
        """The constant int_{-1}^{1} sqrt(2 Psi)."""
        return math.pi / 2 if self.kind == "obstacle" else 2.0**1.5 / 3.0

    def psi(self, s):
        """Well value; obstacle values are only meaningful on [-1, 1]."""
        s = np.asarray(s, dtype=float)
        if self.kind == "obstacle":
            return 0.5 * (1.0 - s * s)
        return 0.25 * (s * s - 1.0) ** 2


_SHAPE_KINDS = ("const", "lin-minus", "lin-plus", "quartic-shape")

# clamp bound m of the implicit shape part; m >= 2, so the clamp only acts
# in the smooth scheme
_M_CUTOFF = 2.0


@dataclass(frozen=True)
class ShapeSpec:
    """Shape function with its sign-adapted split.

    ``split_sign`` selects the split family: ``for-negative-uD`` keeps the
    implicit part nondecreasing (valid for u_D <= 0), ``for-positive-uD``
    the mirrored variant.  The implicit part is clamped at ``_M_CUTOFF``.
    """

    kind: str = "lin-minus"
    split_sign: str = "for-negative-uD"

    def __post_init__(self):
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(f"unknown shape {self.kind!r}")
        if self.split_sign not in ("for-negative-uD", "for-positive-uD"):
            raise ValueError(f"unknown split_sign {self.split_sign!r}")

    def rho(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "const":
            return np.full_like(s, 0.5)
        if self.kind == "lin-minus":
            return 0.5 * (1.0 - s)
        if self.kind == "lin-plus":
            return 0.5 * (1.0 + s)
        return (15.0 / 16.0) * (s * s - 1.0) ** 2

    def rho_plus(self, s):
        """Implicit part of the split; zero except for the quartic shape."""
        s = np.asarray(s, dtype=float)
        if self.kind != "quartic-shape":
            return np.zeros_like(s)
        sign = 1.0 if self.split_sign == "for-negative-uD" else -1.0
        return sign * 1.5 * s

    def rho_minus(self, s):
        return self.rho(s) - self.rho_plus(s)

    def interp(self, s):
        """P(s), the exact antiderivative of rho with P(-1) = 0."""
        s = np.asarray(s, dtype=float)
        if self.kind == "const":
            return 0.5 * (s + 1.0)
        if self.kind == "lin-minus":
            return 0.5 * s - 0.25 * s * s + 0.75
        if self.kind == "lin-plus":
            return 0.5 * s + 0.25 * s * s + 0.25
        return (15.0 / 16.0) * (s**5 / 5.0 - 2.0 * s**3 / 3.0 + s) + 0.5

    def rho_plus_deriv_clamped(self, s):
        """d/ds of the clamped implicit part (zero beyond the clamp)."""
        s = np.asarray(s, dtype=float)
        if self.kind != "quartic-shape":
            return np.zeros_like(s)
        sign = 1.0 if self.split_sign == "for-negative-uD" else -1.0
        return np.where(np.abs(s) <= _M_CUTOFF, sign * 1.5, 0.0)

    def rho_hat(self, s_old, s_new):
        """Semi-implicit weight rho-(old) + rho+(new), the implicit argument
        clamped to [-m, m] (never active on the obstacle box [-1, 1])."""
        s_new = np.clip(np.asarray(s_new, dtype=float), -_M_CUTOFF, _M_CUTOFF)
        return self.rho_minus(s_old) + self.rho_plus(s_new)

    @property
    def implicit_part_is_zero(self):
        return self.kind != "quartic-shape"


def diffusivity_b(s, Kplus, Kminus):
    """Phase-interpolated conductivity b(s) = (1+s)/2 K+ + (1-s)/2 K-.

    The argument is clamped to [-1, 1] first, keeping the value >=
    min(K+, K-) for the out-of-range phase values of the smooth scheme.
    """
    s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
    return 0.5 * (1.0 + s) * Kplus + 0.5 * (1.0 - s) * Kminus


@dataclass(frozen=True)
class BoundaryLayerReport:
    stable_at_plus1: bool
    stable_at_minus1: bool
    critical_uD: float


def boundary_layer_check(pot, sh, eps, alpha, a, u_D):
    """Check whether the pure phases are steady under the supercooling.

    For the obstacle well, s = +-1 stay local minima of the effective bulk
    potential iff alpha/(a c_psi eps) +- u_D rho(+-1) >= 0; for the quartic
    well the fixed-point condition is u_D rho(+-1) = 0.  ``critical_uD`` is
    the obstacle-well threshold -alpha/(a c_psi eps rho(1)) below which a
    boundary layer detaches from +1 (or -inf when rho(1) = 0).
    """
    rho_p1 = float(sh.rho(1.0))
    rho_m1 = float(sh.rho(-1.0))
    bulk = alpha / (a * pot.c_psi * eps)
    if pot.kind == "obstacle":
        stable_p = bulk + u_D * rho_p1 >= 0.0
        stable_m = bulk - u_D * rho_m1 >= 0.0
    else:
        stable_p = u_D * rho_p1 == 0.0
        stable_m = u_D * rho_m1 == 0.0
    critical = -bulk / rho_p1 if rho_p1 > 0.0 else -math.inf
    return BoundaryLayerReport(bool(stable_p), bool(stable_m), critical)


def shape_from_name(name, u_D=0.0):
    """Resolve a config shape name; ``linear`` picks the branch by sign(u_D)."""
    split = "for-positive-uD" if u_D > 0.0 else "for-negative-uD"
    if name == "const":
        return ShapeSpec("const", split)
    if name == "linear":
        kind = "lin-plus" if u_D > 0.0 else "lin-minus"
        return ShapeSpec(kind, split)
    if name in _SHAPE_KINDS:
        return ShapeSpec(name, split)
    raise ValueError(f"unknown shape {name!r}")
