"""Anisotropic surface-energy densities and their derived operators.

The density is built from a family of symmetric positive definite matrices
``G_1 .. G_L`` and an exponent ``r >= 1``:

    gamma(p) = ( sum_l (p . G_l p)^(r/2) )^(1/r)

which is a strictly convex norm, absolutely one-homogeneous.  Everything
derives from the components ``gamma_l(p) = sqrt(p . G_l p)`` and gamma,
evaluated in one place: the matrix linearization ``B_r(q, p)`` used by the
stable schemes, ``A'(p) = B_r(p, p) p`` for ``A = gamma^2 / 2`` and
``gamma'(p) = A'(p) / gamma(p)``.  The module also provides the
orientation-dependent mobility ``mu`` (identically one for ``beta =
gamma``), constructors for the named presets, and a randomized checker for
the monotonicity/stability inequalities the time-discrete schemes rely on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDelta, NotRotation, ZeroDirection

__all__ = [
    "AnisotropyDensity",
    "MobilitySpec",
    "InequalityReport",
    "make_isotropic",
    "make_regularized_l1",
    "make_rotated_family",
    "anisotropy_from_name",
    "mobility_from_name",
    "verify_anisotropy_inequalities",
]


class AnisotropyDensity:
    """Density gamma(p) = (sum_l (p.G_l p)^(r/2))^(1/r).

    Parameters
    ----------
    matrices : array_like, shape (L, d, d)
        Symmetric positive definite matrices.
    exponent : float
        Exponent r >= 1.

    Each matrix is validated for symmetry (to machine precision) and
    positive definiteness (Cholesky).
    """

    def __init__(self, matrices, exponent=1.0):
        G = np.asarray(matrices, dtype=float)
        if G.ndim != 3 or G.shape[1] != G.shape[2]:
            raise ValueError("matrices must have shape (L, d, d)")
        if G.shape[0] < 1:
            raise ValueError("need at least one matrix")
        if G.shape[1] not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if exponent < 1.0:
            raise ValueError("exponent must be >= 1")
        for l, Gl in enumerate(G):
            if not np.allclose(Gl, Gl.T, rtol=0.0, atol=1e-14 * max(1.0, abs(Gl).max())):
                raise ValueError(f"matrix {l} is not symmetric")
            try:
                np.linalg.cholesky(Gl)
            except np.linalg.LinAlgError:
                raise ValueError(f"matrix {l} is not positive definite") from None
        self.matrices = G
        self.matrices.setflags(write=False)
        self.exponent = float(exponent)

    @property
    def dim(self):
        return self.matrices.shape[1]

    @property
    def nmat(self):
        return self.matrices.shape[0]

    def __repr__(self):
        return (f"AnisotropyDensity(L={self.nmat}, d={self.dim}, "
                f"r={self.exponent:g})")

    # All evaluation routines accept a single direction (d,) or a batch
    # (n, d) and return correspondingly shaped results.

    def gamma_l(self, p):
        """Component values gamma_l(p) = sqrt(p . G_l p), shape (..., L)."""
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, self.dim)
        # (p G_l) . p as one stacked product over l, shape (L, n)
        quad = ((flat @ self.matrices) * flat).sum(axis=-1)
        quad = quad.T.reshape(p.shape[:-1] + (self.nmat,))
        return np.sqrt(np.maximum(quad, 0.0))

    def _components(self, p):
        """(gamma_l(p), gamma(p)); gamma is zero exactly when p = 0."""
        gl = self.gamma_l(p)
        r = self.exponent
        if r == 1.0:
            return gl, gl.sum(axis=-1)
        return gl, (gl**r).sum(axis=-1) ** (1.0 / r)

    def gamma(self, p):
        """gamma(p); zero exactly when p = 0."""
        return self._components(p)[1]

    def gamma_grad(self, p):
        """gamma'(p) = A'(p) / gamma(p); raises ZeroDirection at p = 0."""
        p = np.asarray(p, dtype=float)
        if np.any(np.all(p == 0.0, axis=-1)):
            raise ZeroDirection("gamma is not differentiable at p = 0")
        return self.a_prime(p) / self.gamma(p)[..., None]

    def a_prime(self, p):
        """A'(p) = gamma(p) gamma'(p) = B_r(p, p) p, which is 0 at p = 0."""
        p = np.asarray(p, dtype=float)
        return (self.b_matrix(p, p) @ p[..., None])[..., 0]

    def b_matrix(self, q, p):
        """Linearization B_r(q, p), shape (..., d, d); SPD for every pair.

        For q != 0 this is gamma(q) sum_l w_l(p) G_l / gamma_l(q) with the
        weights w_l(p) = (gamma_l(p) / gamma(p))^(r-1), all one when r = 1
        or p = 0; at q = 0 the prefactor degenerates to L^(1/r).
        """
        # the prefactor is 0-homogeneous in q: scaling each row by a power
        # of two (exact) keeps gamma_l(q)^r from underflowing
        q = np.asarray(q, dtype=float)
        scale = np.frexp(np.abs(q).max(axis=-1))[1]
        gl_q, g_q = self._components(np.ldexp(q, -scale[..., None]))
        r = self.exponent
        # coefficient of G_l: gamma(q)/gamma_l(q) for q != 0, else L^(1/r)
        safe_gl = np.where(gl_q > 0.0, gl_q, 1.0)
        coef = np.where((g_q == 0.0)[..., None], self.nmat ** (1.0 / r),
                        g_q[..., None] / safe_gl)
        if r != 1.0:
            gl_p, g_p = self._components(p)
            pos = g_p[..., None] > 0.0
            coef = coef * np.where(pos, gl_p / np.where(pos, g_p[..., None], 1.0),
                                   1.0) ** (r - 1.0)
        L, d = self.nmat, self.dim
        B = coef @ self.matrices.reshape(L, d * d)
        return B.reshape(B.shape[:-1] + (d, d))


@dataclass(frozen=True)
class MobilitySpec:
    """Kinetic mobility beta and the derived coefficient mu = gamma/beta.

    ``kind`` is one of ``gamma`` (beta = gamma, so mu is identically one),
    ``flat`` / ``tall`` (axis-weighted Euclidean mobilities with weight
    10^(-2*level) on the last coordinate, resp. on all but the last).  At
    p = 0 mu takes the value gamma(e1)/beta(e1), which lies between inf and
    sup of gamma/beta.
    """

    kind: str = "gamma"
    level: int = 0

    def __post_init__(self):
        if self.kind not in ("gamma", "flat", "tall"):
            raise ValueError(f"unknown mobility kind {self.kind!r}")

    def beta(self, a, p):
        """beta(p); positively one-homogeneous, > 0 away from 0."""
        p = np.asarray(p, dtype=float)
        if self.kind == "gamma":
            return a.gamma(p)
        if self.kind == "flat":
            w = np.ones(p.shape[-1])
            w[-1] = 10.0 ** (-2 * self.level)
        else:  # tall
            w = np.full(p.shape[-1], 10.0 ** (-2 * self.level))
            w[-1] = 1.0
        return np.sqrt((w * p * p).sum(axis=-1))

    def fallback(self, a):
        """mu at p = 0: gamma(e1)/beta(e1)."""
        e1 = np.zeros(a.dim)
        e1[0] = 1.0
        return float(a.gamma(e1) / self.beta(a, e1))

    def mu(self, a, p):
        """mu(p) = gamma(p)/beta(p) for p != 0, the fallback at p = 0."""
        p = np.asarray(p, dtype=float)
        if self.kind == "gamma":
            return 1.0 if p.ndim == 1 else np.ones(p.shape[:-1])
        g, b = a.gamma(p), self.beta(a, p)
        bar = self.fallback(a)
        if p.ndim == 1:
            return float(g / b) if b > 0.0 else bar
        return np.where(b > 0.0, g / np.where(b > 0.0, b, 1.0), bar)


def make_isotropic(dim):
    """gamma(p) = |p|."""
    return AnisotropyDensity(np.eye(dim)[None, :, :], 1.0)


def make_regularized_l1(delta, dim):
    """Regularized l1 norm: L = d matrices delta^2 I + (1 - delta^2) e_j e_j^T."""
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must lie in (0, 1), got {delta}")
    mats = []
    for j in range(dim):
        G = delta**2 * np.eye(dim)
        G[j, j] = 1.0
        mats.append(G)
    return AnisotropyDensity(np.array(mats), 1.0)


def _check_rotation(R, dim):
    R = np.asarray(R, dtype=float)
    if R.shape != (dim, dim):
        raise NotRotation(f"expected a {dim}x{dim} matrix")
    if not np.allclose(R @ R.T, np.eye(dim), rtol=0.0, atol=1e-12):
        raise NotRotation("matrix is not orthogonal (tol 1e-12)")
    if abs(np.linalg.det(R) - 1.0) > 1e-12:
        raise NotRotation("matrix has determinant != 1")
    return R


def make_rotated_family(delta, rotations, exponent=1.0):
    """Family G_l = R_l^T D R_l with D = diag(1, delta^2, ..., delta^2).

    Every rotation must be orthogonal with determinant one.  The common
    profile matrix D stretches the first rotated axis, so each member's
    unit ball is a (rotated) elongated ellipsoid; sums of several members
    produce smoothed polytopal Wulff shapes.
    """
    if not 0.0 < delta <= 1.0:
        raise InvalidDelta(f"delta must lie in (0, 1], got {delta}")
    rotations = [np.asarray(R, dtype=float) for R in rotations]
    dim = rotations[0].shape[0]
    D = delta**2 * np.eye(dim)
    D[0, 0] = 1.0
    mats = []
    for R in rotations:
        R = _check_rotation(R, dim)
        mats.append(R.T @ D @ R)
    return AnisotropyDensity(np.array(mats), exponent)


def _rot_z(angle, dim):
    """Rotation by ``angle`` in the (x, y) plane."""
    R = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    R[:2, :2] = [[c, -s], [s, c]]
    return R


# number of ``:``-separated arguments of each preset
_PRESET_ARGS = {"iso": 0, "ani1": 1, "hex2d": 1, "hex2d-rot": 1,
                "cube3d": 2, "hexprism3d": 1}
# cyclic axis permutation with first row e3: it aligns a family member's
# profile axis with z, its transpose with y
_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def anisotropy_from_name(name, dim=2):
    """Resolve a preset string.

    Recognized names: ``iso``, ``ani1:<delta>``, ``hex2d:<delta>``,
    ``hex2d-rot:<delta>`` (hex2d turned by pi/12), ``cube3d:<delta>:<r>``
    and ``hexprism3d:<delta>``.  All but ``iso`` and ``ani1`` take a
    ``:rot`` suffix for an extra rotation by pi/12 about the z axis.
    """
    parts = name.split(":")
    rotated = len(parts) > 1 and parts[-1] == "rot"
    if rotated:
        parts = parts[:-1]
    base, args = parts[0], parts[1:]
    if base not in _PRESET_ARGS:
        raise ValueError(f"unknown anisotropy preset {name!r}")
    if len(args) != _PRESET_ARGS[base] or (rotated and base in ("iso", "ani1")):
        raise ValueError(f"malformed preset {name!r}")
    if base == "iso":
        return make_isotropic(dim)
    delta = float(args[0])
    if base == "ani1":
        return make_regularized_l1(delta, dim)
    extra = np.pi / 12 * (rotated + (base == "hex2d-rot"))
    if base == "cube3d":
        R = _rot_z(extra, 3)
        return make_rotated_family(
            delta, [R, _CYCLE.T @ R, _CYCLE @ R], float(args[1]))
    # hexagonal: three members 60 degrees apart in the (x, y) plane, plus
    # one along the z axis for the prism
    rots = [_rot_z(extra + k * np.pi / 3, 2 if base != "hexprism3d" else 3)
            for k in range(3)]
    if base == "hexprism3d":
        rots.append(_CYCLE)
    return make_rotated_family(delta, rots, 1.0)


def mobility_from_name(name):
    """Resolve ``gamma``, ``flat:<l>`` or ``tall:<l>``."""
    parts = name.split(":")
    if parts[0] == "gamma" and len(parts) == 1:
        return MobilitySpec("gamma")
    if parts[0] in ("flat", "tall") and len(parts) == 2:
        return MobilitySpec(parts[0], level=int(parts[1]))
    raise ValueError(f"unknown mobility {name!r}")


@dataclass
class InequalityReport:
    """Violation counts from the randomized inequality checker."""

    samples: int
    seed: int
    violations: dict = field(default_factory=dict)
    worst_margin: dict = field(default_factory=dict)

    @property
    def total_violations(self):
        return sum(self.violations.values())

    def __str__(self):
        rows = [f"samples={self.samples} seed={self.seed}"]
        for k in sorted(self.violations):
            rows.append(f"  {k}: violations={self.violations[k]} "
                        f"worst_margin={self.worst_margin[k]:.3e}")
        return "\n".join(rows)


def _record(report, key, lhs, rhs):
    """Count failures of lhs >= rhs - slack, slack = 1e-9 (1 + |lhs| + |rhs|)."""
    slack = 1e-9 * (1.0 + np.abs(lhs) + np.abs(rhs))
    margin = lhs - rhs
    bad = margin < -slack
    report.violations[key] = int(bad.sum())
    report.worst_margin[key] = float(margin.min()) if margin.size else 0.0


def verify_anisotropy_inequalities(a, samples, seed=0):
    """Sample (p, q) pairs and check the five structural inequalities.

    The checks cover the component bound on gamma, the dual estimate
    gamma'(p).q <= gamma(q), the monotonicity of A', and the two
    linearized-operator inequalities that make the schemes stable:

        [B_r(q,p) p] . (p - q) >= gamma(p) (gamma(p) - gamma(q))
        [B_r(q,p) p] . (p - q) >= A(p) - A(q)

    Forced cases p = 0, q = 0, p = q and (0, 0) are always included.
    Violations are counted, not raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = a.dim
    P = rng.uniform(-10.0, 10.0, size=(samples, d))
    Q = rng.uniform(-10.0, 10.0, size=(samples, d))
    if samples >= 4:
        P[0] = 0.0
        Q[1] = 0.0
        Q[2] = P[2]
        P[3] = 0.0
        Q[3] = 0.0

    r = a.exponent
    L = a.nmat
    gl_p, g_p = a._components(P)
    g_q = a.gamma(Q)
    A_p = 0.5 * g_p**2
    A_q = 0.5 * g_q**2
    pnz = g_p > 0.0

    report = InequalityReport(samples=samples, seed=seed)

    lhs = L ** (1.0 / (r * (r + 1.0))) * (gl_p ** (r + 1.0)).sum(axis=-1) ** (1.0 / (r + 1.0))
    _record(report, "component_bound", lhs, g_p)

    grad = a.gamma_grad(P[pnz]) if pnz.any() else np.zeros((0, d))
    _record(report, "dual_estimate", g_q[pnz], np.einsum("ni,ni->n", grad, Q[pnz]))

    Ap_vec = a.a_prime(P)
    lhs = np.einsum("ni,ni->n", Ap_vec[pnz], (P - Q)[pnz])
    _record(report, "a_prime_monotone", lhs, (g_p * (g_p - g_q))[pnz])

    B = a.b_matrix(Q, P)
    Bp = np.einsum("nij,nj->ni", B, P)
    lhs = np.einsum("ni,ni->n", Bp, P - Q)
    _record(report, "b_monotone", lhs, g_p * (g_p - g_q))
    _record(report, "b_energy_stable", lhs, A_p - A_q)

    return report
