"""Matrix and right-hand-side assembly for one time step.

All mass-type products use the vertex (lumped) quadrature: for nodal
functions it integrates the nodal interpolant of the product, and for
element-wise constant weights (the mobility and the anisotropic
linearization live on elements through the P1 gradients) it sums
``|sigma|/(d+1)`` times the vertex values.  Stiffness matrices integrate
the element-constant gradients exactly; the conductivity weight, a nodal
interpolant, enters through its element average, which is the exact value
of the integral of a linear factor against constant gradients.

The step system couples the discrete heat row

    lam * M_rho(U) U + (theta * M + tau * A) W = lam * M_rho(U) Phi_old
                                                 + theta * M W_old

with the phase variational inequality, scaled so both rows carry the same
coupling block lam * M_rho(U):

    C(U) U - lam * M_rho(U) W >= g,
    C(U) = c_mu * M_mu + c_B * B(U),
    g = c_mu * M_mu Phi_old + c_conc * M Phi_old,

with c_mu = lam*eps*rho/(c_psi*a*tau), c_B = lam*alpha*eps/(c_psi*a) and
c_conc = lam*alpha/(c_psi*a*eps).  Dirichlet rows of the heat block are
replaced by the identity with value u_D.  B(U) evaluates B_r on the band
grad Phi_old != 0 (r > 1: or grad U != 0); off it, it copies element
matrices at B0 = B_r(0, 0) from the mesh cache (which a refinement drops;
each is computed when its element first leaves the band), which also keeps
the CSR pattern, the lumped mass and the heat block.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InconsistentDimensions
from .potentials import diffusivity_b

__all__ = [
    "lumped_mass",
    "stiffness",
    "anisotropic_stiffness",
    "SystemMatrices",
    "assemble_step_system",
]


def lumped_mass(mesh, weight=None):
    """Diagonal of the lumped mass matrix, optionally weighted.

    ``weight`` holds per-element values (a piecewise constant weight); the
    unweighted diagonal sums to the domain volume and is cached read-only.
    """
    c = mesh._finalize()
    if weight is None and "lumped_mass" in c:
        return c["lumped_mass"]
    elements, volumes = c["elements"], c["volumes"]
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if weight.shape[0] != len(volumes):
            raise InconsistentDimensions("element weight length mismatch")
        volumes = volumes * weight
    d1 = mesh.dim + 1
    M = np.bincount(elements.ravel(), np.repeat(volumes / d1, d1),
                    minlength=len(c["vertices"]))
    if weight is None:
        M.setflags(write=False)
        c["lumped_mass"] = M
    return M


def stiffness(mesh, coeff=None):
    """Sparse stiffness matrix with per-element scalar or matrix coefficient.

    Entry (i, j) = sum_sigma vol * (C_sigma grad chi_j) . grad chi_i.
    """
    c = mesh._finalize()
    volumes, gradsT = c["volumes"], c["gradsT"]
    d, _, ne = gradsT.shape
    coeff = 1.0 if coeff is None else np.asarray(coeff, dtype=float)
    if np.ndim(coeff) <= 1:
        if np.ndim(coeff) == 1 and coeff.shape[0] != ne:
            raise InconsistentDimensions("element coefficient length mismatch")
        local = _local_matrices(volumes * coeff, gradsT)
    else:
        if coeff.shape != (ne, d, d):
            raise InconsistentDimensions("matrix coefficient shape mismatch")
        local = _local_matrices(volumes, gradsT, coeff)
    return _assemble(c, local)


def _local_matrices(volumes, gradsT, coeff=None):
    """Element matrices vol * G C G^T (ne, d+1, d+1), row k of G grad
    lambda_k, for C = I, one (d, d) matrix or one per element (ne, d, d).

    Each entry is one sum over contiguous length-ne rows of ``gradsT``, in
    the order of the stacked ``grads @ C @ grads^T``; where the products
    are exact (power-of-two gradients: Kuhn meshes of a dyadic box) it is
    bitwise that product, which BLAS forms with fused multiply-adds.
    """
    d = gradsT.shape[0]
    GC = gradsT
    if coeff is not None:
        C = np.moveaxis(coeff.reshape(-1, d, d), 0, -1).copy()   # rows C[i, j]
        GC = _dot(gradsT, C[:, :, None])                 # (d, d+1, ne)
    # entry by entry: (d+1, d+1, ne) temporaries page-fault and raise peak RSS
    local = np.empty((d + 1, d + 1, len(volumes)))
    for k, m in np.ndindex(d + 1, d + 1):
        _dot(GC[:, k], gradsT[:, m], out=local[k, m])
    local *= volumes
    return local.transpose(2, 0, 1).copy()     # one copy, not strided writes


def _dot(a, b, out=None):
    """sum_i a[i] * b[i] over the first axis, in the order i = 0, 1, .."""
    out = np.multiply(a[0], b[0], out=out)
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def _assemble(c, local):
    """CSR matrix summed from the element matrices ``local`` (ne, d+1, d+1)."""
    slot, indices, indptr, _ = _csr_pattern(c)
    nv = len(c["vertices"])
    data = np.bincount(slot, local.ravel(), minlength=len(indices))
    # copied, so that no caller can alter the cached structure
    return sp.csr_matrix((data, indices, indptr), shape=(nv, nv), copy=True)


def _csr_pattern(c):
    """CSR structure of the P1 stiffness of a finalized mesh with the slots
    of all local and of the diagonal entries, kept in the mesh cache."""
    if "csr_pattern" not in c:
        elements = c["elements"]
        nv = len(c["vertices"])
        d1 = elements.shape[1]
        rows = np.repeat(elements, d1, axis=1).ravel()
        cols = np.tile(elements, (1, d1)).ravel()
        keys, slot = np.unique(rows * nv + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
        diag = np.searchsorted(keys, np.arange(nv) * (nv + 1))
        c["csr_pattern"] = (slot, keys % nv, indptr, diag)
    return c["csr_pattern"]


def _on_band(grads):
    """Elements with a nonzero gradient, ``grads.any(axis=1)``, by columns."""
    return np.logical_or.reduce([g != 0 for g in grads.T])


def anisotropic_stiffness(mesh, aniso, phi_prev, phi_cur, q=None,
                          derivative=False):
    """Stiffness with coefficients B_r(q, grad Phi_cur), q = grad Phi_old,
    or with ``derivative`` that of B(Phi_cur) Phi_cur in Phi_cur."""
    c = mesh._finalize()
    volumes, gradsT = c["volumes"], c["gradsT"]
    q = mesh.field_gradients(phi_prev) if q is None else q
    p, band = q, _on_band(q)
    if aniso.exponent != 1.0 and phi_cur is not phi_prev:
        p = mesh.field_gradients(phi_cur)
        band |= _on_band(p)
    B0 = aniso.b_matrix(*np.zeros((2, mesh.dim)))
    off_band = c.get("aniso_off_band")
    if off_band is None or not np.array_equal(off_band[0], B0):
        # element matrices at B0, each computed when its element is first
        # off the band, so that no call computes one it then overwrites
        d1 = mesh.dim + 1
        off_band = c["aniso_off_band"] = (
            B0, np.empty((len(volumes), d1, d1)), np.zeros(len(volumes), bool))
    _, local, known = off_band
    # np.take gathers rows several times faster than fancy indexing
    fill = np.flatnonzero(~(band | known))
    if fill.size:
        local[fill] = _local_matrices(volumes.take(fill),
                                      gradsT.take(fill, axis=2), B0)
        known[fill] = True
    local = local.copy()
    band = np.flatnonzero(band)
    B = aniso.b_matrix(q.take(band, axis=0), p.take(band, axis=0),
                       derivative)
    local[band] = _local_matrices(volumes.take(band), gradsT.take(band, axis=2), B)
    return _assemble(c, local)


@dataclass
class SystemMatrices:
    """All blocks of one time step, built once from the previous state.

    ``MW`` is the heat W-block theta M + tau A_diff with identity Dirichlet
    rows, which the solvers factor once per mesh; ``A_diff`` and
    ``B_stiff`` are kept raw (energy evaluations need the unmodified
    stiffness).  ``A_diff`` and ``MW`` are shared with the other steps on
    the same mesh while the conductivities stay the same, so they are
    read-only.  ``M_rho`` is the rho-hat weighted coupling diagonal at the
    previous phase.
    """

    mesh: object
    M: np.ndarray                 # lumped mass diagonal
    M_mu: np.ndarray              # mobility-weighted lumped diagonal
    A_diff: sp.csr_matrix         # conductivity-weighted stiffness, raw
    MW: sp.csc_matrix             # heat W-block, Dirichlet rows replaced
    B_stiff: sp.csr_matrix        # anisotropic stiffness at the previous phase
    M_rho: np.ndarray             # rho-hat weighted lumped diagonal
    g: np.ndarray                 # phase-row rhs
    dirichlet: np.ndarray         # boolean vertex mask
    c_mu: float
    c_B: float
    c_conc: float
    lam: float
    theta: float
    tau: float
    u_D: float
    phi_prev: np.ndarray = field(repr=False, default=None)
    w_prev: np.ndarray = field(repr=False, default=None)
    grads_prev: np.ndarray = field(repr=False, default=None)  # grad Phi_old
    _shape: object = field(repr=False, default=None)
    _aniso: object = field(repr=False, default=None)
    # the mesh cache entry that holds MW; the solver keeps its LU there
    heat: dict = field(repr=False, default=None)

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def coefficients_move(self):
        """Whether C or M_rho depend on the new phase: r > 1 or an implicit
        shape part (quartic shape)."""
        return (self._aniso.exponent > 1.0
                or not self._shape.implicit_part_is_zero)

    def c_matrix(self, B=None):
        """C = c_mu * diag(M_mu) + c_B * B on the pattern of B, zeros dropped."""
        C = self.c_B * (self.B_stiff if B is None else B)
        C.data[_csr_pattern(self.mesh._finalize())[3]] += self.c_mu * self.M_mu
        C.eliminate_zeros()
        return C

    def m_rho_diag(self, U):
        """Diagonal of lam-free M_rho(U) (rho-hat weighted lumped mass)."""
        return self.M * self._shape.rho_hat(self.phi_prev, U)

    def b_matrix_at(self, U):
        """The phase row's stiffness linearized at U: ``B_stiff`` for r = 1,
        else the derivative of B(U) U, which applied to U is B(U) U."""
        if self._aniso.exponent == 1.0:
            return self.B_stiff
        return anisotropic_stiffness(self.mesh, self._aniso, self.phi_prev, U,
                                     q=self.grads_prev, derivative=True)

    def f_rhs(self, M_rho):
        """Heat-row rhs for a given coupling diagonal, Dirichlet applied."""
        f = self.lam * M_rho * self.phi_prev + self.theta * self.M * self.w_prev
        f[self.dirichlet] = self.u_D
        return f


def assemble_step_system(mesh, params, pot, shape, aniso, mobility,
                         phi_prev, w_prev):
    """Build the coupled step system at the previous state.

    ``params`` carries the physical constants and the step size; ``pot``
    only enters through c_psi.
    """
    phi_prev = np.asarray(phi_prev, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    nv = mesh.n_vertices
    if phi_prev.shape != (nv,) or w_prev.shape != (nv,):
        raise InconsistentDimensions("field lengths do not match the mesh")

    tau = params.tau
    c_psi = pot.c_psi
    c_mu = params.lam * params.eps * params.rho / (c_psi * params.a * tau)
    c_B = params.lam * params.alpha * params.eps / (c_psi * params.a)
    c_conc = params.lam * params.alpha / (c_psi * params.a * params.eps)

    M = lumped_mass(mesh)
    grads_prev = mesh.field_gradients(phi_prev)
    mu_elem = mobility.mu(aniso, grads_prev)
    M_mu = lumped_mass(mesh, mu_elem)

    b_vertex = diffusivity_b(phi_prev, params.Kplus, params.Kminus)
    b_elem = b_vertex.take(mesh.elements.T).mean(axis=0)
    dirichlet = mesh.dirichlet_mask.copy()
    # the heat block sees the phase only through b_elem, which is constant
    # when K+ = K-: the last one stays in the mesh cache (which a refinement
    # drops) and serves every step with the same theta, tau and b_elem
    c = mesh._finalize()
    heat = c.get("heat_block")
    if (heat is None or heat["key"][:2] != (params.theta, tau)
            or not np.array_equal(heat["key"][2], b_elem)):
        A_diff = stiffness(mesh, b_elem)
        MW = tau * A_diff           # a copy, pattern included
        diag = _csr_pattern(c)[3]
        MW.data[diag] += params.theta * M
        MW.data[np.repeat(dirichlet, np.diff(MW.indptr))] = 0.0
        MW.data[diag[dirichlet]] = 1.0
        # stored zeros would enter the LU's pattern and raise its fill
        MW.eliminate_zeros()
        MW = MW.tocsc()
        heat = c["heat_block"] = {"key": (params.theta, tau, b_elem),
                                  "A_diff": A_diff, "MW": MW}

    B = anisotropic_stiffness(mesh, aniso, phi_prev, phi_prev, q=grads_prev)

    g = c_mu * M_mu * phi_prev + c_conc * M * phi_prev

    sys = SystemMatrices(
        mesh=mesh, M=M, M_mu=M_mu, A_diff=heat["A_diff"], MW=heat["MW"],
        B_stiff=B,
        M_rho=None, g=g,
        dirichlet=dirichlet,
        c_mu=c_mu, c_B=c_B, c_conc=c_conc,
        lam=params.lam, theta=params.theta,
        tau=tau, u_D=params.u_D,
        phi_prev=phi_prev, w_prev=w_prev, grads_prev=grads_prev,
        _shape=shape, _aniso=aniso, heat=heat,
    )
    sys.M_rho = sys.m_rho_diag(phi_prev)
    return sys
