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
replaced by the identity with value u_D.
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
    unweighted diagonal sums to the domain volume.
    """
    c = mesh._finalize()
    elements, volumes = c["elements"], c["volumes"]
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if weight.shape[0] != len(volumes):
            raise InconsistentDimensions("element weight length mismatch")
        volumes = volumes * weight
    d1 = mesh.dim + 1
    return np.bincount(elements.ravel(), np.repeat(volumes / d1, d1),
                       minlength=len(c["vertices"]))


def stiffness(mesh, coeff=None):
    """Sparse stiffness matrix with per-element scalar or matrix coefficient.

    Entry (i, j) = sum_sigma vol * (C_sigma grad chi_j) . grad chi_i.
    """
    c = mesh._finalize()
    volumes, grads = c["volumes"], c["grads"]
    ne, _, d = grads.shape
    gradsT = np.swapaxes(grads, 1, 2)
    coeff = 1.0 if coeff is None else np.asarray(coeff, dtype=float)
    if np.ndim(coeff) <= 1:
        if np.ndim(coeff) == 1 and coeff.shape[0] != ne:
            raise InconsistentDimensions("element coefficient length mismatch")
        local = (volumes * coeff)[:, None, None] * (grads @ gradsT)
    else:
        if coeff.shape != (ne, d, d):
            raise InconsistentDimensions("matrix coefficient shape mismatch")
        local = volumes[:, None, None] * (grads @ coeff @ gradsT)
    slot, indices, indptr = _csr_pattern(c)
    nv = len(c["vertices"])
    data = np.bincount(slot, local.ravel(), minlength=len(indices))
    # copied, so that no caller can alter the cached structure
    return sp.csr_matrix((data, indices, indptr), shape=(nv, nv), copy=True)


def _csr_pattern(c):
    """CSR structure of the P1 stiffness of a finalized mesh and the slot of
    every local entry in it, kept in the mesh cache (which a refinement
    drops)."""
    if "csr_pattern" not in c:
        elements = c["elements"]
        nv = len(c["vertices"])
        d1 = elements.shape[1]
        rows = np.repeat(elements, d1, axis=1).ravel()
        cols = np.tile(elements, (1, d1)).ravel()
        keys, slot = np.unique(rows * nv + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
        c["csr_pattern"] = (slot, keys % nv, indptr)
    return c["csr_pattern"]


def anisotropic_stiffness(mesh, aniso, phi_prev, phi_cur):
    """Stiffness with element coefficients B_r(grad Phi_old, grad Phi_cur)."""
    q = mesh.field_gradients(phi_prev)
    p = mesh.field_gradients(phi_cur)
    return stiffness(mesh, aniso.b_matrix(q, p))


@dataclass
class SystemMatrices:
    """All blocks of one time step, built once from the previous state.

    ``MW`` is the heat W-block theta M + tau A_diff with identity Dirichlet
    rows, the one both solvers factor; ``A_diff`` and ``B_stiff`` are kept
    raw (energy evaluations need the unmodified stiffness).  ``A_diff`` and
    ``MW`` are shared with the other steps on the same mesh while the
    conductivities stay the same, so they are read-only.  ``M_rho`` is
    the rho-hat weighted coupling diagonal at the previous phase.
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
    _shape: object = field(repr=False, default=None)
    _aniso: object = field(repr=False, default=None)

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
        """C = c_mu * diag(M_mu) + c_B * B."""
        if B is None:
            B = self.B_stiff
        return (sp.diags(self.c_mu * self.M_mu) + self.c_B * B).tocsr()

    def m_rho_diag(self, U):
        """Diagonal of lam-free M_rho(U) (rho-hat weighted lumped mass)."""
        return self.M * self._shape.rho_hat(self.phi_prev, U)

    def b_matrix_at(self, U):
        if self._aniso.exponent == 1.0:
            return self.B_stiff
        return anisotropic_stiffness(self.mesh, self._aniso, self.phi_prev, U)

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
    b_elem = b_vertex[mesh.elements].mean(axis=1)
    dirichlet = mesh.dirichlet_mask.copy()
    # the heat block sees the phase only through b_elem, which is constant
    # when K+ = K-: the last one stays in the mesh cache (which a refinement
    # drops) and serves every step with the same theta, tau and b_elem
    c = mesh._finalize()
    heat = c.get("heat_block")
    if (heat is None or heat[:2] != (params.theta, tau)
            or not np.array_equal(heat[2], b_elem)):
        A_diff = stiffness(mesh, b_elem)
        MW = (params.theta * sp.diags(M) + tau * A_diff).tocsr()
        MW.data[np.repeat(dirichlet, np.diff(MW.indptr))] = 0.0
        MW = (MW + sp.diags(dirichlet.astype(float))).tocsc()
        heat = c["heat_block"] = (params.theta, tau, b_elem, A_diff, MW)
    A_diff, MW = heat[3:]

    B = anisotropic_stiffness(mesh, aniso, phi_prev, phi_prev)

    g = c_mu * M_mu * phi_prev + c_conc * M * phi_prev

    sys = SystemMatrices(
        mesh=mesh, M=M, M_mu=M_mu, A_diff=A_diff, MW=MW, B_stiff=B,
        M_rho=None, g=g,
        dirichlet=dirichlet,
        c_mu=c_mu, c_B=c_B, c_conc=c_conc,
        lam=params.lam, theta=params.theta,
        tau=tau, u_D=params.u_D,
        phi_prev=phi_prev, w_prev=w_prev,
        _shape=shape, _aniso=aniso,
    )
    sys.M_rho = sys.m_rho_diag(phi_prev)
    return sys
