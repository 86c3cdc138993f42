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


def lumped_mass(mesh, weight=None, per="vertex"):
    """Diagonal of the lumped mass matrix, optionally weighted.

    ``weight`` may be per-vertex values (the weight is a nodal function)
    or per-element values (piecewise constant); the unweighted diagonal
    sums to the domain volume.
    """
    c = mesh._finalize()
    elements, volumes = c["elements"], c["volumes"]
    nv = len(c["vertices"])
    weight = None if weight is None else np.asarray(weight, dtype=float)
    vertex_weight = weight is not None and per == "vertex"
    if vertex_weight and weight.shape[0] != nv:
        raise InconsistentDimensions("vertex weight length mismatch")
    if weight is not None and not vertex_weight:
        if weight.shape[0] != len(volumes):
            raise InconsistentDimensions("element weight length mismatch")
        volumes = volumes * weight
    d1 = mesh.dim + 1
    diag = np.bincount(elements.ravel(), np.repeat(volumes / d1, d1),
                       minlength=nv)
    return diag * weight if vertex_weight else diag


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
    """All blocks of one time step, evaluated at a phase iterate.

    The heat-row blocks carry the Dirichlet replacement already; ``A_diff``
    and ``B_stiff`` are kept raw (energy evaluations need the unmodified
    stiffness).  ``rebuild(U)`` refreshes the iterate-dependent pieces
    (``M_rho`` always, ``B_stiff`` and hence ``C`` only when r > 1).
    """

    mesh: object
    M: np.ndarray                 # lumped mass diagonal
    M_mu: np.ndarray              # mobility-weighted lumped diagonal
    A_diff: sp.csr_matrix         # conductivity-weighted stiffness, raw
    B_stiff: sp.csr_matrix        # anisotropic stiffness at the iterate
    M_rho: np.ndarray             # rho-hat weighted lumped diagonal at the iterate
    f: np.ndarray                 # heat-row rhs at the iterate (Dirichlet applied)
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
    _smooth_cutoff: bool = field(repr=False, default=False)
    b_depends_on_iterate: bool = False
    rho_plus_nonzero: bool = False

    @property
    def n(self):
        return self.M.shape[0]

    def c_matrix(self, B=None):
        """C = c_mu * diag(M_mu) + c_B * B."""
        if B is None:
            B = self.B_stiff
        return (sp.diags(self.c_mu * self.M_mu) + self.c_B * B).tocsr()

    def m_rho_diag(self, U):
        """Diagonal of lam-free M_rho(U) (rho-hat weighted lumped mass)."""
        sh = self._shape
        if self._smooth_cutoff:
            w = sh.rho_minus(self.phi_prev) + sh.rho_plus_clamped(U)
        else:
            w = sh.rho_hat(self.phi_prev, U)
        return self.M * w

    def b_matrix_at(self, U):
        if not self.b_depends_on_iterate:
            return self.B_stiff
        return anisotropic_stiffness(self.mesh, self._aniso, self.phi_prev, U)

    def f_rhs(self, M_rho):
        """Heat-row rhs for a given coupling diagonal, Dirichlet applied."""
        f = self.lam * M_rho * self.phi_prev + self.theta * self.M * self.w_prev
        f[self.dirichlet] = self.u_D
        return f

    def rebuild(self, U):
        """Refresh M_rho, f and (for r > 1) B_stiff at the iterate U."""
        self.M_rho = self.m_rho_diag(U)
        self.f = self.f_rhs(self.M_rho)
        if self.b_depends_on_iterate:
            self.B_stiff = self.b_matrix_at(U)

    def heat_blocks(self, m_rho=None):
        """(U-block, W-block) of the heat row with Dirichlet replacement.

        The U-block is diag(lam * m_rho) (``m_rho`` defaults to ``M_rho``)
        with empty Dirichlet rows, the W-block theta M + tau A_diff with
        identity Dirichlet rows; neither stores explicit zeros.
        """
        u = self.lam * (self.M_rho if m_rho is None else m_rho)
        MU = sp.diags(np.where(self.dirichlet, 0.0, u), format="csr")
        MW = (self.theta * sp.diags(self.M) + self.tau * self.A_diff).tocsr()
        MW.data[np.repeat(self.dirichlet, np.diff(MW.indptr))] = 0.0
        MW = MW + sp.diags(self.dirichlet.astype(float))
        return MU, MW


def assemble_step_system(mesh, params, pot, shape, aniso, mobility,
                         phi_prev, w_prev, phi_iter=None, tau=None):
    """Build the coupled step system at the previous state.

    ``phi_iter`` selects where the iterate-dependent blocks are evaluated
    (defaults to the previous phase).  ``params`` carries the physical
    constants; the smooth scheme is selected by ``pot.kind == 'quartic'``
    and uses the clipped conductivity and the clamped implicit shape part.
    ``tau`` overrides the uniform step size for variable-step drivers.
    """
    phi_prev = np.asarray(phi_prev, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    nv = mesh.n_vertices
    if phi_prev.shape != (nv,) or w_prev.shape != (nv,):
        raise InconsistentDimensions("field lengths do not match the mesh")
    if phi_iter is None:
        phi_iter = phi_prev
    tau = params.tau if tau is None else float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")

    smooth = pot.kind == "quartic"
    c_psi = pot.c_psi
    c_mu = params.lam * params.eps * params.rho / (c_psi * params.a * tau)
    c_B = params.lam * params.alpha * params.eps / (c_psi * params.a)
    c_conc = params.lam * params.alpha / (c_psi * params.a * params.eps)

    M = lumped_mass(mesh)
    grads_prev = mesh.field_gradients(phi_prev)
    mu_elem = mobility.mu(aniso, grads_prev)
    M_mu = lumped_mass(mesh, mu_elem, per="element")

    b_vertex = diffusivity_b(phi_prev, params.Kplus, params.Kminus, clipped=smooth)
    b_elem = b_vertex[mesh.elements].mean(axis=1)
    A_diff = stiffness(mesh, b_elem)

    B = anisotropic_stiffness(mesh, aniso, phi_prev, phi_iter)

    g = c_mu * M_mu * phi_prev + c_conc * M * phi_prev

    sys = SystemMatrices(
        mesh=mesh, M=M, M_mu=M_mu, A_diff=A_diff, B_stiff=B,
        M_rho=np.zeros(nv), f=np.zeros(nv), g=g,
        dirichlet=mesh.dirichlet_mask.copy(),
        c_mu=c_mu, c_B=c_B, c_conc=c_conc,
        lam=params.lam, theta=params.theta,
        tau=tau, u_D=params.u_D,
        phi_prev=phi_prev, w_prev=w_prev,
        _shape=shape, _aniso=aniso, _smooth_cutoff=smooth,
        b_depends_on_iterate=aniso.exponent > 1.0,
        rho_plus_nonzero=not shape.implicit_part_is_zero,
    )
    sys.M_rho = sys.m_rho_diag(phi_iter)
    sys.f = sys.f_rhs(sys.M_rho)
    return sys
