"""A fixed reference kernel that measures the host's current speed.

On a shared host the single-thread speed of a core moves between levels
for stretches of seconds to minutes, and every run time moves with it.
The kernel below does the same kinds of work as the program, without
calling it: a pure-Python Gauss-Seidel sweep over CSR arrays (like the
projected Gauss-Seidel solve), many small numpy calls (like point
location), and a sparse LU factorization (like the step solves).  Its
inputs are fixed, so its time changes only with the host's speed.

``speed_factor`` turns the kernel times just before and just after a call
into the factor by which the host ran slower than the nominal speed, the
speed at which the kernel takes ``NOMINAL_S``; dividing the call's wall
time by it gives its time at nominal speed.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# kernel time that defines the nominal host speed; a fixed constant, so
# normalised times of two commits compare directly
NOMINAL_S = 0.25
_GRID = 40
_SWEEPS = 14
_SMALL_SOLVES = 5000
_LU_GRID = 72


def _laplacian(m):
    one = sp.identity(m, format="csr")
    t = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    s = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
    return (sp.kron(one, t) + sp.kron(s, one)).tocsr()


_A = _laplacian(_GRID)
_RHS = np.linspace(-1.0, 1.0, _A.shape[0])
_P = np.array([[0.0, 0.0], [1.0, 0.1], [0.2, 0.9]])
_L = _laplacian(_LU_GRID)
_K = sp.bmat([[_L, -sp.identity(_L.shape[0])],
              [sp.identity(_L.shape[0]), _L]], format="csc")


def _sweeps():
    indptr, indices, data = _A.indptr, _A.indices, _A.data
    diag = _A.diagonal()
    x = np.zeros(_A.shape[0])
    for _ in range(_SWEEPS):
        for i in range(x.shape[0]):
            s = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if j != i:
                    s += data[k] * x[j]
            xi = (_RHS[i] - s) / diag[i]
            x[i] = min(1.0, max(-1.0, xi))
    return x


def _small_solves():
    acc = 0.0
    for k in range(_SMALL_SOLVES):
        pt = np.array([0.3, 0.3 + 1e-4 * (k % 7)])
        A = np.vstack([np.ones(3), _P.T])
        acc += np.linalg.solve(A, np.concatenate([[1.0], pt])).min()
    return acc


def _factor():
    lu = spla.splu(_K)
    return lu.solve(np.ones(_K.shape[0]))


def kernel():
    """Run the reference kernel once and return its wall time."""
    t0 = time.perf_counter()
    _sweeps()
    _small_solves()
    _factor()
    return time.perf_counter() - t0


def speed_factor(before, after):
    """How much slower than nominal the host ran during a call, from the
    kernel times just before and just after it."""
    return 0.5 * (before + after) / NOMINAL_S
