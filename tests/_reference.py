"""Reference operators for the tracking tests, built with scipy.sparse.

The library applies ``-lap`` as a matrix-free 5-point stencil; the tests
compare it, and every solve built on it, against the assembled matrix.
"""

import numpy as np
import scipy.sparse as sp


def neg_laplacian(n: int) -> sp.csr_matrix:
    """The assembled 5-point ``-lap`` on n * n interior nodes of the unit
    square (zero Dirichlet data, mesh width ``1 / (n + 1)``), as CSR."""
    h = 1.0 / (n + 1)
    ones = np.ones(n)
    t = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], offsets=(-1, 0, 1))
    eye = sp.identity(n)
    return ((sp.kron(eye, t) + sp.kron(t, eye)) / h**2).tocsr()
