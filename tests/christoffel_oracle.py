"""The allocating Golub-Welsch builder: the oracle
`quadrature._golub_welsch` is checked against.

Its Christoffel loop makes a new array for every term of each step; the
library steps in place on preallocated buffers with Python-float
coefficients and must return the same bits, at every order and in either
orientation of the exponents.  The body is the library's former
`_jacobi_nodes_weights`, unchanged but for its name and its cache.
"""

import numpy as np

from selberg_gas.ensembles import _DENSE_EIGEN_ORDERS
from selberg_gas.quadrature import jacobi_recurrence
from selberg_gas.specfun import DomainError


def jacobi_nodes_weights(order: int, alpha: float, beta: float):
    # Gauss rule for (1-x)^alpha (1+x)^beta on (-1, 1) by Golub & Welsch,
    # Math. Comp. 23 (1969) 221: the nodes are the eigenvalues of the
    # Jacobi matrix, the weights the Christoffel function
    # mass / sum_{k<order} p_k(x)^2 with p_0 = 1, which keeps the tiny end
    # weights relatively accurate where eigenvector components do not.
    # Below _DENSE_EIGEN_ORDERS numpy's dense solver on the lower triangle
    # returns the same bits as scipy's tridiagonal one in under 1 ms, so a
    # process that builds only small rules never imports scipy.linalg (about
    # 0.3 s), which is imported here rather than at module level.  Above it
    # the dense solver still returns the same bits but costs 3 to 4 times
    # as much (18 ms against 6 ms at order 542), and the large rules built
    # cold land among the slowest exact-determinant requests: with numpy at
    # every order their tail latency nearly doubled.
    if order < 1:
        raise DomainError(f"Gauss rule order must be >= 1, got {order}")
    if not alpha + beta + 1.0 < 1024.0:
        raise DomainError(f"Gauss-Jacobi exponents ({alpha!r}, {beta!r}) put the rule's "
                          f"scale 2^(alpha + beta + 1) beyond a float")
    a, b, mu0 = jacobi_recurrence(order, beta, alpha)
    diag, off = 2.0 * a - 1.0, 2.0 * b[1:]
    if order < _DENSE_EIGEN_ORDERS:
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    else:
        from scipy.linalg import eigvalsh_tridiagonal

        x = eigvalsh_tridiagonal(diag, off)
    prev, cur = np.zeros(order), np.ones(order)
    christoffel = np.ones(order)
    for k in range(order - 1):
        prev, cur = cur, ((x - diag[k]) * cur - (off[k - 1] * prev if k else 0.0)) / off[k]
        christoffel += cur * cur
    return x, 2.0 ** (alpha + beta + 1.0) * mu0 / christoffel
