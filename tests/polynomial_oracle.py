"""Orthonormal Jacobi polynomials on [0, 1], a test oracle.

Built from `quadrature.jacobi_recurrence`, the three-term recurrence that
the library's Gauss-Jacobi panels and bare Hankel norms also come from.
"""

import math

import numpy as np

from selberg_gas import quadrature as quad


def orthonormal_polynomials(n_max: int, lambda1: float, lambda2: float, x) -> np.ndarray:
    """Values p_j(x), j = 0..n_max, orthonormal against x^lambda1 (1-x)^lambda2."""
    x = np.asarray(x, dtype=float)
    a, b, mu0 = quad.jacobi_recurrence(n_max + 1, lambda1, lambda2)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0 / math.sqrt(mu0)
    if n_max >= 1:
        out[1] = (x - a[0]) * out[0] / b[1]
    for k in range(1, n_max):
        out[k + 1] = ((x - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
    return out
