"""Effective single-particle states of the asymptotic density matrix.

The weakly singular kernel |X-Y|^(-1/2) [Y(1-Y)]^(-1/4) has the
quarter-index Gegenbauer polynomials C_j^{1/4} (scipy's
`eval_gegenbauer`) as exact eigenfunctions.  The kernel is applied by
`quadrature.singular_integrate`, whose charge rule absorbs |X-Y|^(-nu) as
a charge of strength -nu/2 at X.  This module also builds the normalized
orbitals and evaluates the hypergeometric sums
S_j, their differential-operator images and contiguity defects behind the
operator/differential-operator commutation argument, all from scipy's
`hyp2f1`.  The kernel image of the j-th mode is
Omega_j [S_j(X) + (-1)^j S_j(1-X)], with
Omega_j = Gamma(3/4) Gamma(j+1/2) / (Gamma(5/4) j!).

The eigenvalues and normalizations are gamma-log closed forms, kept in
`exact` (`scaled_occupation`, `orbital_normalization`) so that the CLI's
`orbitals` subcommand loads neither this module nor numpy.  scipy.special
is imported inside the functions that call it, once per call and never
per node.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .exact import _check_orbital_index, orbital_normalization, scaled_occupation
from .quadrature import singular_integrate
from .specfun import DomainError


def apply_kernel(nu: float, f: Callable, X: float, tol: float = 1e-8):
    """Integral of f(Y) |X-Y|^(-nu) [Y(1-Y)]^((nu-1)/2) over (0,1) at
    interior X: the Porter-Stirling weight, which at nu = 1/2 gives the
    kernel of the asymptotic density matrix.

    f must stay bounded on (0,1).  A scalar f gives a float.  An f that
    returns a stack of shape (k, nodes) gives the k integrals as an array,
    from one charge rule per order, certified once every component meets
    tol.  A nu outside (-1, 1), where the kernel or the weight is not
    integrable, is a `DomainError` from `charge_rule`.
    """
    if not 0.0 < X < 1.0:
        raise DomainError(f"kernel argument must lie in (0,1), got {X}")
    weight = 0.5 * (nu - 1.0)
    return singular_integrate(f, weight, weight, ((X, -0.5 * nu),), tol)


def orbital(j: int, X):
    """Values of the normalized j-th orbital at X (see `orbital_normalization`)."""
    from scipy.special import eval_gegenbauer

    norm = orbital_normalization(j)
    X = np.asarray(X, dtype=float)
    return norm * (X * (1.0 - X)) ** 0.125 * eval_gegenbauer(j, 0.25, 2.0 * X - 1.0)


def eigen_residuals(j_max: int, X: float) -> np.ndarray:
    """Scaled defects of the eigenrelation for the Gegenbauer modes
    j = 0..j_max at X, from one kernel application to the stacked modes."""
    from scipy.special import eval_gegenbauer

    modes = np.arange(j_max + 1)
    lhs = apply_kernel(0.5, lambda Y: eval_gegenbauer(modes[:, None], 0.25, 2.0 * Y - 1.0), X)
    occupations = np.array([scaled_occupation(j) for j in range(j_max + 1)])
    rhs = occupations * eval_gegenbauer(modes, 0.25, 2.0 * X - 1.0)
    return np.abs(lhs - rhs) / (1.0 + np.abs(rhs))


def porter_stirling_apply(nu: float, X: float) -> float:
    """Apply the |x-t|^(-nu) kernel to the closed-form solution
    phi(t) = cos(pi nu / 2) / pi [t(1-t)]^((nu-1)/2) of
    int phi(t) |x-t|^(-nu) dt = 1 on (0,1); exact value 1."""
    const = math.cos(0.5 * math.pi * nu) / math.pi
    return apply_kernel(nu, lambda Y: const * np.ones_like(Y), X)


def _series_coefficients(j: int) -> np.ndarray:
    # (-j)_k (j+1/2)_k / (k! (3/4)_k) for k = 0..j
    out = np.empty(j + 1)
    out[0] = 1.0
    for k in range(j):
        out[k + 1] = out[k] * (-j + k) * (j + 0.5 + k) / ((k + 1.0) * (0.75 + k))
    return out


def appendix_s(j: int, z: float) -> float:
    """The hypergeometric sum S_j(z) built from terminating-side 2F1 terms."""
    _check_orbital_index(j)
    if not 0.0 < z < 1.0:
        raise DomainError(f"argument must lie in (0,1), got {z}")
    from scipy.special import hyp2f1

    coeff = _series_coefficients(j)
    zq = z**0.25
    return float(sum(c * zq * hyp2f1(0.25 - k, 0.75, 1.25, z)
                     for k, c in enumerate(coeff)))


def l_operator_on_term(k: int, z: float) -> float:
    """Analytic value of L[z^{1/4} 2F1(1/4-k, 3/4; 5/4; z)] where
    L = z(1-z) d^2/dz^2 - (3/4)(2z-1) d/dz.

    Both derivatives come from the parameter-shift differentiation rule,
    which collapses back to 2F1 values at shifted lower parameters.
    """
    from scipy.special import hyp2f1

    a = 0.25 - k
    pref = -(3.0 / 16.0) * z**0.25 / z
    return float(pref * ((1.0 - z) * hyp2f1(a, 0.75, -0.75, z)
                         + (2.0 * z - 1.0) * hyp2f1(a, 0.75, 0.25, z)))


def l_operator_on_s(j: int, z: float) -> float:
    """Analytic L S_j(z); equals -j(j+1/2) S_j(z) on the eigenspace."""
    coeff = _series_coefficients(j)
    return float(sum(c * l_operator_on_term(k, z) for k, c in enumerate(coeff)))


def contiguity_residuals(k: int, z: float) -> tuple:
    """Defects of the two contiguity relations tying the shifted-parameter
    2F1 values together; both vanish identically."""
    from scipy.special import hyp2f1

    a = 0.25 - k
    f_m34 = hyp2f1(a, 0.75, -0.75, z)
    f_14 = hyp2f1(a, 0.75, 0.25, z)
    f_54 = hyp2f1(a, 0.75, 1.25, z)
    f_54_up = hyp2f1(a + 1.0, 0.75, 1.25, z)
    lhs1 = -(3.0 / 16.0) * (1.0 - z) * f_m34
    rhs1 = (1.0 / 16.0) * ((6.0 - 4.0 * k) * z - 3.0) * f_14 - 0.5 * k * z * f_54
    lhs2 = -0.25 * f_14
    rhs2 = -k * f_54 - (0.25 - k) * f_54_up
    # plain floats: a numpy bool in a criterion result breaks its JSON output
    return float(lhs1 - rhs1), float(lhs2 - rhs2)
