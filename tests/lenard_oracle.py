"""Lenard's determinant for the one-body density matrix of N + 1 hard-core
bosons in a unit box, in the form of Pezer & Buljan (Phys. Rev. Lett. 98,
240403 (2007); A. Lenard, J. Math. Phys. 5, 930 (1964)).

Independent of the library: no quadrature, no ensemble, no change of
variables.  The bosons share the ground state of N + 1 free fermions, whose
orbitals are sqrt(2) sin(k pi x), k = 1..N+1, between Dirichlet walls and
1, sqrt(2) cos(k pi x), k = 1..N, between Neumann walls.  For x < y,

    rho(x, y) = det(P) phi(x)^T P^-1 phi(y),  P_ij = delta_ij - 2 int_x^y phi_i phi_j,

and every overlap is a closed-form trigonometric integral.  The trace of
rho over the box is N + 1.  On the diagonal rho is the free-fermion
density, the sum of the orbitals' squares.
"""

import math

import numpy as np


def _cos_integral(c: np.ndarray, x: float, y: float) -> np.ndarray:
    # int_x^y cos(c pi s) ds for integer c, y - x at c = 0
    safe = np.where(c == 0, 1, c)
    return np.where(c == 0, y - x,
                    (np.sin(safe * math.pi * y) - np.sin(safe * math.pi * x)) / (safe * math.pi))


def _orbitals(boundary: str, N: int, s: float):
    """The wave numbers and the N + 1 orbitals' values at s."""
    if boundary == "dirichlet":
        k = np.arange(1, N + 2)
        return k, math.sqrt(2.0) * np.sin(k * math.pi * s)
    k = np.arange(N + 1)
    return k, np.where(k == 0, 1.0, math.sqrt(2.0)) * np.cos(k * math.pi * s)


def density_matrix(boundary: str, N: int, x: float, y: float) -> float:
    """rho(x, y) of N + 1 hard-core bosons at physical points 0 < x < y < 1."""
    if not 0.0 < x < y < 1.0:
        raise ValueError(f"need 0 < x < y < 1, got ({x}, {y})")
    k, phi_x = _orbitals(boundary, N, x)
    _, phi_y = _orbitals(boundary, N, y)
    diff = _cos_integral(k[:, None] - k[None, :], x, y)
    total = _cos_integral(k[:, None] + k[None, :], x, y)
    if boundary == "dirichlet":
        # 2 sin(a s) sin(b s) = cos((a - b) s) - cos((a + b) s)
        overlaps = diff - total
    else:
        # c_a c_b cos(a s) cos(b s) = c_a c_b (cos((a - b) s) + cos((a + b) s)) / 2
        norm = np.where(k == 0, 1.0, math.sqrt(2.0))
        overlaps = 0.5 * np.outer(norm, norm) * (diff + total)
    P = np.eye(len(k)) - 2.0 * overlaps
    sign, log_det = np.linalg.slogdet(P)
    return float(sign * math.exp(log_det) * (phi_x @ np.linalg.solve(P, phi_y)))


def density(boundary: str, N: int, x: float) -> float:
    """rho(x, x) of N + 1 hard-core bosons at a physical point 0 < x < 1:
    sum_k 2 sin^2(k pi x) over k = 1..N+1 (Dirichlet) or
    1 + sum_k 2 cos^2(k pi x) over k = 1..N (Neumann)."""
    _, phi = _orbitals(boundary, N, x)
    return float(phi @ phi)
