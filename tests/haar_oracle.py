"""Haar samples of the classical groups behind the paper's first step.

The paper writes the Dirichlet density matrix as an average over USp(2n)
and the Neumann one over SO(2n).  Both groups' eigenvalues come in pairs
e^{+-i theta_l}, and x_l = sin^2(theta_l / 2) = (1 - cos theta_l) / 2 maps
the USp(2n) eigenangles to the (1/2, 1/2) Jacobi ensemble and the SO(2n)
ones to the (-1/2, -1/2) ensemble.  The samples come from the QR factor of
a Ginibre matrix with R's diagonal made positive (F. Mezzadri, Notices
AMS 54 (2007) 592, arXiv:math-ph/0609050), in numpy alone, as stacks of
M matrices.
"""

import numpy as np


def symplectic_form(n: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]] of size 2n."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _positive_diagonal_qr(z: np.ndarray) -> np.ndarray:
    # the Q of the QR factorisation whose R has a positive diagonal, the one
    # whose law is Haar when z is Ginibre
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_so_even(n: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """M Haar matrices of SO(2n): Haar O(2n), with one column flipped where
    the determinant is -1."""
    q = _positive_diagonal_qr(rng.standard_normal((M, 2 * n, 2 * n)))
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


def haar_usp(n: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """M Haar matrices Q of USp(2n), unitary with Q^T J Q = J.

    The quaternion Ginibre matrix pairs each complex Gaussian column v with
    s(v) = -J conj(v).  Complex QR of the columns interleaved as
    (v_0, s(v_0), v_1, s(v_1), ...) keeps the pairing, q_{2k+1} = s(q_{2k}),
    because v^T J v = 0 makes s(v) orthogonal to v; the columns are then
    put back in block order (q_0, q_2, ..., s(q_0), s(q_2), ...).  Left
    interleaved, Q is unitary but not symplectic.
    """
    J = symplectic_form(n)
    v = rng.standard_normal((M, 2 * n, n)) + 1j * rng.standard_normal((M, 2 * n, n))
    paired = -J @ np.conj(v)
    z = np.empty((M, 2 * n, 2 * n), dtype=complex)
    z[:, :, 0::2], z[:, :, 1::2] = v, paired
    q = _positive_diagonal_qr(z)
    return np.concatenate((q[:, :, 0::2], q[:, :, 1::2]), axis=2)


def half_angle_points(q: np.ndarray) -> np.ndarray:
    """x_l = sin^2(theta_l / 2), l < n, of each matrix of a (M, 2n, 2n)
    stack: one point per eigenvalue pair e^{+-i theta_l}, whose two members
    share the real part cos theta_l."""
    x = np.sort((1.0 - np.linalg.eigvals(q).real) / 2.0, axis=-1)
    return x[:, 0::2]
