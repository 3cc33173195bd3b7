"""Independent reference values for the benchmark's correctness checks.

Nothing here imports selberg_gas: every value is computed from textbook
closed forms (Jacobi recurrence coefficients, Christoffel-Darboux sums,
gamma functions) and SciPy Gauss-Jacobi rules, so a refactor of the
library can neither break an oracle nor make it agree with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_gegenbauer, roots_jacobi

# Glaisher-Kinkelin constant; log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - 3/2 ln A
GLAISHER_A = 1.2824271291006226368753425688697917277676889273250
LOG_G_HALF = (math.log(2.0) / 24.0 + 0.125 - 0.25 * math.log(math.pi)
              - 1.5 * math.log(GLAISHER_A))
LOG_G_THREE_HALVES = LOG_G_HALF + 0.5 * math.log(math.pi)


def jacobi_recurrence(n_terms: int, l1: float, l2: float):
    """Orthonormal recurrence of the weight x^l1 (1-x)^l2 on [0, 1].

    Returns (a, b, mu0): x p_k = b[k+1] p_{k+1} + a[k] p_k + b[k] p_{k-1},
    b[0] = 0, mu0 the total mass.  Coefficients are the standard Jacobi
    ones for (alpha, beta) = (l2, l1) mapped from [-1, 1].
    """
    al, be = l2, l1
    s = al + be
    a = np.empty(n_terms)
    b = np.zeros(n_terms + 1)
    for k in range(n_terms):
        if k == 0:
            ak = (be - al) / (s + 2.0)
        else:
            ak = (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2.0))
        a[k] = 0.5 * (1.0 + ak)
    for k in range(1, n_terms + 1):
        if k == 1:
            bk2 = 4.0 * (al + 1.0) * (be + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
        else:
            bk2 = (4.0 * k * (k + al) * (k + be) * (k + s)
                   / ((2 * k + s) ** 2 * (2 * k + s + 1.0) * (2 * k + s - 1.0)))
        b[k] = 0.5 * math.sqrt(bk2)
    mu0 = math.exp(math.lgamma(l1 + 1.0) + math.lgamma(l2 + 1.0)
                   - math.lgamma(l1 + l2 + 2.0))
    return a, b, mu0


def orthonormal_values(n_max: int, l1: float, l2: float, x) -> np.ndarray:
    """p_0..p_{n_max} at x, orthonormal against x^l1 (1-x)^l2."""
    x = np.asarray(x, dtype=float)
    a, b, mu0 = jacobi_recurrence(n_max + 1, l1, l2)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0 / math.sqrt(mu0)
    if n_max >= 1:
        out[1] = (x - a[0]) * out[0] / b[1]
    for k in range(1, n_max):
        out[k + 1] = ((x - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
    return out


def log_monic_norm(n: int, l1: float, l2: float) -> float:
    """log h_n, the squared norm of the monic degree-n orthogonal polynomial."""
    _, b, mu0 = jacobi_recurrence(max(n, 1), l1, l2)
    return math.log(mu0) + 2.0 * float(np.sum(np.log(b[1:n + 1])))


def log_one_point_density(n: int, l1: float, l2: float, y: float) -> float:
    """log of w(y) K_{n+1}(y, y) / (n + 1), the normalised one-point density
    of the (n+1)-point ensemble, by the Christoffel-Darboux sum.

    This is the charge-balanced ratio w(y) Z_n[|y-x|^2] / Z_{n+1} that a
    unit-charge Hankel determinant computes.
    """
    p = orthonormal_values(n, l1, l2, y)
    log_w = l1 * math.log(y) + l2 * math.log(1.0 - y)
    return log_w + math.log(float(np.sum(p * p))) - math.log(n + 1.0)


def log_toeplitz_unit_charge(N: int) -> float:
    """log D_N for the symbol 2 - 2 cos(theta): the tridiagonal (-1, 2, -1)
    determinant equals N + 1."""
    return math.log(N + 1.0)


def _panel(a: float, b: float, p_left: float, p_right: float, order: int):
    # Gauss rule on (a, b) absorbing (x-a)^p_left (b-x)^p_right
    t, w = roots_jacobi(order, p_right, p_left)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), w * half ** (p_left + p_right + 1.0)


def _gram_log_average(n: int, l1: float, l2: float, nodes, weights) -> float:
    # log <prod_l f(x_l)> for an n-point ensemble: the Gram determinant of
    # the orthonormal basis against the weights (which carry w and f)
    p = orthonormal_values(n - 1, l1, l2, nodes)
    sign, logdet = np.linalg.slogdet((p * weights) @ p.T)
    if sign <= 0.0:
        raise ArithmeticError("Gram determinant lost positivity")
    return float(logdet)


def density_matrix_exact(N: int, lam: float, X: float, Y: float):
    """Exact finite-N density matrix at (X, Y) and the relative standard
    deviation of one Monte Carlo sample of its estimator.

    The estimator averages c * prod_l |X - x_l| |Y - x_l| over the N-point
    ensemble with weight (x(1-x))^lam, so its mean is the Gram determinant
    A = <prod |X-x||Y-x|> and its relative variance B / A^2 - 1 with
    B = <prod (X-x)^2 (Y-x)^2>.  The value is
      pi N / sqrt|X-Y| (X(1-X) Y(1-Y))^(1/4) * A * Z_N / Z_{N+1}
        * (weight at X and Y)^(1/2) * |X-Y|^(1/2).
    """
    lo, hi = min(X, Y), max(X, Y)
    order = N + 40
    xs, ws = [], []
    for a, b, pl, pr in ((0.0, lo, lam, 1.0), (lo, hi, 1.0, 1.0), (hi, 1.0, 1.0, lam)):
        x, w = _panel(a, b, pl, pr, order)
        if a > 0.0:
            w = w * x ** lam
        if b < 1.0:
            w = w * (1.0 - x) ** lam
        # the absorbed |X-x| or |Y-x| is replaced by the other factor only
        if a == 0.0:
            w = w * (hi - x)
        elif b == 1.0:
            w = w * (x - lo)
        xs.append(x)
        ws.append(w)
    log_a = _gram_log_average(N, lam, lam, np.concatenate(xs), np.concatenate(ws))

    x, w = _panel(0.0, 1.0, lam, lam, N + 8)
    log_b = _gram_log_average(N, lam, lam, x, w * ((X - x) * (Y - x)) ** 2)

    # Z_N / Z_{N+1} = 1 / ((N+1) h_N) for Z_n = int Delta^2 prod w over [0,1]^n
    log_ratio = log_a - math.log(N + 1.0) - log_monic_norm(N, lam, lam)
    log_ratio += 0.5 * lam * (math.log(X) + math.log(1.0 - X)
                              + math.log(Y) + math.log(1.0 - Y))
    log_ratio += 0.5 * math.log(abs(X - Y))
    value = (math.pi * N / math.sqrt(abs(X - Y))
             * (X * (1.0 - X) * Y * (1.0 - Y)) ** 0.25 * math.exp(log_ratio))
    rel_sd = math.sqrt(max(math.exp(log_b - 2.0 * log_a) - 1.0, 0.0))
    return value, rel_sd


def density_matrix_asymptote(N: int, X: float, Y: float) -> float:
    """Leading large-N density matrix: N G(3/2)^4 / sqrt(2N) (X(1-X)Y(1-Y))^(1/8)
    / sqrt|X-Y|, with G(3/2) from the Glaisher constant."""
    return (N * math.exp(4.0 * LOG_G_THREE_HALVES) / math.sqrt(2.0 * N)
            * (X * (1.0 - X) * Y * (1.0 - Y)) ** 0.125 / math.sqrt(abs(X - Y)))


def log_selberg_quadrature(n: int, l1: float, l2: float) -> float:
    """log of int_[0,1]^n Delta(x)^2 prod x^l1 (1-x)^l2 dx by tensor Gauss-Jacobi,
    exact for n <= 3."""
    x, w = _panel(0.0, 1.0, l1, l2, 8)
    grids = np.meshgrid(*([x] * n), indexing="ij")
    weights = np.ones_like(grids[0])
    for g, wg in zip(grids, np.meshgrid(*([w] * n), indexing="ij")):
        weights = weights * wg
    vdm = np.ones_like(grids[0])
    for j in range(n):
        for k in range(j + 1, n):
            vdm = vdm * (grids[k] - grids[j]) ** 2
    return math.log(float(np.sum(weights * vdm)))


def log_morris_quadrature(n: int, a: int, b: int) -> float:
    """log of (2 pi)^-n int e^{i(a-b)/2 sum th} prod |1+e^{i th}|^(a+b)
    prod |e^{i th_j} - e^{i th_k}|^2 over the n-torus, for integers a = b
    mod 2, where the integrand is a trigonometric polynomial and the
    equal-weight rule is exact."""
    pts = 64
    th = -math.pi + (np.arange(pts) + 0.5) * (2.0 * math.pi / pts)
    grids = np.meshgrid(*([th] * n), indexing="ij")
    val = np.ones_like(grids[0], dtype=complex)
    for g in grids:
        val = val * np.exp(0.5j * (a - b) * g) * (2.0 + 2.0 * np.cos(g)) ** ((a + b) // 2)
    for j in range(n):
        for k in range(j + 1, n):
            val = val * (2.0 - 2.0 * np.cos(grids[k] - grids[j]))
    return math.log(float(np.mean(val).real))


def scaled_occupation(j: int) -> float:
    """sqrt(2 pi) Gamma(j + 1/2) / j!, the kernel eigenvalue of mode j."""
    return math.sqrt(2.0 * math.pi) * math.exp(math.lgamma(j + 0.5) - math.lgamma(j + 1.0))


def orbital_norm_defect(j: int, normalization: float) -> float:
    """|(1/pi) int phi_j^2 / sqrt(X(1-X)) dX - 1| for
    phi_j = normalization * (X(1-X))^(1/8) C_j^(1/4)(2X - 1), by SciPy's
    Gegenbauer values on a Gauss-Jacobi rule (exact for the polynomial)."""
    x, w = _panel(0.0, 1.0, -0.25, -0.25, j + 4)
    c = eval_gegenbauer(j, 0.25, 2.0 * x - 1.0)
    return abs(normalization ** 2 * float(np.sum(w * c * c)) / math.pi - 1.0)


def expected_power_sums(n: int, l1: float, l2: float):
    """Exact E[sum x_l] and E[sum x_l^2] over the n-point ensemble:
    sum_{k<n} of the diagonal entries of J and J^2, J the infinite Jacobi
    matrix of the weight."""
    a, b, _ = jacobi_recurrence(n, l1, l2)
    return (float(np.sum(a)),
            float(np.sum(a * a) + 2.0 * np.sum(b[1:n] ** 2) + b[n] ** 2))
