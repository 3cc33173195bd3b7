"""Ensemble averages and their identities.

Every exact average < prod_l f(x_l) > here is one Hankel determinant
ratio, the engine `fisherhartwig.hankel_log_ratios` (Heine's identity,
by three-term recurrences), at any n:
even-power averages, the Jacobi side of the Jacobi/circular duality
formula and the exact finite-N density matrix.  The circular side of the
duality is an m x m Toeplitz determinant of closed-form coefficients, each
a Jacobi polynomial in t.  The Monte Carlo density-matrix estimator, with
deterministic seeding and reduction, draws both boundaries' ensembles from
the exact sampler in `ensembles`.
Tensor-product quadrature is left to the oracles of the tests and the
acceptance suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fisherhartwig as fh
from .exact import (
    BOX_EXPONENTS,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    duality_constant_A,
)
from .ensembles import sample_bidiagonal, tridiagonal, tridiagonal_log_dets
# perfbench/tests/test_bench_tracer.py checks that this name is re-exported here
from .ensembles import sample_jue_halfhalf  # noqa: F401
from .specfun import DomainError, log_gamma


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its standard error."""

    value: float
    std_error: float


def average_even_power_heine(params: EnsembleParams, t: float, m: int) -> LogMagnitude:
    """< prod_l (t - x_l)^m > for even m by Heine's identity.

    The average is the Hankel ratio of the charge (t, m/2), taken from
    the recurrence coefficients of the charged and bare weights, which stay
    well conditioned far beyond the reach of raw monomial moments.
    """
    if m < 2 or m % 2 != 0:
        raise DomainError(f"power m must be even and >= 2, got {m}")
    symbol = fh.SymbolSpec(singularities=((t, m / 2),))
    return LogMagnitude(float(fh.hankel_log_ratios(params.lambda1, params.lambda2, symbol,
                                                   (params.n,))[0]))


def _normal(value: float, side: str) -> float:
    # an underflowed side reads 0.0 or a subnormal, and two underflowed
    # sides would compare as an exact agreement
    if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
        raise DomainError(f"duality {side} side is not a normal float: {value}")
    return float(value)


def duality_lhs(params: EnsembleParams, t: float, m: int) -> float:
    """Jacobi-side average < prod (t - x_l)^m > at size params.n, m even and
    >= 2.  Raises `DomainError` on an odd m or a zero or subnormal value."""
    return _normal(average_even_power_heine(params, t, m).value(
        "duality Jacobi side"), "Jacobi")


def _jacobi_p(n: int, alpha: np.ndarray, beta: np.ndarray, x: float) -> np.ndarray:
    # P_n^(alpha, beta)(x), n >= 1, by the three-term recurrence in the
    # degree, valid for any alpha + beta > -2; scipy's eval_jacobi returns NaN
    # at the negative integer alpha that integer weight exponents produce
    prev, cur = np.ones_like(alpha), (alpha + 1.0) + 0.5 * (alpha + beta + 2.0) * (x - 1.0)
    for k in range(2, n + 1):
        s = 2.0 * k + alpha + beta
        prev, cur = cur, (((s - 1.0) * (s * (s - 2.0) * x + alpha**2 - beta**2) * cur
                           - 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s * prev)
                          / (2.0 * k * (k + alpha + beta) * (s - 2.0)))
    return cur


def duality_rhs(params: EnsembleParams, t: float, m: int) -> float:
    """Circular-side value of the duality formula at size params.n, m even
    and >= 2, in closed form.

    By Andreief's identity the m-fold circular integral of
    prod_j F(theta_j) |Delta(e^{i theta})|^2 is m! det[c_{j-k}] with
    c_k = (1/2pi) int F(theta) e^{ik theta} d theta, and
    F(theta) = e^{ie theta} (2 cos theta/2)^p (t (1 + e^{i theta}) - 1)^n,
    e = (l1 - l2 - n)/2, p = l1 + l2 + n.  Expanding the last factor and
    integrating term by term with
    (1/2pi) int e^{ib theta} (2 cos theta/2)^a d theta
        = Gamma(a+1) / (Gamma(1 + a/2 + b) Gamma(1 + a/2 - b))
    (Forrester, Log-Gases and Random Matrices, 2010) gives a Jacobi polynomial:
    c_k = (-1)^n S P_n^(l1+k, l2-k)(1 - 2t) / ((l1+n+1)_k (l2+n+1)_{-k}),
    S = Gamma(p+1) n! / (Gamma(l1+n+1) Gamma(l2+n+1)), with Pochhammer
    symbols (x)_k = Gamma(x+k)/Gamma(x) that vanish in the denominator's
    poles.  The coefficients are real and exact to rounding; S^m is carried
    in log space, and the m! cancels against M_m(0, 0) = m!.  Raises
    `DomainError` on an odd m or a non-finite, zero or subnormal result.
    """
    # scipy.special is imported where it is called, not at module level, to
    # keep it out of the CLI's start-up
    from scipy.special import poch

    log_a = duality_constant_A(params, m).log_abs
    l1, l2, n = params.lambda1, params.lambda2, params.n
    ks = np.arange(1 - m, m, dtype=float)
    a0, b0 = l1 + n + 1.0, l2 + n + 1.0
    c = ((-1.0) ** n * _jacobi_p(n, l1 + ks, l2 - ks, 1.0 - 2.0 * t)
         / (poch(a0, ks) * poch(b0, -ks)))
    idx = np.arange(m)
    det = np.linalg.det(c[(m - 1) + idx[:, None] - idx[None, :]])
    log_scale = (log_gamma(l1 + l2 + n + 1.0) + log_gamma(n + 1.0)
                 - log_gamma(a0) - log_gamma(b0))
    value = det * math.exp(log_a + m * log_scale)
    return _normal(value, "circular")


def _dm_prefactor(query: DensityMatrixQuery) -> float:
    """The density-matrix normalisation, shared by the Monte Carlo estimator
    and the exact value.  It makes every value N/(N+1) times the physical
    density matrix of the N+1 particles, whose trace is N+1: the convention
    of the paper's Table 1, on which criterion 1's bands are centred.  The
    tests hold it to Lenard's determinant up to N = 200.  It is a constant
    times sqrt(w(X) w(Y)) (X(1-X) Y(1-Y))^(1/4), w the box's weight."""
    lambda1, lambda2 = BOX_EXPONENTS[query.boundary]
    e1, e2, X, Y = lambda1 + 0.5, lambda2 + 0.5, query.X, query.Y
    return (2.0 ** (1.0 + 2.0 * (lambda1 + lambda2)) * query.rho / (query.N + 1)
            * math.sqrt((X**e1 * (1.0 - X)**e2) * (Y**e1 * (1.0 - Y)**e2)))


def mc_density_matrix_table(queries: Sequence[DensityMatrixQuery], M: int,
                            master_seed: int) -> list:
    """Monte Carlo density-matrix estimates for several (X, Y) points off
    one sample set.

    `ensembles.sample_bidiagonal` draws samples 0..M-1, each a function of
    (N, boundary, master_seed, k) alone, and `ensembles.tridiagonal` gives
    their Jacobi matrices T.  Each sample's log prod_l 16 |X - x_l| |Y - x_l|
    is log |det(4X - 4T)| + log |det(4Y - 4T)|, taken without eigenvalues
    by the pivot recurrence `ensembles.tridiagonal_log_dets`, in one call
    over all M samples (16 M N bytes) and every X and Y.  That gives
    one (queries, M) array whose samples axis is contiguous, so each
    estimate is one numpy mean and standard deviation along it: bit for bit
    the reduction of the samples taken one at a time.
    """
    if M < 100:
        raise DomainError(f"M must be >= 100 for meaningful error bars, got {M}")
    if not queries:
        raise DomainError("need at least one query")
    if len({(q.N, q.boundary) for q in queries}) != 1:
        raise DomainError("table queries must share N and boundary")

    params = EnsembleParams(queries[0].N, *BOX_EXPONENTS[queries[0].boundary])
    diag, off_sq = tridiagonal(*sample_bidiagonal(params, master_seed, M))
    # scaling by 4 and 16 is exact; the pivots are those of X - T times 4
    points = 4.0 * np.array([q.X for q in queries] + [q.Y for q in queries])
    log_dets = tridiagonal_log_dets(points, 4.0 * diag, 16.0 * off_sq)
    # (queries, M), samples axis contiguous: numpy reduces it in the order it
    # reduces a 1-D array, a strided one it would sum in another order
    logp = log_dets[:len(queries)] + log_dets[len(queries):]
    prefactors = np.array([[_dm_prefactor(q)] for q in queries])
    vals = prefactors * np.exp(logp)
    means = vals.mean(axis=1).tolist()
    errors = (vals.std(axis=1, ddof=1) / math.sqrt(M)).tolist()
    return [MCEstimate(value=m, std_error=e) for m, e in zip(means, errors)]


def density_matrix_exact(query: DensityMatrixQuery) -> float:
    """Exact finite-N density matrix at any N: the Monte Carlo estimator's
    prefactor times its average < prod_l 16 |X - x_l| |Y - x_l| >, taken
    as the Hankel ratio of the two half charges (X, 1/2) and (Y, 1/2), which
    merge into one unit charge (X, 1) on the diagonal X = Y, the density.
    Like the estimator it returns N/(N+1) times the physical density matrix
    of the N+1 particles (see `_dm_prefactor`)."""
    charges = ((query.X, 1.0),) if query.X == query.Y else ((query.X, 0.5), (query.Y, 0.5))
    symbol = fh.SymbolSpec(singularities=charges)
    return _dm_prefactor(query) * math.exp(
        2 * query.N * math.log(4.0)
        + fh.hankel_log_ratios(*BOX_EXPONENTS[query.boundary], symbol, (query.N,))[0])


# Former names still called by the benchmark's oracle tests
# (perfbench/tests/test_bench_oracles.py); all three run on the Hankel engine.
ChargeConfig = fh.SymbolSpec
density_matrix_bruteforce = density_matrix_exact


def average_product_bruteforce(params: EnsembleParams, charges: fh.SymbolSpec) -> float:
    """< prod_l prod_r |y_r - x_l|^(2 q_r) > by the Hankel engine."""
    return math.exp(fh.hankel_log_ratios(params.lambda1, params.lambda2, charges,
                                         (params.n,))[0])
