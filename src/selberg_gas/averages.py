"""Ensemble averages and their identities.

Every exact average < prod_l f(x_l) > here is one Gram determinant, the
engine `fisherhartwig.hankel_log_ratio` (Heine's identity), at any n:
even-power averages, the Jacobi side of the Jacobi/circular duality
formula and the exact finite-N density matrix.  The circular side of the
duality is an m x m Toeplitz determinant of periodic sums.  The Monte
Carlo density-matrix estimator, with deterministic seeding and reduction,
draws both boundaries' ensembles from the exact sampler in `ensembles`.
Tensor-product quadrature is left to the oracles of the tests and the
acceptance suite.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fisherhartwig as fh
from . import quadrature as quad
from .exact import (
    BOUNDARY_DIRICHLET,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    duality_constant_A,
    morris_closed,
)
from .ensembles import RngStream, sample_jue, sample_jue_halfhalf
from .specfun import DomainError


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its standard error and seed provenance."""

    value: float
    std_error: float
    m_samples: int
    master_seed: int


@dataclass(frozen=True)
class DualityCase:
    """One instance (n, m, t) of the Jacobi-to-circular duality identity."""

    n: int
    m: int
    t: float
    params: EnsembleParams

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise DomainError(f"duality power m must be even and >= 2, got {self.m}")
        if self.params.n != self.n:
            raise DomainError("DualityCase.n must match its EnsembleParams.n")


def pairwise_sum(values) -> float:
    """Fixed-order pairwise reduction; bit-stable across worker counts."""
    a = np.asarray(values, dtype=float).ravel().copy()
    if a.size == 0:
        return 0.0
    size = 1
    while size < a.size:
        size <<= 1
    if size != a.size:
        a = np.concatenate([a, np.zeros(size - a.size)])
    while a.size > 1:
        a = a[0::2] + a[1::2]
    return float(a[0])


def average_even_power_heine(params: EnsembleParams, t: float, m: int) -> LogMagnitude:
    """< prod_l (t - x_l)^m > for even m by Heine's identity.

    The average is the n x n Gram determinant of the charge (t, m/2) in the
    basis orthonormal against the ensemble weight, which stays well
    conditioned far beyond the reach of raw monomial moments.
    """
    if m < 2 or m % 2 != 0:
        raise DomainError(f"power m must be even and >= 2, got {m}")
    symbol = fh.SymbolSpec(singularities=((t, m / 2),))
    return LogMagnitude(fh.hankel_log_ratio(params, symbol, params.n))


def duality_lhs(case: DualityCase) -> float:
    """Jacobi-side average < prod (t - x_l)^m >."""
    return average_even_power_heine(case.params, case.t, case.m).value()


def _duality_rhs_integral(case: DualityCase, points: int) -> complex:
    # (2 pi)^-m times the m-fold periodic midpoint sum of
    # prod_j F(theta_j) |Delta(e^{i theta})|^2.  Andreief's identity holds for
    # the grid's discrete measure too, so that sum is m! det[c_{j-k}] with
    # c_k = (h / 2 pi) sum_theta F(theta) e^{i k theta}.
    e = (case.params.lambda1 - case.params.lambda2 - case.n) / 2.0
    p = case.params.lambda1 + case.params.lambda2 + case.n
    t, n, m = case.t, case.n, case.m
    h = 2.0 * math.pi / points
    theta = -math.pi + (np.arange(points) + 0.5) * h
    f = (np.exp(1j * e * theta)
         * (2.0 * np.cos(0.5 * theta)) ** p
         * (t * (1.0 + np.exp(1j * theta)) - 1.0) ** n)
    ks = np.arange(1 - m, m)
    c = np.exp(1j * np.outer(ks, theta)) @ f * (h / (2.0 * math.pi))
    idx = np.arange(m)
    toeplitz = c[(m - 1) + idx[:, None] - idx[None, :]]
    return math.factorial(m) * complex(np.linalg.det(toeplitz))


def duality_rhs(case: DualityCase) -> float:
    """Circular-side value of the duality formula.

    Each rung of the ladder is the m-fold periodic midpoint rule, summed
    exactly as an m x m Toeplitz determinant.  The half-angle weight has
    limited smoothness at the wrap point, so the rule is
    Richardson-extrapolated over the doubling ladder 1024, 2048, 4096.
    Raises `QuadratureError` when the result has an imaginary part or when
    the two Richardson rungs disagree beyond 1e-7 relative, the mark of
    cancellation in the periodic sums at large n near the edges of t.
    """
    ladder = [_duality_rhs_integral(case, 1024 << i) for i in range(3)]
    r1 = (4.0 * ladder[1] - ladder[0]) / 3.0
    r2 = (4.0 * ladder[2] - ladder[1]) / 3.0
    best = (16.0 * r2 - r1) / 15.0
    if abs(best.imag) > 1e-8 * max(1.0, abs(best.real)):
        raise quad.QuadratureError(
            f"duality integrand failed its real-value check: imag {best.imag}")
    spread = abs(r2 - r1)
    if spread > 1e-7 * abs(best.real):
        raise quad.QuadratureError(
            f"duality Richardson ladder did not settle: spread {spread:.3g} "
            f"on {best.real:.6g}")
    log_m0 = morris_closed(MorrisParams(case.m, 0.0, 0.0)).log_abs
    a_const = duality_constant_A(case.params, case.m)
    return math.exp(a_const.log_abs - log_m0) * best.real


def _dm_sampler(query: DensityMatrixQuery, stream: RngStream):
    if query.boundary == BOUNDARY_DIRICHLET:
        return sample_jue_halfhalf(query.N, stream)
    return sample_jue(EnsembleParams(n=query.N, lambda1=-0.5, lambda2=-0.5), stream)


def _dm_prefactor(query: DensityMatrixQuery) -> float:
    X, Y = query.X, query.Y
    if query.boundary == BOUNDARY_DIRICHLET:
        # on the Table 1 line Y = 1 - X the root is X(1 - X); the rounded
        # product under the root would miss it by an ulp
        root = (X * (1.0 - X) if Y == 1.0 - X
                else math.sqrt((X * (1.0 - X)) * (Y * (1.0 - Y))))
        return 8.0 * query.rho / (query.N + 1) * root
    return 0.5 * query.rho / (query.N + 1)


def _dm_sample_products(queries: Sequence[DensityMatrixQuery], k: int,
                        master_seed: int) -> np.ndarray:
    pts = _dm_sampler(queries[0], RngStream(master_seed, k)).points
    out = np.empty(len(queries))
    for i, query in enumerate(queries):
        logp = (np.log(np.abs(4.0 * query.X - 4.0 * pts)).sum()
                + np.log(np.abs(4.0 * query.Y - 4.0 * pts)).sum())
        out[i] = math.exp(logp)
    return out


def mc_density_matrix_table(queries: Sequence[DensityMatrixQuery], M: int,
                            master_seed: int, threads: int = 1) -> list:
    """Monte Carlo estimates for several (X, Y) points off one sample set.

    Sample k is generated from stream (master_seed, k), so the result for
    each query is bit-identical to a standalone run with the same seed,
    independent of the thread count.
    """
    if M < 100:
        raise DomainError(f"M must be >= 100 for meaningful error bars, got {M}")
    if len({(q.N, q.boundary, q.L) for q in queries}) != 1:
        raise DomainError("table queries must share N, boundary and L")

    products = np.empty((M, len(queries)))
    if threads <= 1:
        for k in range(M):
            products[k] = _dm_sample_products(queries, k, master_seed)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for k, row in zip(range(M), pool.map(
                    lambda kk: _dm_sample_products(queries, kk, master_seed),
                    range(M))):
                products[k] = row

    estimates = []
    for i, query in enumerate(queries):
        pref = _dm_prefactor(query)
        vals = pref * products[:, i]
        mean = pairwise_sum(vals) / M
        var = pairwise_sum((vals - mean) ** 2) / (M - 1)
        estimates.append(MCEstimate(value=mean, std_error=math.sqrt(var / M),
                                    m_samples=M, master_seed=master_seed))
    return estimates


def mc_density_matrix(query: DensityMatrixQuery, M: int, master_seed: int,
                      threads: int = 1) -> MCEstimate:
    """Monte Carlo density-matrix estimator at one point (X, Y).

    Per-sample eigenvalue products are accumulated in log space; the
    reduction over samples is a fixed-order pairwise sum.
    """
    return mc_density_matrix_table([query], M, master_seed, threads)[0]


def density_matrix_exact(query: DensityMatrixQuery) -> float:
    """Exact finite-N density matrix: the charge-balanced Gram ratio of the
    two half charges (X, 1/2) and (Y, 1/2), at any N."""
    params = EnsembleParams(n=query.N, lambda1=query.weight_exponent(),
                            lambda2=query.weight_exponent())
    symbol = fh.SymbolSpec(singularities=((query.X, 0.5), (query.Y, 0.5)))
    ratio = math.exp(fh.hankel_balanced_log_ratio(params, symbol, query.N))
    X, Y = query.X, query.Y
    return (math.pi * query.rho / math.sqrt(abs(X - Y))
            * (X * (1.0 - X)) ** 0.25 * (Y * (1.0 - Y)) ** 0.25 * ratio)


# Former names still called by the benchmark's oracle tests
# (perfbench/tests/test_bench_oracles.py); all three run on the Gram engine.
ChargeConfig = fh.SymbolSpec
density_matrix_bruteforce = density_matrix_exact


def average_product_bruteforce(params: EnsembleParams, charges: fh.SymbolSpec) -> float:
    """< prod_l prod_r |y_r - x_l|^(2 q_r) > by the Gram determinant."""
    return math.exp(fh.hankel_log_ratio(params, charges, params.n))
