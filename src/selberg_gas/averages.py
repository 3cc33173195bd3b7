"""Ensemble averages and their identities.

Brute-force tensor-quadrature averages at n <= 3, determinant evaluation
of even-power averages at large n, both sides of the Jacobi/circular
duality formula, charge-balanced partition ratios, and the Monte Carlo
density-matrix estimator with deterministic seeding and reduction, which
draws both boundaries' ensembles from the exact sampler in `ensembles`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature as quad
from .exact import (
    BOUNDARY_DIRICHLET,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    duality_constant_A,
    morris_closed,
    selberg_closed,
    selberg_closed_barnes,
)
from .ensembles import RngStream, sample_jue, sample_jue_halfhalf
from .specfun import DomainError


@dataclass(frozen=True)
class ChargeConfig:
    """Insertions prod_r f(y_r - x) at distinct positions.

    Absolute-power insertions |y_r - x|^(2 q_r) require interior positions,
    checked where the splitting happens; signed powers (t - x)^m admit any
    t in [0, 1].
    """

    charges: tuple  # of (position, strength) pairs

    def __post_init__(self):
        positions = [p for p, _ in self.charges]
        if len(set(positions)) != len(positions):
            raise DomainError("charge positions must be distinct")
        for p, q in self.charges:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"charge position must lie in [0,1], got {p}")
            if q < 0.0:
                raise DomainError(f"charge strength must be >= 0, got {q}")


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


def _axis_rule(params: EnsembleParams, charges: Sequence, mode: str,
               order: int) -> quad.QuadratureRule:
    # One-axis rule whose weights absorb x^l1 (1-x)^l2 and every charge
    # factor.  Absolute powers are split at each charge position so the
    # absorbed factor is sign-definite per panel.
    l1, l2 = params.lambda1, params.lambda2
    if mode == "signed":
        rule = quad.power_panel(0.0, 1.0, l1, l2, order)
        w = rule.weights.copy()
        for t, m in charges:
            w *= (t - rule.nodes) ** m
        return quad.QuadratureRule(rule.nodes, w, rule.domain, "signed-axis")

    locs = sorted(charges, key=lambda c: c[0])
    for p, _ in locs:
        if not 0.0 < p < 1.0:
            raise DomainError(f"absolute-power insertion needs interior position, got {p}")
    edges = [0.0] + [p for p, _ in locs] + [1.0]
    powers = [l1] + [2.0 * q for _, q in locs] + [l2]
    panels = []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        rule = quad.power_panel(a, b, powers[i], powers[i + 1], order)
        w = rule.weights.copy()
        # charge factors absorbed at this panel's edges; evaluate the rest
        for j, (p, q) in enumerate(locs):
            if j == i - 1 or j == i:
                continue
            w *= np.abs(p - rule.nodes) ** (2.0 * q)
        # endpoint weight factors when 0 or 1 is not this panel's edge
        if i != 0:
            w *= rule.nodes ** l1
        if i != len(edges) - 2:
            w *= (1.0 - rule.nodes) ** l2
        panels.append(quad.QuadratureRule(rule.nodes, w, rule.domain, "abs-panel"))
    return quad.concat_rules(panels)


def _vandermonde_sq(*coords):
    d = len(coords)
    out = 1.0
    for j in range(d):
        for k in range(j + 1, d):
            out = out * (coords[k] - coords[j]) ** 2
    return out


def _base_axis_rule(params: EnsembleParams, order: int) -> quad.QuadratureRule:
    return quad.power_panel(0.0, 1.0, params.lambda1, params.lambda2, order)


def average_product_bruteforce(params: EnsembleParams, charges: ChargeConfig,
                               mode: str = "abs", order: int = 48) -> float:
    """Quadrature value of < prod_l prod_r f(y_r - x_l) > at n <= 3.

    mode 'abs' uses f = |y - x|^(2q); mode 'signed' uses f = (t - x)^m with
    m taken from the charge's strength slot.  Both the weighted integral
    and its normalization are evaluated by quadrature.
    """
    n = params.n
    if n > 3:
        raise DomainError(f"brute force supports n <= 3, got {n}")
    if mode not in ("abs", "signed"):
        raise DomainError(f"unknown mode {mode!r}")
    axis = _axis_rule(params, charges.charges, mode, order)
    base = _base_axis_rule(params, order)
    num = quad.tensor_integrate(_vandermonde_sq, [axis] * n)
    den = quad.tensor_integrate(_vandermonde_sq, [base] * n)
    return num / den


def average_even_power_heine(params: EnsembleParams, t: float, m: int) -> LogMagnitude:
    """< prod_l (t - x_l)^m > for even m via a moment determinant.

    Expressed in the basis orthonormal against the ensemble weight the
    moment matrix becomes the n x n corner of (t*I - J)^m with J the
    tridiagonal recurrence operator, which stays well conditioned far
    beyond the reach of raw monomial moments.
    """
    if m < 2 or m % 2 != 0:
        raise DomainError(f"power m must be even and >= 2, got {m}")
    n = params.n
    size = n + m
    a, b, _ = quad.jacobi_recurrence(size, params.lambda1, params.lambda2)
    jac = np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1)
    block = np.linalg.matrix_power(t * np.eye(size) - jac, m)[:n, :n]
    sign, logdet = np.linalg.slogdet(block)
    if sign == 0.0:
        raise DomainError(f"degenerate moment determinant at t = {t}, n = {n}")
    return LogMagnitude(float(logdet), int(sign))


def partition_ratio_even(params: EnsembleParams, t: float, q: int) -> float:
    """Charge-balanced ratio Z_n((t, q)) / Z_{n+q}(no charge) for integer q."""
    if q < 1:
        raise DomainError(f"q must be a positive integer, got {q}")
    avg = average_even_power_heine(params, t, 2 * q)
    log_ratio = (params.lambda1 * q * math.log(t)
                 + params.lambda2 * q * math.log(1.0 - t)
                 + selberg_closed(params.n, params.lambda1, params.lambda2).log_abs
                 - selberg_closed(params.n + q, params.lambda1, params.lambda2).log_abs
                 + avg.log_abs)
    return avg.sign * math.exp(log_ratio)


def partition_ratio_bruteforce(params: EnsembleParams, charges: ChargeConfig,
                               order: int = 48) -> float:
    """Ratio Z_n(charges) / Z_{n + sum q}(no charges) by tensor quadrature.

    Includes the charge-balancing prefactors: the weight evaluated at each
    charge position to its q-th power and the pair factor |X - Y|^(2 q1 q2).
    """
    n = params.n
    if n > 3:
        raise DomainError(f"brute force supports n <= 3, got {n}")
    if not 1 <= len(charges.charges) <= 2:
        raise DomainError("partition ratio expects one or two charges")
    live = tuple((p, q) for p, q in charges.charges if q > 0.0)
    if not live:
        raise DomainError("at least one charge must have q > 0")

    axis = _axis_rule(params, live, "abs", order)
    raw = quad.tensor_integrate(_vandermonde_sq, [axis] * n)
    log_pref = 0.0
    for p, q in live:
        log_pref += q * (params.lambda1 * math.log(p) + params.lambda2 * math.log(1.0 - p))
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            log_pref += 2.0 * live[i][1] * live[j][1] * math.log(abs(live[i][0] - live[j][0]))
    q_total = sum(q for _, q in live)
    if abs(q_total - round(q_total)) < 1e-12:
        log_den = selberg_closed(n + int(round(q_total)), params.lambda1, params.lambda2).log_abs
    else:
        log_den = selberg_closed_barnes(n + q_total, params.lambda1, params.lambda2).log_abs
    return raw * math.exp(log_pref - log_den)


def duality_lhs(case: DualityCase, order: int = 48) -> float:
    """Jacobi-side average < prod (t - x_l)^m >, quadrature for n <= 3."""
    if case.n <= 3:
        charges = ChargeConfig(charges=((case.t, case.m),))
        return average_product_bruteforce(case.params, charges, mode="signed",
                                          order=order)
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


def duality_rhs(case: DualityCase, base_points: int = 1024,
                imag_tol: float = 1e-8) -> float:
    """Circular-side value of the duality formula.

    Each rung of the ladder is the m-fold periodic midpoint rule, summed
    exactly as an m x m Toeplitz determinant.  The half-angle weight has
    limited smoothness at the wrap point, so the rule is
    Richardson-extrapolated over a doubling ladder.
    """
    ladder = [_duality_rhs_integral(case, base_points * (1 << i)) for i in range(3)]
    r1 = (4.0 * ladder[1] - ladder[0]) / 3.0
    r2 = (4.0 * ladder[2] - ladder[1]) / 3.0
    best = (16.0 * r2 - r1) / 15.0
    if abs(best.imag) > imag_tol * max(1.0, abs(best.real)):
        raise quad.QuadratureError(
            f"duality integrand failed its real-value check: imag {best.imag}")
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


def density_matrix_bruteforce(query: DensityMatrixQuery, order: int = 64) -> float:
    """Quadrature evaluation of the exact finite-N density matrix, N <= 3."""
    params = EnsembleParams(n=query.N, lambda1=query.weight_exponent(),
                            lambda2=query.weight_exponent())
    charges = ChargeConfig(charges=((query.X, 0.5), (query.Y, 0.5)))
    ratio = partition_ratio_bruteforce(params, charges, order=order)
    X, Y = query.X, query.Y
    return (math.pi * query.rho / math.sqrt(abs(X - Y))
            * (X * (1.0 - X)) ** 0.25 * (Y * (1.0 - Y)) ** 0.25 * ratio)
