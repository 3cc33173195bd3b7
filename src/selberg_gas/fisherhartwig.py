"""Singular-symbol determinant laboratory.

Exact Hankel determinants with Jacobi weights and algebraic singularities,
exact Toeplitz determinants from symbol Fourier coefficients, the
classical singular-symbol asymptote on the circle, its Jacobi-weight
analogue (proved by Deift, Its & Krasovsky, Ann. of Math. 174 (2011),
arXiv:0905.0443), and drift reporting that compares exact determinant
series against the predicted large-size forms.

Jump discontinuities are out of scope: every symbol here has zero jump
strengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature as quad
from .exact import EnsembleParams, selberg_closed, selberg_closed_barnes
from .specfun import DomainError, log_barnes_g, log_gamma


@dataclass(frozen=True)
class SymbolSpec:
    """Generating function: a smooth part times algebraic zeros.

    For Jacobi-weight determinants the smooth part is exp(h(x)) with h a
    polynomial in power basis on [0,1] and singularities (y_r, q_r) in
    (0,1).  For Toeplitz determinants the smooth part is exp(g(theta))
    given by Fourier pairs (p, g_p) and singularities (phi_r, a_r) on
    (-pi, pi].
    """

    singularities: tuple = ()
    h_poly: tuple = ()
    g_fourier: tuple = ()

    def __post_init__(self):
        locs = [loc for loc, _ in self.singularities]
        if len(set(locs)) != len(locs):
            raise DomainError("singularity locations must be distinct")
        for loc, strength in self.singularities:
            if strength <= 0.0:
                raise DomainError(f"singularity strength must be positive, got {strength}")

    def h_value(self, x):
        if not self.h_poly:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float),
                                                np.asarray(self.h_poly))

    def g_value(self, theta):
        theta = np.asarray(theta, dtype=float)
        total = np.zeros_like(theta, dtype=complex)
        for p, gp in self.g_fourier:
            total = total + gp * np.exp(1j * p * theta)
        return total

    def g_coeff(self, p: int) -> complex:
        for pp, gp in self.g_fourier:
            if pp == p:
                return gp
        return 0.0


@dataclass(frozen=True)
class DeterminantValue:
    """Determinant stored as sign * exp(log_abs) together with its size."""

    log_abs: float
    sign: int
    size: int


def _axis_rule(params: EnsembleParams, charges: Sequence, order: int) -> quad.QuadratureRule:
    # One-axis rule whose weights absorb x^l1 (1-x)^l2 and every charge
    # factor |y - x|^(2q).  The axis is split at each interior charge so the
    # absorbed factor is sign-definite per panel; a charge at 0 or 1 raises
    # that endpoint's exponent instead.
    l1, l2 = params.lambda1, params.lambda2
    interior = []
    for y, q in sorted(charges):
        if y == 0.0:
            l1 += 2.0 * q
        elif y == 1.0:
            l2 += 2.0 * q
        elif 0.0 < y < 1.0:
            interior.append((y, q))
        else:
            raise DomainError(f"charge position must lie in [0,1], got {y}")
    edges = [0.0] + [y for y, _ in interior] + [1.0]
    powers = [l1] + [2.0 * q for _, q in interior] + [l2]
    panels = []
    for i in range(len(edges) - 1):
        rule = quad.power_panel(edges[i], edges[i + 1], powers[i], powers[i + 1], order)
        w = rule.weights.copy()
        # charge factors absorbed at this panel's edges; evaluate the rest
        for j, (y, q) in enumerate(interior):
            if j != i - 1 and j != i:
                w *= np.abs(y - rule.nodes) ** (2.0 * q)
        # endpoint factors when 0 or 1 is not this panel's edge
        if i != 0:
            w *= rule.nodes ** l1
        if i != len(edges) - 2:
            w *= (1.0 - rule.nodes) ** l2
        panels.append(quad.QuadratureRule(rule.nodes, w, rule.domain, "charge-panel"))
    return quad.concat_rules(panels)


def hankel_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """log of H_n[symbol] / H_n[1] for the Jacobi weight of `params`.

    By Heine's identity this is the ensemble average of
    prod_l exp(h(x_l)) prod_r |y_r - x_l|^(2 q_r), the package's one exact
    engine for such averages at any n.  In the basis orthonormal against
    the bare weight the ratio is a single well-conditioned n x n Gram
    determinant; the basis change cancels between numerator and
    denominator.  Moments are integrated exactly by splitting at each
    singularity so every absorbed factor is sign-definite per panel.
    """
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    rule = _axis_rule(params, symbol.singularities, n + 30)
    w = rule.weights * np.exp(symbol.h_value(rule.nodes))
    p = quad.orthonormal_polynomials(n - 1, params.lambda1, params.lambda2, rule.nodes)
    gram = (p * w) @ p.T
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0.0:
        raise DomainError(f"Gram determinant lost positivity at n = {n}")
    return float(logdet)


def hankel_base_log(params: EnsembleParams, n: int) -> float:
    """log H_n[1] from the orthonormal-recurrence norms:
    n! * mu0^n * prod b_j^(2(n-j))."""
    a, b, mu0 = quad.jacobi_recurrence(max(n, 2), params.lambda1, params.lambda2)
    total = log_gamma(n + 1.0) + n * math.log(mu0)
    for j in range(1, n):
        total += 2.0 * (n - j) * math.log(b[j])
    return total


def hankel_determinant(params: EnsembleParams, symbol: SymbolSpec, n: int) -> DeterminantValue:
    """Exact H_n[symbol] for the Jacobi weight, in log form."""
    log_ratio = hankel_log_ratio(params, symbol, n)
    return DeterminantValue(log_abs=log_ratio + hankel_base_log(params, n),
                            sign=1, size=n)


def hankel_balanced_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """log of the charge-balanced exact ratio the Jacobi-weight asymptote targets.

    The same-size ratio H_n[symbol]/H_n[1] is not charge neutral and decays
    exponentially; the quantity with a clean large-n limit divides by the
    bare integral at size n + sum(q_r) and restores the weight factors at
    the singularity locations, exactly as in the single-charge partition
    ratio.  Non-integer total charge is handled through the Barnes-G
    continuation of the bare integral; requires a trivial smooth part.
    """
    if symbol.h_poly and any(abs(c) > 0.0 for c in symbol.h_poly):
        raise DomainError("balanced ratio implemented for trivial smooth part only")
    q_total = sum(q for _, q in symbol.singularities)
    total = hankel_log_ratio(params, symbol, n)
    total += selberg_closed(n, params.lambda1, params.lambda2).log_abs
    if abs(q_total - round(q_total)) < 1e-12:
        total -= selberg_closed(n + int(round(q_total)), params.lambda1,
                                params.lambda2).log_abs
    else:
        total -= selberg_closed_barnes(n + q_total, params.lambda1,
                                       params.lambda2).log_abs
    for y, q in symbol.singularities:
        if not 0.0 < y < 1.0:
            raise DomainError(f"balanced ratio needs interior charges, got {y}")
        total += q * (params.lambda1 * math.log(y) + params.lambda2 * math.log(1.0 - y))
    sing = symbol.singularities
    for i in range(len(sing)):
        for j in range(i + 1, len(sing)):
            total += 2.0 * sing[i][1] * sing[j][1] * math.log(abs(sing[j][0] - sing[i][0]))
    return total


def jacobi_fh_asymptote(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """Large-n log of H_n[symbol] / H_n[1], the Jacobi-weight Fisher-Hartwig
    asymptote of Deift, Its & Krasovsky, Ann. of Math. 174 (2011),
    arXiv:0905.0443.

    Combines the smooth-part arcsine integral, the (2n)-power from each
    singularity, the pair and endpoint terms, the principal-value double
    integral of the smooth part, and the Barnes-G singularity constants.
    """
    if symbol.g_fourier:
        raise DomainError("Jacobi asymptote expects a polynomial smooth part")
    l1, l2 = params.lambda1, params.lambda2
    qs = symbol.singularities
    q_sum = sum(q for _, q in qs)

    h = np.asarray(symbol.h_poly if symbol.h_poly else (0.0,), dtype=float)
    cheb = quad.power_panel(0.0, 1.0, -0.5, -0.5, max(len(h) + 4, 8))
    h_nodes = symbol.h_value(cheb.nodes)
    arcsine_integral = float(np.sum(cheb.weights * h_nodes))

    total = (n + q_sum + 0.5 * (l1 + l2)) / math.pi * arcsine_integral
    for _, q in qs:
        total += (-q + q * q) * math.log(2.0 * n)

    # pair, endpoint and local terms of the n-independent constant
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            total += -2.0 * qs[i][1] * qs[j][1] * math.log(abs(qs[j][0] - qs[i][0]))
    total += -0.25 * (l1 + l2) * float(symbol.h_value(0.0) + symbol.h_value(1.0))
    for y, q in qs:
        total += -q * float(symbol.h_value(y))
        total += -0.5 * q * q * math.log(y * (1.0 - y))
        total += -q * math.log(math.pi) + 2.0 * log_barnes_g(q + 1.0) - log_barnes_g(2.0 * q + 1.0)

    if len(h) > 1:
        # PV double integral: inner PV is exact per Chebyshev mode, outer
        # arcsine integral is a Gauss rule on the resulting polynomial
        hp = np.polynomial.polynomial.polyder(h)
        hp_t = np.polynomial.polynomial.Polynomial(hp)(
            np.polynomial.polynomial.Polynomial((0.5, 0.5)))
        u_coeffs = quad.poly_to_chebyshev_u(hp_t.coef)
        pv_nodes = np.array([quad.principal_value_airfoil(u_coeffs, x)
                             for x in cheb.nodes])
        total += float(np.sum(cheb.weights * h_nodes * pv_nodes)) / (4.0 * math.pi**2)
    return total


def _toeplitz_fourier_coeffs(symbol: SymbolSpec, p_max: int) -> np.ndarray:
    # Fourier coefficients c_p, |p| <= p_max, of
    #   exp(g(theta)) prod_r (2 - 2 cos(theta - phi_r))^{a_r}.
    # Splitting the circle at every singularity and absorbing the local
    # power into a Gauss panel keeps each coefficient near machine
    # precision even though the symbol itself is only Hoelder there.
    ps = np.arange(-p_max, p_max + 1)
    sing = sorted(symbol.singularities, key=lambda s: s[0])
    if not sing:
        points = max(256, 8 * (p_max + 1))
        h = 2.0 * math.pi / points
        theta = -math.pi + (np.arange(points) + 0.5) * h
        vals = np.exp(symbol.g_value(theta))
        phases = np.exp(-1j * np.outer(ps, theta))
        return phases @ vals * h / (2.0 * math.pi)

    # e^{-ip theta} oscillates p times over a full panel; keep ~pi nodes
    # per wavelength plus margin
    order = max(64, int(1.8 * p_max) + 48)
    angles = [phi for phi, _ in sing]
    strengths = [a for _, a in sing]
    total = np.zeros(len(ps), dtype=complex)
    for i, phi in enumerate(angles):
        right = angles[(i + 1) % len(angles)] + (2.0 * math.pi if i + 1 == len(angles)
                                                 else 0.0)
        if right <= phi:
            right += 2.0 * math.pi
        a_left = strengths[i]
        a_right = strengths[(i + 1) % len(angles)]
        rule = quad.power_panel(phi, right, 2.0 * a_left, 2.0 * a_right, order)
        theta = rule.nodes
        vals = np.exp(symbol.g_value(theta))
        # absorbed powers replaced by the smooth remainder of 4 sin^2(x/2)
        x_l = theta - phi
        x_r = right - theta
        if len(sing) == 1:
            # both panel ends are the same circle point; one factor covers both
            vals = vals * (4.0 * np.sin(0.5 * x_l) ** 2 / (x_l * x_r) ** 2) ** a_left
        else:
            vals = vals * (2.0 * np.sin(0.5 * x_l) / x_l) ** (2.0 * a_left)
            vals = vals * (2.0 * np.sin(0.5 * x_r) / x_r) ** (2.0 * a_right)
            for k, (phi_k, a_k) in enumerate(sing):
                if k in (i, (i + 1) % len(angles)):
                    continue
                vals = vals * np.abs(2.0 - 2.0 * np.cos(theta - phi_k)) ** a_k
        phases = np.exp(-1j * np.outer(ps, theta))
        total += phases @ (rule.weights * vals)
    return total / (2.0 * math.pi)


def toeplitz_determinant(symbol: SymbolSpec, N: int) -> DeterminantValue:
    """Exact Toeplitz determinant of the symbol's Fourier coefficients.

    Coefficients come from singularity-aware high-resolution periodic
    quadrature; the determinant is a scaled LU factorization of the N x N
    Toeplitz matrix.
    """
    if N < 1:
        raise DomainError(f"size must be >= 1, got {N}")
    coeffs = _toeplitz_fourier_coeffs(symbol, N - 1)
    idx = (N - 1) + np.arange(N)[:, None] - np.arange(N)[None, :]
    matrix = coeffs[idx]
    sign, logdet = np.linalg.slogdet(matrix)
    if abs(sign.imag) > 1e-8:
        raise DomainError("Toeplitz determinant is not real; symbol unsupported")
    return DeterminantValue(log_abs=float(logdet), sign=1 if sign.real > 0 else -1,
                            size=N)


def toeplitz_fh_asymptote(symbol: SymbolSpec, N: int) -> float:
    """Classical large-N log of D_N for a zero-type singular symbol:
    g_0 N + (sum a_r^2) log N + log E."""
    g0 = symbol.g_coeff(0)
    total = complex(g0).real * N
    for _, a in symbol.singularities:
        total += a * a * math.log(N)

    # smooth-part pair sum  sum_k k g_k g_{-k}
    smooth = 0.0
    for p, gp in symbol.g_fourier:
        if p > 0:
            smooth += p * complex(gp * symbol.g_coeff(-p)).real
    total += smooth

    for phi, a in symbol.singularities:
        local = complex(symbol.g_value(phi) - g0).real
        total += -a * local
        total += 2.0 * log_barnes_g(1.0 + a) - log_barnes_g(1.0 + 2.0 * a)
    sing = symbol.singularities
    for i in range(len(sing)):
        for j in range(i + 1, len(sing)):
            gap = abs(np.exp(1j * sing[j][0]) - np.exp(1j * sing[i][0]))
            total += -2.0 * sing[i][1] * sing[j][1] * math.log(gap)
    return total


@dataclass(frozen=True)
class DriftRow:
    size: int
    log_exact: float
    log_predicted: float
    delta: float


@dataclass(frozen=True)
class DriftReport:
    rows: tuple
    decreasing: bool
    final_abs_delta: float


def fh_drift_report(exact_series: Sequence, predicted_logs: Sequence[float]) -> DriftReport:
    """Tabulate delta_n = log(exact) - log(predicted) over a size ladder.

    Reports whether |delta| decreases over the last three sizes.  The
    asymptotes are theorems (for the Jacobi weight: Deift, Its & Krasovsky,
    Ann. of Math. 174 (2011), arXiv:0905.0443), so delta_n tends to 0; the
    report asserts no limit value, only the tabulated drift.
    """
    if len(exact_series) < 4:
        raise DomainError("drift report needs at least 4 sizes")
    if len(exact_series) != len(predicted_logs):
        raise DomainError("exact and predicted series lengths differ")
    rows = []
    for (size, det), pred in zip(exact_series, predicted_logs):
        log_exact = det.log_abs if isinstance(det, DeterminantValue) else float(det)
        rows.append(DriftRow(size=size, log_exact=log_exact, log_predicted=pred,
                             delta=log_exact - pred))
    tail = [abs(r.delta) for r in rows[-3:]]
    decreasing = tail[0] > tail[1] > tail[2]
    return DriftReport(rows=tuple(rows), decreasing=decreasing,
                       final_abs_delta=abs(rows[-1].delta))
