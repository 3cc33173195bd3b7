"""Singular-symbol determinant laboratory.

Exact Hankel determinants with Jacobi weights and algebraic singularities,
exact Toeplitz determinants from symbol Fourier coefficients, the
classical singular-symbol asymptote on the circle, its Jacobi-weight
analogue (proved by Deift, Its & Krasovsky, Ann. of Math. 174 (2011),
arXiv:0905.0443), and drift reporting that compares exact determinant
series against the predicted large-size forms.

Every size of a ladder comes from one factorisation at the largest size:
a Cholesky factor of the Gram matrix for Hankel ratios, the
Levinson-Durbin recursion for Toeplitz determinants.

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


def _check_sizes(sizes: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=int)
    if sizes.ndim != 1 or len(sizes) == 0:
        raise DomainError("need at least one size")
    if sizes.min() < 1:
        raise DomainError(f"size must be >= 1, got {int(sizes.min())}")
    return sizes


def hankel_log_ratios(params: EnsembleParams, symbol: SymbolSpec,
                      sizes: Sequence[int]) -> np.ndarray:
    """log of H_n[symbol] / H_n[1] for every n in `sizes`, in request order,
    for the Jacobi weight of `params`.

    By Heine's identity each entry is the ensemble average of
    prod_l exp(h(x_l)) prod_r |y_r - x_l|^(2 q_r), the package's one exact
    engine for such averages at any n.  In the basis orthonormal against
    the bare weight the ratio is an n x n Gram determinant; the basis
    change cancels between numerator and denominator.  Moments are
    integrated exactly by splitting at each singularity so every absorbed
    factor is sign-definite per panel.  The size-n Gram matrices are the
    leading blocks of the largest one, so one Cholesky factor L gives every
    size: log H_n/H_n[1] = 2 sum_{i<n} log L_ii.
    """
    sizes = _check_sizes(sizes)
    n_max = int(sizes.max())
    rule = _axis_rule(params, symbol.singularities, n_max + 30)
    w = rule.weights * np.exp(symbol.h_value(rule.nodes))
    p = quad.orthonormal_polynomials(n_max - 1, params.lambda1, params.lambda2, rule.nodes)
    try:
        chol = np.linalg.cholesky((p * w) @ p.T)
    except np.linalg.LinAlgError:
        raise DomainError(f"Gram determinant lost positivity below n = {n_max}") from None
    logs = np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(chol)))))
    return logs[sizes]


def hankel_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """log of H_n[symbol] / H_n[1]: the one-size view of `hankel_log_ratios`."""
    return float(hankel_log_ratios(params, symbol, (n,))[0])


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


def hankel_balanced_log_ratios(params: EnsembleParams, symbol: SymbolSpec,
                               sizes: Sequence[int]) -> np.ndarray:
    """log of the charge-balanced exact ratio the Jacobi-weight asymptote
    targets, for every n in `sizes`, in request order.

    The same-size ratio H_n[symbol]/H_n[1] is not charge neutral and decays
    exponentially; the quantity with a clean large-n limit divides by the
    bare integral at size n + sum(q_r) and restores the weight factors at
    the singularity locations, exactly as in the single-charge partition
    ratio.  Non-integer total charge is handled through the Barnes-G
    continuation of the bare integral; requires a trivial smooth part.
    """
    if symbol.h_poly and any(abs(c) > 0.0 for c in symbol.h_poly):
        raise DomainError("balanced ratio implemented for trivial smooth part only")
    l1, l2 = params.lambda1, params.lambda2
    sing = symbol.singularities
    constant = 0.0
    for y, q in sing:
        if not 0.0 < y < 1.0:
            raise DomainError(f"balanced ratio needs interior charges, got {y}")
        constant += q * (l1 * math.log(y) + l2 * math.log(1.0 - y))
    for i in range(len(sing)):
        for j in range(i + 1, len(sing)):
            constant += 2.0 * sing[i][1] * sing[j][1] * math.log(abs(sing[j][0] - sing[i][0]))
    q_total = sum(q for _, q in sing)
    sizes = _check_sizes(sizes)
    totals = hankel_log_ratios(params, symbol, sizes) + constant
    for i, n in enumerate(sizes.tolist()):
        totals[i] += selberg_closed(n, l1, l2).log_abs
        if abs(q_total - round(q_total)) < 1e-12:
            totals[i] -= selberg_closed(n + int(round(q_total)), l1, l2).log_abs
        else:
            totals[i] -= selberg_closed_barnes(n + q_total, l1, l2).log_abs
    return totals


def hankel_balanced_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """The one-size view of `hankel_balanced_log_ratios`."""
    return float(hankel_balanced_log_ratios(params, symbol, (n,))[0])


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
    # Fourier coefficients c_p, p = -p_max..p_max, of
    #   exp(g(theta)) prod_r (2 - 2 cos(theta - phi_r))^{a_r}.
    # One zero without a smooth part has them in closed form:
    #   c_p = e^{-ip phi} (-1)^p Gamma(2a+1) / (Gamma(a+1+p) Gamma(a+1-p)),
    # a cumulative product of (p-1-a)/(p+a), exact to rounding at every p.
    # Every other symbol goes through quadrature.
    if len(symbol.singularities) == 1 and not symbol.g_fourier:
        ((phi, a),) = symbol.singularities
        ks = np.arange(1, p_max + 1)
        c0 = math.exp(log_gamma(2.0 * a + 1.0) - 2.0 * log_gamma(a + 1.0))
        pos = c0 * np.cumprod((ks - 1.0 - a) / (ks + a)) * np.exp(-1j * ks * phi)
        return np.concatenate((np.conj(pos[::-1]), [c0], pos))
    return _quadrature_fourier_coeffs(symbol, p_max)


def _quadrature_fourier_coeffs(symbol: SymbolSpec, p_max: int) -> np.ndarray:
    # Splitting the circle at every singularity and absorbing the local
    # power into a Gauss panel keeps each coefficient near machine
    # precision even though the symbol itself is only Hoelder there; the
    # tail |c_p| ~ p^(-1-2a) still loses relative accuracy at large p.
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


def toeplitz_log_dets(symbol: SymbolSpec, sizes: Sequence[int]) -> np.ndarray:
    """log D_N of the symbol's Toeplitz matrices [c_{j-k}] for every N in
    `sizes`, in request order.

    The coefficients are computed once, up to the largest size.  The
    matrix of a real symbol is Hermitian positive definite, so the
    Levinson-Durbin recursion gives every leading minor in O(N^2): with
    E_0 = c_0 and reflection coefficients kappa_k, E_k = E_{k-1}(1 - |kappa_k|^2)
    and log D_N = sum_{k<N} log E_k.
    """
    sizes = _check_sizes(sizes)
    p_max = int(sizes.max()) - 1
    coeffs = _toeplitz_fourier_coeffs(symbol, p_max)
    c = coeffs[p_max:]
    if np.max(np.abs(coeffs[p_max::-1] - np.conj(c))) > 1e-12 * abs(c[0]):
        raise DomainError("Toeplitz coefficients are not Hermitian; symbol unsupported")
    errors = np.zeros(p_max + 1)
    errors[0] = c[0].real
    pred = np.zeros(p_max + 1, dtype=complex)  # prediction filter, pred[0] = 1 implied
    for k in range(1, p_max + 1):
        if errors[k - 1] <= 0.0:
            break
        kappa = -(c[k] + np.dot(pred[1:k], c[k - 1:0:-1])) / errors[k - 1]
        pred[1:k] = pred[1:k] + kappa * np.conj(pred[k - 1:0:-1])
        pred[k] = kappa
        errors[k] = errors[k - 1] * (1.0 - abs(kappa) ** 2)
    if not np.all(errors > 0.0):
        raise DomainError("Toeplitz matrix is not positive definite; symbol unsupported")
    logs = np.concatenate(([0.0], np.cumsum(np.log(errors))))
    return logs[sizes]


def toeplitz_determinant(symbol: SymbolSpec, N: int) -> DeterminantValue:
    """Exact Toeplitz determinant: the one-size view of `toeplitz_log_dets`."""
    return DeterminantValue(log_abs=float(toeplitz_log_dets(symbol, (N,))[0]), sign=1,
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
