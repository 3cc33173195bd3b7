"""Singular-symbol determinant laboratory.

Exact Hankel determinant ratios with Jacobi weights and algebraic
singularities, exact Toeplitz determinants from symbol Fourier
coefficients, the classical singular-symbol asymptote on the circle and
its Jacobi-weight analogue (proved by Deift, Its & Krasovsky, Ann. of
Math. 174 (2011), arXiv:0905.0443).

The Gram matrix of a Hankel ratio is integrated by
`quadrature.charge_rule`, which absorbs the weight and every zero into
Gauss-Jacobi panels.  Every size of a ladder comes from one factorisation
at the largest size: a Cholesky factor of the Gram matrix for Hankel
ratios, the Levinson-Durbin recursion for Toeplitz determinants.

Every symbol here is a product of algebraic zeros.  Smooth parts
exp(h) or exp(g), like jump discontinuities, are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature as quad
from .exact import EnsembleParams, LogMagnitude, selberg_closed, selberg_closed_barnes
from .specfun import DomainError, log_barnes_g, log_gamma


@dataclass(frozen=True)
class SymbolSpec:
    """Generating function: a product of algebraic zeros.

    For Jacobi-weight determinants each singularity (y_r, q_r), y_r in
    [0,1], contributes |y_r - x|^(2 q_r).  For Toeplitz determinants each
    (phi_r, a_r), phi_r in (-pi, pi], contributes |e^{i theta} - e^{i phi_r}|^(2 a_r).
    """

    singularities: tuple = ()

    def __post_init__(self):
        locs = [loc for loc, _ in self.singularities]
        if len(set(locs)) != len(locs):
            raise DomainError("singularity locations must be distinct")
        for loc, strength in self.singularities:
            if strength <= 0.0:
                raise DomainError(f"singularity strength must be positive, got {strength}")


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
    prod_l prod_r |y_r - x_l|^(2 q_r), the package's one exact
    engine for such averages at any n.  In the basis orthonormal against
    the bare weight the ratio is an n x n Gram determinant; the basis
    change cancels between numerator and denominator.  Moments are
    integrated by `quadrature.charge_rule`, split at each singularity so
    every absorbed factor is sign-definite per panel.  The size-n Gram
    matrices are the leading blocks of the largest one, so one Cholesky
    factor L gives every size: log H_n/H_n[1] = 2 sum_{i<n} log L_ii.
    """
    sizes = _check_sizes(sizes)
    n_max = int(sizes.max())
    rule = quad.charge_rule(params.lambda1, params.lambda2, symbol.singularities, n_max + 30)
    p = quad.orthonormal_polynomials(n_max - 1, params.lambda1, params.lambda2, rule.nodes)
    try:
        chol = np.linalg.cholesky((p * rule.weights) @ p.T)
    except np.linalg.LinAlgError:
        raise DomainError(f"Gram determinant lost positivity below n = {n_max}") from None
    logs = np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(chol)))))
    return logs[sizes]


def hankel_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """log of H_n[symbol] / H_n[1]: the one-size view of `hankel_log_ratios`."""
    return float(hankel_log_ratios(params, symbol, (n,))[0])


def hankel_balanced_log_ratios(params: EnsembleParams, symbol: SymbolSpec,
                               sizes: Sequence[int]) -> np.ndarray:
    """log of the charge-balanced exact ratio the Jacobi-weight asymptote
    targets, for every n in `sizes`, in request order.

    The same-size ratio H_n[symbol]/H_n[1] is not charge neutral and decays
    exponentially; the quantity with a clean large-n limit divides by the
    bare integral at size n + sum(q_r) and restores the weight factors at
    the singularity locations, exactly as in the single-charge partition
    ratio.  Non-integer total charge is handled through the Barnes-G
    continuation of the bare integral.
    """
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

    Combines the (2n)-power from each singularity, the pair terms and the
    local Barnes-G constants.  For a product of zeros the weight exponents
    of `params` drop out.
    """
    qs = symbol.singularities
    total = 0.0
    for _, q in qs:
        total += (-q + q * q) * math.log(2.0 * n)

    # pair and local terms of the n-independent constant
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            total += -2.0 * qs[i][1] * qs[j][1] * math.log(abs(qs[j][0] - qs[i][0]))
    for y, q in qs:
        if not 0.0 < y < 1.0:
            raise DomainError(f"the asymptote needs interior charges, got {y}")
        total += -0.5 * q * q * math.log(y * (1.0 - y))
        total += -q * math.log(math.pi) + 2.0 * log_barnes_g(q + 1.0) - log_barnes_g(2.0 * q + 1.0)
    return total


def _toeplitz_fourier_coeffs(symbol: SymbolSpec, p_max: int) -> np.ndarray:
    # Fourier coefficients c_p, p = -p_max..p_max, of
    #   prod_r (2 - 2 cos(theta - phi_r))^{a_r}.
    # One zero has them in closed form:
    #   c_p = e^{-ip phi} (-1)^p Gamma(2a+1) / (Gamma(a+1+p) Gamma(a+1-p)),
    # a cumulative product of (p-1-a)/(p+a), exact to rounding at every p.
    # Several zeros go through quadrature.
    if len(symbol.singularities) == 1:
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
        # the constant symbol 1
        return (ps == 0).astype(complex)

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
        # absorbed powers replaced by the smooth remainder of 4 sin^2(x/2)
        x_l = theta - phi
        x_r = right - theta
        if len(sing) == 1:
            # both panel ends are the same circle point; one factor covers both
            vals = (4.0 * np.sin(0.5 * x_l) ** 2 / (x_l * x_r) ** 2) ** a_left
        else:
            vals = (2.0 * np.sin(0.5 * x_l) / x_l) ** (2.0 * a_left)
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


def toeplitz_determinant(symbol: SymbolSpec, N: int) -> LogMagnitude:
    """Exact Toeplitz determinant: the one-size view of `toeplitz_log_dets`."""
    return LogMagnitude(float(toeplitz_log_dets(symbol, (N,))[0]))


def toeplitz_fh_asymptote(symbol: SymbolSpec, N: int) -> float:
    """Classical large-N log of D_N for a zero-type singular symbol:
    (sum a_r^2) log N + log E."""
    sing = symbol.singularities
    total = 0.0
    for _, a in sing:
        total += a * a * math.log(N)
    for _, a in sing:
        total += 2.0 * log_barnes_g(1.0 + a) - log_barnes_g(1.0 + 2.0 * a)
    for i in range(len(sing)):
        for j in range(i + 1, len(sing)):
            gap = abs(np.exp(1j * sing[j][0]) - np.exp(1j * sing[i][0]))
            total += -2.0 * sing[i][1] * sing[j][1] * math.log(gap)
    return total
