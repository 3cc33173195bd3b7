"""Singular-symbol determinant laboratory.

Exact Hankel determinant ratios with Jacobi weights and algebraic
singularities, exact Toeplitz determinants of one algebraic zero, the
classical singular-symbol asymptote on the circle and its Jacobi-weight
analogue (proved by Deift, Its & Krasovsky, Ann. of Math. 174 (2011),
arXiv:0905.0443).

A Hankel ratio is a product of ratios of monic orthogonal-polynomial
norms.  The charged norms come from a discretised Stieltjes sweep on
`quadrature.charge_rule`, which absorbs the weight and every zero into
Gauss-Jacobi panels, the bare ones from the Jacobi recurrence, and every
size of a ladder from one sweep to the largest size.  From a largest size
of 98 on, a zero of non-integer exponent sits in two short collars, so the
full-order panels depend on the weight alone: a process builds them once
per (weight, largest size) and every later zero reuses them, and a rule
with swapped exponents is the reflection of one already built.  The
Toeplitz determinant of one zero is the circular Morris integral,
D_N = M_N(a, a) / N!, in closed form at every N.

Every symbol here is a product of algebraic zeros.  Smooth parts
exp(h) or exp(g), like jump discontinuities, are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature as quad
from .exact import EnsembleParams, LogMagnitude, selberg_log_ratio
from .specfun import DomainError, log_barnes_g


@dataclass(frozen=True)
class SymbolSpec:
    """Generating function: a product of algebraic zeros.

    For Jacobi-weight determinants each singularity (y_r, q_r), y_r in
    [0,1], contributes |y_r - x|^(2 q_r).  A Toeplitz symbol carries at most
    one zero (phi, a), phi in (-pi, pi], contributing |e^{i theta} - e^{i phi}|^(2a);
    `SymbolSpec()` is the constant symbol 1, and the Toeplitz functions raise
    `DomainError` on two or more zeros.
    """

    singularities: tuple = ()

    def __post_init__(self):
        locs = [loc for loc, _ in self.singularities]
        if len(set(locs)) != len(locs):
            raise DomainError("singularity locations must be distinct")
        for loc, strength in self.singularities:
            if strength <= 0.0:
                raise DomainError(f"singularity strength must be positive, got {strength}")
            if 2.0 * strength == math.inf:
                raise DomainError(f"singularity exponent 2q overflows a float at q = {strength!r}")


_RESIDUAL_FLOOR = math.sqrt(np.finfo(float).eps)

# OpenBLAS splits a ddot of more than 10,000 entries across its threads,
# whose partial sums then meet in an order set by the thread count.  A block
# of at most this many entries stays on one thread, so blocks summed in order
# give the same bits under any thread count, and a rule of one block the
# bits of one call.
_DOT_BLOCK = 8192


def _blocked(dot, size: int):
    # `dot` of two length-`size` vectors, summed over blocks of _DOT_BLOCK
    if size <= _DOT_BLOCK:
        return dot

    def blocked(a, c):
        total = dot(a[:_DOT_BLOCK], c[:_DOT_BLOCK])
        for i in range(_DOT_BLOCK, size, _DOT_BLOCK):
            total += dot(a[i:i + _DOT_BLOCK], c[i:i + _DOT_BLOCK])
        return total

    return blocked


def _stieltjes_step(x: np.ndarray, order: int) -> tuple:
    # (step, dot, normalize) of the sweep on nodes x: step(v, v_prev, b_prev,
    # out) is r = x v - (x v . v) v - b_prev v_prev and normalize(r, b) is
    # r / b.  Below order _DENSE_EIGEN_ORDERS they are numpy arithmetic,
    # which allocates r; from it, where the rule builder has already loaded
    # scipy.linalg, BLAS level-1 calls that write r into `out` and scale it
    # in place.
    if order < quad._DENSE_EIGEN_ORDERS:
        dot = _blocked(np.dot, len(x))

        def step(v, v_prev, b_prev, out):
            xv = x * v
            return xv - dot(xv, v) * v - b_prev * v_prev

        return step, dot, np.divide
    from scipy.linalg import blas

    size, multiply, axpy, scal = len(x), np.multiply, blas.daxpy, blas.dscal
    dot = _blocked(blas.ddot, size)

    def step(v, v_prev, b_prev, out):
        multiply(x, v, out)
        axpy(v, out, size, -dot(out, v))
        return axpy(v_prev, out, size, -b_prev)

    return step, dot, lambda r, b: scal(1.0 / b, r)


def _check_sizes(sizes: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or len(sizes) == 0:
        raise DomainError("need at least one size")
    if sizes.min() < 1:
        raise DomainError(f"size must be >= 1, got {sizes.min()}")
    if sizes.dtype.kind not in "iu":
        raise DomainError(f"sizes must be integers, got {sizes.tolist()}")
    return sizes


def hankel_log_ratios(lambda1: float, lambda2: float, symbol: SymbolSpec,
                      sizes: Sequence[int]) -> np.ndarray:
    """log of H_n[symbol] / H_n[1] for every n in `sizes`, in request order,
    for the Jacobi weight x^lambda1 (1-x)^lambda2.

    By Heine's identity each entry is the ensemble average of
    prod_l prod_r |y_r - x_l|^(2 q_r), the package's one exact
    engine for such averages at any n.  H_n is the product of the monic
    norms h_k, k < n, of the polynomials orthogonal against the weight, so
    log H_n[symbol]/H_n[1] = sum_{k<n} log(h~_k / h_k).  The bare norms
    come from the Jacobi recurrence, h_k = mu0 prod_{j<=k} b_j^2.  The
    charged ones come from a discretised Stieltjes (Lanczos) sweep on
    `quadrature.charge_rule`, which absorbs the weight and every charge
    into Gauss-Jacobi panels (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, OUP 2004, section 2.2): with v the
    current orthonormal polynomial's values times the square roots of the
    weights, each step takes r = x v - (x v . v) v - b~_{k-1} v_prev and
    b~_k = |r|.  One sweep to the largest size gives every rung, in O(N)
    memory for an N-node rule.  The rule has n_max + quad.SPARE_ORDER
    (30) nodes per panel, graded toward a wall until 30 nodes resolve it; from
    n_max = 98 on, a charge of non-integer 2q adds two 16-node collars
    instead of keying the full-order panels, which are then cached by the
    weight's exponents alone: `quadrature._jacobi_nodes_weights` builds one
    rule per unordered exponent pair and quotes the cold cost.

    Below rule order quad._DENSE_EIGEN_ORDERS (130, a largest size of 99)
    a step is numpy arithmetic: eight calls and five temporaries, and no
    scipy module.  From that order on, where the rule builder has already
    loaded scipy.linalg, a step runs in place on three preallocated buffers
    with BLAS level-1 calls (daxpy, ddot, dscal): a ladder to n = 512 on a
    cached 1,116-node rule takes about 2 ms against 5.3-6.8 ms with numpy
    steps, on a 2-vCPU Xeon.  daxpy fuses its multiply-add, so there a rung
    differs from the numpy step's by up to 3.4e-12 in the log at n = 512
    and 1.1e-11 at n = 1024.  Both steps sum every dot product over blocks
    of at most 8,192 nodes, in order: OpenBLAS splits a longer ddot across
    its threads, which made rules of over 10,000 nodes return bits that
    depended on the BLAS thread count.
    """
    sizes = _check_sizes(sizes)
    n_max = int(sizes.max())
    order = n_max + quad.SPARE_ORDER
    # the recurrence checks the weight before any rule is built
    _, b, mu0 = quad.jacobi_recurrence(n_max, lambda1, lambda2)
    rule = quad.charge_rule(lambda1, lambda2, symbol.singularities, order)
    x, w = rule.nodes, rule.weights
    mass = float(np.sum(w))
    if not (mass > 0.0 and math.isfinite(mass)):
        raise DomainError("Hankel ladder lost positivity below n = 1")
    step, dot, normalize = _stieltjes_step(x, order)
    v, v_prev, spare = np.sqrt(w / mass), np.zeros(len(w)), np.empty(len(w))
    log_b = np.empty(n_max)
    log_b[0] = 0.5 * math.log(mass / mu0)
    b_prev = 0.0
    for k in range(1, n_max):
        r = step(v, v_prev, b_prev, spare)
        b_cur = math.sqrt(dot(r, r))
        # the nodes lie in (0, 1), so each step rounds at about eps: a
        # residual below sqrt(eps) keeps less than half its digits, and a
        # rule with too few nodes leaves about 1e-16
        if not (b_cur > _RESIDUAL_FLOOR and math.isfinite(b_cur)):
            raise DomainError(f"Hankel ladder lost positivity below n = {k + 1}")
        log_b[k] = math.log(b_cur) - math.log(b[k])
        v_prev, v, spare, b_prev = v, normalize(r, b_cur), v_prev, b_cur
    logs = np.concatenate(([0.0], np.cumsum(2.0 * np.cumsum(log_b))))
    return logs[sizes]


def hankel_balanced_log_ratios(lambda1: float, lambda2: float, symbol: SymbolSpec,
                               sizes: Sequence[int]) -> np.ndarray:
    """log of the charge-balanced exact ratio the Jacobi-weight asymptote
    targets, for every n in `sizes`, in request order.

    The same-size ratio H_n[symbol]/H_n[1] is not charge neutral and decays
    exponentially; the quantity with a clean large-n limit divides by the
    bare integral at size n + sum(q_r) and restores the weight factors at
    the singularity locations, exactly as in the single-charge partition
    ratio.  `exact.selberg_log_ratio` takes log S_n/S_{n+q} from the
    factors the shift changes, O(q) gamma logs for an integer total charge
    q and five Barnes-G ratios otherwise, never from two size-n totals.
    """
    sing = symbol.singularities
    constant = 0.0
    for y, q in sing:
        if not 0.0 < y < 1.0:
            raise DomainError(f"balanced ratio needs interior charges, got {y}")
        constant += q * (lambda1 * math.log(y) + lambda2 * math.log(1.0 - y))
    for i in range(len(sing)):
        for j in range(i + 1, len(sing)):
            constant += 2.0 * sing[i][1] * sing[j][1] * math.log(abs(sing[j][0] - sing[i][0]))
    q_total = sum(q for _, q in sing)
    sizes = _check_sizes(sizes)
    totals = hankel_log_ratios(lambda1, lambda2, symbol, sizes) + constant
    for i, n in enumerate(sizes.tolist()):
        totals[i] += selberg_log_ratio(n, q_total, lambda1, lambda2)
    return totals


def hankel_balanced_log_ratio(params: EnsembleParams, symbol: SymbolSpec, n: int) -> float:
    """The one-size view of `hankel_balanced_log_ratios`, kept for the
    benchmark's oracle tests; the package calls the ladder with `(n,)`."""
    return float(hankel_balanced_log_ratios(params.lambda1, params.lambda2, symbol, (n,))[0])


def jacobi_fh_asymptotes(symbol: SymbolSpec, sizes: Sequence[int]) -> list:
    """Large-n limit of the charge-balanced log ratio of
    `hankel_balanced_log_ratios` (not of log H_n[symbol] / H_n[1], which
    decays exponentially) at every n in `sizes`, in request order: the
    Jacobi-weight Fisher-Hartwig asymptote of Deift, Its & Krasovsky, Ann.
    of Math. 174 (2011), arXiv:0905.0443.

    Combines the (2n)-power from each singularity, the pair terms and the
    local Barnes-G constants.  For a product of zeros the weight exponents
    drop out, so none are taken.  The constant's terms are taken once and
    added one by one after the powers, in the order of the one-size sum, so
    each entry has the bits of that sum, which `tests/test_fisherhartwig.py`
    keeps.
    """
    qs = symbol.singularities
    # pair and local terms of the n-independent constant
    constants = []
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            constants.append(-2.0 * qs[i][1] * qs[j][1] * math.log(abs(qs[j][0] - qs[i][0])))
    for y, q in qs:
        if not 0.0 < y < 1.0:
            raise DomainError(f"the asymptote needs interior charges, got {y}")
        constants.append(-0.5 * q * q * math.log(y * (1.0 - y)))
        constants.append(-q * math.log(math.pi) + 2.0 * log_barnes_g(q + 1.0)
                         - log_barnes_g(2.0 * q + 1.0))
    totals = []
    for n in sizes:
        total = 0.0
        for _, q in qs:
            total += (-q + q * q) * math.log(2.0 * n)
        for term in constants:
            total += term
        totals.append(total)
    return totals


def _one_zero(symbol: SymbolSpec) -> tuple:
    # (phi, a) of a Toeplitz symbol's zero; the constant symbol is a = 0
    if len(symbol.singularities) > 1:
        raise DomainError("a Toeplitz symbol carries at most one zero")
    return symbol.singularities[0] if symbol.singularities else (0.0, 0.0)


def _log_central_coeff(a: float) -> float:
    # log Gamma(2a+1) / Gamma(a+1)^2 = -log(2a+1) - log B(a+1, a+1): no
    # difference of two lgamma values, whose rounding the closed forms
    # multiply by N, and, unlike a ratio of math.gamma values, finite at
    # large a.  scipy.special is imported here to keep it out of the CLI's
    # start-up.
    from scipy.special import betaln

    return -math.log1p(2.0 * a) - float(betaln(a + 1.0, a + 1.0))


def _toeplitz_fourier_coeffs(symbol: SymbolSpec, p_max: int) -> np.ndarray:
    # Fourier coefficients c_p, p = -p_max..p_max, of (2 - 2 cos(theta - phi))^a:
    #   c_p = e^{-ip phi} (-1)^p Gamma(2a+1) / (Gamma(a+1+p) Gamma(a+1-p)),
    # a cumulative product of (p-1-a)/(p+a), exact to rounding at every p.
    phi, a = _one_zero(symbol)
    ks = np.arange(1, p_max + 1)
    c0 = math.exp(_log_central_coeff(a))
    pos = c0 * np.cumprod((ks - 1.0 - a) / (ks + a)) * np.exp(-1j * ks * phi)
    return np.concatenate((np.conj(pos[::-1]), [c0], pos))


def toeplitz_log_dets(symbol: SymbolSpec, sizes: Sequence[int]) -> np.ndarray:
    """log D_N of the symbol's Toeplitz matrices [c_{j-k}] for every N in
    `sizes`, in request order.

    By Heine's identity on the circle and a rotation, D_N = M_N(a, a) / N!,
    the Morris integral, at every N and phi: D_N = prod_{j<N} R_j with
    R_j = Gamma(2a+1+j) Gamma(1+j) / Gamma(a+1+j)^2 and
    R_j / R_{j-1} = 1 - a^2 / (a+j)^2.  Two cumulative sums of log-ratios
    give every size, and log N!, of size N log N, never enters.
    """
    sizes = _check_sizes(sizes)
    _, a = _one_zero(symbol)
    # from a ~ 1e16 on a step rounds to log1p(-1) = -inf, and from a ~ 1e154
    # on a * a overflows to NaN: those entries come back as they are, for
    # the caller to reject, with no warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.log1p(-a * a / (a + np.arange(1.0, sizes.max())) ** 2)
    log_r = _log_central_coeff(a) + np.concatenate(([0.0], np.cumsum(steps)))
    return np.concatenate(([0.0], np.cumsum(log_r)))[sizes]


def toeplitz_determinant(symbol: SymbolSpec, N: int) -> LogMagnitude:
    """Exact Toeplitz determinant: the one-size view of `toeplitz_log_dets`,
    kept for the benchmark's oracle tests; the package calls the ladder."""
    return LogMagnitude(float(toeplitz_log_dets(symbol, (N,))[0]))


def toeplitz_fh_asymptotes(symbol: SymbolSpec, sizes: Sequence[int]) -> list:
    """Classical large-N log D_N of one zero a, a^2 log N + log G(1+a)^2 / G(1+2a),
    at every N in `sizes`, in request order; the two Barnes-G logs are taken once."""
    _, a = _one_zero(symbol)
    g_single, g_double = 2.0 * log_barnes_g(1.0 + a), log_barnes_g(1.0 + 2.0 * a)
    return [a * a * math.log(N) + g_single - g_double for N in sizes]
