"""Tensor-product quadrature oracle for Jacobi-ensemble averages at n <= 3.

Independent of the library's Stieltjes ladder except for the 1-D
Gauss-Jacobi panels of `quadrature.power_panel`: the n-fold integral of
prod_l w(x_l) prod_r |y_r - x_l|^(2 q_r) |Delta(x)|^2 is summed on the full
tensor grid of one split axis rule.
"""

import math

import numpy as np

from selberg_gas import quadrature as quad
from selberg_gas.exact import EnsembleParams, selberg_closed
from selberg_gas.specfun import log_barnes_g


def selberg_closed_barnes(nu: float, a: float, b: float) -> float:
    """log S_nu(a, b, 1) continued to a real size nu > 0 through Barnes G:
    prod_{j<nu} Gamma(a+1+j) = G(nu+a+1)/G(a+1), and likewise for b, 2 and
    a+b+1+nu."""
    return (log_barnes_g(nu + 1.0 + a) - log_barnes_g(1.0 + a)
            + log_barnes_g(nu + 1.0 + b) - log_barnes_g(1.0 + b)
            + log_barnes_g(nu + 1.0 + a + b) - log_barnes_g(2.0 * nu + 1.0 + a + b)
            + log_barnes_g(nu + 2.0))


def vandermonde_sq(*coords):
    """prod_{j<k} (x_k - x_j)^2 over broadcastable coordinate arrays."""
    out = 1.0
    for j in range(len(coords)):
        for k in range(j + 1, len(coords)):
            out = out * (coords[k] - coords[j]) ** 2
    return out


def _charged_axis(params: EnsembleParams, charges, order: int) -> quad.QuadratureRule:
    # Panels between consecutive interior charges; each panel absorbs the
    # power sitting at its two edges and evaluates every other factor, so a
    # charge at 0 or 1 enters as an evaluated (polynomial, for integer q)
    # factor rather than as a shifted exponent.
    l1, l2 = params.lambda1, params.lambda2
    interior = sorted((y, q) for y, q in charges if 0.0 < y < 1.0)
    edges = [0.0] + [y for y, _ in interior] + [1.0]
    powers = [l1] + [2.0 * q for _, q in interior] + [l2]
    nodes, weights = [], []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        rule = quad.power_panel(a, b, powers[i], powers[i + 1], order)
        x = rule.nodes
        w = rule.weights.copy()
        for y, q in charges:
            if not (0.0 < y < 1.0 and y in (a, b)):
                w *= np.abs(y - x) ** (2.0 * q)
        if a != 0.0:
            w *= x ** l1
        if b != 1.0:
            w *= (1.0 - x) ** l2
        nodes.append(x)
        weights.append(w)
    return quad.QuadratureRule(np.concatenate(nodes), np.concatenate(weights))


def average(params: EnsembleParams, charges, order: int = 48) -> float:
    """< prod_l prod_r |y_r - x_l|^(2 q_r) > by tensor quadrature, n <= 3."""
    axis = _charged_axis(params, charges, order)
    bare = quad.power_panel(0.0, 1.0, params.lambda1, params.lambda2, order)
    n = params.n
    return (quad.tensor_integrate(vandermonde_sq, [axis] * n)
            / quad.tensor_integrate(vandermonde_sq, [bare] * n))


def partition_ratio(params: EnsembleParams, charges, order: int = 48) -> float:
    """Charge-balanced ratio Z_n(charges) / Z_{n + sum q}(no charges), n <= 3.

    Restores the weight at each charge position to its q-th power and the
    pair factor |y_r - y_s|^(2 q_r q_s).
    """
    n, l1, l2 = params.n, params.lambda1, params.lambda2
    raw = quad.tensor_integrate(vandermonde_sq, [_charged_axis(params, charges, order)] * n)
    log_pref = sum(q * (l1 * math.log(y) + l2 * math.log(1.0 - y)) for y, q in charges)
    for i, (y1, q1) in enumerate(charges):
        for y2, q2 in charges[i + 1:]:
            log_pref += 2.0 * q1 * q2 * math.log(abs(y1 - y2))
    q_total = sum(q for _, q in charges)
    if q_total == round(q_total):
        log_den = selberg_closed(n + int(q_total), l1, l2).log_abs
    else:
        log_den = selberg_closed_barnes(n + q_total, l1, l2)
    return raw * math.exp(log_pref - log_den)
