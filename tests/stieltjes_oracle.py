"""The numpy Stieltjes sweep: the oracle `fisherhartwig.hankel_log_ratios`
is checked against.

Its loop is the engine's step as numpy arithmetic, eight calls a step and
five temporaries.  Below rule order `ensembles._DENSE_EIGEN_ORDERS` the
engine runs this same step and must return its bits; from that order on it
steps with in-place BLAS level-1 calls, whose fused multiply-adds round
differently.  The body is the engine's former one, unchanged, so the two
sweeps read the same charge rule and raise the same errors.
"""

import math

import numpy as np

from selberg_gas import quadrature as quad
from selberg_gas.fisherhartwig import _RESIDUAL_FLOOR, _check_sizes
from selberg_gas.specfun import DomainError


def hankel_log_ratios(params, symbol, sizes) -> np.ndarray:
    """log of H_n[symbol] / H_n[1] for every n in `sizes`, by the numpy sweep."""
    sizes = _check_sizes(sizes)
    n_max = int(sizes.max())
    rule = quad.charge_rule(params.lambda1, params.lambda2, symbol.singularities,
                           n_max + quad.SPARE_ORDER)
    _, b, mu0 = quad.jacobi_recurrence(n_max, params.lambda1, params.lambda2)
    x, w = rule.nodes, rule.weights
    mass = float(np.sum(w))
    if not (mass > 0.0 and math.isfinite(mass)):
        raise DomainError("Hankel ladder lost positivity below n = 1")
    v, v_prev = np.sqrt(w / mass), np.zeros_like(w)
    log_b = np.empty(n_max)
    log_b[0] = 0.5 * math.log(mass / mu0)
    b_prev = 0.0
    for k in range(1, n_max):
        xv = x * v
        r = xv - np.dot(xv, v) * v - b_prev * v_prev
        b_cur = math.sqrt(np.dot(r, r))
        # the nodes lie in (0, 1), so each step rounds at about eps: a
        # residual below sqrt(eps) keeps less than half its digits, and a
        # rule with too few nodes leaves about 1e-16
        if not (b_cur > _RESIDUAL_FLOOR and math.isfinite(b_cur)):
            raise DomainError(f"Hankel ladder lost positivity below n = {k + 1}")
        log_b[k] = math.log(b_cur) - math.log(b[k])
        v_prev, v, b_prev = v, r / b_cur, b_cur
    logs = np.concatenate(([0.0], np.cumsum(2.0 * np.cumsum(log_b))))
    return logs[sizes]
