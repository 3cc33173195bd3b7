"""The un-collared charge rule: the oracle the collared `quadrature.charge_rule`
is checked against.

Every interior charge is absorbed by the two full-order Gauss-Jacobi panels
that meet at it, at every order, so each new exponent 2q costs two cold
Golub-Welsch rules.  Built from the library's `power_panel` and `_grading`,
which the collars leave unchanged.
"""

import numpy as np

from selberg_gas import quadrature as quad
from selberg_gas.specfun import DomainError


def uncollared_charge_rule(lambda1: float, lambda2: float, charges,
                           order: int) -> quad.QuadratureRule:
    """`quadrature.charge_rule` with every panel absorbing the exponents at
    both of its edges, `order` nodes per piece."""
    l1, l2 = lambda1, lambda2
    interior = []
    for y, q in sorted(charges):
        if y == 0.0:
            l1 += 2.0 * q
        elif y == 1.0:
            l2 += 2.0 * q
        elif 0.0 < y < 1.0:
            interior.append((y, 2.0 * q))
        else:
            raise DomainError(f"charge position must lie in [0,1], got {y}")
    edges = [(0.0, l1)] + interior + [(1.0, l2)]
    points = interior + [(0.0, l1), (1.0, l2)]
    nodes, weights = [], []
    for (a, pa), (b, pb) in zip(edges, edges[1:]):
        pieces = [(a, pa)] + [(c, 0.0) for c in quad._grading(a, b, points, order)] + [(b, pb)]
        for (lo, p_lo), (hi, p_hi) in zip(pieces, pieces[1:]):
            rule = quad.power_panel(lo, hi, p_lo, p_hi, order)
            w = rule.weights.copy()
            for y, p in points:
                if y != lo and y != hi:
                    w *= np.abs(y - rule.nodes) ** p
            nodes.append(rule.nodes)
            weights.append(w)
    return quad.QuadratureRule(np.concatenate(nodes), np.concatenate(weights))
