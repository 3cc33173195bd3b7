"""Two piecewise charge rules the library's `quadrature.charge_rule` is
checked against.

`uncollared_charge_rule` absorbs every interior charge by the two
full-order Gauss-Jacobi panels that meet at it, at every order, so each new
exponent 2q costs two cold Golub-Welsch rules.  `piecewise_charge_rule`
places the library's collars and assembles the rule the way the library
once did: one validated `power_panel` per piece, a copy of its weights, then
the factors that piece does not absorb.  Both are built from the library's
`power_panel`, `_grading` and `_collar_width`.
"""

import numpy as np

from selberg_gas import quadrature as quad
from selberg_gas.specfun import DomainError


def _absorb(lambda1: float, lambda2: float, charges):
    # the wall exponents with every charge at 0 or 1 added, and the
    # interior charges as (y, 2q)
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
    return l1, l2, interior


def _assemble(panels, points) -> quad.QuadratureRule:
    # each panel (lo, p_lo, hi, p_hi, nodes) graded into pieces, one
    # power_panel a piece, its weights copied and scaled by every factor
    # not absorbed at its edges
    nodes, weights = [], []
    for a, pa, b, pb, k in panels:
        pieces = [(a, pa)] + [(c, 0.0) for c in quad._grading(a, b, points, k)] + [(b, pb)]
        for (lo, p_lo), (hi, p_hi) in zip(pieces, pieces[1:]):
            rule = quad.power_panel(lo, hi, p_lo, p_hi, k)
            w = rule.weights.copy()
            for y, p in points:
                if y != lo and y != hi:
                    w *= np.abs(y - rule.nodes) ** p
            nodes.append(rule.nodes)
            weights.append(w)
    return quad.QuadratureRule(np.concatenate(nodes), np.concatenate(weights))


def uncollared_charge_rule(lambda1: float, lambda2: float, charges,
                           order: int) -> quad.QuadratureRule:
    """`quadrature.charge_rule` with every panel absorbing the exponents at
    both of its edges, `order` nodes per piece."""
    l1, l2, interior = _absorb(lambda1, lambda2, charges)
    edges = [(0.0, l1)] + interior + [(1.0, l2)]
    panels = [(a, pa, b, pb, order) for (a, pa), (b, pb) in zip(edges, edges[1:])]
    return _assemble(panels, interior + [(0.0, l1), (1.0, l2)])


def piecewise_charge_rule(lambda1: float, lambda2: float, charges,
                          order: int) -> quad.QuadratureRule:
    """`quadrature.charge_rule`, collars included, assembled piece by piece
    from validated `power_panel` rules."""
    l1, l2, interior = _absorb(lambda1, lambda2, charges)
    edges = [(0.0, l1)] + interior + [(1.0, l2)]
    panels = []
    for (a, pa), (b, pb) in zip(edges, edges[1:]):
        wa = quad._collar_width(a, pa, b - a, order)
        wb = quad._collar_width(b, pb, b - a, order)
        if wa:
            panels.append((a, pa, a + wa, 0.0, quad._COLLAR_NODES))
        panels.append((a + wa, 0.0 if wa else pa, b - wb, 0.0 if wb else pb, order))
        if wb:
            panels.append((b - wb, 0.0, b, pb, quad._COLLAR_NODES))
    return _assemble(panels, interior + [(0.0, l1), (1.0, l2)])
