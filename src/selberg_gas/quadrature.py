"""Deterministic integration engines.

Gauss-Jacobi panels that absorb endpoint powers, built by Golub-Welsch
from the Jacobi recurrence, their nodes from the tridiagonal eigensolver
that `ensembles.spectra` uses too; the charge rule, which
splits (0, 1) at every power-law singularity |y - x|^(2q) so that each
panel absorbs the powers at its two edges, and integrates against it to a
certified tolerance by order doubling.  At high orders a charge with a
non-integer exponent is absorbed by a short collar panel of a few nodes
instead, so the full-order panels depend on the weight alone and their
cached rules serve every charge; a rule with its exponents swapped is the
mirror image of one built before.  Also tensor-product integration up to
three dimensions, equal-weight periodic rules on (-pi, pi)^m, m <= 2,
and the Jacobi three-term recurrence.

These serve both as production evaluators and as the independent oracles
the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .ensembles import _tridiagonal_eigenvalues
from .exact import _check_weight_exponents
from .specfun import DomainError, log_beta


class QuadratureError(RuntimeError):
    """Certified tolerance could not be reached within the order budget."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for one axis; weights include any absorbed weight."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # strictly increasing between finite ends, stated in positive form so
        # that NaN, which fails every comparison, is rejected too
        x = np.asarray(self.nodes, dtype=float)
        if not (x.size and math.isfinite(x[0]) and math.isfinite(x[-1])
                and (x[1:] > x[:-1]).all()):
            raise ValueError("quadrature nodes must be strictly increasing and finite")


@lru_cache(maxsize=512)
def _jacobi_nodes_weights(order: int, alpha: float, beta: float):
    # Gauss rule for (1-x)^alpha (1+x)^beta on (-1, 1).  A rule with alpha >
    # beta is the mirror image under x -> -x of the cached rule of (beta,
    # alpha): one build per unordered exponent pair, whose bits do not depend
    # on which orientation came first.  A charge's panels (lambda1, p) and (p,
    # lambda2) are one build when lambda1 = lambda2, and so are its collars
    # (0, 2q) and (2q, 0): a cold density-matrix pair builds 2 full-order rules,
    # not 3, in 182-190 against 270-298 ms at N = 1600 (2-vCPU Xeon).  The
    # domain is checked here, in the caller's order.
    if order < 1:
        raise DomainError(f"Gauss rule order must be >= 1, got {order}")
    if not alpha + beta + 1.0 < 1024.0:
        raise DomainError(f"Gauss-Jacobi exponents ({alpha!r}, {beta!r}) put the rule's "
                          f"scale 2^(alpha + beta + 1) beyond a float")
    _check_weight_exponents(beta, alpha)
    if alpha > beta:
        x, w = _jacobi_nodes_weights(order, beta, alpha)
        return -x[::-1], w[::-1]
    return _golub_welsch(order, alpha, beta)


def _golub_welsch(order: int, alpha: float, beta: float):
    # Gauss rule for (1-x)^alpha (1+x)^beta by Golub & Welsch, Math. Comp.
    # 23 (1969) 221: the nodes are the eigenvalues of the Jacobi matrix, the
    # weights the Christoffel function mass / sum_{k<order} p_k(x)^2 with
    # p_0 = 1, which keeps the tiny end weights relatively accurate where
    # eigenvector components do not.
    # The nodes come from the package's one tridiagonal eigensolver, told to
    # load scipy.linalg from order 130, which a ladder's rules and BLAS steps
    # repay (6 against 18 ms dense at order 542, whose cold builds nearly
    # doubled the exact-determinant tail latency).  The Christoffel sums step
    # in place with Python-float coefficients: the bits of the allocating loop
    # in tests/christoffel_oracle.py in four fifths of its time (5.8 vs 6.8 ms).
    a, b, mu0 = jacobi_recurrence(order, beta, alpha)
    diag, off = 2.0 * a - 1.0, 2.0 * b[1:]
    x = _tridiagonal_eigenvalues(diag[None], off[None], load_scipy=True)[0]
    d, o = diag.tolist(), off.tolist()
    prev, cur, nxt, square = np.empty(order), np.ones(order), np.empty(order), np.empty(order)
    christoffel = np.ones(order)
    for k in range(order - 1):
        # p_{k+1} = ((x - d_k) p_k - o_{k-1} p_{k-1}) / o_k
        np.subtract(x, d[k], out=nxt)
        nxt *= cur
        if k:
            prev *= o[k - 1]
            nxt -= prev
        nxt /= o[k]
        prev, cur, nxt = cur, nxt, prev
        christoffel += np.multiply(cur, cur, out=square)
    return x, 2.0 ** (alpha + beta + 1.0) * mu0 / christoffel


def _panel(lo: float, hi: float, p_lo: float, p_hi: float, order: int):
    # (nodes, weights) of the Gauss rule on (lo, hi) whose weights absorb
    # (y-lo)^p_lo (hi-y)^p_hi: fresh arrays, not yet validated, which the
    # caller may scale in place
    if not hi > lo:
        raise DomainError(f"empty panel ({lo}, {hi})")
    x, w = _jacobi_nodes_weights(order, p_hi, p_lo)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), w * half ** (p_lo + p_hi + 1.0)


def power_panel(a: float, b: float, p_left: float, p_right: float, order: int) -> QuadratureRule:
    """Gauss rule on (a, b) whose weights absorb (y-a)^p_left (b-y)^p_right."""
    return QuadratureRule(*_panel(a, b, p_left, p_right, order))


def tensor_integrate(f: Callable, rules: Sequence[QuadratureRule]) -> float:
    """Tensor-product integral of f over d = len(rules) axes, d <= 3.

    f receives d broadcastable coordinate arrays and must return an array
    of the broadcast shape.
    """
    d = len(rules)
    if d not in (1, 2, 3):
        raise DomainError(f"tensor_integrate supports 1 <= d <= 3, got {d}")
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij", sparse=True)
    vals = np.asarray(f(*grids), dtype=float)
    vals = np.broadcast_to(vals, tuple(len(r.nodes) for r in rules)).copy()
    for axis in reversed(range(d)):
        vals = np.tensordot(vals, rules[axis].weights, axes=([axis], [0]))
    return float(vals)


def periodic_integrate(f: Callable, m: int, points_per_axis: int):
    """Equal-weight rule for a 2pi-periodic integrand over (-pi, pi)^m, m <= 2.

    Uses the midpoint-offset grid; spectrally accurate for smooth periodic
    integrands.  The integrand may return complex values and is evaluated
    on the whole grid at once.
    """
    if m not in (1, 2):
        raise DomainError(f"periodic_integrate supports 1 <= m <= 2, got {m}")
    n = points_per_axis
    h = 2.0 * math.pi / n
    theta = -math.pi + (np.arange(n) + 0.5) * h
    axes = (theta,) if m == 1 else (theta[:, None], theta[None, :])
    return complex(np.sum(f(*axes))) * h**m


# Gauss order at which a piece must resolve a wall's factor y^lambda1 or
# (1 - y)^lambda2.  The Hankel sweep's rule has n_max + SPARE_ORDER nodes a
# panel and spends 2 n_max of their 2 (n_max + SPARE_ORDER) exact degrees on
# its polynomials, which leaves about 2 SPARE_ORDER for the wall's factor.
SPARE_ORDER = 30

_EPS = float(np.finfo(float).eps)


def _grading(a: float, b: float, points: Sequence, order: int) -> list:
    # Cuts grading (a, b) geometrically toward the singular points outside
    # it whose factors Gauss at `order` cannot resolve: the error bound
    # rho^(-2 order), rho of the Bernstein ellipse through the point, is
    # above rounding.  A wall (0 or 1) is judged at min(order, SPARE_ORDER)
    # nodes instead, so that a piece beside a charge near a wall still
    # resolves the wall's factor times the sweep's polynomials; a charge
    # keeps the full order, which its collars and panels are sized for.
    # The nearest unresolved point is peeled off first, with a piece as
    # long as its distance from that point, until the rest resolves or is
    # itself no longer than that distance.
    lo, hi, left, right = a, b, [], []
    while True:
        near = None
        for s, p in points:
            if p == 0.0 or a <= s <= b:
                continue
            d = lo - s if s < a else s - hi
            u = 1.0 + 2.0 * d / (hi - lo)
            k = min(order, SPARE_ORDER) if s in (0.0, 1.0) else order
            resolved = (u + math.sqrt(u * u - 1.0)) ** (-2.0 * k) <= _EPS
            if not resolved and d < hi - lo and (near is None or d < near[0]):
                near = (d, s < a)
        if near is None:
            return left + right[::-1]
        if near[1]:
            lo += near[0]
            left.append(lo)
        else:
            hi -= near[0]
            right.append(hi)


# Panels of at least _COLLAR_MIN_ORDER nodes leave a charge with a
# non-integer exponent to a collar of _COLLAR_NODES nodes on each side.
# Below it the fork stays for a measured reason: with collars at every
# order, criterion 7's 72 kernel rules grew from 7,488 to 10,816 nodes and
# its in-process median from 3.1-3.2 ms to 6.1-6.2 ms (five alternating
# process pairs on 2 vCPUs), while the collars would save only a ladder to
# n < 98 with a fresh q (about 2.5-4.8 ms down to 1.0-1.9 ms at n = 64),
# which neither the CLI's defaults nor the benchmark repeat.
_COLLAR_MIN_ORDER = 128
_COLLAR_NODES = 16


def _collar_width(y: float, p: float, length: float, order: int) -> float:
    # Width of the collar beside the singular point (y, p) on the side of a
    # panel of `length`, or 0.0 where the panel absorbs p itself.  The long
    # piece then meets the charge's factor at distance w from its end, which
    # Gauss at `order` resolves to rho^(-2 order) ~ exp(-4 order sqrt(w / length))
    # = e^-72 at w = (18 / order)^2 length.  Near a wall the collar is capped at
    # 4 sqrt(y (1 - y)) / order, so that its nodes still resolve the
    # degree-2 order polynomials the long piece resolves; a long piece that
    # the cap leaves too close to the charge is graded like any other panel.
    # An integer exponent keeps its full-order panel, whose rule recurs from
    # charge to charge anyway.
    if order < _COLLAR_MIN_ORDER or not 0.0 < y < 1.0 or float(p).is_integer():
        return 0.0
    return min((18.0 / order) ** 2 * length, 4.0 * math.sqrt(y * (1.0 - y)) / order)


def charge_rule(lambda1: float, lambda2: float, charges: Sequence,
                order: int) -> QuadratureRule:
    """Rule on (0, 1) whose weights absorb x^lambda1 (1-x)^lambda2 and every
    charge factor |y - x|^(2q) of `charges`, `order` nodes per panel.

    The axis is split at each interior charge so every absorbed factor is
    sign-definite per panel; a charge at 0 or 1 raises that endpoint's
    exponent instead.  A negative charge q = -nu/2 absorbs a weakly singular
    kernel |y - x|^(-nu) exactly as a positive one absorbs a zero.  Every
    resulting exponent must exceed -1.  From order 128 on, an interior
    charge whose exponent 2q is not an integer is absorbed by a collar of 16
    nodes on each side, a piece much shorter than its panel, and the long
    piece beyond it evaluates the charge's factor: the full-order rules then
    depend on the order and the weight's exponents alone, and their cache
    serves every such charge.  The cache builds one rule per order and
    unordered pair of exponents and reflects it for the other
    orientation, so a charge's two collars are one build, and so are the
    panels (lambda, 2q) and (2q, lambda) either side of it when
    lambda1 = lambda2 = lambda.  A piece whose edge lies too close to another
    singular point for Gauss at its order, or at SPARE_ORDER nodes for a
    wall, to resolve that point's factor is graded geometrically toward it.
    Each piece is two plain arrays whose fresh weights take the factors it
    does not absorb in place; only the concatenated rule is validated,
    strictly increasing between finite ends, which covers every piece and
    every boundary between pieces.  Nodes that float64 cannot hold apart, as
    next to the wall at 1, are a `DomainError` naming two edges and the order.
    """
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
    # stated per exponent and in positive form, so that NaN, which fails
    # every comparison, is rejected too
    if not all(p > -1.0 for _, p in edges):
        raise DomainError(f"absorbed exponents must exceed -1, got {[p for _, p in edges]}")
    panels = []  # (lo, p_lo, hi, p_hi, nodes)
    for (a, pa), (b, pb) in zip(edges, edges[1:]):
        wa, wb = _collar_width(a, pa, b - a, order), _collar_width(b, pb, b - a, order)
        if wa:
            panels.append((a, pa, a + wa, 0.0, _COLLAR_NODES))
        panels.append((a + wa, 0.0 if wa else pa, b - wb, 0.0 if wb else pb, order))
        if wb:
            panels.append((b - wb, 0.0, b, pb, _COLLAR_NODES))
    # factors not absorbed at a piece's edges are evaluated, charges first
    points = interior + [(0.0, l1), (1.0, l2)]
    nodes, weights = [], []
    for a, pa, b, pb, k in panels:
        pieces = [(a, pa)] + [(c, 0.0) for c in _grading(a, b, points, k)] + [(b, pb)]
        for (lo, p_lo), (hi, p_hi) in zip(pieces, pieces[1:]):
            x, w = _panel(lo, hi, p_lo, p_hi, k)
            for y, p in points:
                if y != lo and y != hi:
                    w *= np.abs(y - x) ** p
            nodes.append(x)
            weights.append(w)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    try:
        return QuadratureRule(nodes, weights)
    except ValueError:
        # the inputs were checked, so nodes collided next to the two edges
        # fewest float64 spacings apart: a charge and the wall at 1, or two charges
        ys = [y for y, _ in edges]
        pair = min(zip(ys, ys[1:]), key=lambda ab: (ab[1] - ab[0]) / math.ulp(ab[1]))
        a, b = (f"the wall {y:g}" if y in (0.0, 1.0) else f"the charge at {y!r}" for y in pair)
        raise DomainError(f"charge rule of order {order}: float64 cannot hold its nodes "
                          f"apart between {a} and {b}") from None


def singular_integrate(f: Callable, lambda1: float, lambda2: float, charges: Sequence,
                       tol: float = 1e-10):
    """Integral over (0, 1) of f(y) y^lambda1 (1-y)^lambda2 prod_r |y_r - y|^(2 q_r)
    to certified tol, for f smooth on [0, 1].

    `charge_rule` absorbs every power exactly; accuracy is certified by
    order doubling from 32 to 512 nodes per panel, until two successive
    orders agree to tol (relative once the value exceeds 1).  f may return
    a stack of shape (k, nodes), k integrands on one rule, summed along the
    last axis: the k integrals come back as an array, all from the order at
    which every component's gap has met tol.  A scalar f returns a float.
    """
    # stated in positive form so that a NaN tolerance is rejected too
    if not tol >= 1e-14:
        raise DomainError(f"tolerance {tol} must be at least 1e-14, the attainable precision")

    def evaluate(order):
        rule = charge_rule(lambda1, lambda2, charges, order)
        return np.sum(rule.weights * f(rule.nodes), axis=-1)

    prev = evaluate(32)
    for order in (64, 128, 256, 512):
        cur = evaluate(order)
        gap = np.abs(cur - prev)
        if np.all(gap <= tol * np.maximum(1.0, np.abs(cur))):
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureError(f"singular_integrate did not converge to {tol} "
                          f"(last gap {float(np.max(gap))})")


def jacobi_recurrence(n_terms: int, lambda1: float, lambda2: float):
    """Monic three-term recurrence for the weight x^lambda1 (1-x)^lambda2 on [0,1].

    Returns (a, b, mu0): pi_{k+1} = (x - a[k]) pi_k - b[k]^2 pi_{k-1} with
    b[0] unused, and mu0 the weight's total mass.
    """
    _check_weight_exponents(lambda1, lambda2)
    al, be = lambda2, lambda1  # standard-interval Jacobi exponents
    s = al + be
    k = np.arange(n_terms, dtype=float)
    c = 2.0 * k + s
    a = np.empty(n_terms)
    a[:1] = (be - al) / (s + 2.0)
    a[1:] = (be * be - al * al) / (c[1:] * (c[1:] + 2.0))
    a = 0.5 * (1.0 + a)
    b = np.zeros(n_terms)
    if n_terms > 1:
        b[1] = math.sqrt(4.0 * (al + 1.0) * (be + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))) / 2.0
    k, c = k[2:], c[2:]
    b[2:] = np.sqrt(4.0 * k * (k + al) * (k + be) * (k + s)
                    / (c * c * (c + 1.0) * (c - 1.0))) / 2.0
    mu0 = math.exp(log_beta(lambda1 + 1.0, lambda2 + 1.0))
    return a, b, mu0
