"""Deterministic integration engines.

Gauss-Jacobi panels that absorb endpoint powers, tensor-product
integration up to three dimensions, equal-weight periodic rules on
(-pi, pi)^m, splitting of interior power-law singularities by algebraic
substitution, and the Jacobi three-term recurrence with its orthonormal
polynomials.

These serve both as production evaluators and as the independent oracles
the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .specfun import DomainError, log_beta


class QuadratureError(RuntimeError):
    """Certified tolerance could not be reached within the order budget."""

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for one axis; weights include any absorbed weight."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple
    kind: str

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("quadrature nodes must be strictly increasing")


@lru_cache(maxsize=512)
def _jacobi_nodes_weights(order: int, alpha: float, beta: float):
    x, w = roots_jacobi(order, alpha, beta)
    return np.asarray(x), np.asarray(w)


def power_panel(a: float, b: float, p_left: float, p_right: float, order: int) -> QuadratureRule:
    """Gauss rule on (a, b) whose weights absorb (y-a)^p_left (b-y)^p_right."""
    if not b > a:
        raise DomainError(f"empty panel ({a}, {b})")
    x, w = _jacobi_nodes_weights(order, p_right, p_left)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (p_left + p_right + 1.0)
    return QuadratureRule(nodes, weights, (a, b), f"panel({p_left},{p_right})")


def concat_rules(rules: Sequence[QuadratureRule]) -> QuadratureRule:
    """Composite rule from contiguous panels (nodes stay increasing)."""
    nodes = np.concatenate([r.nodes for r in rules])
    weights = np.concatenate([r.weights for r in rules])
    return QuadratureRule(nodes, weights, (rules[0].domain[0], rules[-1].domain[1]), "composite")


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
    """Equal-weight rule for a 2pi-periodic integrand over (-pi, pi)^m, m <= 3.

    Uses the midpoint-offset grid; spectrally accurate for smooth periodic
    integrands.  The integrand may return complex values.  Evaluation is
    chunked along the first axis to about 4M grid points to bound memory.
    """
    if m not in (1, 2, 3):
        raise DomainError(f"periodic_integrate supports 1 <= m <= 3, got {m}")
    n = points_per_axis
    h = 2.0 * math.pi / n
    theta = -math.pi + (np.arange(n) + 0.5) * h
    if m == 1:
        return complex(np.sum(f(theta))) * h

    rows_per_chunk = max(1, (1 << 22) // n ** (m - 1))
    total = 0.0 + 0.0j
    for start in range(0, n, rows_per_chunk):
        block = theta[start : start + rows_per_chunk]
        if m == 2:
            vals = f(block[:, None], theta[None, :])
        else:
            vals = f(block[:, None, None], theta[None, :, None], theta[None, None, :])
        total += complex(np.sum(vals))
    return total * h**m


@dataclass(frozen=True)
class SingularIntegrand:
    """Integrand on (0,1): smooth_factor(y) * y^p0 * (1-y)^p1 * |s-y|^nu_exponent.

    interior_singularity, when present, is (location, exponent) with the
    exponent in (-1, 0).  All exponents must exceed -1 for integrability.
    """

    smooth_factor: Callable
    interior_singularity: Optional[tuple] = None
    endpoint_exponents: tuple = (0.0, 0.0)

    def __post_init__(self):
        p0, p1 = self.endpoint_exponents
        if p0 <= -1.0 or p1 <= -1.0:
            raise DomainError(f"endpoint exponents must exceed -1, got ({p0}, {p1})")
        if self.interior_singularity is not None:
            s, e = self.interior_singularity
            if not 0.0 < s < 1.0:
                raise DomainError(f"interior singularity must lie in (0,1), got {s}")
            if not -1.0 < e < 0.0:
                raise DomainError(f"interior exponent must lie in (-1,0), got {e}")


def _nu_substitution_power(nu: float) -> int:
    # substitution y = s +/- u^q removes |s-y|^{-nu} completely when
    # q*(1-nu) is a positive integer; q = denominator of nu as a fraction
    frac = Fraction(nu).limit_denominator(64)
    if abs(float(frac) - nu) > 1e-13:
        raise DomainError(f"singular exponent {nu} not a small rational; unsupported")
    return frac.denominator


def _half_panel(smooth, s, reach, sign, nu, p_here, order):
    # integral over y between s and s+sign*reach of
    #   smooth(y) * (near-endpoint power)^(p_here) * |s-y|^(-nu),
    # the far endpoint's factor living inside `smooth`.
    # Substitution y = s + sign*u^q.
    q = _nu_substitution_power(nu)
    ub = reach ** (1.0 / q)
    rule = power_panel(0.0, ub, 0.0, p_here, order)
    u = rule.nodes
    y = s + sign * u**q
    # (reach - u^q)^p_here = (ub - u)^p_here * ratio^p_here, ratio smooth > 0
    ratio = np.zeros_like(u)
    for i in range(q):
        ratio += u**i * ub ** (q - 1 - i)
    vals = q * u ** (q * (1.0 - nu) - 1.0) * smooth(y) * ratio**p_here
    return float(np.sum(rule.weights * vals))


def singular_integrate(s: SingularIntegrand, tol: float = 1e-10) -> float:
    """Integrate a power-law-singular integrand on (0,1) to certified tol.

    Interior singularities are removed exactly by an algebraic substitution
    before Gauss quadrature; accuracy is certified by order doubling.
    """
    if tol < 1e-14:
        raise DomainError(f"tolerance {tol} below attainable precision")
    p0, p1 = s.endpoint_exponents

    def evaluate(order):
        if s.interior_singularity is None:
            rule = power_panel(0.0, 1.0, p0, p1, order)
            return float(np.sum(rule.weights * s.smooth_factor(rule.nodes)))
        loc, expo = s.interior_singularity
        nu = -expo
        left = _half_panel(
            lambda y: s.smooth_factor(y) * (1.0 - y) ** p1,
            loc, loc, -1.0, nu, p0, order)
        right = _half_panel(
            lambda y: s.smooth_factor(y) * y**p0,
            loc, 1.0 - loc, +1.0, nu, p1, order)
        return left + right

    prev = evaluate(32)
    for order in (64, 128, 256, 512):
        cur = evaluate(order)
        gap = abs(cur - prev)
        if gap <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"singular_integrate did not converge to {tol} (last gap {gap})",
        best=cur, gap=gap)


def jacobi_recurrence(n_terms: int, lambda1: float, lambda2: float):
    """Monic three-term recurrence for the weight x^lambda1 (1-x)^lambda2 on [0,1].

    Returns (a, b, mu0): pi_{k+1} = (x - a[k]) pi_k - b[k]^2 pi_{k-1} with
    b[0] unused, and mu0 the weight's total mass.
    """
    if lambda1 <= -1.0 or lambda2 <= -1.0:
        raise DomainError(f"weight exponents must exceed -1, got ({lambda1}, {lambda2})")
    al, be = lambda2, lambda1  # standard-interval Jacobi exponents
    a = np.empty(n_terms)
    b = np.zeros(n_terms)
    s = al + be
    for k in range(n_terms):
        if k == 0:
            ak = (be - al) / (s + 2.0)
        else:
            ak = (be * be - al * al) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
        a[k] = 0.5 * (1.0 + ak)
    if n_terms > 1:
        b[1] = math.sqrt(4.0 * (al + 1.0) * (be + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))) / 2.0
    for k in range(2, n_terms):
        bk2 = (4.0 * k * (k + al) * (k + be) * (k + s)
               / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0)))
        b[k] = math.sqrt(bk2) / 2.0
    mu0 = math.exp(log_beta(lambda1 + 1.0, lambda2 + 1.0))
    return a, b, mu0


def orthonormal_polynomials(n_max: int, lambda1: float, lambda2: float, x) -> np.ndarray:
    """Values p_j(x), j = 0..n_max, orthonormal against x^lambda1 (1-x)^lambda2."""
    x = np.asarray(x, dtype=float)
    a, b, mu0 = jacobi_recurrence(n_max + 1, lambda1, lambda2)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0 / math.sqrt(mu0)
    if n_max >= 1:
        out[1] = (x - a[0]) * out[0] / b[1]
    for k in range(1, n_max):
        out[k + 1] = ((x - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
    return out
