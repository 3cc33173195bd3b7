"""Scalar special functions: log-gamma, Barnes G, Gauss 2F1, Gegenbauer C_j^{1/4}.

Everything here is a pure function of floats.  Products of gamma functions
are handled in log space throughout the package, so only logarithmic forms
are exposed for Gamma and Barnes G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the supported domain of a special function."""


class EvaluationError(RuntimeError):
    """A series or iteration failed to reach its accuracy target."""


# Glaisher-Kinkelin constant: zeta'(-1) = 1/12 - log(A).
_LOG_GLAISHER = 0.24875447703378426
_ZETA_PRIME_M1 = 1.0 / 12.0 - _LOG_GLAISHER

# B_{2k+2}/(4k(k+1)) for k = 1..6: tail of the large-z expansion of log G(z+1).
_BARNES_TAIL = (
    -1.0 / 240.0,
    1.0 / 1008.0,
    -1.0 / 1440.0,
    1.0 / 1056.0,
    -691.0 / 327600.0,
    1.0 / 144.0,
)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _log_barnes_g_asymptotic(z: float) -> float:
    # log G(z+1) for large z; truncation error < 1e-16 once z >= 16
    w = z * z
    s = 0.5 * w * math.log(z) - 0.75 * w + 0.5 * z * math.log(2.0 * math.pi)
    s += -math.log(z) / 12.0 + _ZETA_PRIME_M1
    zi = 1.0 / (z * z)
    p = zi
    for c in _BARNES_TAIL:
        s += c * p
        p *= zi
    return s


def log_barnes_g(z: float) -> float:
    """Natural log of the Barnes G-function for z > 0.

    G satisfies G(z+1) = Gamma(z) G(z) with G(1) = 1.  Computed from the
    large-argument expansion after shifting z upward by an integer, then
    recursing back down through the functional equation.
    """
    if not z > 0.0:
        raise DomainError(f"log_barnes_g requires z > 0, got {z}")
    if z in (1.0, 2.0, 3.0):
        return 0.0
    shift = max(0, int(math.ceil(17.0 - z)))
    acc = _log_barnes_g_asymptotic(z + shift - 1.0)  # log G((z+shift-1)+1)
    for i in range(shift):
        acc -= log_gamma(z + i)
    return acc


@dataclass(frozen=True)
class HypergeometricArgs:
    """Parameters (a, b; c; z) of a Gauss hypergeometric evaluation."""

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        c = self.c
        if c <= 0.0 and c == math.floor(c):
            raise DomainError(f"2F1 pole: c = {c} is zero or a negative integer")
        if not -1.0 < self.z < 1.0:
            raise DomainError(f"2F1 series argument must satisfy |z| < 1, got {self.z}")


def _is_nonpositive_integer(a: float) -> bool:
    return a <= 0.0 and a == math.floor(a)


def gauss_2f1(args: HypergeometricArgs, max_terms: int = 20000) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series summation.

    Exact (up to rounding) when a or b is a nonpositive integer; otherwise
    the argument must satisfy z <= 0.95 so the series converges fast enough.
    """
    a, b, c, z = args.a, args.b, args.c, args.z
    terminating = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    if not terminating and z > 0.95:
        raise EvaluationError(
            f"non-terminating 2F1 restricted to z <= 0.95, got z = {z}"
        )
    if z == 0.0:
        return 1.0
    total = 1.0
    term = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        if term == 0.0:
            return total
        total += term
        if abs(term) <= 1e-17 * abs(total) and not terminating:
            return total
    if terminating:
        return total
    raise EvaluationError(
        f"2F1 series failed to converge for (a,b,c,z)=({a},{b},{c},{z})"
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Convenience wrapper building HypergeometricArgs inline."""
    return gauss_2f1(HypergeometricArgs(a, b, c, z))


def gegenbauer_quarter(j: int, x: float) -> float:
    """C_j^{1/4}(x) via the three-term recurrence, |x| <= 1."""
    if j < 0:
        raise DomainError(f"Gegenbauer degree must be >= 0, got {j}")
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"Gegenbauer argument must satisfy |x| <= 1, got {x}")
    alpha = 0.25
    cm2 = 1.0
    if j == 0:
        return cm2
    cm1 = 2.0 * alpha * x
    for k in range(2, j + 1):
        cm2, cm1 = cm1, (2.0 * (k + alpha - 1.0) * x * cm1 - (k + 2.0 * alpha - 2.0) * cm2) / k
    return cm1


def gegenbauer_quarter_table(j_max: int, x):
    """All C_j^{1/4}(x) for j = 0..j_max; x may be a numpy array."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    out = np.empty((j_max + 1,) + x.shape)
    out[0] = 1.0
    if j_max >= 1:
        out[1] = 0.5 * x
    for k in range(2, j_max + 1):
        out[k] = (2.0 * (k - 0.75) * x * out[k - 1] - (k - 1.5) * out[k - 2]) / k
    return out
