"""Scalar special functions scipy lacks: log-gamma with a domain check and
its shifted ratios, log-beta, the Barnes G-function and its shifted ratios.

Everything here is a pure function of floats.  Products of gamma functions
are handled in log space throughout the package, so only logarithmic forms
are exposed for Gamma and Barnes G.  Gauss 2F1 and the Gegenbauer
polynomials come from `scipy.special` directly.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Argument outside the supported domain of a special function."""


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
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma({x!r}) overflows a float") from None


# B_{2k}/(2k(2k-1)) for k = 1..6: tail of the large-z expansion of log Gamma(z).
_STIRLING_TAIL = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
                  -691.0 / 360360.0)


def log_gamma_ratio(z: float, s: float) -> float:
    """log Gamma(z + s) - log Gamma(z) for z > 0 and z + s > 0, never
    forming either log Gamma once both arguments reach 17.

    Each log Gamma there is of size z log z, and their difference lost about
    z log z times the rounding of a float (7.6e-9 at z = 1e6, every digit
    at 1e20).  Instead Stirling's expansion is differenced term by term,
    (u - 1/2) log u - (z - 1/2) log z = (z - 1/2) log1p(s/z) + s log u at
    u = z + s, whose rounding scales with the result.  Below 17 the two
    lgamma values are small and are differenced as they are.
    """
    if not (z > 0.0 and z + s > 0.0):
        raise DomainError(f"log_gamma_ratio requires z, z + s > 0, got ({z!r}, {z + s!r})")
    u = z + s
    if min(z, u) < 17.0:
        return log_gamma(u) - log_gamma(z)
    acc = (z - 0.5) * math.log1p(s / z) + s * math.log(u) - s
    zi, ui = 1.0 / z, 1.0 / u
    zi2, ui2 = zi * zi, ui * ui
    for c in _STIRLING_TAIL:
        acc += c * (ui - zi)
        zi *= zi2
        ui *= ui2
    if not math.isfinite(acc):
        raise DomainError(f"log_gamma_ratio({z!r}, {s!r}) overflows a float")
    return acc


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


def log_barnes_g_ratio(z: float, s: float) -> float:
    """log G(z + s) - log G(z) for z > 0 and z + s > 0, never forming
    either log G, which is of size z^2 log z.

    The arguments are shifted up through lgamma differences until both
    exceed 17; there the large-argument expansion of log G(u + 1), taken at
    u = z - 1, is differenced term by term with log1p(s/u):
    (u+s)^2 log(u+s) - u^2 log u = (2us + s^2) log u + (u+s)^2 log1p(s/u).
    """
    if not (z > 0.0 and z + s > 0.0):
        raise DomainError(f"log_barnes_g_ratio requires z, z + s > 0, got ({z}, {z + s})")
    shift = max(0, int(math.ceil(17.0 - min(z, z + s))))
    acc = 0.0
    for i in range(shift):
        acc -= log_gamma(z + s + i) - log_gamma(z + i)
    u = z + shift - 1.0
    grow = s * (2.0 * u + s)
    acc += (0.5 * (grow * math.log(u) + (u + s) ** 2 * math.log1p(s / u)) - 0.75 * grow
            + 0.5 * s * math.log(2.0 * math.pi) - math.log1p(s / u) / 12.0)
    zi, zsi = 1.0 / (u * u), 1.0 / ((u + s) * (u + s))
    p, ps = zi, zsi
    for c in _BARNES_TAIL:
        acc += c * (ps - p)
        p *= zi
        ps *= zsi
    return acc
