"""Closed-form evaluations and asymptotic formulas.

Selberg and Morris integrals (the former continued to non-integer size
through Barnes G), the duality proportionality constant, the density-matrix
asymptote and the asymptotic natural-orbital occupations.  The large-n
partition-ratio asymptote is `fisherhartwig.jacobi_fh_asymptotes` with one
charge.

Every product of gamma functions is carried in log space (LogMagnitude)
so that ensemble sizes up to 10^4 stay in range.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import (
    DomainError,
    log_barnes_g,
    log_barnes_g_ratio,
    log_gamma,
    log_gamma_ratio,
)


@dataclass(frozen=True)
class LogMagnitude:
    """A positive real number stored as its natural log."""

    log_abs: float

    def value(self, quantity: str = "value") -> float:
        """exp(log_abs).  Raises `DomainError`, naming `quantity` and giving
        the log, if that overflows or is below the smallest normal float."""
        try:
            value = math.exp(self.log_abs)
        except OverflowError:
            raise DomainError(f"{quantity} overflows a float: log {self.log_abs!r}") from None
        if value < sys.float_info.min:
            raise DomainError(f"{quantity} underflows a float: log {self.log_abs!r}")
        return value


def _check_size(n, what: str) -> None:
    # Python and numpy integers pass and no float does: a fractional size was
    # kept by some formulas and truncated by others
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {n!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Jacobi-ensemble weight x^lambda1 (1-x)^lambda2 with squared
    Vandermonde (unitary coupling, beta = 2)."""

    n: int
    lambda1: float
    lambda2: float

    def __post_init__(self):
        _check_size(self.n, "particle count")
        if self.lambda1 <= -1.0 or self.lambda2 <= -1.0:
            raise DomainError(
                f"weight exponents must exceed -1, got ({self.lambda1}, {self.lambda2})")


@dataclass(frozen=True)
class MorrisParams:
    """Size and exponents (a, b) of a circular-ensemble Morris integral."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        _check_size(self.n, "Morris size")
        if self.a + self.b <= -1.0:
            raise DomainError(f"Morris requires a + b > -1, got {self.a + self.b}")


BOUNDARY_DIRICHLET = "dirichlet"
BOUNDARY_NEUMANN = "neumann"
# (lambda1, lambda2) of each box's weight: USp(2n) and SO(2n) averages
BOX_EXPONENTS = {BOUNDARY_DIRICHLET: (0.5, 0.5), BOUNDARY_NEUMANN: (-0.5, -0.5)}


@dataclass(frozen=True)
class DensityMatrixQuery:
    """Point (X, Y) of the (N+1)-particle density matrix on the unit box.

    N follows the convention that the system holds N+1 particles; on the
    unit box the density is rho = N.  A box of length L scales
    rho -> rho / L and each orbital phi_j -> phi_j / sqrt(L).
    """

    N: int
    X: float
    Y: float
    boundary: str = BOUNDARY_DIRICHLET

    def __post_init__(self):
        _check_size(self.N, "N")
        if not (0.0 < self.X < 1.0 and 0.0 < self.Y < 1.0):
            raise DomainError(f"X, Y must lie in (0,1), got ({self.X}, {self.Y})")
        if self.boundary not in BOX_EXPONENTS:
            raise DomainError(f"unknown boundary {self.boundary!r}")

    @property
    def rho(self) -> float:
        return float(self.N)

    def weight_exponent(self) -> float:
        """lambda1 of the box's row of `BOX_EXPONENTS`."""
        return BOX_EXPONENTS[self.boundary][0]


def selberg_closed(n: int, a: float, b: float) -> LogMagnitude:
    """log S_n(a, b, 1), the Selberg integral at unitary coupling.

    S_n = prod_{j<n} Gamma(a+1+j) Gamma(b+1+j) Gamma(2+j) / Gamma(a+b+1+n+j),
    summed with the larger exponent's two gamma logs taken as one ratio,
    `log_gamma_ratio`, so that a large exponent keeps its digits.
    """
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Selberg exponents must exceed -1, got ({a}, {b})")
    if n < 1 or n != int(n):
        raise DomainError(f"Selberg size must be a positive integer, got {n}")
    big, small = max(a, b), min(a, b)
    total = 0.0
    for j in range(int(n)):
        total += (log_gamma(small + 1.0 + j) + log_gamma(2.0 + j)
                  - log_gamma_ratio(big + 1.0 + j, small + n))
    return LogMagnitude(total)


def selberg_log_ratio(n: int, s: float, a: float, b: float) -> float:
    """log S_n(a, b, 1) - log S_{n+s}(a, b, 1) for a real shift s, n + s > 0,
    with S continued to non-integer size through Barnes G.

    The two totals are each of order n^2 (about 1.4e6 at n = 1024), and
    their difference was off by up to 5e-9 there; only the shifted factors
    enter here.  With c = a + b + 1, an integer s = k sums O(k) gamma logs,
    log S_n - log S_{n+k} = sum_{i=2n}^{2n+2k-1} lgG(c + i)
    - sum_{j=n}^{n+k-1} [lgG(a+1+j) + lgG(b+1+j) + lgG(2+j) + lgG(c + j)];
    any other s sums five Barnes-G ratios D(z, s) = log G(z+s) - log G(z),
    D(2n+c, 2s) - D(n+1+a, s) - D(n+1+b, s) - D(n+c, s) - D(n+2, s).
    """
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Selberg exponents must exceed -1, got ({a}, {b})")
    if n < 1 or n != int(n) or not n + s > 0.0:
        raise DomainError(f"Selberg sizes must be positive, n an integer, got {n} and {n + s}")
    n = int(n)
    c = a + b + 1.0
    if s != int(s):
        return math.fsum((log_barnes_g_ratio(2.0 * n + c, 2.0 * s),
                          -log_barnes_g_ratio(n + 1.0 + a, s), -log_barnes_g_ratio(n + 1.0 + b, s),
                          -log_barnes_g_ratio(n + c, s), -log_barnes_g_ratio(n + 2.0, s)))
    k = int(s)
    if k < 0:
        return -selberg_log_ratio(n + k, -k, a, b)
    terms = [log_gamma(c + i) for i in range(2 * n, 2 * n + 2 * k)]
    for j in range(n, n + k):
        terms += [-log_gamma(a + 1.0 + j), -log_gamma(b + 1.0 + j),
                  -log_gamma(2.0 + j), -log_gamma(c + j)]
    return math.fsum(terms)


def morris_closed(p: MorrisParams) -> LogMagnitude:
    """log M_n(a, b, 1), the Morris integral at unitary coupling.

    M_n = prod_{j<n} T_j with T_j = Gamma(a+b+1+j) Gamma(2+j) /
    (Gamma(a+1+j) Gamma(b+1+j)).  Summing log T_j directly adds gamma logs
    of size j log j whose rounding grows with n; instead the sum is
    n log T_0 + sum_{0<i<n} (n-i) log(T_i / T_{i-1}).  With B >= A the
    larger and smaller exponent, log T_0 = log_gamma_ratio(B+1, A) - lgG(A+1)
    and T_i / T_{i-1} = (1 + A/(B+i)) (1 + x_i), x_i = (1-A)/(A+i), so no
    large gamma log and no product of the exponents is formed.  Where x_i
    nears -1, which log1p(x_i) would round to log 0, the ratio
    (1+i)/(A+i) is taken as it is.
    """
    n, a, b = p.n, p.a, p.b
    for arg in (a + 1.0, b + 1.0):
        if arg <= 0.0:
            raise DomainError(f"Morris gamma argument {arg} <= 0")
    big, small = max(a, b), min(a, b)
    i = np.arange(1.0, n)
    x = (1.0 - small) / (small + i)
    log1p_x = np.log1p(np.maximum(x, -0.5))
    steps = (n - i) * (np.log1p(small / (big + i))
                       + np.where(x > -0.5, log1p_x, np.log((1.0 + i) / (small + i))))
    log_t0 = -log_gamma(small + 1.0) + log_gamma_ratio(big + 1.0, small)
    return LogMagnitude(n * log_t0 + math.fsum(steps))


def duality_constant_A(params: EnsembleParams, m: int) -> LogMagnitude:
    """log of the t-independent constant linking the Jacobi and circular
    sides, log S_n(l1, l2+m) - log S_n(l1, l2) + log M_m(0,0) - log M_m(eta2, eta1).

    The two Selberg totals are each of order n^2, and their difference was
    off by up to 4e-9 at n = 1024.  Shifting l2 by m telescopes the sum over
    j < n to m terms; with c = l1 + l2 + 1 = eta1 + eta2 + 1 - n, the
    Morris factor's Gamma(c+n+i) and Gamma(l2+1+i) cancel those terms, and
    what is left is O(m) gamma logs,
    log m! + sum_{i<m} [lgG(l1+1+n+i) + lgG(l2+1+n+i) - lgG(c+2n+i) - lgG(2+i)].
    """
    if m < 2 or m % 2 != 0:
        raise DomainError(f"m must be a positive even integer, got {m}")
    n, a, b = params.n, params.lambda1, params.lambda2
    c = a + b + 1.0
    terms = [log_gamma(m + 1.0)]
    for i in range(m):
        terms += [log_gamma(a + 1.0 + n + i), log_gamma(b + 1.0 + n + i),
                  -log_gamma(c + 2.0 * n + i), -log_gamma(2.0 + i)]
    return LogMagnitude(math.fsum(terms))


# log of G(3/2)^4, the universal constant of the density-matrix asymptote
LOG_G4_HALF3 = 4.0 * log_barnes_g(1.5)


def density_matrix_asymptote(query: DensityMatrixQuery) -> float:
    """Leading large-N form of the density matrix at fixed interior (X, Y).

    The Dirichlet and Neumann boundaries share this limit, so the query's
    boundary field does not enter.
    """
    X, Y = query.X, query.Y
    if X == Y:
        raise DomainError("asymptotic density matrix diverges at X = Y")
    return (query.rho * math.exp(LOG_G4_HALF3) / math.sqrt(2.0 * query.N)
            * (X * (1.0 - X)) ** 0.125 * (Y * (1.0 - Y)) ** 0.125
            / math.sqrt(abs(X - Y)))


def occupation_number(j: int, N: int) -> float:
    """Occupation of the j-th effective single-particle state, ~ sqrt(N)."""
    if j < 0:
        raise DomainError(f"orbital index must be >= 0, got {j}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    log_val = (LOG_G4_HALF3 + log_gamma(j + 0.5)
               - 0.5 * math.log(math.pi) - log_gamma(j + 1.0))
    return math.exp(log_val) * math.sqrt(N)
