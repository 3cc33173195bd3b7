"""Exact random sampling of Jacobi-ensemble eigenvalue configurations,
and the package's one eigensolver for symmetric tridiagonals.

One sampler covers every weight x^lambda1 (1-x)^lambda2 with squared
Vandermonde: the beta = 2 bidiagonal Jacobi matrix model of Edelman &
Sutton (Found. Comput. Math. 8, 2008) and Killip & Nenciu (IMRN 2004),
whose independent Beta-distributed entries make the eigenvalues of the
tridiagonal T = B B^T an exact ensemble draw.  A sample is its T, as
diagonal and squared off-diagonal (`sample_jacobi_matrices`, block b of a
run with seed s from the stream `rng_stream(s, b)`).  The Monte Carlo takes
log |det(x - T)| by the O(n) pivot recurrence `tridiagonal_log_dets`, with
no eigenvalues; `spectra` (`sample-jue`, the sampler criterion) takes T's
eigenvalues from the solver that gives `quadrature`'s Gauss nodes too.
"""

from __future__ import annotations

import sys

import numpy as np

from .exact import EnsembleParams


class SamplingError(RuntimeError):
    """A sampler failed to produce a valid configuration."""


def rng_stream(master_seed: int, index: int) -> np.random.Generator:
    """The generator of stream (master_seed, index): PCG64 seeded by
    SeedSequence(entropy=master_seed, spawn_key=(index,)).

    Distinct pairs give statistically independent streams; equal pairs
    replay the same sequence on any platform.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _block_rows(n: int) -> int:
    # B(n), the rows of one stream's block: 32, fewer from n = 129 on
    return max(1, min(32, (1 << 19) // (n * n)))


def _beta_shapes(params: EnsembleParams) -> tuple:
    # the Beta parameters (a, b) of one row's 2n - 1 variates: the c_j^2 and
    # then the c'_j^2, both for descending j; see sample_jacobi_matrices
    j = np.arange(params.n, 0, -1.0)
    return (np.concatenate((params.lambda1 + j, j[1:])),
            np.concatenate((params.lambda2 + j, params.lambda1 + params.lambda2 + 1.0 + j[1:])))


def _jacobi_matrices(variates: np.ndarray, n: int) -> tuple:
    # T's pair for each row of (rows, 2n - 1) variates, by way of B's squared
    # diagonal d^2 and superdiagonal e^2; see sample_jacobi_matrices
    c_sq, cp_sq = variates[:, :n], variates[:, n:]
    d_sq = c_sq.copy()
    d_sq[:, 1:] *= 1.0 - cp_sq
    e_sq = (1.0 - c_sq[:, :-1]) * cp_sq
    off_sq = e_sq * d_sq[:, 1:]
    d_sq[:, :-1] += e_sq  # now T's diagonal
    return d_sq, off_sq


def sample_jacobi_matrices(params: EnsembleParams, master_seed: int, M: int) -> tuple:
    """Exact samples 0..M-1 of the n-point Jacobi ensemble with weight
    x^lambda1 (1-x)^lambda2, each as the Jacobi matrix T whose spectrum is
    the sample: its diagonal and squared off-diagonal, shapes (M, n) and
    (M, n - 1).  T = B B^T, B upper bidiagonal with diagonal d = (c_n,
    c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal e = (-s_n c'_{n-1},
    ..., -s_2 c'_1), so T_kk = d_k^2 + e_k^2 and T_{k,k+1}^2 = e_k^2 d_{k+1}^2,
    where c_j^2 ~ Beta(lambda1 + j, lambda2 + j), c'_j^2 ~ Beta(j, lambda1 +
    lambda2 + 1 + j), s = sqrt(1 - c^2) and every variate is independent.
    Block b, of B(n) rows, draws from the one stream `rng_stream(master_seed, b)`
    in one `beta` call, row by row, each row the c_j and then the c'_j, both
    for descending j, so sample k is row k mod B(n) of block k // B(n)
    whatever M.  The blocks fill one (M, 2n - 1) array of variates in order,
    on the calling thread, and T is taken from it in one pass.
    """
    size = _block_rows(params.n)
    a, b = _beta_shapes(params)
    variates = np.empty((M, len(a)))
    for block, start in enumerate(range(0, M, size)):
        rows = variates[start:start + size]
        rows[...] = rng_stream(master_seed, block).beta(a, b, size=rows.shape)
    return _jacobi_matrices(variates, params.n)


# From this order scipy's tridiagonal solver gives the dense one's bits 2 to 6
# times faster (0.35 against 0.72 ms at n = 130, 16 against 101 ms at 1000),
# once scipy.linalg is loaded (about 0.25 s), which a saving of at least
# 7.4e-11 s n^3 a matrix (n = 130 to 1500, 2-vCPU Xeon) repays from rows * n^3 = 3.4e9.
_DENSE_EIGEN_ORDERS, _SCIPY_LOAD_WORK = 130, 4e9


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, load_scipy=False) -> np.ndarray:
    # ascending eigenvalues (rows, n) of symmetric tridiagonals `diag`, `off`,
    # matrix by matrix: from order _DENSE_EIGEN_ORDERS scipy's solver if it is
    # loaded, `load_scipy` is set or the work pays for loading it, else a
    # stacked dense eigvalsh of the lower triangles, at most 4 MB a stack
    rows, n = diag.shape
    if n >= _DENSE_EIGEN_ORDERS and (load_scipy or "scipy.linalg" in sys.modules
                                     or rows * n ** 3 >= _SCIPY_LOAD_WORK):
        from scipy.linalg import eigvalsh_tridiagonal

        return np.array([eigvalsh_tridiagonal(d, o) for d, o in zip(diag, off)])
    size, k = max(1, (1 << 19) // (n * n)), np.arange(n)
    points = np.empty((rows, n))
    for start in range(0, rows, size):
        lower = np.zeros((len(diag[start:start + size]), n, n))
        lower[:, k, k] = diag[start:start + size]
        lower[:, k[1:], k[:-1]] = off[start:start + size]
        points[start:start + size] = np.linalg.eigvalsh(lower)
    return points


def spectra(diag: np.ndarray, off_sq: np.ndarray) -> np.ndarray:
    """The sorted eigenvalues (rows, n) of the Jacobi matrices T of
    `sample_jacobi_matrices`, each within a few eps of T's exact ones (worst
    measured 4.2 eps at n = 14 and 5.1 at n = 50; the tests allow 6) and
    independent of the rows around it.  Raises `SamplingError` on a NaN,
    infinite or negative entry, or a row not strictly increasing in (0, 1).
    """
    # in positive form, so that NaN, which fails every comparison, fails it
    if not all(np.all((part >= 0.0) & (part < np.inf)) for part in (diag, off_sq)):
        raise SamplingError("a Jacobi matrix entry is NaN, infinite or negative")
    points = _tridiagonal_eigenvalues(diag, np.sqrt(off_sq))
    # eigenvalues within rounding of an edge, common when an exponent is
    # near -1, are kept just inside (0, 1)
    np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=points)
    # every row strictly increasing inside (0, 1)
    if not (np.all(points > 0.0) and np.all(points < 1.0)
            and np.all(np.diff(points, axis=-1) > 0.0)):
        raise SamplingError("sample must be strictly increasing inside (0,1)")
    return points


def tridiagonal_log_dets(points: np.ndarray, diag: np.ndarray,
                         off_sq: np.ndarray) -> np.ndarray:
    """log |det(x - T)| for each point x and each row's symmetric tridiagonal
    T of diagonal `diag` (rows, n) and squared off-diagonal `off_sq`
    (rows, n - 1), shape (points, rows).

    The determinant is the product of the LDL^T pivots of x - T,
    r_1 = x - T_11 and r_k = (x - T_kk) - T_{k-1,k}^2 / r_{k-1}, so the sum
    of log |r_k| costs O(n) per (point, row); the pivots are vectorised over
    (points, rows), with a loop over k.  A value of -inf means x is an
    eigenvalue to rounding (the last pivot is 0.0).  Raises `SamplingError`
    on a NaN or +inf value, which a non-finite entry gives, and so does a
    pivot of exactly 0.0 before the last: log 0, then an infinite next pivot
    and inf - inf in the sum.
    """
    xs = np.asarray(points, dtype=float)[:, None]
    # one contiguous (rows,) slice per step
    d = np.ascontiguousarray(diag.T)
    o = np.ascontiguousarray(off_sq.T)
    # a zero pivot is reported by the check below, not by numpy's warnings
    with np.errstate(divide="ignore", invalid="ignore"):
        pivot = xs - d[0]
        total = np.log(np.abs(pivot))
        for k in range(1, len(d)):
            pivot = (xs - d[k]) - o[k - 1] / pivot
            total += np.log(np.abs(pivot))
    # stated in positive form so that NaN, which fails every comparison, is
    # rejected too
    if not np.all(total < np.inf):
        raise SamplingError("log |det(x - T)| is NaN or +inf: a non-finite entry or a zero pivot")
    return total


# kept because perfbench/tests/test_bench_tracer.py checks that averages imports it
def sample_jue_halfhalf(n: int, gen: np.random.Generator) -> np.ndarray:
    """Exact sample of the n-point Jacobi ensemble with exponents (1/2, 1/2),
    the Dirichlet-boundary law, drawn from `gen` at its current position."""
    a, b = _beta_shapes(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5))
    return spectra(*_jacobi_matrices(gen.beta(a, b, size=(1, len(a))), n))[0]
