"""Exact random sampling of Jacobi-ensemble eigenvalue configurations.

One sampler covers every weight x^lambda1 (1-x)^lambda2 with squared
Vandermonde: the beta = 2 bidiagonal Jacobi matrix model of Edelman &
Sutton (Found. Comput. Math. 8, 2008) and Killip & Nenciu (IMRN 2004),
whose independent Beta-distributed entries make the eigenvalues of the
tridiagonal T = B B^T an exact ensemble draw.  A run draws each sample
once, as the squared entries (d^2, e^2) of its B (`sample_bidiagonal`,
block b of a run with seed s from the one stream `rng_stream(s, b)`), and
derives from them T itself as its diagonal and squared off-diagonal
(`tridiagonal`), with no n x n matrix.  The Monte Carlo takes
log |det(x - T)| from that pair by the O(n) pivot recurrence
`tridiagonal_log_dets`, with no eigenvalues; `spectra`, for `sample-jue`
and the sampler criterion, takes the eigenvalues of the same T by one
stacked `eigvalsh` per stack of at most 4 MB, with no B and no B B^T.
"""

from __future__ import annotations

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
    # then the c'_j^2, both for descending j; see sample_bidiagonal
    j = np.arange(params.n, 0, -1.0)
    return (np.concatenate((params.lambda1 + j, j[1:])),
            np.concatenate((params.lambda2 + j, params.lambda1 + params.lambda2 + 1.0 + j[1:])))


def _squares(variates: np.ndarray, n: int) -> tuple:
    # the (d^2, e^2) of each row of (rows, 2n - 1) variates; see sample_bidiagonal
    c_sq, cp_sq = variates[:, :n], variates[:, n:]
    d_sq = c_sq.copy()
    d_sq[:, 1:] *= 1.0 - cp_sq
    return d_sq, (1.0 - c_sq[:, :-1]) * cp_sq


def sample_bidiagonal(params: EnsembleParams, master_seed: int, M: int) -> tuple:
    """Exact samples 0..M-1 of the n-point Jacobi ensemble with weight
    x^lambda1 (1-x)^lambda2, each as the squared diagonal d^2 and squared
    superdiagonal e^2 of its upper bidiagonal B, shapes (M, n) and
    (M, n - 1); the sample is the spectrum of B B^T.

    B has diagonal (c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal
    (-s_n c'_{n-1}, ..., -s_2 c'_1), where c_j^2 ~ Beta(lambda1 + j,
    lambda2 + j), c'_j^2 ~ Beta(j, lambda1 + lambda2 + 1 + j), s = sqrt(1 - c^2)
    and every variate is independent.  Block b of B(n) rows draws from the
    one stream `rng_stream(master_seed, b)` in one `beta` call, row by row,
    each row the c_j and then the c'_j, both for descending j, so sample k
    is row k mod B(n) of block k // B(n) whatever M.  The blocks fill one
    (M, 2n - 1) array of variates in order, on the calling thread, and
    (d^2, e^2) are taken from it in one pass.
    """
    size = _block_rows(params.n)
    a, b = _beta_shapes(params)
    variates = np.empty((M, len(a)))
    for block, start in enumerate(range(0, M, size)):
        rows = variates[start:start + size]
        rows[...] = rng_stream(master_seed, block).beta(a, b, size=rows.shape)
    return _squares(variates, params.n)


def spectra(d_sq: np.ndarray, e_sq: np.ndarray) -> np.ndarray:
    """The sorted eigenvalues, shape (rows, n), of the Jacobi matrix T of
    each row of B's squared diagonal `d_sq` (rows, n) and superdiagonal
    `e_sq` (rows, n - 1), T as `tridiagonal` gives it: one stacked
    `eigvalsh` of the lower triangles (diagonal T_kk, subdiagonal
    sqrt(T_{k,k+1}^2)) per stack of max(1, 2^19 // n^2) rows, which keeps a
    stack within 4 MB.  A row's spectrum does not depend on the stacking,
    and each eigenvalue is within a few eps of T's exact one (worst
    measured 4.2 eps at n = 14 and 5.1 at n = 50; the tests allow 6).
    Raises `SamplingError` if any row is not strictly increasing in (0, 1).
    """
    diag, off_sq = tridiagonal(d_sq, e_sq)
    rows, n = diag.shape
    size = max(1, (1 << 19) // (n * n))
    k = np.arange(n)
    points = np.empty((rows, n))
    for start in range(0, rows, size):
        d, o = diag[start:start + size], off_sq[start:start + size]
        lower = np.zeros((len(d), n, n))
        lower[:, k, k] = d
        lower[:, k[1:], k[:-1]] = np.sqrt(o)
        points[start:start + size] = np.linalg.eigvalsh(lower)
    # eigenvalues within rounding of an edge, common when an exponent is
    # near -1, are kept just inside (0, 1)
    np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=points)
    # every row strictly increasing inside (0, 1), stated in positive form so
    # that NaN, which fails every comparison, is rejected too
    if not (np.all(points > 0.0) and np.all(points < 1.0)
            and np.all(np.diff(points, axis=-1) > 0.0)):
        raise SamplingError("sample must be strictly increasing inside (0,1)")
    return points


def tridiagonal(d_sq: np.ndarray, e_sq: np.ndarray) -> tuple:
    """The Jacobi matrices T = B B^T of the rows of `sample_bidiagonal`, as
    (diagonal, squared off-diagonal), shapes (rows, n) and (rows, n - 1):
    T_kk = d_k^2 + e_k^2 and T_{k,k+1}^2 = e_k^2 d_{k+1}^2, with no square
    root and no n x n matrix."""
    diag = d_sq.copy()
    diag[:, :-1] += e_sq
    return diag, e_sq * d_sq[:, 1:]


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
    return spectra(*_squares(gen.beta(a, b, size=(1, len(a))), n))[0]
