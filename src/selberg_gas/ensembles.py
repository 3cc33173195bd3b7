"""Exact random sampling of Jacobi-ensemble eigenvalue configurations.

One sampler covers every weight x^lambda1 (1-x)^lambda2 with squared
Vandermonde: the beta = 2 bidiagonal Jacobi matrix model of Edelman &
Sutton (Found. Comput. Math. 8, 2008) and Killip & Nenciu (IMRN 2004),
whose independent Beta-distributed entries make the eigenvalues of the
tridiagonal T = B B^T an exact ensemble draw.  Block b of the samples of a
run with seed s draws every variate from the one stream `rng_stream(s, b)`;
see `map_sample_blocks`.  A sample comes in two forms from the same
variates: its spectrum (`sample_jue_block`, one stacked `eigvalsh`, for
`sample-jue` and the sampler criterion), or T itself as its diagonal and
squared off-diagonal (`tridiagonal_block`), whose log |det(x - T)| the
Monte Carlo takes by the O(n) pivot recurrence `tridiagonal_log_dets`,
with no eigenvalues and no n x n matrix.
"""

from __future__ import annotations

from concurrent import futures

import numpy as np

from .exact import EnsembleParams


class SamplingError(RuntimeError):
    """A sampler failed to produce a valid configuration."""


def rng_stream(master_seed: int, index: int) -> np.random.Generator:
    """The generator of stream (master_seed, index): PCG64 seeded by
    SeedSequence(entropy=master_seed, spawn_key=(index,)).

    Distinct pairs give statistically independent streams; equal pairs
    replay the same sequence regardless of thread count or platform.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _beta_variates(params: EnsembleParams, gen: np.random.Generator, rows: int) -> tuple:
    # the (rows, n) c_j^2 and (rows, n - 1) c'_j^2 of `rows` samples from one
    # generator; see sample_jue_block
    n = params.n
    j = np.arange(n, 0, -1.0)
    # one call draws row by row, each row the c_j^2 and then the c'_j^2, in
    # the order of consecutive one-row calls
    a = np.concatenate((params.lambda1 + j, j[1:]))
    b = np.concatenate((params.lambda2 + j, params.lambda1 + params.lambda2 + 1.0 + j[1:]))
    variates = gen.beta(a, b, size=(rows, 2 * n - 1))
    return variates[:, :n], variates[:, n:]


def _spectra(params: EnsembleParams, gen: np.random.Generator, rows: int) -> np.ndarray:
    # `rows` rows of eigenvalues from one generator; see sample_jue_block
    n = params.n
    c_sq, cp_sq = _beta_variates(params, gen, rows)
    diag = np.arange(n)
    bidiagonal = np.zeros((rows, n, n))
    bidiagonal[:, diag, diag] = np.sqrt(
        c_sq * np.concatenate((np.ones((rows, 1)), 1.0 - cp_sq), axis=1))
    bidiagonal[:, diag[:-1], diag[1:]] = -np.sqrt((1.0 - c_sq[:, :-1]) * cp_sq)
    points = np.linalg.eigvalsh(bidiagonal @ bidiagonal.transpose(0, 2, 1))
    # eigenvalues within rounding of an edge, common when an exponent is
    # near -1, are kept just inside (0, 1)
    np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=points)
    # every row strictly increasing inside (0, 1), stated in positive form so
    # that NaN, which fails every comparison, is rejected too
    if not (np.all(points > 0.0) and np.all(points < 1.0)
            and np.all(np.diff(points, axis=-1) > 0.0)):
        raise SamplingError("sample must be strictly increasing inside (0,1)")
    return points


def sample_jue_block(params: EnsembleParams, master_seed: int, block: int,
                     rows: int) -> np.ndarray:
    """The first `rows` exact samples of block `block` of the n-point Jacobi
    ensemble with weight x^lambda1 (1-x)^lambda2, one sorted row of shape
    (n,) each, all drawn from the one stream (master_seed, block).

    Each sample is the spectrum of B B^T, with B upper bidiagonal of diagonal
    (c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal
    (-s_n c'_{n-1}, ..., -s_2 c'_1), where c_j^2 ~ Beta(lambda1 + j,
    lambda2 + j), c'_j^2 ~ Beta(j, lambda1 + lambda2 + 1 + j), s = sqrt(1 - c^2)
    and every variate is independent.  The stream is drawn row by row, each
    row the c_j and then the c'_j, both for descending j, so fewer rows are
    a prefix of more.  The spectra are taken as one stacked `eigvalsh`.
    Raises `SamplingError` if any row is not strictly increasing in (0, 1).
    """
    return _spectra(params, rng_stream(master_seed, block), rows)


def tridiagonal_block(params: EnsembleParams, master_seed: int, block: int,
                      rows: int) -> tuple:
    """The Jacobi matrices T = B B^T of the samples
    `sample_jue_block(params, master_seed, block, rows)`, drawn from the same
    variates, as the pair (diagonal, squared off-diagonal) of shapes
    (rows, n) and (rows, n - 1): with d and e the diagonal and superdiagonal
    of B, T_kk = d_k^2 + e_k^2 and T_{k,k+1}^2 = e_k^2 d_{k+1}^2, each square
    taken from the variates without a square root.  About 16 rows n bytes;
    no n x n matrix is built.
    """
    c_sq, cp_sq = _beta_variates(params, rng_stream(master_seed, block), rows)
    d_sq = c_sq * np.concatenate((np.ones((rows, 1)), 1.0 - cp_sq), axis=1)
    e_sq = (1.0 - c_sq[:, :-1]) * cp_sq
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


def map_sample_blocks(fn, params: EnsembleParams, master_seed: int, M: int,
                      threads: int = 1, draw=None) -> list:
    """[fn(draw(params, master_seed, b, rows_b)) for each block b], in block
    order, where the blocks cut the samples 0..M-1; `draw` is
    `sample_jue_block` (spectra) unless given, or `tridiagonal_block`.

    This is the one place that cuts blocks and the one thread pool.  A block
    holds B = 32 samples, fewer once the (B, n, n) matrix stack of
    `sample_jue_block` would pass 4 MB; B depends on n alone.  Sample k is
    row k mod B of block k // B, so it depends on (params, master_seed, k)
    alone, never on M or the thread count.  With threads > 1 the blocks are
    mapped to a pool of that many threads; a result depends on its block
    alone.
    """
    size = max(1, min(32, (1 << 19) // (params.n * params.n)))
    draw = draw or sample_jue_block

    def run(block: int):
        return fn(draw(params, master_seed, block, min(size, M - block * size)))

    blocks = range(-(-M // size))
    if threads <= 1:
        return [run(block) for block in blocks]
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, blocks))


# kept because perfbench/tests/test_bench_tracer.py checks that averages imports it
def sample_jue_halfhalf(n: int, gen: np.random.Generator) -> np.ndarray:
    """Exact sample of the n-point Jacobi ensemble with exponents (1/2, 1/2),
    the Dirichlet-boundary law, drawn from `gen` at its current position."""
    return _spectra(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5), gen, 1)[0]
