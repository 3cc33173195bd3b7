"""The Monte Carlo sampler's stream contract, restated on its own.

A run with seed s cuts its samples into blocks of B rows, B a function of n
alone; block b draws from the one stream (s, b), the PCG64 generator seeded
by SeedSequence(entropy=s, spawn_key=(b,)), row by row, each row the c_j^2
and then the c'_j^2 of the bidiagonal Jacobi model, both for descending j.
Here every row takes two separate `beta` calls, where the library takes one
draw per block.  From those variates a row is the tridiagonal pair of
T = B B^T, and from that pair either a spectrum, the `eigvalsh` of the
row's own n x n symmetric T (the library's one tridiagonal solver takes a
stacked `eigvalsh` of lower triangles below n = 130), or
log |det(x - T)| by a scalar pivot loop, one point at a time (the
library's Monte Carlo path takes no eigenvalues and one vectorised
recurrence over every row and point).  The stream is built from numpy
alone, so the tests that hold the sampler to these rows bit for bit also
pin how the library keys it.
"""

import numpy as np


def block_size(n: int) -> int:
    # 32 rows, fewer from n = 129 on
    return max(1, min(32, (1 << 19) // (n * n)))


def _variate_rows(params, seed: int, block: int, rows: int):
    # the (c_j^2, c'_j^2) of rows 0..rows-1 of block `block`, two calls a row
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    gen = np.random.Generator(np.random.PCG64(seq))
    j = np.arange(params.n, 0, -1)
    for _ in range(rows):
        c_sq = gen.beta(params.lambda1 + j, params.lambda2 + j)
        cp_sq = gen.beta(j[1:], params.lambda1 + params.lambda2 + 1.0 + j[1:])
        yield c_sq, cp_sq


def _pairs(params, seed: int, block: int, rows: int):
    # the (diagonal, squared off-diagonal) of T for rows 0..rows-1 of block
    # `block`: with d and e the diagonal and superdiagonal of B,
    # T_kk = d_k^2 + e_k^2 and T_{k,k+1}^2 = e_k^2 d_{k+1}^2
    for c_sq, cp_sq in _variate_rows(params, seed, block, rows):
        d_sq = c_sq * np.concatenate(([1.0], 1.0 - cp_sq))
        e_sq = (1.0 - c_sq[:-1]) * cp_sq
        yield d_sq + np.concatenate((e_sq, [0.0])), e_sq * d_sq[1:]


def reference_rows(params, seed: int, block: int, rows: int) -> np.ndarray:
    """Rows 0..rows-1 of block `block`, shape (rows, n): each the spectrum
    of its own symmetric tridiagonal T, kept inside (0, 1)."""
    out = []
    for diag, off_sq in _pairs(params, seed, block, rows):
        off = np.sqrt(off_sq)
        points = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
        out.append(np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
    return np.array(out).reshape(rows, params.n)


def _run(fn, params, seed: int, M: int) -> list:
    # fn's rows for samples 0..M-1: sample k is row k mod B of block k // B
    B = block_size(params.n)
    return [row for b in range(-(-M // B)) for row in fn(params, seed, b, min(B, M - b * B))]


def reference_samples(params, seed: int, M: int) -> np.ndarray:
    """Samples 0..M-1 of a run, shape (M, n)."""
    return np.array(_run(reference_rows, params, seed, M)).reshape(M, params.n)


def reference_pairs(params, seed: int, M: int) -> list:
    """The Jacobi matrix of each of samples 0..M-1 of a run, as
    (diagonal, squared off-diagonal)."""
    return _run(_pairs, params, seed, M)


def reference_log_det(x: float, diag: np.ndarray, off_sq: np.ndarray) -> float:
    """log |det(x - T)| as the sum of log |r_k| over the LDL^T pivots
    r_1 = x - T_11, r_k = (x - T_kk) - T_{k-1,k}^2 / r_{k-1}, one at a time."""
    pivot = x - diag[0]
    total = np.log(np.abs(pivot))
    for k in range(1, len(diag)):
        pivot = (x - diag[k]) - off_sq[k - 1] / pivot
        total += np.log(np.abs(pivot))
    return total
