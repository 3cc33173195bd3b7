"""The Monte Carlo sampler's stream contract, restated on its own.

A run with seed s cuts its samples into blocks of B rows, B a function of n
alone; block b draws from the one stream (s, b), the PCG64 generator seeded
by SeedSequence(entropy=s, spawn_key=(b,)), row by row, each row the c_j^2
and then the c'_j^2 of the bidiagonal Jacobi model, both for descending j.
Here every row takes two separate `beta` calls and its own n x n bidiagonal
and `eigvalsh`, where the library takes one draw and one stacked `eigvalsh`
per block.  The stream is built from numpy alone, so the tests that hold
the sampler to these rows bit for bit also pin how the library keys it.
"""

import numpy as np


def block_size(n: int) -> int:
    # 32 rows, fewer once a block's (rows, n, n) stack would pass 4 MB
    return max(1, min(32, (1 << 19) // (n * n)))


def reference_rows(params, seed: int, block: int, rows: int) -> np.ndarray:
    """Rows 0..rows-1 of block `block`, shape (rows, n)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    gen = np.random.Generator(np.random.PCG64(seq))
    j = np.arange(params.n, 0, -1)
    out = []
    for _ in range(rows):
        c_sq = gen.beta(params.lambda1 + j, params.lambda2 + j)
        cp_sq = gen.beta(j[1:], params.lambda1 + params.lambda2 + 1.0 + j[1:])
        bidiagonal = (np.diag(np.sqrt(c_sq * np.concatenate(([1.0], 1.0 - cp_sq))))
                      + np.diag(-np.sqrt((1.0 - c_sq[:-1]) * cp_sq), 1))
        points = np.linalg.eigvalsh(bidiagonal @ bidiagonal.T)
        out.append(np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
    return np.array(out).reshape(rows, params.n)


def reference_samples(params, seed: int, M: int) -> np.ndarray:
    """Samples 0..M-1 of a run, shape (M, n): sample k is row k mod B of
    block k // B."""
    B = block_size(params.n)
    return np.concatenate([reference_rows(params, seed, b, min(B, M - b * B))
                           for b in range(-(-M // B))])
