"""Exact random sampling of Jacobi-ensemble eigenvalue configurations.

One sampler covers every weight x^lambda1 (1-x)^lambda2 with squared
Vandermonde: the beta = 2 bidiagonal Jacobi matrix model of Edelman &
Sutton (Found. Comput. Math. 8, 2008) and Killip & Nenciu (IMRN 2004),
whose independent Beta-distributed entries make the eigenvalues an exact
ensemble draw.  Reproducibility is managed through (master_seed,
stream_index) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import EnsembleParams


class SamplingError(RuntimeError):
    """A sampler failed to produce a valid configuration."""


@dataclass
class RngStream:
    """Deterministic, platform-independent random stream.

    Distinct (master_seed, stream_index) pairs give statistically
    independent streams; equal pairs replay the same sequence regardless
    of thread count or platform.
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, default=None)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(self.stream_index,))
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen


@dataclass(frozen=True)
class EigenvalueSample:
    """Sorted eigenvalue configuration in (0,1) with its generating law."""

    points: np.ndarray
    params: EnsembleParams

    def __post_init__(self):
        pts = self.points
        # stated in positive form so that NaN, which fails every comparison,
        # is rejected too
        if not (np.all(pts > 0.0) and np.all(pts < 1.0) and np.all(np.diff(pts) > 0.0)):
            raise SamplingError("sample must be strictly increasing inside (0,1)")


def sample_jue(params: EnsembleParams, stream: RngStream) -> EigenvalueSample:
    """Exact sample of the n-point Jacobi ensemble with weight
    x^lambda1 (1-x)^lambda2.

    The sample is the spectrum of B B^T, with B upper bidiagonal of diagonal
    (c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1) and superdiagonal
    (-s_n c'_{n-1}, ..., -s_2 c'_1), where c_j^2 ~ Beta(lambda1 + j,
    lambda2 + j), c'_j^2 ~ Beta(j, lambda1 + lambda2 + 1 + j), s = sqrt(1 - c^2)
    and every variate is independent.  The c_j are drawn first, then the
    c'_j, each for descending j; that order fixes the stream's replay.
    """
    gen = stream.generator()
    j = np.arange(params.n, 0, -1)
    c_sq = gen.beta(params.lambda1 + j, params.lambda2 + j)
    jp = j[1:]
    cp_sq = gen.beta(jp, params.lambda1 + params.lambda2 + 1.0 + jp)
    diagonal = np.sqrt(c_sq * np.concatenate(([1.0], 1.0 - cp_sq)))
    upper = -np.sqrt((1.0 - c_sq[:-1]) * cp_sq)
    bidiagonal = np.diag(diagonal) + np.diag(upper, 1)
    points = np.linalg.eigvalsh(bidiagonal @ bidiagonal.T)
    # eigenvalues within rounding of an edge, common when an exponent is
    # near -1, are kept just inside (0, 1)
    np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=points)
    return EigenvalueSample(points, params)


def sample_jue_halfhalf(n: int, stream: RngStream) -> EigenvalueSample:
    """Exact sample of the n-point Jacobi ensemble with exponents (1/2, 1/2),
    the Dirichlet-boundary law."""
    return sample_jue(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5), stream)
