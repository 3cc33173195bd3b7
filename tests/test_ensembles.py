import math

import numpy as np
import pytest

from selberg_gas import ensembles
from selberg_gas import quadrature as quad
from selberg_gas.ensembles import (
    RngStream,
    SamplingError,
    map_sample_blocks,
    sample_jue_block,
    sample_jue_halfhalf,
)
from selberg_gas.exact import EnsembleParams
from selberg_gas.specfun import DomainError

from tensor_oracle import vandermonde_sq

WEIGHTS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 2.0))


def jue_average(fn, n, lambda1, lambda2, order=40):
    axes = [quad.power_panel(0.0, 1.0, lambda1, lambda2, order)] * n
    num = quad.tensor_integrate(lambda *x: fn(*x) * vandermonde_sq(*x), axes)
    den = quad.tensor_integrate(vandermonde_sq, axes)
    return num / den


class TestStreams:
    def test_bit_reproducibility(self):
        a = sample_jue_halfhalf(14, RngStream(42, 5))
        b = sample_jue_halfhalf(14, RngStream(42, 5))
        assert np.array_equal(a, b)
        params = EnsembleParams(n=14, lambda1=-0.5, lambda2=-0.5)
        a = sample_jue_block(params, 42, [5])[0]
        b = sample_jue_block(params, 42, [5])[0]
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_jue_halfhalf(6, RngStream(42, 0))
        b = sample_jue_halfhalf(6, RngStream(42, 1))
        assert not np.array_equal(a, b)

    def test_sequence_advances(self):
        stream = RngStream(9)
        a = sample_jue_halfhalf(3, stream)
        b = sample_jue_halfhalf(3, stream)
        assert not np.array_equal(a, b)


class TestRecurrenceSampler:
    """The bidiagonal model: B B^T is the Jacobi matrix of the random
    three-term recurrence whose zeros carry the ensemble law."""

    def test_single_point_is_beta(self):
        vals = np.array([sample_jue_halfhalf(1, RngStream(3, k))[0]
                         for k in range(20000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.5) <= 3.0 * se
        sq = (vals - vals.mean()) ** 2
        var_se = sq.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.var(ddof=1) - 0.0625) <= 3.0 * var_se

    @pytest.mark.parametrize("lambda1,lambda2", WEIGHTS)
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_pair_moments_match_quadrature(self, n, lambda1, lambda2):
        m = 6000
        params = EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2)
        pts = np.array([sample_jue_block(params, 17, [k])[0] for k in range(m)])
        for fn, label in (((lambda *x: sum(x)), "sum"),
                          ((lambda *x: sum(xi ** 2 for xi in x)), "squares"),
                          ((lambda *x: math.prod(x)), "prod")):
            sample_vals = fn(*pts.T)
            exact = jue_average(fn, n, lambda1, lambda2)
            se = sample_vals.std(ddof=1) / math.sqrt(m)
            assert abs(sample_vals.mean() - exact) <= 3.5 * se, label

    def test_support_and_order(self):
        for k in range(300):
            pts = sample_jue_halfhalf(14, RngStream(23, k))
            assert pts[0] > 0.0 and pts[-1] < 1.0
            assert np.all(np.diff(pts) > 0.0)

    def test_exponents_near_minus_one_stay_inside(self):
        # unclipped, about 3% of these draws round an eigenvalue onto 1.0
        for lambda1, lambda2 in ((0.5, -0.9), (-0.9, -0.9)):
            params = EnsembleParams(n=14, lambda1=lambda1, lambda2=lambda2)
            for k in range(2000):
                pts = sample_jue_block(params, 29, [k])[0]
                assert pts[0] > 0.0 and pts[-1] < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_jue_halfhalf(0, RngStream(1))


def one_stream_reference(params, stream):
    # the bidiagonal model for one stream, written out on its own n x n matrix
    gen = stream.generator()
    j = np.arange(params.n, 0, -1)
    c_sq = gen.beta(params.lambda1 + j, params.lambda2 + j)
    cp_sq = gen.beta(j[1:], params.lambda1 + params.lambda2 + 1.0 + j[1:])
    bidiagonal = (np.diag(np.sqrt(c_sq * np.concatenate(([1.0], 1.0 - cp_sq))))
                  + np.diag(-np.sqrt((1.0 - c_sq[:-1]) * cp_sq), 1))
    points = np.linalg.eigvalsh(bidiagonal @ bidiagonal.T)
    return np.clip(points, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def with_row_three(monkeypatch, row):
    # a block of eight whose fourth row of eigenvalues is replaced before the
    # sampler clips and checks it
    eigvalsh = np.linalg.eigvalsh

    def replaced(matrices):
        points = eigvalsh(matrices)
        points[3] = row
        return points

    monkeypatch.setattr(ensembles.np.linalg, "eigvalsh", replaced)
    return sample_jue_block(EnsembleParams(n=4, lambda1=0.5, lambda2=0.5), 1, range(8))


class TestBlockSampler:
    KS = (0, 3, 4, 17, 40, 41, 99)

    @pytest.mark.parametrize("lambda1,lambda2", ((0.5, 0.5), (-0.5, -0.5), (-0.5, 2.0)))
    @pytest.mark.parametrize("n", (1, 2, 14, 50))
    def test_rows_are_the_streams_samples(self, n, lambda1, lambda2):
        params = EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2)
        block = sample_jue_block(params, 42, self.KS)
        assert block.shape == (len(self.KS), n)
        for row, k in zip(block, self.KS):
            assert np.array_equal(row, sample_jue_block(params, 42, [k])[0])
            assert np.array_equal(row, one_stream_reference(params, RngStream(42, k)))

    def test_rows_do_not_depend_on_the_cut(self):
        params = EnsembleParams(n=14, lambda1=0.5, lambda2=0.5)
        whole = sample_jue_block(params, 7, range(70))
        for cuts in ((0, 5, 37, 70), (0, 1, 2, 69, 70)):
            parts = [sample_jue_block(params, 7, range(a, b)) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole)
        fixed = map_sample_blocks(lambda rows: rows, params, 7, 70)
        assert np.array_equal(np.concatenate(fixed), whole)
        assert np.array_equal(np.concatenate(map_sample_blocks(lambda rows: rows, params, 7, 70,
                                                               threads=3)), whole)

    @staticmethod
    def blocks(monkeypatch, n, M, threads=1):
        # the stream indices of each block, in the order map_sample_blocks
        # returns them, with the sampler replaced by its index list
        monkeypatch.setattr(ensembles, "sample_jue_block", lambda params, seed, ks: list(ks))
        params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
        return map_sample_blocks(lambda ks: ks, params, 1, M, threads)

    def test_blocks_cover_the_indices_in_order(self, monkeypatch):
        params = EnsembleParams(n=3, lambda1=0.5, lambda2=0.5)
        whole = sample_jue_block(params, 1, range(100))
        for threads in (1, 2):
            got = map_sample_blocks(lambda rows: rows, params, 1, 100, threads)
            assert np.array_equal(np.concatenate(got), whole)
        for n, M in ((14, 1), (14, 100), (50, 161), (200, 40)):
            blocks = self.blocks(monkeypatch, n, M)
            assert [k for block in blocks for k in block] == list(range(M))
            assert len({len(block) for block in blocks[:-1]}) <= 1
            assert self.blocks(monkeypatch, n, M, threads=2) == blocks

    def test_block_size_depends_on_n_alone(self, monkeypatch):
        def rows(n, M=1000):
            return len(self.blocks(monkeypatch, n, M)[0])

        assert rows(1) == rows(14) == rows(50) == rows(50, 100_000) == 32
        # the (rows, n, n) stack stays within 4 MB once n passes 128
        for n in (200, 400, 724):
            assert 1 <= rows(n) < 32
            assert rows(n) * n * n * 8 <= 4 << 20
        assert rows(2000) == 1

    def test_bad_row_in_a_block_raises(self, monkeypatch):
        # one bad row fails the whole block of eight
        with pytest.raises(SamplingError):
            with_row_three(monkeypatch, (0.1, np.nan, 0.3, 0.4))


class TestSampleValidation:
    def test_rejects_unordered_points(self, monkeypatch):
        # decreasing, a repeated eigenvalue, and a zero that the clip to
        # (0, 1) leaves below its left neighbour
        for row in ((0.7, 0.2, 0.3, 0.4), (0.1, 0.2, 0.2, 0.4), (0.1, 0.2, 0.3, 0.0)):
            with pytest.raises(SamplingError):
                with_row_three(monkeypatch, row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, monkeypatch, bad):
        # inside a row, an infinity clipped to an edge breaks the order
        with pytest.raises(SamplingError):
            with_row_three(monkeypatch, (0.1, bad, 0.3, 0.4))

    @pytest.mark.parametrize("row", [
        (0.0, 0.2, 0.3, 0.4),
        (-np.inf, 0.2, 0.3, 0.4),
        (0.1, 0.2, 0.3, 1.0),
        (0.1, 0.2, 0.3, np.inf),
    ])
    def test_edge_values_are_kept_inside(self, monkeypatch, row):
        got = with_row_three(monkeypatch, row)[3]
        assert 0.0 < got[0] and got[-1] < 1.0
        assert np.array_equal(got[1:3], row[1:3])
