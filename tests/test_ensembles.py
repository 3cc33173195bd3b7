import math

import numpy as np
import pytest

from selberg_gas import ensembles
from selberg_gas import quadrature as quad
from selberg_gas.ensembles import (
    SamplingError,
    map_sample_blocks,
    rng_stream,
    sample_jue_block,
    sample_jue_halfhalf,
    tridiagonal_block,
    tridiagonal_log_dets,
)
from selberg_gas.exact import EnsembleParams
from selberg_gas.specfun import DomainError

from sampler_oracle import block_size, reference_rows, reference_samples
from tensor_oracle import vandermonde_sq

WEIGHTS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 2.0))


def draw(params, seed, M):
    # samples 0..M-1 of a run, as the Monte Carlo estimators see them
    return np.concatenate(map_sample_blocks(lambda rows: rows, params, seed, M))


def jue_average(fn, n, lambda1, lambda2, order=40):
    axes = [quad.power_panel(0.0, 1.0, lambda1, lambda2, order)] * n
    num = quad.tensor_integrate(lambda *x: fn(*x) * vandermonde_sq(*x), axes)
    den = quad.tensor_integrate(vandermonde_sq, axes)
    return num / den


class TestStreams:
    def test_bit_reproducibility(self):
        a = sample_jue_halfhalf(14, rng_stream(42, 5))
        b = sample_jue_halfhalf(14, rng_stream(42, 5))
        assert np.array_equal(a, b)
        params = EnsembleParams(n=14, lambda1=-0.5, lambda2=-0.5)
        a = sample_jue_block(params, 42, 5, 32)
        b = sample_jue_block(params, 42, 5, 32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_jue_halfhalf(6, rng_stream(42, 0))
        b = sample_jue_halfhalf(6, rng_stream(42, 1))
        assert not np.array_equal(a, b)

    def test_sequence_advances(self):
        gen = rng_stream(9, 0)
        a = sample_jue_halfhalf(3, gen)
        b = sample_jue_halfhalf(3, gen)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", (1, 14))
    def test_one_row_is_row_zero_of_the_block(self, n):
        # the one-row path draws what the block sampler draws first
        params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
        assert np.array_equal(sample_jue_halfhalf(n, rng_stream(42, 5)),
                              sample_jue_block(params, 42, 5, 32)[0])


class TestRecurrenceSampler:
    """The bidiagonal model: B B^T is the Jacobi matrix of the random
    three-term recurrence whose zeros carry the ensemble law."""

    def test_single_point_is_beta(self):
        vals = draw(EnsembleParams(n=1, lambda1=0.5, lambda2=0.5), 3, 20000)[:, 0]
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
        pts = draw(params, 17, m)
        for fn, label in (((lambda *x: sum(x)), "sum"),
                          ((lambda *x: sum(xi ** 2 for xi in x)), "squares"),
                          ((lambda *x: math.prod(x)), "prod")):
            sample_vals = fn(*pts.T)
            exact = jue_average(fn, n, lambda1, lambda2)
            se = sample_vals.std(ddof=1) / math.sqrt(m)
            assert abs(sample_vals.mean() - exact) <= 3.5 * se, label

    def test_support_and_order(self):
        for k in range(300):
            pts = sample_jue_halfhalf(14, rng_stream(23, k))
            assert pts[0] > 0.0 and pts[-1] < 1.0
            assert np.all(np.diff(pts) > 0.0)

    def test_exponents_near_minus_one_stay_inside(self):
        # unclipped, about 3% of these draws round an eigenvalue onto 1.0
        for lambda1, lambda2 in ((0.5, -0.9), (-0.9, -0.9)):
            params = EnsembleParams(n=14, lambda1=lambda1, lambda2=lambda2)
            pts = draw(params, 29, 2000)
            assert np.all(pts[:, 0] > 0.0) and np.all(pts[:, -1] < 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_jue_halfhalf(0, rng_stream(1, 0))


def with_row_three(monkeypatch, row):
    # a block of eight whose fourth row of eigenvalues is replaced before the
    # sampler clips and checks it
    eigvalsh = np.linalg.eigvalsh

    def replaced(matrices):
        points = eigvalsh(matrices)
        points[3] = row
        return points

    monkeypatch.setattr(ensembles.np.linalg, "eigvalsh", replaced)
    return sample_jue_block(EnsembleParams(n=4, lambda1=0.5, lambda2=0.5), 1, 0, 8)


class TestBlockSampler:
    @pytest.mark.parametrize("lambda1,lambda2", ((0.5, 0.5), (-0.5, -0.5), (-0.5, 2.0)))
    @pytest.mark.parametrize("n", (1, 2, 14, 50))
    def test_rows_are_the_streams_samples(self, n, lambda1, lambda2):
        params = EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2)
        for block, rows in ((0, 32), (3, 7), (41, 1)):
            got = sample_jue_block(params, 42, block, rows)
            assert got.shape == (rows, n)
            assert np.array_equal(got, reference_rows(params, 42, block, rows))

    def test_rows_do_not_depend_on_the_cut(self):
        # a short block is a prefix of the full one, and a run of M samples
        # is the reference's first M
        params = EnsembleParams(n=14, lambda1=0.5, lambda2=0.5)
        whole = sample_jue_block(params, 7, 2, 32)
        for rows in (1, 5, 31):
            assert np.array_equal(sample_jue_block(params, 7, 2, rows), whole[:rows])
        reference = reference_samples(params, 7, 70)
        for threads in (1, 3):
            got = map_sample_blocks(lambda rows: rows, params, 7, 70, threads)
            assert np.array_equal(np.concatenate(got), reference)

    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_samples_are_a_prefix_whatever_m(self, threads):
        # sample k is the same whatever M and the thread count: the last block
        # one row short, full, one row long and five rows long
        params = EnsembleParams(n=6, lambda1=-0.5, lambda2=-0.5)
        B = block_size(6)
        longest = draw(params, 11, 4 * B)
        for M in (B - 1, B, B + 1, 3 * B + 5):
            got = np.concatenate(map_sample_blocks(lambda rows: rows, params, 11, M, threads))
            assert np.array_equal(got, longest[:M])

    @pytest.mark.parametrize("M", (1, 31, 32, 33, 100))
    def test_one_generator_per_block(self, monkeypatch, M):
        built = []

        def counting(master_seed, index):
            built.append(index)
            return rng_stream(master_seed, index)

        monkeypatch.setattr(ensembles, "rng_stream", counting)
        params = EnsembleParams(n=14, lambda1=0.5, lambda2=0.5)
        assert len(draw(params, 3, M)) == M
        assert sorted(built) == list(range(-(-M // block_size(14))))

    @staticmethod
    def blocks(monkeypatch, n, M, threads=1):
        # the (block, rows) of each call, in the order map_sample_blocks
        # returns them, with the sampler replaced by its arguments
        monkeypatch.setattr(ensembles, "sample_jue_block",
                            lambda params, seed, block, rows: (block, rows))
        params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
        return map_sample_blocks(lambda cut: cut, params, 1, M, threads)

    def test_blocks_cover_the_indices_in_order(self, monkeypatch):
        for n, M in ((14, 1), (14, 100), (50, 161), (200, 40)):
            blocks = self.blocks(monkeypatch, n, M)
            B = blocks[0][1]
            assert [block for block, _ in blocks] == list(range(len(blocks)))
            assert all(rows == B for _, rows in blocks[:-1])
            assert 1 <= blocks[-1][1] <= B
            assert sum(rows for _, rows in blocks) == M
            assert self.blocks(monkeypatch, n, M, threads=2) == blocks

    def test_block_size_depends_on_n_alone(self, monkeypatch):
        def rows(n, M=1000):
            return self.blocks(monkeypatch, n, M)[0][1]

        assert rows(1) == rows(14) == rows(50) == rows(50, 100_000) == 32
        # the (rows, n, n) stack stays within 4 MB once n passes 128
        for n in (200, 400, 724):
            assert 1 <= rows(n) < 32
            assert rows(n) * n * n * 8 <= 4 << 20
        assert rows(2000) == 1
        for n in (1, 14, 128, 129, 200, 724, 2000):
            assert rows(n) == block_size(n)

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


class TestPivotRecurrence:
    def test_log_det_of_a_constructed_matrix(self):
        # T = [[0.3, 0.1], [0.1, 0.6]]: det(x - T) = (x - 0.3)(x - 0.6) - 0.01
        got = tridiagonal_log_dets(np.array([0.0, 0.45, 1.0]), np.array([[0.3, 0.6]]),
                                   np.array([[0.01]]))
        want = [math.log(abs((x - 0.3) * (x - 0.6) - 0.01)) for x in (0.0, 0.45, 1.0)]
        assert got.shape == (3, 1)
        assert np.allclose(got[:, 0], want, rtol=0.0, atol=1e-15)

    def test_zero_pivot_raises(self):
        # the leading 1 x 1 block equals x: log 0, an infinite next pivot,
        # and inf - inf in the sum
        diag, off_sq = np.array([[0.3, 0.6], [0.5, 0.6]]), np.array([[0.01], [0.01]])
        with pytest.raises(SamplingError):
            tridiagonal_log_dets(np.array([0.3]), diag, off_sq)

    def test_x_an_eigenvalue_reads_minus_inf(self):
        # a last pivot of exactly 0.0 is a zero determinant, not an error
        got = tridiagonal_log_dets(np.array([0.25]), np.array([[0.25]]), np.zeros((1, 0)))
        assert got[0, 0] == -np.inf

    # numpy warns of the infinities the bad variate spreads
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 5, 13, 14, 26])
    def test_rejects_non_finite_variates(self, monkeypatch, bad, column):
        # one bad c_j^2 (columns < 14) or c'_j^2 in the fourth row of a block
        beta_variates = ensembles._beta_variates

        def replaced(params, gen, rows):
            c_sq, cp_sq = beta_variates(params, gen, rows)
            (c_sq if column < params.n else cp_sq)[3, column % params.n] = bad
            return c_sq, cp_sq

        monkeypatch.setattr(ensembles, "_beta_variates", replaced)
        diag, off_sq = tridiagonal_block(EnsembleParams(n=14, lambda1=0.5, lambda2=0.5), 1, 0, 8)
        with pytest.raises(SamplingError):
            tridiagonal_log_dets(np.array([0.2, 0.8]), diag, off_sq)
