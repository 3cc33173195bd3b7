import math

import mpmath
import numpy as np
import pytest

from selberg_gas import cli, ensembles
from selberg_gas import quadrature as quad
from selberg_gas.ensembles import (
    SamplingError,
    rng_stream,
    sample_jacobi_matrices,
    sample_jue_halfhalf,
    spectra,
    tridiagonal_log_dets,
)
from selberg_gas.exact import EnsembleParams
from selberg_gas.specfun import DomainError

from haar_oracle import half_angle_points, haar_so_even, haar_usp, symplectic_form
from sampler_oracle import block_size, reference_samples
from tensor_oracle import vandermonde_sq

WEIGHTS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 2.0))


def draw(params, seed, M):
    # the spectra of samples 0..M-1 of a run
    return spectra(*sample_jacobi_matrices(params, seed, M))


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
        a = sample_jacobi_matrices(params, 42, 70)
        b = sample_jacobi_matrices(params, 42, 70)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

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
        # the one-row path draws what a run draws first from block 0
        params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
        assert np.array_equal(sample_jue_halfhalf(n, rng_stream(42, 0)), draw(params, 42, 1)[0])


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
        # a fractional size was a bare TypeError from a slice
        with pytest.raises(DomainError, match="must be an integer"):
            sample_jue_halfhalf(2.5, rng_stream(1, 0))


def with_row_three(monkeypatch, row):
    # a run of eight whose fourth row of eigenvalues is replaced as it
    # leaves the package's tridiagonal eigensolver, before the sampler
    # clips and checks it
    solve = ensembles._tridiagonal_eigenvalues

    def replaced(diag, off):
        points = solve(diag, off)
        points[3] = row
        return points

    monkeypatch.setattr(ensembles, "_tridiagonal_eigenvalues", replaced)
    return draw(EnsembleParams(n=4, lambda1=0.5, lambda2=0.5), 1, 8)


class TestBlockSampler:
    @pytest.mark.parametrize("lambda1,lambda2", ((0.5, 0.5), (-0.5, -0.5), (-0.5, 2.0)))
    @pytest.mark.parametrize("n", (1, 2, 14, 50))
    def test_rows_are_the_streams_samples(self, n, lambda1, lambda2):
        # three blocks, the last of seven rows
        params = EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2)
        M = 2 * block_size(n) + 7
        got = draw(params, 42, M)
        assert got.shape == (M, n)
        assert np.array_equal(got, reference_samples(params, 42, M))

    def test_rows_do_not_depend_on_the_cut(self):
        # a run of M samples is the reference's first M, its last block
        # short, full or one row long
        params = EnsembleParams(n=14, lambda1=0.5, lambda2=0.5)
        reference = reference_samples(params, 7, 70)
        for M in (1, 5, 31, 32, 33, 70):
            assert np.array_equal(draw(params, 7, M), reference[:M])

    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_samples_are_a_prefix_whatever_m(self, threads):
        # T's pair of sample k is the same bytes whatever M, the last
        # block one row short, full, one row long and five rows long, at
        # B = 32 and B = 13; so are the (1/2, 1/2) sample-jue columns of
        # sample k at each --threads value the CLI accepts
        def sample_jue(n, M):
            argv = ["sample-jue", "--n", str(n), "--m-samples", str(M),
                    "--seed", "11", "--threads", str(threads)]
            return cli.execute(cli.build_parser().parse_args(argv))["results"]

        for n in (14, 200):
            params = EnsembleParams(n=n, lambda1=-0.5, lambda2=-0.5)
            B = block_size(n)
            longest = sample_jacobi_matrices(params, 11, 4 * B)
            longest_rows = sample_jue(n, 4 * B)
            for M in (B - 1, B, B + 1, 3 * B + 5):
                got = sample_jacobi_matrices(params, 11, M)
                for part, whole in zip(got, longest):
                    assert part.tobytes() == whole[:M].tobytes()
                assert sample_jue(n, M) == {column: values[:n * M]
                                            for column, values in longest_rows.items()}

    @pytest.mark.parametrize("n, M", ((14, 45), (129, 45), (200, 30), (300, 12)))
    def test_spectra_do_not_depend_on_stacking(self, monkeypatch, n, M):
        # below n = 130 spectra stacks as many matrices per dense eigvalsh
        # as 4 MB holds, here all 45 at n = 14 and 31 then 14 at n = 129;
        # from n = 130 on it takes scipy's eigvalsh_tridiagonal one row at a
        # time.  Both act matrix by matrix, so a row's spectrum is the same
        # alone, in its stack, or in a chunk that straddles two stacks
        import scipy.linalg

        diag, off_sq = sample_jacobi_matrices(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5), 8, M)
        stacks, eigvalsh = [], np.linalg.eigvalsh
        rows, eigvalsh_tridiagonal = [], scipy.linalg.eigvalsh_tridiagonal
        monkeypatch.setattr(ensembles.np.linalg, "eigvalsh",
                            lambda matrices: stacks.append(len(matrices)) or eigvalsh(matrices))
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal",
                            lambda d, e: rows.append(len(d)) or eigvalsh_tridiagonal(d, e))
        whole = spectra(diag, off_sq)
        if n < ensembles._DENSE_EIGEN_ORDERS:
            S = max(1, (1 << 19) // (n * n))
            assert S * n * n * 8 <= 4 << 20
            assert stacks == [S] * (M // S) + [M % S] and rows == []
        else:
            assert stacks == [] and rows == [n] * M
        alone = np.concatenate([spectra(diag[k:k + 1], off_sq[k:k + 1]) for k in range(M)])
        assert whole.tobytes() == alone.tobytes()
        assert spectra(diag[3:], off_sq[3:]).tobytes() == whole[3:].tobytes()

    @pytest.mark.parametrize("lambda1, lambda2", ((0.5, 0.5), (-0.5, -0.5), (-0.9, 3.0)))
    @pytest.mark.parametrize("n", (129, 130, 200, 300))
    def test_tridiagonal_solver_matches_dense_bits(self, n, lambda1, lambda2):
        # from n = 130 spectra takes scipy's tridiagonal solver where
        # scipy.linalg is loaded; it must return the bits of numpy's stacked
        # dense eigvalsh of the same T, the solver otherwise, or seeded
        # samples would depend on the solver
        import scipy.linalg  # noqa: F401

        M = 4
        diag, off_sq = sample_jacobi_matrices(
            EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2), 5, M)
        k = np.arange(n)
        lower = np.zeros((M, n, n))
        lower[:, k, k] = diag
        lower[:, k[1:], k[:-1]] = np.sqrt(off_sq)
        dense = np.clip(np.linalg.eigvalsh(lower), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        assert spectra(diag, off_sq).tobytes() == dense.tobytes()

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

    class BlockIndex:
        # a generator whose first Beta variate, c_n^2, is its block's index,
        # and every other variate 0
        def __init__(self, block):
            self.block = block

        def beta(self, a, b, size):
            variates = np.zeros(size)
            variates[:, 0] = self.block
            return variates

    @classmethod
    def blocks(cls, monkeypatch, n, M):
        # the (block, rows) of each draw, in the order sample_jacobi_matrices
        # lays them out, read off T_11 = d^2_1 + e^2_1 = c_n^2 + (1 - c_n^2)
        # c'^2_{n-1}, which with c'^2_{n-1} = 0 is the index of its block
        monkeypatch.setattr(ensembles, "rng_stream", lambda seed, block: cls.BlockIndex(block))
        params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
        ids = sample_jacobi_matrices(params, 1, M)[0][:, 0]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        return [(int(ids[s]), int(c)) for s, c in zip(starts, np.diff(starts, append=M))]

    def test_blocks_cover_the_indices_in_order(self, monkeypatch):
        for n, M in ((14, 1), (14, 100), (50, 161), (200, 40)):
            blocks = self.blocks(monkeypatch, n, M)
            B = blocks[0][1]
            assert [block for block, _ in blocks] == list(range(len(blocks)))
            assert all(rows == B for _, rows in blocks[:-1])
            assert 1 <= blocks[-1][1] <= B
            assert sum(rows for _, rows in blocks) == M

    def test_block_size_depends_on_n_alone(self, monkeypatch):
        def rows(n, M=1000):
            return self.blocks(monkeypatch, n, M)[0][1]

        assert rows(1) == rows(14) == rows(50) == rows(50, 100_000) == 32
        # B(n) = 2^19 // n^2 rows once n passes 128
        for n in (200, 400, 724):
            assert 1 <= rows(n) < 32
            assert rows(n) * n * n * 8 <= 4 << 20
        assert rows(2000) == 1
        for n in (1, 14, 128, 129, 200, 724, 2000):
            assert rows(n) == block_size(n)

    @pytest.mark.parametrize("n, M", ((14, 12), (50, 3)))
    def test_spectra_are_the_eigenvalues_of_t(self, n, M):
        # each eigenvalue against T's own at 34 digits: 2.1 and 2.6 eps
        # here; the worst gap measured over five seeds was 4.2 eps at n = 14
        # and 5.1 at n = 50, and the former eigvalsh of B B^T, against the
        # same T, 3.0 and 3.7
        diag, off_sq = sample_jacobi_matrices(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5), 1, M)
        got = spectra(diag, off_sq)
        with mpmath.workdps(34):
            for r in range(M):
                T = mpmath.diag([mpmath.mpf(x) for x in diag[r]])
                for k, o in enumerate(off_sq[r]):
                    T[k + 1, k] = T[k, k + 1] = mpmath.sqrt(o)
                exact = sorted(mpmath.eigsy(T, eigvals_only=True))
                gap = max(abs(float(x - mpmath.mpf(y))) for x, y in zip(exact, got[r]))
                assert gap <= 6.0 * np.finfo(float).eps, (r, gap)

    def test_bad_row_in_a_block_raises(self, monkeypatch):
        # one bad row fails the whole run of eight
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    @pytest.mark.parametrize("entry", ["diag", "off_sq"])
    @pytest.mark.parametrize("n", (14, 200))
    def test_rejects_non_finite_entries_of_t(self, n, entry, bad):
        # on both sides of the solver switch at n = 130: numpy's dense
        # solver raised LinAlgError on the non-finite ones, scipy's
        # tridiagonal one a ValueError.  T = B B^T has no negative diagonal
        # entry; one whose negative eigenvalue was clipped went unreported
        import scipy.linalg  # noqa: F401  (so that n = 200 takes scipy's solver)

        diag, off_sq = sample_jacobi_matrices(EnsembleParams(n=n, lambda1=0.5, lambda2=0.5), 1, 3)
        (diag if entry == "diag" else off_sq)[1, 5] = bad
        with pytest.raises(SamplingError, match="^a Jacobi matrix entry is NaN, infinite or negative"):
            spectra(diag, off_sq)


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
        stream = ensembles.rng_stream

        class Spoiled:
            def __init__(self, master_seed, index):
                self.gen = stream(master_seed, index)

            def beta(self, a, b, size):
                variates = self.gen.beta(a, b, size=size)
                variates[3, column] = bad
                return variates

        monkeypatch.setattr(ensembles, "rng_stream", Spoiled)
        diag, off_sq = sample_jacobi_matrices(
            EnsembleParams(n=14, lambda1=0.5, lambda2=0.5), 1, 8)
        with pytest.raises(SamplingError):
            tridiagonal_log_dets(np.array([0.2, 0.8]), diag, off_sq)


def scaled_monic(n, lambda1, lambda2, x):
    """4^n pi_n(x), pi_n the monic orthogonal polynomial of the weight
    x^lambda1 (1-x)^lambda2, by the recurrence p_{k+1} = 4(x - a_k) p_k -
    16 b_k^2 p_{k-1}; the factor 4, one over the capacity of [0, 1], keeps
    it from underflowing at large n."""
    a, b, _ = quad.jacobi_recurrence(n, lambda1, lambda2)
    prev, cur = 1.0, 4.0 * (x - a[0])
    for k in range(1, n):
        prev, cur = cur, 4.0 * (x - a[k]) * cur - 16.0 * b[k] ** 2 * prev
    return cur


def scaled_products(x, diag, off_sq):
    """prod_l 4(x - x_l) = det(4x - 4T) of each row, signed: the pivots of
    `tridiagonal_log_dets` with their signs kept."""
    pivot = 4.0 * (x - diag[:, 0])
    sign, log_abs = np.sign(pivot), np.log(np.abs(pivot))
    for k in range(1, diag.shape[1]):
        pivot = 4.0 * (x - diag[:, k]) - 16.0 * off_sq[:, k - 1] / pivot
        sign *= np.sign(pivot)
        log_abs += np.log(np.abs(pivot))
    return sign * np.exp(log_abs)


HEINE_WEIGHTS = ((0.5, 0.5), (-0.5, -0.5), (1.3, -0.9))


class TestHeineMean:
    """< prod_l (X - x_l) > = pi_n(X) (Heine), a sampler test at any n."""

    @pytest.mark.parametrize("lambda1, lambda2", HEINE_WEIGHTS)
    def test_scaled_monic_against_scipy(self, lambda1, lambda2):
        # pi_n(x) = P_n^(lambda1, lambda2)(1 - 2x) / ((-2)^n k_n), k_n the
        # leading coefficient of the standard Jacobi polynomial
        from scipy.special import eval_jacobi

        n, s = 14, lambda1 + lambda2
        log_k = (math.lgamma(2 * n + s + 1) - n * math.log(2.0) - math.lgamma(n + 1)
                 - math.lgamma(n + s + 1))
        for x in (0.05, 0.3, 0.5, 0.93):
            want = (-2.0) ** n * eval_jacobi(n, lambda1, lambda2, 1.0 - 2.0 * x) / math.exp(log_k)
            assert scaled_monic(n, lambda1, lambda2, x) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [14, 50, 200])
    @pytest.mark.parametrize("lambda1, lambda2", HEINE_WEIGHTS)
    def test_sample_mean(self, lambda1, lambda2, n):
        # fixed seed and bound, never re-seeded; measured worst |z| 2.27
        M = 20_000
        diag, off_sq = sample_jacobi_matrices(
            EnsembleParams(n=n, lambda1=lambda1, lambda2=lambda2), 3, M)
        for x in (0.05, 0.3, 0.5):
            vals = scaled_products(x, diag, off_sq)
            z = (vals.mean() - scaled_monic(n, lambda1, lambda2, x)) / (
                vals.std(ddof=1) / math.sqrt(M))
            assert abs(z) <= 4.5, (x, z)

    @pytest.mark.parametrize("group, lambda1, lambda2", [("USp", 0.5, 0.5),
                                                         ("SO", -0.5, -0.5)])
    def test_haar_group_mean(self, group, lambda1, lambda2):
        # the paper's first step from the groups themselves: Haar USp(2n)
        # and SO(2n) eigenangles, mapped by x = sin^2(theta/2), give the
        # (1/2, 1/2) and (-1/2, -1/2) Heine means; seed and bound fixed
        # before the first run, never re-seeded
        n, M = 10, 4000
        rng = np.random.default_rng(11)
        q = haar_usp(n, M, rng) if group == "USp" else haar_so_even(n, M, rng)
        qt = np.swapaxes(q, 1, 2)
        assert np.abs(np.conj(qt) @ q - np.eye(2 * n)).max() <= 1e-12
        assert np.abs(np.linalg.det(q) - 1.0).max() <= 1e-12
        if group == "USp":
            J = symplectic_form(n)
            assert np.abs(qt @ J @ q - J).max() <= 1e-12
        points = half_angle_points(q)
        for x in (0.05, 0.3, 0.5):
            vals = np.prod(4.0 * (x - points), axis=1)
            z = (vals.mean() - scaled_monic(n, lambda1, lambda2, x)) / (
                vals.std(ddof=1) / math.sqrt(M))
            assert abs(z) <= 4.5, (x, z)


def exact_power_sums(n, lambda1, lambda2):
    """E sum_l x_l and E sum_l x_l^2 over the n-point ensemble: the traces of
    J and J^2 restricted to the first n orthonormal polynomials, where J is
    the Jacobi matrix of the monic recurrence (diagonal a_k, off-diagonal
    b_k, b_0 = 0)."""
    a, b, _ = quad.jacobi_recurrence(n + 1, lambda1, lambda2)
    b_sq = b * b
    return a[:n].sum(), (a[:n] ** 2 + b_sq[:n] + b_sq[1:]).sum()


def power_sums(points):
    return points.sum(axis=1), (points * points).sum(axis=1)


def z_score(sample, exact):
    return (sample.mean() - exact) / (sample.std(ddof=1) / math.sqrt(len(sample)))


class TestClassicalGroupPowerSums:
    """Haar USp(2N) and SO(2N) half-angle points and the sampler's spectra
    at the same weight against the exact E sum x and E sum x^2, at a fixed
    seed and |z| bound, both set before the first run and never re-seeded."""

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("group, lam, other", [("USp", 0.5, -0.5), ("SO", -0.5, 0.5)])
    def test_power_sums(self, group, lam, other, n):
        M = 4000
        rng = np.random.default_rng([17, n])
        q = haar_usp(n, M, rng) if group == "USp" else haar_so_even(n, M, rng)
        haar = power_sums(half_angle_points(q))
        sampled = power_sums(draw(EnsembleParams(n=n, lambda1=lam, lambda2=lam), 19, M))
        right, wrong = exact_power_sums(n, lam, lam), exact_power_sums(n, other, other)
        for k in range(2):
            assert abs(z_score(haar[k], right[k])) <= 4.5, (k, "haar")
            assert abs(z_score(sampled[k], right[k])) <= 4.5, (k, "sampler")
            pooled_se = math.sqrt((haar[k].var(ddof=1) + sampled[k].var(ddof=1)) / M)
            assert abs(haar[k].mean() - sampled[k].mean()) <= 4.5 * pooled_se, (k, "two-sample")
        # both weights are symmetric about 1/2, so E sum x = n/2 for either
        # group; sum x^2 tells them apart.  Measured worst |z| 2.15 against
        # the exact values, 2.85 between the two samples, and 28.0 against
        # the other group's law
        assert abs(z_score(haar[1], wrong[1])) > 4.5
