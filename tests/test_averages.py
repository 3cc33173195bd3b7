import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selberg_gas import fisherhartwig as fh
from selberg_gas import quadrature as quad
from selberg_gas.averages import (
    DualityCase,
    _duality_rhs_integral,
    average_even_power_heine,
    density_matrix_exact,
    duality_lhs,
    duality_rhs,
    mc_density_matrix,
    mc_density_matrix_table,
    pairwise_sum,
)
from selberg_gas.ensembles import RngStream, sample_jue_halfhalf
from selberg_gas.exact import (
    DensityMatrixQuery,
    EnsembleParams,
    asymptotic_partition_ratio,
    density_matrix_asymptote,
)
from selberg_gas.specfun import DomainError

import tensor_oracle


def engine_average(params, charges):
    return math.exp(fh.hankel_log_ratio(params, fh.SymbolSpec(singularities=charges),
                                        params.n))


def balanced_ratio(params, charges):
    return math.exp(fh.hankel_balanced_log_ratio(
        params, fh.SymbolSpec(singularities=charges), params.n))


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(777) * 10.0**rng.integers(-3, 3, 777)
        assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-13)

    def test_empty(self):
        assert pairwise_sum([]) == 0.0

    @given(st.lists(st.floats(-1e200, 1e200), min_size=1, max_size=300))
    def test_matches_fsum_property(self, vals):
        # pairwise error bound: ceil(log2 n) roundings along each path
        depth = math.ceil(math.log2(len(vals)))
        bound = depth * 2.0**-52 * math.fsum(abs(v) for v in vals)
        assert abs(pairwise_sum(vals) - math.fsum(vals)) <= bound


class TestBruteForce:
    """The Gram engine against closed values and the tensor-product oracle."""

    def test_flat_weight_signed_at_one(self):
        # a charge at 1 raises that endpoint's exponent: <1 - x> = 1/2
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        assert engine_average(params, ((1.0, 0.5),)) == pytest.approx(0.5, rel=1e-14)
        assert tensor_oracle.average(params, ((1.0, 0.5),)) == pytest.approx(0.5, rel=1e-14)

    def test_flat_weight_abs_triangles(self):
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        assert engine_average(params, ((0.5, 0.5),)) == pytest.approx(0.25, rel=1e-13)
        assert tensor_oracle.average(params, ((0.5, 0.5),)) == pytest.approx(0.25, rel=1e-13)

    def test_heine_cross_method(self):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        brute = tensor_oracle.average(params, ((0.7, 1.0),))
        heine = average_even_power_heine(params, 0.7, 2).value()
        assert brute == pytest.approx(heine, rel=1e-12)

    def test_heine_cross_method_n3(self):
        params = EnsembleParams(n=3, lambda1=-0.5, lambda2=0.25)
        brute = tensor_oracle.average(params, ((0.4, 1.0),))
        heine = average_even_power_heine(params, 0.4, 2).value()
        assert brute == pytest.approx(heine, rel=1e-12)

    def test_size_cap(self):
        # the tensor oracle stops at n = 3; the engine has no cap
        params = EnsembleParams(n=4, lambda1=0.0, lambda2=0.0)
        with pytest.raises(DomainError):
            tensor_oracle.average(params, ((0.5, 1.0),))
        assert engine_average(params, ((0.5, 1.0),)) > 0.0

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_power_matches_tensor_oracle(self, n, m, lam, t):
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        oracle = tensor_oracle.average(params, ((t, m / 2),))
        heine = average_even_power_heine(params, t, m).value()
        assert abs(heine / oracle - 1.0) <= 1e-12


def unit_charge_ratio(params, t):
    return balanced_ratio(params, ((t, 1.0),))


class TestHeine:
    def test_single_moment_reduction(self):
        # n = 1 reduces to a ratio of bare moments: (t-a0)^2 + b1^2
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        val = average_even_power_heine(params, 0.3, 2).value()
        assert val == pytest.approx((0.3 - 0.5) ** 2 + 1.0 / 12.0, rel=1e-13)

    def test_even_power_required(self):
        params = EnsembleParams(n=2, lambda1=0.0, lambda2=0.0)
        with pytest.raises(DomainError):
            average_even_power_heine(params, 0.3, 3)

    def test_band_center_parity(self):
        # at t = 1/2 the (1/2,1/2)-weight ratio is exactly 2/pi for odd n
        # and (2/pi)(n+2)/(n+1) for even n
        target = 2.0 / math.pi
        for n in (1, 3, 5, 39):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            assert unit_charge_ratio(params, 0.5) == pytest.approx(target, rel=1e-10)
        for n in (2, 10, 40):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            assert unit_charge_ratio(params, 0.5) == pytest.approx(
                target * (n + 2.0) / (n + 1.0), rel=1e-10)

    def test_even_size_ladder_converges(self):
        # the even-n subsequence approaches the asymptote like 1/(n+1)
        target = 2.0 / math.pi
        devs = []
        for n in (4, 10, 40):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            devs.append(abs(unit_charge_ratio(params, 0.5) - target) / target)
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] == pytest.approx(1.0 / 41.0, rel=1e-8)

    def test_off_center_convergence(self):
        # away from the band center the ratio drifts into the asymptote
        t = 0.37
        devs = []
        for n in (6, 24, 96):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            devs.append(abs(unit_charge_ratio(params, t)
                            - asymptotic_partition_ratio(n, 1.0, t)))
        assert devs[2] < devs[0]


def christoffel_average(n, m, lam1, lam2, t, digits=60):
    # <prod_l (t - x_l)^m> = det[pi_{n+j}^{(i)}(t) / i!]_{i,j<m}, the confluent
    # Christoffel formula, with the monic Jacobi polynomials on [0, 1] and
    # their derivatives run through the three-term recurrence in mpmath
    with mp.workdps(digits):
        al, be, t = mp.mpf(lam2), mp.mpf(lam1), mp.mpf(t)
        s = al + be
        prev = [mp.mpf(0)] * m
        cur = [mp.mpf(1)] + [mp.mpf(0)] * (m - 1)
        polys = [cur]
        for k in range(n + m - 1):
            if k == 0:
                a, b2 = (be - al) / (s + 2), mp.mpf(0)
            else:
                a = (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2))
                b2 = (4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s)) if k == 1
                      else 4 * k * (k + al) * (k + be) * (k + s)
                      / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
            shift, b2 = (1 + a) / 2, b2 / 4
            prev, cur = cur, [(t - shift) * cur[i] + (i * cur[i - 1] if i else 0)
                              - b2 * prev[i] for i in range(m)]
            polys.append(cur)
        conf = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                conf[i, j] = polys[n + j][i] / mp.factorial(i)
        return float(mp.det(conf))


class TestMpmathReference:
    def test_reference_at_small_n(self):
        # the reference itself against the tensor oracle
        params = EnsembleParams(n=3, lambda1=0.5, lambda2=-0.5)
        oracle = tensor_oracle.average(params, ((0.3, 2.0),))
        assert christoffel_average(3, 4, 0.5, -0.5, 0.3) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n,tol", [(40, 3e-10), (96, 1e-8)])
    def test_engine_at_large_n(self, n, tol):
        # measured worst: 1.25e-10 at n = 40 and 2.6e-9 at n = 96, both at
        # m = 4; the Gram matrix squares the conditioning of the problem
        worst = 0.0
        for m in (2, 4):
            for lam in (-0.5, 0.5):
                for t in (0.2, 0.5, 0.8):
                    params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
                    ref = christoffel_average(n, m, lam, lam, t)
                    val = average_even_power_heine(params, t, m).value()
                    worst = max(worst, abs(val / ref - 1.0))
        assert worst <= tol


class TestPartitionRatioBruteForce:
    def test_matches_heine_route_for_integer_charge(self):
        for n in (1, 2, 3):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            brute = tensor_oracle.partition_ratio(params, ((0.3, 1.0),))
            assert unit_charge_ratio(params, 0.3) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("charges", [((0.3, 0.5),), ((0.3, 1.0),),
                                         ((0.3, 0.5), (0.7, 0.5))])
    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tensor_oracle(self, n, lam, charges):
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        oracle = tensor_oracle.partition_ratio(params, charges)
        assert abs(balanced_ratio(params, charges) / oracle - 1.0) <= 1e-12

    def test_factorization_trend(self):
        # two-charge over product of single-charge ratios tends toward 1
        X, Y, q = 0.3, 0.7, 0.5
        defects = []
        for n in (1, 2, 3):
            params = EnsembleParams(n=n, lambda1=0.5, lambda2=0.5)
            two = balanced_ratio(params, ((X, q), (Y, q)))
            sx = balanced_ratio(params, ((X, q),))
            sy = balanced_ratio(params, ((Y, q),))
            defects.append(abs(two / (sx * sy) - 1.0))
        assert defects[0] > defects[1] > defects[2]

    def test_regression_anchor_two_half_charges(self):
        params = EnsembleParams(n=3, lambda1=0.5, lambda2=0.5)
        val = balanced_ratio(params, ((0.3, 0.5), (0.7, 0.5)))
        assert val > 0.0
        # frozen from tensor-quadrature order-doubling runs (stable to 4e-12
        # across orders 44-80); the Gram engine reads ...286
        assert val == pytest.approx(0.2458555838089300, rel=1e-9)


def _duality_grid_sum(case, points):
    # the circular side's m-fold product integrand on the full periodic grid
    e = (case.params.lambda1 - case.params.lambda2 - case.n) / 2.0
    p = case.params.lambda1 + case.params.lambda2 + case.n

    def f(theta):
        return (np.exp(1j * e * theta) * (2.0 * np.cos(0.5 * theta)) ** p
                * (case.t * (1.0 + np.exp(1j * theta)) - 1.0) ** case.n)

    def integrand(*thetas):
        val = 1.0
        for th in thetas:
            val = val * f(th)
        for j in range(case.m):
            for k in range(j + 1, case.m):
                val = val * (2.0 - 2.0 * np.cos(thetas[k] - thetas[j]))
        return val

    return quad.periodic_integrate(integrand, case.m, points) / (2.0 * math.pi) ** case.m


class TestDuality:
    @pytest.mark.parametrize("lam", [0.5, -0.5])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_identity(self, lam, t):
        params = EnsembleParams(n=2, lambda1=lam, lambda2=lam)
        case = DualityCase(n=2, m=2, t=t, params=params)
        lhs = duality_lhs(case)
        rhs = duality_rhs(case)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)

    def test_large_n_routes_through_heine(self):
        params = EnsembleParams(n=8, lambda1=0.5, lambda2=0.5)
        case = DualityCase(n=8, m=2, t=0.4, params=params)
        val = duality_lhs(case)
        assert val == pytest.approx(
            average_even_power_heine(params, 0.4, 2).value(), rel=1e-12)

    def test_unsettled_ladder_raises(self):
        # at n = 40 the periodic sums cancel near the edges of t: at t = 0.07
        # the rungs disagree by 2e-6 relative and the value would be off by
        # 1.5e-6; at t = 0.1 the spread is 7.5e-9 and the value still returns
        params = EnsembleParams(n=40, lambda1=-0.5, lambda2=-0.5)
        with pytest.raises(quad.QuadratureError, match="Richardson"):
            duality_rhs(DualityCase(n=40, m=2, t=0.07, params=params))
        case = DualityCase(n=40, m=2, t=0.1, params=params)
        lhs = duality_lhs(case)
        assert abs(duality_rhs(case) - lhs) <= 1e-7 * abs(lhs)

    def test_odd_power_rejected(self):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        with pytest.raises(DomainError):
            DualityCase(n=2, m=3, t=0.5, params=params)

    def test_circular_integral_is_real(self):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        case = DualityCase(n=2, m=2, t=0.7, params=params)
        val = _duality_rhs_integral(case, 512)
        assert abs(val.imag) <= 1e-10 * abs(val.real)

    @pytest.mark.parametrize("points", [64, 128])
    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_toeplitz_form_equals_grid_sum(self, n, lam, points):
        # discrete Andreief identity: the m x m Toeplitz determinant equals
        # the m-fold midpoint sum of prod F(theta_j) |Delta(e^{i theta})|^2
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        case = DualityCase(n=n, m=2, t=0.3, params=params)
        oracle = _duality_grid_sum(case, points)
        assert abs(_duality_rhs_integral(case, points) - oracle) <= 1e-13 * abs(oracle)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 5), m=st.sampled_from([2, 4]),
           lam=st.floats(-0.5, 1.0), t=st.floats(0.05, 0.95))
    def test_identity_property(self, n, m, lam, t):
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        case = DualityCase(n=n, m=m, t=t, params=params)
        lhs = duality_lhs(case)
        assert abs(duality_rhs(case) - lhs) <= 1e-6 * abs(lhs)


class TestExactDensityMatrix:
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_matches_tensor_oracle(self, boundary):
        for N, X, Y in ((1, 0.2, 0.7), (2, 0.3, 0.8), (3, 0.475, 0.525), (3, 0.9, 0.1)):
            query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
            lam = query.weight_exponent()
            ratio = tensor_oracle.partition_ratio(
                EnsembleParams(n=N, lambda1=lam, lambda2=lam), ((X, 0.5), (Y, 0.5)),
                order=64)
            oracle = (math.pi * query.rho / math.sqrt(abs(X - Y))
                      * (X * (1.0 - X) * Y * (1.0 - Y)) ** 0.25 * ratio)
            assert abs(density_matrix_exact(query) / oracle - 1.0) <= 1e-12

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            density_matrix_exact(DensityMatrixQuery(N=5, X=0.4, Y=0.4))

    def test_large_n_approaches_asymptote(self):
        # beyond the oracle's reach: at N = 200 on the Table 1 line the exact
        # value sits within 0.3% of the leading asymptote (measured 0.12%)
        for X in (0.125, 0.375):
            query = DensityMatrixQuery(N=200, X=X, Y=1.0 - X)
            ratio = density_matrix_exact(query) / density_matrix_asymptote(query)
            assert abs(ratio - 1.0) <= 3e-3


class TestMonteCarloDensityMatrix:
    def test_matches_bruteforce_small_system(self):
        query = DensityMatrixQuery(N=2, X=0.3, Y=0.7)
        exact_val = density_matrix_exact(query)
        est = mc_density_matrix(query, M=4000, master_seed=11)
        assert abs(est.value - exact_val) <= 3.5 * est.std_error

    def test_neumann_matches_bruteforce(self):
        query = DensityMatrixQuery(N=2, X=0.25, Y=0.75, boundary="neumann")
        exact_val = density_matrix_exact(query)
        est = mc_density_matrix(query, M=600, master_seed=13)
        assert abs(est.value - exact_val) <= 3.5 * est.std_error

    def test_specialized_diagonal_path_bitwise(self):
        # the general (X, Y) estimator at Y = 1-X reproduces the specialized
        # X(1-X) prefactor exactly, bit for bit
        N, X, M, seed = 5, 0.2, 64, 21
        query = DensityMatrixQuery(N=N, X=X, Y=1.0 - X)
        with pytest.raises(DomainError):
            mc_density_matrix(query, M=M, master_seed=seed)  # M below floor
        M = 128
        est = mc_density_matrix(query, M=M, master_seed=seed)

        rho = query.rho
        pref = 8.0 * rho / (N + 1) * (X * (1.0 - X))
        vals = np.empty(M)
        for k in range(M):
            pts = sample_jue_halfhalf(N, RngStream(seed, k)).points
            logp = (np.log(np.abs(4.0 * X - 4.0 * pts)).sum()
                    + np.log(np.abs(4.0 * (1.0 - X) - 4.0 * pts)).sum())
            vals[k] = pref * math.exp(logp)
        assert pairwise_sum(vals) / M == est.value

    def test_no_overflow_long_products(self):
        query = DensityMatrixQuery(N=100, X=0.49, Y=0.51)
        est = mc_density_matrix(query, M=100, master_seed=3)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert est.value > 0.0

    def test_thread_counts_agree_bitwise(self):
        query = DensityMatrixQuery(N=6, X=0.2, Y=0.8)
        one = mc_density_matrix_table([query], 300, 7, threads=1)[0]
        two = mc_density_matrix_table([query], 300, 7, threads=3)[0]
        assert one.value == two.value and one.std_error == two.std_error

    def test_estimate_metadata(self):
        query = DensityMatrixQuery(N=3, X=0.3, Y=0.6)
        est = mc_density_matrix(query, M=150, master_seed=99)
        assert est.m_samples == 150 and est.master_seed == 99
        assert est.std_error > 0.0
