import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selberg_gas import fisherhartwig as fh
from selberg_gas import quadrature as quad
from selberg_gas.averages import (
    average_even_power_heine,
    density_matrix_exact,
    duality_lhs,
    duality_rhs,
    mc_density_matrix_table,
)
from selberg_gas import averages
from selberg_gas.cli import TABLE1_XS
from selberg_gas.ensembles import sample_jacobi_matrices, tridiagonal_log_dets
from selberg_gas.exact import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    BOX_EXPONENTS,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    density_matrix_asymptote,
    duality_constant_A,
    morris_closed,
)
from selberg_gas.specfun import DomainError

import lenard_oracle
import tensor_oracle
from haar_oracle import haar_so_even, haar_usp
from sampler_oracle import block_size, reference_log_det, reference_pairs, reference_samples


def engine_average(params, charges):
    return math.exp(fh.hankel_log_ratios(params.lambda1, params.lambda2,
                                         fh.SymbolSpec(singularities=charges), (params.n,))[0])


def balanced_ratio(params, charges):
    return math.exp(fh.hankel_balanced_log_ratio(
        params, fh.SymbolSpec(singularities=charges), params.n))


class TestBruteForce:
    """The Stieltjes ladder against closed values and the tensor-product oracle."""

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
            symbol = fh.SymbolSpec(singularities=((t, 1.0),))
            devs.append(abs(unit_charge_ratio(params, t)
                            - math.exp(fh.jacobi_fh_asymptotes(symbol, (n,))[0])))
        assert devs[2] < devs[0]


def christoffel_log_average(n, m, lam1, lam2, t, digits=60):
    # log <prod_l (t - x_l)^m>, the average being det[pi_{n+j}^{(i)}(t) / i!]_{i,j<m},
    # the confluent Christoffel formula, with the monic Jacobi polynomials on
    # [0, 1] and their derivatives run through the three-term recurrence in
    # mpmath
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
        return float(mp.log(mp.det(conf)))


class TestMpmathReference:
    def test_reference_at_small_n(self):
        # the reference itself against the tensor oracle
        params = EnsembleParams(n=3, lambda1=0.5, lambda2=-0.5)
        oracle = tensor_oracle.average(params, ((0.3, 2.0),))
        assert math.exp(christoffel_log_average(3, 4, 0.5, -0.5, 0.3)) == pytest.approx(
            oracle, rel=1e-12)

    @pytest.mark.parametrize("n,tol", [(40, 6e-12), (96, 8e-12)])
    def test_engine_at_large_n(self, n, tol):
        # measured worst: 1.25e-12 at n = 40 and 1.6e-12 at n = 96; the
        # Gram matrix and its Cholesky factor were 1.25e-10 and 2.9e-9 off
        worst = 0.0
        for m in (2, 4):
            for lam in (-0.5, 0.5):
                for t in (0.2, 0.5, 0.8):
                    params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
                    ref = christoffel_log_average(n, m, lam, lam, t)
                    val = average_even_power_heine(params, t, m).log_abs
                    worst = max(worst, abs(val - ref))
        assert worst <= tol

    @pytest.mark.parametrize("m, lam, t", [(2, -0.5, 0.8), (4, 0.5, 0.2)])
    def test_engine_at_n_512(self, m, lam, t):
        # the averages are near 1e-600, so logs: 5.1e-11 and 3.2e-11 off,
        # the worst of the twelve cases above at n = 512 (the former Gram-matrix engine: 8.0e-7)
        params = EnsembleParams(n=512, lambda1=lam, lambda2=lam)
        ref = christoffel_log_average(512, m, lam, lam, t)
        assert abs(average_even_power_heine(params, t, m).log_abs - ref) <= 2e-10

    def test_engine_at_an_endpoint_charge(self):
        # t = 1 raises the weight's exponent to 3.5 on one panel; the Gram
        # matrix was 2.0e-6 off here, the recurrence sweep is 3.4e-13 off
        params = EnsembleParams(n=40, lambda1=0.5, lambda2=-0.5)
        ref = christoffel_log_average(40, 4, 0.5, -0.5, 1.0)
        assert abs(average_even_power_heine(params, 1.0, 4).log_abs - ref) <= 2e-12


def christoffel_darboux_log(n, lam1, lam2, t):
    # log <prod_l (t - x_l)^2> = log h_n + log sum_{k<=n} p_k(t)^2 in floats:
    # the monic norm h_n = mu0 prod_{k<=n} b_k^2 and the orthonormal p_k
    # both from the textbook Jacobi recurrence on [0, 1]
    al, be = lam2, lam1
    s = al + be
    log_mu0 = math.lgamma(al + 1.0) + math.lgamma(be + 1.0) - math.lgamma(s + 2.0)
    logs = [log_mu0]
    prev, cur, b_prev = 0.0, math.exp(-0.5 * log_mu0), 0.0
    total = cur * cur
    for k in range(n):
        a = 0.5 + 0.5 * ((be - al) / (s + 2.0) if k == 0
                         else (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2.0)))
        j = k + 1
        b2 = 0.25 * (4.0 * (al + 1.0) * (be + 1.0) / ((s + 2.0) ** 2 * (s + 3.0)) if j == 1
                     else 4.0 * j * (j + al) * (j + be) * (j + s)
                     / ((2 * j + s) ** 2 * (2 * j + s + 1.0) * (2 * j + s - 1.0)))
        prev, cur, b_prev = cur, ((t - a) * cur - b_prev * prev) / math.sqrt(b2), math.sqrt(b2)
        total += cur * cur
        logs.append(math.log(b2))
    return math.fsum(logs + [math.log(total)])


class TestUnitChargeOracle:
    def test_christoffel_darboux_sum_against_mpmath(self):
        for n in (40, 512):
            for lam1, lam2, t in ((0.5, 0.5, 0.5), (0.0, 1.0, 0.77), (-0.5, -0.5, 0.2)):
                ref = christoffel_log_average(n, 2, lam1, lam2, t)
                assert abs(christoffel_darboux_log(n, lam1, lam2, t) - ref) <= 1e-12

    @pytest.mark.parametrize("lam1, lam2", [(0.5, 0.5), (-0.5, -0.5), (0.0, 1.0)])
    def test_ladder_at_large_n(self, lam1, lam2):
        # measured worst 4.0e-11 at t in {0.2, 0.5, 0.77}; the former
        # Gram-matrix engine on scipy's Gauss-Jacobi weights was 1.5e-9 off.
        # Near a wall, where the sweep's polynomials leave the wall's factor
        # about 30 Gauss nodes, the worst is 6.8e-11 (8.4e-8 when pieces
        # were judged to resolve the wall at the full order)
        sizes = (128, 256, 512)
        for t in (0.2, 0.5, 0.77, 1e-4, 1e-3, 1.0 - 1e-4):
            got = fh.hankel_log_ratios(lam1, lam2, fh.SymbolSpec(singularities=((t, 1.0),)), sizes)
            for n, log_avg in zip(sizes, got):
                assert abs(log_avg - christoffel_darboux_log(n, lam1, lam2, t)) <= 2e-10, (n, t)


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
        # across orders 44-80); the Stieltjes ladder reads ...286
        assert val == pytest.approx(0.2458555838089300, rel=1e-9)


def _duality_grid_sum(params, t, m, points):
    # the circular side's m-fold product integrand on the full periodic grid
    n = params.n
    e = (params.lambda1 - params.lambda2 - n) / 2.0
    p = params.lambda1 + params.lambda2 + n

    def f(theta):
        return (np.exp(1j * e * theta) * (2.0 * np.cos(0.5 * theta)) ** p
                * (t * (1.0 + np.exp(1j * theta)) - 1.0) ** n)

    def integrand(*thetas):
        val = 1.0
        for th in thetas:
            val = val * f(th)
        for j in range(m):
            for k in range(j + 1, m):
                val = val * (2.0 - 2.0 * np.cos(thetas[k] - thetas[j]))
        return val

    return quad.periodic_integrate(integrand, m, points) / (2.0 * math.pi) ** m


def duality_values(params, t, m):
    # both sides of the duality, each returned as a log, as values
    return math.exp(duality_lhs(params, t, m)), math.exp(duality_rhs(params, t, m))


class TestDuality:
    @pytest.mark.parametrize("lam", [0.5, -0.5])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_identity(self, lam, t):
        params = EnsembleParams(n=2, lambda1=lam, lambda2=lam)
        lhs, rhs = duality_values(params, t, 2)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)

    def test_large_n_routes_through_heine(self):
        params = EnsembleParams(n=8, lambda1=0.5, lambda2=0.5)
        val = math.exp(duality_lhs(params, 0.4, 2))
        assert val == pytest.approx(
            average_even_power_heine(params, 0.4, 2).value(), rel=1e-12)

    def test_large_n_near_the_edge_of_t(self):
        # periodic grids lost up to 1.5e-5 to cancellation at n = 40 near the
        # edges of t, and were 4e-9 off here
        params = EnsembleParams(n=40, lambda1=-0.5, lambda2=-0.5)
        lhs, rhs = duality_values(params, 0.1, 2)
        assert abs(rhs - lhs) <= 1e-10 * abs(lhs)

    def test_unequal_exponents(self):
        params = EnsembleParams(n=1, lambda1=-0.7, lambda2=0.2)
        lhs, rhs = duality_values(params, 0.4, 2)
        assert abs(rhs - lhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("n, m, l1, l2, t, tol", [
        (8, 2, -0.428, 2.891, 0.0053, 1e-12),
        (5, 4, 0.020, -0.919, 0.9994, 1e-10),
        (7, 2, 0.852, 0.852, 0.0038, 1e-12),
    ])
    def test_charge_near_an_endpoint(self, n, m, l1, l2, t, tol):
        # the Jacobi side's panel from t to the far endpoint is graded toward
        # the near endpoint; ungraded it was off by 1.0e-6, 3.1e-7 and 2.0e-9
        params = EnsembleParams(n=n, lambda1=l1, lambda2=l2)
        lhs, rhs = duality_values(params, t, m)
        assert abs(rhs - lhs) <= tol * abs(lhs)

    def test_odd_power_rejected(self):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        for side in (duality_lhs, duality_rhs):
            with pytest.raises(DomainError):
                side(params, 0.5, 3)

    @pytest.mark.parametrize("points", [64, 128])
    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_toeplitz_form_equals_grid_sum(self, n, lam, points):
        # With the integer exponents lambda1 = lam + 1/2 and lambda2 =
        # lambda1 + n, e = -n and p = 2 (lambda1 + n) is even, so F is a
        # trigonometric polynomial and the midpoint sum of the m-fold
        # integrand is its exact integral.
        l1 = lam + 0.5
        params = EnsembleParams(n=n, lambda1=l1, lambda2=l1 + n)
        log_const = (duality_constant_A(params, 2)
                     - morris_closed(MorrisParams(2, 0.0, 0.0)).log_abs)
        oracle = math.exp(log_const) * _duality_grid_sum(params, 0.3, 2, points)
        assert abs(oracle.imag) <= 1e-14 * abs(oracle.real)
        rhs = math.exp(duality_rhs(params, 0.3, 2))
        assert abs(rhs - oracle.real) <= 1e-12 * abs(oracle.real)

    @pytest.mark.parametrize("n,m,lam,t", [
        (40, 2, -0.5, 0.05), (40, 2, -0.5, 0.07), (40, 2, -0.5, 0.1), (40, 2, -0.5, 0.93),
        (40, 4, -0.5, 0.8), (2, 4, -0.375, 0.125), (1, 6, -0.95, 0.5)])
    def test_circular_side_against_mpmath(self, n, m, lam, t):
        # 50-digit Toeplitz determinant of the binomially expanded coefficients
        # c_k = sum_j C(n,j) t^j (-1)^(n-j) Gamma(p+j+1)
        #       / (Gamma(lambda1+j+k+1) Gamma(lambda2+n-k+1))
        with mp.workdps(50):
            lm, tt = mp.mpf(lam), mp.mpf(t)

            def coeff(k):
                return mp.fsum(mp.binomial(n, j) * tt**j * (-1) ** (n - j)
                               * mp.gamma(2 * lm + n + j + 1)
                               * mp.rgamma(lm + j + k + 1) * mp.rgamma(lm + n - k + 1)
                               for j in range(n + 1))

            det = mp.det(mp.matrix([[coeff(i - j) for j in range(m)] for i in range(m)]))
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        ref = float(det) * math.exp(duality_constant_A(params, m))
        val = math.exp(duality_rhs(params, t, m))
        assert abs(val / ref - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 5), m=st.sampled_from([2, 4]),
           lam=st.floats(-0.5, 1.0), t=st.floats(0.05, 0.95))
    @example(n=2, m=4, lam=-0.375, t=0.125)
    def test_identity_property(self, n, m, lam, t):
        params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
        lhs, rhs = duality_values(params, t, m)
        assert abs(rhs - lhs) <= 1e-6 * abs(lhs)

    def test_underflowed_circular_side_gives_its_log(self):
        # the two sides' logs agree (-1625.81) where their values underflow;
        # the log is a Python float, whose repr is the bare number
        log_rhs = duality_rhs(EnsembleParams(n=200, lambda1=0.5, lambda2=0.5), 0.3, 6)
        assert type(log_rhs) is float
        with pytest.raises(DomainError,
                           match=r"^duality circular side underflows a float: log -1625\.8"):
            LogMagnitude(log_rhs).value("duality circular side")

    def test_determinant_that_is_not_positive_is_an_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (np.float64(-1.0), np.float64(0.0)))
        with pytest.raises(DomainError, match="^duality circular side's determinant is not "
                                              "positive: sign -1.0"):
            duality_rhs(EnsembleParams(n=2, lambda1=0.5, lambda2=0.5), 0.3, 2)


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

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_diagonal_matches_tensor_oracle(self, boundary):
        # at X = Y the two half charges merge into one unit charge, and the
        # pair factor |X - Y|^(1/2) cancels the oracle's 1/sqrt|X - Y|
        for N, X in ((1, 0.2), (2, 0.3), (3, 0.475), (3, 0.9)):
            query = DensityMatrixQuery(N=N, X=X, Y=X, boundary=boundary)
            lam = query.weight_exponent()
            ratio = tensor_oracle.partition_ratio(
                EnsembleParams(n=N, lambda1=lam, lambda2=lam), ((X, 1.0),), order=64)
            oracle = math.pi * query.rho * math.sqrt(X * (1.0 - X)) * ratio
            assert abs(density_matrix_exact(query) / oracle - 1.0) <= 1e-12

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_diagonal_is_the_limit_of_nearby_points(self, boundary):
        on = density_matrix_exact(DensityMatrixQuery(N=6, X=0.3, Y=0.3, boundary=boundary))
        off = density_matrix_exact(
            DensityMatrixQuery(N=6, X=0.3, Y=0.3 + 1e-9, boundary=boundary))
        assert abs(on - off) <= 1e-8 * on
        (value,), (std_error,) = mc_density_matrix_table(
            [DensityMatrixQuery(N=6, X=0.3, Y=0.3, boundary=boundary)], 4000, 1)
        assert abs(value - on) <= 3.5 * std_error

    @pytest.mark.parametrize("N", [1, 2, 14, 50, 200, 400])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_is_n_over_n_plus_one_of_lenards_determinant(self, boundary, N):
        # the package's convention: N/(N+1) times the physical density
        # matrix of N + 1 bosons at physical points x, y, X = sin^2(pi x / 2);
        # measured worst 5.4e-12 (Dirichlet) and 7.1e-12 (Neumann) at N = 200.
        # The pairs within six spacings of a wall: 2.4e-11 at N = 400, where
        # they were 1.0e-7 off while a wall was judged at the full order
        walls = [(a / N, b / N) for a, b in ((0.5, 1.5), (1.0, 3.0), (2.0, 6.0)) if b < N]
        for x, y in [(0.1, 0.35), (0.3, 0.45), (0.2, 0.8), (0.05, 0.6)] + walls:
            X, Y = math.sin(0.5 * math.pi * x) ** 2, math.sin(0.5 * math.pi * y) ** 2
            query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
            oracle = lenard_oracle.density_matrix(boundary, N, x, y)
            assert abs(density_matrix_exact(query) * (N + 1) / N / oracle - 1.0) <= 1e-10

    @pytest.mark.parametrize("N, bound", [(800, 1e-10), (1600, 2e-9)])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_large_n_against_lenards_determinant(self, boundary, N, bound):
        # the engine's known large-N error, not a tolerance it meets with
        # room to spare: measured 2.4e-11 (Dirichlet) and 4.8e-12 (Neumann)
        # at N = 800, 5.3e-10 and 5.2e-10 at N = 1600.  The gap is the
        # engine's: at N = 1600 it breaks the mirror symmetry
        # rho(x, y) = rho(1 - y, 1 - x) by 1.9e-10 to 3.2e-10, which Lenard
        # keeps within 2e-14
        x, y = 0.3, 0.45
        X, Y = math.sin(0.5 * math.pi * x) ** 2, math.sin(0.5 * math.pi * y) ** 2
        query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
        oracle = lenard_oracle.density_matrix(boundary, N, x, y)
        assert abs(density_matrix_exact(query) * (N + 1) / N / oracle - 1.0) <= bound

    @pytest.mark.parametrize("N", [50, 200, 400, 800])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_diagonal_is_the_free_fermion_density(self, boundary, N):
        # within a few spacings of a wall and in the bulk; measured worst
        # 5.9e-11 (Dirichlet) and 5.7e-11 (Neumann) at N = 800, where the
        # engine was 8.0e-6 and 7.4e-6 off while it judged a wall resolved
        # at the panels' full order
        for x in (0.5 / N, 2.0 / N, 6.0 / N, 0.003, 0.1, 0.5):
            X = math.sin(0.5 * math.pi * x) ** 2
            query = DensityMatrixQuery(N=N, X=X, Y=X, boundary=boundary)
            oracle = lenard_oracle.density(boundary, N, x)
            assert abs(density_matrix_exact(query) * (N + 1) / N / oracle - 1.0) <= 1e-9, x

    def test_large_n_approaches_asymptote(self):
        # beyond the oracle's reach: at N = 200 on the Table 1 line the exact
        # value sits within 0.3% of the leading asymptote (measured 0.12%)
        for X in (0.125, 0.375):
            query = DensityMatrixQuery(N=200, X=X, Y=1.0 - X)
            ratio = density_matrix_exact(query) / density_matrix_asymptote(query)
            assert abs(ratio - 1.0) <= 3e-3


def two_branch_prefactor(query):
    # the prefactor as written with one branch per box, before the boxes
    # became rows of BOX_EXPONENTS
    X, Y = query.X, query.Y
    if query.boundary == BOUNDARY_DIRICHLET:
        return 8.0 * query.rho / (query.N + 1) * math.sqrt((X * (1.0 - X)) * (Y * (1.0 - Y)))
    return 0.5 * query.rho / (query.N + 1)


class TestBoxRows:
    @pytest.mark.parametrize("boundary", tuple(BOX_EXPONENTS))
    def test_prefactor_has_the_two_branch_bits(self, boundary):
        # 10,000 random points, half of them log-uniform down to 1e-300,
        # and every pair of four extreme X, at three sizes
        rng = np.random.default_rng(33)
        count = 10_000
        sizes = rng.integers(1, 10**6, count).tolist()
        uniform = rng.uniform(0.0, 1.0, (count // 2, 2))
        tiny = 10.0 ** -rng.uniform(0.0, 300.0, (count // 2, 2))
        points = [(N, max(X, 5e-324), max(Y, 5e-324))
                  for N, (X, Y) in zip(sizes, np.concatenate((uniform, tiny)).tolist())]
        extremes = (5e-324, 1e-310, 0.5, 1.0 - 2.0**-53)
        points += [(N, X, Y) for N in (1, 14, 10**6) for X in extremes for Y in extremes]
        for N, X, Y in points:
            query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
            assert averages._dm_prefactor(query) == two_branch_prefactor(query), (N, X, Y)


class TestClassicalGroups:
    """The paper's first step: the Dirichlet density matrix as a Haar
    average over USp(2N) and the Neumann one over SO(2N), of
    |det(e^{i phi_1} - U) det(e^{i phi_2} - U)| with phi = 2 arcsin sqrt(X).
    Each eigenvalue pair e^{+-i theta} gives 2 |cos theta - cos phi| =
    4 |X - x|, x = sin^2(theta/2), so the mean is the average
    < prod_l 16 |X - x_l| |Y - x_l| > that `density_matrix_exact` takes."""

    @pytest.mark.parametrize("N", [6, 10])
    @pytest.mark.parametrize("boundary, haar", [(BOUNDARY_DIRICHLET, haar_usp),
                                                (BOUNDARY_NEUMANN, haar_so_even)])
    def test_haar_mean_matches_the_exact_average(self, boundary, haar, N):
        # seed and bound fixed before the first run, never re-seeded;
        # measured relative standard errors 3.0-7.2% and worst |z| 2.32.
        # Swapping the two rows' groups gives |z| of 4.5 to 33
        M = 4000
        u = haar(N, M, np.random.default_rng(19))
        eye = np.eye(2 * N)
        for X, Y in ((0.05, 0.25), (0.1, 0.3), (0.2, 0.2)):
            dets = [np.linalg.det(np.exp(2j * math.asin(math.sqrt(v))) * eye - u)
                    for v in (X, Y)]
            vals = np.abs(dets[0] * dets[1])
            query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
            exact = density_matrix_exact(query) / averages._dm_prefactor(query)
            se = vals.std(ddof=1) / math.sqrt(M)
            assert se <= 0.15 * exact, (X, Y, se / exact)
            assert abs(vals.mean() - exact) <= 4.5 * se, (X, Y, (vals.mean() - exact) / se)


class TestMonteCarloDensityMatrix:
    def test_matches_bruteforce_small_system(self):
        query = DensityMatrixQuery(N=2, X=0.3, Y=0.7)
        exact_val = density_matrix_exact(query)
        (value,), (std_error,) = mc_density_matrix_table([query], 4000, 11)
        assert abs(value - exact_val) <= 3.5 * std_error

    def test_neumann_matches_bruteforce(self):
        query = DensityMatrixQuery(N=2, X=0.25, Y=0.75, boundary="neumann")
        exact_val = density_matrix_exact(query)
        (value,), (std_error,) = mc_density_matrix_table([query], 600, 13)
        assert abs(value - exact_val) <= 3.5 * std_error

    def test_m_below_floor_is_a_domain_error(self):
        query = DensityMatrixQuery(N=5, X=0.2, Y=0.8)
        with pytest.raises(DomainError, match="M must be >= 100"):
            mc_density_matrix_table([query], 99, 21)

    def test_empty_query_list_rejected(self):
        with pytest.raises(DomainError, match="at least one query"):
            mc_density_matrix_table([], 200, 1)

    def test_no_overflow_long_products(self):
        query = DensityMatrixQuery(N=100, X=0.49, Y=0.51)
        (value,), (std_error,) = mc_density_matrix_table([query], 100, 3)
        assert math.isfinite(value) and math.isfinite(std_error)
        assert value > 0.0

    @staticmethod
    def per_sample_loop(queries, M, seed):
        # the (value, std_error) of each query from one sample, one scalar
        # pivot loop and one exp at a time
        lam = queries[0].weight_exponent()
        params = EnsembleParams(n=queries[0].N, lambda1=lam, lambda2=lam)
        pairs = [(4.0 * diag, 16.0 * off_sq)
                 for diag, off_sq in reference_pairs(params, seed, M)]
        estimates = []
        for query in queries:
            vals = np.array([
                averages._dm_prefactor(query)
                * np.exp(reference_log_det(4.0 * query.X, *pair)
                         + reference_log_det(4.0 * query.Y, *pair))
                for pair in pairs])
            estimates.append((vals.mean(), vals.std(ddof=1) / math.sqrt(M)))
        return estimates

    def test_block_boundaries_agree_bitwise(self):
        # the last block full, one row short, one row long and five rows long;
        # M >= 100 is the estimator's floor
        B = block_size(6)
        queries = [DensityMatrixQuery(N=6, X=0.2, Y=0.8), DensityMatrixQuery(N=6, X=0.1, Y=0.45)]
        for M in (4 * B - 1, 4 * B, 4 * B + 1, 3 * B + 5):
            values, std_errors = mc_density_matrix_table(queries, M, 5)
            assert list(zip(values, std_errors)) == self.per_sample_loop(queries, M, 5)

    @pytest.mark.parametrize("boundary", ("dirichlet", "neumann"))
    def test_readme_seed_matches_per_sample_loop(self, boundary):
        # the README's Table 1 run (N = 14, M = 5000, seed 42) and its dm-mc
        # point, against the per-sample loop
        N, M, seed = 14, 5000, 42
        queries = [DensityMatrixQuery(N=N, X=X, Y=1.0 - X, boundary=boundary)
                   for X in TABLE1_XS]
        point = DensityMatrixQuery(N=N, X=0.2, Y=0.8, boundary=boundary)
        values, std_errors = mc_density_matrix_table(queries, M, seed)
        value, std_error = mc_density_matrix_table([point], M, seed)
        want = self.per_sample_loop(queries + [point], M, seed)
        assert list(zip(values + value, std_errors + std_error)) == want

    @pytest.mark.parametrize("N,boundary,M", ((14, "dirichlet", 300), (14, "neumann", 300),
                                              (50, "dirichlet", 100), (200, "dirichlet", 30)))
    def test_recurrence_matches_eigenvalues(self, N, boundary, M):
        # each sample's log prod_l 16 |X - x_l| |Y - x_l| by the pivot
        # recurrence against the sum over the reference's eigenvalues
        # (measured worst 5.8e-11)
        lam = 0.5 if boundary == "dirichlet" else -0.5
        params = EnsembleParams(n=N, lambda1=lam, lambda2=lam)
        diag, off_sq = sample_jacobi_matrices(params, 9, M)
        xs = 4.0 * np.array(TABLE1_XS + (0.5, 0.975))
        got = tridiagonal_log_dets(xs, 4.0 * diag, 16.0 * off_sq)
        pts4 = 4.0 * reference_samples(params, 9, M)
        want = np.log(np.abs(xs[:, None, None] - pts4[None])).sum(axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_takes_no_eigenvalues(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the Monte Carlo called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        query = DensityMatrixQuery(N=20, X=0.2, Y=0.8)
        (value,), _ = mc_density_matrix_table([query], 100, 4)
        assert math.isfinite(value) and value > 0.0

    def test_returns_value_and_error_columns(self):
        # two lists of Python floats in query order, the CLI's columns; the
        # sample count and seed are the caller's arguments, not repeated here
        queries = [DensityMatrixQuery(N=3, X=0.3, Y=0.6), DensityMatrixQuery(N=3, X=0.1, Y=0.2)]
        values, std_errors = mc_density_matrix_table(queries, 150, 99)
        assert type(values) is list and type(std_errors) is list
        assert [type(v) for v in values + std_errors] == [float] * 4
        assert list(zip(values, std_errors)) == self.per_sample_loop(queries, 150, 99)
        assert min(std_errors) > 0.0
