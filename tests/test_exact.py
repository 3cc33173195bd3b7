import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selberg_gas import exact
from selberg_gas import quadrature as quad
from selberg_gas.exact import (
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
)
from selberg_gas.specfun import DomainError, log_gamma

from tensor_oracle import vandermonde_sq

EPS = 2.0**-52
# nonzero magnitudes whose products and quotients stay normal floats
FINITE = st.floats(min_value=1e-150, max_value=1e150).flatmap(
    lambda x: st.sampled_from((x, -x)))


def log_rounding(*xs):
    # relative error of exp(log|x| +- ...) once the logs are rounded
    return (2.0 + sum(abs(math.log(abs(x))) for x in xs)) * EPS


def selberg_quadrature(n, a, b, order=60):
    axis = quad.power_panel(0.0, 1.0, a, b, order)
    return quad.tensor_integrate(vandermonde_sq, [axis] * n)


def morris_quadrature(n, a, b, points):
    def f(*thetas):
        val = 1.0
        for th in thetas:
            z = np.exp(1j * th)
            val = val * np.exp(1j * 0.5 * (a - b) * th) * np.abs(1.0 + z) ** (a + b)
        for j in range(n):
            for k in range(j + 1, n):
                val = val * (2.0 - 2.0 * np.cos(thetas[k] - thetas[j]))
        return val

    return quad.periodic_integrate(f, n, points).real / (2.0 * math.pi) ** n


class TestLogMagnitude:
    def test_round_trip(self):
        for x in (3.25, -0.004, 1e-280):
            lm = LogMagnitude.from_value(x)
            assert lm.value() == pytest.approx(x, rel=1e-15)
        assert LogMagnitude.from_value(0.0).sign == 0
        assert LogMagnitude.from_value(0.0).value() == 0.0

    def test_arithmetic(self):
        a = LogMagnitude.from_value(-2.0)
        b = LogMagnitude.from_value(8.0)
        assert (a * b).value() == pytest.approx(-16.0)
        assert (a / b).value() == pytest.approx(-0.25)

    @given(x=FINITE | st.just(0.0))
    def test_round_trip_property(self, x):
        lm = LogMagnitude.from_value(x)
        assert lm.sign == (x > 0) - (x < 0)
        if x == 0.0:
            assert lm.value() == 0.0
        else:
            assert abs(lm.value() - x) <= log_rounding(x) * abs(x)

    @given(a=FINITE, b=FINITE)
    def test_arithmetic_property(self, a, b):
        la, lb = LogMagnitude.from_value(a), LogMagnitude.from_value(b)
        assert abs((la * lb).value() - a * b) <= log_rounding(a, b) * abs(a * b)
        assert abs((la / lb).value() - a / b) <= log_rounding(a, b) * abs(a / b)
        zero = LogMagnitude.from_value(0.0)
        assert (la * zero).value() == 0.0 and (zero / lb).value() == 0.0


class TestParams:
    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            EnsembleParams(n=2, lambda1=-1.0, lambda2=0.0)

    def test_density_matrix_query(self):
        q = DensityMatrixQuery(N=14, X=0.2, Y=0.8, L=2.0)
        assert q.rho == 7.0
        assert q.weight_exponent() == 0.5
        assert DensityMatrixQuery(N=2, X=0.1, Y=0.9,
                                  boundary="neumann").weight_exponent() == -0.5
        with pytest.raises(DomainError):
            DensityMatrixQuery(N=2, X=0.0, Y=0.5)

    def test_morris_params(self):
        with pytest.raises(DomainError):
            MorrisParams(n=2, a=-0.6, b=-0.5)


class TestSelberg:
    def test_trivial_cases(self):
        assert exact.selberg_closed(1, 0.0, 0.0).log_abs == 0.0
        assert exact.selberg_closed(2, 0.0, 0.0).log_abs == pytest.approx(
            math.log(1.0 / 6.0), rel=1e-14)

    def test_exact_rationals(self):
        # closed-form values with elementary evaluations
        assert math.exp(exact.selberg_closed(2, 0.5, 0.5).log_abs) == pytest.approx(
            math.pi**2 / 512.0, rel=1e-13)
        assert math.exp(exact.selberg_closed(2, -0.5, -0.5).log_abs) == pytest.approx(
            math.pi**2 / 4.0, rel=1e-13)
        assert math.exp(exact.selberg_closed(2, 1.0, 0.5).log_abs) == pytest.approx(
            256.0 / 33075.0, rel=1e-13)

    def test_quadrature_oracle(self):
        for n in (1, 2):
            for (a, b) in ((0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (1.0, 0.5)):
                closed = math.exp(exact.selberg_closed(n, a, b).log_abs)
                assert closed == pytest.approx(selberg_quadrature(n, a, b), rel=1e-10)

    def test_barnes_continuation_matches_integers(self):
        for n in (1, 2, 5, 9):
            for (a, b) in ((0.0, 0.0), (0.5, 0.5), (-0.5, 0.25)):
                gamma_form = exact.selberg_closed(n, a, b).log_abs
                barnes_form = exact.selberg_closed_barnes(float(n), a, b).log_abs
                assert gamma_form == pytest.approx(barnes_form, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact.selberg_closed(2, -1.5, 0.0)


class TestMorris:
    def test_values(self):
        assert exact.morris_closed(MorrisParams(1, 0.0, 0.0)).log_abs == pytest.approx(
            0.0, abs=1e-15)
        assert exact.morris_closed(MorrisParams(1, 2.0, 1.0)).log_abs == pytest.approx(
            math.log(3.0), rel=1e-14)

    def test_quadrature_oracle(self):
        cases = ((1, 0.0, 0.0, 256), (1, 2.0, 1.0, 8192), (2, 1.0, 1.0, 256))
        for (n, a, b, pts) in cases:
            closed = math.exp(exact.morris_closed(MorrisParams(n, a, b)).log_abs)
            assert closed == pytest.approx(morris_quadrature(n, a, b, pts), rel=1e-10)


class TestMehta:
    def test_small_cases(self):
        two_pi = 2.0 * math.pi
        assert exact.mehta_volume(1).log_abs == pytest.approx(0.5 * math.log(two_pi))
        assert exact.mehta_volume(2).log_abs == pytest.approx(math.log(4.0 * math.pi))
        assert exact.mehta_volume(3).log_abs == pytest.approx(
            1.5 * math.log(two_pi) + math.log(12.0))


class TestDualityConstant:
    def test_explicit_small_case(self):
        # n=1, m=2, flat weight: S_1(0,2)/S_1(0,0) * M_2(0,0)/M_2(1,0) = 1/3
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        assert math.exp(exact.duality_constant_A(params, 2).log_abs) == pytest.approx(
            1.0 / 3.0, rel=1e-13)

    def test_t_equals_one_identity(self):
        # A * M(eta2, eta1)/M(0,0) telescopes to the Selberg ratio at t = 1
        for (l1, l2) in ((0.5, 0.5), (-0.5, -0.5), (0.25, 0.75)):
            params = EnsembleParams(n=2, lambda1=l1, lambda2=l2)
            eta1, eta2 = exact.eta_exponents(params)
            lhs = (exact.duality_constant_A(params, 2).log_abs
                   + exact.morris_closed(MorrisParams(2, eta2, eta1)).log_abs
                   - exact.morris_closed(MorrisParams(2, 0.0, 0.0)).log_abs)
            rhs = (exact.selberg_closed(2, l1, l2 + 2.0).log_abs
                   - exact.selberg_closed(2, l1, l2).log_abs)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_odd_power(self):
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        with pytest.raises(DomainError):
            exact.duality_constant_A(params, 3)

    @pytest.mark.parametrize("lam", [0.5, -0.5])
    def test_both_sides_quadrature_at_t_one(self, lam):
        # A = [Selberg ratio by tensor quadrature] / [Morris ratio by
        # periodic quadrature], both sides fully independent of the
        # closed forms; the periodic rule is Richardson-extrapolated over
        # a doubling ladder to clear the wrap-point kink
        def morris_extrapolated(n, a, b):
            ladder = [morris_quadrature(n, a, b, 512 << i) for i in range(3)]
            r1 = (4.0 * ladder[1] - ladder[0]) / 3.0
            r2 = (4.0 * ladder[2] - ladder[1]) / 3.0
            return (16.0 * r2 - r1) / 15.0

        params = EnsembleParams(n=2, lambda1=lam, lambda2=lam)
        eta1, eta2 = exact.eta_exponents(params)
        lhs_t1 = selberg_quadrature(2, lam, lam + 2.0) / selberg_quadrature(2, lam, lam)
        morris_ratio = morris_extrapolated(2, eta2, eta1) / morris_extrapolated(2, 0.0, 0.0)
        oracle = lhs_t1 / morris_ratio
        closed = math.exp(exact.duality_constant_A(params, 2).log_abs)
        assert closed == pytest.approx(oracle, rel=1e-8)


class TestAsymptoticPartitionRatio:
    def test_arcsine_values(self):
        assert exact.asymptotic_partition_ratio(5, 1.0, 0.5) == pytest.approx(
            2.0 / math.pi, rel=1e-13)
        assert exact.asymptotic_partition_ratio(3, 1.0, 0.25) == pytest.approx(
            (1.0 / math.pi) * (3.0 / 16.0) ** -0.5, rel=1e-13)

    def test_half_charge_formula(self):
        from selberg_gas.specfun import log_barnes_g
        manual = ((1.0 / math.sqrt(math.pi))
                  * math.exp(2.0 * log_barnes_g(1.5) - log_barnes_g(2.0))
                  * 16.0 ** -0.25 * 0.25 ** -0.125)
        assert exact.asymptotic_partition_ratio(8, 0.5, 0.5) == pytest.approx(
            manual, rel=1e-13)

    def test_weight_independence(self):
        # the asymptote takes no weight exponents; the exact ratios of three
        # weights all reach it at the 1/n rate (|deviation| * n <= 0.84 here)
        from selberg_gas import fisherhartwig as fh
        n, t = 96, 0.3
        target = exact.asymptotic_partition_ratio(n, 1.0, t)
        symbol = fh.SymbolSpec(singularities=((t, 1.0),))
        for (l1, l2) in ((0.5, 0.5), (-0.5, -0.5), (0.1, 0.9)):
            params = EnsembleParams(n=n, lambda1=l1, lambda2=l2)
            ratio = math.exp(fh.hankel_balanced_log_ratio(params, symbol, n))
            assert abs(ratio / target - 1.0) * n <= 1.5

    def test_arcsine_identity_property(self):
        for t in np.linspace(0.02, 0.98, 25):
            val = exact.asymptotic_partition_ratio(4, 1.0, float(t))
            assert val * math.pi * math.sqrt(t * (1.0 - t)) == pytest.approx(
                1.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact.asymptotic_partition_ratio(4, 1.0, 1.0)


class TestDensityMatrixAsymptote:
    def test_frozen_value(self):
        q = DensityMatrixQuery(N=14, X=0.025, Y=0.975)
        assert exact.density_matrix_asymptote(q) == pytest.approx(
            1.4018320102620347, rel=1e-12)

    def test_symmetry_and_boundary_independence(self):
        a = exact.density_matrix_asymptote(DensityMatrixQuery(N=9, X=0.3, Y=0.6))
        b = exact.density_matrix_asymptote(DensityMatrixQuery(N=9, X=0.6, Y=0.3))
        assert a == b
        c = exact.density_matrix_asymptote(
            DensityMatrixQuery(N=9, X=0.3, Y=0.6, boundary="neumann"))
        assert a == c

    def test_coincidence_rejected(self):
        with pytest.raises(DomainError):
            exact.density_matrix_asymptote(DensityMatrixQuery(N=5, X=0.4, Y=0.4))


class TestOccupations:
    def test_ground_state(self):
        assert exact.occupation_number(0, 1) == pytest.approx(1.3069, abs=5e-4 * 1.3069)

    def test_scaling_in_n(self):
        for j in (0, 1, 4):
            base = exact.occupation_number(j, 1)
            for N in (4, 9, 100):
                assert exact.occupation_number(j, N) / math.sqrt(N) == pytest.approx(
                    base, rel=1e-14)

    def test_ratio_identity(self):
        for j in range(8):
            ratio = exact.occupation_number(j, 7) / exact.occupation_number(0, 7)
            expected = math.exp(log_gamma(j + 0.5)
                                - 0.5 * math.log(math.pi) - log_gamma(j + 1.0))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_partial_sums_grow(self):
        # sum of Gamma(j+1/2)/j! diverges; partial sums strictly increase
        partial = np.cumsum([math.exp(log_gamma(j + 0.5) - log_gamma(j + 1.0))
                             for j in range(40)])
        assert np.all(np.diff(partial) > 0.0)


class TestBarnesRatioAsymptote:
    def test_degenerate(self):
        assert exact.barnes_ratio_asymptote(17, 0.4, 0.4) == 0.0

    def test_against_exact_gamma(self):
        # log G(n+2)/G(n+1) = log Gamma(n+1)
        n = 200
        asym = exact.barnes_ratio_asymptote(n, 1.0, 0.0)
        assert abs(asym - log_gamma(n + 1.0)) < 1e-2

    def test_improves_with_n(self):
        from selberg_gas.specfun import log_barnes_g

        def defect(n):
            exact_val = log_barnes_g(n + 1.5) - log_barnes_g(n + 1.0)
            return abs(exact.barnes_ratio_asymptote(n, 0.5, 0.0) - exact_val)

        assert defect(500) < defect(100)
