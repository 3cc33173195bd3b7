import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selberg_gas import acceptance, exact
from selberg_gas import fisherhartwig as fh
from selberg_gas import quadrature as quad
from selberg_gas.exact import (
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
)
from selberg_gas.specfun import DomainError, log_barnes_g, log_gamma

from tensor_oracle import selberg_closed_barnes, vandermonde_sq

EPS = 2.0**-52
POSITIVE = st.floats(min_value=1e-150, max_value=1e150)


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
        for x in (3.25, 0.004, 1e-280):
            assert LogMagnitude(math.log(x)).value() == pytest.approx(x, rel=1e-15)

    @given(x=POSITIVE)
    def test_round_trip_property(self, x):
        assert abs(LogMagnitude(math.log(x)).value() - x) <= log_rounding(x) * x

    def test_out_of_range_names_the_quantity(self):
        with pytest.raises(DomainError, match=r"^S overflows a float: log 710\.0$"):
            LogMagnitude(710.0).value("S")
        # a subnormal result is an underflow too
        for log in (-708.5, -800.0):
            with pytest.raises(DomainError, match=f"^value underflows a float: log {log}$"):
                LogMagnitude(log).value()
        assert LogMagnitude(-708.0).value() == math.exp(-708.0)


class TestParams:
    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            EnsembleParams(n=2, lambda1=-1.0, lambda2=0.0)

    def test_density_matrix_query(self):
        q = DensityMatrixQuery(N=14, X=0.2, Y=0.8)
        assert q.rho == 14.0
        assert q.weight_exponent() == 0.5
        assert DensityMatrixQuery(N=2, X=0.1, Y=0.9,
                                  boundary="neumann").weight_exponent() == -0.5
        with pytest.raises(DomainError):
            DensityMatrixQuery(N=2, X=0.0, Y=0.5)

    def test_morris_params(self):
        with pytest.raises(DomainError):
            MorrisParams(n=2, a=-0.6, b=-0.5)

    def test_sizes_must_be_integers(self):
        # a fractional size was kept by the prefactor and truncated by the
        # ladder: N = 14.5 gave a density matrix of 24.46, N = 14 gives 6.10
        for size in (14.5, 2.5, 3.0, np.float64(3.0)):
            with pytest.raises(DomainError, match="^particle count must be an integer"):
                EnsembleParams(n=size, lambda1=0.5, lambda2=0.5)
            with pytest.raises(DomainError, match="^Morris size must be an integer"):
                MorrisParams(size, 0.0, 0.0)
            with pytest.raises(DomainError, match="^N must be an integer"):
                DensityMatrixQuery(N=size, X=0.3, Y=0.45)
        for size in (0, -2):
            with pytest.raises(DomainError, match=f"^particle count must be >= 1, got {size}$"):
                EnsembleParams(n=size, lambda1=0.5, lambda2=0.5)
            with pytest.raises(DomainError, match=f"^Morris size must be >= 1, got {size}$"):
                MorrisParams(size, 0.0, 0.0)
            with pytest.raises(DomainError, match=f"^N must be >= 1, got {size}$"):
                DensityMatrixQuery(N=size, X=0.3, Y=0.45)
        # numpy integers are sizes too
        for size in (np.int64(3), np.arange(1, 4)[-1], np.uint8(3)):
            assert EnsembleParams(n=size, lambda1=0.5, lambda2=0.5).n == 3
            assert MorrisParams(size, 0.0, 0.0).n == 3
            assert DensityMatrixQuery(N=size, X=0.3, Y=0.45).rho == 3.0


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
                barnes_form = selberg_closed_barnes(float(n), a, b)
                assert gamma_form == pytest.approx(barnes_form, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact.selberg_closed(2, -1.5, 0.0)

    @staticmethod
    def mpmath_log_ratio(n, k, a, b):
        # 50-digit log S_n - log S_{n+k} through Barnes G: prod_{j<n}
        # Gamma(a+1+j) = G(n+a+1)/G(a+1), and the same for b, 2 and a+b+1+n
        with mp.workdps(50):
            x, y = mp.mpf(a), mp.mpf(b)

            def log_selberg(m):
                lg = lambda z: mp.log(mp.barnesg(z))  # noqa: E731
                return (lg(m + x + 1) - lg(x + 1) + lg(m + y + 1) - lg(y + 1) + lg(m + 2)
                        + lg(m + x + y + 1) - lg(2 * m + x + y + 1))

            return float(log_selberg(n) - log_selberg(n + mp.mpf(k)))

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (-0.5, -0.5), (0.0, 1.0), (1.0, -0.5)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_log_ratio_against_mpmath(self, k, a, b):
        # the difference of two selberg_closed totals of about 1.4e6 was
        # off by up to 5.0e-9 at n = 1024; the O(k) sum reaches about 3e-12
        for n in (64, 512, 1024):
            got = exact.selberg_log_ratio(n, k, a, b)
            assert abs(got - self.mpmath_log_ratio(n, k, a, b)) <= 2e-11, n

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (-0.5, -0.5), (0.0, 1.0), (1.0, -0.5)])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9, 1.7])
    def test_real_shift_against_mpmath(self, s, a, b):
        # selberg_closed(n) - selberg_closed_barnes(n + s) was off by 1.9e-9
        # at n = 512 and 8.3e-9 at n = 1024; the Barnes-G ratios reach
        # 5.9e-12 and 1.2e-11
        for n in (8, 64, 512, 1024):
            got = exact.selberg_log_ratio(n, s, a, b)
            assert abs(got - self.mpmath_log_ratio(n, s, a, b)) <= 5e-11, n

    def test_log_ratio_small_sizes_and_signs(self):
        for n, k in ((1, 1), (2, 3), (5, 0), (4, -3)):
            direct = (exact.selberg_closed(n, 0.5, -0.5).log_abs
                      - exact.selberg_closed(n + k, 0.5, -0.5).log_abs)
            assert exact.selberg_log_ratio(n, k, 0.5, -0.5) == pytest.approx(direct, abs=1e-13)
        with pytest.raises(DomainError):
            exact.selberg_log_ratio(2, -2, 0.5, 0.5)
        with pytest.raises(DomainError):
            exact.selberg_log_ratio(2, 1, -1.5, 0.5)


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

    @staticmethod
    def certified_grids(n, a, b):
        # the acceptance oracle's value and the grids it evaluated
        grids = []
        periodic = quad.periodic_integrate

        def counting(f, m, points):
            grids.append(points)
            return periodic(f, m, points)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quad, "periodic_integrate", counting)
            return acceptance._morris_quadrature(n, a, b), grids

    @pytest.mark.parametrize("n, a, b, points", [(1, 0.0, 0.0, 512), (1, 2.0, 1.0, 8192),
                                                 (2, 1.0, 1.0, 512)])
    def test_certified_grid_matches_fixed_grid(self, n, a, b, points):
        # criterion 3's cases: a Laurent polynomial of degree <= 3 is exact
        # from 4 points on, so 16 and 32 agree and a fine fixed grid's bits return
        val, grids = self.certified_grids(n, a, b)
        assert grids == [16, 32]
        assert val == morris_quadrature(n, a, b, points)

    def test_kinked_integrand_runs_to_the_cap(self):
        val, grids = self.certified_grids(1, 0.5, 0.0)
        assert grids == [16 << i for i in range(6)]
        assert val == morris_quadrature(1, 0.5, 0.0, acceptance._MORRIS_MAX_POINTS)

    @pytest.mark.parametrize("a", [0.3, 1.0, 1.7])
    def test_large_n_against_mpmath(self, a):
        # a direct sum of 4N gamma logs of size N log N was off by up to
        # 4.3e-10 at N = 1024; the ratio form reaches about 1e-12
        with mp.workdps(40):
            x = mp.mpf(a)
            ref = mp.fsum(mp.loggamma(2 * x + 1 + j) + mp.loggamma(2 + j)
                          - 2 * mp.loggamma(x + 1 + j) for j in range(1024))
        assert abs(exact.morris_closed(MorrisParams(1024, a, a)).log_abs - float(ref)) <= 1e-11


def mpmath_gamma_sum(n, a, b, terms):
    # sum_{j<n} of signed loggamma values at a working precision wide
    # enough for gamma logs of size a log a to keep 40 digits after
    # cancelling; `terms(x, y, j)` lists (sign, argument) pairs
    with mp.workdps(40 + int(math.log10(max(abs(a), abs(b), 1.0)))):
        x, y = mp.mpf(a), mp.mpf(b)
        return float(mp.fsum(sign * mp.loggamma(arg)
                             for j in range(n) for sign, arg in terms(x, y, j)))


@pytest.mark.parametrize("a", [1e6, 1e10, 1e20, 1e300])
@pytest.mark.parametrize("n, b", [(2, 0.0), (5, 0.5), (2, 3.0), (3, -0.5)])
class TestLargeExponent:
    """One exponent far above the other: differences of two lgamma values of
    size a log a lost their digits (log S_5(1e6, 1/2) was 7.6e-9 off, and
    S_2(1e20, 0) came out as 1), so the closed forms take log-gamma ratios."""

    def test_selberg_against_mpmath(self, n, a, b):
        ref = mpmath_gamma_sum(n, a, b, lambda x, y, j: (
            (1, x + 1 + j), (1, y + 1 + j), (1, 2 + j), (-1, x + y + 1 + n + j)))
        for lam1, lam2 in ((a, b), (b, a)):
            got = exact.selberg_closed(n, lam1, lam2).log_abs
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (lam1, lam2)

    def test_morris_against_mpmath(self, n, a, b):
        ref = mpmath_gamma_sum(n, a, b, lambda x, y, j: (
            (1, x + y + 1 + j), (1, 2 + j), (-1, x + 1 + j), (-1, y + 1 + j)))
        for lam1, lam2 in ((a, b), (b, a)):
            got = exact.morris_closed(MorrisParams(n, lam1, lam2)).log_abs
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (lam1, lam2)


def test_morris_with_two_large_exponents_is_finite():
    # the step ratio (a + b + i - ab) / ((a + i)(b + i)) rounded to -1, whose
    # log1p is -inf, and at 1e300 a * b overflowed to NaN
    for a in (1e10, 1e154, 1e300):
        ref = mpmath_gamma_sum(2, a, a, lambda x, y, j: (
            (1, x + y + 1 + j), (1, 2 + j), (-2, x + 1 + j)))
        got = exact.morris_closed(MorrisParams(2, a, a)).log_abs
        assert abs(got - ref) <= 1e-13 * abs(ref), a


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
            # the circular-side Morris exponents dual to the Jacobi weight
            eta1, eta2 = params.lambda2, params.lambda1 + params.n
            lhs = (exact.duality_constant_A(params, 2).log_abs
                   + exact.morris_closed(MorrisParams(2, eta2, eta1)).log_abs
                   - exact.morris_closed(MorrisParams(2, 0.0, 0.0)).log_abs)
            rhs = (exact.selberg_closed(2, l1, l2 + 2.0).log_abs
                   - exact.selberg_closed(2, l1, l2).log_abs)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @staticmethod
    def mpmath_log_constant(n, m, l1, l2):
        # 60-digit log A from its definition: two Selberg totals through
        # Barnes G, and the Morris products M_m(0, 0) and M_m(l1 + n, l2)
        with mp.workdps(60):
            x, y = mp.mpf(l1), mp.mpf(l2)
            lg = lambda z: mp.log(mp.barnesg(z))  # noqa: E731

            def log_selberg(b):
                return (lg(n + x + 1) - lg(x + 1) + lg(n + b + 1) - lg(b + 1) + lg(n + 2)
                        + lg(n + x + b + 1) - lg(2 * n + x + b + 1))

            def log_morris(a, b):
                return mp.fsum(mp.loggamma(a + b + 1 + j) + mp.loggamma(2 + j)
                               - mp.loggamma(a + 1 + j) - mp.loggamma(b + 1 + j)
                               for j in range(m))

            return float(log_selberg(y + m) - log_selberg(y) + log_morris(0, 0)
                         - log_morris(x + n, y))

    @pytest.mark.parametrize("lam", [0.5, -0.5])
    @pytest.mark.parametrize("m", [2, 4])
    def test_large_n_against_mpmath(self, m, lam):
        # the difference of two selberg_closed totals was off by up to
        # 2.0e-9 at n = 512 and 4.2e-9 at n = 1024; the O(m) sum reaches
        # about 3e-12
        for n in (512, 1024):
            params = EnsembleParams(n=n, lambda1=lam, lambda2=lam)
            got = exact.duality_constant_A(params, m).log_abs
            assert abs(got - self.mpmath_log_constant(n, m, lam, lam)) <= 1e-11, n

    def test_rejects_odd_power(self):
        params = EnsembleParams(n=1, lambda1=0.0, lambda2=0.0)
        with pytest.raises(DomainError):
            exact.duality_constant_A(params, 3)

    @pytest.mark.parametrize("lam", [0.5, -0.5])
    def test_both_sides_quadrature_at_t_one(self, lam):
        # A = [Selberg ratio by tensor quadrature] / [Morris ratio by
        # periodic quadrature], both sides fully independent of the
        # closed forms; the periodic rule is Richardson-extrapolated over
        # a doubling ladder to clear the wrap-point kink of M_2(lam + 2, lam),
        # while M_2(0, 0), a trigonometric polynomial, is exact on the
        # certified doubling grid
        def morris_extrapolated(n, a, b):
            ladder = [morris_quadrature(n, a, b, 512 << i) for i in range(3)]
            r1 = (4.0 * ladder[1] - ladder[0]) / 3.0
            r2 = (4.0 * ladder[2] - ladder[1]) / 3.0
            return (16.0 * r2 - r1) / 15.0

        params = EnsembleParams(n=2, lambda1=lam, lambda2=lam)
        eta1, eta2 = params.lambda2, params.lambda1 + params.n
        lhs_t1 = selberg_quadrature(2, lam, lam + 2.0) / selberg_quadrature(2, lam, lam)
        morris_ratio = (morris_extrapolated(2, eta2, eta1)
                        / acceptance._morris_quadrature(2, 0.0, 0.0))
        oracle = lhs_t1 / morris_ratio
        closed = math.exp(exact.duality_constant_A(params, 2).log_abs)
        assert closed == pytest.approx(oracle, rel=1e-8)


def partition_asymptote(n, q, t):
    # the large-n single-insertion partition ratio: one charge (t, q) in the
    # Jacobi-weight asymptote
    symbol = fh.SymbolSpec(singularities=((t, q),))
    return math.exp(fh.jacobi_fh_asymptotes(symbol, (n,))[0])


class TestAsymptoticPartitionRatio:
    def test_arcsine_values(self):
        assert partition_asymptote(5, 1.0, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-13)
        assert partition_asymptote(3, 1.0, 0.25) == pytest.approx(
            (1.0 / math.pi) * (3.0 / 16.0) ** -0.5, rel=1e-13)

    def test_half_charge_formula(self):
        manual = ((1.0 / math.sqrt(math.pi))
                  * math.exp(2.0 * log_barnes_g(1.5) - log_barnes_g(2.0))
                  * 16.0 ** -0.25 * 0.25 ** -0.125)
        assert partition_asymptote(8, 0.5, 0.5) == pytest.approx(manual, rel=1e-13)

    def test_weight_independence(self):
        # the asymptote drops the weight exponents; the exact ratios of three
        # weights all reach it at the 1/n rate (|deviation| * n <= 0.84 here)
        n, t = 96, 0.3
        target = partition_asymptote(n, 1.0, t)
        symbol = fh.SymbolSpec(singularities=((t, 1.0),))
        for (l1, l2) in ((0.5, 0.5), (-0.5, -0.5), (0.1, 0.9)):
            params = EnsembleParams(n=n, lambda1=l1, lambda2=l2)
            ratio = math.exp(fh.hankel_balanced_log_ratio(params, symbol, n))
            assert abs(ratio / target - 1.0) * n <= 1.5

    def test_arcsine_identity_property(self):
        for t in np.linspace(0.02, 0.98, 25):
            val = partition_asymptote(4, 1.0, float(t))
            assert val * math.pi * math.sqrt(t * (1.0 - t)) == pytest.approx(
                1.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition_asymptote(4, 1.0, 1.0)


class TestDensityMatrixAsymptote:
    def test_frozen_value(self):
        q = DensityMatrixQuery(N=14, X=0.025, Y=0.975)
        assert exact.density_matrix_asymptote(q) == pytest.approx(
            1.4018320102620347, rel=1e-12)

    def test_constant_is_four_log_g_of_three_halves(self):
        # computed once at import, bit for bit the per-call value it replaced
        assert exact.LOG_G4_HALF3 == 4.0 * log_barnes_g(1.5)

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
