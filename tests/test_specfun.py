import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_gegenbauer, hyp2f1

from selberg_gas import specfun as sf

mp.mp.dps = 30


class TestLogGamma:
    def test_integer_anchors(self):
        assert abs(sf.log_gamma(1.0)) <= 1e-14
        assert abs(sf.log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14
        assert abs(sf.log_gamma(10.0) - math.log(362880.0)) <= 1e-13

    def test_relative_accuracy_across_range(self):
        rng = np.random.default_rng(2024)
        xs = np.concatenate([rng.uniform(1e-3, 2.0, 40),
                             rng.uniform(2.0, 200.0, 40),
                             rng.uniform(200.0, 1e6, 40)])
        for x in xs:
            ref = float(mp.loggamma(mp.mpf(float(x))))
            assert abs(sf.log_gamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.log_gamma(0.0)
        with pytest.raises(sf.DomainError):
            sf.log_gamma(-1.5)


class TestBarnesG:
    def test_small_integers(self):
        # G(1..6) = 1, 1, 1, 2, 12, 288 through the functional equation
        targets = [1.0, 1.0, 1.0, 2.0, 12.0, 288.0]
        for k, target in enumerate(targets, start=1):
            assert math.exp(sf.log_barnes_g(float(k))) == pytest.approx(target, rel=1e-12)
        assert sf.log_barnes_g(4.0) == pytest.approx(math.log(2.0), abs=1e-12)
        assert math.exp(sf.log_barnes_g(7.0)) == pytest.approx(34560.0, rel=1e-12)

    def test_half_integer_anchor(self):
        # fourth power at 3/2 matches the 1.3069 rounding to its precision
        assert abs(4.0 * sf.log_barnes_g(1.5) - math.log(1.3069)) <= 5e-4

    def test_against_mpmath(self):
        for z in (0.2, 0.9, 1.3, 2.7, 5.5, 16.0, 33.3, 120.0):
            ref = float(mp.log(mp.barnesg(mp.mpf(z))))
            assert sf.log_barnes_g(z) == pytest.approx(ref, abs=5e-12, rel=1e-12)

    def test_dense_grid_against_mpmath(self):
        # 400 points across the expansion's cut at 17 and 60 far out; the
        # worst reads 5.9e-14 near z = 4.06, where up to 16 lgamma
        # differences climb to the cut
        zs = np.concatenate([np.linspace(0.05, 40.0, 400), np.geomspace(40.0, 1e8, 60)])
        worst = 0.0
        with mp.workdps(40):
            for z in zs.tolist():
                ref = mp.log(mp.barnesg(mp.mpf(z)))
                err = abs(mp.mpf(sf.log_barnes_g(z)) - ref) / max(1.0, abs(ref))
                worst = max(worst, float(err))
        assert worst <= 1e-13

    def test_functional_equation_property(self):
        rng = np.random.default_rng(7)
        for z in rng.uniform(0.1, 50.0, 200):
            z = float(z)
            lhs = sf.log_barnes_g(z + 1.0)
            rhs = sf.log_gamma(z) + sf.log_barnes_g(z)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.log_barnes_g(0.0)


class TestBarnesGRatio:
    @staticmethod
    def tolerance(z, s):
        # below 17 the arguments climb through up to 17 lgamma differences,
        # each rounded at its own size: measured 5.3e-14 there, 6.2e-16 above
        return 1e-13 if min(z, z + s) < 17.0 else 1.5e-15

    @pytest.mark.parametrize("z", [0.3, 2.5, 16.9, 40.0, 600.0, 2049.5])
    def test_integer_shift_is_a_gamma_sum(self, z):
        # G(z + k) / G(z) = prod_{i<k} Gamma(z + i)
        for k in (1, 2, 3):
            direct = math.fsum(math.lgamma(z + i) for i in range(k))
            got = sf.log_barnes_g_ratio(z, float(k))
            assert abs(got - direct) <= self.tolerance(z, k) * max(1.0, abs(direct))

    def test_against_mpmath(self):
        # both sides of the expansion's cut at 17, negative shifts included
        for z in (0.2, 1.3, 2.5, 16.5, 17.2, 90.0, 1025.5):
            for s in (-0.15, 0.3, 0.9, 3.4):
                ref = float(mp.log(mp.barnesg(mp.mpf(z) + mp.mpf(s)))
                            - mp.log(mp.barnesg(mp.mpf(z))))
                got = sf.log_barnes_g_ratio(z, s)
                assert abs(got - ref) <= self.tolerance(z, s) * max(1.0, abs(ref)), (z, s)

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.log_barnes_g_ratio(0.0, 1.0)
        with pytest.raises(sf.DomainError):
            sf.log_barnes_g_ratio(0.5, -0.5)


class TestLogGammaRatio:
    def test_against_mpmath(self):
        # both sides of the cut at 17, where Stirling's expansion is
        # differenced term by term instead of two lgamma values
        for z in (0.4, 16.5, 17.0, 20.3, 123.4, 1000.7, 1e6, 1e12, 1e20, 1e300):
            for s in (-0.5, 0.5, 2.7, 300.0):
                if not min(z, z + s) > 0.0:
                    continue
                with mp.workdps(40 + int(math.log10(z + abs(s)))):
                    ref = float(mp.loggamma(mp.mpf(z) + mp.mpf(s)) - mp.loggamma(mp.mpf(z)))
                got = sf.log_gamma_ratio(z, s)
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (z, s)

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.log_gamma_ratio(0.0, 1.0)
        with pytest.raises(sf.DomainError):
            sf.log_gamma_ratio(2.0, -2.0)
        with pytest.raises(sf.DomainError, match="overflows a float"):
            sf.log_gamma_ratio(1e308, 1e308)


def orbital_family():
    # (a, c) of every 2F1(a, 3/4; c; z) the orbital identities evaluate:
    # a = 1/4 - k with c in {5/4, 1/4, -3/4}, and the raised a + 1 at c = 5/4
    for k in range(8):
        for c in (1.25, 0.25, -0.75):
            yield 0.25 - k, c
        yield 1.25 - k, 1.25


def gegenbauer_quarter_mp(j, x):
    # C_j^{1/4}(x) by the three-term recurrence in mpmath
    x = mp.mpf(x)
    prev, cur = mp.mpf(1), x / 2
    if j == 0:
        return prev
    for k in range(2, j + 1):
        prev, cur = cur, (2 * (k - mp.mpf(3) / 4) * x * cur - (k - mp.mpf(3) / 2) * prev) / k
    return cur


class TestGauss2F1:
    """scipy's hyp2f1 where the orbital identities use it."""

    def test_zero_argument(self):
        assert hyp2f1(3.3, -1.2, 0.7, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_terminating_hand_sum(self):
        # three-term series at a = -2: 1 - 0.36 + (7/15)*0.09 = 0.682
        assert hyp2f1(-2.0, 0.75, 1.25, 0.3) == pytest.approx(0.682, rel=1e-14)

    def test_against_mpmath(self):
        # 40-digit references on the orbital family, z in [0.05, 0.95], and
        # C_j^{1/4} for j <= 12 on [-1, 1]; the defects are scaled by
        # 1 + |reference| since both families have zeros on these grids
        with mp.workdps(40):
            for a, c in orbital_family():
                for z in np.linspace(0.05, 0.95, 19):
                    ref = mp.hyp2f1(mp.mpf(a), mp.mpf(3) / 4, mp.mpf(c), mp.mpf(float(z)))
                    val = hyp2f1(a, 0.75, c, float(z))
                    assert abs(val - ref) <= 1e-14 * (1 + abs(ref))
            for j in range(13):
                for x in np.linspace(-1.0, 1.0, 41):
                    ref = gegenbauer_quarter_mp(j, float(x))
                    val = eval_gegenbauer(j, 0.25, float(x))
                    assert abs(val - ref) <= 2e-15 * (1 + abs(ref))

    def test_contiguity_relations(self):
        # the two lower-parameter shifts used by the operator identities
        for k in range(1, 7):
            a = 0.25 - k
            for z in (0.1, 0.5, 0.9):
                f_m34 = hyp2f1(a, 0.75, -0.75, z)
                f_14 = hyp2f1(a, 0.75, 0.25, z)
                f_54 = hyp2f1(a, 0.75, 1.25, z)
                f_54_up = hyp2f1(a + 1.0, 0.75, 1.25, z)
                lhs1 = -3.0 / 16.0 * (1.0 - z) * f_m34
                rhs1 = ((6.0 - 4.0 * k) * z - 3.0) / 16.0 * f_14 - 0.5 * k * z * f_54
                assert lhs1 == pytest.approx(rhs1, abs=1e-10, rel=1e-10)
                lhs2 = -0.25 * f_14
                rhs2 = -k * f_54 - (0.25 - k) * f_54_up
                assert lhs2 == pytest.approx(rhs2, abs=1e-10, rel=1e-10)


class TestGegenbauer:
    """scipy's eval_gegenbauer at the quarter index the orbitals use."""

    def test_low_orders(self):
        assert eval_gegenbauer(0, 0.25, -0.4) == 1.0
        assert eval_gegenbauer(1, 0.25, 0.6) == pytest.approx(0.3, rel=1e-15)
        assert eval_gegenbauer(2, 0.25, 1.0) == pytest.approx(0.375, rel=1e-14)

    def test_endpoint_identity(self):
        # C_j(1) = (1/2)_j / j!
        for j in range(13):
            expected = math.exp(sf.log_gamma(j + 0.5) - sf.log_gamma(0.5)
                                - sf.log_gamma(j + 1.0))
            assert eval_gegenbauer(j, 0.25, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_parity(self):
        rng = np.random.default_rng(11)
        for j in range(11):
            for x in rng.uniform(0.0, 1.0, 8):
                left = eval_gegenbauer(j, 0.25, -float(x))
                right = (-1.0) ** j * eval_gegenbauer(j, 0.25, float(x))
                assert abs(left - right) <= 1e-13 * (1.0 + abs(right))
