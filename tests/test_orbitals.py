import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, hyp2f1

from selberg_gas import orbitals as orb
from selberg_gas import quadrature as quad
from selberg_gas.specfun import DomainError, log_beta, log_gamma


def omega(j: int) -> float:
    """Prefactor Omega_j = Gamma(3/4)/Gamma(5/4) * Gamma(j+1/2)/j! of the
    kernel image Omega_j [S_j(X) + (-1)^j S_j(1-X)]."""
    return math.exp(log_gamma(0.75) - log_gamma(1.25)
                    + log_gamma(j + 0.5) - log_gamma(j + 1.0))


class TestApplyKernel:
    def test_ground_eigenvalue_everywhere(self):
        # constant mode maps to pi*sqrt(2), independent of X
        for X in (0.1, 0.5, 0.85):
            val = orb.apply_kernel(0.5, lambda Y: np.ones_like(Y), X, tol=1e-9)
            assert val == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-8)

    def test_second_mode(self):
        lhs = orb.apply_kernel(0.5, lambda Y: eval_gegenbauer(2, 0.25, 2.0 * Y - 1.0),
                               0.3, tol=1e-9)
        lbar2 = math.sqrt(2.0 * math.pi) * math.gamma(2.5) / 2.0
        assert lhs == pytest.approx(lbar2 * eval_gegenbauer(2, 0.25, -0.4), rel=1e-8)

    def test_porter_stirling_quarter(self):
        assert orb.porter_stirling_apply(0.25, 0.6) == pytest.approx(1.0, abs=1e-8)

    def test_porter_stirling_irrational_exponent(self):
        # the charge rule absorbs any exponent, rational or not
        for x in (0.2, 0.5, 0.8):
            assert orb.porter_stirling_apply(1.0 / math.sqrt(2.0), x) == pytest.approx(
                1.0, abs=1e-8)

    def test_porter_stirling_family(self):
        # nu <= 0 leaves a kernel that is not singular; the constancy
        # continues analytically to -1 < nu < 1
        for nu in (-0.5, 0.0, 0.25, 0.5, 0.75):
            for x in np.linspace(0.05, 0.95, 10):
                assert orb.porter_stirling_apply(nu, float(x)) == pytest.approx(
                    1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            orb.apply_kernel(0.5, lambda Y: Y, 0.0)
        with pytest.raises(DomainError):
            orb.apply_kernel(1.0, lambda Y: Y, 0.5)


class TestEigenrelation:
    def test_low_modes_at_interior_points(self):
        for X in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert orb.eigen_residuals(5, X).max() <= 1e-4

    def test_expansion_identity_projection(self):
        # the kernel expansion identity projected against C_k^{1/4} reduces
        # to each mode's eigenrelation
        assert orb.eigen_residuals(3, 0.25).max() <= 1e-5
        assert orb.eigen_residuals(0, 0.5)[0] <= 1e-6

    @pytest.mark.parametrize("X", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_stacked_modes_match_single_mode_bits(self, X):
        # criterion 7's 30 (j, X) pairs: one kernel application to the
        # stacked modes returns each mode's own integral and defect bit for bit
        stacked = orb.apply_kernel(
            0.5, lambda Y: eval_gegenbauer(np.arange(6)[:, None], 0.25, 2.0 * Y - 1.0), X)
        residuals = orb.eigen_residuals(5, X)
        assert stacked.shape == residuals.shape == (6,)
        for j in range(6):
            lhs = orb.apply_kernel(0.5, lambda Y: eval_gegenbauer(j, 0.25, 2.0 * Y - 1.0), X)
            rhs = orb.scaled_occupation(j) * float(eval_gegenbauer(j, 0.25, 2.0 * X - 1.0))
            assert stacked[j] == lhs
            assert residuals[j] == abs(lhs - rhs) / (1.0 + abs(rhs))


class TestOrbitals:
    def test_ground_state_shape(self):
        # phi_0 = [X(1-X)]^{1/8} / sqrt(A), A = B(3/4,3/4)/pi for L = 1
        a_const = math.exp(log_beta(0.75, 0.75)) / math.pi
        for X in (0.2, 0.5, 0.9):
            expected = (X * (1.0 - X)) ** 0.125 / math.sqrt(a_const)
            assert float(orb.orbital(0, X)) == pytest.approx(expected, rel=1e-12)

    def test_positive_near_right_edge(self):
        for j in range(7):
            assert float(orb.orbital(j, 0.999)) > 0.0

    def test_orthogonality_and_norm(self):
        rule = quad.power_panel(0.0, 1.0, -0.25, -0.25, 60)
        weight_free = (rule.nodes * (1.0 - rule.nodes)) ** 0.125
        phi1 = orb.orbital(1, rule.nodes) / weight_free
        phi2 = orb.orbital(2, rule.nodes) / weight_free
        phi3 = orb.orbital(3, rule.nodes) / weight_free
        cross = float(np.sum(rule.weights * phi1 * phi2)) / math.pi
        norm = float(np.sum(rule.weights * phi3 * phi3)) / math.pi
        assert abs(cross) <= 1e-10
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_scaled_occupations(self):
        assert orb.scaled_occupation(0) == pytest.approx(math.pi * math.sqrt(2.0),
                                                         rel=1e-14)
        assert orb.scaled_occupation(1) == pytest.approx(math.pi / math.sqrt(2.0),
                                                         rel=1e-14)
        for j in range(9):
            ratio = orb.scaled_occupation(j + 1) / orb.scaled_occupation(j)
            assert ratio == pytest.approx((j + 0.5) / (j + 1.0), rel=1e-13)


class TestAppendixIdentities:
    def test_s_single_term(self):
        z = 0.5
        assert orb.appendix_s(0, z) == pytest.approx(
            z**0.25 * hyp2f1(0.25, 0.75, 1.25, z), rel=1e-14)

    def test_l_eigenrelation(self):
        for j in range(6):
            for z in (0.2, 0.5, 0.8):
                target = -j * (j + 0.5) * orb.appendix_s(j, z)
                assert orb.l_operator_on_s(j, z) == pytest.approx(
                    target, rel=1e-9, abs=1e-12)

    def test_contiguity_point(self):
        r1, r2 = orb.contiguity_residuals(3, 0.4)
        assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10

    def test_derivative_rule_against_finite_difference(self):
        # the parameter-shift rule behind `l_operator_on_term`:
        # d/dz z^{1/4} 2F1(1/4-k, 3/4; 5/4; z) = (1/4) z^{-3/4} 2F1(1/4-k, 3/4; 1/4; z)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            k = int(rng.integers(0, 6))
            z = float(rng.uniform(0.05, 0.9))
            closed = 0.25 * z**-0.75 * hyp2f1(0.25 - k, 0.75, 0.25, z)
            f = lambda u: u**0.25 * hyp2f1(0.25 - k, 0.75, 1.25, u)
            fd = (f(z + h) - f(z - h)) / (2.0 * h)
            assert closed == pytest.approx(fd, rel=1e-6)

    def test_hypergeometric_kernel_representation(self):
        # Omega_j [S_j(X) + (-1)^j S_j(1-X)] agrees with direct singular quadrature
        for j in (0, 1, 4):
            for X in (0.3, 0.62):
                direct = orb.apply_kernel(
                    0.5, lambda Y: eval_gegenbauer(j, 0.25, 2.0 * Y - 1.0), X, tol=1e-10)
                closed = omega(j) * (orb.appendix_s(j, X)
                                     + (-1) ** j * orb.appendix_s(j, 1.0 - X))
                assert closed == pytest.approx(direct, rel=1e-9, abs=1e-11)

    def test_omega_positive(self):
        for j in range(10):
            assert omega(j) > 0.0
        # the log-space helper against plain gamma values
        assert omega(3) == pytest.approx(
            math.gamma(0.75) / math.gamma(1.25) * math.gamma(3.5) / 6.0, rel=1e-13)
