import math

import numpy as np
import pytest

from selberg_gas import fisherhartwig as fh
from selberg_gas import quadrature as quad
from selberg_gas.averages import average_even_power_heine
from selberg_gas.exact import EnsembleParams, asymptotic_partition_ratio, selberg_closed
from selberg_gas.specfun import DomainError, log_barnes_g


def params_for(n, l1=0.5, l2=0.5):
    return EnsembleParams(n=n, lambda1=l1, lambda2=l2)


class TestHankel:
    def test_bare_weight_matches_selberg(self):
        for n in (1, 2, 4, 7, 10):
            det = fh.hankel_determinant(params_for(n), fh.SymbolSpec(), n)
            assert det.log_abs == pytest.approx(
                selberg_closed(n, 0.5, 0.5).log_abs, abs=1e-9)

    def test_single_moment(self):
        # n = 1: plain weighted moment of the insertion
        rule = quad.power_panel(0.0, 1.0, 0.5, 0.5, 60)
        sym = fh.SymbolSpec(singularities=((0.5, 1.0),))
        direct = float(np.sum(rule.weights * np.abs(0.5 - rule.nodes) ** 2))
        det = fh.hankel_determinant(params_for(1), sym, 1)
        assert det.log_abs == pytest.approx(math.log(direct), abs=1e-12)

    def test_even_insertion_matches_heine(self):
        sym = fh.SymbolSpec(singularities=((0.5, 1.0),))
        for n in (2, 5, 10):
            det = fh.hankel_determinant(params_for(n), sym, n)
            avg = average_even_power_heine(params_for(n), 0.5, 2)
            expected = avg.log_abs + selberg_closed(n, 0.5, 0.5).log_abs
            assert det.log_abs == pytest.approx(expected, abs=1e-9)

    def test_endpoint_charges_shift_the_exponents(self):
        # |0 - x|^(2q0) |1 - x|^(2q1) is the weight x^(2q0) (1-x)^(2q1): the
        # ratio is a quotient of Selberg integrals
        n, q0, q1 = 6, 0.3, 0.7
        sym = fh.SymbolSpec(singularities=((1.0, q1), (0.0, q0)))
        expected = (selberg_closed(n, 0.5 + 2 * q0, -0.25 + 2 * q1).log_abs
                    - selberg_closed(n, 0.5, -0.25).log_abs)
        assert fh.hankel_log_ratio(params_for(n, 0.5, -0.25), sym, n) == pytest.approx(
            expected, abs=1e-12)

    def test_balanced_ratio_needs_interior_charges(self):
        for y in (0.0, 1.0):
            with pytest.raises(DomainError):
                fh.hankel_balanced_log_ratio(params_for(3),
                                             fh.SymbolSpec(singularities=((y, 1.0),)), 3)

    def test_reflection_symmetry(self):
        # singularity at y with (l1, l2) equals singularity at 1-y with (l2, l1)
        a = fh.hankel_determinant(params_for(6, 0.5, -0.25),
                                  fh.SymbolSpec(singularities=((0.3, 0.5),)), 6)
        b = fh.hankel_determinant(params_for(6, -0.25, 0.5),
                                  fh.SymbolSpec(singularities=((0.7, 0.5),)), 6)
        assert a.log_abs == pytest.approx(b.log_abs, abs=1e-10)

    def test_smooth_part_enters(self):
        # ratio with h = c against h = 0 is exp(c n) exactly
        c = 0.37
        sym_c = fh.SymbolSpec(h_poly=(c,))
        det_c = fh.hankel_determinant(params_for(5), sym_c, 5)
        det_0 = fh.hankel_determinant(params_for(5), fh.SymbolSpec(), 5)
        assert det_c.log_abs - det_0.log_abs == pytest.approx(5.0 * c, rel=1e-12)


class TestJacobiAsymptote:
    def test_empty_symbol(self):
        assert fh.jacobi_fh_asymptote(params_for(9), fh.SymbolSpec(), 9) == 0.0

    def test_half_charge_constant(self):
        # h = 0, q = 1/2 at y = 1/2: -(1/4) log 2n plus the closed constant
        n = 8
        sym = fh.SymbolSpec(singularities=((0.5, 0.5),))
        log_k = (-0.125 * math.log(0.25) - 0.5 * math.log(math.pi)
                 + 2.0 * log_barnes_g(1.5) - log_barnes_g(2.0))
        expected = -0.25 * math.log(2.0 * n) + log_k
        assert fh.jacobi_fh_asymptote(params_for(n), sym, n) == pytest.approx(
            expected, rel=1e-13)

    def test_constant_smooth_part_shifts_by_cn(self):
        sym0 = fh.SymbolSpec(singularities=((0.3, 0.5),))
        for c in (0.7, -0.4):
            sym_c = fh.SymbolSpec(singularities=((0.3, 0.5),), h_poly=(c,))
            for n in (5, 12):
                p = params_for(n, 0.2, 0.4)
                diff = (fh.jacobi_fh_asymptote(p, sym_c, n)
                        - fh.jacobi_fh_asymptote(p, sym0, n))
                assert diff == pytest.approx(c * n, rel=1e-11)

    def test_q1_reduces_to_partition_asymptote(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(3, 80))
            t = float(rng.uniform(0.05, 0.95))
            sym = fh.SymbolSpec(singularities=((t, 1.0),))
            lhs = fh.jacobi_fh_asymptote(params_for(n), sym, n)
            rhs = math.log(asymptotic_partition_ratio(n, 1.0, t))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_polynomial_smooth_part_uses_pv_term(self):
        # quadratic h: prediction changes by the PV double integral too
        sym_h = fh.SymbolSpec(singularities=((0.5, 0.5),), h_poly=(0.0, 1.0, -1.0))
        val = fh.jacobi_fh_asymptote(params_for(6), sym_h, 6)
        assert math.isfinite(val)

    def test_balanced_ratio_drift(self):
        sym = fh.SymbolSpec(singularities=((0.5, 0.5),))
        deltas = []
        for n in (8, 16, 32, 48):
            p = params_for(n)
            deltas.append(abs(fh.hankel_balanced_log_ratio(p, sym, n)
                              - fh.jacobi_fh_asymptote(p, sym, n)))
        assert deltas[0] > deltas[1] > deltas[2] > deltas[3]


class TestToeplitz:
    def test_identity_symbol(self):
        det = fh.toeplitz_determinant(fh.SymbolSpec(), 5)
        assert det.log_abs == pytest.approx(0.0, abs=1e-12)
        assert det.sign == 1

    def test_strong_szego_limit(self):
        # finite-size corrections die superexponentially: visible at N = 2
        # and 4, below double precision by N = 8
        gamma = 0.5
        sym = fh.SymbolSpec(g_fourier=((1, gamma), (-1, gamma)))
        gaps = [abs(fh.toeplitz_determinant(sym, N).log_abs - gamma**2)
                for N in (2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 1e-10

    def test_singular_symbol_drift(self):
        sym = fh.SymbolSpec(singularities=((0.0, 0.5),))
        target = 2.0 * log_barnes_g(1.5) - log_barnes_g(2.0)
        gaps = [abs(fh.toeplitz_determinant(sym, N).log_abs - 0.25 * math.log(N)
                    - target) for N in (8, 16, 32, 48)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] <= 0.02

    def test_rotation_invariance(self):
        base = fh.SymbolSpec(singularities=((0.7, 0.5), (2.1, 0.3)))
        shifted = fh.SymbolSpec(singularities=((1.1, 0.5), (2.5, 0.3)))
        a = fh.toeplitz_determinant(base, 12)
        b = fh.toeplitz_determinant(shifted, 12)
        assert a.log_abs == pytest.approx(b.log_abs, abs=1e-10)

    def test_asymptote_formula(self):
        # g = 2 gamma cos(theta): smooth factor gamma^2, no singular terms
        gamma = 0.3
        sym = fh.SymbolSpec(g_fourier=((1, gamma), (-1, gamma)))
        assert fh.toeplitz_fh_asymptote(sym, 10) == pytest.approx(gamma**2, rel=1e-13)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            fh.toeplitz_determinant(fh.SymbolSpec(), 0)


class TestDriftReport:
    def test_constant_symbol_zero_drift(self):
        series = [(n, fh.DeterminantValue(log_abs=1.5, sign=1, size=n))
                  for n in (4, 8, 16, 32)]
        report = fh.fh_drift_report(series, [1.5, 1.5, 1.5, 1.5])
        assert report.final_abs_delta == 0.0
        assert all(r.delta == 0.0 for r in report.rows)

    def test_decreasing_flag(self):
        series = [(n, 1.0 / n) for n in (4, 8, 16, 32)]
        report = fh.fh_drift_report(series, [0.0] * 4)
        assert report.decreasing
        assert report.final_abs_delta == pytest.approx(1.0 / 32.0)

    def test_needs_four_sizes(self):
        with pytest.raises(DomainError):
            fh.fh_drift_report([(4, 0.1), (8, 0.05)], [0.0, 0.0])

    def test_symbol_validation(self):
        with pytest.raises(DomainError):
            fh.SymbolSpec(singularities=((0.3, 0.5), (0.3, 0.2)))
        with pytest.raises(DomainError):
            fh.SymbolSpec(singularities=((0.3, 0.0),))
