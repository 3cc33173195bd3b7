import math

import numpy as np
import pytest

from selberg_gas import quadrature as quad
from selberg_gas.ensembles import (
    EigenvalueSample,
    RngStream,
    SamplingError,
    sample_jue,
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
        a = sample_jue_halfhalf(14, RngStream(42, 5)).points
        b = sample_jue_halfhalf(14, RngStream(42, 5)).points
        assert np.array_equal(a, b)
        params = EnsembleParams(n=14, lambda1=-0.5, lambda2=-0.5)
        a = sample_jue(params, RngStream(42, 5)).points
        b = sample_jue(params, RngStream(42, 5)).points
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_jue_halfhalf(6, RngStream(42, 0)).points
        b = sample_jue_halfhalf(6, RngStream(42, 1)).points
        assert not np.array_equal(a, b)

    def test_sequence_advances(self):
        stream = RngStream(9)
        a = sample_jue_halfhalf(3, stream).points
        b = sample_jue_halfhalf(3, stream).points
        assert not np.array_equal(a, b)


class TestRecurrenceSampler:
    """The bidiagonal model: B B^T is the Jacobi matrix of the random
    three-term recurrence whose zeros carry the ensemble law."""

    def test_single_point_is_beta(self):
        vals = np.array([sample_jue_halfhalf(1, RngStream(3, k)).points[0]
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
        pts = np.array([sample_jue(params, RngStream(17, k)).points
                        for k in range(m)])
        for fn, label in (((lambda *x: sum(x)), "sum"),
                          ((lambda *x: sum(xi ** 2 for xi in x)), "squares"),
                          ((lambda *x: math.prod(x)), "prod")):
            sample_vals = fn(*pts.T)
            exact = jue_average(fn, n, lambda1, lambda2)
            se = sample_vals.std(ddof=1) / math.sqrt(m)
            assert abs(sample_vals.mean() - exact) <= 3.5 * se, label

    def test_support_and_order(self):
        for k in range(300):
            pts = sample_jue_halfhalf(14, RngStream(23, k)).points
            assert pts[0] > 0.0 and pts[-1] < 1.0
            assert np.all(np.diff(pts) > 0.0)

    def test_exponents_near_minus_one_stay_inside(self):
        # unclipped, about 3% of these draws round an eigenvalue onto 1.0
        for lambda1, lambda2 in ((0.5, -0.9), (-0.9, -0.9)):
            params = EnsembleParams(n=14, lambda1=lambda1, lambda2=lambda2)
            for k in range(2000):
                pts = sample_jue(params, RngStream(29, k)).points
                assert pts[0] > 0.0 and pts[-1] < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_jue_halfhalf(0, RngStream(1))


class TestSampleValidation:
    def test_rejects_unordered_points(self):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        with pytest.raises(SamplingError):
            EigenvalueSample(np.array([0.7, 0.2]), params)
        with pytest.raises(SamplingError):
            EigenvalueSample(np.array([0.0, 0.2]), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        params = EnsembleParams(n=2, lambda1=0.5, lambda2=0.5)
        with pytest.raises(SamplingError):
            EigenvalueSample(np.array([bad, 0.5]), params)
        with pytest.raises(SamplingError):
            EigenvalueSample(np.array([0.5, bad]), params)
