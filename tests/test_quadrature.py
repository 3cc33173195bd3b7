import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_jacobi

from selberg_gas import ensembles
from selberg_gas import quadrature as quad
from selberg_gas.averages import density_matrix_exact
from selberg_gas.exact import BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN, DensityMatrixQuery
from selberg_gas.specfun import DomainError, log_beta

import christoffel_oracle
from charge_rule_oracle import piecewise_charge_rule, uncollared_charge_rule
from polynomial_oracle import orthonormal_polynomials


class TestGaussRules:
    def test_legendre_two_point(self):
        rule = quad.power_panel(-1.0, 1.0, 0.0, 0.0, 2)
        assert rule.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    def test_jacobi_arcsine_mass(self):
        for order in (4, 9, 30):
            rule = quad.power_panel(-1.0, 1.0, -0.5, -0.5, order)
            assert rule.weights.sum() == pytest.approx(math.pi, rel=1e-13)

    def test_weight_sums_match_beta_mass(self):
        # weight (1+x)^b (1-x)^a on (-1, 1)
        for (a, b) in ((0.5, 0.5), (-0.25, 0.75), (2.0, 0.0)):
            rule = quad.power_panel(-1.0, 1.0, b, a, 24)
            mass = 2.0 ** (a + b + 1.0) * math.exp(log_beta(a + 1.0, b + 1.0))
            assert rule.weights.sum() == pytest.approx(mass, rel=1e-12)

    def test_monomial_exactness(self):
        rule = quad.power_panel(0.0, 1.0, 0.0, 0.0, 20)
        assert float(np.sum(rule.weights * rule.nodes**5)) == pytest.approx(1.0 / 6.0,
                                                                            rel=1e-14)

    def test_orthogonal_polynomials_integrate_to_zero(self):
        order = 16
        l1, l2 = 0.5, -0.25
        rule = quad.power_panel(0.0, 1.0, l1, l2, order)
        polys = orthonormal_polynomials(order, l1, l2, rule.nodes)
        for k in range(1, order + 1):
            assert abs(float(np.sum(rule.weights * polys[k]))) <= 1e-12

    def test_invalid_inputs(self):
        for a, b in ((0.5, 0.5), (1.0, 0.0)):
            with pytest.raises(DomainError, match="empty panel"):
                quad.power_panel(a, b, 0.0, 0.0, 5)
        with pytest.raises(ValueError):
            quad.power_panel(0.0, 1.0, -1.0, 0.0, 5)
        with pytest.raises(ValueError):
            quad.power_panel(0.0, 1.0, 0.0, 0.0, 0)
        with pytest.raises(DomainError, match="order must be >= 1"):
            quad.power_panel(0.0, 1.0, 0.0, 0.0, 0)

    def test_nodes_must_increase_between_finite_ends(self):
        # NaN fails every comparison, so a check stated as "no step <= 0"
        # let an interior NaN and a lone NaN node through
        for nodes in ([0.1, math.nan, 0.3], [math.nan], [0.1, 0.3, math.inf],
                      [-math.inf, 0.3], [0.3, 0.2], [0.2, 0.2], []):
            with pytest.raises(ValueError, match="strictly increasing"):
                quad.QuadratureRule(np.array(nodes), np.ones(len(nodes)))
        rule = quad.QuadratureRule(np.array([0.5]), np.array([1.0]))
        assert rule.nodes.tolist() == [0.5]

    PAIRS = ((0.5, 0.5), (-0.5, -0.5), (-0.25, 1.5), (1.3, 0.7), (0.0, 0.0), (1.9, -0.5))

    @pytest.mark.parametrize("alpha, beta", PAIRS)
    def test_golub_welsch_matches_scipy(self, alpha, beta):
        # measured worst: nodes 7.8e-16, relative weights 6.6e-12, most of it
        # scipy's own (next test)
        for order in (1, 2, 3, 5, 8, 17, 32, 64):
            x, w = quad._jacobi_nodes_weights(order, alpha, beta)
            x_ref, w_ref = roots_jacobi(order, alpha, beta)
            assert np.abs(x - x_ref).max() <= 1e-14, order
            assert np.abs(w / w_ref - 1.0).max() <= 1e-11, order

    def test_dense_eigensolver_matches_tridiagonal_bits(self):
        # below _DENSE_EIGEN_ORDERS the nodes come from numpy's dense solver,
        # which keeps scipy.linalg out of small requests; it must return the
        # bits scipy's tridiagonal solver returns, or every small rule would
        # move with the switch (another LAPACK build could break this)
        # (canonical pairs, alpha <= beta: the other orientation is their
        # reflection, whose bits the next tests pin)
        rng = np.random.default_rng(2)
        for order in range(1, ensembles._DENSE_EIGEN_ORDERS):
            alpha, beta = sorted(rng.uniform(-0.99, 3.0, 2))
            a, b, _ = quad.jacobi_recurrence(order, beta, alpha)
            x, _ = quad._jacobi_nodes_weights(order, alpha, beta)
            np.testing.assert_array_equal(x, eigvalsh_tridiagonal(2.0 * a - 1.0, 2.0 * b[1:]),
                                          err_msg=f"order {order}")

    @staticmethod
    def mpmath_rule(order, alpha, beta):
        # 40-digit nodes by Newton on the orthonormal recurrence, started
        # from scipy's nodes, and weights mass / sum_{k<order} p_k(x)^2
        with mp.workdps(40):
            al, be = mp.mpf(alpha), mp.mpf(beta)
            s = al + be
            a = [(be - al) / (s + 2)] + [(be * be - al * al) / ((2 * k + s) * (2 * k + s + 2))
                                         for k in range(1, order)]
            b = [0, mp.sqrt(4 * (al + 1) * (be + 1) / ((s + 2) ** 2 * (s + 3)))] + [
                mp.sqrt(4 * k * (k + al) * (k + be) * (k + s)
                        / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
                for k in range(2, order + 1)]

            def run(x):
                prev, cur, d_prev, d_cur, total = 0, mp.mpf(1), 0, 0, mp.mpf(0)
                for k in range(order):
                    total += cur * cur
                    prev, cur, d_prev, d_cur = cur, ((x - a[k]) * cur - b[k] * prev) / b[k + 1], \
                        d_cur, (cur + (x - a[k]) * d_cur - b[k] * d_prev) / b[k + 1]
                return cur, d_cur, total

            mass = 2 ** (s + 1) * mp.beta(al + 1, be + 1)
            nodes, weights = [], []
            for x in roots_jacobi(order, alpha, beta)[0]:
                x = mp.mpf(x)
                for _ in range(4):
                    p, dp, _ = run(x)
                    x -= p / dp
                nodes.append(float(x))
                weights.append(float(mass / run(x)[2]))
            return np.array(nodes), np.array(weights)

    @pytest.mark.parametrize("order, alpha, beta", [(33, 1.9, -0.9), (64, 1.3, 0.7)])
    def test_golub_welsch_against_mpmath(self, order, alpha, beta):
        # scipy's weights are 2.0e-11 and 3.3e-12 off here; the Christoffel
        # function keeps them within 3.4e-13, the nodes within 6.7e-16
        x, w = quad._jacobi_nodes_weights(order, alpha, beta)
        x_ref, w_ref = self.mpmath_rule(order, alpha, beta)
        assert np.abs(x - x_ref).max() <= 2e-15
        assert np.abs(w / w_ref - 1.0).max() <= 2e-12


def spy_on_rules(monkeypatch) -> tuple:
    # (requested, built): the (order, alpha, beta) keys a panel, of
    # power_panel or of a charge rule's piece, asks the cache for and the
    # keys the cache builds, in call order, from a cold cache
    requested, built = [], []
    panel, build = quad._panel, quad._golub_welsch

    def asking(lo, hi, p_lo, p_hi, order):
        requested.append((order, p_hi, p_lo))
        return panel(lo, hi, p_lo, p_hi, order)

    def building(order, alpha, beta):
        built.append((order, alpha, beta))
        return build(order, alpha, beta)

    monkeypatch.setattr(quad, "_panel", asking)
    monkeypatch.setattr(quad, "_golub_welsch", building)
    quad._jacobi_nodes_weights.cache_clear()
    return requested, built


class TestMirroredRules:
    # the rule of (beta, alpha) is the mirror image of the rule of
    # (alpha, beta); the cache builds the one with alpha <= beta

    PAIRS = ((1.0, -0.5), (2.0, 0.37), (0.5, 0.0), (2.6, -0.9))

    @pytest.mark.parametrize("order", [1, 2, 17, 129, 130, 542])
    def test_swapped_exponents_give_exact_mirrors(self, order, monkeypatch):
        _, built = spy_on_rules(monkeypatch)
        for alpha, beta in self.PAIRS:
            for first, second in (((alpha, beta), (beta, alpha)), ((beta, alpha), (alpha, beta))):
                quad._jacobi_nodes_weights.cache_clear()
                built.clear()
                x, w = quad._jacobi_nodes_weights(order, *first)
                x_m, w_m = quad._jacobi_nodes_weights(order, *second)
                np.testing.assert_array_equal(x, -x_m[::-1])
                np.testing.assert_array_equal(w, w_m[::-1])
                assert np.all(np.diff(x) > 0.0)
                assert built == [(order, min(alpha, beta), max(alpha, beta))]

    @pytest.mark.parametrize("order", [1, 2, 3, 17, 64, 129, 130, 131, 257, 542])
    def test_christoffel_loop_matches_the_oracle(self, order):
        # the in-place steps on Python floats against the allocating loop,
        # in both orientations
        for alpha, beta in self.PAIRS + ((0.25, 0.25),):
            for pair in ((alpha, beta), (beta, alpha)):
                x, w = quad._golub_welsch(order, *pair)
                x_ref, w_ref = christoffel_oracle.jacobi_nodes_weights(order, *pair)
                np.testing.assert_array_equal(x, x_ref)
                np.testing.assert_array_equal(w, w_ref)

    def test_checks_keep_the_callers_order(self):
        # the messages name (beta, alpha) as weight exponents (lambda1,
        # lambda2), and (alpha, beta) as Gauss-Jacobi exponents
        for args, message in (((5, 0.0, -1.0), r"must exceed -1, got \(-1.0, 0.0\)"),
                              ((5, -1.5, 0.0), r"must exceed -1, got \(0.0, -1.5\)"),
                              ((5, 1100.0, 0.5), r"Gauss-Jacobi exponents \(1100.0, 0.5\)"),
                              ((0, 1.0, 0.5), "order must be >= 1")):
            with pytest.raises(DomainError, match=message):
                quad._jacobi_nodes_weights(*args)
            with pytest.raises(DomainError, match=message):
                christoffel_oracle.jacobi_nodes_weights(*args)

    def test_hankel_exponent_set_builds_one_rule_per_pair(self, monkeypatch):
        # a Hankel request to n = 512 (rule order 542) with weight exponents
        # in {-1/2, 0, 1/2, 1}, as the exact-determinant benchmark sends: a
        # unit charge asks for the panels (lambda, 2) and (2, lambda), any
        # other charge for (lambda, 0) and (0, lambda) beside its collars
        requested, built = spy_on_rules(monkeypatch)
        for lam in (-0.5, 0.0, 0.5, 1.0):
            for q in (1.0, 0.37):
                quad.charge_rule(lam, lam, [(0.4, q)], 542)
        assert len({key for key in requested if key[0] == 542}) == 15
        assert sorted(key for key in built if key[0] == 542) == sorted(
            (542, min(lam, p), max(lam, p)) for lam in (-0.5, 0.0, 0.5, 1.0) for p in (0.0, 2.0))

    @pytest.mark.parametrize("boundary", [BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN])
    def test_density_matrix_pair_builds_two_rules(self, boundary, monkeypatch):
        # two half charges ask for (lambda, 1), (1, 1) and (1, lambda)
        requested, built = spy_on_rules(monkeypatch)
        density_matrix_exact(DensityMatrixQuery(N=200, X=0.3, Y=0.6, boundary=boundary))
        assert len(set(requested)) == 3
        assert len(built) == 2 and all(order == 230 for order, _, _ in built)


class TestTensorIntegrate:
    def test_volume(self):
        for d in (1, 2, 3):
            rules = [quad.power_panel(0.0, 1.0, 0.0, 0.0, 8)] * d
            assert quad.tensor_integrate(lambda *c: np.ones(()), rules) == pytest.approx(1.0)

    def test_vandermonde_two_dim(self):
        rules = [quad.power_panel(0.0, 1.0, 0.0, 0.0, 12)] * 2
        val = quad.tensor_integrate(lambda x, y: (y - x) ** 2, rules)
        assert val == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_jacobi_weight_beta_value(self):
        rule = quad.power_panel(0.0, 1.0, 0.5, 0.5, 10)
        assert rule.weights.sum() == pytest.approx(math.pi / 8.0, rel=1e-13)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            quad.tensor_integrate(lambda *c: 1.0,
                                  [quad.power_panel(0.0, 1.0, 0.0, 0.0, 3)] * 4)


class TestPeriodicIntegrate:
    def test_normalization(self):
        for m in (1, 2):
            val = quad.periodic_integrate(
                lambda *t: np.broadcast_arrays(*t)[0] * 0.0 + (2.0 * math.pi) ** -m,
                m, 16)
            assert complex(val).real == pytest.approx(1.0, rel=1e-13)

    def test_fourier_constant_term(self):
        val = quad.periodic_integrate(
            lambda t: np.abs(1.0 + np.exp(1j * t)) ** 2 / (2.0 * math.pi), 1, 64)
        assert complex(val).real == pytest.approx(2.0, rel=1e-13)

    def test_two_dim_vandermonde(self):
        val = quad.periodic_integrate(
            lambda a, b: np.abs(np.exp(1j * b) - np.exp(1j * a)) ** 2
            / (2.0 * math.pi) ** 2, 2, 48)
        assert complex(val).real == pytest.approx(2.0, rel=1e-13)

    def test_dimension_cap(self):
        # the whole m <= 2 grid is one array; no caller integrates in more
        for m in (0, 3):
            with pytest.raises(DomainError, match="1 <= m <= 2"):
                quad.periodic_integrate(lambda *t: 1.0, m, 4)

    def test_trig_polynomial_exactness(self):
        points = 32
        val = quad.periodic_integrate(
            lambda t: 1.5 + np.cos(13 * t) - 2.0 * np.sin(15 * t), 1, points)
        assert complex(val).real == pytest.approx(1.5 * 2.0 * math.pi, rel=1e-13)


class TestSingularIntegrate:
    def test_antiderivative_case(self):
        val = quad.singular_integrate(np.ones_like, 0.0, 0.0, ((0.3, -0.25),), 1e-11)
        assert val == pytest.approx(2.0 * (math.sqrt(0.3) + math.sqrt(0.7)), rel=1e-11)

    def test_unit_solution_half_exponent(self):
        # (1/pi) cos(pi/4) [t(1-t)]^{-1/4} integrates against |x-t|^{-1/2} to 1
        const = math.cos(math.pi / 4.0) / math.pi
        for x in (0.2, 0.5, 0.8):
            val = quad.singular_integrate(lambda y: const * np.ones_like(y), -0.25, -0.25,
                                          ((x, -0.25),), 1e-10)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_ground_moment(self):
        val = quad.singular_integrate(np.ones_like, -0.25, -0.25, ((0.5, -0.25),), 1e-10)
        assert val == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-10)

    def test_order_doubling_certificate(self):
        orders = []

        def f(y):
            orders.append(len(y))
            return np.cos(3.0 * y)

        quad.singular_integrate(f, 0.0, 0.0, ((0.41, -0.25),), 1e-12)
        assert len(orders) >= 2 and orders[1] == 2 * orders[0]

    def test_certifies_through_a_collared_order(self):
        # cos(150 y) needs order 128, where the charge's exponent -1/2 moves
        # into two 16-node collars; the certified value stays within the
        # tolerance of the un-collared rule's (measured gap 4.1e-14)
        nodes = []

        def f(y):
            nodes.append(len(y))
            return np.cos(150.0 * y)

        charges = ((0.41, -0.25),)
        val = quad.singular_integrate(f, -0.25, -0.25, charges, 1e-12)
        assert nodes == [64, 128, 2 * 128 + 2 * quad._COLLAR_NODES]
        nodes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "charge_rule", uncollared_charge_rule)
            ref = quad.singular_integrate(f, -0.25, -0.25, charges, 1e-12)
        assert nodes == [64, 128, 256]
        assert abs(val - ref) <= 1e-12

    def test_stacked_integrands_wait_for_the_slowest(self):
        # the constant certifies at order 64 alone; stacked with cos(150 y)
        # both come from the order where the oscillating one certifies
        nodes = []

        def stack(y):
            nodes.append(len(y))
            return np.stack([np.ones_like(y), np.cos(150.0 * y)])

        charges, tol = ((0.41, -0.25),), 1e-12
        val = quad.singular_integrate(stack, -0.25, -0.25, charges, tol)
        assert isinstance(val, np.ndarray) and val.shape == (2,)
        assert nodes == [64, 128, 2 * 128 + 2 * quad._COLLAR_NODES]
        ones = quad.singular_integrate(np.ones_like, -0.25, -0.25, charges, tol)
        wave = quad.singular_integrate(lambda y: np.cos(150.0 * y), -0.25, -0.25,
                                       charges, tol)
        assert abs(val[0] - ones) <= tol * max(1.0, abs(ones))
        assert val[1] == wave
        rule = quad.charge_rule(-0.25, -0.25, charges, 128)
        assert val[0] == np.sum(rule.weights)

    def test_scalar_integrand_returns_a_float(self):
        val = quad.singular_integrate(np.ones_like, 0.0, 0.0, ((0.3, -0.25),), 1e-11)
        assert type(val) is float

    def test_unconverged_gap_is_one_number(self):
        def stack(y):
            return np.stack([np.ones_like(y), np.cos(2000.0 * y), np.cos(1000.0 * y)])

        with pytest.raises(quad.QuadratureError,
                           match=r"^singular_integrate did not converge to 1e-12 "
                                 r"\(last gap \d\.\d+(e-\d+)?\)$"):
            quad.singular_integrate(stack, 0.0, 0.0, ((0.41, -0.25),), 1e-12)

    def test_rejects_unreachable_tolerance(self):
        with pytest.raises(DomainError):
            quad.singular_integrate(np.ones_like, 0.0, 0.0, (), 1e-15)

    def test_rejects_nan_tolerance_before_integrating(self):
        # a NaN tolerance passed the check, ran the whole order doubling and
        # then failed to converge "to nan"
        calls = []

        def ones(y):
            calls.append(len(y))
            return np.ones_like(y)

        with pytest.raises(DomainError, match="^tolerance nan must be at least 1e-14"):
            quad.singular_integrate(ones, 0.0, 0.0, ((0.3, -0.25),), float("nan"))
        assert calls == []

    def test_invalid_integrand(self):
        with pytest.raises(DomainError):
            quad.singular_integrate(np.ones_like, -1.0, 0.0, ())
        with pytest.raises(DomainError):
            quad.singular_integrate(np.ones_like, 0.0, 0.0, ((0.5, -0.5),))
        with pytest.raises(DomainError):
            quad.singular_integrate(np.ones_like, 0.0, 0.0, ((1.2, -0.25),))


class TestChargeRule:
    @pytest.mark.parametrize("order", [46, 94, 286, 542])
    def test_interior_charge_rule_is_two_panels(self, order):
        # a charge in [0.1, 0.9] needs no grading: the rule is the two
        # Gauss-Jacobi panels split at it, each evaluating the far endpoint's
        # power, bit for bit.  From order 128 on a non-integer exponent (here
        # 2q = 0.6) is absorbed by two 16-node collars instead, and the long
        # pieces absorb only the weight's exponents.
        for l1 in (-0.5, 0.0, 0.5, 1.0):
            for l2 in (-0.5, 0.0, 0.5, 1.0):
                for y, q in ((0.1, 0.5), (0.37, 1.0), (0.9, 0.3)):
                    rule = quad.charge_rule(l1, l2, ((y, q),), order)
                    p = 2.0 * q
                    if order >= 128 and not p.is_integer():
                        self.check_collared(rule, l1, l2, y, p, order)
                        continue
                    left = quad.power_panel(0.0, y, l1, p, order)
                    right = quad.power_panel(y, 1.0, p, l2, order)
                    np.testing.assert_array_equal(
                        rule.nodes, np.concatenate((left.nodes, right.nodes)))
                    np.testing.assert_array_equal(rule.weights, np.concatenate(
                        (left.weights * (1.0 - left.nodes) ** l2,
                         right.weights * right.nodes ** l1)))

    @staticmethod
    def check_collared(rule, l1, l2, y, p, order):
        # long piece, collar, collar, long piece; each long piece equals
        # power_panel with the endpoint exponent and evaluates the charge
        k, kc = order, quad._COLLAR_NODES
        assert len(rule.nodes) == 2 * k + 2 * kc
        cut_left = y - quad._collar_width(y, p, y, order)
        cut_right = y + quad._collar_width(y, p, 1.0 - y, order)
        assert y - 0.02 * y < cut_left < y < cut_right < y + 0.02 * (1.0 - y)
        left = quad.power_panel(0.0, cut_left, l1, 0.0, k)
        right = quad.power_panel(cut_right, 1.0, 0.0, l2, k)
        np.testing.assert_array_equal(rule.nodes[:k], left.nodes)
        np.testing.assert_array_equal(rule.nodes[-k:], right.nodes)
        np.testing.assert_array_equal(
            rule.weights[:k], left.weights * np.abs(y - left.nodes) ** p
            * np.abs(1.0 - left.nodes) ** l2)
        np.testing.assert_array_equal(
            rule.weights[-k:], right.weights * np.abs(y - right.nodes) ** p
            * np.abs(0.0 - right.nodes) ** l1)
        collars = rule.nodes[k:-k]
        assert np.all((cut_left < collars[:kc]) & (collars[:kc] < y))
        assert np.all((y < collars[kc:]) & (collars[kc:] < cut_right))

    ASSEMBLY_CASES = (
        (0.5, 0.5, ((0.37, 0.3),)),  # collared from order 128 on
        (-0.25, 1.0, ((0.9, 0.3),)),
        (-0.428, 0.0, ((0.0053, 1.0),)),  # graded toward the wall
        (-0.5, 0.0, ((1e-4, 1.0),)),
        (-0.5, 0.5, ((1e-4, 0.3),)),
        (0.5, -0.25, ((0.0, 0.5), (1.0, 0.25))),  # charges at the walls
        (0.5, 0.5, ((0.3, 0.5), (0.45, 0.5))),  # a density-matrix pair
        (-0.5, -0.5, ((1e-4, 0.5), (9e-4, 0.5))),
        (-0.375, -0.375, ((0.1, -0.125),)),  # kernels, q = -nu/2
        (-0.25, -0.25, ((0.5, -0.25),)),
        (-0.125, -0.125, ((0.01, -0.375),)),
    )

    @pytest.mark.parametrize("order", [32, 64, 128, 542])
    def test_assembly_matches_the_piecewise_rule(self, order):
        # the pieces are assembled as plain arrays and validated once; the
        # reference validates each piece as a power_panel rule and scales a
        # copy of its weights.  Same nodes, same weights, bit for bit.
        for l1, l2, charges in self.ASSEMBLY_CASES:
            rule = quad.charge_rule(l1, l2, charges, order)
            ref = piecewise_charge_rule(l1, l2, charges, order)
            np.testing.assert_array_equal(rule.nodes, ref.nodes)
            np.testing.assert_array_equal(rule.weights, ref.weights)

    @pytest.mark.parametrize("l1, t, order", [(-0.428, 0.0053, 38), (-0.5, 1e-4, 40)])
    def test_charge_near_an_endpoint(self, l1, t, order):
        # int_0^1 x^l1 (x - t)^2 dx; ungraded the panel [t, 1] left 9.8e-11
        # and 2.0e-8 of x^l1 unresolved
        rule = quad.charge_rule(l1, 0.0, ((t, 1.0),), order)
        exact = 1.0 / (l1 + 3.0) - 2.0 * t / (l1 + 2.0) + t * t / (l1 + 1.0)
        assert float(np.sum(rule.weights)) == pytest.approx(exact, rel=1e-14)


    @pytest.mark.parametrize("X, Y", [(0.3, 0.3 + 1e-15), (0.7 - 1e-15, 0.7)])
    def test_charges_a_few_ulps_apart_are_named(self, X, Y):
        # a pair and its mirror image: the two charges' short panel has no
        # room for its nodes in float64, on either side of the box
        message = (f"charge rule of order 44: float64 cannot hold its nodes apart between "
                   f"the charge at {X!r} and the charge at {Y!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            density_matrix_exact(DensityMatrixQuery(14, X, Y))

    def test_charges_1e_12_apart_keep_their_value(self):
        assert density_matrix_exact(DensityMatrixQuery(14, 0.3, 0.3 + 1e-12)) == 14.966615982126466

    @pytest.mark.parametrize("charges", [((0.3, math.nan),), ((0.3, 0.5), (0.6, math.nan)),
                                         ((0.0, math.nan),)])
    def test_nan_exponent_is_named(self, charges):
        # `min` over exponents with a NaN depends on their order, and the
        # NaN reached the Gauss-Jacobi rule, whose message named its scale
        with pytest.raises(DomainError, match=r"^absorbed exponents must exceed -1, got \[.*nan"):
            quad.charge_rule(0.5, 0.5, charges, 40)


class TestRecurrence:
    def test_uniform_weight_coefficients(self):
        a, b, mu0 = quad.jacobi_recurrence(6, 0.0, 0.0)
        assert mu0 == pytest.approx(1.0)
        assert a == pytest.approx([0.5] * 6)
        assert b[1] == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-14)

    @staticmethod
    def scalar_recurrence(n_terms, lambda1, lambda2):
        # the per-k loop the array form replaced
        al, be = lambda2, lambda1
        a, b, s = np.empty(n_terms), np.zeros(n_terms), al + be
        for k in range(n_terms):
            ak = ((be - al) / (s + 2.0) if k == 0
                  else (be * be - al * al) / ((2.0 * k + s) * (2.0 * k + s + 2.0)))
            a[k] = 0.5 * (1.0 + ak)
        if n_terms > 1:
            b[1] = math.sqrt(4.0 * (al + 1.0) * (be + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))) / 2.0
        for k in range(2, n_terms):
            b[k] = math.sqrt(4.0 * k * (k + al) * (k + be) * (k + s)
                             / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0)
                                * (2.0 * k + s - 1.0))) / 2.0
        return a, b

    @pytest.mark.parametrize("l1, l2", [(0.5, 0.5), (-0.5, -0.5), (-0.999, 2.0), (1.3, -0.25)])
    def test_array_form_matches_the_loop(self, l1, l2):
        # same operations in the same order; only the square differs, x * x
        # in numpy against the C library's pow(x, 2), which can be off by
        # one unit in the last place
        for n_terms in (0, 1, 2, 3, 543):
            a, b, _ = quad.jacobi_recurrence(n_terms, l1, l2)
            a_ref, b_ref = self.scalar_recurrence(n_terms, l1, l2)
            np.testing.assert_array_equal(a, a_ref)
            np.testing.assert_allclose(b, b_ref, rtol=2.3e-16, atol=0.0)

    def test_orthonormality(self):
        l1, l2 = -0.5, 0.5
        rule = quad.power_panel(0.0, 1.0, l1, l2, 40)
        polys = orthonormal_polynomials(10, l1, l2, rule.nodes)
        gram = (polys * rule.weights) @ polys.T
        assert np.abs(gram - np.eye(11)).max() <= 1e-12
