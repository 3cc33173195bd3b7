import math
import types

import mpmath as mp
import numpy as np
import pytest

from selberg_gas import cli, ensembles
from selberg_gas import fisherhartwig as fh
from selberg_gas import quadrature as quad
from selberg_gas.averages import average_even_power_heine
from selberg_gas.exact import (
    EnsembleParams,
    MorrisParams,
    morris_closed,
    selberg_closed,
)
from selberg_gas.specfun import DomainError, log_barnes_g, log_beta

import stieltjes_oracle
import tensor_oracle
from charge_rule_oracle import uncollared_charge_rule
from polynomial_oracle import orthonormal_polynomials


def params_for(n, l1=0.5, l2=0.5):
    return EnsembleParams(n=n, lambda1=l1, lambda2=l2)


def ladder_at(params, symbol, n):
    return fh.hankel_log_ratios(params.lambda1, params.lambda2, symbol, (n,))[0]


class TestHankel:
    def test_bare_weight_matches_selberg(self):
        # no insertion: H_n[1] / H_n[1] = S_n / S_n, so the Gram matrix in the
        # basis orthonormal for the Selberg weight is the identity
        for n in (1, 2, 4, 7, 10):
            assert ladder_at(params_for(n), fh.SymbolSpec(), n) == pytest.approx(
                0.0, abs=1e-9)

    def test_single_moment(self):
        # n = 1: plain weighted moment of the insertion over the weight's mass
        rule = quad.power_panel(0.0, 1.0, 0.5, 0.5, 60)
        sym = fh.SymbolSpec(singularities=((0.5, 1.0),))
        direct = float(np.sum(rule.weights * np.abs(0.5 - rule.nodes) ** 2))
        assert ladder_at(params_for(1), sym, 1) == pytest.approx(
            math.log(direct) - log_beta(1.5, 1.5), abs=1e-12)

    def test_even_insertion_matches_heine(self):
        sym = fh.SymbolSpec(singularities=((0.5, 1.0),))
        for n in (2, 5, 10):
            avg = average_even_power_heine(params_for(n), 0.5, 2)
            assert ladder_at(params_for(n), sym, n) == pytest.approx(
                avg.log_abs, abs=1e-9)
        oracle = tensor_oracle.average(params_for(2), sym.singularities)
        assert ladder_at(params_for(2), sym, 2) == pytest.approx(
            math.log(oracle), abs=1e-12)

    def test_endpoint_charges_shift_the_exponents(self):
        # |0 - x|^(2q0) |1 - x|^(2q1) is the weight x^(2q0) (1-x)^(2q1): the
        # ratio is a quotient of Selberg integrals
        n, q0, q1 = 6, 0.3, 0.7
        sym = fh.SymbolSpec(singularities=((1.0, q1), (0.0, q0)))
        expected = (selberg_closed(n, 0.5 + 2 * q0, -0.25 + 2 * q1).log_abs
                    - selberg_closed(n, 0.5, -0.25).log_abs)
        assert ladder_at(params_for(n, 0.5, -0.25), sym, n) == pytest.approx(
            expected, abs=1e-12)

    def test_balanced_ratio_needs_interior_charges(self):
        for y in (0.0, 1.0):
            with pytest.raises(DomainError):
                fh.hankel_balanced_log_ratio(params_for(3),
                                             fh.SymbolSpec(singularities=((y, 1.0),)), 3)

    def test_reflection_symmetry(self):
        # singularity at y with (l1, l2) equals singularity at 1-y with (l2, l1)
        a = ladder_at(params_for(6, 0.5, -0.25), fh.SymbolSpec(singularities=((0.3, 0.5),)), 6)
        b = ladder_at(params_for(6, -0.25, 0.5), fh.SymbolSpec(singularities=((0.7, 0.5),)), 6)
        assert a == pytest.approx(b, abs=1e-10)


def one_size_jacobi_asymptote(symbol, n):
    # the per-size sum the ladders replace, kept term for term
    qs = symbol.singularities
    total = 0.0
    for _, q in qs:
        total += (-q + q * q) * math.log(2.0 * n)
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            total += -2.0 * qs[i][1] * qs[j][1] * math.log(abs(qs[j][0] - qs[i][0]))
    for y, q in qs:
        total += -0.5 * q * q * math.log(y * (1.0 - y))
        total += -q * math.log(math.pi) + 2.0 * log_barnes_g(q + 1.0) - log_barnes_g(2.0 * q + 1.0)
    return total


def one_size_toeplitz_asymptote(a, N):
    return a * a * math.log(N) + 2.0 * log_barnes_g(1.0 + a) - log_barnes_g(1.0 + 2.0 * a)


class TestAsymptoteLadders:
    # the n-independent terms are taken once per ladder and added in the
    # one-size order, so every entry keeps the one-size bits

    def test_jacobi_ladder_matches_one_size_bits(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            ys = rng.choice(np.arange(1, 100) / 100.0, size=rng.integers(0, 4), replace=False)
            symbol = fh.SymbolSpec(singularities=tuple(
                (float(y), float(q)) for y, q in zip(ys, rng.uniform(0.01, 3.0, len(ys)))))
            sizes = tuple(int(n) for n in rng.integers(1, 5000, rng.integers(1, 6)))
            want = [one_size_jacobi_asymptote(symbol, n) for n in sizes]
            assert fh.jacobi_fh_asymptotes(symbol, sizes) == want
            assert [fh.jacobi_fh_asymptotes(symbol, (n,))[0] for n in sizes] == want

    def test_toeplitz_ladder_matches_one_size_bits(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = float(rng.uniform(0.001, 5.0))
            symbol = fh.SymbolSpec(singularities=((float(rng.uniform(-3.0, 3.0)), a),))
            sizes = tuple(int(n) for n in rng.integers(1, 5000, rng.integers(1, 6)))
            want = [one_size_toeplitz_asymptote(a, N) for N in sizes]
            assert fh.toeplitz_fh_asymptotes(symbol, sizes) == want
            assert [fh.toeplitz_fh_asymptotes(symbol, (N,))[0] for N in sizes] == want

    def test_cli_takes_each_constant_once(self, monkeypatch, capsys):
        # one charge: log G(q + 1) and log G(2q + 1), once per request
        # rather than once per size
        calls = []

        def counting(z):
            calls.append(z)
            return log_barnes_g(z)

        monkeypatch.setattr(fh, "log_barnes_g", counting)
        for argv in (["fh-jacobi", "--sizes", "8,16,32,48"],
                     ["fh-toeplitz", "--sizes", "8,16,32,48"]):
            calls.clear()
            assert cli.main(argv) == 0
            assert len(calls) == 2, argv
        capsys.readouterr()


class TestJacobiAsymptote:
    def test_empty_symbol(self):
        assert fh.jacobi_fh_asymptotes(fh.SymbolSpec(), (9,)) == [0.0]

    def test_half_charge_constant(self):
        # q = 1/2 at y = 1/2: -(1/4) log 2n plus the closed constant
        n = 8
        sym = fh.SymbolSpec(singularities=((0.5, 0.5),))
        log_k = (-0.125 * math.log(0.25) - 0.5 * math.log(math.pi)
                 + 2.0 * log_barnes_g(1.5) - log_barnes_g(2.0))
        expected = -0.25 * math.log(2.0 * n) + log_k
        assert fh.jacobi_fh_asymptotes(sym, (n,))[0] == pytest.approx(
            expected, rel=1e-13)

    def test_balanced_ratio_drift(self):
        sym = fh.SymbolSpec(singularities=((0.5, 0.5),))
        deltas = []
        for n in (8, 16, 32, 48):
            p = params_for(n)
            deltas.append(abs(fh.hankel_balanced_log_ratio(p, sym, n)
                              - fh.jacobi_fh_asymptotes(sym, (n,))[0]))
        assert deltas[0] > deltas[1] > deltas[2] > deltas[3]


class TestToeplitz:
    def test_identity_symbol(self):
        det = fh.toeplitz_determinant(fh.SymbolSpec(), 5)
        assert det.log_abs == pytest.approx(0.0, abs=1e-12)

    def test_singular_symbol_drift(self):
        sym = fh.SymbolSpec(singularities=((0.0, 0.5),))
        target = 2.0 * log_barnes_g(1.5) - log_barnes_g(2.0)
        gaps = [abs(fh.toeplitz_determinant(sym, N).log_abs - 0.25 * math.log(N)
                    - target) for N in (8, 16, 32, 48)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] <= 0.02

    def test_rotation_invariance(self):
        # the closed form does not see phi; the explicit matrices do
        a = explicit_log_det(fh.SymbolSpec(singularities=((0.7, 0.5),)), 12)
        b = explicit_log_det(fh.SymbolSpec(singularities=((2.1, 0.5),)), 12)
        assert a == pytest.approx(b, abs=1e-12)

    def test_asymptote_formula(self):
        # a^2 log N + log G(1+a)^2 / G(1+2a)
        one = fh.SymbolSpec(singularities=((0.4, 0.5),))
        expected = 0.25 * math.log(10.0) + 2.0 * log_barnes_g(1.5) - log_barnes_g(2.0)
        assert fh.toeplitz_fh_asymptotes(one, (10,))[0] == pytest.approx(expected, rel=1e-13)

    def test_two_zeros_are_a_domain_error(self):
        two = fh.SymbolSpec(singularities=((0.7, 0.5), (2.1, 0.3)))
        with pytest.raises(DomainError, match="at most one zero"):
            fh.toeplitz_log_dets(two, (4,))
        with pytest.raises(DomainError, match="at most one zero"):
            fh.toeplitz_fh_asymptotes(two, (4,))
        with pytest.raises(DomainError, match="at most one zero"):
            fh._toeplitz_fourier_coeffs(two, 4)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            fh.toeplitz_determinant(fh.SymbolSpec(), 0)


LADDER_SIZES = (40, 7, 1, 40, 23, 2)


def explicit_log_det(symbol, N):
    # slogdet of the N x N Toeplitz matrix [c_{j-k}] of the exact coefficients
    coeffs = fh._toeplitz_fourier_coeffs(symbol, N - 1)
    idx = N - 1 + np.arange(N)[:, None] - np.arange(N)[None, :]
    sign, logdet = np.linalg.slogdet(coeffs[idx])
    assert abs(sign - 1.0) < 1e-12
    return logdet


def gram_matrix(params, symbol, n_max):
    # the Gram matrix the ladder factorises, built the same way
    rule = quad.charge_rule(params.lambda1, params.lambda2, symbol.singularities, n_max + 30)
    p = orthonormal_polynomials(n_max - 1, params.lambda1, params.lambda2, rule.nodes)
    return (p * rule.weights) @ p.T


class TestLadders:
    @pytest.mark.parametrize("symbol", [
        fh.SymbolSpec(singularities=((0.3, 0.5),)),
        fh.SymbolSpec(singularities=((0.3, 0.5), (0.8, 0.7))),
        fh.SymbolSpec(singularities=((0.1, 1.0), (0.6, 0.25), (0.9, 0.4))),
    ])
    def test_hankel_rungs_are_leading_minors(self, symbol):
        params = params_for(1, 0.5, -0.25)
        gram = gram_matrix(params, symbol, max(LADDER_SIZES))
        expected = []
        for n in LADDER_SIZES:
            sign, logdet = np.linalg.slogdet(gram[:n, :n])
            assert sign == 1.0
            expected.append(logdet)
        got = fh.hankel_log_ratios(params.lambda1, params.lambda2, symbol, LADDER_SIZES)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-11)

    def test_one_size_views_agree_with_ladders(self):
        params = params_for(12)
        symbol = fh.SymbolSpec(singularities=((0.4, 0.5),))
        assert fh.hankel_balanced_log_ratio(params, symbol, 12) == (
            fh.hankel_balanced_log_ratios(0.5, 0.5, symbol, (12,))[0])
        circle = fh.SymbolSpec(singularities=((0.0, 0.5),))
        det = fh.toeplitz_determinant(circle, 12)
        assert det.log_abs == fh.toeplitz_log_dets(circle, (12,))[0]

    @pytest.mark.parametrize("symbol", [
        fh.SymbolSpec(singularities=((phi, q),)) for q in (0.3, 1.3) for phi in (0.0, 0.7, -2.0)
    ])
    def test_toeplitz_rungs_are_explicit_determinants(self, symbol):
        expected = [explicit_log_det(symbol, N) for N in LADDER_SIZES]
        got = fh.toeplitz_log_dets(symbol, LADDER_SIZES)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_sizes_must_be_positive(self):
        symbol = fh.SymbolSpec(singularities=((0.3, 0.5),))
        for sizes in ((), (4, 0, 8), (-1,)):
            with pytest.raises(DomainError):
                fh.hankel_log_ratios(0.5, 0.5, symbol, sizes)
            with pytest.raises(DomainError):
                fh.toeplitz_log_dets(symbol, sizes)
            # the asymptotes took log(0) as a bare "math domain error"
            with pytest.raises(DomainError):
                fh.jacobi_fh_asymptotes(symbol, sizes)
            with pytest.raises(DomainError):
                fh.toeplitz_fh_asymptotes(symbol, sizes)

    def test_sizes_must_be_integers(self):
        # a fractional size was cast down: (2.7,) returned the n = 2 rung
        symbol = fh.SymbolSpec(singularities=((0.3, 0.5),))
        for sizes in ((2.7,), (3.9,), (4, 8.0), np.array([2.0, 4.0])):
            with pytest.raises(DomainError, match="^sizes must be integers"):
                fh.hankel_log_ratios(0.5, 0.5, symbol, sizes)
            with pytest.raises(DomainError, match="^sizes must be integers"):
                fh.toeplitz_log_dets(symbol, sizes)
            # the asymptotes returned a value at a fractional size
            with pytest.raises(DomainError, match="^sizes must be integers"):
                fh.jacobi_fh_asymptotes(symbol, sizes)
            with pytest.raises(DomainError, match="^sizes must be integers"):
                fh.toeplitz_fh_asymptotes(symbol, sizes)
        with pytest.raises(DomainError, match="^size must be >= 1, got 0$"):
            fh.toeplitz_log_dets(symbol, (4, 0, 8))
        sizes = np.arange(1, 5)
        np.testing.assert_array_equal(fh.toeplitz_log_dets(symbol, sizes),
                                      fh.toeplitz_log_dets(symbol, sizes.tolist()))

    def test_lost_positivity_is_a_domain_error(self, monkeypatch):
        # three nodes carry only three orthogonal polynomials: the sweep's
        # fourth rung has no residual left beyond rounding (b~_3 ~ 1e-16)
        def three_nodes(lambda1, lambda2, charges, order):
            return quad.power_panel(0.0, 1.0, lambda1, lambda2, 3)

        monkeypatch.setattr(fh.quad, "charge_rule", three_nodes)
        np.testing.assert_allclose(
            fh.hankel_log_ratios(0.5, 0.5, fh.SymbolSpec(), (1, 2, 3)), 0.0, atol=1e-14)
        with pytest.raises(DomainError, match="lost positivity below n = 4"):
            fh.hankel_log_ratios(0.5, 0.5, fh.SymbolSpec(), (4,))
        # the message names the rung that failed, not the largest size asked for
        with pytest.raises(DomainError, match="^Hankel ladder lost positivity below n = 4$"):
            fh.hankel_log_ratios(0.5, 0.5, fh.SymbolSpec(), (2, 6))

    def test_weight_is_checked_before_any_rule_is_built(self, monkeypatch):
        # the recurrence's check names the weight as given; a charge rule
        # asked first would name its panels' absorbed exponents
        requested, built = [], []
        panel, build = quad._panel, quad._golub_welsch
        monkeypatch.setattr(quad, "_panel", lambda *args: requested.append(args) or panel(*args))
        monkeypatch.setattr(quad, "_golub_welsch",
                            lambda *args: built.append(args) or build(*args))
        symbol = fh.SymbolSpec(singularities=((0.5, 0.5),))
        for ladder in (fh.hankel_log_ratios, fh.hankel_balanced_log_ratios):
            with pytest.raises(DomainError, match=r"^weight exponents must exceed -1, "
                                                  r"got \(-1\.5, 0\.5\)$"):
                ladder(-1.5, 0.5, symbol, (8, 16, 32, 48))
        assert requested == [] and built == []

    def test_non_finite_weights_are_a_domain_error(self, monkeypatch):
        def poisoned(lambda1, lambda2, charges, order):
            rule = quad.power_panel(0.0, 1.0, lambda1, lambda2, order)
            return quad.QuadratureRule(rule.nodes, np.where(rule.nodes > 0.5, np.nan,
                                                            rule.weights))

        monkeypatch.setattr(fh.quad, "charge_rule", poisoned)
        for n in (1, 5):
            with pytest.raises(DomainError, match="lost positivity"):
                fh.hankel_log_ratios(0.5, 0.5, fh.SymbolSpec(), (n,))


COLLAR_SIZES = (16, 98, 128, 200, 256, 512)
# each weight exponent once on each side
COLLAR_WEIGHTS = ((-0.5, 0.5), (0.0, 1.0), (0.5, -0.5), (1.0, 0.0))

# one charge of each kind the engine meets: a non-integer one (collared from
# n_max = 98 on), a unit one, the density matrix's two half charges and one
# a hundredth of a spacing from a wall
SWEEP_SYMBOLS = [fh.SymbolSpec(singularities=charges) for charges in (
    ((0.37, 0.43),), ((0.37, 1.0),), ((0.2, 0.5), (0.71, 0.5)), ((1e-4, 0.7),))]
SWEEP_WEIGHTS = [(l1, l2) for l1 in (-0.5, 0.0, 0.5, 1.0) for l2 in (-0.5, 0.0, 0.5, 1.0)]
# measured worst gaps of the BLAS steps to the numpy sweep, in the log, over
# SWEEP_SYMBOLS and all sixteen weights: 2.3e-13 at n = 100, 5.7e-13 at 128,
# 3.4e-12 at 512 and 1.05e-11 at 1024
BLAS_STEP_GAP = {100: 1e-12, 128: 1.5e-12, 512: 1e-11, 1024: 3e-11}


def outcome(ladder, *args):
    # the rungs, or the DomainError message
    try:
        return ladder(*args)
    except DomainError as exc:
        return str(exc)


class TestNumpySweep:
    # Below rule order ensembles._DENSE_EIGEN_ORDERS the engine steps with
    # numpy arithmetic, from it with in-place BLAS level-1 calls

    def test_largest_numpy_ladder_is_n_99(self):
        assert 99 + quad.SPARE_ORDER == ensembles._DENSE_EIGEN_ORDERS - 1

    @pytest.mark.parametrize("symbol", SWEEP_SYMBOLS)
    def test_numpy_steps_return_the_numpy_sweeps_bits(self, symbol):
        sizes = (1, 5, 40, 97, 98, 99)
        for l1, l2 in SWEEP_WEIGHTS:
            params = params_for(1, l1, l2)
            for ladder in (sizes, (97,), (99,)):
                np.testing.assert_array_equal(
                    fh.hankel_log_ratios(l1, l2, symbol, ladder),
                    stieltjes_oracle.hankel_log_ratios(params, symbol, ladder),
                    err_msg=f"weight=({l1}, {l2})")

    @pytest.mark.parametrize("symbol", SWEEP_SYMBOLS)
    def test_blas_steps_stay_near_the_numpy_sweep(self, symbol):
        for l1, l2 in COLLAR_WEIGHTS:
            params = params_for(1, l1, l2)
            for ladder in ((100,), (128,), (512,), (1024,)):
                got = fh.hankel_log_ratios(l1, l2, symbol, ladder)
                ref = stieltjes_oracle.hankel_log_ratios(params, symbol, ladder)
                n = ladder[0]
                assert abs(got[0] - ref[0]) <= BLAS_STEP_GAP[n], (n, l1, l2, got[0] - ref[0])

    def test_long_dots_sum_single_thread_blocks_in_order(self):
        block = fh._DOT_BLOCK
        assert fh._blocked(np.dot, block) is np.dot
        rng = np.random.default_rng(7)
        a, c = rng.standard_normal((2, 3 * block + 5))
        expected = np.dot(a[:block], c[:block])
        for i in (block, 2 * block, 3 * block):
            expected += np.dot(a[i:i + block], c[i:i + block])
        assert fh._blocked(np.dot, len(a))(a, c) == expected

    @pytest.mark.parametrize("nodes, n_max", [(3, 100), (60, 100), (117, 128), (400, 512)])
    def test_blas_steps_lose_positivity_at_the_numpy_rung(self, monkeypatch, nodes, n_max):
        # a rule of `nodes` nodes carries that many orthogonal polynomials
        def short(lambda1, lambda2, charges, order):
            return quad.power_panel(0.0, 1.0, lambda1, lambda2, nodes)

        monkeypatch.setattr(fh.quad, "charge_rule", short)
        for sizes in ((n_max,), (2, nodes, n_max)):
            message = outcome(stieltjes_oracle.hankel_log_ratios, params_for(1), fh.SymbolSpec(),
                              sizes)
            assert message == f"Hankel ladder lost positivity below n = {nodes + 1}"
            assert outcome(fh.hankel_log_ratios, 0.5, 0.5, fh.SymbolSpec(),
                           sizes) == message

    @pytest.mark.parametrize("n_max", [5, 100, 512])
    @pytest.mark.parametrize("poison", ["weights", "nodes"])
    def test_non_finite_rules_are_a_domain_error_on_both_steps(self, monkeypatch, n_max,
                                                               poison):
        def poisoned(lambda1, lambda2, charges, order):
            rule = quad.power_panel(0.0, 1.0, lambda1, lambda2, order)
            x, w = rule.nodes.copy(), rule.weights.copy()
            (w if poison == "weights" else x)[-1] = np.nan
            # a bare record: QuadratureRule itself rejects a NaN node
            return types.SimpleNamespace(nodes=x, weights=w)

        monkeypatch.setattr(fh.quad, "charge_rule", poisoned)
        message = outcome(stieltjes_oracle.hankel_log_ratios, params_for(1), fh.SymbolSpec(),
                          (n_max,))
        assert isinstance(message, str) and "lost positivity" in message
        assert outcome(fh.hankel_log_ratios, 0.5, 0.5, fh.SymbolSpec(), (n_max,)) == message


def ladder_on(rule, lambda1, lambda2, symbol):
    # the same sweep on another charge rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fh.quad, "charge_rule", rule)
        return fh.hankel_log_ratios(lambda1, lambda2, symbol, COLLAR_SIZES)


class TestCollaredLadder:
    # From n_max = 98 (rule order 128) a non-integer charge sits in two
    # 16-node collars.  Measured worst gaps to the un-collared rule, in the
    # log: 6.8e-11 over the single charges, 9.4e-11 for the close pair.  The
    # un-collared rule itself moves by up to 9.1e-11 at these sizes when
    # each of its panels gains 100 nodes.

    @pytest.mark.parametrize("q", [0.15, 0.5, 0.85, 1.7])
    def test_ladder_matches_uncollared_rule(self, q):
        for y in (1e-3, 0.01, 0.05, 0.3, 0.95, 0.99, 0.999):
            for l1, l2 in COLLAR_WEIGHTS:
                symbol = fh.SymbolSpec(singularities=((y, q),))
                got = fh.hankel_log_ratios(l1, l2, symbol, COLLAR_SIZES)
                ref = ladder_on(uncollared_charge_rule, l1, l2, symbol)
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9,
                                           err_msg=f"y={y}, weight=({l1}, {l2})")

    def test_close_charges_match_uncollared_rule(self):
        symbol = fh.SymbolSpec(singularities=((0.3, 0.35), (0.3004, 0.6)))
        for l1 in (-0.5, 0.0, 0.5, 1.0):
            for l2 in (-0.5, 0.0, 0.5, 1.0):
                np.testing.assert_allclose(
                    fh.hankel_log_ratios(l1, l2, symbol, COLLAR_SIZES),
                    ladder_on(uncollared_charge_rule, l1, l2, symbol), rtol=0.0, atol=1e-9,
                    err_msg=f"weight=({l1}, {l2})")

    @pytest.mark.parametrize("y", [1e-4, 1.0 - 1e-4])
    def test_collars_near_a_wall_resolve_the_polynomials(self, y):
        # the reference is the un-collared rule with 100 more nodes per
        # panel.  Measured gaps to it: 9.8e-8 collared, 9.0e-8 un-collared
        # at the ladder's own order, and 3.0e-4 with collars of the full
        # width (18 / K)^2 L, too wide for 16 nodes to resolve polynomials
        # of degree 2K this close to a wall
        def refined(lambda1, lambda2, charges, order):
            return uncollared_charge_rule(lambda1, lambda2, charges, order + 100)

        for q in (0.15, 0.85, 1.7):
            for l1, l2 in COLLAR_WEIGHTS:
                symbol = fh.SymbolSpec(singularities=((y, q),))
                got = fh.hankel_log_ratios(l1, l2, symbol, COLLAR_SIZES)
                ref = ladder_on(refined, l1, l2, symbol)
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6,
                                           err_msg=f"q={q}, weight=({l1}, {l2})")

    def test_new_charge_builds_no_full_order_rule(self, monkeypatch):
        fh.hankel_log_ratios(0.5, -0.5, fh.SymbolSpec(singularities=((0.41, 0.37),)), (512,))
        build, builds = quad._golub_welsch, []

        def counting(order, alpha, beta):
            builds.append(order)
            return build(order, alpha, beta)

        monkeypatch.setattr(quad, "_golub_welsch", counting)
        fh.hankel_log_ratios(0.5, -0.5, fh.SymbolSpec(singularities=((0.6317, 0.7131),)), (512,))
        # the collars' rules, (0, 2q) left of the charge and (2q, 0) right
        # of it, are one rule and its mirror: the only new build
        assert builds == [quad._COLLAR_NODES]

    def test_results_do_not_depend_on_the_cache(self):
        symbol = fh.SymbolSpec(singularities=((0.27, 0.43), (0.81, 1.2)))
        warm = fh.hankel_log_ratios(-0.5, 1.0, symbol, COLLAR_SIZES)
        quad._jacobi_nodes_weights.cache_clear()
        np.testing.assert_array_equal(fh.hankel_log_ratios(-0.5, 1.0, symbol, COLLAR_SIZES), warm)


class TestMorrisReference:
    # one zero: D_N[|1 - e^{i theta}|^{2a}] = M_N(a, a) / N!, the circular
    # Morris integral, at every N

    @pytest.mark.parametrize("a, tol", [(0.3, 1e-9), (0.5, 1e-9), (1.0, 1e-9), (1.7, 1e-6)])
    def test_ladder_matches_morris(self, a, tol):
        sizes = (256, 512, 1024)
        got = fh.toeplitz_log_dets(fh.SymbolSpec(singularities=((0.0, a),)), sizes)
        for N, log_d in zip(sizes, got):
            ref = morris_closed(MorrisParams(N, a, a)).log_abs - math.lgamma(N + 1.0)
            assert abs(log_d - ref) <= tol, (N, log_d - ref)

    @staticmethod
    def mpmath_log_dets(a, sizes):
        # 40-digit log of prod_{j<N} Gamma(2a+1+j) Gamma(1+j) / Gamma(a+1+j)^2
        with mp.workdps(40):
            x = mp.mpf(a)
            terms = [mp.loggamma(2 * x + 1 + j) + mp.loggamma(1 + j) - 2 * mp.loggamma(x + 1 + j)
                     for j in range(max(sizes))]
            return [float(mp.fsum(terms[:N])) for N in sizes]

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.9, 1.0, 1.7])
    def test_ladder_matches_mpmath(self, a):
        # the j = 0 term log Gamma(2a+1)/Gamma(a+1)^2 enters every rung N
        # times, so its rounding sets the floor at N = 1024: 1.1e-12 at
        # a = 0.1 as a difference of two lgamma values, 4.3e-13 now
        sizes = (256, 512, 1024)
        got = fh.toeplitz_log_dets(fh.SymbolSpec(singularities=((0.0, a),)), sizes)
        np.testing.assert_allclose(got, self.mpmath_log_dets(a, sizes), rtol=0.0, atol=8e-13)

    def test_large_zero_stays_finite_and_accurate(self):
        # Gamma(2a+1) overflows a double far below a = 600
        sizes = (1, 2, 8, 64)
        got = fh.toeplitz_log_dets(fh.SymbolSpec(singularities=((0.0, 600.0),)), sizes)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, self.mpmath_log_dets(600.0, sizes), rtol=1e-14, atol=0.0)

    def test_unit_charge_is_n_plus_one(self):
        # D_N[|1 - e^{i theta}|^2] = N + 1
        sizes = np.arange(1, 1025)
        got = fh.toeplitz_log_dets(fh.SymbolSpec(singularities=((0.0, 1.0),)), sizes)
        np.testing.assert_allclose(got, np.log(sizes + 1.0), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_closed_form_coefficients_match_quadrature(self, a, phi):
        # 30-digit tanh-sinh quadrature of the symbol, split at its zero
        symbol = fh.SymbolSpec(singularities=((phi, a),))
        closed = fh._toeplitz_fourier_coeffs(symbol, 8)
        with mp.workdps(30):
            for p in range(-8, 9):
                ref = mp.quad(lambda th: (2 - 2 * mp.cos(th - phi)) ** a * mp.exp(-1j * p * th),
                              [phi, phi + mp.pi, phi + 2 * mp.pi]) / (2 * mp.pi)
                assert abs(closed[8 + p] - complex(ref)) <= 1e-14


class TestConvergenceRate:
    SIZES = (8, 16, 32, 64, 128, 256, 512)

    def scaled_drift(self, y, q, lam):
        symbol = fh.SymbolSpec(singularities=((y, q),))
        exact = fh.hankel_balanced_log_ratios(lam, lam, symbol, self.SIZES)
        predicted = fh.jacobi_fh_asymptotes(symbol, self.SIZES)
        return [n * abs(ex - pred) for n, ex, pred in zip(self.SIZES, exact, predicted)]

    @pytest.mark.parametrize("y, q, lam", [(0.5, 0.5, 0.5), (0.3, 0.5, 0.5),
                                           (0.5, 0.9, -0.5), (0.2, 0.3, 1.0)])
    def test_drift_is_order_one_over_n(self, y, q, lam):
        assert max(self.scaled_drift(y, q, lam)) <= 1.0

    def test_band_centre_drift_is_a_steady_one_over_n(self):
        scaled = self.scaled_drift(0.5, 0.5, 0.5)
        assert all(0.09 <= s <= 0.13 for s in scaled), scaled


class TestSymbolSpec:
    def test_symbol_validation(self):
        with pytest.raises(DomainError):
            fh.SymbolSpec(singularities=((0.3, 0.5), (0.3, 0.2)))
        with pytest.raises(DomainError):
            fh.SymbolSpec(singularities=((0.3, 0.0),))
        # a NaN strength passed `strength <= 0` and gave log D_8 = nan
        with pytest.raises(DomainError, match="^singularity strength must be positive, got nan$"):
            fh.SymbolSpec(singularities=((0.0, math.nan),))
