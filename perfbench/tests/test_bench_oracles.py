"""The benchmark's independent oracles against the library at small sizes,
and the request checks on synthetic outputs."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from selberg_gas import averages, exact  # noqa: E402
from selberg_gas import fisherhartwig as fh  # noqa: E402
from selberg_gas.exact import DensityMatrixQuery, EnsembleParams  # noqa: E402


def library(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        pytest.skip(f"{module.__name__}.{name} no longer exists")
    return fn


@pytest.mark.parametrize("n,l1,l2,y", [(3, 0.5, 0.5, 0.3), (16, -0.5, 1.0, 0.7),
                                       (40, 0.0, 0.5, 0.2)])
def test_unit_charge_hankel_is_the_one_point_density(n, l1, l2, y):
    params = EnsembleParams(n=n, lambda1=l1, lambda2=l2)
    ref = oracles.log_one_point_density(n, l1, l2, y)
    symbol = fh.SymbolSpec(singularities=((y, 1.0),))
    assert abs(fh.hankel_balanced_log_ratio(params, symbol, n) - ref) < 1e-10
    heine = library(averages, "average_even_power_heine")(params, y, 2)
    log_heine = (heine.log_abs + l1 * math.log(y) + l2 * math.log(1.0 - y)
                 + exact.selberg_closed(n, l1, l2).log_abs
                 - exact.selberg_closed(n + 1, l1, l2).log_abs)
    assert abs(log_heine - ref) < 1e-10


def test_unit_charge_toeplitz_is_n_plus_one():
    symbol = fh.SymbolSpec(singularities=((0.0, 1.0),))
    for N in (8, 33, 64):
        assert abs(fh.toeplitz_determinant(symbol, N).log_abs
                   - oracles.log_toeplitz_unit_charge(N)) < 1e-11


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_exact_density_matrix_matches_brute_force(boundary):
    brute = library(averages, "density_matrix_bruteforce")
    for N, X, Y in ((1, 0.2, 0.7), (2, 0.3, 0.8), (3, 0.475, 0.525)):
        query = DensityMatrixQuery(N=N, X=X, Y=Y, boundary=boundary)
        value, _ = oracles.density_matrix_exact(N, query.weight_exponent(), X, Y)
        assert abs(value / brute(query) - 1.0) < 1e-11


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_exact_density_matrix_matches_balanced_hankel_ratio(boundary):
    N = 14
    for X in (0.025, 0.475):
        Y = 1.0 - X
        lam = 0.5 if boundary == "dirichlet" else -0.5
        params = EnsembleParams(n=N, lambda1=lam, lambda2=lam)
        symbol = fh.SymbolSpec(singularities=((X, 0.5), (Y, 0.5)))
        ref = (math.pi * N / math.sqrt(abs(X - Y)) * (X * (1 - X) * Y * (1 - Y)) ** 0.25
               * math.exp(fh.hankel_balanced_log_ratio(params, symbol, N)))
        value, _ = oracles.density_matrix_exact(N, lam, X, Y)
        assert abs(value / ref - 1.0) < 1e-11


def test_sample_spread_matches_tensor_quadrature():
    brute = library(averages, "average_product_bruteforce")
    N, lam, X, Y = 2, 0.5, 0.3, 0.55
    params = EnsembleParams(n=N, lambda1=lam, lambda2=lam)
    first = brute(params, averages.ChargeConfig(((X, 0.5), (Y, 0.5))))
    second = brute(params, averages.ChargeConfig(((X, 1.0), (Y, 1.0))))
    _, rel_sd = oracles.density_matrix_exact(N, lam, X, Y)
    assert abs(rel_sd - math.sqrt(second / first ** 2 - 1.0)) < 1e-10


def test_power_sums_match_tensor_quadrature():
    from selberg_gas import quadrature as quad

    axis = quad.power_panel(0.0, 1.0, 0.5, -0.5, 30)
    den = quad.tensor_integrate(lambda x, y: (y - x) ** 2, [axis, axis])
    s1 = quad.tensor_integrate(lambda x, y: (x + y) * (y - x) ** 2, [axis, axis]) / den
    s2 = quad.tensor_integrate(lambda x, y: (x * x + y * y) * (y - x) ** 2, [axis, axis]) / den
    e1, e2 = oracles.expected_power_sums(2, 0.5, -0.5)
    assert abs(e1 - s1) < 1e-13 and abs(e2 - s2) < 1e-13


def test_closed_form_oracles_match_library():
    assert abs(oracles.log_selberg_quadrature(3, 1.0, -0.5)
               - exact.selberg_closed(3, 1.0, -0.5).log_abs) < 1e-12
    assert abs(oracles.log_morris_quadrature(2, 3, 1)
               - exact.morris_closed(exact.MorrisParams(2, 3.0, 1.0)).log_abs) < 1e-12
    q = DensityMatrixQuery(N=30, X=0.2, Y=0.9)
    assert abs(oracles.density_matrix_asymptote(30, 0.2, 0.9)
               / exact.density_matrix_asymptote(q) - 1.0) < 1e-13


def _table1_text(values):
    rows = []
    for X, v in zip(workloads.TABLE1_XS, values):
        asym = oracles.density_matrix_asymptote(14, X, 1.0 - X)
        rows.append({"X": X, "mc_value": v, "std_error": 0.1 * v, "asymptote": asym,
                     "ratio": v / asym})
    return json.dumps({"config": {"subcommand": "table1"}, "results": rows})


def test_table1_check_accepts_exact_values_and_rejects_a_scaled_estimator():
    import random

    req = workloads._table1(random.Random(0), replay=False)
    exact_values = [oracles.density_matrix_exact(14, 0.5, X, 1.0 - X)[0]
                    for X in workloads.TABLE1_XS]
    req.check(_table1_text(exact_values))
    with pytest.raises(workloads.CheckFailed):
        req.check(_table1_text([0.01 * v for v in exact_values]))
    with pytest.raises(workloads.CheckFailed):
        req.check(_table1_text([3.0 * v for v in exact_values]))


def test_pooling_catches_a_bias_single_requests_miss():
    key = (14, 0.5, 0.125, 0.875)
    exact, rel_sd = oracles.density_matrix_exact(*key)
    se = exact * rel_sd / 10.0
    biased = workloads.MCPoint(key, 1.6 * exact, se, 100)
    workloads._check_mc(biased.value, se, 100, key)  # passes alone
    assert key in workloads.pooled_mc_failures([biased] * 8)
    fair = workloads.MCPoint(key, exact, se, 100)
    assert workloads.pooled_mc_failures([fair] * 8) == {}


def test_replay_must_match_byte_for_byte():
    import random

    original = workloads._table1(random.Random(0), replay=True)
    replay = workloads.replay_request(original, "abc\n")
    assert replay.threads == 2 and "--threads" in replay.argv
    assert replay.argv[replay.argv.index("--threads") + 1] == "2"
    replay.check("abc\n")
    with pytest.raises(workloads.CheckFailed):
        replay.check("abd\n")
