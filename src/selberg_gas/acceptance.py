"""Acceptance suite: one callable per criterion, shared by the CLI
`validate` subcommand and the pytest suite.

Each criterion pins its tolerances here; nothing is deferred to runtime
calibration.  Functions return a CriterionResult rather than raising so
the full table always prints.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from . import fisherhartwig as fh
from . import quadrature as quad
from .ensembles import sample_jacobi_matrices, spectra
from .exact import EnsembleParams, MorrisParams, morris_closed, selberg_closed
from .orbitals import (
    apply_kernel,
    contiguity_residuals,
    eigen_residuals,
    l_operator_on_s,
    appendix_s,
    orbital,
    porter_stirling_apply,
)
from .specfun import log_barnes_g


_MORRIS_MAX_POINTS = 512  # the finest grid per axis of `_morris_quadrature`


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _cli_columns(argv: list) -> dict:
    """The result columns the CLI prints for `argv`, computed in process."""
    return cli.execute(cli.build_parser().parse_args(argv))["results"]


def criterion_1_table1(seed: int = 42) -> CriterionResult:
    """Ten MC/asymptote ratios of `table1` at N = 14 from 5000 samples,
    bands [0.88, 1.17] pointwise and [0.97, 1.06] on the mean, and a 300 s
    runtime cap."""
    start = time.perf_counter()
    ratios = _cli_columns(["table1", "--n", "14", "--m-samples", "5000",
                           "--seed", str(seed)])["ratio"]
    # the time decides the verdict but stays out of the detail, which the
    # result body prints and which must not vary between identical runs
    runtime_ok = time.perf_counter() - start <= 300.0
    in_band = all(0.88 <= r <= 1.17 for r in ratios)
    mean = sum(ratios) / len(ratios)
    mean_ok = 0.97 <= mean <= 1.06
    detail = f"ratios {[f'{r:.4f}' for r in ratios]}, mean {mean:.4f}"
    if not runtime_ok:
        detail += ", over the 300 s cap"
    return CriterionResult(1, "density-matrix table reproduction",
                           in_band and mean_ok and runtime_ok, detail)


def criterion_2_duality() -> CriterionResult:
    """`duality-check` at n=m=2 for four (weight, t) cases, 1e-6 relative."""
    worst = 0.0
    for l in (0.5, -0.5):
        for t in (0.3, 0.7):
            rel_diff, = _cli_columns(["duality-check", "--n", "2", "--m", "2", "--t", str(t),
                                      "--lambda1", str(l), "--lambda2", str(l)])["rel_diff"]
            worst = max(worst, rel_diff)
    return CriterionResult(2, "Jacobi/circular duality identity", worst <= 1e-6,
                           f"worst relative defect {worst:.2e} (tol 1e-6)")


def _selberg_quadrature(n: int, a: float, b: float) -> float:
    axis = quad.power_panel(0.0, 1.0, a, b, 60)

    def vdm2(*coords):
        out = 1.0
        for j in range(n):
            for k in range(j + 1, n):
                out = out * (coords[k] - coords[j]) ** 2
        return out

    return quad.tensor_integrate(vdm2, [axis] * n)


def _morris_quadrature(n: int, a: float, b: float) -> float:
    """Morris integral M_n(a, b) by the equal-weight periodic rule at 16, 32,
    ... points per axis, up to _MORRIS_MAX_POINTS, until two successive
    grids agree to 1e-13 relative.

    The m-point midpoint-offset rule integrates e^(ik theta) exactly for
    0 < |k| < m.  At integer (a, b) the integrand
    prod_l (1 + z_l)^a (1 + conj z_l)^b prod_{j<k} |z_k - z_j|^2 is a Laurent
    polynomial of degree at most max(a, b) + n - 1, so every grid past that
    degree returns the exact value and the doubling stops at the first
    repeat.  A non-integer pair has a kink at the wrap point, never
    certifies early and runs to the cap.
    """
    def f(*thetas):
        val = 1.0
        for th in thetas:
            z = np.exp(1j * th)
            val = val * np.exp(1j * 0.5 * (a - b) * th) * np.abs(1.0 + z) ** (a + b)
        for j in range(n):
            for k in range(j + 1, n):
                val = val * (2.0 - 2.0 * np.cos(thetas[k] - thetas[j]))
        return val

    def grid_mean(m):
        return (quad.periodic_integrate(f, n, m) / (2.0 * math.pi) ** n).real

    m, prev = 16, grid_mean(16)
    while m < _MORRIS_MAX_POINTS:
        m *= 2
        cur = grid_mean(m)
        if abs(cur - prev) <= 1e-13 * abs(cur):
            return cur
        prev = cur
    return prev


def criterion_3_closed_forms() -> CriterionResult:
    """Selberg and Morris closed forms vs quadrature (1e-9); Barnes G at
    integers and the fourth-power half-integer anchor (5e-4)."""
    worst = 0.0
    for n in (1, 2):
        for (a, b) in ((0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (1.0, 0.5)):
            closed = math.exp(selberg_closed(n, a, b).log_abs)
            oracle = _selberg_quadrature(n, a, b)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    for (n, a, b) in ((1, 0.0, 0.0), (1, 2.0, 1.0), (2, 1.0, 1.0)):
        closed = math.exp(morris_closed(MorrisParams(n, a, b)).log_abs)
        oracle = _morris_quadrature(n, a, b)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    quad_ok = worst <= 1e-9

    g_targets = (1.0, 1.0, 1.0, 2.0, 12.0, 288.0)
    g_worst = max(abs(math.exp(log_barnes_g(float(k + 1))) - g_targets[k]) / g_targets[k]
                  for k in range(6))
    anchor = abs(4.0 * log_barnes_g(1.5) - math.log(1.3069))
    barnes_ok = g_worst <= 1e-10 and anchor <= 5e-4
    detail = (f"worst quadrature defect {worst:.2e} (tol 1e-9), integer-G defect "
              f"{g_worst:.2e}, half-integer anchor defect {anchor:.2e} (tol 5e-4)")
    return CriterionResult(3, "closed forms vs oracles", quad_ok and barnes_ok, detail)


def criterion_4_partition_ratio() -> CriterionResult:
    """Exact Z-ratio vs the 2/pi asymptote at t = 1/2: within 2% at n = 40
    with strictly shrinking deviations over n = 5, 10, 40.

    As stated this is unattainable: at t = 1/2 the exact ratio for the
    (1/2, 1/2) weight equals the asymptote exactly at odd n (the band
    center zeroes every odd orthonormal polynomial), so the deviation at
    n = 5 is zero, and the even-n deviation is exactly 1/(n+1), giving
    2.44% at n = 40.  The test is kept faithful to the stated numbers;
    the true convergence statement is covered by the unit suite.
    """
    target = 2.0 / math.pi
    devs = {}
    for n in (5, 10, 40):
        log_exact, = _cli_columns(["fh-jacobi", "--sizes", str(n), "--q", "1", "--y", "0.5",
                                   "--lambda1", "0.5", "--lambda2", "0.5"])["log_exact"]
        devs[n] = abs(math.exp(log_exact) - target) / target
    within = devs[40] <= 0.02
    chain = devs[40] < devs[10] < devs[5]
    detail = (f"deviations n=5: {devs[5]:.3e}, n=10: {devs[10]:.3e}, "
              f"n=40: {devs[40]:.3e}; need n40 <= 2e-2 and n40 < n10 < n5")
    return CriterionResult(4, "partition-ratio asymptote drift", within and chain, detail)


def criterion_5_jacobi_drift() -> CriterionResult:
    """Charge-balanced Jacobi determinant ratio vs its Fisher-Hartwig
    asymptote (Deift, Its & Krasovsky, Ann. of Math. 174 (2011),
    arXiv:0905.0443): |delta_n| strictly decreasing over n = 8, 16, 32, 48."""
    columns = _cli_columns(["fh-jacobi", "--sizes", "8,16,32,48", "--q", "0.5", "--y", "0.5",
                            "--lambda1", "0.5", "--lambda2", "0.5"])
    deltas = [abs(delta) for delta in columns["delta"]]
    decreasing = all(deltas[i] > deltas[i + 1] for i in range(len(deltas) - 1))
    return CriterionResult(5, "Jacobi-weight determinant drift", decreasing,
                           f"|delta| over sizes 8,16,32,48: "
                           f"{[f'{d:.5f}' for d in deltas]}")


def criterion_6_toeplitz() -> CriterionResult:
    """Classical singular-symbol check on the `fh-toeplitz` rows at q = 1/2:
    ln D_N - (1/4) ln N approaches ln(G^2(3/2)/G(2)) monotonically with
    final gap <= 0.02.  The detail also quotes the gap at N = 48 between the
    closed form D_N = M_N(1/2, 1/2) / N! and the determinant of the explicit
    48 x 48 Toeplitz matrix."""
    columns = _cli_columns(["fh-toeplitz", "--sizes", "8,16,32,48", "--q", "0.5"])
    gaps = [abs(delta) for delta in columns["delta"]]
    monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    final_ok = bool(gaps[-1] <= 0.02)
    coeffs = fh._toeplitz_fourier_coeffs(fh.SymbolSpec(singularities=((0.0, 0.5),)), 47)
    idx = 47 + np.arange(48)[:, None] - np.arange(48)[None, :]
    explicit_gap = abs(columns["log_exact"][-1] - np.linalg.slogdet(coeffs[idx])[1])
    return CriterionResult(6, "Toeplitz singular-symbol drift", monotone and final_ok,
                           f"gaps {[f'{g:.5f}' for g in gaps]}, final tol 0.02; "
                           f"gap to the explicit 48x48 determinant {explicit_gap:.1e}")


def criterion_7_orbitals() -> CriterionResult:
    """Kernel eigenrelation, the pi*sqrt(2) ground eigenvalue, closed-form
    kernel constancy for three exponents, and the orbital Gram matrix."""
    eig_worst = max(float(eigen_residuals(5, X).max()) for X in (0.1, 0.3, 0.5, 0.7, 0.9))
    eig_ok = eig_worst <= 1e-4

    ground = apply_kernel(0.5, lambda Y: np.ones_like(Y), 0.5, tol=1e-9)
    ground_def = abs(ground - math.pi * math.sqrt(2.0)) / (math.pi * math.sqrt(2.0))
    ground_ok = ground_def <= 1e-6

    ps_worst = max(abs(porter_stirling_apply(nu, x) - 1.0)
                   for nu in (0.25, 0.5, 0.75)
                   for x in np.linspace(0.05, 0.95, 10))
    ps_ok = ps_worst <= 1e-6

    rule = quad.power_panel(0.0, 1.0, -0.25, -0.25, 80)
    shapes = np.array([orbital(j, rule.nodes)
                       / (rule.nodes * (1.0 - rule.nodes)) ** 0.125 for j in range(9)])
    gram = (shapes * rule.weights) @ shapes.T / math.pi
    gram_dev = float(np.abs(gram - np.eye(9)).max())
    gram_ok = gram_dev <= 1e-8

    detail = (f"eigenrelation {eig_worst:.2e} (tol 1e-4), ground defect "
              f"{ground_def:.2e} (tol 1e-6), kernel constancy {ps_worst:.2e} "
              f"(tol 1e-6), Gram defect {gram_dev:.2e} (tol 1e-8)")
    return CriterionResult(7, "orbital spectrum",
                           eig_ok and ground_ok and ps_ok and gram_ok, detail)


def criterion_8_appendix() -> CriterionResult:
    """Contiguity relations (1e-10) and the analytic differential-operator
    eigenrelation on the hypergeometric sums (1e-9)."""
    cont_worst = 0.0
    for k in range(7):
        for z in (0.1, 0.5, 0.9):
            r1, r2 = contiguity_residuals(k, z)
            cont_worst = max(cont_worst, abs(r1), abs(r2))
    cont_ok = cont_worst <= 1e-10

    eig_worst = 0.0
    for j in range(6):
        for z in (0.2, 0.5, 0.8):
            target = -j * (j + 0.5) * appendix_s(j, z)
            defect = abs(l_operator_on_s(j, z) - target) / max(1.0, abs(target))
            eig_worst = max(eig_worst, defect)
    eig_ok = eig_worst <= 1e-9

    detail = (f"contiguity defect {cont_worst:.2e} (tol 1e-10), "
              f"L-eigenrelation defect {eig_worst:.2e} (tol 1e-9)")
    return CriterionResult(8, "hypergeometric operator identities", cont_ok and eig_ok,
                           detail)


def criterion_9_samplers(seed: int = 42) -> CriterionResult:
    """Sampler moments against exact values at three standard errors: the
    (1/2, 1/2) law at n = 1, and the mean sum at n = 2 for the (1/2, 1/2)
    and (-1/2, -1/2) laws against tensor quadrature."""
    m1 = 100_000
    params = EnsembleParams(n=1, lambda1=0.5, lambda2=0.5)
    vals = spectra(*sample_jacobi_matrices(params, seed, m1))[:, 0]
    mean_se = vals.std(ddof=1) / math.sqrt(m1)
    mean_ok = abs(vals.mean() - 0.5) <= 3.0 * mean_se
    sq = (vals - vals.mean()) ** 2
    var_se = sq.std(ddof=1) / math.sqrt(m1)
    var_ok = abs(vals.var(ddof=1) - 0.0625) <= 3.0 * var_se
    passed = bool(mean_ok and var_ok)
    detail = (f"n=1 mean {vals.mean():.5f} (se {mean_se:.1e}), var {vals.var(ddof=1):.5f} "
              f"(se {var_se:.1e})")

    m2 = 10_000
    for offset, lam in ((1, 0.5), (2, -0.5)):
        params = EnsembleParams(n=2, lambda1=lam, lambda2=lam)
        sums = spectra(*sample_jacobi_matrices(params, seed + offset, m2)).sum(1)
        axis = quad.power_panel(0.0, 1.0, lam, lam, 40)
        num = quad.tensor_integrate(lambda x, y: (x + y) * (y - x) ** 2, [axis, axis])
        den = quad.tensor_integrate(lambda x, y: (y - x) ** 2, [axis, axis])
        exact_sum = num / den
        sum_se = sums.std(ddof=1) / math.sqrt(m2)
        passed = passed and bool(abs(sums.mean() - exact_sum) <= 3.0 * sum_se)
        detail += (f"; n=2 weight ({lam}, {lam}) sum {sums.mean():.5f} vs "
                   f"{exact_sum:.5f} (se {sum_se:.1e})")
    return CriterionResult(9, "sampler validation", passed, detail)


def criterion_10_determinism(seed: int = 42) -> CriterionResult:
    """Byte-identical MC output for the same seed under different thread counts."""
    parser = cli.build_parser()
    outputs = []
    for threads in (1, 2, 4):
        ns = parser.parse_args([
            "dm-mc", "--n", "6", "--x", "0.2", "--y", "0.8",
            "--m-samples", "300", "--seed", str(seed),
            "--threads", str(threads), "--format", "json"])
        outputs.append(cli.render(cli.execute(ns), "json").encode())
    identical = outputs[0] == outputs[1] == outputs[2]
    return CriterionResult(10, "thread-count determinism", identical,
                           "byte-identical across threads in {1, 2, 4}"
                           if identical else "outputs differ across thread counts")


def run_all(seed: int = 42) -> list:
    return [
        criterion_1_table1(seed=seed),
        criterion_2_duality(),
        criterion_3_closed_forms(),
        criterion_4_partition_ratio(),
        criterion_5_jacobi_drift(),
        criterion_6_toeplitz(),
        criterion_7_orbitals(),
        criterion_8_appendix(),
        criterion_9_samplers(seed=seed),
        criterion_10_determinism(seed=seed),
    ]
