"""Request mixes of the three workloads and the check of every request.

A workload is a sequence of rounds.  A round is a fixed list of request
classes in fixed proportions; only the parameters of each request are
drawn, from a generator keyed by (workload seed, workload, round).  The
library sees nothing but the generated CLI arguments or the acceptance
criterion to call.

Every check compares the request's output with an independent value from
`oracles` and raises CheckFailed on disagreement.  Monte Carlo outputs are
checked statistically, against the exact finite-N value and the exact
standard deviation of one sample, so a change of sampler or seed stream
that keeps the law keeps passing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import oracles

# Monte Carlo tolerance in standard errors; see _check_mc.  Over 1e6
# means of M = 100 samples resampled from 12000 exact N = 14 samples,
# the two statistics it bounds stayed within 3.05 and 3.23.
MC_Z_MAX = 4.5
# Linear statistics of the sampled eigenvalues are light-tailed; the
# sample-jue check uses the sample standard deviation.
LINEAR_Z_MAX = 6.0
# Fisher-Hartwig drift envelope: |delta_n| * n at the largest size of a
# request.  The drift shrinks like 1/n; over the drawn parameter ranges
# |delta_n| * n stayed below 1.1 (Hankel, n >= 64) and 0.75 (Toeplitz,
# N >= 256).
FH_DRIFT_ENVELOPE = 3.0
# Exact identities, absolute in log space.  The unit-charge Toeplitz
# determinant loses accuracy with size (measured errors 6e-10 at N = 512,
# 1.5e-8 at N = 1024); the Hankel one stays below 7e-10 to n = 512.
UNIT_CHARGE_HANKEL_TOL = 1e-8
UNIT_CHARGE_TOEPLITZ_TOL = 1e-7
DUALITY_REL_TOL = 1e-12
CLOSED_FORM_LOG_TOL = 1e-10

TABLE1_XS = tuple(0.025 + 0.05 * i for i in range(10))
# A request's sizes are one draw from each stratum, so every request does
# about the same work and a run's metrics do not hang on how many large
# sizes its draws happened to hold.
HANKEL_STRATA = ((16, 32, 48, 64), (96, 128), (192, 256), (512,))
TOEPLITZ_STRATA = ((32, 64, 128), (256, 384), (512,), (1024,))
WEIGHT_EXPONENTS = (-0.5, 0.0, 0.5, 1.0)


class CheckFailed(Exception):
    """A request's output disagrees with its oracle."""


@dataclass(frozen=True)
class MCPoint:
    """One Monte Carlo estimate from a request output, kept for pooling."""

    key: tuple  # (N, weight exponent, X, Y)
    value: float
    std_error: float
    m_samples: int


@dataclass
class Request:
    """One closed-loop request: a CLI argv or an acceptance criterion."""

    scope: str
    check: Callable[[str], Optional[list]]
    argv: Optional[tuple] = None
    criterion: Optional[int] = None
    samples: int = 0
    replay: bool = False
    threads: int = 1

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else f"criterion {self.criterion}"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _results(text: str, subcommand: str) -> list:
    doc = json.loads(text)
    _require(doc["config"]["subcommand"] == subcommand,
             f"expected subcommand {subcommand}, got {doc['config']['subcommand']}")
    return doc["results"]


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


@lru_cache(maxsize=None)
def _dm_exact(N: int, lam: float, X: float, Y: float):
    return oracles.density_matrix_exact(N, lam, X, Y)


def _check_mc(value: float, std_error: float, M: int, key: tuple) -> MCPoint:
    # The estimator is right-skewed, strongly so near X = Y.  Its mean has a
    # light left tail in exact standard errors (a mean of nonnegative
    # samples cannot fall far below its expectation), while the ratio to
    # the estimate's own standard error has a light right tail (a large
    # sample inflates both).  Each side is tested where its tail is light.
    exact, rel_sd = _dm_exact(*key)
    z_low = (value - exact) / (exact * rel_sd / math.sqrt(M))
    t_high = (value - exact) / std_error if std_error > 0.0 else math.inf
    _require(z_low >= -MC_Z_MAX and t_high <= MC_Z_MAX,
             f"Monte Carlo value {value:.6g} (standard error {std_error:.3g}) at "
             f"(X, Y) = {key[2:]} against the exact {exact:.6g}: {z_low:+.2f} exact and "
             f"{t_high:+.2f} own standard errors")
    return MCPoint(key, value, std_error, M)


def pooled_mc_failures(points: list) -> dict:
    """Pool estimates of the same point from different requests (the same
    test with sqrt(requests) more power) and return {key: message} for
    each pooled estimate that fails it."""
    groups = {}
    for p in points:
        groups.setdefault(p.key, []).append(p)
    failed = {}
    for key, group in groups.items():
        if len(group) < 2:
            continue
        R = len(group)
        mean = sum(p.value for p in group) / R
        se = math.sqrt(sum(p.std_error ** 2 for p in group)) / R
        try:
            _check_mc(mean, se, sum(p.m_samples for p in group), key)
        except CheckFailed as exc:
            failed[key] = f"pooled over {R} requests: {exc}"
    return failed


def _fmt(x: float) -> str:
    return f"{x:.4f}"


# ---------------------------------------------------------------- mc-table


def _table1(rng: random.Random, replay: bool) -> Request:
    seed = rng.randrange(1 << 31)
    M, N = 100, 14

    def check(text: str) -> list:
        rows = _results(text, "table1")
        _require(len(rows) == len(TABLE1_XS), f"expected 10 rows, got {len(rows)}")
        points = []
        for row, X in zip(rows, TABLE1_XS):
            _require(abs(row["X"] - X) < 1e-12, f"row X {row['X']} != {X}")
            asym = oracles.density_matrix_asymptote(N, X, 1.0 - X)
            _require(abs(row["asymptote"] / asym - 1.0) < 1e-12,
                     f"asymptote {row['asymptote']} != {asym}")
            _require(abs(row["ratio"] - row["mc_value"] / row["asymptote"]) < 1e-12,
                     "ratio column inconsistent")
            points.append(_check_mc(row["mc_value"], row["std_error"], M, (N, 0.5, X, 1.0 - X)))
        return points

    return Request("table1", check, argv=("table1", "--n", str(N), "--m-samples", str(M),
                                          "--seed", str(seed), "--threads", "1"),
                   samples=M, replay=replay)


def _dm_mc(rng: random.Random, N: int, boundary: str) -> Request:
    seed = rng.randrange(1 << 31)
    X = round(rng.uniform(0.05, 0.45), 4)
    Y = round(rng.uniform(0.55, 0.95), 4)
    M = 100
    lam = 0.5 if boundary == "dirichlet" else -0.5

    def check(text: str) -> list:
        (row,) = _results(text, "dm-mc")
        _require(row["m_samples"] == M, "m_samples mismatch")
        return [_check_mc(row["value"], row["std_error"], M, (N, lam, X, Y))]

    scope = f"dm-mc-{boundary}-n{N}"
    return Request(scope, check, argv=("dm-mc", "--n", str(N), "--x", _fmt(X), "--y", _fmt(Y),
                                       "--boundary", boundary, "--m-samples", str(M),
                                       "--seed", str(seed), "--threads", "1"),
                   samples=M)


def _sample_jue(rng: random.Random, N: int) -> Request:
    seed = rng.randrange(1 << 31)
    M = 40

    def check(text: str) -> None:
        body = [line for line in text.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        _require(len(rows) == N * M, f"expected {N * M} rows, got {len(rows)}")
        pts = [[] for _ in range(M)]
        for row in rows:
            pts[int(row["sample"])].append((int(row["index"]), float(row["eigenvalue"])))
        e1, e2 = oracles.expected_power_sums(N, 0.5, 0.5)
        s1, s2 = [], []
        for sample in pts:
            _require([i for i, _ in sample] == list(range(N)), "sample indices out of order")
            xs = [x for _, x in sample]
            _require(all(0.0 < a < b < 1.0 for a, b in zip(xs, xs[1:])),
                     "sample not strictly increasing inside (0, 1)")
            s1.append(sum(xs))
            s2.append(sum(x * x for x in xs))
        for vals, exact, what in ((s1, e1, "sum x"), (s2, e2, "sum x^2")):
            mean = sum(vals) / M
            sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (M - 1))
            z = (mean - exact) / (sd / math.sqrt(M))
            _require(abs(z) <= LINEAR_Z_MAX,
                     f"mean {what} {mean:.6g} is {z:+.2f} standard errors from {exact:.6g}")

    return Request(f"sample-jue-n{N}", check, argv=("sample-jue", "--n", str(N), "--m-samples", str(M),
                                              "--seed", str(seed), "--threads", "1",
                                              "--format", "csv"),
                   samples=M)


def mc_table_round(rng: random.Random) -> list:
    """One Neumann Metropolis request, twelve Table 1 requests (two of them
    replayed at --threads 2), one N = 50 point, one N = 50 listing and five
    short N = 14 listings.

    Five requests are slower than Table 1 and five are faster, so the
    median and the tail percentile of a round both fall in the middle of
    the Table 1 requests, not at the edge where their latency meets
    another class.
    """
    reqs = [_dm_mc(rng, 14, "neumann")]
    for i in range(12):
        reqs.append(_table1(rng, replay=i in (0, 6)))
        if i % 2:
            reqs.append(_dm_mc(rng, 50, "dirichlet") if i == 5 else _sample_jue(rng, 14))
    reqs.append(_sample_jue(rng, 50))
    return reqs


def replay_request(original: Request, original_text: str) -> Request:
    """The same request at --threads 2; its output must match byte for byte."""
    argv = list(original.argv)
    argv[argv.index("--threads") + 1] = "2"

    def check(text: str) -> None:
        _require(text == original_text, "output at --threads 2 differs from --threads 1")

    return Request(original.scope + "-threads2", check, argv=tuple(argv),
                   samples=original.samples, threads=2)


# --------------------------------------------------------------- det-exact


def _check_drift(delta: float, size: int) -> None:
    _require(abs(delta) * size <= FH_DRIFT_ENVELOPE,
             f"|delta| * size = {abs(delta) * size:.3g} at size {size}")


def _sizes(rng: random.Random, strata: tuple) -> tuple:
    return tuple(rng.choice(stratum) for stratum in strata)


def _fh_jacobi(rng: random.Random, unit_charge: bool) -> Request:
    sizes = _sizes(rng, HANKEL_STRATA)
    q = 1.0 if unit_charge else round(rng.uniform(0.1, 0.9), 4)
    y = round(rng.uniform(0.1, 0.9), 4)
    l1, l2 = rng.choice(WEIGHT_EXPONENTS), rng.choice(WEIGHT_EXPONENTS)

    def check(text: str) -> None:
        rows = _results(text, "fh-jacobi")
        _require([r["n"] for r in rows] == list(sizes), "sizes mismatch")
        for r in rows:
            _require(_close(r["delta"], r["log_exact"] - r["log_predicted"], 1e-9),
                     "delta column inconsistent")
        if unit_charge:
            for r in rows:
                ref = oracles.log_one_point_density(r["n"], l1, l2, y)
                _require(_close(r["log_exact"], ref, UNIT_CHARGE_HANKEL_TOL),
                         f"unit-charge Hankel at n={r['n']}: {r['log_exact']!r} vs "
                         f"Christoffel-Darboux {ref!r}")
        else:
            _check_drift(rows[-1]["delta"], rows[-1]["n"])

    return Request("fh-jacobi-unit" if unit_charge else "fh-jacobi", check,
                   argv=("fh-jacobi", "--sizes", ",".join(map(str, sizes)), "--q", repr(q),
                         "--y", _fmt(y), "--lambda1", repr(l1), "--lambda2", repr(l2)))


def _fh_toeplitz(rng: random.Random, unit_charge: bool) -> Request:
    sizes = _sizes(rng, TOEPLITZ_STRATA)
    q = 1.0 if unit_charge else round(rng.uniform(0.1, 0.9), 4)

    def check(text: str) -> None:
        rows = _results(text, "fh-toeplitz")
        _require([r["N"] for r in rows] == list(sizes), "sizes mismatch")
        if unit_charge:
            for r in rows:
                ref = oracles.log_toeplitz_unit_charge(r["N"])
                _require(_close(r["log_exact"], ref, UNIT_CHARGE_TOEPLITZ_TOL),
                         f"unit-charge Toeplitz at N={r['N']}: {r['log_exact']!r} vs {ref!r}")
        else:
            _check_drift(rows[-1]["delta"], rows[-1]["N"])

    return Request("fh-toeplitz-unit" if unit_charge else "fh-toeplitz", check,
                   argv=("fh-toeplitz", "--sizes", ",".join(map(str, sizes)), "--q", repr(q)))


def det_exact_round(rng: random.Random) -> list:
    """Four Jacobi-weight Hankel drift requests, one unit-charge Hankel
    oracle request, two Toeplitz drift requests and one unit-charge
    Toeplitz oracle request; every Hankel request reaches n = 512 and
    every Toeplitz request N = 1024."""
    reqs = [_fh_jacobi(rng, False) for _ in range(4)]
    reqs.insert(2, _fh_jacobi(rng, True))
    reqs += [_fh_toeplitz(rng, False), _fh_toeplitz(rng, True), _fh_toeplitz(rng, False)]
    return reqs


# ------------------------------------------------------------- oracle-quad


def _duality(rng: random.Random, n: int) -> Request:
    t = round(rng.uniform(0.05, 0.95), 4)
    lam = rng.choice(WEIGHT_EXPONENTS)

    def check(text: str) -> None:
        (row,) = _results(text, "duality-check")
        _require(row["rel_diff"] <= DUALITY_REL_TOL, f"rel_diff {row['rel_diff']:.3g}")
        # independent Jacobi side: <prod (t - x)^2> = h_n K_{n+1}(t, t)
        p = oracles.orthonormal_values(n, lam, lam, t)
        ref = math.exp(oracles.log_monic_norm(n, lam, lam) + math.log(float(sum(p * p))))
        _require(abs(row["lhs"] / ref - 1.0) <= 1e-10, f"lhs {row['lhs']!r} vs {ref!r}")

    return Request("duality", check, argv=("duality-check", "--n", str(n), "--t", _fmt(t),
                                           "--lambda1", repr(lam), "--lambda2", repr(lam)))


def _criterion(number: int) -> Request:
    def check(text: str) -> None:
        doc = json.loads(text)
        _require(doc["passed"], f"criterion {number} failed: {doc['detail']}")

    return Request(f"criterion-{number}", check, criterion=number)


def _selberg(rng: random.Random) -> Request:
    n = rng.choice((1, 2, 3))
    l1, l2 = rng.choice(WEIGHT_EXPONENTS), rng.choice(WEIGHT_EXPONENTS)

    def check(text: str) -> None:
        (row,) = _results(text, "selberg")
        ref = oracles.log_selberg_quadrature(n, l1, l2)
        _require(_close(row["log_value"], ref, CLOSED_FORM_LOG_TOL),
                 f"Selberg log {row['log_value']!r} vs quadrature {ref!r}")

    return Request("selberg", check, argv=("selberg", "--n", str(n), "--lambda1", repr(l1),
                                           "--lambda2", repr(l2)))


def _morris(rng: random.Random) -> Request:
    n = rng.choice((1, 2))
    a, b = rng.choice(((0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1), (1, 3)))

    def check(text: str) -> None:
        (row,) = _results(text, "morris")
        ref = oracles.log_morris_quadrature(n, a, b)
        _require(_close(row["log_value"], ref, CLOSED_FORM_LOG_TOL),
                 f"Morris log {row['log_value']!r} vs quadrature {ref!r}")

    return Request("morris", check, argv=("morris", "--n", str(n), "--lambda1", str(a),
                                          "--lambda2", str(b)))


def _dm_asym(rng: random.Random) -> Request:
    N = rng.randrange(2, 200)
    X = round(rng.uniform(0.02, 0.48), 4)
    Y = round(rng.uniform(0.52, 0.98), 4)
    boundary = rng.choice(("dirichlet", "neumann"))

    def check(text: str) -> None:
        (row,) = _results(text, "dm-asym")
        ref = oracles.density_matrix_asymptote(N, X, Y)
        _require(abs(row["value"] / ref - 1.0) <= 1e-12, f"asymptote {row['value']!r} vs {ref!r}")

    return Request("dm-asym", check, argv=("dm-asym", "--n", str(N), "--x", _fmt(X),
                                           "--y", _fmt(Y), "--boundary", boundary))


def _orbitals(rng: random.Random) -> Request:
    j_max = rng.randrange(4, 13)
    N = rng.randrange(1, 1000)

    def check(text: str) -> None:
        rows = _results(text, "orbitals")
        _require([r["j"] for r in rows] == list(range(j_max + 1)), "orbital indices mismatch")
        g4 = math.exp(4.0 * oracles.LOG_G_THREE_HALVES)
        for r in rows:
            j = r["j"]
            lam = oracles.scaled_occupation(j)
            _require(abs(r["scaled_occupation"] / lam - 1.0) <= 1e-12,
                     f"scaled occupation of mode {j}")
            occ = lam * g4 * math.sqrt(N) / (math.pi * math.sqrt(2.0))
            _require(abs(r["occupation"] / occ - 1.0) <= 1e-12, f"occupation of mode {j}")
            _require(oracles.orbital_norm_defect(j, r["normalization"]) <= 1e-12,
                     f"normalization of mode {j}")

    return Request("orbitals", check, argv=("orbitals", "--j-max", str(j_max), "--n", str(N)))


CLOSED_FORMS = (_selberg, _morris, _dm_asym, _orbitals)


def oracle_quad_round(rng: random.Random, index: int) -> list:
    """Two duality checks (a quarter; n = 2 takes the tensor-quadrature
    Jacobi side, n = 5 the moment determinant), four acceptance criteria
    (3, 7, 8 and 3 again, so the median falls inside this class and not
    on its edge) and two closed-form requests rotating over the four
    kinds."""
    closed = [CLOSED_FORMS[(2 * index) % 4](rng), CLOSED_FORMS[(2 * index + 1) % 4](rng)]
    return [_duality(rng, 2), _criterion(3), closed[0], _criterion(7),
            _duality(rng, 5), _criterion(8), closed[1], _criterion(3)]


WORKLOADS = ("mc-table", "det-exact", "oracle-quad")


def make_round(workload: str, seed: int, index: int) -> list:
    rng = random.Random(f"{seed}:{workload}:{index}")
    if workload == "mc-table":
        return mc_table_round(rng)
    if workload == "det-exact":
        return det_exact_round(rng)
    if workload == "oracle-quad":
        return oracle_quad_round(rng, index)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_requests(workload: str) -> list:
    """Small fixed requests run before timing so first-call costs (lazy
    imports, allocator growth) stay out of the measured rounds."""
    def accept(_text: str) -> None:
        return None

    common = [Request("warmup", accept, argv=("selberg", "--n", "1", "--lambda1", "0",
                                              "--lambda2", "0"))]
    if workload == "mc-table":
        return common + [Request("warmup", accept, argv=("dm-mc", "--n", "2", "--x", "0.3",
                                                         "--y", "0.6", "--m-samples", "100",
                                                         "--boundary", b))
                         for b in ("dirichlet", "neumann")]
    if workload == "det-exact":
        return common + [Request("warmup", accept, argv=("fh-jacobi", "--sizes", "4,6,8,10")),
                         Request("warmup", accept, argv=("fh-toeplitz", "--sizes", "4,6,8,10"))]
    return common + [Request("warmup", accept, argv=("duality-check", "--t", "0.5"))]
