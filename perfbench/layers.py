"""Per-layer metrics reduced from a traced phase.

Times and counts are given per round of the workload (a round is the
workload's fixed request mix), so they add up against `wall_s`.  A metric
whose instrumented function no longer exists in the library reads 0 and
is listed in `absent`; a metric the workload never exercises reads 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from tracer import ancestors, calls_and_seconds, module_of, self_seconds

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

MC_SCOPES = ("table1", "dm-mc-dirichlet-n50", "dm-mc-neumann-n14", "sample-jue-n14",
             "sample-jue-n50")
SAMPLE_CLASSES = {
    "dirichlet_n14": ("table1", "sample-jue-n14"),
    "dirichlet_n50": ("dm-mc-dirichlet-n50", "sample-jue-n50"),
    "neumann_n14": ("dm-mc-neumann-n14",),
}
DIRICHLET_SCOPES = ("table1", "dm-mc-dirichlet-n50", "sample-jue-n14", "sample-jue-n50")
HANKEL_BUCKETS = (64, 128, 256, 512)
TOEPLITZ_BUCKETS = (256, 512, 1024)
TIMED_SPECFUN = ("log_gamma", "log_barnes_g", "hyp2f1")
CRITERIA = (3, 7, 8)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    [("ensembles.self_s", "s/round")]
    + [(f"ensembles.sample_ms.{c}", "ms") for c in SAMPLE_CLASSES]
    + [("ensembles.poly_evals_per_sample", "count"),
       ("ensembles.draws_per_sample", "ratio"),
       ("ensembles.metropolis_warnings", "count/round"),
       ("mc_samples_per_s", "1/s"),
       ("threads2_speedup", "ratio"),
       ("averages.mc_self_s", "s/round"),
       ("averages.duality_rhs_s", "s/round"),
       ("averages.duality_lhs_s", "s/round"),
       ("averages.heine_s", "s/round"),
       ("quadrature.self_s", "s/round"),
       ("quadrature.power_panel_calls", "count/round"),
       ("quadrature.rule_cache_hit_ratio", "ratio"),
       ("quadrature.periodic_points", "count/round"),
       ("quadrature.periodic_ns_per_point", "ns"),
       ("quadrature.singular_evals_per_call", "count"),
       ("quadrature.orthonormal_polys_s", "s/round"),
       ("fisherhartwig.self_s", "s/round")]
    + [(f"fisherhartwig.hankel_ms.n{n}", "ms") for n in HANKEL_BUCKETS]
    + [(f"fisherhartwig.toeplitz_ms.N{n}", "ms") for n in TOEPLITZ_BUCKETS]
    + [("fisherhartwig.toeplitz_coeff_share", "ratio"),
       ("fisherhartwig.toeplitz_phase_bytes", "B"),
       ("fisherhartwig.slogdet_flops", "flop/round")]
    + [m for f in TIMED_SPECFUN
       for m in ((f"specfun.{f}.calls", "count/round"), (f"specfun.{f}.us_per_call", "us"))]
    + [("specfun.self_s", "s/round"),
       ("exact.self_s", "s/round"),
       ("orbitals.apply_kernel_calls", "count/round"),
       ("orbitals.self_s", "s/round")]
    + [(f"acceptance.criterion_ms.c{k}", "ms") for k in CRITERIA]
    + [("cli.build_parser_ms", "ms"),
       ("cli.render_s", "s/round"),
       ("cli.bytes_out", "B/req"),
       ("cli.self_s", "s/round"),
       ("trace.overhead", "ratio"),
       ("trace.overhead_computed", "ratio")]
)


@dataclass
class RequestRecord:
    """What the run keeps of one executed request."""

    scope: str
    seconds: float
    ok: bool
    samples: int = 0
    threads: int = 1
    replayed: bool = False
    bytes_out: int = 0
    ensembles_warnings: int = 0
    mc_points: tuple = ()
    reason: str = ""
    round: int = 0
    reference_s: float = 0.0  # mean reference-kernel time just before and after it


@dataclass
class PhaseResult:
    records: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mc_rates(records: list):
    """(Monte Carlo samples per second at --threads 1, t(threads 1) /
    t(threads 2) over the replayed requests)."""
    mc = [r for r in records if r.threads == 1 and r.scope in MC_SCOPES]
    rate = _ratio(sum(r.samples for r in mc), sum(r.seconds for r in mc))
    replays = [r for r in records if r.threads == 2]
    originals = [r for r in records if r.replayed]
    speedup = _ratio(sum(r.seconds for r in originals), sum(r.seconds for r in replays))
    return rate, speedup


def layer_metrics(spans: list, wrapped: set, untraced: PhaseResult,
                  traced: PhaseResult, span_cost_s: float = 0.0) -> tuple:
    """Return ({name: value}, [absent metric names]) for METRICS.

    span_cost_s is the measured cost of one wrapped call; spans times it,
    over the traced request time, is an overhead estimate that machine
    speed drift between the two phases cannot disturb.
    """
    rounds = max(len(traced.round_walls), 1)
    values, absent = {}, []

    def need(metric: str, *functions: str) -> bool:
        missing = [f for f in functions if f not in wrapped]
        if missing:
            absent.append(metric)
            values[metric] = 0.0
        return not missing

    def per_round(x: float) -> float:
        return x / rounds

    def seconds(name: str) -> float:
        return calls_and_seconds(spans, name)[1]

    def calls(name: str) -> int:
        return calls_and_seconds(spans, name)[0]

    traced_reqs = [r for r in traced.records if r.threads == 1]
    samples = {scope: sum(r.samples for r in traced_reqs if r.scope == scope)
               for scope in MC_SCOPES}

    for module in ("ensembles", "quadrature", "fisherhartwig", "specfun", "exact",
                   "orbitals", "cli"):
        values[f"{module}.self_s"] = per_round(self_seconds(spans, module))

    # ensembles: time in outermost sampler-layer spans per sample drawn
    outer_ens = [s for s in spans if module_of(s.name) == "ensembles"
                 and not any(module_of(a.name) == "ensembles" for a in ancestors(spans, s))]
    for cls, scopes in SAMPLE_CLASSES.items():
        busy = sum(s.duration for s in outer_ens if s.scope in scopes)
        values[f"ensembles.sample_ms.{cls}"] = 1e3 * _ratio(
            busy, sum(samples[sc] for sc in scopes))
    dirichlet_samples = sum(samples[sc] for sc in DIRICHLET_SCOPES)
    if need("ensembles.poly_evals_per_sample", "ensembles.recurrence_polynomial"):
        values["ensembles.poly_evals_per_sample"] = _ratio(
            calls("ensembles.recurrence_polynomial"), dirichlet_samples)
    if need("ensembles.draws_per_sample", "ensembles.recurrence_draw",
            "ensembles.sample_jue_halfhalf"):
        values["ensembles.draws_per_sample"] = _ratio(
            calls("ensembles.recurrence_draw"), calls("ensembles.sample_jue_halfhalf"))
    values["ensembles.metropolis_warnings"] = per_round(
        sum(r.ensembles_warnings for r in traced.records))
    values["mc_samples_per_s"], values["threads2_speedup"] = mc_rates(untraced.records)

    values["averages.mc_self_s"] = per_round(self_seconds(spans, "averages", MC_SCOPES))
    for metric, fn in (("averages.duality_rhs_s", "averages.duality_rhs"),
                       ("averages.duality_lhs_s", "averages.duality_lhs"),
                       ("averages.heine_s", "averages.average_even_power_heine")):
        if need(metric, fn):
            values[metric] = per_round(seconds(fn))

    panels = [s for s in spans if s.name == "quadrature.power_panel"]
    if need("quadrature.power_panel_calls", "quadrature.power_panel"):
        values["quadrature.power_panel_calls"] = per_round(len(panels))
        # a Gauss-Jacobi rule is cached per (order, exponents); every key
        # seen for the first time in the phase is a miss
        values["quadrature.rule_cache_hit_ratio"] = (
            1.0 - _ratio(len({s.probe for s in panels}), len(panels)) if panels else 0.0)
    else:
        need("quadrature.rule_cache_hit_ratio", "quadrature.power_panel")
    if need("quadrature.periodic_points", "quadrature.periodic_integrate"):
        periodic = [s for s in spans if s.name == "quadrature.periodic_integrate"
                    and not s.reentrant]
        points = sum(s.probe for s in periodic)
        values["quadrature.periodic_points"] = per_round(points)
        values["quadrature.periodic_ns_per_point"] = 1e9 * _ratio(
            sum(s.duration for s in periodic), points)
    else:
        need("quadrature.periodic_ns_per_point", "quadrature.periodic_integrate")
    if need("quadrature.singular_evals_per_call", "quadrature.singular_integrate",
            "quadrature.power_panel"):
        nodes = sum(s.probe[0] for s in panels
                    if any(a.name == "quadrature.singular_integrate"
                           for a in ancestors(spans, s)))
        values["quadrature.singular_evals_per_call"] = _ratio(
            nodes, calls("quadrature.singular_integrate"))
    if need("quadrature.orthonormal_polys_s", "quadrature.orthonormal_polynomials"):
        values["quadrature.orthonormal_polys_s"] = per_round(
            seconds("quadrature.orthonormal_polynomials"))

    hankel = [s for s in spans if s.name == "fisherhartwig.hankel_log_ratio" and not s.reentrant]
    for n in HANKEL_BUCKETS:
        metric = f"fisherhartwig.hankel_ms.n{n}"
        if need(metric, "fisherhartwig.hankel_log_ratio"):
            hits = [s.duration for s in hankel if s.probe == n]
            values[metric] = 1e3 * _ratio(sum(hits), len(hits))
    toeplitz = {i: s for i, s in enumerate(spans)
                if s.name == "fisherhartwig.toeplitz_determinant" and not s.reentrant}
    for n in TOEPLITZ_BUCKETS:
        metric = f"fisherhartwig.toeplitz_ms.N{n}"
        if need(metric, "fisherhartwig.toeplitz_determinant"):
            hits = [s.duration for s in toeplitz.values() if s.probe == n]
            values[metric] = 1e3 * _ratio(sum(hits), len(hits))
    if need("fisherhartwig.toeplitz_coeff_share", "fisherhartwig.toeplitz_determinant",
            "fisherhartwig._toeplitz_fourier_coeffs"):
        values["fisherhartwig.toeplitz_coeff_share"] = _ratio(
            seconds("fisherhartwig._toeplitz_fourier_coeffs"),
            sum(s.duration for s in toeplitz.values()))
    if need("fisherhartwig.toeplitz_phase_bytes", "fisherhartwig.toeplitz_determinant",
            "quadrature.power_panel"):
        # computed: the (2N - 1) x order complex phase matrix of each panel
        phase = {i: 0 for i in toeplitz}
        for s in panels:
            parent = s.parent
            while parent is not None and parent not in toeplitz:
                parent = spans[parent].parent
            if parent is not None:
                phase[parent] += 16 * (2 * toeplitz[parent].probe - 1) * s.probe[0]
        values["fisherhartwig.toeplitz_phase_bytes"] = float(max(phase.values(), default=0))
    if need("fisherhartwig.slogdet_flops", "fisherhartwig.hankel_log_ratio",
            "fisherhartwig.toeplitz_determinant"):
        # computed: LU of an n x n real Gram matrix, 2n^3/3; complex
        # Toeplitz LU costs four real operations per complex one
        flops = (sum(2.0 * s.probe ** 3 / 3.0 for s in hankel)
                 + sum(8.0 * s.probe ** 3 / 3.0 for s in toeplitz.values()))
        values["fisherhartwig.slogdet_flops"] = per_round(flops)

    for f in TIMED_SPECFUN:
        name = f"specfun.{f}"
        if need(f"{name}.calls", name) & need(f"{name}.us_per_call", name):
            n_calls, busy = calls_and_seconds(spans, name)
            values[f"{name}.calls"] = per_round(n_calls)
            values[f"{name}.us_per_call"] = 1e6 * _ratio(busy, n_calls)

    if need("orbitals.apply_kernel_calls", "orbitals.apply_kernel"):
        values["orbitals.apply_kernel_calls"] = per_round(calls("orbitals.apply_kernel"))

    for k in CRITERIA:
        metric = f"acceptance.criterion_ms.c{k}"
        fn = next((w for w in sorted(wrapped) if w.startswith(f"acceptance.criterion_{k}_")),
                  None)
        if need(metric, fn or f"acceptance.criterion_{k}"):
            n_calls, busy = calls_and_seconds(spans, fn)
            values[metric] = 1e3 * _ratio(busy, n_calls)

    if need("cli.build_parser_ms", "cli.build_parser"):
        n_calls, busy = calls_and_seconds(spans, "cli.build_parser")
        values["cli.build_parser_ms"] = 1e3 * _ratio(busy, n_calls)
    if need("cli.render_s", "cli.render"):
        values["cli.render_s"] = per_round(seconds("cli.render"))
    cli_reqs = [r for r in traced_reqs if r.bytes_out]
    values["cli.bytes_out"] = _ratio(sum(r.bytes_out for r in cli_reqs), len(cli_reqs))

    traced_s = sum(r.seconds for r in traced.records if r.threads == 1)
    values["trace.overhead"] = _ratio(
        traced_s, sum(r.seconds for r in untraced.records if r.threads == 1)) - 1.0
    values["trace.overhead_computed"] = _ratio(len(spans) * span_cost_s, traced_s)
    return {name: float(values[name]) for name, _ in METRICS}, absent
