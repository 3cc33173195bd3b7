"""Span bookkeeping, the tail-percentile rule and per-layer reduction."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from layers import PhaseResult, RequestRecord  # noqa: E402
from tracer import Tracer, calls_and_seconds, self_seconds  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, count = run.tail_latency(list(range(100, 0, -1)))
    assert (value, pct, count) == (90, 90.0, 100)
    value, pct, _ = run.tail_latency(list(range(1, 201)))
    assert value == 190 and pct == 95.0
    assert sum(1 for v in range(1, 201) if v > value) == 10


def test_tail_with_few_requests_falls_back_to_smallest():
    assert run.tail_latency([5.0, 1.0, 3.0])[0] == 1.0
    value, pct, count = run.tail_latency(list(range(13)))
    assert value == 2 and count == 13 and abs(pct - 300 / 13) < 1e-12


def test_self_time_excludes_children_and_recursion_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle(depth):
        clock.now += 1.0
        if depth:
            wrapped_middle(depth - 1)
        wrapped_leaf()
        clock.now += 0.5

    wrapped_leaf = tracer.wrap("inner.leaf", leaf)
    wrapped_middle = tracer.wrap("outer.middle", middle)
    tracer.scope = "s"
    wrapped_middle(1)

    spans = tracer.spans
    assert [s.name for s in spans] == ["outer.middle", "outer.middle", "inner.leaf",
                                       "inner.leaf"]
    # outer call 1 + 0.5 of its own, inner call 1 + 0.5; each leaf 2
    assert self_seconds(spans, "outer") == 3.0
    assert self_seconds(spans, "inner") == 4.0
    assert spans[0].duration == 7.0 and spans[1].duration == 3.5
    assert calls_and_seconds(spans, "outer.middle") == (1, 7.0)
    assert calls_and_seconds(spans, "inner.leaf") == (2, 4.0)
    assert spans[1].reentrant and not spans[0].reentrant


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    assert tracer.wrap("m.f", lambda x: x + 1)(1) == 2
    assert tracer.spans == []


def test_install_wraps_import_sites_and_uninstall_restores():
    from selberg_gas import averages, ensembles

    original = ensembles.sample_jue_halfhalf
    tracer = Tracer()
    tracer.install()
    try:
        assert "ensembles.sample_jue_halfhalf" in tracer.wrapped
        assert "fisherhartwig._toeplitz_fourier_coeffs" in tracer.wrapped
        assert ensembles.sample_jue_halfhalf is not original
        assert averages.sample_jue_halfhalf is ensembles.sample_jue_halfhalf
    finally:
        tracer.uninstall()
    assert ensembles.sample_jue_halfhalf is original
    assert averages.sample_jue_halfhalf is original


def test_metric_names_and_units_use_the_allowed_alphabet():
    names = [name for name, _ in layers.METRICS] + list(run.END_TO_END_UNITS)
    assert len(set(names)) == len(names)
    for name, unit in list(layers.METRICS) + list(run.END_TO_END_UNITS.items()):
        assert layers.NAME_RE.match(name), name
        assert layers.UNIT_RE.match(unit), unit


def test_missing_function_reads_absent_not_crash():
    untraced = PhaseResult([RequestRecord("table1", 1.0, True, samples=100)], [1.0])
    traced = PhaseResult([RequestRecord("table1", 1.1, True, samples=100)], [1.1])
    values, absent = layers.layer_metrics([], {"cli.main"}, untraced, traced)
    assert set(values) == {name for name, _ in layers.METRICS}
    assert "ensembles.poly_evals_per_sample" in absent
    assert values["ensembles.poly_evals_per_sample"] == 0.0
    assert abs(values["trace.overhead"] - 0.1) < 1e-12
    assert values["mc_samples_per_s"] == 100.0
