"""Tests of the benchmark's own arithmetic: run with ``python3 -m pytest qifbench``."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from bench_stats import median, quartiles, trimmed_mean, valid_name  # noqa: E402
from bench_trace import (  # noqa: E402
    Span,
    Tracer,
    covered_length,
    install,
    layer_metrics,
    run_children_ms,
    self_time,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_LEVEL_LAYER_METRICS = {
    "cli.import_ms",
    "qpm.import_ms",
    "montecarlo.peak_alloc_mb",
    "trace.overhead_ratio",
}


def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_trimmed_mean_drops_a_tenth_from_each_end():
    assert trimmed_mean([5.0, 1.0, 3.0]) == 3.0  # fewer than ten values: plain mean
    values = [1.0] * 9 + [100.0]
    assert trimmed_mean(values) == 1.0
    assert trimmed_mean(list(range(20))) == statistics.fmean(range(2, 18))
    assert trimmed_mean([1.0, 2.0, 3.0, 10.0], share=0.25) == 2.5
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_quartiles_match_statistics_exclusive_method():
    values = [float(v) for v in range(1, 11)]
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_quartiles_of_constant_coincide():
    assert quartiles([2.0] * 10) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize(
    "name, ok",
    [
        ("setup_s", True),
        ("montecarlo.self_ms", True),
        ("reference-fringe", True),
        ("9lives", True),
        ("_hidden", False),
        ("bad name", False),
        ("a/b", False),
        ("", False),
        ("x" * 64, True),
        ("x" * 65, False),
    ],
)
def test_valid_name(name, ok):
    assert valid_name(name) is ok


def test_benchmark_names_follow_the_rule_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(valid_name(n) for n in names)
    assert len(set(names)) == len(names)


def test_per_layer_names_are_the_traced_metrics():
    computed = set(layer_metrics(Tracer())) | RUN_LEVEL_LAYER_METRICS
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_subtracts_children_once_and_clips():
    parent = Span(0, None, "montecarlo.run_fringe_scan", 0.0, 10.0)
    children = [
        Span(1, 0, "montecarlo.sample_photon_numbers", 1.0, 3.0),
        Span(2, 0, "detection.simulate_detection", 2.0, 5.0),
        Span(3, 0, "detection.build_histogram", 9.0, 12.0),
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(parent, []) == 10.0


def _fake_scan_spans() -> Tracer:
    tracer = Tracer()
    tracer.spans = [
        Span(0, None, "cli.main", 0.0, 1.0),
        Span(1, 0, "montecarlo.run_fringe_scan", 0.1, 0.9),
        Span(2, 1, "montecarlo.sample_photon_numbers", 0.2, 0.4),
        Span(3, 1, "detection.simulate_detection", 0.4, 0.5),
        Span(4, 3, "detection.build_histogram", 0.41, 0.45),
        Span(5, 1, "timebin.analyze", 0.6, 0.61),
        Span(6, 5, "timebin.prepare_qubit", 0.6, 0.605),
    ]
    return tracer


def test_layer_metrics_self_time_accounts_for_the_run():
    tracer = _fake_scan_spans()
    m = layer_metrics(tracer)
    assert m["montecarlo.run_ms"] == pytest.approx(800.0)
    assert m["montecarlo.self_ms"] == pytest.approx(800.0 - 200.0 - 100.0 - 10.0)
    assert m["montecarlo.self_ms"] + run_children_ms(tracer) == pytest.approx(m["montecarlo.run_ms"])
    assert m["cli.self_ms"] == pytest.approx(200.0)
    # Nested spans of one module count once towards its time.
    assert m["timebin.ms"] == pytest.approx(10.0)
    assert m["timebin.analyze_calls"] == 1
    assert m["detection.histogram_ms"] == pytest.approx(40.0)


def test_tracer_records_parents_and_survives_exceptions():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", lambda x: traced_inner(x) + 1)
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_outer(-1)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("m.outer", None),
        ("m.inner", 0),
        ("m.outer", None),
        ("m.inner", 2),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


def test_install_wraps_names_imported_elsewhere_and_restores():
    import qifsim
    from qifsim import cli, detection, montecarlo, scenario

    originals = (
        detection.simulate_detection,
        montecarlo.simulate_detection,
        cli.load_scenario,
        scenario.load_scenario,
    )
    tracer = Tracer()
    restore = install(tracer, qifsim)
    try:
        assert montecarlo.simulate_detection is detection.simulate_detection
        assert montecarlo.simulate_detection is not originals[0]
        assert cli.load_scenario is scenario.load_scenario is not originals[2]
        scenario.scenario_digest(scenario.load_reference_scenario())
        names = [s.name for s in tracer.spans]
        assert "scenario.load_reference_scenario" in names
        assert "scenario.scenario_digest" in names
        assert tracer.counters["qpm.index_calls"] == 0
    finally:
        restore()
    assert (
        detection.simulate_detection,
        montecarlo.simulate_detection,
        cli.load_scenario,
        scenario.load_scenario,
    ) == originals
