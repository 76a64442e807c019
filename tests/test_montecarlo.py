"""Stochastic engine: reproducibility, statistics, and the analytic cross-check."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qifsim import montecarlo
from qifsim.detection import extract_visibility
from qifsim.errors import ConfigError, DomainError
from qifsim.montecarlo import (
    expected_fringe,
    run_efficiency_sweep,
    run_fringe_scan,
    substream,
    validate_against_oracle,
)
from qifsim.scenario import load_reference_scenario

PHASES_12 = np.linspace(0.0, 2.0 * math.pi, 12)


@pytest.fixture(scope="module")
def ref():
    return load_reference_scenario()


def quiet_variant(ref):
    """Reference scenario with every visibility penalty switched off."""
    return dataclasses.replace(
        ref,
        source=dataclasses.replace(ref.source, cw_background_fraction=0.0),
        pump=dataclasses.replace(ref.pump, coherence_time_ns=math.inf),
        detector=dataclasses.replace(ref.detector, dark_count_rate_hz=0.0),
    )


# --- substreams ---


def test_substream_reproducible():
    a = substream(42, "fringe-scan", 1.25).random(8)
    b = substream(42, "fringe-scan", 1.25).random(8)
    assert np.array_equal(a, b)


def test_substream_separates_tags_seeds_and_values():
    base = substream(42, "fringe-scan", 1.25).random(8)
    assert not np.array_equal(base, substream(43, "fringe-scan", 1.25).random(8))
    assert not np.array_equal(base, substream(42, "efficiency-sweep", 1.25).random(8))
    assert not np.array_equal(base, substream(42, "fringe-scan", 1.26).random(8))


# --- fringe scan determinism ---


def test_fringe_scan_bit_identical_reruns(ref):
    a = run_fringe_scan(ref, PHASES_12, pulses=20_000)
    b = run_fringe_scan(ref, PHASES_12, pulses=20_000)
    assert a.content_digest() == b.content_digest()
    assert a.fringe == b.fringe
    assert a.wall_clock_s != 0.0  # wall clock may differ; digest may not


def test_fringe_scan_order_invariant(ref):
    phases = np.array([0.0, 1.3, 2.6, 3.9, 5.2])
    forward = run_fringe_scan(ref, phases, pulses=20_000)
    shuffled = run_fringe_scan(ref, phases[::-1], pulses=20_000)
    by_phase = {p.phase_rad: p.counts for p in shuffled.fringe}
    for point in forward.fringe:
        assert by_phase[point.phase_rad] == point.counts


def test_fringe_scan_seed_sensitivity(ref):
    a = run_fringe_scan(ref, PHASES_12, pulses=20_000)
    b = run_fringe_scan(
        dataclasses.replace(ref, master_seed=1), PHASES_12, pulses=20_000
    )
    assert a.content_digest() != b.content_digest()


def test_fringe_scan_bookkeeping(ref):
    run = run_fringe_scan(ref, PHASES_12, pulses=20_000)
    assert len(run.fringe) == 12
    for point in run.fringe:
        assert point.stat_error == pytest.approx(math.sqrt(point.counts))
    # Window counts are a subset of everything histogrammed.
    assert sum(p.counts for p in run.fringe) <= run.histogram.total_counts()
    assert run.histogram.sync_pulses == 12 * 20_000
    assert run.eta_realized == 1.0  # statistics decoupled in the bundled file
    assert run.metadata["pulses_per_point"] == 20_000
    assert run.mean_background() > 0.0  # dark + cw floor is present


def test_fringe_scan_physical_budget_variant(ref):
    physical = dataclasses.replace(ref, unit_conversion_survival=False)
    run = run_fringe_scan(physical, PHASES_12[:2], pulses=1_000)
    assert run.eta_realized == pytest.approx(ref.eta_qi(), rel=1e-12)


def test_fringe_scan_zero_pulses(ref):
    run = run_fringe_scan(ref, PHASES_12[:3], pulses=0)
    assert all(p.counts == 0 for p in run.fringe)
    assert run.histogram.total_counts() == 0


def test_zero_efficiency_scan_counts_nothing(ref):
    # The engine's thinning is the only place the quantum efficiency acts.
    blind = dataclasses.replace(
        ref,
        detector=dataclasses.replace(ref.detector, quantum_efficiency=0.0, dark_count_rate_hz=0.0),
    )
    run = run_fringe_scan(blind, PHASES_12[:3], pulses=20_000)
    assert run.histogram.total_counts() == 0


def test_fringe_scan_needs_two_phases(ref):
    with pytest.raises(DomainError, match="phase points"):
        run_fringe_scan(ref, [0.0], pulses=100)
    with pytest.raises(DomainError):
        run_fringe_scan(ref, PHASES_12, pulses=-1)


def test_fringe_scan_rejects_repeated_phases(ref):
    # Both points would draw from the same substream.
    with pytest.raises(ConfigError, match="repeats the value 0.5"):
        run_fringe_scan(ref, [0.0, 0.5, 1.0, 0.5], pulses=100)


def test_pump_drift_is_shared_by_the_photons_of_a_pulse(ref):
    # About 66 rad rms of drift washes the fringe out. Photons of one pulse
    # share its drift, so they land in the window together and the counts
    # are overdispersed; independent drifts per photon would give a
    # variance-to-mean ratio near 1.
    quiet = quiet_variant(ref)
    s = dataclasses.replace(
        quiet,
        source=dataclasses.replace(quiet.source, mean_photon_number=30.0),
        pump=dataclasses.replace(quiet.pump, coherence_time_ns=1e-3),
        detector=dataclasses.replace(quiet.detector, quantum_efficiency=1.0),
    )
    phases = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    counts = np.array([p.counts for p in run_fringe_scan(s, phases, pulses=1_000).fringe])
    assert counts.var() / counts.mean() > 1.3


def test_pump_drift_spans_the_preparation_delay(ref):
    # The drift is the pump phase across the qubit's bin separation, which
    # the preparation delay sets; the analysis delay may differ by up to 1 %,
    # here 2.222 ns against 2.2 ns.
    s = dataclasses.replace(ref, analysis=dataclasses.replace(ref.analysis, delta_tau_ns=2.222))
    drift = montecarlo._point_model(s).middle.drift_rad
    assert math.exp(-0.5 * drift**2) == pytest.approx(s.pump_coherence_factor(), rel=1e-12)


def test_fringe_scan_memory_grows_with_detections(ref):
    # 2e7 pulses: sampling every photon would take gigabytes; the fired
    # events take tens of megabytes.
    tracemalloc.start()
    try:
        run = run_fringe_scan(ref, PHASES_12[:2], pulses=10_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    # About three event-sized float arrays at the point's peak.
    detections_per_point = run.histogram.total_counts() / 2
    assert peak < 40 * detections_per_point


def test_quiet_scenario_reaches_unit_visibility(ref):
    run = run_fringe_scan(quiet_variant(ref), PHASES_12, pulses=400_000)
    fit = extract_visibility(run.fringe_points(), background=run.mean_background())
    mean_counts = np.mean([p.counts for p in run.fringe])
    sigma_v = math.sqrt(2.0 / (12 * mean_counts))
    assert fit.v_net == pytest.approx(1.0, abs=3.0 * sigma_v)


def test_statistical_error_scales_inverse_sqrt(ref):
    phases = PHASES_12[:6]
    small = run_fringe_scan(ref, phases, pulses=50_000)
    large = run_fringe_scan(ref, phases, pulses=200_000)
    rel_small = np.mean([p.stat_error / p.counts for p in small.fringe])
    rel_large = np.mean([p.stat_error / p.counts for p in large.fringe])
    assert rel_large / rel_small == pytest.approx(0.5, abs=0.1)


# --- window rule and pulse ranks ---

PERIOD_NS = 1e3 / 60.0


def test_window_counts_wraps_past_the_period_end():
    # Centre 0.1 ns, width 0.5 ns: the window is [P - 0.15, P) plus [0, 0.35).
    lo = (0.1 - 0.25) % PERIOD_NS
    hi = lo + 0.5 - PERIOD_NS
    inside = [lo, PERIOD_NS - 0.1, 0.0, 0.2, np.nextafter(hi, 0.0)]
    outside = [np.nextafter(lo, 0.0), hi, 0.36, 5.0, PERIOD_NS - 0.2]
    folded = np.array(inside + outside)
    assert montecarlo._window_counts(folded, PERIOD_NS, 0.1, 0.5) == len(inside)
    assert montecarlo._window_counts(folded[::-1], PERIOD_NS, 0.1, 0.5) == len(inside)


@pytest.mark.parametrize("width_ns", [PERIOD_NS, 1.5 * PERIOD_NS, 40.0 * PERIOD_NS])
def test_window_counts_at_least_one_period_counts_every_event_once(width_ns):
    folded = np.mod(substream(1, "window").uniform(0.0, 1e6, 5000), PERIOD_NS)
    # np.mod of a time just below zero can round up to the period itself.
    folded[:3] = (0.0, np.nextafter(PERIOD_NS, 0.0), PERIOD_NS)
    for center in (0.0, 3.3, 0.5 * PERIOD_NS, PERIOD_NS - 0.01):
        assert montecarlo._window_counts(folded, PERIOD_NS, center, width_ns) == folded.size


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_counts_agrees_with_unfolded_formula(seed):
    # Reference: the rule as written on unfolded times, (t - lo) mod P < w.
    # The two can round differently only within an ulp of an edge.
    rng = substream(seed, "window")
    t = rng.uniform(0.0, 1e8, 200_000)
    folded = np.mod(t, PERIOD_NS)
    for center, width in [(2.0, 0.5), (0.1, 0.5), (PERIOD_NS - 0.05, 0.4), (8.0, 16.0), (4.0, 1e-3)]:
        lo = (center - 0.5 * width) % PERIOD_NS
        d = np.mod(t - lo, PERIOD_NS)
        away = (np.minimum(d, PERIOD_NS - d) > 1e-6) & (np.abs(d - width) > 1e-6)
        expected = int(np.count_nonzero(d[away] < width))
        assert montecarlo._window_counts(folded[away], PERIOD_NS, center, width) == expected


def test_pulse_ranks_match_unique_inverse():
    rng = substream(4, "ranks")
    for pulse in (rng.integers(0, 50, 400), rng.integers(0, 10**9, 400), np.zeros(3, dtype=np.int64)):
        occupied, inverse = np.unique(pulse, return_inverse=True)
        rank, n_occupied = montecarlo._pulse_ranks(pulse)
        assert n_occupied == occupied.size
        np.testing.assert_array_equal(rank, inverse)
    rank, n_occupied = montecarlo._pulse_ranks(np.empty(0, dtype=np.int64))
    assert rank.size == 0 and n_occupied == 0


# --- efficiency sweep ---


def test_efficiency_sweep_against_budget(ref):
    powers = np.linspace(0.0, ref.pump.power_w, 6)
    table = run_efficiency_sweep(ref, powers)
    assert table[0].power_w == 0.0
    assert table[0].eta_analytic == 0.0
    assert table[0].eta_mc == 0.0
    analytic = [p.eta_analytic for p in table]
    assert all(a < b for a, b in zip(analytic, analytic[1:]))
    for point in table[1:]:
        sigma = math.sqrt(point.eta_analytic / ref.mc_photons_per_point)
        assert abs(point.eta_mc - point.eta_analytic) <= 5.0 * sigma
    assert table[-1].eta_analytic == pytest.approx(ref.eta_qi(), rel=1e-12)


def test_efficiency_sweep_ignores_statistics_decoupling(ref):
    # The sweep always measures the physical chain, flag or no flag.
    physical = dataclasses.replace(ref, unit_conversion_survival=False)
    a = run_efficiency_sweep(ref, [0.65])
    b = run_efficiency_sweep(physical, [0.65])
    assert a == b


def test_efficiency_sweep_reproducible_and_order_invariant(ref):
    a = run_efficiency_sweep(ref, [0.1, 0.3, 0.65])
    b = run_efficiency_sweep(ref, [0.65, 0.1, 0.3])
    assert {p.power_w: p.eta_mc for p in a} == {p.power_w: p.eta_mc for p in b}
    with pytest.raises(DomainError):
        run_efficiency_sweep(ref, [-0.1])


def test_efficiency_sweep_rejects_repeated_powers(ref):
    with pytest.raises(ConfigError, match="repeats the value 0.3"):
        run_efficiency_sweep(ref, [0.1, 0.3, 0.3])


# --- analytic expectation and validation ---


def test_expected_fringe_frozen_components(ref):
    exp = expected_fringe(ref, PHASES_12)
    assert exp.signal_offset == pytest.approx(4430.427637441357, rel=1e-12)
    assert exp.signal_amplitude == pytest.approx(4251.233064515087, rel=1e-12)
    assert exp.background == pytest.approx(632.6239680799999, rel=1e-12)
    assert exp.v_net == pytest.approx(0.9595536621765574, rel=1e-12)
    assert exp.v_raw == pytest.approx(0.8396582527183871, rel=1e-12)


def test_expected_fringe_counts_shape(ref):
    exp = expected_fringe(ref, PHASES_12, pulses=500_000)
    peak = exp.background + exp.signal_offset + exp.signal_amplitude
    assert exp.counts.max() == pytest.approx(peak, rel=1e-12)
    assert exp.counts.min() > 0.0


def test_expected_fringe_rejects_square_pulses(ref):
    square = dataclasses.replace(
        ref, source=dataclasses.replace(ref.source, pulse_shape="square")
    )
    with pytest.raises(DomainError, match="gaussian"):
        expected_fringe(square, PHASES_12)


def assert_oracle_agrees(s):
    report = validate_against_oracle(s, PHASES_12, pulses=200_000)
    assert report.chi2_per_dof is not None
    assert 0.2 < report.chi2_per_dof < 2.7
    assert report.flagged_phases == ()
    assert report.n_points == 12
    assert len(report.rows) == 12


def test_validation_agrees_at_reference_settings(ref):
    assert_oracle_agrees(ref)


OFF_REFERENCE = {
    "physical-budget": lambda ref: dataclasses.replace(ref, unit_conversion_survival=False),
    "mean-photon-number-3": lambda ref: dataclasses.replace(
        ref, source=dataclasses.replace(ref.source, mean_photon_number=3.0)
    ),
    "unit-qe-short-pump-coherence": lambda ref: dataclasses.replace(
        ref,
        pump=dataclasses.replace(ref.pump, coherence_time_ns=5.0),
        detector=dataclasses.replace(ref.detector, quantum_efficiency=1.0),
    ),
    # The window rule folds the left edge on the period, wraps past the
    # period end, and counts every event once from a period wide up.
    "sca-centre-two-periods-on": lambda ref: dataclasses.replace(
        ref, sca=dataclasses.replace(ref.sca, center_ns=ref.sca.center_ns + 2.0 * ref.sync_period_ns())
    ),
    "sca-width-one-and-a-half-periods": lambda ref: dataclasses.replace(
        ref, sca=dataclasses.replace(ref.sca, width_ns=1.5 * ref.sync_period_ns())
    ),
}


@pytest.mark.parametrize("variant", OFF_REFERENCE)
def test_validation_agrees_off_reference_settings(ref, variant):
    assert_oracle_agrees(OFF_REFERENCE[variant](ref))


def test_validation_flags_corrupted_oracle(ref):
    report = validate_against_oracle(ref, PHASES_12, pulses=200_000, oracle_v_net=0.5)
    assert report.chi2_per_dof > 4.0
    assert len(report.flagged_phases) >= 2


def test_validation_zero_pulses_has_no_chi2(ref):
    report = validate_against_oracle(ref, PHASES_12, pulses=0)
    assert report.chi2_per_dof is None
    assert "zero pulses" in report.note
