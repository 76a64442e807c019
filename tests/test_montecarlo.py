"""Stochastic engine: reproducibility, statistics, and the analytic cross-check."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from qifsim import montecarlo
from qifsim.detection import extract_visibility
from qifsim.errors import ConfigError, DomainError, FitError
from qifsim.montecarlo import (
    expected_fringe,
    run_efficiency_sweep,
    run_fringe_scan,
    substream,
    validate_against_oracle,
)
from qifsim.scenario import load_reference_scenario, scenario_digest

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
    # A change of generator changes every output: it must show up here.
    assert isinstance(substream(42, "fringe-scan", 1.25).bit_generator, np.random.PCG64DXSM)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [run_fringe_scan, expected_fringe, validate_against_oracle])
def test_fringe_scan_rejects_non_finite_phase_before_drawing(ref, entry, bad, monkeypatch):
    # The oracle once returned a NaN count, with a RuntimeWarning, for a NaN phase.
    def no_draws(*args):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    with pytest.raises(DomainError, match=f"phase must be finite, got {bad} rad"):
        entry(ref, [0.0, bad, 1.0], pulses=1_000)


@pytest.mark.parametrize(
    "grid",
    [[[0.0, 1.0, 2.0]], np.array([[0.0], [1.0], [2.0]]), [[0.0, 1.0], 2.0], ["zero", 1.0]],
    ids=["row", "column", "ragged", "text"],
)
@pytest.mark.parametrize("entry", [run_fringe_scan, validate_against_oracle, expected_fringe])
def test_phase_grid_that_is_not_flat_is_refused_before_drawing(ref, monkeypatch, entry, grid):
    # Once a bare TypeError from the scan, and 2-D counts from expected_fringe.
    def no_draws(*args):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    with pytest.raises(DomainError, match="phases must be a flat grid of numbers"):
        entry(ref, grid, pulses=1_000)


@pytest.mark.parametrize("grid", [0.5, [0.5], np.array(0.5)])
@pytest.mark.parametrize("entry", [run_fringe_scan, validate_against_oracle])
def test_scalar_or_one_point_phase_grid_needs_two_points(ref, monkeypatch, entry, grid):
    def no_draws(*args):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    with pytest.raises(DomainError, match="need at least 2 phase points, got 1"):
        entry(ref, grid, pulses=1_000)


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


def test_pump_drift_is_drawn_once_per_pulse_of_two_or_more(ref):
    # One middle-slot candidate per pulse on average, 2 rad^2 of drift. A
    # pulse with one candidate keeps it with the mean acceptance and draws
    # no drift, so the kept count follows the closed form; the candidates
    # of a pulse with two share one drift, so both are kept with
    # E[p^2] / p_max^2, not (E p)^2 / p_max^2. Each is held to 6 sigma.
    s = dataclasses.replace(
        ref, pump=dataclasses.replace(ref.pump, coherence_time_ns=ref.preparation.delta_tau_ns)
    )
    m = montecarlo._point_model(s)
    m = dataclasses.replace(m, fired_per_pulse=1.0 / m.middle.p_max)
    mid, pulses = m.middle, 200_000
    a, b, d2, phi = mid.offset, mid.amplitude, mid.drift_rad**2, 0.3
    mean_p = a + b * math.exp(-0.5 * d2) * math.cos(phi)
    mean_p2 = a * a + 2 * a * b * math.exp(-0.5 * d2) * math.cos(phi)
    mean_p2 += 0.5 * b * b * (1.0 + math.exp(-2.0 * d2) * math.cos(2.0 * phi))

    pulse, kept = montecarlo._middle_pulses(m, mid.alpha_rad - phi, pulses, substream(5, "drift"))
    f = m.fired_per_pulse
    expected = pulses * f * mean_p
    sigma = math.sqrt(pulses * (f * mean_p + f * f * (mean_p2 - mean_p**2)))
    assert abs(np.count_nonzero(kept) - expected) < 6.0 * sigma

    _, first, counts = np.unique(pulse, return_index=True, return_counts=True)
    pairs = first[counts == 2]
    share = np.mean(kept[pairs] & kept[pairs + 1])
    both, independent = mean_p2 / mid.p_max**2, (mean_p / mid.p_max) ** 2
    sigma_share = math.sqrt(both * (1.0 - both) / pairs.size)
    assert abs(share - both) < 6.0 * sigma_share
    assert abs(independent - both) > 12.0 * sigma_share  # the test tells them apart


def test_pump_drift_spans_the_preparation_delay(ref):
    # The drift is the pump phase across the qubit's bin separation, which
    # the preparation delay sets; the analysis delay may differ by up to 1 %,
    # here 2.222 ns against 2.2 ns.
    s = dataclasses.replace(ref, analysis=dataclasses.replace(ref.analysis, delta_tau_ns=2.222))
    drift = montecarlo._point_model(s).middle.drift_rad
    # exp(-dt / tau_c), the fringe contrast a Lorentzian pump line leaves.
    factor = math.exp(-s.preparation.delta_tau_ns / s.pump.coherence_time_ns)
    assert math.exp(-0.5 * drift**2) == pytest.approx(factor, rel=1e-12)


def traced_scan(s, pulses):
    """A two-point scan and its traced peak allocation in bytes."""
    tracemalloc.start()
    try:
        run = run_fringe_scan(s, PHASES_12[:2], pulses=pulses)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return run, peak


def test_fringe_scan_memory_grows_with_detections(ref):
    # 2e7 pulses: sampling every photon would take gigabytes; the fired
    # events take tens of megabytes.
    run, peak = traced_scan(ref, 10_000_000)
    assert peak < 100e6
    # About two event-sized float arrays at the point's peak.
    detections_per_point = run.histogram.total_counts() / 2
    assert peak < 30 * detections_per_point


def test_dead_time_scan_memory_grows_with_detections(ref):
    # A saturated detector: QE 0.9, 20 ns dead time and 5 % afterpulsing,
    # about 7.5e5 detections per point. The gate, the afterpulse pass and
    # the middle-slot ranks each peak below 50 bytes per detection.
    s = dataclasses.replace(
        ref,
        detector=dataclasses.replace(
            ref.detector, quantum_efficiency=0.9, dead_time_us=0.02, afterpulse_probability=0.05
        ),
    )
    run, peak = traced_scan(s, 3_000_000)
    assert peak < 50 * run.histogram.total_counts() / 2


def saturated(ref):
    """QE 0.9, 20 ns dead time and 5 % afterpulsing."""
    return dataclasses.replace(
        ref,
        detector=dataclasses.replace(
            ref.detector, quantum_efficiency=0.9, dead_time_us=0.02, afterpulse_probability=0.05
        ),
    )


@pytest.mark.parametrize("settings, pulses", [("reference", 10_000_000), ("saturated", 3_000_000)])
def test_one_point_memory_grows_with_detections(ref, settings, pulses):
    # One point's working set, whatever the number in flight: under 14
    # bytes per detection on the reference path and 23 on the dead-time
    # path, so two points in flight stay under the scan bounds above.
    s = ref if settings == "reference" else saturated(ref)
    model = montecarlo._point_model(s)
    rng = substream(s.master_seed, "fringe-scan", 0.0)
    tracemalloc.start()
    try:
        bins, _, _ = montecarlo._simulate_point(s, model, 0.0, pulses, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 14 if settings == "reference" else 23
    assert peak < bound * int(bins.sum())


def test_each_point_detects_through_simulate_detection(ref, monkeypatch):
    # The engine calls the module's public name at every point, so a
    # wrapper around it, such as a tracer's, sees each point's arrivals and
    # detections, from either thread.
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    s = saturated(ref)
    calls = []
    lock = threading.Lock()
    detect = montecarlo.simulate_detection

    def watched(arrivals, *args, **kwargs):
        detections = detect(arrivals, *args, **kwargs)
        gaps = detections[1:] - detections[:-1]
        with lock:
            calls.append((arrivals.size, detections.size, float(gaps.min())))
        return detections

    expected = run_fringe_scan(s, PHASES_12, pulses=50_000)
    monkeypatch.setattr(montecarlo, "simulate_detection", watched)
    run = run_fringe_scan(s, PHASES_12, pulses=50_000)
    assert run.content_digest() == expected.content_digest()
    assert len(calls) == PHASES_12.size
    assert sum(n for _, n, _ in calls) == run.histogram.total_counts()
    assert all(arrivals > 0 for arrivals, _, _ in calls)
    assert min(gap for _, _, gap in calls) >= 20.0 - 1e-6


def grid_order_scan(s, phases, pulses):
    """The scan as a plain loop over the grid, one point at a time."""
    model = montecarlo._point_model(s)
    counts, fringe, backgrounds = 0, [], []
    for beta in phases:
        rng = substream(s.master_seed, "fringe-scan", float(beta))
        bins, window, background = montecarlo._simulate_point(s, model, float(beta), pulses, rng)
        counts = counts + bins
        fringe.append(montecarlo.FringePoint(float(beta), window, math.sqrt(window)))
        backgrounds.append(background)
    return montecarlo.RunResult(
        histogram=montecarlo.TacHistogram(s.histogram_bin_width_ps, counts, pulses * len(phases)),
        fringe=tuple(fringe),
        background_estimates=tuple(backgrounds),
        eta_realized=s.conversion_survival(),
        metadata={
            "master_seed": s.master_seed,
            "scenario_digest": scenario_digest(s),
            "pulses_per_point": pulses,
            "phase_points": len(phases),
        },
        wall_clock_s=0.0,
    )


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("settings", ["reference", "saturated"])
def test_points_in_flight_change_no_result(ref, settings, seed, monkeypatch):
    s = dataclasses.replace(ref if settings == "reference" else saturated(ref), master_seed=seed)
    expected = grid_order_scan(s, PHASES_12, 50_000).content_digest()

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    threads = set()
    simulate = montecarlo._simulate_point

    def recorded(*args):
        threads.add(threading.get_ident())
        return simulate(*args)

    monkeypatch.setattr(montecarlo, "_simulate_point", recorded)
    assert run_fringe_scan(s, PHASES_12, pulses=50_000).content_digest() == expected
    assert threads == {threading.get_ident()}

    # Two in flight, even on one CPU: the first two points wait for each other.
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    threads.clear()
    both = threading.Barrier(2, timeout=30)
    calls = []

    def paired(*args):
        calls.append(args[2])
        if len(calls) <= 2:
            both.wait()
        return recorded(*args)

    monkeypatch.setattr(montecarlo, "_simulate_point", paired)
    assert run_fringe_scan(s, PHASES_12, pulses=50_000).content_digest() == expected
    assert len(threads) == 2


# content_digest() of 12-point scans at 2e4 pulses per point. A change
# that moves any output byte, such as a change to the random stream, must
# update these and record the change.
PINNED_DIGESTS = {
    ("reference", 7): "9e9e3c50894648cac2c819e0332db145af82ba98f601203f9af4522d6fac2650",
    ("reference", 4242): "db5e0684f429f5a1b0d5506b277d72cc57fb5ca4a8a741591d650911e4d8272a",
    ("saturated", 7): "d711a4d1ed9a91d93649158ca70b295d18317b3278a669bab8555914bc18b0cb",
    ("saturated", 4242): "3ec1a95dfd1cf8cc61035532357e6d8f7c65403c68dcf588194347612581df92",
}


@pytest.mark.parametrize("settings, seed", sorted(PINNED_DIGESTS))
def test_scan_output_bytes_are_pinned(ref, settings, seed):
    s = dataclasses.replace(ref if settings == "reference" else saturated(ref), master_seed=seed)
    run = run_fringe_scan(s, PHASES_12, pulses=20_000)
    assert run.content_digest() == PINNED_DIGESTS[settings, seed]


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_point_in_grid_order_surfaces(ref, cpus, monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    phases = PHASES_12[:8]
    ran = []
    lock = threading.Lock()

    def failing(s, model, beta, pulses, rng):
        with lock:
            ran.append(beta)
        index = int(np.flatnonzero(phases == beta)[0])
        if index == 2:
            # Fails after point 3 has, if point 3 runs beside it.
            threading.Event().wait(0.2)
            raise FitError("no fit here")
        if index == 3:
            raise DomainError("nor here")
        threading.Event().wait(0.05)
        return np.zeros(3, dtype=np.int64), 0, 0

    monkeypatch.setattr(montecarlo, "_simulate_point", failing)
    before = set(threading.enumerate())
    with pytest.raises(FitError, match=rf"^phase point beta = {phases[2]:.6g} rad: no fit here$"):
        run_fringe_scan(ref, phases, pulses=1_000)
    assert set(threading.enumerate()) == before
    # Points 0 to 2 ran; with two in flight point 3 may have started beside
    # point 2, and no later point started.
    assert set(phases[:3].tolist()) <= set(ran) <= set(phases[: 3 if cpus == 1 else 4].tolist())


def test_point_runner_takes_each_point_once_under_fast_switching(monkeypatch):
    # Both workers take points from one shared iterator; with the
    # interpreter switching threads every microsecond, a lost or repeated
    # take would show as a missing, repeated or misplaced result.
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    phases = [0.001 * k for k in range(3000)]
    taken = []
    threads = set()
    # The first two points wait for each other, so each worker takes one.
    both = threading.Barrier(2, timeout=30)

    def simulate(beta):
        taken.append(beta)
        threads.add(threading.get_ident())
        if beta in phases[:2]:
            both.wait()
        return -beta

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = montecarlo._run_points(simulate, phases)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-beta for beta in phases]
    assert sorted(taken) == phases
    assert len(threads) == 2


def test_projected_events_beyond_int32_indices_fail_before_drawing(ref, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking the event count")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    with pytest.raises(ConfigError, match="projected events, above the 2147483647"):
        run_fringe_scan(ref, PHASES_12[:2], pulses=10**13)


def test_drawn_candidates_beyond_int32_indices_fail_before_narrowing(ref):
    class HugeDraw:
        def poisson(self, mean):
            return 2**31

        def integers(self, *args):
            raise AssertionError("drew pulses before checking the count")

    model = montecarlo._point_model(ref)
    with pytest.raises(ConfigError, match="2.147e\\+09 middle-slot candidates"):
        montecarlo._middle_pulses(model, 0.0, 10**9, HugeDraw())


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


@pytest.mark.parametrize("center_ns", [0.0, 3.3, 5.2, PERIOD_NS - 0.01])
def test_window_share_of_a_peak_much_wider_than_the_period(ref, center_ns):
    # Folded on the period, a Gaussian of sigma 10 T is flat, once every
    # copy of it that reaches the window is counted.
    period = ref.sync_period_ns()
    share = montecarlo._window_share(ref, center_ns, 10.0 * period)
    assert share == pytest.approx(ref.sca.width_ns / period, abs=1e-9)


def window_share_by_copies(s, center_ns, sigma_ns):
    """The window share as erf pairs summed over every copy of the peak within 9 sigma of the window."""
    period = s.sync_period_ns()
    lo, hi = montecarlo._window(period, s.sca.center_ns, s.sca.width_ns)
    center = center_ns % period
    reach = 9.0 * sigma_ns
    first = math.floor((lo - reach - center) / period) - 1
    last = math.ceil((hi + reach - center) / period) + 1
    z = 1.0 / (sigma_ns * math.sqrt(2.0))
    return math.fsum(
        0.5 * (math.erf((hi - mu) * z) - math.erf((lo - mu) * z))
        for mu in (center + k * period for k in range(first, last + 1))
    )


@pytest.mark.parametrize("sigma_periods", [0.5, 0.7, 1.0, 2.0, 4.0])
def test_window_share_series_matches_the_sum_over_copies(ref, sigma_periods):
    # From sigma = T / 2 on, the share is a Fourier series; it must agree
    # with the direct sum, for windows that wrap past the period end too.
    period = ref.sync_period_ns()
    for sca in (
        ref.sca,
        dataclasses.replace(ref.sca, width_ns=8.0),
        dataclasses.replace(ref.sca, center_ns=period - 0.1, width_ns=0.6),
    ):
        s = dataclasses.replace(ref, sca=sca)
        for center_ns in (0.0, 3.3, 5.2, period - 0.01, 40.0):
            share = montecarlo._window_share(s, center_ns, sigma_periods * period)
            assert share == pytest.approx(
                window_share_by_copies(s, center_ns, sigma_periods * period), rel=0, abs=1e-13
            )


def test_window_share_of_an_extremely_wide_peak_is_flat_and_quick(ref):
    # The sum over copies would take some 2e6 erf pairs here.
    period = ref.sync_period_ns()
    started = time.perf_counter()
    share = montecarlo._window_share(ref, 3.3, 1e5 * period)
    assert time.perf_counter() - started < 5e-3
    assert share == pytest.approx(ref.sca.width_ns / period, rel=0, abs=1e-15)


def shared_ranks_by_unique(pulse):
    """``_shared_ranks`` by ``np.unique``: 0 for a value seen once, else 1 + its rank among the repeats."""
    _, inverse, counts = np.unique(pulse, return_inverse=True, return_counts=True)
    repeats = counts >= 2
    rank_of_value = np.where(repeats, np.cumsum(repeats), 0)
    return rank_of_value[inverse], int(repeats.sum())


def test_shared_ranks_match_unique_counts():
    rng = substream(4, "ranks")
    for draws in (
        rng.integers(0, 50, 400),
        rng.integers(0, 10**9, 400),
        rng.integers(0, 60_000, 70_000),  # several blocks
        np.zeros(3, dtype=np.int64),
    ):
        pulse = np.sort(draws)
        expected, n_shared = shared_ranks_by_unique(pulse)
        rank, shared = montecarlo._shared_ranks(pulse)
        assert shared == n_shared
        np.testing.assert_array_equal(rank, expected)
    rank, shared = montecarlo._shared_ranks(np.empty(0, dtype=np.int64))
    assert rank.size == 0 and shared == 0


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


def test_expected_fringe_rejects_negative_pulses(ref):
    # The same error as the engine's, not a fringe of negative counts.
    with pytest.raises(DomainError, match="pulses must be >= 0, got -5"):
        expected_fringe(ref, [0.0, 1.0], pulses=-5)
    with pytest.raises(DomainError, match="pulses must be >= 0, got -5"):
        run_fringe_scan(ref, [0.0, 1.0], pulses=-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5])
@pytest.mark.parametrize("entry", [run_fringe_scan, expected_fringe, validate_against_oracle])
def test_pulse_count_must_be_an_integer(ref, entry, bad, monkeypatch):
    # 1.5 used to run and record pulses_per_point = 1.5; NaN failed inside
    # numpy, or gave the oracle NaN counts.
    def no_draws(*args):
        raise AssertionError("drew before checking the pulse count")

    monkeypatch.setattr(montecarlo, "substream", no_draws)
    with pytest.raises(DomainError, match=f"pulses must be an integer, got {bad!r}"):
        entry(ref, [0.0, 1.0], pulses=bad)


def test_pulse_count_accepts_numpy_integers(ref):
    # The count is read as a Python int, so its type does not reach the digest.
    run = run_fringe_scan(ref, [0.0, 1.0], pulses=np.int64(1_000))
    assert run.metadata["pulses_per_point"] == 1_000
    assert run.content_digest() == run_fringe_scan(ref, [0.0, 1.0], pulses=1_000).content_digest()


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
    # A peak of zero width: the oracle's window share takes its sigma = 0 branch.
    "delta-pulses-without-jitter": lambda ref: dataclasses.replace(
        ref,
        source=dataclasses.replace(ref.source, pulse_fwhm_ns=0.0),
        detector=dataclasses.replace(ref.detector, jitter_fwhm_ps=0.0),
    ),
}


@pytest.mark.parametrize("variant", OFF_REFERENCE)
def test_validation_agrees_off_reference_settings(ref, variant):
    assert_oracle_agrees(OFF_REFERENCE[variant](ref))


# Fixed before the first run, with the bounds below.
POOLED_SEEDS = range(1000, 1064)
POOLED_PULSES = 200_000
# Settings without a net visibility at this statistic; the V_net check skips them.
NO_NET_VISIBILITY = {
    "physical-budget": "about one signal count per point over a background of 110",
    "sca-width-one-and-a-half-periods": "the background window spans the period and holds the signal",
}


def chi2_over_n_quantile(n, p):
    """The ``p`` quantile of chi2_n / n, by the Wilson-Hilferty cube."""
    c = 2.0 / (9.0 * n)
    return (1.0 - c + NormalDist().inv_cdf(p) * math.sqrt(c)) ** 3


@pytest.mark.parametrize("setting", ["reference", *OFF_REFERENCE])
def test_pooled_seeds_show_no_bias(ref, setting):
    """64 seeds x 12 points pool n = 768 z scores against ``expected_fringe``.

    Sensitivity: |mean z| < 5 / sqrt(n) = 0.18 sees a bias of 0.18 sigma per
    point, 2.5 to 8 counts (0.4 to 1.3 %) on the reference's 200 to 1900
    counts per point. The mean z^2 must lie within the chi2_n / n quantiles
    at 1e-6 on each side, 0.776 to 1.262, so a spread 25 % off shows. The
    mean fitted V_net must lie within 5 standard errors of the oracle's,
    about +-0.007 at the reference and +-0.004 at mu = 3. This adds to
    criterion 6's one seed and changes none of its bands.
    """
    s = ref if setting == "reference" else OFF_REFERENCE[setting](ref)
    expected = expected_fringe(s, PHASES_12, pulses=POOLED_PULSES)
    z, v_net = [], []
    for seed in POOLED_SEEDS:
        run = run_fringe_scan(
            dataclasses.replace(s, master_seed=seed), PHASES_12, pulses=POOLED_PULSES
        )
        observed = np.array([p.counts for p in run.fringe], dtype=float)
        z.append((observed - expected.counts) / np.sqrt(expected.counts))
        if setting not in NO_NET_VISIBILITY:
            fit = extract_visibility(run.fringe_points(), background=run.mean_background())
            v_net.append(fit.v_net)
    z = np.concatenate(z)
    n = z.size
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert chi2_over_n_quantile(n, 1e-6) < np.mean(z**2) < chi2_over_n_quantile(n, 1.0 - 1e-6)
    if v_net:
        v_net = np.array(v_net)
        standard_error = v_net.std(ddof=1) / math.sqrt(v_net.size)
        assert abs(v_net.mean() - expected.v_net) < 5.0 * standard_error


def test_validation_flags_corrupted_oracle(ref, monkeypatch):
    honest = montecarlo.expected_fringe

    def corrupted(s, phases, pulses=None):
        # The oracle's own background and offset, at a foreign net visibility of 0.5.
        exp = honest(s, phases, pulses)
        amplitude = 0.5 * exp.signal_offset
        fringe = amplitude * np.cos(s.preparation.phase_rad - exp.phases_rad)
        counts = exp.background + exp.signal_offset + fringe
        return dataclasses.replace(exp, counts=counts, signal_amplitude=amplitude, v_net=0.5)

    monkeypatch.setattr(montecarlo, "expected_fringe", corrupted)
    report = validate_against_oracle(ref, PHASES_12, pulses=200_000)
    assert report.chi2_per_dof > 4.0
    assert len(report.flagged_phases) >= 2


def test_validation_checks_oracle_domain_before_scanning(ref, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("scanned a scenario the oracle does not cover")

    monkeypatch.setattr(montecarlo, "substream", no_draw)
    square = dataclasses.replace(
        ref, source=dataclasses.replace(ref.source, pulse_shape="square")
    )
    with pytest.raises(DomainError, match="gaussian"):
        validate_against_oracle(square, PHASES_12)


def test_validation_zero_pulses_has_no_chi2(ref):
    report = validate_against_oracle(ref, PHASES_12, pulses=0)
    assert report.chi2_per_dof is None
    assert "zero pulses" in report.note
