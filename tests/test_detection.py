"""Detector stochastics, histogramming, and the count-rate estimators."""

import math
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from qifsim import detection
from qifsim.detection import (
    TacHistogram,
    dead_time_correct,
    dead_time_observe,
    extract_visibility,
    peak_fwhm,
    simulate_detection,
)
from qifsim.errors import DomainError, FitError
from qifsim.scenario import FWHM_TO_SIGMA, DetectorModel, ScaWindow

SYNC_PERIOD_NS = 1e3 / 60.0


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# --- rate estimators ---


def test_dead_time_correction_frozen():
    corrected = dead_time_correct(6000.0, 30.0)
    assert corrected == pytest.approx(6000.0 / 0.82, rel=1e-14)
    assert round(corrected, 2) == 7317.07


def test_dead_time_roundtrip_property():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        dead_us = rng.uniform(0.1, 50.0)
        # Stay below saturation of the observed rate.
        true_hz = rng.uniform(0.0, 0.95) / (dead_us * 1e-6)
        observed = dead_time_observe(true_hz, dead_us)
        assert observed <= true_hz
        back = dead_time_correct(observed, dead_us)
        assert back == pytest.approx(true_hz, rel=1e-10)


def test_dead_time_identity_limits():
    assert dead_time_observe(0.0, 30.0) == 0.0
    assert dead_time_correct(0.0, 30.0) == 0.0
    assert dead_time_observe(5000.0, 0.0) == 5000.0
    assert dead_time_correct(5000.0, 0.0) == 5000.0


def test_dead_time_correct_rejects_saturation():
    # 40 kHz observed with a 30 us hold-off would mean occupancy 1.2.
    with pytest.raises(DomainError, match="saturates"):
        dead_time_correct(40000.0, 30.0)


# --- detector model and stochastic response ---


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(quantum_efficiency=1.2),
        dict(quantum_efficiency=0.1, dark_count_rate_hz=-1.0),
        dict(quantum_efficiency=0.1, dead_time_us=-1.0),
        dict(quantum_efficiency=0.1, jitter_fwhm_ps=-1.0),
        dict(quantum_efficiency=0.1, afterpulse_probability=0.5),  # no dead time
        dict(quantum_efficiency=0.1, dark_count_rate_hz=math.nan),
        dict(quantum_efficiency=0.1, dead_time_us=math.nan),
        dict(quantum_efficiency=0.1, jitter_fwhm_ps=math.nan),
    ],
)
def test_detector_validation(kwargs):
    with pytest.raises(DomainError):
        DetectorModel(**kwargs)


def test_jitter_sigma_conversion():
    det = DetectorModel(quantum_efficiency=1.0, jitter_fwhm_ps=800.0)
    assert det.jitter_sigma_ns() == pytest.approx(0.8 * FWHM_TO_SIGMA, rel=1e-14)


def test_ideal_detector_passes_arrivals_through():
    det = DetectorModel(quantum_efficiency=1.0)
    times = np.sort(np.random.default_rng(5).uniform(0.0, 1e6, 500))
    out = simulate_detection(times, det, 0.0, rng_of(1))
    assert np.array_equal(out, times)


def test_dark_counts_poisson_level():
    det = DetectorModel(quantum_efficiency=1.0, dark_count_rate_hz=1e6)
    duration = 0.1
    out = simulate_detection(np.empty(0), det, duration, rng_of(4))
    expected = 1e6 * duration
    assert abs(out.size - expected) < 3.0 * math.sqrt(expected)
    assert out.min() >= 0.0 and out.max() <= duration * 1e9


def test_dead_time_blocks_second_arrival():
    det = DetectorModel(quantum_efficiency=1.0, dead_time_us=30.0)
    close = simulate_detection(np.array([0.0, 1000.0]), det, 0.0, rng_of(6))
    assert close.size == 1
    apart = simulate_detection(np.array([0.0, 31000.0]), det, 0.0, rng_of(6))
    assert apart.size == 2


def test_dead_time_thins_to_predicted_rate():
    rate_true = 50000.0
    duration = 0.2
    rng = rng_of(7)
    n = rng.poisson(rate_true * duration)
    times = np.sort(rng.uniform(0.0, duration * 1e9, n))
    det = DetectorModel(quantum_efficiency=1.0, dead_time_us=10.0)
    out = simulate_detection(times, det, duration, rng)
    predicted = dead_time_observe(rate_true, 10.0) * duration
    assert abs(out.size - predicted) < 4.0 * math.sqrt(predicted)


def test_afterpulsing_adds_events_and_terminates():
    det = DetectorModel(
        quantum_efficiency=1.0, dead_time_us=1.0, afterpulse_probability=1.0
    )
    out = simulate_detection(np.array([0.0]), det, 1e-4, rng_of(8))
    # Deterministic cascade at probability 1, capped by the observation end.
    assert out.size > 1
    assert out.max() < 1e-4 * 1e9 + 1e5


def test_unit_firing_probability_draws_nothing():
    det = DetectorModel(quantum_efficiency=1.0)
    times = np.sort(np.random.default_rng(16).uniform(0.0, 1e6, 500))
    rng = rng_of(17)
    out = simulate_detection(times, det, 0.0, rng)
    assert np.array_equal(out, times)
    assert rng.random() == rng_of(17).random()


# --- dead-time gate and afterpulses against sequential references ---


def sequential_gate(times, dead_ns):
    """Accept t when t >= last accepted + dead: the definition of the gate."""
    accepted = []
    blocked_until = -math.inf
    for t in times.tolist():
        if t >= blocked_until:
            accepted.append(t)
            blocked_until = t + dead_ns
    return np.asarray(accepted)


def marked_reference(times, dead_ns, spawners, delays_ns, horizon_ns, marks):
    """One heap over real events and afterpulses, popped in time order.

    Real event ``spawners[k]`` spawns at t + dead + ``delays_ns[k]`` when
    accepted; an accepted afterpulse takes the next of ``marks``.
    """
    delay_of = dict(zip(spawners.tolist(), delays_ns.tolist()))
    heap = [(t, i) for i, t in enumerate(times.tolist())]
    heapify(heap)
    accepted = []
    blocked_until = -math.inf
    while heap:
        t, i = heappop(heap)
        if t < blocked_until:
            continue
        accepted.append(t)
        blocked_until = t + dead_ns
        delay = delay_of.get(i) if i >= 0 else next(marks)
        if delay is None:
            continue
        candidate = t + dead_ns + delay
        if candidate < horizon_ns:
            heappush(heap, (candidate, -1))
    return np.asarray(accepted)


def afterpulse_marks(p_after, dead_ns):
    return detection._afterpulse_marks(rng_of(22), p_after, dead_ns)


def gate_streams(dead_ns):
    """Sorted event streams that stress the gate, each with a name."""
    rng = np.random.default_rng(18)
    centers = np.repeat(rng.uniform(0.0, 2e4, 30), 12)
    yield "random", np.sort(rng.uniform(0.0, 500 * dead_ns, 800))
    yield "clustered", np.sort(centers + rng.exponential(0.3 * dead_ns, centers.size))
    yield "ties", np.sort(np.round(rng.uniform(0.0, 100 * dead_ns, 600)))
    yield "gaps below dead", np.cumsum(rng.uniform(0.01, 0.99, 700) * dead_ns)
    # Gaps of t + dead nudged by -1, 0 or +1 ulp, where the rounding of
    # t + dead decides acceptance. Below t = dead, t' - t is inexact too.
    edge = [float(rng.uniform(0.0, dead_ns))]
    for step in rng.integers(-1, 2, 400).tolist():
        end = edge[-1] + dead_ns
        edge.append(float(np.nextafter(end, end + step)))
    yield "gaps at dead", np.asarray(edge)
    for k in range(40):
        start = float(rng.uniform(0.0, dead_ns))
        yield f"pair at dead {k}", np.array([start, float(np.nextafter(start + dead_ns, 0.0))])
    # One event per sync period, which is 0.83 dead times, with a small
    # spread: a single cluster that the scalar loop finishes.
    period = dead_ns / 1.2
    yield "periodic", np.sort(period * np.arange(2000) + rng.normal(0.0, 0.018 * period, 2000))
    # Periodic bursts of different lengths: the frontier narrows one
    # cluster at a time before the scalar loop takes over.
    bursts = [
        start + period * np.arange(length)
        for start, length in zip(
            3000.0 * dead_ns * np.arange(40), rng.integers(5, 120, 40).tolist()
        )
    ]
    yield "periodic bursts", np.concatenate(bursts)
    yield "empty", np.empty(0)
    yield "single", np.array([3.0])


@pytest.mark.parametrize("dead_ns", [0.37, 5.0, 20.0])
def test_gate_matches_sequential_loop(dead_ns):
    for name, times in gate_streams(dead_ns):
        gated = times[detection._gate(times, dead_ns)]
        assert np.array_equal(gated, sequential_gate(times, dead_ns)), name


def test_gate_draws_no_random_numbers():
    det = DetectorModel(quantum_efficiency=1.0, dead_time_us=0.02)
    times = np.sort(np.random.default_rng(19).uniform(0.0, 1e4, 1000))
    rng = rng_of(20)
    # The pass compacts the stream it is given in place.
    out = detection._dead_time_pass(times.copy(), det, rng, 1e4)
    assert np.array_equal(out, sequential_gate(times, 20.0))
    assert rng.random() == rng_of(20).random()


def afterpulse_streams(dead_ns, p_after):
    """(name, times, spawners, delays) of each afterpulse test stream.

    The gate's streams with random marks, then two at the density of a
    saturated detector.
    """
    rng = np.random.default_rng(21)
    for name, times in gate_streams(dead_ns):
        spawners = np.flatnonzero(rng.random(times.size) < p_after)
        yield name, times, spawners, rng.exponential(dead_ns, spawners.size)
    # One event per 2.2 dead times (44 ns at 20 ns): most candidates keep
    # the real gate's test, the rest interact.
    n = 20000
    times = np.sort(rng.uniform(0.0, 2.2 * dead_ns * n, n))
    spawners = np.flatnonzero(rng.random(n) < p_after)
    yield "poisson", times, spawners, rng.exponential(dead_ns, spawners.size)
    # Every event spawns soon after its dead time and the next one follows
    # 1.2-1.8 dead times later: afterpulses keep rewriting the real chain,
    # and their own candidates land in the backward windows of the real
    # candidates after them.
    times = np.cumsum(rng.uniform(1.2, 1.8, 4000) * dead_ns)
    spawners = np.arange(times.size)
    yield "children in windows", times, spawners, rng.uniform(0.0, 0.5 * dead_ns, times.size)


@pytest.mark.parametrize("p_after", [0.05, 0.3, 0.9, 1.0])
def test_afterpulse_pass_matches_marked_reference(p_after):
    dead_ns = 20.0
    for name, times, spawners, delays in afterpulse_streams(dead_ns, p_after):
        horizon = (float(times[-1]) if times.size else 0.0) + 30 * dead_ns
        args = (times, dead_ns, spawners, delays, horizon)
        # The pass compacts the stream it is given in place.
        out = detection._afterpulse_pass(times.copy(), *args[1:], afterpulse_marks(p_after, dead_ns))
        expected = marked_reference(*args, afterpulse_marks(p_after, dead_ns))
        assert np.array_equal(out, expected), name


def test_afterpulse_rate_delay_and_gap():
    # Real events 5000 dead times apart: every one is accepted and starts
    # its own cascade, whose length is geometric with mean 1 / (1 - p).
    p, dead_ns, n = 0.3, 20.0, 20000
    det = DetectorModel(
        quantum_efficiency=1.0, dead_time_us=dead_ns * 1e-3, afterpulse_probability=p
    )
    gap_ns = 5000 * dead_ns
    times = gap_ns * np.arange(n, dtype=float)
    out = simulate_detection(times, det, n * gap_ns * 1e-9, rng_of(23))
    expected = n / (1.0 - p)
    assert abs(out.size - expected) < 4.0 * math.sqrt(n * p) / (1.0 - p)
    # In a cascade each afterpulse follows its parent, the event before it.
    is_afterpulse = ~np.isin(out, times)
    delays = (out[1:] - out[:-1])[is_afterpulse[1:]] - dead_ns
    assert not is_afterpulse[0]
    assert abs(delays.mean() - dead_ns) < 4.0 * dead_ns / math.sqrt(delays.size)
    assert np.all(out[1:] >= out[:-1] + dead_ns)


@pytest.mark.parametrize("p", [0.05, 0.6])
def test_spawners_mark_each_index_independently(p):
    # Geometric gaps mark each index with probability p, independently of
    # its neighbour; each share is held to 6 sigma.
    n = 200_000
    spawners = detection._spawners(rng_of(31), n, p)
    assert np.all(np.diff(spawners) > 0) and 0 <= spawners[0] and spawners[-1] < n
    assert abs(spawners.size - n * p) < 6.0 * math.sqrt(n * p * (1.0 - p))
    pairs = np.count_nonzero(np.diff(spawners) == 1)
    assert abs(pairs - n * p * p) < 6.0 * math.sqrt(n * p * p * (1.0 - p * p))


def test_spawners_at_the_ends_of_the_probability_range():
    assert np.array_equal(detection._spawners(rng_of(1), 1000, 1.0), np.arange(1000))
    # Gaps beyond the int64 range neither overflow nor mark anything.
    assert detection._spawners(rng_of(1), 1000, 1e-300).size == 0
    assert detection._spawners(rng_of(1), 0, 0.5).size == 0


def test_jitter_spreads_arrivals():
    det = DetectorModel(quantum_efficiency=1.0, jitter_fwhm_ps=800.0)
    out = simulate_detection(np.full(100000, 5000.0), det, 0.0, rng_of(9))
    sigma = np.std(out - 5000.0)
    assert sigma == pytest.approx(0.8 * FWHM_TO_SIGMA, rel=0.02)


def test_simulate_detection_input_validation():
    det = DetectorModel(quantum_efficiency=1.0)
    with pytest.raises(DomainError):
        simulate_detection(np.empty(0), det, -1.0, rng_of(1))
    with pytest.raises(DomainError, match="1-D"):
        simulate_detection(np.zeros((3, 4)), det, 1e-6, rng_of(1))


@pytest.mark.parametrize("dead_time_us, p_after", [(0.0, 0.0), (0.02, 0.05)])
def test_arrival_order_does_not_matter_without_jitter(dead_time_us, p_after):
    # Without jitter the arrivals take no draws, so their order changes
    # only the order of a dead-time-free output, never its events.
    det = DetectorModel(
        quantum_efficiency=1.0,
        dark_count_rate_hz=2e7,
        dead_time_us=dead_time_us,
        afterpulse_probability=p_after,
    )
    arrivals = np.sort(rng_of(32).uniform(0.0, 1e5, 40000))
    shuffled = rng_of(33).permutation(arrivals)
    expected = simulate_detection(arrivals, det, 1e-4, rng_of(34))
    out = simulate_detection(shuffled, det, 1e-4, rng_of(34))
    assert np.sort(out).tobytes() == np.sort(expected).tobytes()


def stream_by_hand(arrivals, det, duration_s, rng):
    """The jittered arrivals in their given order, then the dark counts, as one call draws them."""
    jittered = arrivals + rng.normal(0.0, det.jitter_sigma_ns(), arrivals.size)
    n_dark = rng.poisson(det.dark_count_rate_hz * duration_s)
    return np.concatenate([jittered, rng.uniform(0.0, duration_s * 1e9, n_dark)])


@pytest.mark.parametrize("buffered", [False, True])
def test_dead_time_free_output_is_the_unsorted_stream(buffered):
    # No sort without a dead time: the output is the stream in draw order,
    # so sorted it is what a detector that always sorted returned.
    det = DetectorModel(quantum_efficiency=1.0, jitter_fwhm_ps=300.0, dark_count_rate_hz=2e7)
    shuffled = rng_of(38).permutation(np.sort(rng_of(39).uniform(0.0, 1e5, 40000)))
    stream = stream_by_hand(shuffled, det, 1e-4, rng_of(40))
    buffer = np.empty(shuffled.size + 5000) if buffered else None
    out = simulate_detection(shuffled, det, 1e-4, rng_of(40), buffer=buffer)
    assert out.tobytes() == stream.tobytes()
    assert not np.all(out[1:] >= out[:-1])


def test_shuffled_arrivals_with_jitter_come_out_sorted():
    # Under a dead time the stream is sorted, then gated; without one the
    # output keeps the draw order (the test above).
    det = DetectorModel(
        quantum_efficiency=1.0, jitter_fwhm_ps=300.0, dark_count_rate_hz=2e7, dead_time_us=0.02
    )
    shuffled = rng_of(36).permutation(np.sort(rng_of(35).uniform(0.0, 1e5, 40000)))
    stream = np.sort(stream_by_hand(shuffled, det, 1e-4, rng_of(37)))
    out = simulate_detection(shuffled, det, 1e-4, rng_of(37))
    assert out.tobytes() == sequential_gate(stream, 20.0).tobytes()
    assert np.all(out[1:] >= out[:-1] + 20.0)


@pytest.mark.parametrize("dead_time_us, p_after", [(0.0, 0.0), (0.02, 0.05)])
def test_lent_buffer_gives_the_same_detections_as_a_copy(dead_time_us, p_after):
    det = DetectorModel(
        quantum_efficiency=1.0,
        jitter_fwhm_ps=300.0,
        dark_count_rate_hz=2e7,
        dead_time_us=dead_time_us,
        afterpulse_probability=p_after,
    )
    arrivals = np.sort(rng_of(30).uniform(0.0, 1e5, 40000))
    duration_s = 1e-4
    expected = simulate_detection(arrivals, det, duration_s, rng_of(31))
    # Room for the dark counts; too little room; and arrivals copied in.
    for room in (5000, 10):
        buffer = np.empty(arrivals.size + room)
        buffer[: arrivals.size] = arrivals
        out = simulate_detection(buffer[: arrivals.size], det, duration_s, rng_of(31), buffer=buffer)
        assert np.array_equal(out, expected)
        assert np.shares_memory(out, buffer) == (room == 5000)
    buffer = np.full(arrivals.size + 5000, np.nan)
    out = simulate_detection(arrivals, det, duration_s, rng_of(31), buffer=buffer)
    assert np.array_equal(out, expected)
    assert np.array_equal(arrivals, np.sort(rng_of(30).uniform(0.0, 1e5, 40000)))


def test_detections_keep_no_pre_gate_stream_alive():
    det = DetectorModel(quantum_efficiency=1.0, dead_time_us=0.02)
    out = simulate_detection(np.full(100000, 5000.0), det, 0.0, rng_of(9))
    assert out.size == 1
    assert out.base is None or out.base.size == out.size


def test_simulate_detection_buffer_validation():
    det = DetectorModel(quantum_efficiency=1.0)
    arrivals = np.arange(4.0)
    for buffer in (np.empty(3), np.empty(4, dtype=np.float32), np.empty((2, 4))):
        with pytest.raises(DomainError, match="buffer"):
            simulate_detection(arrivals, det, 0.0, rng_of(1), buffer=buffer)


# --- folding and histogramming ---


def bin_times(times, width_ps: float, period_ns: float = SYNC_PERIOD_NS):
    """Fold times on the period with np.mod, as the engine does, and bin them."""
    counts = detection._bin_folded(np.mod(times, period_ns), period_ns, width_ps)
    return TacHistogram(width_ps, counts, 0)


def test_histogram_conserves_counts_across_bin_widths():
    rng = np.random.default_rng(10)
    times = rng.uniform(0.0, 1e7, 20000)
    for width_ps in (7.0, 50.0, 333.0):
        hist = bin_times(times, width_ps)
        assert hist.total_counts() == times.size


def test_histogram_bin_count_and_layout():
    hist = bin_times(np.empty(0), 50.0)
    assert hist.counts.size == 334
    exact = bin_times(np.empty(0), 50.0, period_ns=10.0)
    assert exact.counts.size == 200
    edges = exact.bin_edges_ns()
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(10.0, rel=1e-12)


def test_histogram_folds_onto_origin():
    # One event per period, all at the same mid-bin phase: a single hot bin.
    times = 3.71 + SYNC_PERIOD_NS * np.arange(1000, dtype=float)
    hist = bin_times(times, 50.0)
    assert hist.counts.max() == 1000
    center = hist.bin_centers_ns()[np.argmax(hist.counts)]
    assert abs(center - 3.71) <= 0.05


def test_histogram_validation():
    with pytest.raises(DomainError):
        bin_times(np.empty(0), 0.0)
    with pytest.raises(DomainError):
        TacHistogram(50.0, np.array([-1]), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_histogram_refuses_counts_that_are_not_finite(bad):
    # A NaN passes the "< 0" check, and total_counts() then failed in int().
    with pytest.raises(DomainError, match="finite"):
        TacHistogram(1.0, np.array([1.0, bad]), 0)


# --- peak width ---


def gaussian_histogram(mu_ns: float, sigma_ns: float, amplitude: float) -> TacHistogram:
    """Noise-free sampled Gaussian profile, the width oracle."""
    width_ps = 50.0
    nbins = 334
    centers = (np.arange(nbins) + 0.5) * width_ps * 1e-3
    counts = np.rint(amplitude * np.exp(-0.5 * ((centers - mu_ns) / sigma_ns) ** 2))
    return TacHistogram(width_ps, counts.astype(np.int64), 0)


def test_peak_fwhm_on_analytic_gaussian():
    sigma = 1.0 * FWHM_TO_SIGMA  # 1 ns FWHM
    hist = gaussian_histogram(5.2, sigma, 5e4)
    width = peak_fwhm(hist, 5.2)
    assert width == pytest.approx(1.0, rel=0.01)


def test_peak_fwhm_quadrature_of_pulse_and_jitter():
    sigma = math.hypot(1.0, 0.8) * FWHM_TO_SIGMA
    hist = gaussian_histogram(5.2, sigma, 5e4)
    assert peak_fwhm(hist, 5.2) == pytest.approx(math.hypot(1.0, 0.8), rel=0.01)


def test_peak_fwhm_selects_seeded_peak():
    sigma = 0.4 * FWHM_TO_SIGMA
    tall = gaussian_histogram(5.2, sigma, 5e4)
    side = gaussian_histogram(7.4, sigma, 2e4)
    hist = TacHistogram(tall.bin_width_ps, tall.counts + side.counts, 0)
    assert peak_fwhm(hist, 7.4) == pytest.approx(0.4, rel=0.05)


def test_peak_fwhm_rejects_starved_peak():
    hist = gaussian_histogram(5.2, 0.4, 50.0)
    with pytest.raises(DomainError, match="counts"):
        peak_fwhm(hist, 5.2)


def test_peak_fwhm_rejects_truncated_peak():
    hist = gaussian_histogram(0.2, 0.6, 5e4)
    with pytest.raises(DomainError, match="edge"):
        peak_fwhm(hist, 0.2)


def test_delta_pulse_occupies_at_most_two_bins():
    det = DetectorModel(quantum_efficiency=1.0)
    times = 5.2 + SYNC_PERIOD_NS * np.arange(3000, dtype=float)
    out = simulate_detection(times, det, 0.0, rng_of(13))
    hist = bin_times(out, 50.0)
    assert np.count_nonzero(hist.counts) <= 2


# --- SCA window ---


def test_sca_window_validation():
    with pytest.raises(DomainError):
        ScaWindow(5.2, 0.0)


# --- visibility ---


def synth_fringe(s, v, b, alpha=0.0, n=12):
    phases = np.linspace(0.0, 2.0 * math.pi, n)
    counts = s * (1.0 + v * np.cos(alpha - phases)) / 2.0 + b
    return np.column_stack([phases, counts])


def test_visibility_fit_exact_on_noiseless_fringe():
    for v in (0.3, 0.84, 1.0):
        for b in (0.0, 50.0):
            pts = synth_fringe(1000.0, v, b, alpha=0.8)
            fit = extract_visibility(pts, background=b)
            assert fit.v_net == pytest.approx(v, abs=1e-9)
            expected_raw = 1000.0 * v / (1000.0 + 2.0 * b)
            assert fit.v_raw == pytest.approx(expected_raw, abs=1e-9)
            assert fit.phase_offset_rad == pytest.approx(0.8, abs=1e-9)


def test_visibility_fit_on_poisson_counts():
    rng = np.random.default_rng(15)
    pts = synth_fringe(1e6, 0.84, 0.0, n=24)
    pts[:, 1] = rng.poisson(pts[:, 1])
    fit = extract_visibility(pts)
    assert fit.v_raw == pytest.approx(0.84, abs=0.005)


def test_visibility_fit_flat_data_reads_zero():
    phases = np.linspace(0.0, 2.0 * math.pi, 12)
    pts = np.column_stack([phases, np.full(12, 500.0)])
    fit = extract_visibility(pts)
    assert fit.v_raw == pytest.approx(0.0, abs=1e-12)


def test_visibility_fit_requirements():
    with pytest.raises(DomainError, match="distinct"):
        extract_visibility(np.array([[0.0, 1.0], [0.0, 2.0], [math.pi, 1.0]]))
    short_span = synth_fringe(100.0, 0.5, 0.0)[:6]
    with pytest.raises(DomainError, match="span"):
        extract_visibility(short_span)
    pts = synth_fringe(100.0, 0.5, 0.0)
    pts[0, 1] = -1.0
    with pytest.raises(DomainError):
        extract_visibility(pts)
    with pytest.raises(DomainError, match="background"):
        extract_visibility(synth_fringe(100.0, 0.5, 0.0), background=1000.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_visibility_fit_refuses_a_phase_that_is_not_finite(bad, capfd):
    # A NaN span compares False with the one-period bound, so this phase
    # used to reach the least-squares solve, which failed inside LAPACK.
    pts = synth_fringe(100.0, 0.5, 0.0)
    pts[3, 0] = bad
    with pytest.raises(DomainError, match=f"phases must be finite, got {bad} rad"):
        extract_visibility(pts)
    with pytest.raises(DomainError, match="finite"):
        detection.check_fit_phases(pts[:, 0])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_visibility_fit_refuses_counts_that_are_not_finite(bad):
    # A NaN count used to pass every check and give v_net = nan.
    pts = synth_fringe(100.0, 0.5, 0.0)
    pts[5, 1] = bad
    with pytest.raises(DomainError, match="fringe counts must be finite"):
        extract_visibility(pts)


def test_visibility_fit_rejects_non_sinusoid():
    phases = np.linspace(0.0, 2.0 * math.pi, 24)
    sawtooth = 100.0 + 200.0 * (phases % (math.pi / 2.0))
    with pytest.raises(FitError, match="not sinusoidal"):
        extract_visibility(np.column_stack([phases, sawtooth]))
