"""A phase point simulated the obvious way, photon by photon: a test-only check of the engine.

It shares nothing with the engine's point model, samplers or dead-time
gate. Each pulse draws its photon number; each photon a slot, from
``timebin.analyze`` at the preparation phase and opposite it with the
pulse's own pump drift, and its survival; then come the emission offsets,
cw light over the run, jitter and dark counts, and one loop over the
events in time order applies the non-paralyzable dead time, with
afterpulses from a heap.
"""

import heapq
import math
from dataclasses import replace

import numpy as np

from qifsim.scenario import FWHM_TO_SIGMA
from qifsim.timebin import analyze, apply_conversion_phase, prepare_qubit


def detections(s, beta, pulses, rng):
    """Detection times, ns, of one point at analysis phase ``beta``."""
    period, dt, det = s.sync_period_ns(), s.analysis.delta_tau_ns, s.detector
    duration_ns = s.duration_s(pulses) * 1e9
    qubit = apply_conversion_phase(prepare_qubit(s.preparation), s.extra_visibility_penalty)
    alpha = s.preparation.phase_rad
    (_, early), (_, mid_hi), (_, late) = analyze(qubit, replace(s.analysis, phase_rad=alpha)).slots
    mid_lo = analyze(qubit, replace(s.analysis, phase_rad=alpha + math.pi)).slots[1][1]
    pulse = np.repeat(np.arange(pulses), rng.poisson(s.source.mean_photon_number, pulses))
    drift_rad = math.sqrt(2.0 * s.preparation.delta_tau_ns / s.pump.coherence_time_ns)
    drift = rng.normal(0.0, drift_rad, pulses)
    middle = 0.5 * (mid_hi + mid_lo) + 0.5 * (mid_hi - mid_lo) * np.cos(alpha + drift[pulse] - beta)
    u = rng.random(pulse.size)
    slot = np.select([u < early, u < early + middle, u < early + middle + late], [0, 1, 2], -1)
    survival = s.conversion_survival() * det.quantum_efficiency
    fired = (slot >= 0) & (rng.random(pulse.size) < survival)
    pulse, slot = pulse[fired], slot[fired]
    fwhm = s.source.pulse_fwhm_ns
    if s.source.pulse_shape == "gaussian":
        emission = rng.normal(0.0, fwhm * FWHM_TO_SIGMA, pulse.size)
    else:
        emission = rng.uniform(-0.5 * fwhm, 0.5 * fwhm, pulse.size)
    signal = pulse * period + s.tac_offset_ns + slot * dt + emission
    # A cw photon is not split into bins: it passes both forward ports.
    passage = 2.0 * s.preparation.forward_path_amplitude() ** 2
    passage *= 2.0 * s.analysis.forward_path_amplitude() ** 2
    n_cw = rng.poisson(s.source.cw_background_fraction * s.source.mean_photon_number * pulses)
    cw = rng.uniform(0.0, duration_ns, n_cw)
    cw = cw[rng.random(n_cw) < survival * passage]
    photons = np.concatenate([signal, cw])
    photons += rng.normal(0.0, det.jitter_sigma_ns(), photons.size)
    n_dark = rng.poisson(det.dark_count_rate_hz * duration_ns * 1e-9)
    darks = rng.uniform(0.0, duration_ns, n_dark)
    events = np.sort(np.concatenate([photons, darks])).tolist()
    dead = det.dead_time_us * 1e3
    if dead == 0:
        return np.array(events)
    horizon = max([duration_ns, *events[-1:]])
    accepted, blocked = [], -math.inf
    marks = afterpulse_marks(rng, det.afterpulse_probability, dead)
    while events:  # sorted, so already a heap
        t = heapq.heappop(events)
        if t < blocked:
            continue
        accepted.append(t)
        blocked = t + dead
        spawn, delay = next(marks)
        if spawn and t + dead + delay < horizon:
            heapq.heappush(events, t + dead + delay)
    return np.array(accepted)


def afterpulse_marks(rng, p, dead):
    """(spawns or not, delay after the dead time) of each accepted event in turn."""
    while True:
        yield from zip((rng.random(4096) < p).tolist(), rng.exponential(dead, 4096).tolist())


def scan(s, phases, pulses, rng):
    """Window counts, background counts and TAC bin counts of a scan, by the rules written out."""
    period, width = s.sync_period_ns(), s.sca.width_ns
    bin_ns = s.histogram_bin_width_ps * 1e-3
    n_bins = math.ceil(period / bin_ns - 1e-9)
    window, background, bins = [], [], np.zeros(n_bins, dtype=np.int64)
    for beta in phases:
        folded = np.mod(detections(s, beta, pulses, rng), period)
        # An event is inside when (t - lo) mod T < width, lo the window's left edge.
        centers = (s.sca.center_ns, s.sca.center_ns + 0.5 * period)
        for center, counts in zip(centers, (window, background)):
            inside = np.mod(folded - (center - 0.5 * width), period) < width
            counts.append(folded.size if width >= period else int(np.count_nonzero(inside)))
        index = np.minimum((folded / bin_ns).astype(np.int64), n_bins - 1)
        bins += np.bincount(index, minlength=n_bins)
    return np.array(window), np.array(background), bins
