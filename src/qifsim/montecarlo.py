"""Stochastic end-to-end experiment engine.

Generates weak coherent pulses through preparation, conversion and
analysis, and produces the arrival-time histogram and the windowed fringe
scan, with Poisson error bars. Only the photons that fire the detector
are sampled: a Poisson photon stream thinned by slot, conversion survival
and quantum efficiency is again a Poisson stream, so each point draws its
fired events directly, in a number that grows with detections rather than
with pulses, and hands them to the detector model for dark counts, dead
time and afterpulsing, and for jitter where the pulses are square. Each
point owns one event buffer, sized once for its arrivals and dark
counts, which the sampling stages fill and the detector model writes
over a block at a time; the
detections are folded on the sync period in it once, for the point's TAC
bin counts and both window counts. A scan sums its points' bin counts
into its one histogram. Every run is reproducible: all randomness flows
from PCG64DXSM substreams derived from the scenario's master seed,
a role tag, and the grid value of the point, so results are independent
of the order in which points are simulated, and a scan runs two points
at once where the process may use two CPUs.

Each point is one intensity model, a few Poisson components with a mean
count per pulse and a time profile: the engine samples it, and
``expected_fringe`` integrates it over the window by the engine's own
window rule; ``validate_against_oracle`` checks the two against each
other. A Gaussian pulse's width in the model already holds the detector
jitter, so each of its photons takes one Gaussian draw and the detector
model adds none. The candidates of one middle-slot pulse share its pump
drift, which is drawn only for a pulse with two or more of them; a lone
candidate is kept with the drift's mean effect, its exact probability.
The fold on the sync period equals ``np.mod`` bit for bit, by a split
of the period that makes the remainder exact, without fmod.

This module needs numpy, and only the fringe-scan, histogram and validate
commands import it. The efficiency sweep lives in the numpy-free
``conversion`` module; ``run_efficiency_sweep`` is re-exported here for
the benchmark, which calls it by this name.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import threading
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .detection import (
    _BLOCK,
    TacHistogram,
    _add_normal,
    _bin_folded,
    _blocks,
    _fill_uniform,
    _reserve,
    simulate_detection,
)
from .conversion import _reject_repeats, run_efficiency_sweep
from .errors import COUNT, FINITE, ConfigError, DomainError, QifsimError, grid, require
from .scenario import FWHM_TO_SIGMA, DetectorModel, Scenario, scenario_digest
from .timebin import analyze, apply_conversion_phase, prepare_qubit

# Points in flight at once: the calling thread's and one helper's.
_MAX_IN_FLIGHT = 2
# Events of one point, and so every index into them, fit an int32.
_MAX_POINT_EVENTS = 2**31 - 1

__all__ = [
    "FringePoint",
    "RunResult",
    "ExpectedFringe",
    "ValidationReport",
    "substream",
    "run_fringe_scan",
    "run_efficiency_sweep",
    "expected_fringe",
    "validate_against_oracle",
]


def substream(master_seed: int, tag: str, value: float = 0.0) -> np.random.Generator:
    """Independent PCG64DXSM stream for one grid point.

    Keyed by the master seed, a role tag, and the bit pattern of the grid
    value (phase, power, ...), not by the point's position in the sweep, so
    permuting a grid never changes any point's draw.
    """
    bits = int(np.float64(value).view(np.uint64))
    seq = np.random.SeedSequence((master_seed, zlib.crc32(tag.encode()), bits))
    return np.random.Generator(np.random.PCG64DXSM(seq))


@dataclass(frozen=True)
class FringePoint:
    """One phase point of the scan: window counts and Poisson error."""

    phase_rad: float
    counts: int
    stat_error: float


@dataclass(frozen=True)
class RunResult:
    """Everything a fringe scan produces.

    Attributes:
        histogram: arrival-time histogram of all phase points, one per scan.
        fringe: per-phase window counts with statistical errors.
        background_estimates: per-phase counts in a window of equal width
            parked half a sync period away from the signal peak.
        eta_realized: per-photon conversion survival actually applied in
            this run (1.0 when the scenario decouples statistics from the
            budget; the physical budget otherwise).
        metadata: deterministic provenance (seed, scenario digest, grid
            sizes). Wall-clock time lives in ``wall_clock_s`` and is
            deliberately outside the deterministic content.
    """

    histogram: TacHistogram
    fringe: tuple[FringePoint, ...]
    background_estimates: tuple[int, ...]
    eta_realized: float
    metadata: dict
    wall_clock_s: float

    def fringe_points(self) -> np.ndarray:
        """(N, 2) array of (phase, counts) for the visibility fit."""
        return np.array([[p.phase_rad, p.counts] for p in self.fringe])

    def mean_background(self) -> float:
        if not self.background_estimates:
            return 0.0
        return float(np.mean(self.background_estimates))

    def content_digest(self) -> str:
        """SHA-256 over the deterministic content (wall clock excluded)."""
        h = hashlib.sha256()
        h.update(self.histogram.counts.tobytes())
        h.update(np.float64(self.histogram.bin_width_ps).tobytes())
        h.update(np.int64(self.histogram.sync_pulses).tobytes())
        fringe = [(p.phase_rad, p.counts, p.stat_error) for p in self.fringe]
        h.update(np.asarray(fringe, dtype=np.float64).tobytes())
        h.update(np.asarray(self.background_estimates, dtype=np.int64).tobytes())
        h.update(np.float64(self.eta_realized).tobytes())
        h.update(repr(sorted(self.metadata.items())).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class _SidePeaks:
    """Early and late slots: one Poisson stream, split p_early : p_late."""

    p_early: float
    p_late: float
    late_delay_ns: float


@dataclass(frozen=True)
class _MiddlePeak:
    """The interfering slot, of weight offset + amplitude cos(alpha + drift - beta).

    ``drift_rad`` is the rms pump-phase drift across the qubit's bin
    separation, one Gaussian draw per pulse that holds two or more
    candidates; 0 for a coherent pump.
    """

    offset: float
    amplitude: float
    alpha_rad: float
    drift_rad: float
    delay_ns: float

    @property
    def p_max(self) -> float:
        """The largest weight, at which the engine draws its candidates."""
        return self.offset + abs(self.amplitude)


@dataclass(frozen=True)
class _PointModel:
    """Intensity of the photons that fire the detector, per phase point.

    Three Poisson components, each weighted per unit of ``fired_per_pulse``
    (mean fired photons per pulse per unit of slot or passage probability):
    the early/late pair and the middle peak, centred at pulse x period +
    ``tac_offset_ns`` + slot delay and spread by the pulse shape, and cw
    light flat over the run, of weight ``cw``. ``pulse_width_ns`` is the
    Gaussian sigma, or the full width of a square pulse. A Gaussian pulse
    spread by Gaussian jitter is one Gaussian, so its sigma is
    hypot(pulse sigma, jitter sigma), one draw per photon, and
    ``detector`` is the scenario's detector with no jitter; a square pulse
    keeps its width, and ``detector`` the jitter. The engine samples these
    components and hands its events to ``detector``; ``expected_fringe``
    integrates them. The darks and the dead time are not part of the model.
    """

    fired_per_pulse: float
    tac_offset_ns: float
    pulse_shape: str
    pulse_width_ns: float
    sides: _SidePeaks
    middle: _MiddlePeak
    cw: float
    detector: DetectorModel


def _point_model(s: Scenario) -> _PointModel:
    """The scenario's per-point model, the same at every analysis phase.

    The slot probabilities come from probe analyses at zero and pi phase
    difference, so they stay one source of truth with the amplitude
    algebra. The middle amplitude already carries the scenario's extra
    visibility penalty; the pump drift supplies the rest per pulse.
    """
    qubit = apply_conversion_phase(prepare_qubit(s.preparation), s.extra_visibility_penalty)
    alpha = s.preparation.phase_rad
    aligned = analyze(qubit, replace(s.analysis, phase_rad=alpha)).slots
    opposed = analyze(qubit, replace(s.analysis, phase_rad=alpha + math.pi)).slots
    mid_hi, mid_lo = aligned[1][1], opposed[1][1]
    delta_tau = s.analysis.delta_tau_ns
    fwhm = s.source.pulse_fwhm_ns
    # The pump phase drifts as a Wiener process, of variance 2 dt / tau_c
    # across the qubit's bin separation dt, so exp(-drift^2 / 2) is the
    # scenario's pump coherence factor.
    drift = math.sqrt(2.0 * s.preparation.delta_tau_ns / s.pump.coherence_time_ns)
    # A cw photon is not split into bins: it passes both forward ports.
    passage = 2.0 * s.preparation.forward_path_amplitude() ** 2
    passage *= 2.0 * s.analysis.forward_path_amplitude() ** 2
    detector, width = s.detector, fwhm
    if s.source.pulse_shape == "gaussian":
        width = math.hypot(fwhm * FWHM_TO_SIGMA, detector.jitter_sigma_ns())
        detector = replace(detector, jitter_fwhm_ps=0.0)
    return _PointModel(
        fired_per_pulse=(
            s.source.mean_photon_number
            * s.conversion_survival()
            * s.detector.quantum_efficiency
        ),
        tac_offset_ns=s.tac_offset_ns,
        pulse_shape=s.source.pulse_shape,
        pulse_width_ns=width,
        sides=_SidePeaks(aligned[0][1], aligned[2][1], 2.0 * delta_tau),
        middle=_MiddlePeak(
            0.5 * (mid_hi + mid_lo), 0.5 * (mid_hi - mid_lo), alpha, drift, delta_tau
        ),
        cw=s.source.cw_background_fraction * passage,
        detector=detector,
    )


def _window(period_ns: float, center_ns: float, width_ns: float) -> tuple[float, float] | None:
    """The SCA window on the folded period, the one rule for "inside".

    The window is [lo, lo + width) with lo the left edge folded on the
    period; the part past the period end reaches into the next period. A
    window at least one period wide counts every event once: None.
    """
    if width_ns >= period_ns:
        return None
    lo = (center_ns - 0.5 * width_ns) % period_ns
    return lo, lo + width_ns


def _fold(times_ns: np.ndarray, period_ns: float) -> np.ndarray:
    """``np.mod(times_ns, period_ns, out=times_ns)``, bit for bit, without fmod.

    The period splits as T = T_hi + T_lo, T_hi holding its top 26
    significant bits. For |t| < 2**26 T, q = trunc(t / T) by a multiply
    makes q T_hi, q T_lo and t - q T_hi exact, so r = (t - q T_hi) - q T_lo
    rounds once, to the exact t - q T. Where q is one off, or t is negative
    (``np.mod`` then rounds t - q T + T), r falls outside (0, T), and the
    entry is redone by ``np.mod``; so is an exact zero, which ``np.mod``
    signs positive. An array with a time at or past 2**26 T, or a NaN, goes
    to ``np.mod`` whole. Works a block at a time.
    """
    inv = 1.0 / period_ns
    if not (times_ns.size and times_ns.max() * inv < 2.0**26 and times_ns.min() * inv > -(2.0**26)):
        return np.mod(times_ns, period_ns, out=times_ns)
    t_hi = float((np.float64(period_ns).view(np.uint64) & ~np.uint64(2**27 - 1)).view(np.float64))
    t_lo = period_ns - t_hi
    q = np.empty(min(times_ns.size, _BLOCK))
    r = np.empty_like(q)
    for lo, hi in _blocks(0, times_ns.size):
        t = times_ns[lo:hi]
        qb, rb = q[: hi - lo], r[: hi - lo]
        np.multiply(t, inv, out=qb)
        np.trunc(qb, out=qb)
        np.multiply(qb, t_hi, out=rb)
        np.subtract(t, rb, out=rb)
        qb *= t_lo
        rb -= qb
        outside = rb <= 0.0
        outside |= rb >= period_ns
        if outside.any():
            outside = np.flatnonzero(outside)
            rb[outside] = np.mod(t[outside], period_ns)
        t[:] = rb
    return times_ns


def _window_counts(folded_ns: np.ndarray, period_ns: float, center_ns: float, width_ns: float) -> int:
    """Folded arrival times inside the window; the part past the period end wraps."""
    window = _window(period_ns, center_ns, width_ns)
    if window is None:
        return int(folded_ns.size)
    lo, hi = window
    below_lo = int(np.count_nonzero(folded_ns < lo))
    if hi <= period_ns:
        return int(np.count_nonzero(folded_ns < hi)) - below_lo
    return folded_ns.size - below_lo + int(np.count_nonzero(folded_ns < hi - period_ns))


def _window_share(s: Scenario, center_ns: float, sigma_ns: float) -> float:
    """Share of a Gaussian peak's events that ``_window_counts`` counts.

    The peak repeats every period T, so the share sums P(lo <= X < hi) over
    the copies X ~ Normal(center + k T, sigma) that can reach the window.
    Past 9 sigma, erf is 1.0 in double precision, so a farther copy adds
    exactly 0. Copies -1 to 2 are always in the sum. From sigma = T / 2 on,
    where that sum would take more than a dozen erf pairs, the share is the
    folded Gaussian's Fourier series instead, integrated over the window
    of width w and centre c: w / T + sum over k >= 1 of (2 / (pi k))
    sin(pi k w / T) cos(2 pi k (c - center) / T) exp(-2 pi^2 k^2 sigma^2 / T^2).
    Its terms fall below 1e-17 within three, so the cost no longer grows
    with sigma.
    """
    period = s.sync_period_ns()
    window = _window(period, s.sca.center_ns, s.sca.width_ns)
    if window is None:
        return 1.0
    if sigma_ns >= 0.5 * period:
        flat = s.sca.width_ns / period
        share, k = flat, 1
        while (damping := math.exp(-2.0 * (math.pi * k * sigma_ns / period) ** 2)) > 1e-17:
            cos = math.cos(2.0 * math.pi * k * (s.sca.center_ns - center_ns) / period)
            share += 2.0 / (math.pi * k) * math.sin(math.pi * k * flat) * cos * damping
            k += 1
        return share
    lo, hi = window
    center = center_ns % period
    reach = 9.0 * sigma_ns
    copies = range(
        min(-1, math.floor((lo - reach - center) / period)),
        max(2, math.ceil((hi + reach - center) / period)) + 1,
    )
    if sigma_ns == 0:
        return sum(1.0 if lo <= center + k * period < hi else 0.0 for k in copies)
    z = 1.0 / (sigma_ns * math.sqrt(2.0))
    return sum(
        0.5 * (math.erf((hi - mu) * z) - math.erf((lo - mu) * z))
        for mu in (center + k * period for k in copies)
    )


def _uniform_below(
    rng: np.random.Generator, n: int, bound, scale: float, rank=None
) -> np.ndarray:
    """Mask of ``rng.random(n) * scale < bound``, drawn a block at a time.

    The generator fills its uniforms in sequence, so the blocks draw the
    same numbers as one call, into one reused block-sized buffer.
    ``bound`` is one value; with ``rank``, entry i compares with
    ``bound[rank[i]]``, gathered a block at a time.
    """
    mask = np.empty(n, dtype=bool)
    if rank is None:
        bound = np.broadcast_to(bound, n)
    block = np.empty(min(n, _BLOCK))
    for lo, hi in _blocks(0, n):
        u = block[: hi - lo]
        rng.random(out=u)
        u *= scale
        np.less(u, bound[lo:hi] if rank is None else bound.take(rank[lo:hi]), out=mask[lo:hi])
    return mask


def _shared_ranks(pulse: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each entry of an ascending array among the values that repeat, and their count.

    An entry whose value occurs once has rank 0, and one whose value
    repeats 1 + that value's rank among the values that repeat. Such a
    value fills a run of equal neighbours, so the ranks come from the
    repeat pairs (i, i + 1) alone: a pair that does not continue the pair
    before it heads a run, and a count of the heads ranks each pair's two
    entries. Besides ``pulse`` and the int32 ranks, one bool of its size
    lives while the pairs are found, then only arrays the size of the
    repeat pairs. The caller keeps ``pulse.size`` within
    ``_MAX_POINT_EVENTS``.
    """
    rank = np.zeros(pulse.size, dtype=np.int32)
    pairs = np.flatnonzero(pulse[1:] == pulse[:-1])
    if not pairs.size:
        return rank, 0
    heads = np.empty(pairs.size, dtype=bool)
    heads[0] = True
    np.not_equal(pairs[1:], pairs[:-1] + 1, out=heads[1:])
    ranks = np.cumsum(heads, dtype=np.int32)
    rank[pairs] = ranks
    rank[pairs + 1] = ranks
    return rank, int(ranks[-1])


def _check_events(n: float, what: str) -> None:
    """Refuse a point whose event count would overflow an int32 index."""
    if n > _MAX_POINT_EVENTS:
        raise ConfigError(
            f"a phase point has {n:.4g} {what}, above the {_MAX_POINT_EVENTS} "
            f"its int32 indices hold; lower the pulses per point"
        )


def _poisson_room(mean: float) -> int:
    """Entries to reserve for a Poisson count of this mean, 10 sigma above it.

    A larger draw, at odds far below 1e-20, costs one copy of the events
    already in the buffer, not a different result.
    """
    return int(mean + 10.0 * math.sqrt(mean)) + 16


def _side_times(m: _PointModel, pulses: int, period: float, rng) -> np.ndarray:
    """Emission-free times of the fired early and late photons.

    Poisson(N f (p_early + p_late)) events on uniformly chosen pulses, each
    early or late in proportion to p_early : p_late. The pulse indices and
    then the uniforms are drawn a block at a time, the uniforms into one
    reused block that then holds each event's slot delay.
    """
    p_early, p_sides = m.sides.p_early, m.sides.p_early + m.sides.p_late
    n = rng.poisson(pulses * m.fired_per_pulse * p_sides)
    times = np.empty(n)
    for lo, hi in _blocks(0, n):
        np.multiply(rng.integers(0, pulses, hi - lo), period, out=times[lo:hi])
    u = np.empty(min(n, _BLOCK))
    late = np.empty(u.size, dtype=bool)
    for lo, hi in _blocks(0, n):
        ub, lb = u[: hi - lo], late[: hi - lo]
        rng.random(out=ub)
        ub *= p_sides
        np.greater_equal(ub, p_early, out=lb)
        np.multiply(lb, m.sides.late_delay_ns, out=ub)
        block = times[lo:hi]
        block += m.tac_offset_ns
        block += ub
    return times


def _middle_pulses(
    m: _PointModel, beta_rad: float, pulses: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Pulses of the middle-slot candidates, and the mask of those kept.

    Poisson(N f p_max) candidates at the largest slot probability p_max,
    each kept with probability p_mid(drift) / p_max. With a drifting pump,
    the pulse indices are sorted in place, so the candidates come in pulse
    order. A pulse with one candidate keeps it with the mean of p_mid over
    the drift, offset + amplitude exp(-drift_rad^2 / 2) cos(alpha - beta),
    and draws no drift. The candidates of a pulse with two or more share
    one drift, drawn for each such pulse in pulse order; the acceptance
    uniforms follow, a block at a time, each compared with its pulse's
    p_mid gathered by ``_shared_ranks``. The pulse indices are stored as
    int32 whenever the pulse count allows.
    """
    mid = m.middle
    p_max = mid.p_max
    n = rng.poisson(pulses * m.fired_per_pulse * p_max)
    _check_events(n, "middle-slot candidates")
    pulse = np.empty(n, dtype=np.int32 if pulses <= 2**31 else np.int64)
    for lo, hi in _blocks(0, n):
        pulse[lo:hi] = rng.integers(0, pulses, hi - lo)
    # The absolute pump phase is common to both bins and drops out, so only
    # the drift between them is realized, once per pulse that holds two or
    # more candidates: every photon of a pulse sees the same drift.
    if mid.drift_rad > 0:
        pulse.sort()
        rank, shared = _shared_ranks(pulse)
        # p_mid by rank: the mean over the drift, then each shared drift's.
        p_pulse = np.empty(shared + 1)
        p_pulse[0] = mid.offset + mid.amplitude * math.exp(-0.5 * mid.drift_rad**2) * math.cos(
            mid.alpha_rad - beta_rad
        )
        drifted = p_pulse[1:]
        drifted[:] = rng.normal(0.0, mid.drift_rad, shared)
        # offset + amplitude cos(alpha + drift - beta), term by term.
        drifted += mid.alpha_rad
        drifted -= beta_rad
        np.cos(drifted, out=drifted)
        drifted *= mid.amplitude
        drifted += mid.offset
        return pulse, _uniform_below(rng, n, p_pulse, p_max, rank=rank)
    p_mid = mid.offset + mid.amplitude * np.cos(mid.alpha_rad - beta_rad)
    return pulse, _uniform_below(rng, n, p_mid, p_max)


def _arrival_times(
    s: Scenario, m: _PointModel, beta_rad: float, pulses: int, rng: np.random.Generator, room: int
) -> tuple[np.ndarray, int]:
    """One point's fired signal photons and cw light, in an engine buffer.

    Returns the buffer and the number n of arrivals at its start; at least
    ``room`` entries are left free after them. The arrivals are in draw
    order, early and late, then middle, then cw, not in time order:
    ``simulate_detection`` sorts the stream only where a dead time gates
    it, and nothing downstream of it reads the order. Each time is pulse
    index x period + TAC offset + slot delay + emission offset, summed in
    that order. The buffer is allocated once the middle slot's kept count
    is known, with room for the cw light, and filled a block at a time;
    the Gaussian offsets go through one reused block, and the cw times
    are drawn in place.
    """
    period = s.sync_period_ns()
    sides = _side_times(m, pulses, period, rng)
    pulse, kept = _middle_pulses(m, beta_rad, pulses, rng)
    n_sides = sides.size
    n_signal = n_sides + int(np.count_nonzero(kept))
    cw_mean = pulses * m.fired_per_pulse * m.cw
    times = np.empty(n_signal + _poisson_room(cw_mean) + room)
    times[:n_sides] = sides
    del sides
    filled = n_sides
    for lo, hi in _blocks(0, pulse.size):
        block = pulse[lo:hi].compress(kept[lo:hi])
        np.multiply(block, period, out=times[filled : filled + block.size])
        filled += block.size
    del pulse, kept
    middle = times[n_sides:n_signal]
    middle += m.tac_offset_ns
    middle += m.middle.delay_ns

    # The emission offsets, a block at a time, as one call would draw them.
    if m.pulse_width_ns > 0 and m.pulse_shape == "gaussian":
        _add_normal(rng, times[:n_signal], m.pulse_width_ns)
    elif m.pulse_width_ns > 0:
        half = 0.5 * m.pulse_width_ns
        for lo, hi in _blocks(0, n_signal):
            times[lo:hi] += rng.uniform(-half, half, hi - lo)

    n_cw = rng.poisson(cw_mean)
    times = _reserve(times, n_signal, n_cw + room)
    n = n_signal + n_cw
    _fill_uniform(rng, times[n_signal:n], s.duration_s(pulses) * 1e9)
    return times, n


def _simulate_point(
    s: Scenario, m: _PointModel, beta_rad: float, pulses: int, rng: np.random.Generator
) -> tuple[np.ndarray, int, int]:
    """One phase point: returns (TAC bin counts, window counts, background counts).

    Samples only the photons that fire the detector. With Poisson photon
    numbers per pulse, the photons of each slot that survive conversion and
    fire the detector form independent Poisson streams, the components of
    ``m``, so each stream's total over the point is drawn directly and its
    events are spread over uniformly chosen pulses; the middle slot's
    candidates are drawn at its largest probability and thinned by the
    drift of their pulse.

    The point owns one event buffer, sized for the arrivals and, 10 sigma
    above their mean, the dark counts. ``simulate_detection`` works in it,
    and the detections are folded on the sync period in it; that one
    folded array feeds the bin counts and both window counts.
    """
    period = s.sync_period_ns()
    duration_s = s.duration_s(pulses)
    dark_room = _poisson_room(s.detector.dark_count_rate_hz * duration_s)
    times, n_fired = _arrival_times(s, m, beta_rad, pulses, rng, dark_room)
    # The public name, looked up here, so a wrapper around it sees every point.
    detections = simulate_detection(times[:n_fired], m.detector, duration_s, rng, buffer=times)
    del times
    folded = _fold(detections, period)
    window = _window_counts(folded, period, s.sca.center_ns, s.sca.width_ns)
    background = _window_counts(folded, period, s.sca.center_ns + 0.5 * period, s.sca.width_ns)
    return _bin_folded(folded, period, s.histogram_bin_width_ps), window, background


def _pulse_count(s: Scenario, pulses: int | None) -> int:
    """Pulses per point: the override, else the scenario's; an integer, never negative."""
    n_pulses = s.pulses_per_point if pulses is None else pulses
    require(n_pulses, COUNT, "pulses")
    # A numpy integer reaches the digest and the metadata as an int.
    return operator.index(n_pulses)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_points(simulate, phases: list[float]) -> list:
    """``simulate(beta)`` for each phase, at most two points at once, in grid order.

    The points draw from their own substreams, so the order in which they
    run changes no result. The calling thread runs points, and one helper
    thread more runs points beside it when the process may use two CPUs and
    the grid has two points; most of a point's time is numpy work that
    releases the interpreter lock. Both take the next point in grid order.
    Once a point fails no new point starts, the points in flight finish,
    and the failure of the first failing point in grid order is raised.
    The helper is joined before this returns or raises.
    """
    results: list = [None] * len(phases)
    failures: dict[int, BaseException] = {}
    pending = iter(range(len(phases)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(pending, None)
            if i is None:
                return
            try:
                results[i] = simulate(phases[i])
            except BaseException as exc:  # re-raised below, in the caller's thread
                with lock:
                    failures[i] = exc
                stop.set()
                return

    in_flight = min(_MAX_IN_FLIGHT, _usable_cpus(), len(phases))
    helpers = [threading.Thread(target=work, name="qifsim-point") for _ in range(in_flight - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        # Also when the caller is interrupted: the helper starts no new point.
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_fringe_scan(s: Scenario, phases_rad, pulses: int | None = None) -> RunResult:
    """Scan the analysis phase and count windowed arrivals at each point.

    Args:
        s: scenario; its ``pulses_per_point`` is used unless overridden.
        phases_rad: at least two analysis phases.
        pulses: optional override of pulses per point.

    Deterministic for a given scenario and master seed; each phase point
    draws from its own substream, so up to two points run at once, one on
    the calling thread and one on a helper; the points' bin counts are
    summed in grid order into the scan's one histogram.

    Raises:
        DomainError: a grid that is not flat, fewer than 2 phases, a phase
            not finite, or pulses not an integer or < 0.
        ConfigError: a phase appears twice in the grid, or a point's
            projected events exceed the int32 indices of the engine.
    """
    # A non-finite phase keys a stream that no repeat check can tell apart
    # from another NaN, and its point would lose the middle slot.
    betas = grid(phases_rad, "phase", FINITE, " rad")
    if len(betas) < 2:
        raise DomainError(f"need at least 2 phase points, got {len(betas)}")
    # Only the scan keys streams by phase.
    _reject_repeats(betas, "phase")
    n_pulses = _pulse_count(s, pulses)

    started = time.perf_counter()
    model = _point_model(s)
    # Mean events of a point, by arithmetic: signal, middle candidates at
    # the largest slot probability, cw light and dark counts.
    weight = model.sides.p_early + model.sides.p_late + model.middle.p_max + model.cw
    _check_events(
        n_pulses * model.fired_per_pulse * weight
        + s.detector.dark_count_rate_hz * s.duration_s(n_pulses),
        "projected events",
    )

    def point(beta: float) -> tuple[np.ndarray, int, int]:
        rng = substream(s.master_seed, "fringe-scan", beta)
        try:
            return _simulate_point(s, model, beta, n_pulses, rng)
        except QifsimError as exc:
            raise type(exc)(f"phase point beta = {beta:.6g} rad: {exc}") from exc

    points = _run_points(point, betas)
    return RunResult(
        histogram=TacHistogram(
            s.histogram_bin_width_ps, sum(bins for bins, _, _ in points), n_pulses * len(betas)
        ),
        fringe=tuple(
            FringePoint(phase_rad=beta, counts=window, stat_error=math.sqrt(window))
            for beta, (_, window, _) in zip(betas, points)
        ),
        background_estimates=tuple(background for _, _, background in points),
        eta_realized=s.conversion_survival(),
        metadata={
            "master_seed": s.master_seed,
            "scenario_digest": scenario_digest(s),
            "pulses_per_point": n_pulses,
            "phase_points": len(betas),
        },
        wall_clock_s=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class ExpectedFringe:
    """Analytic prediction of the windowed scan, component by component."""

    phases_rad: np.ndarray
    counts: np.ndarray
    signal_offset: float
    signal_amplitude: float
    background: float
    v_net: float
    v_raw: float


def expected_fringe(s: Scenario, phases_rad, pulses: int | None = None) -> ExpectedFringe:
    """Closed-form expectation of ``run_fringe_scan``'s window counts.

    Integrates the engine's own per-point model over the SCA window, by the
    engine's window rule, each peak the model's one Gaussian of pulse and
    jitter, and adds the detector's flat darks. Assumes Gaussian pulses
    (the square shape has no closed-form window capture here) and a
    dead-time-free detector; the scenario's dead time is ignored, which is
    exact at zero and an approximation otherwise.

    Raises:
        DomainError: square pulse shape, a phase grid that is not flat, a
            phase not finite, or pulses not an integer or < 0.
    """
    if s.source.pulse_shape != "gaussian":
        raise DomainError("expected_fringe only covers gaussian pulse shapes")
    # A non-finite phase would give the oracle a NaN count.
    phases = np.array(grid(phases_rad, "phase", FINITE, " rad"))
    n_pulses = _pulse_count(s, pulses)
    m = _point_model(s)
    early, middle, late = (
        _window_share(s, m.tac_offset_ns + delay, m.pulse_width_ns)
        for delay in (0.0, m.middle.delay_ns, m.sides.late_delay_ns)
    )
    scale = n_pulses * m.fired_per_pulse
    signal_offset = scale * (
        m.sides.p_early * early + m.sides.p_late * late + m.middle.offset * middle
    )
    # The mean of cos(x + drift) over a Gaussian drift is exp(-drift^2 / 2) cos x.
    signal_amplitude = scale * m.middle.amplitude * math.exp(-0.5 * m.middle.drift_rad**2) * middle

    period = s.sync_period_ns()
    window = _window(period, s.sca.center_ns, s.sca.width_ns)
    flat = 1.0 if window is None else s.sca.width_ns / period
    dark = s.detector.dark_count_rate_hz * s.duration_s(n_pulses)
    background = (dark + scale * m.cw) * flat

    counts = background + signal_offset + signal_amplitude * np.cos(m.middle.alpha_rad - phases)
    v_net = signal_amplitude / signal_offset if signal_offset > 0 else 0.0
    v_raw = (
        signal_amplitude / (signal_offset + background)
        if signal_offset + background > 0
        else 0.0
    )
    return ExpectedFringe(
        phases_rad=phases,
        counts=counts,
        signal_offset=signal_offset,
        signal_amplitude=signal_amplitude,
        background=background,
        v_net=v_net,
        v_raw=v_raw,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Pointwise Monte Carlo versus analytic-oracle comparison."""

    chi2_per_dof: float | None
    flagged_phases: tuple[float, ...]
    n_points: int
    note: str
    rows: tuple[tuple[float, float, float, float], ...]
    """(phase, observed, expected, z-score) per point."""


def validate_against_oracle(
    s: Scenario, phases_rad, pulses: int | None = None
) -> ValidationReport:
    """Cross-check the stochastic engine against the analytic fringe.

    Any point off by more than 4 sigma is flagged; the summary statistic is
    chi-square per point under Poisson errors. Discrepancies are report
    content, not errors. The oracle checks the grid, the pulse count and
    its own domain, so a refusal comes before the engine draws anything.
    At zero pulses every row is (phase, 0, 0, 0) and chi-square is undefined.
    """
    expected = expected_fringe(s, phases_rad, pulses)
    run = run_fringe_scan(s, expected.phases_rad, pulses)
    observed = np.array([p.counts for p in run.fringe], dtype=float)
    z = (observed - expected.counts) / np.sqrt(np.maximum(expected.counts, 1.0))
    empty = run.metadata["pulses_per_point"] == 0
    return ValidationReport(
        chi2_per_dof=None if empty else float(np.mean(z**2)),
        flagged_phases=tuple(float(p) for p, zi in zip(expected.phases_rad, z) if abs(zi) > 4.0),
        n_points=len(run.fringe),
        note="zero pulses per point: no events, chi-square undefined" if empty else "",
        rows=tuple(
            (float(p), float(o), float(e), float(zi))
            for p, o, e, zi in zip(expected.phases_rad, observed, expected.counts, z)
        ),
    )
