"""Stochastic end-to-end experiment engine.

Generates weak coherent pulses through preparation, conversion and
analysis, and produces the arrival-time histogram, the windowed fringe
scan, and the efficiency sweep, with Poisson error bars. Only the photons
that fire the detector are sampled: a Poisson photon stream thinned by
slot, conversion survival and quantum efficiency is again a Poisson
stream, so each point draws its fired events directly, in a number that
grows with detections rather than with pulses, and hands them to the
detector model for jitter, dark counts, dead time and afterpulsing. Each
sampling stage is a helper whose temporaries are freed when it returns,
and the detections are folded on the sync period once, for the histogram
and both window counts. Every run is reproducible: all randomness flows
from counter-based substreams derived from the scenario's master seed, a
role tag, and the grid value of the point, so results are independent of
the order in which points are simulated.

Each point is one intensity model, a few Poisson components with a mean
count per pulse and a time profile: the engine samples it, and
``expected_fringe`` integrates it over the window by the engine's own
window rule; ``validate_against_oracle`` checks the two against each
other.
"""

from __future__ import annotations

import hashlib
import math
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .detection import (
    FWHM_TO_SIGMA,
    TacHistogram,
    _bin_folded,
    _gaussian_window_capture,
    simulate_detection,
)
from .errors import ConfigError, DomainError, QifsimError
from .scenario import Scenario, scenario_digest
from .timebin import analyze, apply_conversion_phase, prepare_qubit

__all__ = [
    "FringePoint",
    "EfficiencyPoint",
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
    """Independent Philox stream for one grid point.

    Keyed by the master seed, a role tag, and the bit pattern of the grid
    value (phase, power, ...), not by the point's position in the sweep, so
    permuting a grid never changes any point's draw.
    """
    bits = int(np.float64(value).view(np.uint64))
    seq = np.random.SeedSequence((master_seed, zlib.crc32(tag.encode()), bits))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class FringePoint:
    """One phase point of the scan: window counts and Poisson error."""

    phase_rad: float
    counts: int
    stat_error: float


@dataclass(frozen=True)
class EfficiencyPoint:
    """One pump power: analytic budget next to the Monte Carlo estimate."""

    power_w: float
    eta_analytic: float
    eta_mc: float
    stat_error: float


@dataclass(frozen=True)
class RunResult:
    """Everything a fringe scan produces.

    Attributes:
        histogram: arrival-time histogram merged over all phase points.
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
    separation, one Gaussian draw per pulse; 0 for a coherent pump.
    """

    offset: float
    amplitude: float
    alpha_rad: float
    drift_rad: float
    delay_ns: float


@dataclass(frozen=True)
class _PointModel:
    """Intensity of the photons that fire the detector, per phase point.

    Three Poisson components, each weighted per unit of ``fired_per_pulse``
    (mean fired photons per pulse per unit of slot or passage probability):
    the early/late pair and the middle peak, centred at pulse x period +
    ``tac_offset_ns`` + slot delay and spread by the pulse shape, and cw
    light flat over the run, of weight ``cw``. ``pulse_width_ns`` is the
    Gaussian sigma, or the full width of a square pulse. The engine samples
    these components and ``expected_fringe`` integrates them; the
    detector's jitter, darks and dead time are not part of the model.
    """

    fired_per_pulse: float
    tac_offset_ns: float
    pulse_shape: str
    pulse_width_ns: float
    sides: _SidePeaks
    middle: _MiddlePeak
    cw: float


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
    return _PointModel(
        fired_per_pulse=(
            s.source.mean_photon_number
            * s.conversion_survival()
            * s.detector.quantum_efficiency
        ),
        tac_offset_ns=s.tac_offset_ns,
        pulse_shape=s.source.pulse_shape,
        pulse_width_ns=fwhm * FWHM_TO_SIGMA if s.source.pulse_shape == "gaussian" else fwhm,
        sides=_SidePeaks(aligned[0][1], aligned[2][1], 2.0 * delta_tau),
        middle=_MiddlePeak(
            0.5 * (mid_hi + mid_lo), 0.5 * (mid_hi - mid_lo), alpha, drift, delta_tau
        ),
        cw=s.source.cw_background_fraction * passage,
    )


def _window_counts(folded_ns: np.ndarray, period_ns: float, center_ns: float, width_ns: float) -> int:
    """Folded arrival times inside a window, half-open and wrap-safe.

    The window is [lo, lo + width) with lo the left edge folded on the
    period; the part past the period end wraps to the start, and a window
    at least one period wide counts every event once.
    """
    if width_ns >= period_ns:
        return int(folded_ns.size)
    lo = (center_ns - 0.5 * width_ns) % period_ns
    hi = lo + width_ns
    below_lo = int(np.count_nonzero(folded_ns < lo))
    if hi <= period_ns:
        return int(np.count_nonzero(folded_ns < hi)) - below_lo
    return folded_ns.size - below_lo + int(np.count_nonzero(folded_ns < hi - period_ns))


def _window_share(s: Scenario, center_ns: float, sigma_ns: float) -> float:
    """Share of a Gaussian peak's events that ``_window_counts`` counts.

    The same rule on the peak folded on the period: the window is [lo,
    lo + width) with lo folded on the period, reaching past the period end
    into the next copy of the peak, and a window at least one period wide
    counts every event once.
    """
    period, width = s.sync_period_ns(), s.sca.width_ns
    if width >= period:
        return 1.0
    lo = (s.sca.center_ns - 0.5 * width) % period
    center = center_ns % period
    return sum(
        _gaussian_window_capture(center + k * period, sigma_ns, lo, lo + width)
        for k in (-1, 0, 1, 2)
    )


def _reject_repeats(values: np.ndarray, quantity: str) -> None:
    """A grid value keys its point's substream, so a repeat would replay its draws."""
    seen: set[float] = set()
    for value in values.tolist():
        if value in seen:
            raise ConfigError(
                f"{quantity} grid repeats the value {value!r}; each point draws "
                f"from a stream keyed by its value, so grid values must be distinct"
            )
        seen.add(value)


def _pulse_ranks(pulse: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each entry among the distinct values, and how many there are.

    The ranks are ``np.unique(pulse, return_inverse=True)[1]``: sort, mark
    where each run of equal values starts, and count the run starts.
    """
    if not pulse.size:
        return np.empty(0, dtype=np.intp), 0
    order = np.argsort(pulse)
    ordered = pulse[order]
    run_start = np.empty(pulse.size, dtype=bool)
    run_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    np.cumsum(run_start, out=ordered)
    ordered -= 1
    rank = np.empty_like(order)
    rank[order] = ordered
    return rank, int(ordered[-1]) + 1


def _side_times(m: _PointModel, pulses: int, period: float, rng) -> np.ndarray:
    """Emission-free times of the fired early and late photons.

    Poisson(N f (p_early + p_late)) events on uniformly chosen pulses, each
    early or late in proportion to p_early : p_late.
    """
    p_early, p_sides = m.sides.p_early, m.sides.p_early + m.sides.p_late
    n = rng.poisson(pulses * m.fired_per_pulse * p_sides)
    times = rng.integers(0, pulses, n) * period
    u = rng.random(n)
    u *= p_sides
    times += m.tac_offset_ns
    times += np.where(u < p_early, 0.0, m.sides.late_delay_ns)
    return times


def _middle_times(m: _PointModel, beta_rad: float, pulses: int, period: float, rng) -> np.ndarray:
    """Emission-free times of the fired middle-slot photons.

    Poisson(N f p_max) candidates at the largest slot probability p_max,
    each kept with probability p_mid(drift) / p_max.
    """
    mid = m.middle
    p_max = mid.offset + abs(mid.amplitude)
    n = rng.poisson(pulses * m.fired_per_pulse * p_max)
    pulse = rng.integers(0, pulses, n)
    # The absolute pump phase is common to both bins and drops out, so only
    # the drift between them is realized, once per occupied pulse: every
    # photon of a pulse sees the same drift.
    if mid.drift_rad > 0:
        rank, occupied = _pulse_ranks(pulse)
        p_mid = rng.normal(0.0, mid.drift_rad, occupied)[rank]
        del rank
        # offset + amplitude cos(alpha + drift - beta), term by term.
        p_mid += mid.alpha_rad
        p_mid -= beta_rad
        np.cos(p_mid, out=p_mid)
        p_mid *= mid.amplitude
        p_mid += mid.offset
    else:
        p_mid = mid.offset + mid.amplitude * np.cos(mid.alpha_rad - beta_rad)
    u = rng.random(n)
    u *= p_max
    times = pulse.compress(u < p_mid) * period
    times += m.tac_offset_ns
    times += mid.delay_ns
    return times


def _arrival_times(
    s: Scenario, m: _PointModel, beta_rad: float, pulses: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted arrival times of one point's fired signal photons and cw light.

    Each time is pulse index x period + TAC offset + slot delay + emission
    offset, summed in that order.
    """
    period = s.sync_period_ns()
    times = np.concatenate(
        (
            _side_times(m, pulses, period, rng),
            _middle_times(m, beta_rad, pulses, period, rng),
        )
    )
    if m.pulse_shape == "gaussian":
        if m.pulse_width_ns > 0:
            times += rng.normal(0.0, m.pulse_width_ns, times.size)
    else:
        half = 0.5 * m.pulse_width_ns
        if half > 0:
            times += rng.uniform(-half, half, times.size)

    n_cw = rng.poisson(pulses * m.fired_per_pulse * m.cw)
    times = np.concatenate((times, rng.uniform(0.0, s.duration_s(pulses) * 1e9, n_cw)))
    times.sort()
    return times


def _simulate_point(
    s: Scenario, m: _PointModel, beta_rad: float, pulses: int, rng: np.random.Generator
) -> tuple[TacHistogram, int, int]:
    """One phase point: returns (histogram, window counts, background counts).

    Samples only the photons that fire the detector. With Poisson photon
    numbers per pulse, the photons of each slot that survive conversion and
    fire the detector form independent Poisson streams, the components of
    ``m``, so each stream's total over the point is drawn directly and its
    events are spread over uniformly chosen pulses; the middle slot's
    candidates are drawn at its largest probability and thinned by the
    drift of their pulse.

    Each stage is a helper whose temporaries die when it returns, so the
    point holds about three event-sized arrays at its peak. The detections
    are folded on the sync period once, in place, and that one folded array
    feeds the histogram and both window counts.
    """
    period = s.sync_period_ns()
    detections = simulate_detection(
        _arrival_times(s, m, beta_rad, pulses, rng), s.detector, s.duration_s(pulses), rng
    )
    folded = np.mod(detections, period, out=detections)
    window = _window_counts(folded, period, s.sca.center_ns, s.sca.width_ns)
    background = _window_counts(folded, period, s.sca.center_ns + 0.5 * period, s.sca.width_ns)
    hist = _bin_folded(folded, period, s.histogram_bin_width_ps, sync_pulses=pulses)
    return hist, window, background


def run_fringe_scan(s: Scenario, phases_rad, pulses: int | None = None) -> RunResult:
    """Scan the analysis phase and count windowed arrivals at each point.

    Args:
        s: scenario; its ``pulses_per_point`` is used unless overridden.
        phases_rad: at least two analysis phases.
        pulses: optional override of pulses per point.

    Deterministic for a given scenario and master seed; each phase point
    draws from its own substream.

    Raises:
        ConfigError: a phase appears twice in the grid.
    """
    phases = np.asarray(phases_rad, dtype=float)
    if phases.size < 2:
        raise DomainError(f"need at least 2 phase points, got {phases.size}")
    _reject_repeats(phases, "phase")
    n_pulses = s.pulses_per_point if pulses is None else pulses
    if n_pulses < 0:
        raise DomainError(f"pulses must be >= 0, got {n_pulses}")

    started = time.perf_counter()
    model = _point_model(s)
    merged: TacHistogram | None = None
    fringe: list[FringePoint] = []
    backgrounds: list[int] = []
    for beta in phases:
        rng = substream(s.master_seed, "fringe-scan", beta)
        try:
            hist, window, background = _simulate_point(s, model, float(beta), n_pulses, rng)
        except QifsimError as exc:
            raise type(exc)(f"phase point beta = {beta:.6g} rad: {exc}") from exc
        merged = hist if merged is None else merged.merged_with(hist)
        fringe.append(
            FringePoint(
                phase_rad=float(beta), counts=window, stat_error=math.sqrt(window)
            )
        )
        backgrounds.append(background)

    assert merged is not None
    return RunResult(
        histogram=merged,
        fringe=tuple(fringe),
        background_estimates=tuple(backgrounds),
        eta_realized=s.conversion_survival(),
        metadata={
            "master_seed": s.master_seed,
            "scenario_digest": scenario_digest(s),
            "pulses_per_point": n_pulses,
            "phase_points": int(phases.size),
        },
        wall_clock_s=time.perf_counter() - started,
    )


def run_efficiency_sweep(
    s: Scenario, powers_w, photons: int | None = None
) -> tuple[EfficiencyPoint, ...]:
    """Conversion budget versus pump power, analytic and Monte Carlo.

    The Monte Carlo column sends ``photons`` (default: the scenario's
    ``mc_photons_per_point``) through the three loss stages as independent
    binomial thinnings. This sweep always measures the physical budget; the
    fringe-scan statistics switch has no effect here.

    Raises:
        ConfigError: a power appears twice in the grid.
    """
    results = []
    n = s.mc_photons_per_point if photons is None else photons
    if n < 0:
        raise DomainError(f"photon count must be >= 0, got {n}")
    powers = np.asarray(powers_w, dtype=float)
    _reject_repeats(powers, "pump power")
    pre_t = s.chain_pre.transmission()
    post_t = s.chain_post.transmission()
    for power in powers:
        if power < 0:
            raise DomainError(f"pump power must be >= 0, got {power} W")
        rng = substream(s.master_seed, "efficiency-sweep", power)
        eta_internal = s.internal_efficiency(float(power))
        survived = rng.binomial(
            rng.binomial(rng.binomial(n, pre_t), eta_internal), post_t
        )
        results.append(
            EfficiencyPoint(
                power_w=float(power),
                eta_analytic=s.eta_qi(float(power)),
                eta_mc=survived / n if n else 0.0,
                stat_error=math.sqrt(survived) / n if n else 0.0,
            )
        )
    return tuple(results)


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
    engine's window rule, with each peak widened by the detector jitter,
    and adds the detector's flat darks. Assumes Gaussian pulses (the square
    shape has no closed-form window capture here) and a dead-time-free
    detector; the scenario's dead time is ignored, which is exact at zero
    and an approximation otherwise.

    Raises:
        DomainError: square pulse shape.
    """
    if s.source.pulse_shape != "gaussian":
        raise DomainError("expected_fringe only covers gaussian pulse shapes")
    phases = np.asarray(phases_rad, dtype=float)
    n_pulses = s.pulses_per_point if pulses is None else pulses
    m = _point_model(s)
    sigma = math.hypot(m.pulse_width_ns, s.detector.jitter_sigma_ns())
    early, middle, late = (
        _window_share(s, m.tac_offset_ns + delay, sigma)
        for delay in (0.0, m.middle.delay_ns, m.sides.late_delay_ns)
    )
    scale = n_pulses * m.fired_per_pulse
    signal_offset = scale * (
        m.sides.p_early * early + m.sides.p_late * late + m.middle.offset * middle
    )
    # The mean of cos(x + drift) over a Gaussian drift is exp(-drift^2 / 2) cos x.
    signal_amplitude = scale * m.middle.amplitude * math.exp(-0.5 * m.middle.drift_rad**2) * middle

    period = s.sync_period_ns()
    flat = min(s.sca.width_ns, period) / period
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
    s: Scenario,
    phases_rad,
    pulses: int | None = None,
    oracle_v_net: float | None = None,
) -> ValidationReport:
    """Cross-check the stochastic engine against the analytic fringe.

    Any point off by more than 4 sigma is flagged; the summary statistic is
    chi-square per point under Poisson errors. ``oracle_v_net`` substitutes
    a foreign net visibility into the oracle, which is how the comparison's
    sensitivity is itself tested. Discrepancies are report content, not
    errors.
    """
    phases = np.asarray(phases_rad, dtype=float)
    n_pulses = s.pulses_per_point if pulses is None else pulses
    run = run_fringe_scan(s, phases, pulses=n_pulses)
    if n_pulses == 0:
        return ValidationReport(
            chi2_per_dof=None,
            flagged_phases=(),
            n_points=int(phases.size),
            note="zero pulses per point: no events, chi-square undefined",
            rows=tuple(
                (p.phase_rad, float(p.counts), 0.0, 0.0) for p in run.fringe
            ),
        )
    exp = expected_fringe(s, phases, pulses=n_pulses)
    expected = exp.counts
    if oracle_v_net is not None:
        amplitude = exp.signal_offset * oracle_v_net
        expected = (
            exp.background
            + exp.signal_offset
            + amplitude * np.cos(s.preparation.phase_rad - phases)
        )
    observed = np.array([p.counts for p in run.fringe], dtype=float)
    sigma = np.sqrt(np.maximum(expected, 1.0))
    z = (observed - expected) / sigma
    chi2 = float(np.mean(z**2))
    flagged = tuple(float(p) for p, zi in zip(phases, z) if abs(zi) > 4.0)
    rows = tuple(
        (float(p), float(o), float(e), float(zi))
        for p, o, e, zi in zip(phases, observed, expected, z)
    )
    return ValidationReport(
        chi2_per_dof=chi2,
        flagged_phases=flagged,
        n_points=int(phases.size),
        note="",
        rows=rows,
    )
