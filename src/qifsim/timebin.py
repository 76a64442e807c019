"""Time-bin qubit algebra: preparation, phase transport, and analysis.

A qubit is a pair of complex amplitudes on an early and a late time bin.
An unbalanced Michelson interferometer prepares it from a single pulse and
a second, equally unbalanced one analyzes it; the middle arrival slot of
the analyzer carries the interference. Dephasing along the way is tracked
as a scalar coherence factor multiplying the cross term, which is the same
as the off-diagonal of the 2x2 density matrix.

Times are nanoseconds; phases radians; probabilities plain fractions.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

from .errors import DomainError

__all__ = [
    "TimeBinQubit",
    "Interferometer",
    "PulseSource",
    "AnalysisResult",
    "prepare_qubit",
    "apply_conversion_phase",
    "analyze",
]

NORM_TOL = 1e-9

# Relative mismatch of the two interferometer delays beyond which the
# early/late wave packets no longer overlap at the analyzer.
DELAY_MATCH_RTOL = 0.01


@dataclass(frozen=True)
class TimeBinQubit:
    """Two-bin single-photon state.

    Attributes:
        early: complex amplitude of the early bin.
        late: complex amplitude of the late bin.
        delta_tau_ns: separation between the bins.
        coherence: scalar in [0, 1] multiplying the early-late cross term;
            1 is a pure superposition, 0 a classical mixture.

    The squared norm may be below one; the deficit is loss accumulated
    upstream and stays part of the probability budget.
    """

    early: complex
    late: complex
    delta_tau_ns: float
    coherence: float = 1.0

    def __post_init__(self) -> None:
        if self.delta_tau_ns <= 0:
            raise DomainError(f"bin separation must be > 0, got {self.delta_tau_ns} ns")
        if not 0.0 <= self.coherence <= 1.0:
            raise DomainError(f"coherence must be in [0, 1], got {self.coherence}")
        if self.norm() > 1.0 + NORM_TOL:
            raise DomainError(f"amplitudes exceed unit norm: {self.norm()}")

    def norm(self) -> float:
        """|early|^2 + |late|^2, the photon survival probability so far."""
        return abs(self.early) ** 2 + abs(self.late) ** 2


@dataclass(frozen=True)
class Interferometer:
    """Unbalanced Michelson, reduced to its two-path transfer.

    Attributes:
        delta_tau_ns: round-trip delay difference between the arms.
        phase_rad: relative phase picked up on the long arm.
        transmission: lumped throughput of one traversal, in [0, 1].
        splitting_ratio: power fraction sent to the short arm, in (0, 1).
        normalize_forward: renormalize the forward port to unit total,
            which represents a circulator-recovered configuration with no
            intrinsic forward splitting loss. Off by default; when off, a
            balanced device sends half the light out the forward port and
            the remainder leaves through the back port.
    """

    delta_tau_ns: float
    phase_rad: float = 0.0
    transmission: float = 1.0
    splitting_ratio: float = 0.5
    normalize_forward: bool = False

    def __post_init__(self) -> None:
        if self.delta_tau_ns <= 0:
            raise DomainError(f"delay must be > 0, got {self.delta_tau_ns} ns")
        if not 0.0 <= self.transmission <= 1.0:
            raise DomainError(f"transmission must be in [0, 1], got {self.transmission}")
        if not 0.0 < self.splitting_ratio < 1.0:
            raise DomainError(
                f"splitting ratio must be in (0, 1), got {self.splitting_ratio}"
            )

    def forward_path_amplitude(self) -> float:
        """Amplitude of each of the two forward-port paths (real, positive)."""
        s = self.splitting_ratio
        amp = math.sqrt(s * (1.0 - s))
        if self.normalize_forward:
            amp /= math.sqrt(2.0 * s * (1.0 - s))
        return amp * math.sqrt(self.transmission)


@dataclass(frozen=True)
class PulseSource:
    """Pulsed laser feeding the preparation interferometer.

    Attributes:
        repetition_rate_mhz: pulse rate.
        pulse_fwhm_ns: optical intensity FWHM of one pulse.
        mean_photon_number: Poisson mean photons per qubit.
        coherence_time_ns: source coherence time.
        cw_background_fraction: cw photon flux between pulses relative to
            the mean pulsed flux.
        pulse_shape: temporal intensity profile, "gaussian" or "square".
    """

    repetition_rate_mhz: float
    pulse_fwhm_ns: float
    mean_photon_number: float
    coherence_time_ns: float
    cw_background_fraction: float = 0.0
    pulse_shape: str = "gaussian"

    def __post_init__(self) -> None:
        for label in (
            "repetition_rate_mhz",
            "pulse_fwhm_ns",
            "mean_photon_number",
            "coherence_time_ns",
            "cw_background_fraction",
        ):
            if getattr(self, label) < 0:
                raise DomainError(f"{label} must be >= 0")
        if self.pulse_shape not in ("gaussian", "square"):
            raise DomainError(
                f"pulse shape must be 'gaussian' or 'square', got {self.pulse_shape!r}"
            )

    def warn_if_unresolved(self, delta_tau_ns: float) -> None:
        """Warn when pulses are too long or too coherent for the bin spacing."""
        if self.pulse_fwhm_ns >= delta_tau_ns:
            warnings.warn(
                f"pulse FWHM {self.pulse_fwhm_ns} ns >= bin separation "
                f"{delta_tau_ns} ns: time bins overlap",
                stacklevel=2,
            )
        if self.coherence_time_ns >= delta_tau_ns:
            warnings.warn(
                f"source coherence time {self.coherence_time_ns} ns >= bin "
                f"separation {delta_tau_ns} ns: residual first-order coherence "
                f"between pulses",
                stacklevel=2,
            )


def prepare_qubit(ifo: Interferometer) -> TimeBinQubit:
    """Send one pulse through the preparation interferometer.

    The forward port emits two delayed copies; the late one carries the
    interferometer phase. For a balanced lossless device each bin holds
    probability 1/4 (half the light leaves through the back port).
    """
    amp = ifo.forward_path_amplitude()
    return TimeBinQubit(
        early=complex(amp),
        late=amp * cmath.exp(1j * ifo.phase_rad),
        delta_tau_ns=ifo.delta_tau_ns,
    )


def apply_conversion_phase(qubit: TimeBinQubit, factor: float) -> TimeBinQubit:
    """Carry the qubit through frequency conversion.

    The pump phase is common to both bins up to its drift over the bin
    separation, so the populations are untouched and only the mutual
    coherence is scaled by ``factor`` (from
    ``conversion.pump_coherence_visibility_factor``).
    """
    if not 0.0 <= factor <= 1.0:
        raise DomainError(f"coherence factor must be in [0, 1], got {factor}")
    return replace(qubit, coherence=qubit.coherence * factor)


@dataclass(frozen=True)
class AnalysisResult:
    """Arrival-slot decomposition behind the analysis interferometer.

    ``slots`` are the three forward-port arrivals (time, probability);
    ``back_slots`` the three back-port arrivals; ``absorbed`` the
    probability lost inside the analyzer. Together with the input deficit
    these close the probability budget.
    """

    slots: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    back_slots: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    absorbed: float

    def forward_total(self) -> float:
        return sum(p for _, p in self.slots)

    def budget_total(self) -> float:
        """Forward + back + absorbed; equals the input norm."""
        return self.forward_total() + sum(p for _, p in self.back_slots) + self.absorbed


def analyze(qubit: TimeBinQubit, ifo: Interferometer) -> AnalysisResult:
    """Project the qubit through the analysis interferometer.

    Both bins split over the short and long arms, producing three forward
    arrival slots at t0, t0 + dt, t0 + 2 dt. Only the middle slot mixes the
    two bins, with cross term weighted by the qubit coherence:

        P(mid) = u^2 (|a0|^2 + |a1|^2) + 2 c u^2 Re(a0 conj(a1) e^{i beta})

    where u is the per-path amplitude. The back port (short-short amplitude
    s, long-long amplitude -(1-s) e^{i beta}) interferes with the opposite
    sign, so the budget closes for every coherence value.

    Raises:
        DomainError: delays mismatched beyond 1 percent, so the early and
            late wave packets would not overlap in the middle slot.
    """
    if ifo.normalize_forward:
        raise DomainError(
            "analysis stage needs the physical two-port transfer; "
            "normalize_forward only applies to preparation"
        )
    dt_q, dt_i = qubit.delta_tau_ns, ifo.delta_tau_ns
    if abs(dt_q - dt_i) > DELAY_MATCH_RTOL * dt_q:
        raise DomainError(
            f"interferometer delay {dt_i} ns does not match qubit bin "
            f"separation {dt_q} ns within {DELAY_MATCH_RTOL:.0%}"
        )
    a0, a1 = qubit.early, qubit.late
    c = qubit.coherence
    s = ifo.splitting_ratio
    eta = ifo.transmission
    beta = ifo.phase_rad
    phase = cmath.exp(1j * beta)

    u2 = s * (1.0 - s) * eta
    cross = (a0 * a1.conjugate() * phase).real
    p_fwd_0 = u2 * abs(a0) ** 2
    p_fwd_1 = u2 * (abs(a0) ** 2 + abs(a1) ** 2) + 2.0 * c * u2 * cross
    p_fwd_2 = u2 * abs(a1) ** 2

    p_back_0 = eta * (s * abs(a0)) ** 2
    p_back_1 = eta * (
        ((1.0 - s) * abs(a0)) ** 2 + (s * abs(a1)) ** 2
    ) - 2.0 * c * u2 * cross
    p_back_2 = eta * ((1.0 - s) * abs(a1)) ** 2

    absorbed = (1.0 - eta) * qubit.norm()
    t0 = 0.0
    return AnalysisResult(
        slots=((t0, p_fwd_0), (t0 + dt_i, p_fwd_1), (t0 + 2.0 * dt_i, p_fwd_2)),
        back_slots=((t0, p_back_0), (t0 + dt_i, p_back_1), (t0 + 2.0 * dt_i, p_back_2)),
        absorbed=absorbed,
    )
