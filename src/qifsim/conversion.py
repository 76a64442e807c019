"""Conversion efficiency and noise budget for the frequency interface.

Couples pump-power-driven internal conversion to the passive loss chains
before and after the crystal, and models the background channels that land
in the target band. Powers are in watts, rates in hertz, times in
nanoseconds unless suffixed otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "PumpField",
    "LossStage",
    "LossChain",
    "NoiseModel",
    "internal_conversion_efficiency",
    "end_to_end_efficiency",
    "normalized_efficiency_from_measurement",
    "pump_coherence_visibility_factor",
    "noise_rate",
]

PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0


@dataclass(frozen=True)
class PumpField:
    """Strong classical pump driving the mixing process.

    Attributes:
        power_w: optical power inside the crystal, watts.
        wavelength_um: vacuum wavelength, micrometers.
        coherence_time_ns: pump coherence time; ``inf`` for an ideal
            monochromatic pump.
    """

    power_w: float
    wavelength_um: float
    coherence_time_ns: float = math.inf

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise DomainError(f"pump power must be >= 0, got {self.power_w} W")
        if self.wavelength_um <= 0:
            raise DomainError(f"pump wavelength must be > 0, got {self.wavelength_um} um")
        if self.coherence_time_ns <= 0:
            raise DomainError(
                f"pump coherence time must be > 0, got {self.coherence_time_ns} ns"
            )

    def photon_flux_hz(self) -> float:
        """Photons per second carried by the pump beam."""
        energy_j = PLANCK_J_S * SPEED_OF_LIGHT_M_S / (self.wavelength_um * 1e-6)
        return self.power_w / energy_j


@dataclass(frozen=True)
class LossStage:
    """One passive element of a loss chain.

    ``value`` is a survival fraction in [0, 1] when ``unit == "fraction"``,
    or a non-positive decibel figure when ``unit == "dB"``.
    """

    name: str
    value: float
    unit: str = "fraction"

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("loss stage needs a non-empty name")
        if self.unit == "fraction":
            if not 0.0 <= self.value <= 1.0:
                raise DomainError(
                    f"stage {self.name!r}: fraction must be in [0, 1], got {self.value}"
                )
        elif self.unit == "dB":
            if self.value > 0.0:
                raise DomainError(
                    f"stage {self.name!r}: dB loss must be <= 0, got {self.value}"
                )
        else:
            raise DomainError(
                f"stage {self.name!r}: unit must be 'fraction' or 'dB', got {self.unit!r}"
            )

    def transmission(self) -> float:
        """Survival probability of this stage."""
        if self.unit == "fraction":
            return self.value
        return 10.0 ** (self.value / 10.0)


@dataclass(frozen=True)
class LossChain:
    """Ordered sequence of independent passive losses."""

    stages: tuple[LossStage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DomainError(f"duplicate stage names in loss chain: {dupes}")

    def transmission(self) -> float:
        """Product of all stage transmissions; 1.0 for an empty chain."""
        total = 1.0
        for stage in self.stages:
            total *= stage.transmission()
        return total


def internal_conversion_efficiency(
    power_w: float, eta_norm_per_w_cm2: float, length_cm: float
) -> float:
    """Internal conversion probability sin^2(sqrt(eta P) L).

    Undepleted-pump coupled-mode result: full conversion at
    sqrt(eta P) L = pi/2, periodic beyond.

    Args:
        power_w: pump power, watts.
        eta_norm_per_w_cm2: normalized efficiency, 1/(W cm^2).
        length_cm: interaction length, centimeters.
    """
    if power_w < 0:
        raise DomainError(f"power must be >= 0, got {power_w} W")
    if eta_norm_per_w_cm2 < 0:
        raise DomainError(f"normalized efficiency must be >= 0, got {eta_norm_per_w_cm2}")
    if length_cm <= 0:
        raise DomainError(f"length must be > 0, got {length_cm} cm")
    return math.sin(math.sqrt(eta_norm_per_w_cm2 * power_w) * length_cm) ** 2


def normalized_efficiency_from_measurement(
    eta_internal: float, power_w: float, length_cm: float
) -> float:
    """Invert the internal-conversion curve for the normalized efficiency.

    Uses the principal branch, valid below the first conversion maximum.

    Raises:
        DomainError: eta_internal outside [0, 1), or non-positive power;
            at exactly 1 the inversion is degenerate with the pump power.
    """
    if power_w <= 0:
        raise DomainError(f"power must be > 0 to invert, got {power_w} W")
    if length_cm <= 0:
        raise DomainError(f"length must be > 0, got {length_cm} cm")
    if not 0.0 <= eta_internal < 1.0:
        raise DomainError(
            f"internal efficiency must be in [0, 1) for a unique inversion, "
            f"got {eta_internal}"
        )
    return (math.asin(math.sqrt(eta_internal)) / length_cm) ** 2 / power_w


def end_to_end_efficiency(
    pre_chain: LossChain,
    eta_internal: float,
    post_chain: LossChain,
) -> float:
    """Device efficiency: input coupling x internal conversion x output chain."""
    if not 0.0 <= eta_internal <= 1.0:
        raise DomainError(f"internal efficiency must be in [0, 1], got {eta_internal}")
    return pre_chain.transmission() * eta_internal * post_chain.transmission()


def pump_coherence_visibility_factor(delta_tau_ns: float, coherence_time_ns: float) -> float:
    """Interference-visibility penalty from finite pump coherence.

    exp(-delta_tau / tau_c) for a Lorentzian pump line: the phase imprinted
    on the converted photon random-walks between the two time bins, and the
    mean fringe contrast decays exponentially in the bin separation.
    """
    if delta_tau_ns < 0:
        raise DomainError(f"bin separation must be >= 0, got {delta_tau_ns} ns")
    if coherence_time_ns <= 0:
        raise DomainError(f"coherence time must be > 0, got {coherence_time_ns} ns")
    return math.exp(-delta_tau_ns / coherence_time_ns)


@dataclass(frozen=True)
class NoiseModel:
    """Background channels landing in the target spectral band.

    Coefficients are rates per watt of pump power so the channels scale
    together with the drive. Spontaneous parametric down-conversion only
    contributes when the pump is more energetic than the target band
    (pump wavelength below the output wavelength); with a pump on the red
    side that channel is energetically closed and contributes zero.

    Attributes:
        spdc_coeff_hz_per_w: down-conversion rate coefficient.
        raman_coeff_hz_per_w: spontaneous Raman scattering coefficient.
        pump_extinction_db: total pump suppression of the filter stack,
            >= 0 dB; ``inf`` models filtering strong enough that no pump
            photon survives.
        target_band_coeff_hz_per_w: broadband pedestal in the target band,
            removable by filtering the pump beforehand.
        pump_prefiltered: whether a pump-side bandpass removes the pedestal
            before the crystal.
    """

    spdc_coeff_hz_per_w: float = 0.0
    raman_coeff_hz_per_w: float = 0.0
    pump_extinction_db: float = math.inf
    target_band_coeff_hz_per_w: float = 0.0
    pump_prefiltered: bool = True

    def __post_init__(self) -> None:
        for label in ("spdc_coeff_hz_per_w", "raman_coeff_hz_per_w", "target_band_coeff_hz_per_w"):
            if getattr(self, label) < 0:
                raise DomainError(f"{label} must be >= 0")
        if self.pump_extinction_db < 0:
            raise DomainError(
                f"pump extinction must be >= 0 dB, got {self.pump_extinction_db}"
            )


def noise_rate(pump: PumpField, output_um: float, noise: NoiseModel) -> float:
    """Background count rate (Hz) in the target band for a given pump.

    Sums four channels: down-conversion (zero when energetically closed),
    Raman scattering, residual pump leakage through the filter stack, and
    the pump's own pedestal in the target band unless prefiltered away.
    """
    if output_um <= 0:
        raise DomainError(f"output wavelength must be > 0, got {output_um} um")
    rate = 0.0
    if pump.wavelength_um < output_um:
        rate += noise.spdc_coeff_hz_per_w * pump.power_w
    rate += noise.raman_coeff_hz_per_w * pump.power_w
    if math.isfinite(noise.pump_extinction_db):
        rate += pump.photon_flux_hz() * 10.0 ** (-noise.pump_extinction_db / 10.0)
    if not noise.pump_prefiltered:
        rate += noise.target_band_coeff_hz_per_w * pump.power_w
    return rate
