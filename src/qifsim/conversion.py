"""Conversion efficiency and noise budget for the frequency interface.

Couples pump-power-driven internal conversion to the passive loss chains
before and after the crystal, and models the background channels that land
in the target band. ``run_efficiency_sweep`` samples that budget over a
pump-power grid, one binomial thinning per loss stage, from a standard
library stream keyed by the master seed and the power, so it needs no
numpy. Powers are in watts, rates in hertz, times in nanoseconds unless
suffixed otherwise.
"""

from __future__ import annotations

import math
import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import FINITE, FRACTION, NON_NEGATIVE, POSITIVE, POSITIVE_OR_INF, Domain
from .errors import DomainError, check_domains, domains, grid, reject_repeats, require

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "PumpField",
    "LossStage",
    "LossChain",
    "NoiseModel",
    "internal_conversion_efficiency",
    "end_to_end_efficiency",
    "normalized_efficiency_from_measurement",
    "noise_rate",
    "EfficiencyPoint",
    "run_efficiency_sweep",
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

    _DOMAINS = domains(
        power_w=NON_NEGATIVE, wavelength_um=POSITIVE, coherence_time_ns=POSITIVE_OR_INF
    )
    __post_init__ = check_domains

    def photon_flux_hz(self) -> float:
        """Photons per second carried by the pump beam."""
        energy_j = PLANCK_J_S * SPEED_OF_LIGHT_M_S / (self.wavelength_um * 1e-6)
        return self.power_w / energy_j


_STAGE_DOMAINS = {"fraction": FRACTION, "dB": Domain(-FINITE.hi, 0.0, "<= 0 and finite")}


@dataclass(frozen=True)
class LossStage:
    """One passive element of a loss chain.

    ``value`` is a survival fraction in [0, 1] when ``unit == "fraction"``,
    or a finite non-positive decibel figure when ``unit == "dB"``; ``-inf``
    dB is refused, since ``0.0 fraction`` says the same.
    """

    name: str
    value: float
    unit: str = "fraction"

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("loss stage needs a non-empty name")
        if self.unit not in _STAGE_DOMAINS:
            raise DomainError(f"{self.name} unit must be 'fraction' or 'dB', got {self.unit!r}")
        require(self.value, _STAGE_DOMAINS[self.unit], self.name, f" {self.unit}")

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
    require(power_w, NON_NEGATIVE, "power", " W")
    require(eta_norm_per_w_cm2, NON_NEGATIVE, "normalized efficiency")
    require(length_cm, POSITIVE, "length", " cm")
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
    require(power_w, POSITIVE, "power", " W")
    require(length_cm, POSITIVE, "length", " cm")
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
    require(eta_internal, FRACTION, "internal efficiency")
    return pre_chain.transmission() * eta_internal * post_chain.transmission()


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

    _DOMAINS = domains(
        spdc_coeff_hz_per_w=NON_NEGATIVE, raman_coeff_hz_per_w=NON_NEGATIVE,
        pump_extinction_db=Domain(0.0, math.inf, ">= 0"), target_band_coeff_hz_per_w=NON_NEGATIVE,
    )
    __post_init__ = check_domains


def noise_rate(pump: PumpField, output_um: float, noise: NoiseModel) -> float:
    """Background count rate (Hz) in the target band for a given pump.

    Sums four channels: down-conversion (zero when energetically closed),
    Raman scattering, residual pump leakage through the filter stack, and
    the pump's own pedestal in the target band unless prefiltered away.
    """
    require(output_um, POSITIVE, "output wavelength", " um")
    rate = 0.0
    if pump.wavelength_um < output_um:
        rate += noise.spdc_coeff_hz_per_w * pump.power_w
    rate += noise.raman_coeff_hz_per_w * pump.power_w
    if math.isfinite(noise.pump_extinction_db):
        rate += pump.photon_flux_hz() * 10.0 ** (-noise.pump_extinction_db / 10.0)
    if not noise.pump_prefiltered:
        rate += noise.target_band_coeff_hz_per_w * pump.power_w
    return rate


@dataclass(frozen=True)
class EfficiencyPoint:
    """One pump power: analytic budget next to the Monte Carlo estimate."""

    power_w: float
    eta_analytic: float
    eta_mc: float
    stat_error: float


def _stream(master_seed: int, tag: str, value: float) -> random.Random:
    """Independent standard-library stream for one grid point.

    Seeded by the master seed, the CRC-32 of a role tag and the float64
    bits of the grid value, each in its own bits of one integer, so two
    keys never share a seed and permuting a grid never changes any point's
    draws.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return random.Random((master_seed << 96) | (zlib.crc32(tag.encode()) << 64) | bits)


# Hormann shows BTRS's hat bounds the pmf for n p >= 10; below that mean
# the geometric method needs about n p + 1 uniforms.
_BTRS_MIN_MEAN = 10.0


def _binomial(n: int, p: float, rng: random.Random) -> int:
    """One Binomial(n, p) draw built from ``rng.random()`` alone.

    ``Random.random`` is the one method whose sequence Python keeps from
    version to version, so the draws are reproducible across versions too.
    p > 1/2 counts the failures instead, so both branches below see
    p <= 1/2.
    """
    require(p, FRACTION, "binomial probability")
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, rng)
    if n == 0 or p == 0.0:
        return 0
    if n * p < _BTRS_MIN_MEAN:
        return _binomial_geometric(n, p, rng)
    return _binomial_btrs(n, p, rng)


def _binomial_geometric(n: int, p: float, rng: random.Random) -> int:
    """Successes among n trials, jumping from one success to the next.

    The failures before each success are geometric, floor(log U / log(1 - p)).
    """
    log_q = math.log1p(-p)
    successes = trials = 0
    while True:
        failures = math.log(1.0 - rng.random()) / log_q
        if failures >= n - trials:
            return successes
        trials += int(failures) + 1
        successes += 1


def _binomial_btrs(n: int, p: float, rng: random.Random) -> int:
    """BTRS transformed rejection for p <= 1/2 and n p >= 10.

    W. Hormann, "The generation of binomial random variates", J. Stat.
    Comput. Simul. 46, 101 (1993). Most draws fall in the box where the
    hat is tight and cost two uniforms; the rest compare the hat with
    pmf(k) / pmf(mode), from ``lgamma``.
    """
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    log_odds = math.log(p / q)
    mode = math.floor((n + 1) * p)
    log_pmf_mode = math.lgamma(mode + 1) + math.lgamma(n - mode + 1)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2 exactly: the hat has no mass there
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        log_ratio = (
            log_pmf_mode
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + (k - mode) * log_odds
        )
        if v * alpha / (a / (us * us) + b) <= math.exp(log_ratio):
            return k


def run_efficiency_sweep(s: Scenario, powers_w) -> tuple[EfficiencyPoint, ...]:
    """Conversion budget versus pump power, analytic and Monte Carlo.

    The Monte Carlo column sends the scenario's ``mc_photons_per_point``
    photons through the three loss stages (pre chain, internal
    conversion, post chain) as independent binomial thinnings, so it
    checks the chain's composition, not only ``eta_qi``. This sweep
    always measures the physical budget; the fringe-scan statistics
    switch has no effect here. ``powers_w`` is any flat iterable of
    numbers, a one-dimensional numpy array included; each power draws
    from its own stream.

    Raises:
        DomainError: the grid is not flat, or a power is not a number, is
            negative or is not finite.
        ConfigError: a power appears twice in the grid.
    """
    n = s.mc_photons_per_point
    powers = grid(powers_w, "pump power", NON_NEGATIVE, " W")
    reject_repeats(powers, "pump power")
    pre_t = s.chain_pre.transmission()
    post_t = s.chain_post.transmission()
    results = []
    for power in powers:
        rng = _stream(s.master_seed, "efficiency-sweep", power)
        eta_internal = s.internal_efficiency(power)
        converted = _binomial(_binomial(n, pre_t, rng), eta_internal, rng)
        survived = _binomial(converted, post_t, rng)
        results.append(
            EfficiencyPoint(
                power_w=power,
                # end_to_end_efficiency's product, from the factors in hand.
                eta_analytic=pre_t * eta_internal * post_t,
                eta_mc=survived / n if n else 0.0,
                stat_error=math.sqrt(survived) / n if n else 0.0,
            )
        )
    return tuple(results)
