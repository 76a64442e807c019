"""Elementary-link rate model for repeater-style entanglement distribution.

Compares a link running photons at their native wavelength against one
that converts them to a telecom band first. The link model is deliberately
simple and labeled illustrative in all output: two photons travel half the
link each, meet at a central station, and herald success either on exactly
one detection (single-photon protocols, linear in the per-photon
efficiency) or on both (two-photon protocols, quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FRACTION, NON_NEGATIVE, DomainError, check_domains, domains

__all__ = [
    "PROTOCOL_CLASSES",
    "LinkConfig",
    "fiber_transmission",
    "rate_penalty",
    "link_success_probability",
    "link_rate_hz",
    "break_even_distance",
]

PROTOCOL_CLASSES = ("single-photon", "two-photon")

@dataclass(frozen=True)
class LinkConfig:
    """One elementary link.

    Attributes:
        length_km: total memory-to-memory distance.
        attenuation_native_db_per_km: fiber loss at the photons' native
            wavelength.
        attenuation_telecom_db_per_km: fiber loss after conversion.
        interface_efficiency: end-to-end conversion efficiency per photon.
        system_efficiency: everything else per photon (source, memory
            readout, detector), lumped.
        protocol: "single-photon" or "two-photon" heralding class.
        attempt_rate_hz: entanglement-generation attempts per second.
    """

    length_km: float
    attenuation_native_db_per_km: float
    attenuation_telecom_db_per_km: float
    interface_efficiency: float
    system_efficiency: float = 1.0
    protocol: str = "single-photon"
    attempt_rate_hz: float = 1.0

    _DOMAINS = domains(
        length_km=NON_NEGATIVE, attenuation_native_db_per_km=NON_NEGATIVE,
        attenuation_telecom_db_per_km=NON_NEGATIVE, interface_efficiency=FRACTION,
        system_efficiency=FRACTION, attempt_rate_hz=NON_NEGATIVE,
    )

    def __post_init__(self) -> None:
        check_domains(self)
        if self.protocol not in PROTOCOL_CLASSES:
            raise DomainError(f"protocol must be one of {PROTOCOL_CLASSES}, got {self.protocol!r}")


def fiber_transmission(length_km: float, attenuation_db_per_km: float) -> float:
    """Power transmission 10^(-alpha L / 10) of a fiber span."""
    if not NON_NEGATIVE.lo <= length_km <= NON_NEGATIVE.hi:
        raise DomainError(f"length must be >= 0, got {length_km} km")
    if not NON_NEGATIVE.lo <= attenuation_db_per_km <= NON_NEGATIVE.hi:
        raise DomainError(f"attenuation must be >= 0, got {attenuation_db_per_km} dB/km")
    return 10.0 ** (-attenuation_db_per_km * length_km / 10.0)


def rate_penalty(efficiency: float, protocol: str) -> float:
    """Rate scaling of an inserted per-photon efficiency.

    Linear for single-photon heralding (one photon must arrive), quadratic
    for two-photon heralding (both must).
    """
    if not 0.0 <= efficiency <= 1.0:
        raise DomainError(f"efficiency must be in [0, 1], got {efficiency}")
    if protocol not in PROTOCOL_CLASSES:
        raise DomainError(f"protocol must be one of {PROTOCOL_CLASSES}, got {protocol!r}")
    if protocol == "single-photon":
        return efficiency
    return efficiency * efficiency


def _per_photon_probability(cfg: LinkConfig, with_interface: bool) -> float:
    alpha = (
        cfg.attenuation_telecom_db_per_km
        if with_interface
        else cfg.attenuation_native_db_per_km
    )
    eta_interface = cfg.interface_efficiency if with_interface else 1.0
    return (
        cfg.system_efficiency
        * eta_interface
        * fiber_transmission(cfg.length_km / 2.0, alpha)
    )


def link_success_probability(cfg: LinkConfig, with_interface: bool) -> float:
    """Heralded success probability per attempt (illustrative model).

    Each photon reaches the central station with probability
    p = eta_sys * (eta_interface if converting) * T(L/2, alpha). Heralding
    succeeds on exactly one detection for the single-photon class,
    2 p (1 - p), and on both for the two-photon class, p^2. The
    exactly-one combinatorics makes the single-photon class non-monotonic
    in p above p = 1/2; that is a property of the heralding scheme, not a
    bug.
    """
    p = _per_photon_probability(cfg, with_interface)
    if cfg.protocol == "single-photon":
        return 2.0 * p * (1.0 - p)
    return p * p


def link_rate_hz(cfg: LinkConfig, with_interface: bool) -> float:
    """Successful heralds per second, attempt rate times link probability."""
    return cfg.attempt_rate_hz * link_success_probability(cfg, with_interface)


def break_even_distance(
    interface_efficiency: float,
    attenuation_native_db_per_km: float,
    attenuation_telecom_db_per_km: float,
) -> float:
    """Shortest total link length where converting wins on per-photon odds.

    Equates eta_QI * T(L/2, alpha_tel) with T(L/2, alpha_native):
    L = 20 log10(1/eta_QI) / (alpha_native - alpha_tel). The conversion
    loss is paid once; the attenuation advantage grows with distance.

    Raises:
        DomainError: alpha_native <= alpha_tel (conversion can then never
            win on loss alone), or efficiency outside (0, 1].
    """
    if not 0.0 < interface_efficiency <= 1.0:
        raise DomainError(
            f"interface efficiency must be in (0, 1], got {interface_efficiency}"
        )
    lo, hi = NON_NEGATIVE.lo, NON_NEGATIVE.hi
    if not (lo <= attenuation_native_db_per_km <= hi and lo <= attenuation_telecom_db_per_km <= hi):
        raise DomainError("attenuations must be >= 0")
    delta = attenuation_native_db_per_km - attenuation_telecom_db_per_km
    if delta <= 0:
        raise DomainError(
            f"native attenuation {attenuation_native_db_per_km} dB/km must exceed "
            f"telecom attenuation {attenuation_telecom_db_per_km} dB/km for a "
            f"break-even point to exist"
        )
    return 20.0 * math.log10(1.0 / interface_efficiency) / delta
