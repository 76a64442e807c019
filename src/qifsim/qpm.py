"""Dispersion and quasi-phase-matching engine.

Wavelengths are in micrometers, temperatures in kelvin, poling periods in
micrometers, crystal lengths in centimeters, and phase mismatches in rad/um
throughout. The dispersion backend is one temperature-dependent Sellmeier
coefficient set for the extraordinary index of congruent lithium niobate,
the constant ``CONGRUENT_LN_NE``; another material would be another
``SellmeierModel`` constant here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FINITE, POSITIVE, Domain, check_domains, domains
from .errors import DomainError, SolverError

__all__ = [
    "SellmeierModel",
    "CONGRUENT_LN_NE",
    "QpmConfig",
    "refractive_index",
    "dfg_output_wavelength",
    "phase_mismatch",
    "solve_poling_period",
    "qpm_acceptance",
    "solve_pump_wavelength",
]

PUMP_SEARCH_BRACKET_UM = (1.3, 1.8)

# Residual tolerance for the QPM solvers, rad/um.
SOLVER_TOL_RAD_UM = 1e-9

# Energy-conservation gate for phase_mismatch inputs, 1/um. Far below any
# physical linewidth; catches inconsistent triples, not detunings.
ENERGY_TOL_PER_UM = 1e-6


@dataclass(frozen=True)
class SellmeierModel:
    """Coefficient set for the temperature-dependent extraordinary index.

    The functional form is the single-oscillator-plus-UV-pole expansion

        n_e^2 = a1 + b1 f + (a2 + b2 f)/(lam^2 - (a3 + b3 f)^2)
                + (a4 + b4 f)/(lam^2 - a5^2) - a6 lam^2

    with f = (t - 24.5)(t + 570.82) and t the temperature in Celsius.

    Attributes:
        a: six dispersion coefficients a1..a6.
        b: four thermo-optic coefficients b1..b4.
        wavelength_range_um: inclusive validity range for the wavelength.
        temperature_range_k: inclusive validity range for the temperature.
    """

    a: tuple[float, float, float, float, float, float]
    b: tuple[float, float, float, float]
    wavelength_range_um: tuple[float, float]
    temperature_range_k: tuple[float, float]

    def index(self, wavelength_um: float, temperature_k: float) -> float:
        """Evaluate n_e; validity is enforced, never extrapolated."""
        lo, hi = self.wavelength_range_um
        if not lo <= wavelength_um <= hi:
            raise DomainError(
                f"wavelength {wavelength_um} um outside Sellmeier validity "
                f"[{lo}, {hi}] um"
            )
        tlo, thi = self.temperature_range_k
        if not tlo <= temperature_k <= thi:
            raise DomainError(
                f"temperature {temperature_k} K outside Sellmeier validity "
                f"[{tlo}, {thi}] K"
            )
        t = temperature_k - 273.15
        f = (t - 24.5) * (t + 570.82)
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        lam2 = wavelength_um * wavelength_um
        n2 = (
            a1
            + b1 * f
            + (a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2)
            + (a4 + b4 * f) / (lam2 - a5 * a5)
            - a6 * lam2
        )
        return math.sqrt(n2)


# D. H. Jundt, "Temperature-dependent Sellmeier equation for the index of
# refraction, n_e, in congruent lithium niobate", Opt. Lett. 22, 1553 (1997),
# doi:10.1364/OL.22.001553.
CONGRUENT_LN_NE = SellmeierModel(
    a=(5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2),
    b=(4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5),
    wavelength_range_um=(0.4, 5.0),
    temperature_range_k=(293.0, 473.0),
)


@dataclass(frozen=True)
class QpmConfig:
    """Quasi-phase-matching geometry.

    Attributes:
        poling_period_um: grating period of the sign-reversed nonlinearity.
        crystal_length_cm: interaction length.
        temperature_k: crystal temperature.
        order: QPM order m, odd and positive.
    """

    poling_period_um: float
    crystal_length_cm: float
    temperature_k: float
    order: int = 1

    _DOMAINS = domains(
        poling_period_um=POSITIVE, crystal_length_cm=POSITIVE, temperature_k=FINITE,
        order=Domain(1, FINITE.hi, "an integer >= 1", integer=True),
    )

    def __post_init__(self) -> None:
        check_domains(self)
        if self.order % 2 == 0:
            raise DomainError(f"order must be odd, got {self.order}")


def refractive_index(wavelength_um: float, temperature_k: float) -> float:
    """Extraordinary refractive index n_e(lambda, T) of ``CONGRUENT_LN_NE``.

    Args:
        wavelength_um: vacuum wavelength in micrometers.
        temperature_k: crystal temperature in kelvin.

    Raises:
        DomainError: outside the model validity range.
    """
    return CONGRUENT_LN_NE.index(wavelength_um, temperature_k)


def dfg_output_wavelength(signal_um: float, pump_um: float) -> float:
    """Difference-frequency output wavelength, 1/out = 1/signal - 1/pump.

    The signal must be the most energetic wave (shortest wavelength).
    """
    lo, hi = POSITIVE.lo, POSITIVE.hi
    if not (lo <= signal_um <= hi and lo <= pump_um <= hi):
        raise DomainError("wavelengths must be positive")
    if signal_um >= pump_um:
        raise DomainError(
            f"difference-frequency mixing needs signal < pump, "
            f"got signal {signal_um} um >= pump {pump_um} um"
        )
    return 1.0 / (1.0 / signal_um - 1.0 / pump_um)


def phase_mismatch(
    signal_um: float,
    pump_um: float,
    output_um: float,
    cfg: QpmConfig,
) -> float:
    """Signed quasi-phase mismatch in rad/um.

    Delta_k = 2 pi (n_s/lam_s - n_p/lam_p - n_o/lam_o - m/Lambda), zero
    exactly on the grating-compensated momentum balance. The input triple
    must satisfy energy conservation; a violation is an input error, not a
    detuning.
    """
    _check_energy(signal_um, pump_um, output_um)
    return _mismatch(_per_um(signal_um, cfg.temperature_k), pump_um, output_um, cfg)


def _check_energy(signal_um: float, pump_um: float, output_um: float) -> None:
    """Refuse a triple that violates 1/signal = 1/pump + 1/output beyond ``ENERGY_TOL_PER_UM``."""
    balance = 1.0 / signal_um - 1.0 / pump_um - 1.0 / output_um
    if abs(balance) > ENERGY_TOL_PER_UM:
        raise DomainError(
            f"energy conservation violated by {balance:.3e} 1/um "
            f"(limit {ENERGY_TOL_PER_UM:.0e}); triple "
            f"({signal_um}, {pump_um}, {output_um}) um is inconsistent"
        )


def _per_um(wavelength_um: float, temperature_k: float) -> float:
    """One wave's momentum term n/lam, 1/um."""
    return CONGRUENT_LN_NE.index(wavelength_um, temperature_k) / wavelength_um


def _mismatch(signal_per_um: float, pump_um: float, output_um: float, cfg: QpmConfig) -> float:
    """``phase_mismatch`` from the signal's term n_s/lam_s, which a scan computes once."""
    bulk = _bulk_per_um(signal_per_um, pump_um, output_um, cfg.temperature_k)
    return 2.0 * math.pi * (bulk - cfg.order / cfg.poling_period_um)


def _bulk_per_um(
    signal_per_um: float, pump_um: float, output_um: float, temperature_k: float
) -> float:
    """Grating-free momentum imbalance n_s/lam_s - n_p/lam_p - n_o/lam_o, 1/um."""
    return signal_per_um - _per_um(pump_um, temperature_k) - _per_um(output_um, temperature_k)


def solve_poling_period(
    signal_um: float,
    pump_um: float,
    temperature_k: float,
    order: int = 1,
) -> float:
    """Poling period (um) that quasi-phase matches the DFG triple.

    The mismatch 2 pi (bulk - m/Lambda) is linear in 1/Lambda, so the
    period is m / bulk in closed form; the residual is checked afterwards.

    Raises:
        SolverError: the bulk mismatch is not positive, so no positive
            period can compensate it (the error states the sign).
    """
    output_um = dfg_output_wavelength(signal_um, pump_um)
    bulk = _bulk_per_um(_per_um(signal_um, temperature_k), pump_um, output_um, temperature_k)
    if bulk <= 0:
        raise SolverError(
            f"no positive poling period: bulk mismatch is "
            f"{'zero' if bulk == 0 else 'negative'} ({bulk:.6e} 1/um) for "
            f"({signal_um}, {pump_um}) um at {temperature_k} K"
        )
    period = order / bulk
    cfg = QpmConfig(period, 1.0, temperature_k, order)
    residual = phase_mismatch(signal_um, pump_um, output_um, cfg)
    if abs(residual) > SOLVER_TOL_RAD_UM:
        raise SolverError(f"closed-form poling period leaves residual {residual:.3e} rad/um")
    return period


def qpm_acceptance(delta_k_rad_um: float, length_cm: float) -> float:
    """Spectral acceptance factor sinc^2(Delta_k L / 2), in [0, 1].

    Peaks at 1 for zero mismatch, first null at Delta_k L / 2 = pi.
    """
    if not FINITE.lo <= delta_k_rad_um <= FINITE.hi:
        raise DomainError(f"phase mismatch must be finite, got {delta_k_rad_um} rad/um")
    if not POSITIVE.lo <= length_cm <= POSITIVE.hi:
        raise DomainError(f"crystal length must be > 0, got {length_cm}")
    x = 0.5 * delta_k_rad_um * (length_cm * 1e4)
    if x == 0.0:
        return 1.0
    return (math.sin(x) / x) ** 2


def _refine_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f inside [a, b], where fa and fb have opposite signs.

    Illinois false position: the secant through the bracket ends, with the
    value at the kept end halved whenever a new point falls on the same side
    as the last one, so neither end stalls. Stops when the bracket is
    narrower than 1e-12 um plus 8.9e-16 relative.
    """
    for _ in range(100):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
        if abs(b - a) < 1e-12 + 8.9e-16 * abs(b):
            return b
    raise SolverError(f"root refinement did not converge in [{a}, {b}] um")


def solve_pump_wavelength(
    poling_period_um: float,
    signal_um: float,
    temperature_k: float,
    order: int = 1,
) -> float:
    """Pump wavelength (um) that phase matches at the given period and T.

    The mismatch is symmetric under exchanging the pump and output waves,
    so two roots can coexist; the one with the pump redder than the output
    (pump wavelength above twice the signal wavelength) is returned, which
    is the conventional down-conversion operating point. Enables
    temperature tuning curves lambda_p(T).

    The fixed search bracket [1.3, 1.8] um is sampled at 128 points and
    scanned down from the red end. The first sign change, or exact zero,
    met there is the reddest root in the bracket; Illinois false position
    refines it. The blue end is evaluated before the scan: it holds the
    longest output wavelength, so an input outside the Sellmeier validity
    range fails there, whatever root lies further red.

    Raises:
        DomainError: an input, or the output wave at the blue end, is
            outside the model's validity range.
        SolverError: no sign change inside the bracket; the message reports
            the mismatch sign at both endpoints.
    """
    lo, hi = PUMP_SEARCH_BRACKET_UM
    if signal_um >= lo:
        raise DomainError(
            f"signal {signal_um} um must lie below the pump search bracket "
            f"[{lo}, {hi}] um"
        )
    cfg = QpmConfig(poling_period_um, 1.0, temperature_k, order)
    # The blue end first, in phase_mismatch's order of checks, so that it
    # raises what any point of a full scan would.
    blue_output_um = dfg_output_wavelength(signal_um, lo)
    _check_energy(signal_um, lo, blue_output_um)
    signal_per_um = _per_um(signal_um, temperature_k)

    def residual(pump_um: float) -> float:
        output_um = dfg_output_wavelength(signal_um, pump_um)
        _check_energy(signal_um, pump_um, output_um)
        return _mismatch(signal_per_um, pump_um, output_um, cfg)

    n_scan = 128
    xs = [lo + (hi - lo) * i / (n_scan - 1) for i in range(n_scan)]
    f_blue = _mismatch(signal_per_um, lo, blue_output_um, cfg)
    f_red = f1 = residual(xs[-1])
    if f_red == 0.0:
        return xs[-1]
    for i in range(n_scan - 2, -1, -1):
        f0 = f_blue if i == 0 else residual(xs[i])
        if f0 == 0.0:
            return xs[i]
        if f0 * f1 < 0:
            return _refine_root(residual, xs[i], xs[i + 1], f0, f1)
        f1 = f0
    raise SolverError(
        f"no quasi-phase-matched pump in [{lo}, {hi}] um at "
        f"Lambda = {poling_period_um} um, T = {temperature_k} K: mismatch is "
        f"{f_blue:+.3e} rad/um at {lo} um and {f_red:+.3e} rad/um at {hi} um "
        f"with no sign change"
    )
