"""Scenario files: one INI-style config describing a full experiment.

A scenario aggregates every component model (source, interferometers,
crystal, pump, loss chains, noise, detector, acquisition, repeater link)
plus the run controls. Keys are named after the physical symbols they
carry. Parsing is strict: unknown sections or keys, missing keys, and
malformed or out-of-domain values are config errors that name the file,
section, and key; each field's domain lives on the class that owns it.

The detector, analyzer-window and repeater settings are defined here; the
other components come from the analytic modules, so loading a scenario
imports no numpy.

The format has one definition, the key table ``_KEYS``: each row names a
section, a key, the dotted ``Scenario`` attribute it sets and how its text
is parsed and formatted. Parsing and serialization both walk the table;
only the loss-chain sections, whose keys are free stage names, are a
special row. The serialized form is canonical (table order, repr floats),
so its SHA-256 digest identifies the physics of a run and a
parse/serialize round trip is the identity.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_type_hints

from . import conversion, qpm
from .errors import COUNT, FINITE, FRACTION, NON_NEGATIVE, POSITIVE, POSITIVE_OR_INF, Domain
from .errors import ConfigError, DomainError, check_domains, domains, is_integer
from .qpm import QpmConfig
from .repeater import LinkConfig
from .timebin import DELAY_MATCH_RTOL, Interferometer, PulseSource

__all__ = [
    "DetectorModel",
    "ScaWindow",
    "FWHM_TO_SIGMA",
    "RepeaterSettings",
    "Scenario",
    "load_scenario",
    "load_reference_scenario",
    "parse_scenario",
    "serialize_scenario",
    "scenario_digest",
]


# FWHM of a Gaussian = 2 sqrt(2 ln 2) sigma.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class DetectorModel:
    """Free-running single-photon avalanche detector.

    Attributes:
        quantum_efficiency: detection probability per arriving photon;
            the Monte Carlo engine applies it when it thins the photons.
        dark_count_rate_hz: observed-free-running dark rate before dead time.
        dead_time_us: hold-off after each accepted event (non-paralyzable).
        jitter_fwhm_ps: FWHM of the Gaussian timing jitter.
        afterpulse_probability: chance an accepted event spawns one
            afterpulse; the delay is dead time plus an exponential of the
            same scale. Off by default; long hold-offs exist precisely to
            suppress it.
    """

    quantum_efficiency: float
    dark_count_rate_hz: float = 0.0
    dead_time_us: float = 0.0
    jitter_fwhm_ps: float = 0.0
    afterpulse_probability: float = 0.0

    _DOMAINS = domains(
        quantum_efficiency=FRACTION, dark_count_rate_hz=NON_NEGATIVE, dead_time_us=NON_NEGATIVE,
        jitter_fwhm_ps=NON_NEGATIVE, afterpulse_probability=FRACTION,
    )

    def __post_init__(self) -> None:
        check_domains(self)
        if self.afterpulse_probability > 0 and self.dead_time_us == 0:
            raise DomainError("afterpulse model needs a positive dead time as its time scale")

    def jitter_sigma_ns(self) -> float:
        return self.jitter_fwhm_ps * 1e-3 * FWHM_TO_SIGMA


@dataclass(frozen=True)
class ScaWindow:
    """Temporal selection window of a single-channel analyzer; width ``inf`` counts every event."""

    center_ns: float
    width_ns: float

    _DOMAINS = domains(center_ns=FINITE, width_ns=POSITIVE_OR_INF)
    __post_init__ = check_domains


@dataclass(frozen=True)
class RepeaterSettings:
    """Repeater-link comparison inputs carried by a scenario.

    ``interface_efficiency`` of None means "use this scenario's own
    conversion budget". The settings hold to ``LinkConfig``'s own rule.
    """

    attenuation_native_db_per_km: float
    attenuation_telecom_db_per_km: float
    system_efficiency: float
    interface_efficiency: float | None
    protocol: str
    attempt_rate_hz: float
    length_grid_km: tuple[float, float, int]

    def __post_init__(self) -> None:
        start, stop, n = self.length_grid_km
        if not (is_integer(n) and n >= 1 and 0 <= start <= stop <= FINITE.hi):
            raise DomainError(
                f"length grid must be finite, 0 <= start <= stop, n an integer >= 1; "
                f"got {start}:{stop}:{n}"
            )
        # A budget efficiency is checked where the budget is computed.
        self.link(start, budget_efficiency=1.0)

    def link(self, length_km: float, budget_efficiency: float) -> LinkConfig:
        """The link of ``length_km``, converting at ``budget_efficiency`` when set from the budget."""
        eta = self.interface_efficiency
        return LinkConfig(
            length_km=length_km,
            attenuation_native_db_per_km=self.attenuation_native_db_per_km,
            attenuation_telecom_db_per_km=self.attenuation_telecom_db_per_km,
            interface_efficiency=budget_efficiency if eta is None else eta,
            system_efficiency=self.system_efficiency,
            protocol=self.protocol,
            attempt_rate_hz=self.attempt_rate_hz,
        )


@dataclass(frozen=True)
class Scenario:
    """Machine-readable description of one full experimental run."""

    source: PulseSource
    preparation: Interferometer
    analysis: Interferometer
    qpm: QpmConfig
    signal_wavelength_um: float
    pump: conversion.PumpField
    eta_norm_per_w_cm2: float
    unit_conversion_survival: bool
    extra_visibility_penalty: float
    chain_pre: conversion.LossChain
    chain_post: conversion.LossChain
    noise: conversion.NoiseModel
    detector: DetectorModel
    sca: ScaWindow
    histogram_bin_width_ps: float
    tac_offset_ns: float
    pulses_per_point: int
    mc_photons_per_point: int
    master_seed: int
    repeater: RepeaterSettings

    _DOMAINS = domains(
        signal_wavelength_um=POSITIVE, eta_norm_per_w_cm2=NON_NEGATIVE,
        extra_visibility_penalty=FRACTION, histogram_bin_width_ps=POSITIVE, tac_offset_ns=FINITE,
        pulses_per_point=COUNT, mc_photons_per_point=COUNT,
        master_seed=Domain(0, 2**64 - 1, "an integer in [0, 2**64)", integer=True),
    )

    def __post_init__(self) -> None:
        check_domains(self)
        dt_p, dt_a = self.preparation.delta_tau_ns, self.analysis.delta_tau_ns
        if abs(dt_p - dt_a) > DELAY_MATCH_RTOL * dt_p:
            raise ConfigError(
                f"interferometer delays differ beyond {DELAY_MATCH_RTOL:.0%}: preparation "
                f"{dt_p} ns vs analysis {dt_a} ns"
            )
        # Every scan sets the analysis phase, and the analyzer needs its
        # physical two-port transfer, so the format carries neither.
        if self.analysis.phase_rad != 0.0 or self.analysis.normalize_forward:
            raise ConfigError(
                "analysis interferometer must have zero phase and normalize_forward "
                f"off, got {self.analysis.phase_rad} rad and {self.analysis.normalize_forward}"
            )

    # Derived quantities used across the engine.

    def sync_period_ns(self) -> float:
        return 1e3 / self.source.repetition_rate_mhz

    def duration_s(self, pulses: int) -> float:
        return pulses / (self.source.repetition_rate_mhz * 1e6)

    def output_wavelength_um(self) -> float:
        return qpm.dfg_output_wavelength(self.signal_wavelength_um, self.pump.wavelength_um)

    def internal_efficiency(self, power_w: float | None = None) -> float:
        power = self.pump.power_w if power_w is None else power_w
        return conversion.internal_conversion_efficiency(
            power, self.eta_norm_per_w_cm2, self.qpm.crystal_length_cm
        )

    def eta_qi(self, power_w: float | None = None) -> float:
        """Analytic end-to-end conversion budget at the given pump power.

        Without a power it is the budget at the configured pump power,
        computed once per instance.
        """
        if power_w is None:
            return self._eta_qi_configured
        return conversion.end_to_end_efficiency(
            self.chain_pre, self.internal_efficiency(power_w), self.chain_post
        )

    @cached_property
    def _eta_qi_configured(self) -> float:
        # The frozen fields fix it. It is no field, so ==, hash and the
        # serialized form never see it, and dataclasses.replace starts afresh.
        return self.eta_qi(self.pump.power_w)

    def conversion_survival(self) -> float:
        """Per-photon survival the stochastic engine actually applies.

        1 when the scenario decouples counting statistics from the
        conversion budget (unit_conversion_survival), otherwise the
        physical budget itself.
        """
        return 1.0 if self.unit_conversion_survival else self.eta_qi()

    def noise_rate_hz(self) -> float:
        return conversion.noise_rate(self.pump, self.output_wavelength_um(), self.noise)

    def repeater_link(self, length_km: float) -> LinkConfig:
        return self.repeater.link(length_km, self.eta_qi())

    def warn_if_unresolved(self) -> None:
        self.source.warn_if_unresolved(self.preparation.delta_tau_ns)


class _Kind(NamedTuple):
    """How the text of one key becomes a value, and back.

    ``parse`` raises ValueError on malformed text, and the error then reads
    "<key> = <text>; expected <expected>".
    """

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    expected: str


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false"):
        raise ValueError(raw)
    return value == "true"


def _parse_grid(raw: str) -> tuple[float, float, int]:
    """``start:stop:n`` as (start, stop, n); ValueError when malformed or an end is not finite."""
    start, stop, n = raw.split(":")
    start, stop = float(start), float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(raw)
    return start, stop, int(n)


def _parse_stage(raw: str) -> tuple[float, str]:
    value, unit = raw.split()
    return float(value), unit


_FLOAT = _Kind(float, repr, "a number")
_INT = _Kind(int, str, "an integer")
_BOOL = _Kind(_parse_bool, lambda v: "true" if v else "false", "true or false")
_TEXT = _Kind(str, str, "text")
_FRACTION_OR_BUDGET = _Kind(
    lambda raw: None if raw == "from_budget" else float(raw),
    lambda v: "from_budget" if v is None else repr(v),
    "a fraction or 'from_budget'",
)
_GRID = _Kind(
    _parse_grid, lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}", "start:stop:n with finite ends"
)
# One loss stage: parsed to (value, unit), formatted from a LossStage.
_STAGE = _Kind(
    _parse_stage, lambda st: f"{st.value!r} {st.unit}", "'<value> fraction' or '<value> dB'"
)


class _Key(NamedTuple):
    section: str
    key: str | None  # None: every key of the section is one loss stage
    path: str  # dotted Scenario attribute the key sets
    kind: _Kind


# The scenario format: every section and key, in canonical order. Parsing
# and serialization both walk this table.
_KEYS = (
    _Key("source", "repetition_rate_mhz", "source.repetition_rate_mhz", _FLOAT),
    _Key("source", "pulse_fwhm_ns", "source.pulse_fwhm_ns", _FLOAT),
    _Key("source", "pulse_shape", "source.pulse_shape", _TEXT),
    _Key("source", "mean_photon_number", "source.mean_photon_number", _FLOAT),
    _Key("source", "coherence_time_ns", "source.coherence_time_ns", _FLOAT),
    _Key("source", "cw_background_fraction", "source.cw_background_fraction", _FLOAT),
    _Key("preparation_interferometer", "delta_tau_ns", "preparation.delta_tau_ns", _FLOAT),
    _Key("preparation_interferometer", "phase_rad", "preparation.phase_rad", _FLOAT),
    _Key("preparation_interferometer", "transmission", "preparation.transmission", _FLOAT),
    _Key("preparation_interferometer", "splitting_ratio", "preparation.splitting_ratio", _FLOAT),
    _Key("preparation_interferometer", "normalize_forward", "preparation.normalize_forward", _BOOL),
    _Key("analysis_interferometer", "delta_tau_ns", "analysis.delta_tau_ns", _FLOAT),
    _Key("analysis_interferometer", "transmission", "analysis.transmission", _FLOAT),
    _Key("analysis_interferometer", "splitting_ratio", "analysis.splitting_ratio", _FLOAT),
    _Key("qpm", "poling_period_um", "qpm.poling_period_um", _FLOAT),
    _Key("qpm", "crystal_length_cm", "qpm.crystal_length_cm", _FLOAT),
    _Key("qpm", "temperature_k", "qpm.temperature_k", _FLOAT),
    _Key("qpm", "order", "qpm.order", _INT),
    _Key("qpm", "signal_wavelength_um", "signal_wavelength_um", _FLOAT),
    _Key("pump", "power_w", "pump.power_w", _FLOAT),
    _Key("pump", "wavelength_um", "pump.wavelength_um", _FLOAT),
    _Key("pump", "coherence_time_ns", "pump.coherence_time_ns", _FLOAT),
    _Key("conversion", "eta_norm_per_W_cm2", "eta_norm_per_w_cm2", _FLOAT),
    _Key("conversion", "unit_conversion_survival", "unit_conversion_survival", _BOOL),
    _Key("conversion", "extra_visibility_penalty", "extra_visibility_penalty", _FLOAT),
    _Key("chain_pre", None, "chain_pre.stages", _STAGE),
    _Key("chain_post", None, "chain_post.stages", _STAGE),
    _Key("noise", "spdc_coeff_hz_per_w", "noise.spdc_coeff_hz_per_w", _FLOAT),
    _Key("noise", "raman_coeff_hz_per_w", "noise.raman_coeff_hz_per_w", _FLOAT),
    _Key("noise", "pump_extinction_db", "noise.pump_extinction_db", _FLOAT),
    _Key("noise", "target_band_coeff_hz_per_w", "noise.target_band_coeff_hz_per_w", _FLOAT),
    _Key("noise", "pump_prefiltered", "noise.pump_prefiltered", _BOOL),
    _Key("detector", "quantum_efficiency", "detector.quantum_efficiency", _FLOAT),
    _Key("detector", "dark_count_rate_hz", "detector.dark_count_rate_hz", _FLOAT),
    _Key("detector", "dead_time_us", "detector.dead_time_us", _FLOAT),
    _Key("detector", "jitter_fwhm_ps", "detector.jitter_fwhm_ps", _FLOAT),
    _Key("detector", "afterpulse_probability", "detector.afterpulse_probability", _FLOAT),
    _Key("acquisition", "sca_center_ns", "sca.center_ns", _FLOAT),
    _Key("acquisition", "sca_width_ns", "sca.width_ns", _FLOAT),
    _Key("acquisition", "histogram_bin_width_ps", "histogram_bin_width_ps", _FLOAT),
    _Key("acquisition", "tac_offset_ns", "tac_offset_ns", _FLOAT),
    _Key("acquisition", "pulses_per_point", "pulses_per_point", _INT),
    _Key("acquisition", "mc_photons_per_point", "mc_photons_per_point", _INT),
    _Key("acquisition", "master_seed", "master_seed", _INT),
    _Key("repeater", "attenuation_native_db_per_km", "repeater.attenuation_native_db_per_km", _FLOAT),
    _Key("repeater", "attenuation_telecom_db_per_km", "repeater.attenuation_telecom_db_per_km", _FLOAT),
    _Key("repeater", "system_efficiency", "repeater.system_efficiency", _FLOAT),
    _Key("repeater", "interface_efficiency", "repeater.interface_efficiency", _FRACTION_OR_BUDGET),
    _Key("repeater", "protocol", "repeater.protocol", _TEXT),
    _Key("repeater", "attempt_rate_hz", "repeater.attempt_rate_hz", _FLOAT),
    _Key("repeater", "length_grid_km", "repeater.length_grid_km", _GRID),
)

_SECTIONS = tuple(dict.fromkeys(row.section for row in _KEYS))
# Built once: making an attrgetter for a dotted path costs more than calling it.
_GETTERS = {row.path: attrgetter(row.path) for row in _KEYS}

# Component class of each Scenario attribute that a dotted path enters.
_COMPONENTS = get_type_hints(Scenario)


def _read(origin: str, section: str, key: str, raw: str, kind: _Kind):
    try:
        return kind.parse(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{origin}: [{section}] {key} = {raw!r}; expected {kind.expected}"
        ) from exc


def _refusal(origin: str, section: str, rows, exc: DomainError) -> ConfigError:
    """``exc`` after ``[section]``, a refused field renamed to the key of its row in ``rows``.

    Any other message follows as it stands; a loss stage's starts with its
    name, which is its key.
    """
    row = {row.path.rpartition(".")[2]: row for row in rows}.get(exc.field)
    if row is None:
        return ConfigError(f"{origin}: [{section}] {exc}")
    return ConfigError(f"{origin}: [{row.section}] {str(exc).replace(exc.field, row.key, 1)}")


def _parse_section(origin: str, section: str, given: dict[str, str], rows) -> dict[str, Any]:
    """The Scenario fields that one section's table rows set, components built."""
    fields: dict[str, Any] = {}
    parts: dict[str, dict[str, Any]] = {}
    for row in rows:
        if row.key is None:  # a stage list: every key left is one loss stage
            value = tuple(
                conversion.LossStage(name, *_read(origin, section, name, raw, row.kind))
                for name, raw in given.items()
            )
            given = {}
        elif row.key not in given:
            raise ConfigError(f"{origin}: section [{section}] is missing key {row.key!r}")
        else:
            value = _read(origin, section, row.key, given.pop(row.key), row.kind)
        component, _, name = row.path.rpartition(".")
        if component:
            parts.setdefault(component, {})[name] = value
        else:
            fields[name] = value
    if given:
        raise ConfigError(f"{origin}: section [{section}] has unknown keys {sorted(given)}")
    for component, kwargs in parts.items():
        fields[component] = _COMPONENTS[component](**kwargs)
    return fields


def parse_scenario(text: str, origin: str = "<string>") -> Scenario:
    """Parse scenario text; ConfigError messages carry ``origin`` as the file."""
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#",),
        comment_prefixes=("#",),
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: malformed scenario file: {exc}") from exc

    present = set(parser.sections())
    missing = [s for s in _SECTIONS if s not in present]
    if missing:
        raise ConfigError(f"{origin}: missing sections {missing}")
    unknown = sorted(present - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"{origin}: unknown sections {unknown}")

    fields: dict[str, Any] = {}
    for section, rows in groupby(_KEYS, attrgetter("section")):
        rows = tuple(rows)
        try:
            fields.update(_parse_section(origin, section, dict(parser[section]), rows))
        except DomainError as exc:
            raise _refusal(origin, section, rows, exc) from exc
    try:
        return Scenario(**fields)
    except DomainError as exc:  # one of Scenario's own fields
        raise _refusal(origin, "", [row for row in _KEYS if row.path == exc.field], exc) from exc
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file.

    Raises:
        ConfigError: missing file or any parse/validation failure; the
            message names the file and the offending section and key.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(), origin=str(path))


def load_reference_scenario() -> Scenario:
    """The scenario bundled with the package."""
    with resources.as_file(
        resources.files("qifsim.data").joinpath("reference.scenario")
    ) as path:
        return load_scenario(path)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parsing it back reproduces ``s`` exactly."""
    lines = []
    for section, rows in groupby(_KEYS, attrgetter("section")):
        lines.append(f"[{section}]")
        for row in rows:
            value = _GETTERS[row.path](s)
            if row.key is None:
                lines += [f"{stage.name} = {row.kind.format(stage)}" for stage in value]
            else:
                lines.append(f"{row.key} = {row.kind.format(value)}")
        lines.append("")
    return "\n".join(lines) + "\n"


def scenario_digest(s: Scenario) -> str:
    """12-hex-character SHA-256 digest of the canonical serialization."""
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()[:12]
