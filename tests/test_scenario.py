"""Scenario parsing, canonical serialization, and digest stability."""

import dataclasses
import math
import re

import pytest

from qifsim import conversion
from qifsim.errors import ConfigError, DomainError
from qifsim.scenario import (
    load_reference_scenario,
    load_scenario,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)

REFERENCE_DIGEST = "521b5b16a1f4"


@pytest.fixture(scope="module")
def ref():
    return load_reference_scenario()


def test_reference_scenario_digest_frozen(ref):
    assert scenario_digest(ref) == REFERENCE_DIGEST


def test_reference_scenario_physics(ref):
    assert ref.output_wavelength_um() == pytest.approx(1.308693586698337, rel=1e-12)
    assert ref.eta_qi() == pytest.approx(0.0013291635371188786, rel=1e-12)
    factor = math.exp(-ref.preparation.delta_tau_ns / ref.pump.coherence_time_ns)
    assert factor == pytest.approx(0.96, rel=1e-12)
    assert ref.sync_period_ns() == pytest.approx(1e3 / 60.0, rel=1e-14)
    assert ref.noise_rate_hz() == 0.0
    # Fringe statistics are decoupled from the 0.13 percent budget here.
    assert ref.unit_conversion_survival is True
    assert ref.conversion_survival() == 1.0


def test_reference_duration(ref):
    assert ref.duration_s(60_000_000) == pytest.approx(1.0, rel=1e-12)


def test_roundtrip_preserves_scenario(ref):
    text = serialize_scenario(ref)
    again = parse_scenario(text, origin="roundtrip")
    assert again == ref
    assert serialize_scenario(again) == text
    assert scenario_digest(again) == REFERENCE_DIGEST


def test_digest_tracks_content(ref):
    reseeded = dataclasses.replace(ref, master_seed=1)
    assert scenario_digest(reseeded) != REFERENCE_DIGEST


def test_repeater_link_uses_budget_by_default(ref):
    link = ref.repeater_link(10.0)
    assert link.interface_efficiency == pytest.approx(ref.eta_qi(), rel=1e-12)
    assert link.length_km == 10.0


def test_budget_at_the_configured_power_is_computed_once(monkeypatch):
    s = dataclasses.replace(load_reference_scenario(), unit_conversion_survival=False)
    before = (serialize_scenario(s), scenario_digest(s), hash(s))
    eta = s.eta_qi()
    assert eta == s.eta_qi(s.pump.power_w)
    calls = []
    monkeypatch.setattr(conversion, "end_to_end_efficiency", lambda *args: calls.append(args))
    links = [s.repeater_link(float(km)) for km in range(100)]
    assert {link.interface_efficiency for link in links} == {eta}
    assert s.conversion_survival() == eta
    assert s.eta_qi() == eta
    assert calls == []
    monkeypatch.undo()
    # The cached value is no field: the scenario reads as it did before.
    assert (serialize_scenario(s), scenario_digest(s), hash(s)) == before
    assert s == dataclasses.replace(load_reference_scenario(), unit_conversion_survival=False)
    brighter_pump = dataclasses.replace(s.pump, power_w=2.0 * s.pump.power_w)
    brighter = dataclasses.replace(s, pump=brighter_pump)
    assert brighter.eta_qi() == brighter.eta_qi(brighter.pump.power_w)
    assert brighter.eta_qi() > eta


def test_load_missing_file_names_path(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(tmp_path / "absent.scenario")


def test_unknown_section_rejected(ref):
    text = serialize_scenario(ref) + "[extra]\nkey = 1\n"
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_scenario(text)


def test_unknown_key_rejected(ref):
    text = serialize_scenario(ref).replace(
        "[source]\n", "[source]\nunexpected_knob = 3\n"
    )
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_scenario(text)


def test_missing_key_names_section_and_key(ref):
    text = serialize_scenario(ref).replace("repetition_rate_mhz = 60.0\n", "")
    with pytest.raises(ConfigError, match=r"\[source\].*repetition_rate_mhz"):
        parse_scenario(text, origin="probe.scenario")


def test_malformed_number_reports_key(ref):
    text = serialize_scenario(ref).replace(
        "pulse_fwhm_ns = 1.0", "pulse_fwhm_ns = fast"
    )
    with pytest.raises(ConfigError, match="pulse_fwhm_ns"):
        parse_scenario(text)


def test_malformed_bool_reports_key(ref):
    text = serialize_scenario(ref).replace(
        "unit_conversion_survival = true", "unit_conversion_survival = yes"
    )
    with pytest.raises(ConfigError, match="unit_conversion_survival"):
        parse_scenario(text)


def test_chain_stage_needs_unit(ref):
    text = serialize_scenario(ref).replace(
        "in_coupling = 0.45 fraction", "in_coupling = 0.45"
    )
    with pytest.raises(ConfigError, match="fraction"):
        parse_scenario(text)


def test_mismatched_delays_rejected(ref):
    text = serialize_scenario(ref).replace(
        "[analysis_interferometer]\ndelta_tau_ns = 2.2",
        "[analysis_interferometer]\ndelta_tau_ns = 2.4",
    )
    with pytest.raises(ConfigError, match="delays differ"):
        parse_scenario(text)


def test_unknown_protocol_rejected(ref):
    text = serialize_scenario(ref).replace("protocol = single-photon", "protocol = three-photon")
    with pytest.raises(ConfigError, match=r"probe\.scenario: \[repeater\] protocol must be"):
        parse_scenario(text, origin="probe.scenario")


@pytest.mark.parametrize(
    "section, key, bad",
    [
        ("qpm", "signal_wavelength_um", "-1.0"),
        ("conversion", "eta_norm_per_W_cm2", "-1.0"),
        ("conversion", "extra_visibility_penalty", "1.5"),
        ("acquisition", "histogram_bin_width_ps", "0.0"),
        ("acquisition", "pulses_per_point", "-1"),
        ("acquisition", "mc_photons_per_point", "-1"),
        ("acquisition", "master_seed", "-1"),
    ],
)
def test_field_error_names_section_and_key(ref, section, key, bad):
    lines = serialize_scenario(ref).splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[index] = f"{key} = {bad}\n"
    expected = rf"probe\.scenario: \[{section}\] {key} must be .*, got {re.escape(bad)}$"
    with pytest.raises(ConfigError, match=expected):
        parse_scenario("".join(lines), origin="probe.scenario")


@pytest.mark.parametrize(
    "key, bad",
    [
        ("attenuation_native_db_per_km", "-1.0"),
        ("attenuation_telecom_db_per_km", "-1.0"),
        ("system_efficiency", "1.5"),
        ("interface_efficiency", "1.5"),
        ("attempt_rate_hz", "-1.0"),
    ],
)
def test_repeater_settings_follow_link_rule(ref, key, bad):
    lines = serialize_scenario(ref).splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[index] = f"{key} = {bad}\n"
    with pytest.raises(ConfigError, match=rf"probe\.scenario: \[repeater\] {key} must be"):
        parse_scenario("".join(lines), origin="probe.scenario")


@pytest.mark.parametrize(
    "analysis", [{"phase_rad": 0.3}, {"normalize_forward": True}], ids=["phase", "normalize_forward"]
)
def test_analysis_interferometer_has_no_phase_or_normalization(ref, analysis):
    with pytest.raises(ConfigError, match="analysis interferometer must have zero phase"):
        dataclasses.replace(ref, analysis=dataclasses.replace(ref.analysis, **analysis))


def test_bad_interface_efficiency_field(ref):
    text = serialize_scenario(ref).replace(
        "interface_efficiency = from_budget", "interface_efficiency = budget"
    )
    with pytest.raises(ConfigError, match="from_budget"):
        parse_scenario(text)


def test_bad_length_grid(ref):
    text = serialize_scenario(ref).replace(
        "length_grid_km = 2.0:100.0:50", "length_grid_km = 2.0:100.0"
    )
    with pytest.raises(ConfigError, match="start:stop:n"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "grid",
    [
        (math.nan, 100.0, 3), (2.0, math.nan, 3), (-1.0, 100.0, 3), (5.0, 2.0, 3), (2.0, 5.0, 0),
        (2.0, 100.0, 2.5),
    ],
)
def test_repeater_settings_reject_length_grid(ref, grid):
    with pytest.raises(DomainError, match="length grid"):
        dataclasses.replace(ref.repeater, length_grid_km=grid)


def test_explicit_interface_efficiency_roundtrip(ref):
    text = serialize_scenario(ref).replace(
        "interface_efficiency = from_budget", "interface_efficiency = 0.25"
    )
    s = parse_scenario(text)
    assert s.repeater.interface_efficiency == 0.25
    assert s.repeater_link(0.0).interface_efficiency == 0.25
    assert parse_scenario(serialize_scenario(s)) == s


def test_noise_inf_extinction_roundtrip(ref):
    assert math.isinf(ref.noise.pump_extinction_db)
    text = serialize_scenario(ref)
    assert "pump_extinction_db = inf" in text
    assert math.isinf(parse_scenario(text).noise.pump_extinction_db)


def _key_lines():
    """(section, key, line index) of every table key in the reference's canonical text.

    Stage lines of the loss chains are left out: their keys are free stage
    names, so dropping one leaves a valid, shorter chain.
    """
    section = None
    for index, line in enumerate(serialize_scenario(load_reference_scenario()).splitlines()):
        key = line.split(" = ")[0]
        if line.startswith("["):
            section = line[1:-1]
        elif line and not section.startswith("chain_"):
            yield pytest.param(section, key, index, id=f"{section}.{key}")


@pytest.mark.parametrize("section, key, index", list(_key_lines()))
def test_every_key_is_required(ref, section, key, index):
    lines = serialize_scenario(ref).splitlines(keepends=True)
    del lines[index]
    expected = rf"probe\.scenario: section \[{section}\] is missing key '{key}'"
    with pytest.raises(ConfigError, match=expected):
        parse_scenario("".join(lines), origin="probe.scenario")
