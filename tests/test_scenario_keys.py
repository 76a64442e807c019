"""Every scenario key acts, and every numeric key refuses what lies outside its domain.

The first walk goes over the key table ``_KEYS``. For each row it sets that
one key of a small base scenario to another valid value, which must parse,
and runs all seven commands in process. At least one output must then
differ from the base run's. An output is a command's exit code, the body of
each CSV it writes without the ``#`` lines, its stdout with output paths
masked, and the warnings it raises. The five ``[noise]`` keys are the one
exemption, and the test asserts that they still change nothing, so the
exemption cannot outlive the reason for it.

The second walk sets each numeric key to nan, inf, -inf and the value just
past each bound of the domain its owning class states. ``fringe-scan`` must
then exit 2, name ``[section] key`` and write no CSV.
"""

import contextlib
import io
import math
import re
import warnings
from dataclasses import replace
from operator import attrgetter

import pytest

from qifsim import cli
from qifsim.errors import Domain
from qifsim.repeater import LinkConfig
from qifsim.scenario import (
    _COMPONENTS,
    _FLOAT,
    _FRACTION_OR_BUDGET,
    _INT,
    _KEYS,
    RepeaterSettings,
    Scenario,
    load_reference_scenario,
    parse_scenario,
    serialize_scenario,
)

REF = load_reference_scenario()
# Small Monte Carlo counts, set in the scenario so that its own keys are
# walked; a 20 ns dead time lets a non-zero afterpulse probability parse.
# The analytic oracle refuses a dead time, so validate exits 3 on every
# walked scenario, and the engine alone must show the preparation delay.
# It acts only through the pump drift's factor exp(-delay / coherence
# time), which a pump coherence time equal to the delay makes steepest.
BASE = serialize_scenario(
    replace(
        REF,
        pulses_per_point=20_000,
        mc_photons_per_point=2_000,
        detector=replace(REF.detector, dead_time_us=0.02),
        pump=replace(REF.pump, coherence_time_ns=REF.preparation.delta_tau_ns),
    )
)

# Another valid value for each key; a loss-chain row changes its first stage.
ALTERNATIVES = {
    ("source", "repetition_rate_mhz"): "50.0",
    ("source", "pulse_fwhm_ns"): "0.8",
    ("source", "pulse_shape"): "square",
    ("source", "mean_photon_number"): "2.0",
    ("source", "coherence_time_ns"): "3.0",
    ("source", "cw_background_fraction"): "0.5",
    ("preparation_interferometer", "delta_tau_ns"): "2.21",
    ("preparation_interferometer", "phase_rad"): "1.0",
    ("preparation_interferometer", "transmission"): "0.5",
    ("preparation_interferometer", "splitting_ratio"): "0.3",
    ("preparation_interferometer", "normalize_forward"): "true",
    ("analysis_interferometer", "delta_tau_ns"): "2.21",
    ("analysis_interferometer", "transmission"): "0.5",
    ("analysis_interferometer", "splitting_ratio"): "0.3",
    ("qpm", "poling_period_um"): "15.0",
    ("qpm", "crystal_length_cm"): "2.0",
    ("qpm", "temperature_k"): "360.0",
    ("qpm", "order"): "3",
    ("qpm", "signal_wavelength_um"): "0.7",
    ("pump", "power_w"): "0.5",
    ("pump", "wavelength_um"): "1.55",
    ("pump", "coherence_time_ns"): "20.0",
    ("pump", "power_grid_w"): "0.0:0.5:14",
    ("conversion", "eta_norm_per_W_cm2"): "0.2",
    ("conversion", "unit_conversion_survival"): "false",
    ("conversion", "extra_visibility_penalty"): "0.5",
    ("chain_pre", None): "0.5 fraction",
    ("chain_post", None): "-0.5 dB",
    ("noise", "spdc_coeff_hz_per_w"): "1000000.0",
    ("noise", "raman_coeff_hz_per_w"): "1000000.0",
    ("noise", "pump_extinction_db"): "30.0",
    ("noise", "target_band_coeff_hz_per_w"): "1000000.0",
    ("noise", "pump_prefiltered"): "false",
    ("detector", "quantum_efficiency"): "0.2",
    ("detector", "dark_count_rate_hz"): "2000000.0",
    ("detector", "dead_time_us"): "0.05",
    ("detector", "jitter_fwhm_ps"): "400.0",
    ("detector", "afterpulse_probability"): "0.05",
    ("acquisition", "sca_center_ns"): "3.0",
    ("acquisition", "sca_width_ns"): "1.0",
    ("acquisition", "histogram_bin_width_ps"): "100.0",
    ("acquisition", "tac_offset_ns"): "4.0",
    ("acquisition", "pulses_per_point"): "10000",
    ("acquisition", "mc_photons_per_point"): "1000",
    ("acquisition", "master_seed"): "1",
    ("acquisition", "phase_grid_rad"): "0.0:6.283185307179586:8",
    ("repeater", "attenuation_native_db_per_km"): "3.0",
    ("repeater", "attenuation_telecom_db_per_km"): "0.3",
    ("repeater", "system_efficiency"): "0.5",
    ("repeater", "interface_efficiency"): "0.25",
    ("repeater", "protocol"): "two-photon",
    ("repeater", "attempt_rate_hz"): "500000.0",
    ("repeater", "length_grid_km"): "2.0:100.0:25",
}

# Keys that are parsed and validated but not yet simulated.
UNWIRED = {
    ("noise", "spdc_coeff_hz_per_w"),
    ("noise", "raman_coeff_hz_per_w"),
    ("noise", "pump_extinction_db"),
    ("noise", "target_band_coeff_hz_per_w"),
    ("noise", "pump_prefiltered"),
}
UNWIRED_REASON = (
    "no engine or oracle consumer until ROADMAP item 6 wires the noise component"
)


def with_value(text, section, key, value):
    """``text`` with the first ``key`` line of ``[section]`` set to ``value``."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]") + 1
    for index in range(start, len(lines)):
        if key is None or lines[index].startswith(f"{key} = "):
            lines[index] = f"{lines[index].split(' = ')[0]} = {value}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no line for [{section}] {key}")


def outputs(text, work):
    """Each command's (exit code, CSV bodies, masked stdout, warnings) on ``text``, run in ``work``."""
    path = work / "walk.scenario"
    path.write_text(text)
    result = {}
    for command in cli.COMMANDS:
        out = work / command
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--scenario", str(path), "--out", str(out)])
        stdout = re.sub(r"wrote \S+", "wrote <path>", stdout.getvalue())
        csvs = {
            csv.name.split("-", 1)[1]: [
                line for line in csv.read_text().splitlines() if not line.startswith("#")
            ]
            for csv in sorted(out.glob("*.csv"))
        }
        result[command] = (code, csvs, stdout, [str(w.message) for w in caught])
    return result


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    return outputs(BASE, tmp_path_factory.mktemp("base"))


def row_id(row):
    return f"{row.section}.{row.key or 'first-stage'}"


def test_alternatives_cover_exactly_the_table():
    assert set(ALTERNATIVES) == {(row.section, row.key) for row in _KEYS}
    assert UNWIRED <= set(ALTERNATIVES)


def test_base_runs_every_command(base_outputs):
    # Each command exits 0, writes a CSV and warns nothing, except validate,
    # which refuses the dead time before it scans: exit 3 and no CSV.
    for command, (code, csvs, _, caught) in base_outputs.items():
        expected = (3, 0, []) if command == "validate" else (0, 1, [])
        assert (code, len(csvs), caught) == expected, command


@pytest.mark.parametrize("row", _KEYS, ids=row_id)
def test_every_key_acts(row, base_outputs, tmp_path):
    value = ALTERNATIVES[row.section, row.key]
    changed = with_value(BASE, row.section, row.key, value)
    assert changed != BASE
    parse_scenario(changed, origin="walk.scenario")
    walked = outputs(changed, tmp_path)
    differs = [command for command in cli.COMMANDS if walked[command] != base_outputs[command]]
    if (row.section, row.key) in UNWIRED:
        assert differs == [], (
            f"[{row.section}] {row.key} is exempt ({UNWIRED_REASON}) but now changes "
            f"{differs}: take it out of UNWIRED"
        )
    else:
        assert differs, f"[{row.section}] {row.key} = {value} changed no output"


# The keys whose inf means something, so it parses; each with that meaning.
KEPT_INFINITIES = {
    ("pump", "coherence_time_ns"): "the ideal monochromatic pump, and the dataclass default",
    ("noise", "pump_extinction_db"): "filtering that no pump photon survives, as in the reference",
    ("acquisition", "sca_width_ns"): "a window that counts every event",
}
NUMERIC_ROWS = [row for row in _KEYS if row.kind in (_FLOAT, _INT, _FRACTION_OR_BUDGET)]


def domain(row):
    """The domain of the field that ``row`` sets, from its owning class's table."""
    component, _, name = row.path.rpartition(".")
    owner = _COMPONENTS[component] if component else Scenario
    if owner is RepeaterSettings:  # held to the link model's own rule
        owner = LinkConfig
    return next(Domain(*entry[1:]) for entry in owner._DOMAINS if entry[0] == name)


def refused(row):
    """nan, inf, -inf and the values just past the bounds of ``row``'s domain, as text."""
    lo, hi, *_ = domain(row)
    if row.kind is _INT:
        past = [int(lo) - 1, int(hi) + 1]
    else:
        past = [math.nextafter(lo, -math.inf)]
        if hi < math.inf:
            past.append(math.nextafter(hi, math.inf))
    values = {math.nan, -math.inf, *past}
    if (row.section, row.key) not in KEPT_INFINITIES:
        values.add(math.inf)
    return sorted({repr(value) for value in values})


def test_kept_infinities_are_the_unbounded_domains():
    unbounded = [row for row in NUMERIC_ROWS if domain(row).hi == math.inf]
    assert {(row.section, row.key) for row in unbounded} == set(KEPT_INFINITIES)
    for row in unbounded:
        scenario = parse_scenario(with_value(BASE, row.section, row.key, "inf"))
        assert scenario == parse_scenario(serialize_scenario(scenario))
        assert math.isinf(attrgetter(row.path)(scenario))


@pytest.mark.parametrize("row", NUMERIC_ROWS, ids=row_id)
def test_every_numeric_key_refuses_values_outside_its_domain(row, tmp_path, capsys):
    path = tmp_path / "walk.scenario"
    for value in refused(row):
        path.write_text(with_value(BASE, row.section, row.key, value))
        code = cli.main(["fringe-scan", "--scenario", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, f"[{row.section}] {row.key} = {value}: exit {code}, {err}"
        assert f"[{row.section}] {row.key} " in err, err
        assert list(tmp_path.glob("*.csv")) == [], value
