"""Property test of the scenario format: serialize then parse is the identity.

Scenarios are made from the bundled reference by ``dataclasses.replace``
with generated valid values in every section, including an explicit
interface efficiency and loss chains of fraction and dB stages.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qifsim.conversion import LossChain, LossStage
from qifsim.errors import DomainError
from qifsim.scenario import load_reference_scenario, parse_scenario, serialize_scenario

REF = load_reference_scenario()

fractions = st.floats(0.0, 1.0)
nonnegative = st.floats(0.0, 1e12)
positive = st.floats(1e-6, 1e6)
signed = st.floats(-1e6, 1e6)

stages = st.one_of(
    st.tuples(fractions, st.just("fraction")),
    st.tuples(st.floats(-80.0, 0.0), st.just("dB")),
)
chains = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True), stages, max_size=5
).map(lambda named: LossChain(tuple(LossStage(n, v, u) for n, (v, u) in named.items())))


@st.composite
def scenarios(draw):
    """The reference with generated valid values in every section."""
    delta_tau = draw(positive)

    def interferometer(base, **settable):
        return replace(
            base,
            delta_tau_ns=delta_tau,
            transmission=draw(fractions),
            splitting_ratio=draw(st.floats(0.01, 0.99)),
            **settable,
        )

    dead_time_us = draw(st.one_of(st.just(0.0), positive))

    def grid(starts, min_points):
        start = draw(starts)
        return start, start + draw(st.floats(0.0, 1e3)), draw(st.integers(min_points, 500))

    return replace(
        REF,
        source=replace(
            REF.source,
            repetition_rate_mhz=draw(positive),
            pulse_fwhm_ns=draw(nonnegative),
            pulse_shape=draw(st.sampled_from(["gaussian", "square"])),
            mean_photon_number=draw(nonnegative),
            coherence_time_ns=draw(nonnegative),
            cw_background_fraction=draw(fractions),
        ),
        preparation=interferometer(
            REF.preparation, phase_rad=draw(signed), normalize_forward=draw(st.booleans())
        ),
        # The analysis phase and normalization are fixed, not scenario keys.
        analysis=interferometer(REF.analysis),
        qpm=replace(
            REF.qpm,
            poling_period_um=draw(positive),
            crystal_length_cm=draw(positive),
            temperature_k=draw(st.floats(293.0, 473.0)),
            order=draw(st.sampled_from([1, 3, 5])),
        ),
        signal_wavelength_um=draw(positive),
        pump=replace(
            REF.pump,
            power_w=draw(nonnegative),
            wavelength_um=draw(positive),
            coherence_time_ns=draw(st.one_of(st.just(math.inf), positive)),
        ),
        power_grid_w=grid(st.floats(0.0, 1e3), 1),
        eta_norm_per_w_cm2=draw(nonnegative),
        unit_conversion_survival=draw(st.booleans()),
        extra_visibility_penalty=draw(fractions),
        chain_pre=draw(chains),
        chain_post=draw(chains),
        noise=replace(
            REF.noise,
            spdc_coeff_hz_per_w=draw(nonnegative),
            raman_coeff_hz_per_w=draw(nonnegative),
            pump_extinction_db=draw(st.one_of(st.just(math.inf), nonnegative)),
            target_band_coeff_hz_per_w=draw(nonnegative),
            pump_prefiltered=draw(st.booleans()),
        ),
        detector=replace(
            REF.detector,
            quantum_efficiency=draw(fractions),
            dark_count_rate_hz=draw(nonnegative),
            dead_time_us=dead_time_us,
            jitter_fwhm_ps=draw(nonnegative),
            afterpulse_probability=draw(fractions) if dead_time_us > 0 else 0.0,
        ),
        sca=replace(REF.sca, center_ns=draw(signed), width_ns=draw(positive)),
        histogram_bin_width_ps=draw(positive),
        tac_offset_ns=draw(signed),
        pulses_per_point=draw(st.integers(0, 10**12)),
        mc_photons_per_point=draw(st.integers(0, 10**9)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        phase_grid_rad=grid(signed, 2),
        repeater=replace(
            REF.repeater,
            attenuation_native_db_per_km=draw(nonnegative),
            attenuation_telecom_db_per_km=draw(nonnegative),
            system_efficiency=draw(fractions),
            interface_efficiency=draw(st.one_of(st.none(), fractions)),
            protocol=draw(st.sampled_from(["single-photon", "two-photon"])),
            attempt_rate_hz=draw(positive),
            length_grid_km=grid(st.floats(0.0, 1e3), 1),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_parse_of_serialize_is_the_identity(s):
    text = serialize_scenario(s)
    again = parse_scenario(text, origin="generated")
    assert again == s
    assert serialize_scenario(again) == text


# Each integer field of a scenario, and how to set it.
INTEGER_FIELDS = {
    "pulses_per_point": lambda s, v: replace(s, pulses_per_point=v),
    "mc_photons_per_point": lambda s, v: replace(s, mc_photons_per_point=v),
    "master_seed": lambda s, v: replace(s, master_seed=v),
    "qpm.order": lambda s, v: replace(s, qpm=replace(s.qpm, order=v)),
    "repeater.length_grid_km": lambda s, v: replace(
        s, repeater=replace(s.repeater, length_grid_km=(*s.repeater.length_grid_km[:2], v))
    ),
    "phase_grid_rad": lambda s, v: replace(s, phase_grid_rad=(*s.phase_grid_rad[:2], v)),
    "power_grid_w": lambda s, v: replace(s, power_grid_w=(*s.power_grid_w[:2], v)),
}


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.sampled_from(sorted(INTEGER_FIELDS)), st.floats(1.0, 1e6))
def test_integer_field_refuses_a_float_so_no_scenario_serializes_unparsable(s, field, value):
    # A float, even 3.0, would serialize as text that parses as "expected an integer".
    with pytest.raises(DomainError, match="integer"):
        INTEGER_FIELDS[field](s, value)
