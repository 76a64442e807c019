"""The package surface: lazy submodules, and public functions refuse NaN."""

import math

import numpy as np
import pytest

import qifsim
from qifsim import conversion, detection, qpm, repeater
from qifsim.errors import DomainError
from qifsim.scenario import DetectorModel

NAN, INF = math.nan, math.inf
PHASES = [2.0 * math.pi * k / 11 for k in range(12)]
FRINGE = [(phase, 100.0 + 50.0 * math.cos(phase)) for phase in PHASES]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qifsim import *", namespace)
    for name in qifsim.__all__:
        assert namespace[name] is getattr(qifsim, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'melt'"):
        qifsim.melt


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: repeater.fiber_transmission(NAN, 0.2), id="fiber_transmission-length-nan"),
        pytest.param(lambda: repeater.fiber_transmission(INF, 0.2), id="fiber_transmission-length-inf"),
        pytest.param(lambda: repeater.fiber_transmission(10.0, NAN), id="fiber_transmission-attenuation"),
        pytest.param(lambda: repeater.break_even_distance(0.1, NAN, 0.2), id="break_even-native"),
        pytest.param(lambda: repeater.break_even_distance(0.1, 2.0, NAN), id="break_even-telecom"),
        pytest.param(lambda: conversion.internal_conversion_efficiency(NAN, 0.13, 1.0), id="internal-power"),
        pytest.param(lambda: conversion.internal_conversion_efficiency(0.65, NAN, 1.0), id="internal-eta"),
        pytest.param(lambda: conversion.internal_conversion_efficiency(0.65, 0.13, NAN), id="internal-length"),
        pytest.param(
            lambda: conversion.normalized_efficiency_from_measurement(1e-3, NAN, 1.0), id="normalized-power"
        ),
        pytest.param(
            lambda: conversion.normalized_efficiency_from_measurement(1e-3, 0.65, NAN), id="normalized-length"
        ),
        pytest.param(
            lambda: conversion.noise_rate(conversion.PumpField(0.65, 1.552), NAN, conversion.NoiseModel()),
            id="noise_rate-output",
        ),
        pytest.param(lambda: qpm.dfg_output_wavelength(NAN, 1.552), id="dfg-signal"),
        pytest.param(lambda: qpm.dfg_output_wavelength(0.71, NAN), id="dfg-pump"),
        pytest.param(lambda: qpm.qpm_acceptance(0.1, NAN), id="acceptance-length"),
        pytest.param(lambda: qpm.qpm_acceptance(NAN, 1.0), id="acceptance-mismatch-nan"),
        pytest.param(lambda: qpm.qpm_acceptance(INF, 1.0), id="acceptance-mismatch-inf"),
        pytest.param(lambda: detection.dead_time_observe(NAN, 0.1), id="observe-rate"),
        pytest.param(lambda: detection.dead_time_observe(1e5, NAN), id="observe-dead-time"),
        pytest.param(lambda: detection.dead_time_correct(NAN, 0.1), id="correct-rate"),
        pytest.param(lambda: detection.dead_time_correct(1e5, NAN), id="correct-dead-time"),
        pytest.param(lambda: detection.TacHistogram(NAN, np.zeros(4), 0), id="histogram-width-nan"),
        pytest.param(lambda: detection.TacHistogram(INF, np.zeros(4), 0), id="histogram-width-inf"),
        pytest.param(
            lambda: detection.simulate_detection(
                np.zeros(3), DetectorModel(0.5), NAN, np.random.default_rng(0)
            ),
            id="simulate_detection-duration",
        ),
        pytest.param(lambda: detection.extract_visibility(FRINGE, background=NAN), id="visibility-background"),
    ],
)
def test_public_functions_refuse_nan_and_out_of_domain_infinities(call):
    with pytest.raises(DomainError):
        call()
