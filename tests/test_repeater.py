"""Elementary-link rate model and the conversion break-even point."""

import math

import numpy as np
import pytest

from qifsim.errors import DomainError
from qifsim.repeater import (
    LinkConfig,
    break_even_distance,
    fiber_transmission,
    link_rate_hz,
    link_success_probability,
    rate_penalty,
)


def test_fiber_transmission_frozen():
    assert fiber_transmission(15.0, 0.2) == pytest.approx(0.5011872336272722, rel=1e-14)
    assert fiber_transmission(1.0, 4.0) == pytest.approx(0.3981071705534972, rel=1e-14)
    assert fiber_transmission(0.0, 0.2) == 1.0
    assert fiber_transmission(10.0, 0.0) == 1.0


def test_half_power_length_in_telecom_band():
    # 3 dB point of standard telecom fiber sits at ~15 km.
    length = 10.0 * math.log10(2.0) / 0.2
    assert length == pytest.approx(15.05149978319906, rel=1e-12)
    assert fiber_transmission(length, 0.2) == pytest.approx(0.5, rel=1e-12)


def test_fiber_transmission_monotone():
    lengths = np.linspace(0.0, 100.0, 20)
    vals = [fiber_transmission(float(length), 0.35) for length in lengths]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        fiber_transmission(-1.0, 0.2)
    with pytest.raises(DomainError):
        fiber_transmission(1.0, -0.2)


def test_rate_penalty_by_protocol():
    assert rate_penalty(0.5, "single-photon") == 0.5
    assert rate_penalty(0.5, "two-photon") == 0.25
    assert rate_penalty(1.0, "two-photon") == 1.0
    with pytest.raises(DomainError):
        rate_penalty(1.5, "single-photon")
    with pytest.raises(DomainError):
        rate_penalty(0.5, "three-photon")


def example_link(**overrides) -> LinkConfig:
    kwargs = dict(
        length_km=50.0,
        attenuation_native_db_per_km=4.0,
        attenuation_telecom_db_per_km=0.2,
        interface_efficiency=0.5,
        protocol="single-photon",
    )
    kwargs.update(overrides)
    return LinkConfig(**kwargs)


def test_link_probabilities_frozen():
    cfg = example_link()
    p_with = link_success_probability(cfg, with_interface=True)
    p_without = link_success_probability(cfg, with_interface=False)
    assert p_with == pytest.approx(0.26622776601683795, rel=1e-12)
    assert p_without == pytest.approx(1.9999999998e-10, rel=1e-12)
    assert p_with / p_without == pytest.approx(1331138830.2173038, rel=1e-12)


def test_link_rate_scales_with_attempts():
    cfg = example_link(attempt_rate_hz=1e6)
    assert link_rate_hz(cfg, True) == pytest.approx(
        1e6 * link_success_probability(cfg, True), rel=1e-14
    )


def test_two_photon_is_square_of_per_photon():
    cfg = example_link(protocol="two-photon")
    p_photon = 0.5 * fiber_transmission(25.0, 0.2)
    assert link_success_probability(cfg, True) == pytest.approx(p_photon**2, rel=1e-12)


def test_interface_off_ignores_conversion_efficiency():
    a = example_link(interface_efficiency=0.5)
    b = example_link(interface_efficiency=0.001)
    assert link_success_probability(a, False) == link_success_probability(b, False)


def test_single_photon_monotone_in_loss_dominated_regime():
    # Exactly-one heralding peaks at p = 1/2; below it, more loss means
    # fewer heralds, which is the regime every long link lives in.
    cfg = example_link(system_efficiency=0.45, interface_efficiency=1.0)
    rates = [
        link_success_probability(
            example_link(
                length_km=float(length), system_efficiency=0.45, interface_efficiency=1.0
            ),
            True,
        )
        for length in np.linspace(1.0, 100.0, 25)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert link_success_probability(cfg, True) < 0.5


def test_single_photon_heralding_vanishes_at_unit_probability():
    # 2p(1-p) = 0 at p = 1: both photons always arrive, so "exactly one
    # detection" never happens. A property of the protocol class.
    cfg = example_link(length_km=0.0, interface_efficiency=1.0)
    assert link_success_probability(cfg, True) == 0.0
    two = example_link(length_km=0.0, interface_efficiency=1.0, protocol="two-photon")
    assert link_success_probability(two, True) == 1.0


def test_break_even_distance_frozen():
    assert break_even_distance(0.5, 4.0, 0.2) == pytest.approx(1.58436839823148, rel=1e-12)
    assert break_even_distance(1.0, 4.0, 0.2) == 0.0


def test_break_even_balances_per_photon_odds():
    eta = 0.0013291635371188786
    length = break_even_distance(eta, 4.0, 0.2)
    with_conv = eta * fiber_transmission(length / 2.0, 0.2)
    without = fiber_transmission(length / 2.0, 4.0)
    assert with_conv == pytest.approx(without, rel=1e-10)


def test_break_even_requires_attenuation_advantage():
    with pytest.raises(DomainError, match="exceed"):
        break_even_distance(0.5, 0.2, 0.2)
    with pytest.raises(DomainError):
        break_even_distance(0.0, 4.0, 0.2)
    with pytest.raises(DomainError):
        break_even_distance(1.5, 4.0, 0.2)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(length_km=-1.0),
        dict(interface_efficiency=1.5),
        dict(system_efficiency=-0.1),
        dict(protocol="entangled"),
        dict(attempt_rate_hz=-1.0),
        dict(attenuation_native_db_per_km=-0.2),
    ],
)
def test_link_config_validation(overrides):
    with pytest.raises(DomainError):
        example_link(**overrides)
