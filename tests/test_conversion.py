"""Conversion law, loss chains, pump coherence, and noise channels."""

import math
import random

import numpy as np
import pytest

from qifsim import conversion, montecarlo
from qifsim.conversion import (
    LossChain,
    LossStage,
    NoiseModel,
    PumpField,
    end_to_end_efficiency,
    internal_conversion_efficiency,
    noise_rate,
    normalized_efficiency_from_measurement,
    run_efficiency_sweep,
)
from qifsim.errors import DomainError
from qifsim.scenario import load_reference_scenario

ETA_NORM = 0.13  # 1/(W cm^2)
PUMP_POWER_W = 0.65
LENGTH_CM = 1.0

# Frozen budget values for the device stage list.
ETA_INT_FROZEN = 0.0821465710271768
ETA_QI_FROZEN = 0.0013291635371188786


def device_pre_chain() -> LossChain:
    return LossChain((LossStage("in_coupling", 0.45),))


def device_post_chain() -> LossChain:
    return LossChain(
        (
            LossStage("propagation", -0.3, "dB"),
            LossStage("exit_fresnel", 0.86),
            LossStage("grating", 0.70),
            LossStage("filter_1310_a", 0.80),
            LossStage("filter_1310_b", 0.80),
            LossStage("fiber_coupling", 0.10),
        )
    )


def test_internal_efficiency_frozen():
    eta = internal_conversion_efficiency(PUMP_POWER_W, ETA_NORM, LENGTH_CM)
    assert eta == pytest.approx(ETA_INT_FROZEN, rel=1e-14)


def test_internal_efficiency_limits():
    assert internal_conversion_efficiency(0.0, ETA_NORM, LENGTH_CM) == 0.0
    # Full conversion where sqrt(eta P) L = pi/2, then back down.
    p_full = (math.pi / 2.0) ** 2 / ETA_NORM
    assert internal_conversion_efficiency(p_full, ETA_NORM, LENGTH_CM) == pytest.approx(1.0)
    assert internal_conversion_efficiency(1.5 * p_full, ETA_NORM, LENGTH_CM) < 1.0


def test_internal_efficiency_monotonic_below_peak():
    p_full = (math.pi / 2.0) ** 2 / ETA_NORM
    powers = np.linspace(0.0, p_full, 50)
    etas = [internal_conversion_efficiency(float(p), ETA_NORM, LENGTH_CM) for p in powers]
    assert all(a < b for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize(
    "power,eta,length",
    [(-0.1, 0.13, 1.0), (0.65, -0.13, 1.0), (0.65, 0.13, 0.0)],
)
def test_internal_efficiency_rejects(power, eta, length):
    with pytest.raises(DomainError):
        internal_conversion_efficiency(power, eta, length)


def test_inversion_recovers_normalized_efficiency():
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        eta_norm = rng.uniform(0.01, 0.5)
        length = rng.uniform(0.2, 4.0)
        # Stay below the first conversion maximum, where inversion is unique.
        p_max = (math.pi / 2.0) ** 2 / (eta_norm * length**2)
        power = rng.uniform(0.01, 0.99) * p_max
        eta_int = internal_conversion_efficiency(power, eta_norm, length)
        back = normalized_efficiency_from_measurement(eta_int, power, length)
        assert abs(back - eta_norm) <= 1e-12 * eta_norm


def test_inversion_rejects_degenerate_inputs():
    with pytest.raises(DomainError):
        normalized_efficiency_from_measurement(1.0, PUMP_POWER_W, LENGTH_CM)
    with pytest.raises(DomainError):
        normalized_efficiency_from_measurement(0.5, 0.0, LENGTH_CM)
    with pytest.raises(DomainError):
        normalized_efficiency_from_measurement(-0.1, PUMP_POWER_W, LENGTH_CM)


def test_loss_stage_units():
    assert LossStage("x", 0.5).transmission() == 0.5
    assert LossStage("x", -3.0, "dB").transmission() == pytest.approx(0.5011872336272722, rel=1e-14)
    assert LossStage("x", 0.0, "dB").transmission() == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="", value=0.5),
        dict(name="x", value=1.2),
        dict(name="x", value=-0.1),
        dict(name="x", value=0.3, unit="dB"),
        dict(name="x", value=0.5, unit="percent"),
    ],
)
def test_loss_stage_rejects(kwargs):
    with pytest.raises(DomainError):
        LossStage(**kwargs)


@pytest.mark.parametrize("unit", ["fraction", "dB"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_loss_stage_rejects_non_finite_values(unit, bad):
    # -inf dB is refused too: "0.0 fraction" says the same.
    with pytest.raises(DomainError, match=rf"^x must be .*, got {bad} {unit}$"):
        LossStage("x", bad, unit)


def test_chain_composition():
    assert LossChain().transmission() == 1.0
    chain = device_post_chain()
    expected = 10 ** (-0.03) * 0.86 * 0.70 * 0.80 * 0.80 * 0.10
    assert chain.transmission() == pytest.approx(expected, rel=1e-14)


def test_chain_rejects_duplicate_names():
    with pytest.raises(DomainError, match="duplicate"):
        LossChain((LossStage("a", 0.5), LossStage("a", 0.4)))


def test_end_to_end_budget_frozen():
    eta = end_to_end_efficiency(device_pre_chain(), ETA_INT_FROZEN, device_post_chain())
    assert eta == pytest.approx(ETA_QI_FROZEN, rel=1e-13)
    assert 0.0011 <= eta <= 0.0015


def test_end_to_end_rejects_bad_internal():
    with pytest.raises(DomainError):
        end_to_end_efficiency(device_pre_chain(), 1.2, device_post_chain())


def test_pump_field_photon_flux():
    pump = PumpField(PUMP_POWER_W, 1.552)
    assert pump.photon_flux_hz() == pytest.approx(5.078416793337086e18, rel=1e-14)
    assert PumpField(0.0, 1.552).photon_flux_hz() == 0.0


def test_pump_field_validation():
    with pytest.raises(DomainError):
        PumpField(-1.0, 1.552)
    with pytest.raises(DomainError):
        PumpField(0.65, 0.0)
    with pytest.raises(DomainError):
        PumpField(0.65, 1.552, coherence_time_ns=0.0)


def test_noise_closed_when_pump_red_of_output():
    pump = PumpField(PUMP_POWER_W, 1.552)
    noise = NoiseModel(spdc_coeff_hz_per_w=1e4)
    # Down-conversion from the pump cannot reach a band bluer than the pump.
    assert noise_rate(pump, 1.310, noise) == 0.0


def test_noise_opens_when_wavelengths_swapped():
    pump = PumpField(PUMP_POWER_W, 1.310)
    noise = NoiseModel(spdc_coeff_hz_per_w=1e4)
    rate = noise_rate(pump, 1.552, noise)
    assert rate == pytest.approx(1e4 * PUMP_POWER_W, rel=1e-14)
    assert rate > 0.0


def test_noise_channel_sums():
    pump = PumpField(PUMP_POWER_W, 1.552)
    noise = NoiseModel(raman_coeff_hz_per_w=200.0)
    assert noise_rate(pump, 1.310, noise) == pytest.approx(130.0, rel=1e-14)
    pedestal = NoiseModel(target_band_coeff_hz_per_w=40.0, pump_prefiltered=False)
    assert noise_rate(pump, 1.310, pedestal) == pytest.approx(26.0, rel=1e-14)
    filtered = NoiseModel(target_band_coeff_hz_per_w=40.0, pump_prefiltered=True)
    assert noise_rate(pump, 1.310, filtered) == 0.0


def test_pump_leakage_floor():
    pump = PumpField(PUMP_POWER_W, 1.552)
    # 190 dB of stacked filters leaves a sub-hertz residue of the pump flux.
    leak = noise_rate(pump, 1.310, NoiseModel(pump_extinction_db=190.0))
    assert leak == pytest.approx(0.5078416793337086, rel=1e-12)
    assert noise_rate(pump, 1.310, NoiseModel(pump_extinction_db=math.inf)) == 0.0


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel(spdc_coeff_hz_per_w=-1.0)
    with pytest.raises(DomainError):
        NoiseModel(pump_extinction_db=-3.0)
    with pytest.raises(DomainError):
        noise_rate(PumpField(0.65, 1.552), 0.0, NoiseModel())


# --- binomial sampler and efficiency sweep ---


def chi2_against_pmf(draws, n, p):
    """(chi-square, degrees of freedom) of the draws against the exact pmf.

    Neighbouring values are pooled into cells until each expects at least
    5 draws; a short last cell joins the one before it.
    """
    size = len(draws)
    observed = [0] * (n + 1)
    for k in draws:
        observed[k] += 1
    log_norm = math.lgamma(n + 1) + n * math.log1p(-p)
    log_odds = math.log(p) - math.log1p(-p)
    cells = []  # (observed, expected)
    obs = exp = 0.0
    for k in range(n + 1):
        log_pmf = log_norm - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_odds
        obs += observed[k]
        exp += size * math.exp(log_pmf)
        if exp >= 5.0:
            cells.append((obs, exp))
            obs = exp = 0.0
    last_obs, last_exp = cells.pop()
    cells.append((last_obs + obs, last_exp + exp))
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    return chi2, len(cells) - 1


def chi2_critical(dof, z=3.0902):
    """Upper 0.1 % point of chi-square (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize(
    "n, p, branch",
    [
        (1000, 0.3, "btrs"),
        (1000, 0.004, "geometric"),
        (50, 0.7, "btrs"),  # p > 1/2: the failures, 50 x 0.3
        (30, 0.9, "geometric"),  # p > 1/2: the failures, 30 x 0.1
        (1000, 0.0101, "btrs"),  # n p just above 10
        (1000, 0.0099, "geometric"),  # n p just below 10
    ],
)
def test_binomial_matches_exact_pmf(n, p, branch, monkeypatch):
    calls = []

    def spy(name):
        sampler = getattr(conversion, f"_binomial_{name}")

        def counted(*args):
            calls.append(name)
            return sampler(*args)

        monkeypatch.setattr(conversion, f"_binomial_{name}", counted)

    spy("btrs")
    spy("geometric")
    rng = random.Random(20261018)
    draws = [conversion._binomial(n, p, rng) for _ in range(20000)]
    assert set(calls) == {branch}
    chi2, dof = chi2_against_pmf(draws, n, p)
    assert chi2 < chi2_critical(dof), (chi2, dof)


def test_binomial_edges_draw_nothing():
    rng = random.Random(1)
    state = rng.getstate()
    assert conversion._binomial(0, 0.3, rng) == 0
    assert conversion._binomial(0, 0.8, rng) == 0
    assert conversion._binomial(1000, 0.0, rng) == 0
    assert conversion._binomial(1000, 1.0, rng) == 1000
    assert rng.getstate() == state
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError, match="binomial probability"):
            conversion._binomial(10, bad, rng)


def test_stream_keys_are_separate():
    def draws(*key):
        rng = conversion._stream(*key)
        return [rng.random() for _ in range(4)]

    base = draws(42, "efficiency-sweep", 0.3)
    assert draws(42, "efficiency-sweep", 0.3) == base
    assert draws(43, "efficiency-sweep", 0.3) != base
    assert draws(42, "fringe-scan", 0.3) != base
    assert draws(42, "efficiency-sweep", 0.30000000000000004) != base
    assert draws(42, "efficiency-sweep", 0.0) != draws(42, "efficiency-sweep", -0.0)


@pytest.fixture(scope="module")
def ref():
    return load_reference_scenario()


def test_efficiency_sweep_takes_lists_and_arrays(ref):
    powers = [0.0, 0.05, 0.3, 0.65]
    swept = run_efficiency_sweep(ref, powers)
    from_array = run_efficiency_sweep(ref, np.array(powers))
    assert from_array == swept
    assert all(type(p.power_w) is float for p in from_array)
    assert run_efficiency_sweep(ref, tuple(powers)) == swept


def test_efficiency_sweep_is_reexported_by_montecarlo():
    assert montecarlo.run_efficiency_sweep is run_efficiency_sweep


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_efficiency_sweep_rejects_non_finite_power_before_drawing(ref, bad, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(conversion, "_stream", no_draws)
    with pytest.raises(DomainError, match=f"pump power must be finite, got {bad} W"):
        run_efficiency_sweep(ref, [0.1, bad])


@pytest.mark.parametrize(
    "grid",
    [np.array([[0.1, 0.2]]), np.array([[0.1], [0.2]]), [[0.1, 0.2]], [0.1, [0.2]], 0.1, ["x"]],
    ids=["row", "column", "nested", "ragged", "scalar", "text"],
)
def test_efficiency_sweep_rejects_a_grid_that_is_not_flat_before_drawing(ref, grid, monkeypatch):
    # A 2-D array once raised a bare TypeError.
    def no_draws(*args):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(conversion, "_stream", no_draws)
    with pytest.raises(DomainError, match="pump powers must be a flat grid of numbers"):
        run_efficiency_sweep(ref, grid)
