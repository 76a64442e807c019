"""Acceptance gate: one numbered check per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
`criterion NN PASS/FAIL: ...` line per check alongside the pytest verdicts.
Full-scale Monte Carlo criteria run at their stated statistics; the whole
module stays within a few tens of seconds on one core.
"""

import cmath
import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from qifsim import conversion, montecarlo, qpm, repeater
from qifsim.detection import dead_time_correct, dead_time_observe, extract_visibility, peak_fwhm
from qifsim.timebin import Interferometer, analyze, apply_conversion_phase, prepare_qubit
from qifsim.scenario import ScaWindow, load_reference_scenario

PHASES_12 = np.linspace(0.0, 2.0 * math.pi, 12)


def report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def ref():
    return load_reference_scenario()


def test_criterion_01_energy_conservation(ref):
    output = qpm.dfg_output_wavelength(0.710, 1.552)
    offset_nm = abs(output - 1.3087) * 1e3
    period = qpm.solve_poling_period(
        ref.signal_wavelength_um, ref.pump.wavelength_um, ref.qpm.temperature_k
    )
    passed = offset_nm <= 2.0 and 10.0 <= period <= 25.0
    report(
        1,
        passed,
        f"output wavelength {output:.6f} um ({offset_nm:.4f} nm from 1.3087 um); "
        f"bulk period {period:.4f} um inside [10, 25] um",
    )


def test_criterion_02_efficiency_budget(ref):
    eta = ref.eta_qi()
    passed = 0.0011 <= eta <= 0.0015
    report(2, passed, f"eta_QI = {eta * 100:.4f} % inside [0.11 %, 0.15 %]")


def test_criterion_03_inversion_property():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(100):
        eta_norm = rng.uniform(0.01, 0.5)
        power = rng.uniform(0.01, 0.9)
        length = rng.uniform(0.2, 2.0)
        eta_int = conversion.internal_conversion_efficiency(power, eta_norm, length)
        recovered = conversion.normalized_efficiency_from_measurement(
            eta_int, power, length
        )
        worst = max(worst, abs(recovered - eta_norm) / eta_norm)
    passed = worst <= 1e-12
    report(3, passed, f"100 random round trips, worst relative error {worst:.3e}")


def test_criterion_04_dead_time():
    corrected = dead_time_correct(6000.0, 30.0)
    exact = round(corrected, 2) == 7317.07
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        rate = rng.uniform(1.0, 30_000.0)
        tau = rng.uniform(0.1, 33.0)
        back = dead_time_correct(dead_time_observe(rate, tau), tau)
        worst = max(worst, abs(back - rate) / rate)
    passed = exact and worst <= 1e-10
    report(
        4,
        passed,
        f"(6 kHz, 30 us) -> {corrected:.2f} Hz; roundtrip worst relative "
        f"error {worst:.3e}",
    )


def test_criterion_05_peak_width(ref):
    # Physical dark-count level; the visibility calibration's raised floor
    # would otherwise bias the width estimate.
    s = dataclasses.replace(
        ref, detector=dataclasses.replace(ref.detector, dark_count_rate_hz=1600.0)
    )
    run = montecarlo.run_fringe_scan(s, PHASES_12)
    width = peak_fwhm(run.histogram, peak_seed_ns=s.sca.center_ns)
    events = run.histogram.total_counts()
    expected = math.hypot(1.0, 0.8)
    passed = abs(width - expected) <= 0.1 * expected and events >= 100_000
    report(
        5,
        passed,
        f"central peak FWHM {width:.4f} ns vs {expected:.4f} ns (+-10 %), "
        f"{events} detected events",
    )


def test_criterion_06_fringe_visibility(ref):
    run = montecarlo.run_fringe_scan(ref, PHASES_12)
    fit = extract_visibility(run.fringe_points(), background=run.mean_background())
    passed = abs(fit.v_raw - 0.84) <= 0.02 and abs(fit.v_net - 0.96) <= 0.01
    report(
        6,
        passed,
        f"V_raw = {fit.v_raw:.4f} (target 0.84 +- 0.02), "
        f"V_net = {fit.v_net:.4f} (target 0.96 +- 0.01)",
    )


def matrix_oracle(qubit, ifo):
    """Slot probabilities from the explicit 2x2 splitter matrix."""
    s = ifo.splitting_ratio
    m = np.array(
        [
            [math.sqrt(s), 1j * math.sqrt(1.0 - s)],
            [1j * math.sqrt(1.0 - s), math.sqrt(s)],
        ]
    )
    arm = m[:, 0]  # [short, long] amplitudes after the first pass
    phase = cmath.exp(1j * ifo.phase_rad)
    root_eta = math.sqrt(ifo.transmission)
    paths = []
    for bin_idx, a_in in ((0, qubit.early), (1, qubit.late)):
        for port, row in (("back", 0), ("fwd", 1)):
            paths.append((port, bin_idx, a_in * m[row, 0] * arm[0] * root_eta))
            paths.append((port, bin_idx + 1, a_in * m[row, 1] * arm[1] * phase * root_eta))
    c = qubit.coherence
    probs = {}
    for port in ("fwd", "back"):
        for slot in (0, 1, 2):
            amps = [a for p, sl, a in paths if p == port and sl == slot]
            probs[(port, slot)] = c * abs(sum(amps)) ** 2 + (1.0 - c) * sum(
                abs(a) ** 2 for a in amps
            )
    return probs


def test_criterion_07_slot_algebra():
    dt = 2.2
    aligned = analyze(
        prepare_qubit(Interferometer(dt, 0.3)), Interferometer(dt, 0.3)
    )
    opposed = analyze(
        prepare_qubit(Interferometer(dt, 0.3)), Interferometer(dt, 0.3 + math.pi)
    )
    slots_ok = (
        abs(aligned.slots[1][1] - 0.25) < 1e-12
        and abs(opposed.slots[1][1]) < 1e-12
        and all(
            abs(r.slots[0][1] - 1.0 / 16.0) < 1e-12
            and abs(r.slots[2][1] - 1.0 / 16.0) < 1e-12
            for r in (aligned, opposed)
        )
    )
    worst = 0.0
    for s_prep in (0.3, 0.5, 0.7):
        for s_ana in (0.41, 0.5):
            for eta in (1.0, 0.8):
                for alpha, beta in ((0.0, 0.0), (1.1, 0.7), (0.0, math.pi)):
                    for c in (1.0, 0.6):
                        qubit = apply_conversion_phase(
                            prepare_qubit(Interferometer(dt, alpha, 1.0, s_prep)), c
                        )
                        result = analyze(qubit, Interferometer(dt, beta, eta, s_ana))
                        oracle = matrix_oracle(qubit, Interferometer(dt, beta, eta, s_ana))
                        for i, (_, p) in enumerate(result.slots):
                            worst = max(worst, abs(p - oracle[("fwd", i)]))
                        for i, (_, p) in enumerate(result.back_slots):
                            worst = max(worst, abs(p - oracle[("back", i)]))
    passed = slots_ok and worst <= 1e-12
    report(
        7,
        passed,
        f"central slot 1/4 aligned, 0 opposed, sides 1/16; worst oracle "
        f"deviation {worst:.3e}",
    )


def test_criterion_08_pump_coherence_emergence(ref):
    dt = ref.preparation.delta_tau_ns
    s = dataclasses.replace(
        ref,
        source=dataclasses.replace(
            ref.source, pulse_fwhm_ns=0.2, cw_background_fraction=0.0
        ),
        pump=dataclasses.replace(ref.pump, coherence_time_ns=dt),
        detector=dataclasses.replace(
            ref.detector,
            quantum_efficiency=1.0,
            dark_count_rate_hz=0.0,
            jitter_fwhm_ps=0.0,
        ),
        sca=ScaWindow(ref.sca.center_ns, 1.0),
        pulses_per_point=100_000,
    )
    run = montecarlo.run_fringe_scan(s, PHASES_12)
    fit = extract_visibility(run.fringe_points(), background=run.mean_background())
    mean_counts = float(np.mean([p.counts for p in run.fringe]))
    sigma_v = math.sqrt(2.0 / (12 * mean_counts))
    target = math.exp(-1.0)
    pull = abs(fit.v_net - target) / sigma_v
    passed = pull <= 3.0
    report(
        8,
        passed,
        f"diffusion visibility {fit.v_net:.4f} vs exp(-1) = {target:.4f} "
        f"({pull:.2f} sigma)",
    )


def test_criterion_09_repeater_equivalence():
    trans = repeater.fiber_transmission(15.0, 0.2)
    penalty = repeater.rate_penalty(0.5, "single-photon")
    passed = round(trans, 3) == 0.501 and penalty == 0.5
    report(
        9,
        passed,
        f"fiber_transmission(15 km, 0.2 dB/km) = {trans:.3f}; "
        f"rate_penalty(0.5, single-photon) = {penalty}",
    )


def test_criterion_10_noise_asymmetry(ref):
    noise = conversion.NoiseModel(spdc_coeff_hz_per_w=1e4)
    output = ref.output_wavelength_um()
    forward = conversion.noise_rate(ref.pump, output, noise)
    swapped = conversion.noise_rate(
        conversion.PumpField(ref.pump.power_w, output), ref.pump.wavelength_um, noise
    )
    passed = forward == 0.0 and swapped > 0.0
    report(
        10,
        passed,
        f"rate {forward} with pump {ref.pump.wavelength_um} um below output "
        f"{output:.4f} um in energy; {swapped:.1f} Hz once swapped",
    )


def test_criterion_11_reproducibility(tmp_path, cli_env):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qifsim.cli", "fringe-scan", "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        (csv_path,) = out.glob("*-fringe.csv")
        digests.append(csv_path.read_bytes())
    passed = digests[0] == digests[1]
    report(
        11,
        passed,
        f"two fringe-scan runs, {len(digests[0])} CSV bytes each, byte-identical",
    )
