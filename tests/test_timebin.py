"""Time-bin algebra against a brute-force beam-splitter path oracle.

The oracle never reuses the closed-form slot expressions: it enumerates
every path through the symmetric beam-splitter matrix [[t, ir], [ir, t]]
per traversal, sums complex amplitudes inside each arrival slot, and mixes
the coherent and incoherent intensities with the qubit's coherence scalar.
"""

import cmath
import math

import numpy as np
import pytest

from qifsim import timebin
from qifsim.errors import DomainError
from qifsim.timebin import (
    Interferometer,
    PulseSource,
    TimeBinQubit,
    analyze,
    apply_conversion_phase,
    prepare_qubit,
)

DT = 2.2


def oracle_slots(qubit: TimeBinQubit, ifo: Interferometer):
    """Forward/back slot probabilities from explicit path enumeration."""
    s, eta, beta = ifo.splitting_ratio, ifo.transmission, ifo.phase_rad
    t_amp = math.sqrt(s)
    r_amp = 1j * math.sqrt(1.0 - s)
    root_eta = math.sqrt(eta)
    # (bin index, input amplitude) -> list of (slot, port, outgoing amplitude)
    paths = []
    for bin_idx, a_in in ((0, qubit.early), (1, qubit.late)):
        # Return pass through the same splitter: arm amplitudes scatter as
        # back = t*short + r*long, forward = r*short + t*long.
        short = t_amp * t_amp
        long_ = r_amp * r_amp * cmath.exp(1j * beta)
        paths.append((bin_idx, bin_idx, "back", a_in * short * root_eta))
        paths.append((bin_idx, bin_idx + 1, "back", a_in * long_ * root_eta))
        fwd_short = r_amp * t_amp
        fwd_long = t_amp * r_amp * cmath.exp(1j * beta)
        paths.append((bin_idx, bin_idx, "fwd", a_in * fwd_short * root_eta))
        paths.append((bin_idx, bin_idx + 1, "fwd", a_in * fwd_long * root_eta))

    c = qubit.coherence
    probs = {}
    for port in ("fwd", "back"):
        for slot in (0, 1, 2):
            amps = [a for b, sl, p, a in paths if p == port and sl == slot]
            coherent = abs(sum(amps)) ** 2
            incoherent = sum(abs(a) ** 2 for a in amps)
            probs[(port, slot)] = c * coherent + (1.0 - c) * incoherent
    return probs


@pytest.mark.parametrize("s_prep", [0.3, 0.5, 0.62])
@pytest.mark.parametrize("s_ana", [0.41, 0.5])
@pytest.mark.parametrize("coherence", [0.0, 0.37, 1.0])
def test_analyze_matches_path_oracle(s_prep, s_ana, coherence):
    for eta_prep, eta_ana in ((1.0, 1.0), (0.8, 0.55)):
        for alpha in (0.0, 1.1, math.pi):
            for beta in (0.0, 0.7, 5.65):
                prep = Interferometer(DT, alpha, eta_prep, s_prep)
                ana = Interferometer(DT, beta, eta_ana, s_ana)
                qubit = apply_conversion_phase(prepare_qubit(prep), coherence)
                result = analyze(qubit, ana)
                expected = oracle_slots(qubit, ana)
                for i, (_, p) in enumerate(result.slots):
                    assert abs(p - expected[("fwd", i)]) < 1e-12
                for i, (_, p) in enumerate(result.back_slots):
                    assert abs(p - expected[("back", i)]) < 1e-12


def test_balanced_slot_constants():
    prep = Interferometer(DT, phase_rad=0.55)
    qubit = prepare_qubit(prep)
    aligned = analyze(qubit, Interferometer(DT, phase_rad=0.55))
    opposed = analyze(qubit, Interferometer(DT, phase_rad=0.55 + math.pi))
    # Side slots stay at 1/16 regardless of phase; the middle slot swings
    # between 1/4 and 0.
    for result in (aligned, opposed):
        assert result.slots[0][1] == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert result.slots[2][1] == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert aligned.slots[1][1] == pytest.approx(0.25, rel=1e-12)
    assert opposed.slots[1][1] == pytest.approx(0.0, abs=1e-15)


def test_middle_slot_depends_only_on_phase_difference():
    for shift in (0.3, 1.7, 4.0):
        a = analyze(prepare_qubit(Interferometer(DT, 0.4)), Interferometer(DT, 1.2))
        b = analyze(
            prepare_qubit(Interferometer(DT, 0.4 + shift)),
            Interferometer(DT, 1.2 + shift),
        )
        assert a.slots[1][1] == pytest.approx(b.slots[1][1], rel=1e-12)


def test_budget_closes_for_all_inputs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        s = rng.uniform(0.1, 0.9)
        eta = rng.uniform(0.1, 1.0)
        coherence = rng.uniform(0.0, 1.0)
        scale = rng.uniform(0.2, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        qubit = TimeBinQubit(
            early=scale * 0.6,
            late=scale * 0.7 * cmath.exp(1j * phi),
            delta_tau_ns=DT,
            coherence=coherence,
        )
        result = analyze(qubit, Interferometer(DT, phi * 0.7, eta, s))
        assert result.budget_total() == pytest.approx(qubit.norm(), rel=1e-12)


def test_slot_times_are_spaced_by_delay():
    result = analyze(prepare_qubit(Interferometer(DT)), Interferometer(DT))
    times = [t for t, _ in result.slots]
    assert times == [0.0, DT, 2.0 * DT]


def test_middle_slot_contrast_equals_coherence():
    for coherence in (0.0, 0.42, 0.96, 1.0):
        qubit = apply_conversion_phase(prepare_qubit(Interferometer(DT)), coherence)
        mids = [
            analyze(qubit, Interferometer(DT, beta)).slots[1][1]
            for beta in np.linspace(0.0, 2.0 * math.pi, 65)
        ]
        hi, lo = max(mids), min(mids)
        if hi + lo == 0:
            continue
        assert (hi - lo) / (hi + lo) == pytest.approx(coherence, abs=1e-9)


def test_prepare_balanced_puts_quarter_per_bin():
    qubit = prepare_qubit(Interferometer(DT, phase_rad=1.3))
    assert abs(qubit.early) ** 2 == pytest.approx(0.25, rel=1e-12)
    assert abs(qubit.late) ** 2 == pytest.approx(0.25, rel=1e-12)
    assert cmath.phase(qubit.late / qubit.early) == pytest.approx(1.3, rel=1e-12)


def test_prepare_normalized_forward_recovers_unit_norm():
    ifo = Interferometer(DT, splitting_ratio=0.37, normalize_forward=True)
    assert prepare_qubit(ifo).norm() == pytest.approx(1.0, rel=1e-12)


def test_analyze_rejects_normalized_forward():
    qubit = prepare_qubit(Interferometer(DT))
    with pytest.raises(DomainError, match="normalize_forward"):
        analyze(qubit, Interferometer(DT, normalize_forward=True))


def test_analyze_rejects_mismatched_delay():
    qubit = prepare_qubit(Interferometer(DT))
    with pytest.raises(DomainError, match="does not match"):
        analyze(qubit, Interferometer(DT * 1.05))
    # Inside the 1 percent overlap budget is fine.
    analyze(qubit, Interferometer(DT * 1.005))


def test_conversion_phase_scales_coherence_only():
    qubit = prepare_qubit(Interferometer(DT, 0.8))
    scaled = apply_conversion_phase(qubit, 0.96)
    assert scaled.coherence == pytest.approx(0.96)
    assert scaled.early == qubit.early and scaled.late == qubit.late
    with pytest.raises(DomainError):
        apply_conversion_phase(qubit, 1.2)


def test_qubit_validation():
    with pytest.raises(DomainError):
        TimeBinQubit(1.0, 0.5, DT)  # norm above one
    with pytest.raises(DomainError):
        TimeBinQubit(0.5, 0.5, -1.0)
    with pytest.raises(DomainError):
        TimeBinQubit(0.5, 0.5, DT, coherence=1.5)


def test_interferometer_validation():
    with pytest.raises(DomainError):
        Interferometer(0.0)
    with pytest.raises(DomainError):
        Interferometer(DT, transmission=1.3)
    with pytest.raises(DomainError):
        Interferometer(DT, splitting_ratio=1.0)


def test_source_warns_when_bins_unresolved():
    src = PulseSource(60.0, 3.0, 1.0, 0.3)
    with pytest.warns(UserWarning, match="time bins overlap"):
        src.warn_if_unresolved(DT)
    coherent = PulseSource(60.0, 1.0, 1.0, 5.0)
    with pytest.warns(UserWarning, match="coherence"):
        coherent.warn_if_unresolved(DT)


def test_source_silent_when_resolved(recwarn):
    PulseSource(60.0, 1.0, 1.0, 0.3).warn_if_unresolved(DT)
    assert not recwarn.list


def test_source_validation():
    with pytest.raises(DomainError):
        PulseSource(60.0, -1.0, 1.0, 0.3)
    with pytest.raises(DomainError):
        PulseSource(60.0, 1.0, 1.0, 0.3, pulse_shape="sech")

