"""Dispersion model, DFG energy bookkeeping, and the two QPM solvers."""

import math

import numpy as np
import pytest

from qifsim import qpm
from qifsim.errors import DomainError, SolverError

SIGNAL_UM = 0.710
PUMP_UM = 1.552
T_DEVICE_K = 352.0

# Frozen against CONGRUENT_LN_NE. The index is IEEE arithmetic and one sqrt,
# so N_SIGNAL, N_PUMP, DK_AT_14UM and BULK_PERIOD_352K are compared exactly:
# a mistyped coefficient changes them.
N_SIGNAL = 2.1905310170856596
N_PUMP = 2.140023845173866
OUTPUT_UM = 1.308693586698337
DK_AT_14UM = -0.03876736917399996
BULK_PERIOD_352K = 15.323661866883143
BULK_PERIOD_330K = 15.39039856635443


def test_index_frozen_values():
    assert qpm.refractive_index(SIGNAL_UM, T_DEVICE_K) == N_SIGNAL
    assert qpm.refractive_index(PUMP_UM, T_DEVICE_K) == N_PUMP


def test_index_plausible_over_validity():
    model = qpm.CONGRUENT_LN_NE
    lo, hi = model.wavelength_range_um
    tlo, thi = model.temperature_range_k
    for lam in np.linspace(lo, hi, 25):
        for t in np.linspace(tlo, thi, 7):
            n = qpm.refractive_index(float(lam), float(t))
            assert 1.0 < n < 3.0
    # Telecom-band extraordinary index of this material sits near 2.1.
    for lam in (1.26, 1.31, 1.55, 1.62):
        assert 2.0 < qpm.refractive_index(lam, T_DEVICE_K) < 2.3


def test_index_increases_toward_blue():
    grid = np.linspace(0.5, 4.0, 40)
    ns = [qpm.refractive_index(float(lam), T_DEVICE_K) for lam in grid]
    assert all(a > b for a, b in zip(ns, ns[1:]))


@pytest.mark.parametrize(
    "wavelength_um,temperature_k",
    [(6.0, 352.0), (0.3, 352.0), (0.71, 200.0), (0.71, 500.0)],
)
def test_index_rejects_outside_validity(wavelength_um, temperature_k):
    with pytest.raises(DomainError):
        qpm.refractive_index(wavelength_um, temperature_k)


def test_dfg_energy_identity():
    out = qpm.dfg_output_wavelength(SIGNAL_UM, PUMP_UM)
    assert out == pytest.approx(OUTPUT_UM, rel=1e-14)
    assert 1.0 / out == pytest.approx(1.0 / SIGNAL_UM - 1.0 / PUMP_UM, rel=1e-14)


def test_dfg_requires_signal_most_energetic():
    with pytest.raises(DomainError):
        qpm.dfg_output_wavelength(PUMP_UM, SIGNAL_UM)
    with pytest.raises(DomainError):
        qpm.dfg_output_wavelength(1.0, 1.0)
    with pytest.raises(DomainError):
        qpm.dfg_output_wavelength(-0.7, 1.5)


def test_phase_mismatch_frozen_value():
    cfg = qpm.QpmConfig(poling_period_um=14.0, crystal_length_cm=1.0, temperature_k=T_DEVICE_K)
    dk = qpm.phase_mismatch(SIGNAL_UM, PUMP_UM, OUTPUT_UM, cfg)
    assert dk == DK_AT_14UM


def test_phase_mismatch_grating_term():
    # Halving the period adds exactly one extra grating momentum 2 pi / Lambda.
    cfg = qpm.QpmConfig(14.0, 1.0, T_DEVICE_K)
    cfg_half = qpm.QpmConfig(7.0, 1.0, T_DEVICE_K)
    dk = qpm.phase_mismatch(SIGNAL_UM, PUMP_UM, OUTPUT_UM, cfg)
    dk_half = qpm.phase_mismatch(SIGNAL_UM, PUMP_UM, OUTPUT_UM, cfg_half)
    assert dk_half == pytest.approx(dk - 2.0 * math.pi / 14.0, rel=1e-12)


def test_phase_mismatch_rejects_inconsistent_triple():
    cfg = qpm.QpmConfig(14.0, 1.0, T_DEVICE_K)
    with pytest.raises(DomainError, match="energy conservation"):
        qpm.phase_mismatch(SIGNAL_UM, PUMP_UM, 1.31, cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(poling_period_um=0.0, crystal_length_cm=1.0, temperature_k=352.0),
        dict(poling_period_um=14.0, crystal_length_cm=-1.0, temperature_k=352.0),
        dict(poling_period_um=14.0, crystal_length_cm=1.0, temperature_k=352.0, order=2),
        dict(poling_period_um=14.0, crystal_length_cm=1.0, temperature_k=352.0, order=0),
    ],
)
def test_qpm_config_validation(kwargs):
    with pytest.raises(DomainError):
        qpm.QpmConfig(**kwargs)


def test_solve_poling_period_frozen():
    period = qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, T_DEVICE_K)
    assert period == BULK_PERIOD_352K
    # Bulk-matched first-order periods for this mixing live in this band.
    assert 10.0 < period < 25.0


def test_solve_poling_period_zeroes_mismatch():
    for t in (300.0, 330.0, 352.0, 400.0, 450.0):
        period = qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, t)
        cfg = qpm.QpmConfig(period, 1.0, t)
        out = qpm.dfg_output_wavelength(SIGNAL_UM, PUMP_UM)
        assert abs(qpm.phase_mismatch(SIGNAL_UM, PUMP_UM, out, cfg)) < 1e-9


def test_third_order_period_triples():
    for t in (T_DEVICE_K, *np.linspace(330.0, 370.0, 9)):
        p1 = qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, float(t), order=1)
        p3 = qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, float(t), order=3)
        assert p3 == pytest.approx(3.0 * p1, rel=1e-12)


def test_solve_poling_period_reports_impossible_sign(monkeypatch):
    # Anomalous-dispersion toy model: index grows with wavelength, so the
    # bulk momentum imbalance flips negative and no grating can fix it.
    toy = qpm.SellmeierModel(
        a=(4.0, 0.1, 0.2, 0.0, 10.0, -0.2),
        b=(0.0, 0.0, 0.0, 0.0),
        wavelength_range_um=(0.4, 5.0),
        temperature_range_k=(290.0, 480.0),
    )
    monkeypatch.setattr(qpm, "CONGRUENT_LN_NE", toy)
    with pytest.raises(SolverError, match="negative"):
        qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, T_DEVICE_K)


def test_acceptance_peak_null_and_bounds():
    length_cm = 1.0
    assert qpm.qpm_acceptance(0.0, length_cm) == 1.0
    first_null = 2.0 * math.pi / (length_cm * 1e4)
    assert qpm.qpm_acceptance(first_null, length_cm) == pytest.approx(0.0, abs=1e-25)
    rng = np.random.default_rng(7)
    for dk in rng.uniform(-1.0, 1.0, 50):
        val = qpm.qpm_acceptance(float(dk), length_cm)
        assert 0.0 <= val <= 1.0
        assert val == qpm.qpm_acceptance(-float(dk), length_cm)


def test_acceptance_narrows_with_length():
    dk = 1e-4
    assert qpm.qpm_acceptance(dk, 4.0) < qpm.qpm_acceptance(dk, 1.0)


def test_acceptance_rejects_nonpositive_length():
    with pytest.raises(DomainError):
        qpm.qpm_acceptance(0.1, 0.0)


def test_solve_pump_roundtrip():
    pump = qpm.solve_pump_wavelength(BULK_PERIOD_352K, SIGNAL_UM, T_DEVICE_K)
    assert pump == pytest.approx(PUMP_UM, abs=1e-9)


def test_solve_pump_picks_red_branch():
    # The mismatch is symmetric in pump <-> output, so a second root exists
    # with the roles swapped; the returned pump must be the red one.
    pump = qpm.solve_pump_wavelength(BULK_PERIOD_352K, SIGNAL_UM, T_DEVICE_K)
    assert pump > 2.0 * SIGNAL_UM
    out = qpm.dfg_output_wavelength(SIGNAL_UM, pump)
    assert pump > out


def test_temperature_tuning_curve_monotonic():
    period = BULK_PERIOD_330K
    pumps = [
        qpm.solve_pump_wavelength(period, SIGNAL_UM, float(t))
        for t in np.linspace(330.0, 370.0, 9)
    ]
    assert pumps[0] == pytest.approx(PUMP_UM, abs=1e-6)
    assert all(a < b for a, b in zip(pumps, pumps[1:]))


@pytest.mark.parametrize("order", [1, 3])
def test_solve_pump_zeroes_mismatch_over_tuning_range(order):
    period = qpm.solve_poling_period(SIGNAL_UM, PUMP_UM, 330.0, order=order)
    for t in np.linspace(330.0, 370.0, 9):
        cfg = qpm.QpmConfig(period, 1.0, float(t), order)
        pump = qpm.solve_pump_wavelength(period, SIGNAL_UM, float(t), order=order)
        out = qpm.dfg_output_wavelength(SIGNAL_UM, pump)
        assert abs(qpm.phase_mismatch(SIGNAL_UM, pump, out, cfg)) <= qpm.SOLVER_TOL_RAD_UM


def test_solve_pump_no_root_reports_endpoints():
    with pytest.raises(SolverError, match="no sign change"):
        qpm.solve_pump_wavelength(1.0, SIGNAL_UM, T_DEVICE_K)


def test_solve_pump_rejects_signal_inside_bracket():
    with pytest.raises(DomainError):
        qpm.solve_pump_wavelength(BULK_PERIOD_352K, 1.4, T_DEVICE_K)


# --- the pump solver against a full ascending scan ---

SCAN_GRID = [
    qpm.PUMP_SEARCH_BRACKET_UM[0]
    + (qpm.PUMP_SEARCH_BRACKET_UM[1] - qpm.PUMP_SEARCH_BRACKET_UM[0]) * i / 127
    for i in range(128)
]


def full_scan_pump(poling_period_um, signal_um, temperature_k, order=1):
    """The pump solver written as a full scan: every grid point is evaluated,
    every bracket is refined, and the last one in ascending order wins."""
    lo, hi = qpm.PUMP_SEARCH_BRACKET_UM
    if signal_um >= lo:
        raise DomainError(
            f"signal {signal_um} um must lie below the pump search bracket "
            f"[{lo}, {hi}] um"
        )
    cfg = qpm.QpmConfig(poling_period_um, 1.0, temperature_k, order)

    def residual(pump_um):
        output_um = qpm.dfg_output_wavelength(signal_um, pump_um)
        return qpm.phase_mismatch(signal_um, pump_um, output_um, cfg)

    xs = SCAN_GRID
    fs = [residual(x) for x in xs]
    root = None
    for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:]):
        if f0 == 0.0:
            root = x0
        elif f0 * f1 < 0:
            root = qpm._refine_root(residual, x0, x1, f0, f1)
    if fs[-1] == 0.0:
        root = xs[-1]
    if root is None:
        raise SolverError(
            f"no quasi-phase-matched pump in [{lo}, {hi}] um at "
            f"Lambda = {poling_period_um} um, T = {temperature_k} K: mismatch is "
            f"{fs[0]:+.3e} rad/um at {lo} um and {fs[-1]:+.3e} rad/um at {hi} um "
            f"with no sign change"
        )
    return root


def outcome(solve, *args):
    """A solve's root as its repr, or its error's type and text."""
    try:
        return repr(solve(*args))
    except (DomainError, SolverError) as exc:
        return f"{type(exc).__name__}: {exc}"


def seeded_solver_inputs(n, seed=23):
    """(period, signal, T, order) draws: signals 0.3-1.29 um, 290-450 K,
    orders 1 and 3. Half the periods are uniform over 3-40 um; the other
    half sit within 2 % of a bulk-matched period, so that roots are common."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        signal = float(rng.uniform(0.3, 1.29))
        t = float(rng.uniform(290.0, 450.0))
        order = int(rng.choice([1, 3]))
        period = float(rng.uniform(3.0, 40.0))
        if k % 2:
            pump = float(rng.uniform(1.3, 1.8))
            try:
                matched = qpm.solve_poling_period(signal, pump, t, order)
            except (DomainError, SolverError):
                matched = 0.0
            if 3.0 <= matched <= 40.0:
                period = matched * float(rng.uniform(0.98, 1.02))
        yield period, signal, t, order


def test_solve_pump_matches_a_full_scan_bit_for_bit():
    kinds = {"root": 0, "DomainError": 0, "SolverError": 0}
    for args in seeded_solver_inputs(1_500):
        got = outcome(qpm.solve_pump_wavelength, *args)
        assert got == outcome(full_scan_pump, *args), args
        kinds[got.split(":")[0] if ":" in got else "root"] += 1
    # The grid reaches roots, scan failures and the Sellmeier range alike.
    assert min(kinds.values()) >= 200, kinds


def test_solve_pump_refuses_a_blue_end_outside_validity_despite_a_red_root():
    # A 1.2 um signal is phase matched by a 1.7 um pump at this period, but
    # the output wave at the 1.3 um blue end lies beyond the Sellmeier range.
    period = qpm.solve_poling_period(1.2, 1.7, T_DEVICE_K)
    blue_output = qpm.dfg_output_wavelength(1.2, qpm.PUMP_SEARCH_BRACKET_UM[0])
    with pytest.raises(DomainError, match=f"wavelength {blue_output} um outside Sellmeier"):
        qpm.solve_pump_wavelength(period, 1.2, T_DEVICE_K)


@pytest.mark.parametrize(
    "toy,expected",
    [
        (lambda p: p - SCAN_GRID[40], SCAN_GRID[40]),
        (lambda p: (SCAN_GRID[-1] - p) * (p - 1.45), SCAN_GRID[-1]),
        (lambda p: p - SCAN_GRID[0], SCAN_GRID[0]),
        (lambda p: (p - SCAN_GRID[0]) * (p - 1.61), None),
        (lambda p: (p - SCAN_GRID[90]) * (p - 1.45), SCAN_GRID[90]),
        (lambda p: (p - 1.41) * (p - 1.62), None),
        (lambda p: 1.0 + p, SolverError),
    ],
    ids=[
        "zero-inside", "zero-at-red-end", "zero-at-blue-end", "zero-at-blue-end-and-a-root",
        "zero-above-a-root", "two-sign-changes", "no-root",
    ],
)
def test_solve_pump_scan_branches(monkeypatch, toy, expected):
    # The toy replaces the mismatch of every pump, so exact zeros can sit on
    # grid points. Where two roots exist, the redder one (above 1.6 um) wins.
    monkeypatch.setattr(qpm, "_mismatch", lambda signal_per_um, pump_um, out_um, cfg: toy(pump_um))
    args = (BULK_PERIOD_352K, SIGNAL_UM, T_DEVICE_K)
    got = outcome(qpm.solve_pump_wavelength, *args)
    assert got == outcome(full_scan_pump, *args)
    if expected is SolverError:
        assert got.startswith("SolverError: no quasi-phase-matched pump")
    elif expected is None:
        assert float(got) > 1.6
    else:
        assert got == repr(expected)
