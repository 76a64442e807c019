"""Property tests of the fringe engine: a scan does not depend on its grid order.

Each phase point draws from a stream keyed by its phase value, so any
permutation of a grid gives every point the same counts and background,
and the same merged histogram, with and without a dead time. The ranks
that a drifting pump's shared drifts are gathered by follow from
``np.unique``'s inverse and counts for any ascending int32 array. The
fold of the detections on the sync period equals ``np.mod`` bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qifsim import montecarlo
from qifsim.montecarlo import run_fringe_scan
from qifsim.scenario import load_reference_scenario
from test_montecarlo import shared_ranks_by_unique

# 2,000 pulses per point.
REF = dataclasses.replace(load_reference_scenario(), pulses_per_point=2_000)
# 20 ns of dead time and 5 % afterpulsing: the gate and the afterpulse pass run.
DEAD_TIME = dataclasses.replace(
    REF,
    detector=dataclasses.replace(REF.detector, dead_time_us=0.02, afterpulse_probability=0.05),
)


@st.composite
def permuted_grids(draw):
    """2 to 5 distinct finite phases and a permutation of them."""
    phases = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    return phases, draw(st.permutations(phases))


def by_phase(run):
    """Each point's (counts, background), keyed by its phase."""
    return {
        p.phase_rad: (p.counts, b) for p, b in zip(run.fringe, run.background_estimates)
    }


@pytest.mark.parametrize("s", [REF, DEAD_TIME], ids=["reference", "dead-time"])
@settings(max_examples=25, deadline=None)
@given(grids=permuted_grids())
def test_fringe_scan_is_order_invariant(s, grids):
    phases, permuted = grids
    a = run_fringe_scan(s, phases)
    b = run_fringe_scan(s, permuted)
    assert by_phase(a) == by_phase(b)
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    assert a.histogram.sync_pulses == b.histogram.sync_pulses


INT32 = st.integers(-(2**31), 2**31 - 1)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(INT32 | st.integers(0, 5), max_size=300))
@example(values=[])
@example(values=[7])
@example(values=[3] * 10)
@example(values=[0, 2**31 - 1, 2**31 - 1, 2**31 - 2])
def test_shared_ranks_of_ascending_input_match_unique_counts(values):
    pulse = np.sort(np.asarray(values, dtype=np.int32))
    expected, n_shared = shared_ranks_by_unique(pulse)
    rank, shared = montecarlo._shared_ranks(pulse)
    assert shared == n_shared
    assert rank.dtype == np.int32
    np.testing.assert_array_equal(rank, expected)


# The reference's 16.67 ns sync period, periods with few significant bits
# (T_lo = 0), and any other.
PERIODS = st.sampled_from([1e3 / 60.0, 12.5, 1.0 / 3.0, 7.0, 1000.123456789, 2.0**-30]) | st.floats(
    1e-6, 1e6
)


def near_multiple(k: int, period: float, steps: int) -> float:
    """k periods, moved ``steps`` floats up or down."""
    t = np.float64(k) * period
    for _ in range(abs(steps)):
        t = np.nextafter(t, np.inf if steps > 0 else -np.inf)
    return float(t)


def assert_folds_as_np_mod(times, period):
    folded = montecarlo._fold(times.copy(), period)
    np.testing.assert_array_equal(folded.view(np.uint64), np.mod(times, period).view(np.uint64))


@st.composite
def fold_inputs(draw):
    """A period and times: exact multiples and their neighbours, quotients near 2**26, and any."""
    period = draw(PERIODS)
    quotient = st.integers(0, 2**26 - 1) | st.integers(2**26 - 3, 2**26 + 3) | st.integers(-3, 3)
    multiple = st.builds(near_multiple, quotient, st.just(period), st.integers(-2, 2))
    anywhere = st.floats(-3.0 * period, 2.0**26 * period)
    values = draw(
        st.lists(multiple | anywhere | st.sampled_from([0.0, -0.0]), min_size=1, max_size=60)
    )
    return period, values


@settings(max_examples=400, deadline=None, derandomize=True)
@given(inputs=fold_inputs(), across_blocks=st.booleans())
@example(inputs=(1e3 / 60.0, [0.0, -0.0, 3 * (1e3 / 60.0), 1e3 / 60.0]), across_blocks=False)
def test_fold_equals_np_mod_bit_for_bit(inputs, across_blocks):
    period, values = inputs
    times = np.asarray(values, dtype=np.float64)
    if across_blocks:
        times = np.resize(times, 2 * montecarlo._BLOCK + 7)
    assert_folds_as_np_mod(times, period)


@pytest.mark.parametrize("period", [1e3 / 60.0, 12.5, 1000.123456789])
def test_fold_equals_np_mod_on_dense_draws(period):
    # A wrong rounding path shows on a few entries in 10^4; hypothesis draws
    # too few times to meet one, so uniform draws, negatives included,
    # and every multiple's neighbours back the property above.
    rng = np.random.default_rng(18)
    k = rng.integers(0, 2**26, 100_000).astype(np.float64) * period
    times = np.concatenate(
        [
            # Scaled, not shifted, so small times keep their low bits.
            rng.random(100_000) * (-3.0 * period),
            rng.random(100_000) * (2.0**26 * period),
            k,
            np.nextafter(k, np.inf),
            np.nextafter(k, -np.inf),
        ]
    )
    assert_folds_as_np_mod(times, period)
