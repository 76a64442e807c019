"""Property tests of the fringe engine: a scan does not depend on its grid order.

Each phase point draws from a stream keyed by its phase value, so any
permutation of a grid gives every point the same counts and background,
and the same merged histogram, with and without a dead time. The pulse
ranks that the drifting pump is gathered by equal ``np.unique``'s inverse
for any ascending int32 array.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qifsim import montecarlo
from qifsim.montecarlo import run_fringe_scan
from qifsim.scenario import load_reference_scenario

REF = load_reference_scenario()
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
    a = run_fringe_scan(s, phases, pulses=2_000)
    b = run_fringe_scan(s, permuted, pulses=2_000)
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
def test_pulse_ranks_of_ascending_input_match_unique_inverse(values):
    pulse = np.sort(np.asarray(values, dtype=np.int32))
    occupied, inverse = np.unique(pulse, return_inverse=True)
    rank, n_occupied = montecarlo._pulse_ranks(pulse)
    assert n_occupied == occupied.size
    assert rank.dtype == np.int32
    np.testing.assert_array_equal(rank, inverse)
