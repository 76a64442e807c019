"""Property tests of the dead-time gate and the afterpulse pass on generated streams.

Both must equal the sequential references of ``test_detection`` exactly,
for any sorted stream, dead time and afterpulse probability.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qifsim import detection
from test_detection import marked_reference, rng_of, sequential_gate

dead_times = st.sampled_from([1e-3, 0.37, 5.0, 20.0, 1e3])


@st.composite
def streams(draw):
    """A dead time and a sorted stream of events.

    Either the gaps are drawn one by one as multiples of the dead time in
    [0, 3], where gaps of exactly 0 give ties and multiples close to 1 put
    events at the rounding edge of t + dead; or a seeded Poisson stream of
    up to 3000 events has a drawn mean gap of 0.05 to 3 dead times.
    """
    dead_ns = draw(dead_times)
    start = draw(st.floats(0.0, 1e4))
    if draw(st.booleans()):
        gaps = np.asarray(draw(st.lists(st.floats(0.0, 3.0), max_size=300)), dtype=float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gaps = rng.exponential(draw(st.floats(0.05, 3.0)), draw(st.integers(0, 3000)))
    return dead_ns, start + np.cumsum(gaps * dead_ns)


@settings(max_examples=200, deadline=None)
@given(streams())
def test_gate_equals_sequential_reference(stream):
    dead_ns, times = stream
    assert np.array_equal(times[detection._gate(times, dead_ns)], sequential_gate(times, dead_ns))


@settings(max_examples=200, deadline=None)
@given(streams(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.floats(0.0, 40.0))
def test_afterpulse_pass_equals_marked_reference(stream, p_after, seed, horizon_dead):
    dead_ns, times = stream
    mark_rng = np.random.default_rng(seed)
    spawners = np.flatnonzero(mark_rng.random(times.size) < p_after)
    delays = mark_rng.exponential(dead_ns, spawners.size)
    horizon = (float(times[-1]) if times.size else 0.0) + horizon_dead * dead_ns
    args = (times, dead_ns, spawners, delays, horizon)
    # The pass compacts the stream it is given in place.
    out = detection._afterpulse_pass(
        times.copy(), *args[1:], detection._afterpulse_marks(rng_of(seed), p_after, dead_ns)
    )
    expected = marked_reference(*args, detection._afterpulse_marks(rng_of(seed), p_after, dead_ns))
    assert np.array_equal(out, expected)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 2e6), st.floats(0.0, 50.0))
def test_dead_time_correct_inverts_observe(rate_hz, dead_time_us):
    # R tau reaches 100: the observed occupancy stays below 0.99, short of saturation.
    observed = detection.dead_time_observe(rate_hz, dead_time_us)
    recovered = detection.dead_time_correct(observed, dead_time_us)
    assert abs(recovered - rate_hz) <= 1e-12 * rate_hz
