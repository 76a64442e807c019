"""Property test of the CLI's grid: the values of np.linspace, bit for bit."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qifsim import cli
from qifsim.scenario import load_reference_scenario

REF = load_reference_scenario()

# Grid ends of either sign over twelve decades, and both zeros. The step
# of such grids never underflows to zero, numpy's one special case.
magnitudes = st.floats(1e-6, 1e6) | st.just(0.0)
ends = st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


@settings(max_examples=500, deadline=None)
@given(ends, ends, st.integers(1, 500))
@example(0.0, 2.0 * math.pi, 12)  # default --phases
@example(0.0, REF.pump.power_w, 14)  # default --powers
@example(*REF.repeater.length_grid_km)
@example(-0.0, 1.0, 1)
@example(-2.5, 7.0, 1)
@example(-2.5, 7.0, 2)
@example(3.0, 3.0, 5)
def test_grid_equals_linspace(a, b, n):
    start, stop = sorted((a, b))
    values = cli._grid(start, stop, n)
    expected = np.linspace(start, stop, n).tolist()
    assert [v.hex() for v in values] == [v.hex() for v in expected]
