"""Order statistics and the metric-name rule shared by the benchmark scripts."""

from __future__ import annotations

import re
import statistics

# A metric or workload name: starts with a letter or digit, at most 64 of
# letters, digits, '_', '.' and '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean after dropping ``floor(share * n)`` values from each end of the sorted sample.

    The host's speed flips between a fast and a slow state for seconds at a
    time, so a run's timings are bimodal and their median jumps between the
    two modes from run to run; a trimmed mean moves smoothly with the share
    of time spent in each, while still ignoring a rare stall.
    """
    values = sorted(values)
    if not values:
        raise ValueError("mean of no values")
    k = int(share * len(values))
    return float(statistics.fmean(values[k : len(values) - k]))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(values, n=4)``, the exclusive method."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

