"""Single-photon detector model and arrival-time analysis.

Covers the detector stochastics (dark counts, Gaussian timing jitter,
non-paralyzable dead time, optional afterpulsing), the arrival-time
histogram folded on the laser sync, windowed peak selection, and the
estimators used on top: dead-time correction, peak FWHM, and fringe
visibility.

The dead time is a vectorised gate: an event at least one dead time after
its predecessor is always accepted, and inside each cluster between such
events the acceptances follow "first event after the dead time ends", a
step taken by every cluster at once until few clusters are left, which a
scalar loop finishes. Afterpulses repair that gated stream: each real
event's afterpulse mark is drawn up front, and the candidates are settled
in time order. An accepted candidate blocks the real events in its dead
time, and the real chain is re-gated from there until it rejoins the old
one. Most candidates only read real events that no such rewrite has
touched; their test and re-walk come from array searches on the gate, and
the Python loop applies them. The few that do interact, and afterpulses'
own candidates, take the sequential rule one by one. Both are exact: the
output equals a sequential loop over the merged stream fed the same marks.

Times are nanoseconds unless a suffix says otherwise; rates are hertz.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import DomainError, FitError

__all__ = [
    "DetectorModel",
    "TacHistogram",
    "ScaWindow",
    "VisibilityFit",
    "FWHM_TO_SIGMA",
    "dead_time_observe",
    "dead_time_correct",
    "simulate_detection",
    "build_histogram",
    "peak_fwhm",
    "extract_visibility",
]

# FWHM of a Gaussian = 2 sqrt(2 ln 2) sigma.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class DetectorModel:
    """Free-running single-photon avalanche detector.

    Attributes:
        quantum_efficiency: detection probability per arriving photon;
            the Monte Carlo engine applies it when it thins the photons.
        dark_count_rate_hz: observed-free-running dark rate before dead time.
        dead_time_us: hold-off after each accepted event (non-paralyzable).
        jitter_fwhm_ps: FWHM of the Gaussian timing jitter.
        afterpulse_probability: chance an accepted event spawns one
            afterpulse; the delay is dead time plus an exponential of the
            same scale. Off by default; long hold-offs exist precisely to
            suppress it.
    """

    quantum_efficiency: float
    dark_count_rate_hz: float = 0.0
    dead_time_us: float = 0.0
    jitter_fwhm_ps: float = 0.0
    afterpulse_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise DomainError(
                f"quantum efficiency must be in [0, 1], got {self.quantum_efficiency}"
            )
        if self.dark_count_rate_hz < 0:
            raise DomainError(f"dark rate must be >= 0, got {self.dark_count_rate_hz}")
        if self.dead_time_us < 0:
            raise DomainError(f"dead time must be >= 0, got {self.dead_time_us}")
        if self.jitter_fwhm_ps < 0:
            raise DomainError(f"jitter must be >= 0, got {self.jitter_fwhm_ps}")
        if not 0.0 <= self.afterpulse_probability <= 1.0:
            raise DomainError(
                f"afterpulse probability must be in [0, 1], got {self.afterpulse_probability}"
            )
        if self.afterpulse_probability > 0 and self.dead_time_us == 0:
            raise DomainError("afterpulse model needs a positive dead time as its time scale")

    def jitter_sigma_ns(self) -> float:
        return self.jitter_fwhm_ps * 1e-3 * FWHM_TO_SIGMA


@dataclass(frozen=True)
class TacHistogram:
    """Arrival-time histogram folded on the sync period.

    Attributes:
        bin_width_ps: bin width.
        origin_ns: time of the left edge of bin 0 within the folded period.
        counts: per-bin event counts.
        sync_pulses: sync (laser) pulses integrated over, 0 if unknown.
    """

    bin_width_ps: float
    origin_ns: float
    counts: np.ndarray
    sync_pulses: int = 0

    def __post_init__(self) -> None:
        if self.bin_width_ps <= 0:
            raise DomainError(f"bin width must be > 0, got {self.bin_width_ps}")
        if np.any(self.counts < 0):
            raise DomainError("histogram counts must be >= 0")

    def total_counts(self) -> int:
        return int(self.counts.sum())

    def bin_centers_ns(self) -> np.ndarray:
        width_ns = self.bin_width_ps * 1e-3
        return self.origin_ns + (np.arange(self.counts.size) + 0.5) * width_ns

    def bin_edges_ns(self) -> np.ndarray:
        width_ns = self.bin_width_ps * 1e-3
        return self.origin_ns + np.arange(self.counts.size + 1) * width_ns

    def merged_with(self, other: "TacHistogram") -> "TacHistogram":
        """Combine two histograms of identical layout (associative)."""
        if (
            self.bin_width_ps != other.bin_width_ps
            or self.origin_ns != other.origin_ns
            or self.counts.size != other.counts.size
        ):
            raise DomainError("histogram layouts differ; cannot merge")
        return TacHistogram(
            bin_width_ps=self.bin_width_ps,
            origin_ns=self.origin_ns,
            counts=self.counts + other.counts,
            sync_pulses=self.sync_pulses + other.sync_pulses,
        )


@dataclass(frozen=True)
class ScaWindow:
    """Temporal selection window of a single-channel analyzer."""

    center_ns: float
    width_ns: float

    def __post_init__(self) -> None:
        if self.width_ns <= 0:
            raise DomainError(f"window width must be > 0, got {self.width_ns}")


def dead_time_observe(rate_true_hz: float, dead_time_us: float) -> float:
    """Observed rate of a non-paralyzable detector, R / (1 + R tau)."""
    if rate_true_hz < 0:
        raise DomainError(f"rate must be >= 0, got {rate_true_hz}")
    if dead_time_us < 0:
        raise DomainError(f"dead time must be >= 0, got {dead_time_us}")
    return rate_true_hz / (1.0 + rate_true_hz * dead_time_us * 1e-6)


def dead_time_correct(rate_obs_hz: float, dead_time_us: float) -> float:
    """True rate from an observed one, R_obs / (1 - R_obs tau).

    Exact inverse of non-paralyzable thinning.

    Raises:
        DomainError: R_obs tau >= 1; the detector is saturated and no
            finite true rate reproduces the observation.
    """
    if rate_obs_hz < 0:
        raise DomainError(f"rate must be >= 0, got {rate_obs_hz}")
    if dead_time_us < 0:
        raise DomainError(f"dead time must be >= 0, got {dead_time_us}")
    occupancy = rate_obs_hz * dead_time_us * 1e-6
    if occupancy >= 1.0:
        raise DomainError(
            f"observed rate {rate_obs_hz} Hz saturates a {dead_time_us} us dead "
            f"time (occupancy {occupancy:.3g} >= 1); no finite true rate"
        )
    return rate_obs_hz / (1.0 - occupancy)


# Below this many clusters the gate finishes in a scalar loop: one numpy
# step costs about as much as scalar steps over a few dozen events, so a
# narrow frontier of long clusters is the gate's worst case.
_SCALAR_FRONTIER = 16

# Afterpulse candidates whose re-walk on the gated real stream takes more
# steps, or rewrites more events, than these are left to the sequential rule.
_BULK_STEPS = 8
_BULK_SPAN = 64


def _seek(times_ns: np.ndarray, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """First index at or after j whose time is at or after x, elementwise.

    Equals max(j, searchsorted(times_ns, x)). Most answers lie within a
    step or two of j, so two linear probes settle them for a fraction of
    the cost of a binary search, which then settles the rest.
    """
    n = times_ns.size
    for _ in range(2):
        j = j + (times_ns[np.minimum(j, n - 1)] < x)
    j = np.minimum(j, n)
    rest = np.flatnonzero(times_ns[np.minimum(j, n - 1)] < x)
    j[rest] = np.searchsorted(times_ns, x[rest])
    return j


def _gate(times_ns: np.ndarray, dead_ns: float) -> np.ndarray:
    """Mask of the events a non-paralyzable detector accepts, dead_ns > 0.

    Equals the sequential rule (accept t when t >= last accepted + dead)
    bit for bit, and draws no random numbers. An event with
    t[i] >= t[i-1] + dead heads a cluster and is always accepted: every
    earlier acceptance ended its dead time by t[i-1] + dead, and rounding
    is monotone. Inside a cluster the acceptances follow
    nxt(i) = searchsorted(t, t[i] + dead), the first event at or after the
    end of i's dead time. A frontier starts at the heads and steps along
    nxt while it stays in its cluster, so numpy runs once per acceptance
    in the longest cluster, and nxt is searched for frontier events only.
    Once at most ``_SCALAR_FRONTIER`` clusters are left, each is finished
    by the sequential rule over its own events as Python floats.
    """
    n = times_ns.size
    keep = np.zeros(n, dtype=bool)
    head = np.ones(n, dtype=bool)
    head[1:] = times_ns[1:] >= times_ns[:-1] + dead_ns
    frontier = np.flatnonzero(head)
    end = np.append(frontier[1:], n)
    while frontier.size > _SCALAR_FRONTIER:
        keep[frontier] = True
        more = frontier + 1 < end
        frontier, end = frontier.compress(more), end.compress(more)
        # frontier + 1 is not a head, so it falls in the frontier's dead time.
        frontier = _seek(times_ns, times_ns[frontier] + dead_ns, frontier + 2)
        inside = frontier < end
        frontier, end = frontier.compress(inside), end.compress(inside)
    accepted = []
    for i, stop in zip(frontier.tolist(), end.tolist()):
        blocked_until = -math.inf
        for k, t in enumerate(times_ns[i:stop].tolist(), i):
            if t >= blocked_until:
                accepted.append(k)
                blocked_until = t + dead_ns
    keep[accepted] = True
    return keep


def _afterpulse_marks(
    rng: np.random.Generator, p_after: float, dead_ns: float
) -> Iterator[float | None]:
    """Marks of accepted afterpulses, in the order they are accepted.

    A mark is the exponential delay after the dead time at which the
    afterpulse spawns one of its own, or None when it spawns none. They are
    drawn 256 at a time, which costs far less than two scalar draws each.
    """
    while True:
        spawn = (rng.random(256) < p_after).tolist()
        delays = iter(rng.exponential(dead_ns, sum(spawn)).tolist())
        for spawns in spawn:
            yield next(delays) if spawns else None


def _afterpulse_pass(
    times_ns: np.ndarray,
    dead_ns: float,
    spawners: np.ndarray,
    delays_ns: np.ndarray,
    horizon_ns: float,
    marks: Iterator[float | None],
) -> np.ndarray:
    """Gate real events and the afterpulses that accepted events spawn.

    Real event ``spawners[k]`` carries the afterpulse mark: if accepted, it
    spawns a candidate at t + dead + ``delays_ns[k]``. Acceptance never
    depends on an event's own mark, so marks assigned up front give the
    same process as marks drawn after each acceptance. Accepted
    afterpulses take their marks from ``marks`` in time order.

    The rule is sequential. Candidates are taken in time order, an
    afterpulse's own candidate before a real one at the same time. One
    whose real parent is not accepted at that moment is dropped. Otherwise
    it is tested against the last accepted event before it; a real event
    before c - 2 dead cannot block it, whatever the rounding of t + dead.
    An accepted candidate c blocks the real events in [c, c + dead), and
    the real chain is re-walked from c + dead until it lands on an event
    that is already accepted, so only the real events from c up to that
    one are rewritten. Spawning stops at the observation horizon, which
    also terminates the cascade at afterpulse probability 1.

    Most candidates of real spawners are settled in bulk. Array searches
    on the gate of the real stream give each one its test and its re-walk
    as if no afterpulse existed. Until a rewrite reaches its backward
    window [c - 2 dead, c), a candidate reads only events that the gate
    decided, so the precomputed test and re-walk are the sequential ones,
    and its test needs just one more comparison, against the last accepted
    afterpulse. Such a clean candidate that the real gate rejects stays
    rejected and is never visited. The loop visits the rest in time order,
    with the afterpulses' own candidates on a heap: dirty candidates, long
    re-walks and afterpulses' candidates take the sequential rule on a
    bytearray of acceptances and a memoryview of the times.
    """
    keep0 = _gate(times_ns, dead_ns)
    n = times_ns.size
    cand = times_ns[spawners] + dead_ns + delays_ns
    below = cand < horizon_ns
    # Time order, ties by spawner index, as a sequential loop takes them.
    cand, parent = cand.compress(below), spawners.compress(below)
    order = np.argsort(cand, kind="stable")
    cand, parent = cand[order], parent[order]
    m = cand.size
    # j0 is the first event at or after c, j1 the first after its dead time.
    j0 = _seek(times_ns, cand, np.where(times_ns[parent] < cand, parent + 1, 0))
    j1 = _seek(times_ns, cand + dead_ns, j0)
    floor = cand - 2.0 * dead_ns
    # The real gate blocks c when its last acceptance before c lies at or
    # after the floor and c < t + dead.
    prev = j0 - 1
    for _ in range(2):
        prev -= (prev >= 0) & ~keep0[np.maximum(prev, 0)]
    rest = np.flatnonzero((prev >= 0) & ~keep0[np.maximum(prev, 0)])
    if rest.size:
        kept = np.flatnonzero(keep0)
        before = np.searchsorted(kept, prev[rest])
        prev[rest] = np.where(before > 0, kept[before - 1], -1)
    t_prev = times_ns[np.maximum(prev, 0)]
    ok = (prev < 0) | (t_prev < floor) | (cand >= t_prev + dead_ns)
    # Re-walk on the real gate from j1 until it lands on an accepted event:
    # [j0, stop) then reads 1 on the walk and 0 elsewhere, one slice of
    # ``pattern`` per candidate.
    stop = np.full(m, -1)
    ids = np.flatnonzero(ok)
    walk = j1[ids]
    steps_ids, steps_at = [], []
    for step in range(_BULK_STEPS + 1):
        done = (walk == n) | keep0[np.minimum(walk, n - 1)]
        stop[ids.compress(done)] = walk.compress(done)
        ids, walk = ids.compress(~done), walk.compress(~done)
        if step == _BULK_STEPS or not ids.size:
            break
        steps_ids.append(ids)
        steps_at.append(walk)
        walk = _seek(times_ns, times_ns[walk] + dead_ns, walk + 1)
    stop[stop - j0 > _BULK_SPAN] = -1
    span = np.where(stop >= 0, stop - j0, 0)
    offset = np.cumsum(span) - span
    pattern = np.zeros(int(span.sum()), dtype=np.uint8)
    if steps_ids:
        ids, at = np.concatenate(steps_ids), np.concatenate(steps_at)
        short = stop[ids] >= 0
        ids, at = ids.compress(short), at.compress(short)
        pattern[offset[ids] + at - j0[ids]] = 1
    # Index of the next candidate at or after i that the real gate accepts.
    next_ok = np.minimum.accumulate(np.where(ok, np.arange(m), m)[::-1])[::-1]

    cs, parents, floors, j0s, j1s = (a.tolist() for a in (cand, parent, floor, j0, j1))
    stops, offsets = stop.tolist(), offset.tolist()
    next_ok = next_ok.tolist() + [m]
    pattern = memoryview(pattern)
    keep = bytearray(keep0)
    tv = memoryview(times_ns)

    def seek(x: float, j: int) -> int:
        """First index at or after j whose time is at or after x."""
        near = min(j + 4, n)
        while j < near:
            if tv[j] >= x:
                return j
            j += 1
        return bisect_left(tv, x, j)

    children: list[float] = []
    afterpulses: list[float] = []
    last_afterpulse = -math.inf
    # Events before last_j1 are before the last afterpulse or in its dead
    # time, so they can no longer block a candidate.
    last_j1 = 0
    # Time of the latest rewritten real event. Candidates before dirty_end
    # have a floor at or before it.
    mod_t = -math.inf
    dirty_end = 0
    i = 0
    while True:
        nxt = i if i < dirty_end else next_ok[i]
        if children and (nxt == m or children[0] <= cs[nxt]):
            c = heappop(children)
            # Candidates skipped up to here were clean and rejected.
            i = bisect_left(cs, c, i, nxt)
            if c < last_afterpulse + dead_ns:
                continue
            j0_c = seek(c, last_j1)
            bulk = False
        else:
            if nxt == m:
                break
            i = nxt + 1
            if not keep[parents[nxt]]:
                continue
            c = cs[nxt]
            if c < last_afterpulse + dead_ns:
                continue
            j0_c = j0s[nxt]
            bulk = nxt >= dirty_end and stops[nxt] >= 0
        if bulk:
            end = stops[nxt]
            if end > j0_c:
                o = offsets[nxt]
                keep[j0_c:end] = pattern[o : o + end - j0_c]
            j1_c = j1s[nxt]
        else:
            floor_c = c - 2.0 * dead_ns
            last_t = last_afterpulse
            k = j0_c - 1
            while k >= last_j1:
                t = tv[k]
                if t < floor_c:
                    break
                if keep[k]:
                    last_t = max(last_t, t)
                    break
                k -= 1
            if c < last_t + dead_ns:
                continue
            j1_c = seek(c + dead_ns, j0_c)
            if j1_c > j0_c:
                keep[j0_c:j1_c] = bytes(j1_c - j0_c)
            end = j1_c
            while end < n and not keep[end]:
                keep[end] = 1
                k = seek(tv[end] + dead_ns, end + 1)
                if k > end + 1:
                    keep[end + 1 : k] = bytes(k - end - 1)
                end = k
        afterpulses.append(c)
        last_afterpulse = c
        last_j1 = j1_c
        if end > j0_c and tv[end - 1] > mod_t:
            mod_t = tv[end - 1]
            dirty_end = bisect_right(floors, mod_t, i)
        delay = next(marks)
        if delay is not None:
            spawned = c + dead_ns + delay
            if spawned < horizon_ns:
                heappush(children, spawned)
    # Equal times are equal values, so a stable merge of the two sorted
    # runs gives the same array as inserting each afterpulse.
    real = times_ns.compress(np.frombuffer(keep, dtype=bool))
    return np.sort(np.concatenate((real, afterpulses)), kind="stable")


def _dead_time_pass(
    times_ns: np.ndarray, det: DetectorModel, rng: np.random.Generator, horizon_ns: float
) -> np.ndarray:
    """Non-paralyzable gating of a sorted stream, optionally with afterpulses.

    Without afterpulsing this is ``_gate`` alone and draws no random
    numbers. With it, every real event's afterpulse mark is drawn up front,
    ``rng.random(n) < p`` and then one exponential delay of scale dead per
    spawner; the afterpulses' own marks follow from the same ``rng`` as
    they are needed, and ``_afterpulse_pass`` settles the candidates.
    """
    dead_ns = det.dead_time_us * 1e3
    p_after = det.afterpulse_probability
    if p_after == 0.0:
        return times_ns.compress(_gate(times_ns, dead_ns))
    spawners = np.flatnonzero(rng.random(times_ns.size) < p_after)
    delays_ns = rng.exponential(dead_ns, spawners.size)
    marks = _afterpulse_marks(rng, p_after, dead_ns)
    return _afterpulse_pass(times_ns, dead_ns, spawners, delays_ns, horizon_ns, marks)


def simulate_detection(
    arrivals,
    det: DetectorModel,
    duration_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stochastic detector response to a stream of firing photons.

    Args:
        arrivals: sorted times of the photons that fire the detector; the
            caller has already thinned them by the quantum efficiency.
        det: detector parameters.
        duration_s: observation window for dark-count generation, seconds.
        rng: random generator (caller owns the substream).

    Returns:
        Sorted detection timestamps in ns. The arrivals are smeared by the
        Gaussian jitter, homogeneous Poisson dark counts are merged in, and
        a non-paralyzable dead time gates the combined stream.

    Raises:
        DomainError: arrival times not sorted, or negative duration.
    """
    if duration_s < 0:
        raise DomainError(f"duration must be >= 0, got {duration_s} s")
    fired = np.asarray(arrivals, dtype=float)
    if fired.size and np.any(fired[1:] < fired[:-1]):
        raise DomainError("arrival times must be sorted ascending")

    sigma = det.jitter_sigma_ns()
    jitter = rng.normal(0.0, sigma, fired.size) if sigma > 0 and fired.size else None
    n_dark = rng.poisson(det.dark_count_rate_hz * duration_s)

    # The jittered arrivals and the darks share one buffer, sorted in place.
    stream = np.empty(fired.size + n_dark)
    if jitter is None:
        stream[: fired.size] = fired
    else:
        np.add(fired, jitter, out=stream[: fired.size])
        del jitter
    stream[fired.size :] = rng.uniform(0.0, duration_s * 1e9, n_dark)
    stream.sort()
    if det.dead_time_us == 0.0 and det.afterpulse_probability == 0.0:
        return stream
    horizon_ns = max(duration_s * 1e9, float(stream[-1]) if stream.size else 0.0)
    return _dead_time_pass(stream, det, rng, horizon_ns)


def build_histogram(
    detections_ns,
    sync_period_ns: float,
    bin_width_ps: float,
    origin_ns: float = 0.0,
    sync_pulses: int = 0,
) -> TacHistogram:
    """Fold detection timestamps on the sync period and bin them.

    The folded coordinate is (t - origin) mod period; total counts are
    conserved for every bin width.
    """
    if sync_period_ns <= 0:
        raise DomainError(f"sync period must be > 0, got {sync_period_ns}")
    t = np.asarray(detections_ns, dtype=float)
    folded = np.mod(t - origin_ns, sync_period_ns)
    return _bin_folded(folded, sync_period_ns, bin_width_ps, origin_ns, sync_pulses)


def _bin_folded(
    folded_ns: np.ndarray,
    sync_period_ns: float,
    bin_width_ps: float,
    origin_ns: float = 0.0,
    sync_pulses: int = 0,
) -> TacHistogram:
    """Bin times already folded on the sync period, the one binning rule.

    A time at or past the last bin's left edge, the period end included,
    lands in the last bin.
    """
    width_ns = bin_width_ps * 1e-3
    if width_ns <= 0:
        raise DomainError(f"bin width must be > 0, got {bin_width_ps}")
    n_bins = max(1, math.ceil(sync_period_ns / width_ns - 1e-9))
    # Dividing straight into the integer buffer truncates as astype would,
    # without a float temporary the size of the input.
    idx = np.empty(folded_ns.size, dtype=np.int64)
    np.divide(folded_ns, width_ns, out=idx, casting="unsafe")
    np.minimum(idx, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    return TacHistogram(
        bin_width_ps=bin_width_ps, origin_ns=origin_ns, counts=counts, sync_pulses=sync_pulses
    )


def peak_fwhm(hist: TacHistogram, peak_seed_ns: float, search_half_width_ns: float = 1.5) -> float:
    """Full width at half maximum of the peak nearest the seed position.

    Finds the local maximum within the search range and walks outward to
    the half-maximum crossings, locating each by linear interpolation
    between bin centers.

    Raises:
        DomainError: the identified peak bin holds fewer than 100 counts
            (stated in the error), or the crossings lie outside the
            histogram.
    """
    centers = hist.bin_centers_ns()
    counts = hist.counts.astype(float)
    in_range = np.abs(centers - peak_seed_ns) <= search_half_width_ns
    if not np.any(in_range):
        raise DomainError(
            f"no histogram bins within {search_half_width_ns} ns of {peak_seed_ns} ns"
        )
    region = np.flatnonzero(in_range)
    peak_idx = region[np.argmax(counts[region])]
    peak = counts[peak_idx]
    if peak < 100:
        raise DomainError(
            f"peak near {peak_seed_ns} ns has only {int(peak)} counts in its "
            f"maximum bin; need >= 100 for a stable width"
        )
    half = 0.5 * peak

    def crossing(step: int) -> float:
        i = peak_idx
        while 0 <= i + step < counts.size and counts[i + step] >= half:
            i += step
        j = i + step
        if not 0 <= j < counts.size:
            raise DomainError(
                f"half-maximum crossing walks off the histogram edge near "
                f"{peak_seed_ns} ns; peak is truncated"
            )
        # Linear interpolation between the last bin >= half and first < half.
        c1, c2 = counts[i], counts[j]
        frac = (c1 - half) / (c1 - c2)
        return centers[i] + frac * (centers[j] - centers[i])

    return crossing(+1) - crossing(-1)


def _gaussian_window_capture(mu_ns: float, sigma_ns: float, lo: float, hi: float) -> float:
    """P(lo <= X < hi) for X ~ Normal(mu, sigma); tolerates sigma = 0."""
    if sigma_ns == 0:
        return 1.0 if lo <= mu_ns < hi else 0.0
    z = 1.0 / (sigma_ns * math.sqrt(2.0))
    return 0.5 * (math.erf((hi - mu_ns) * z) - math.erf((lo - mu_ns) * z))


@dataclass(frozen=True)
class VisibilityFit:
    """Sinusoid fit N(beta) = offset + amplitude cos(beta - phase_offset)."""

    v_raw: float
    v_net: float
    amplitude: float
    offset: float
    phase_offset_rad: float
    residual_rms: float


def extract_visibility(
    points,
    background: float = 0.0,
    max_relative_residual: float = 0.2,
) -> VisibilityFit:
    """Fringe visibility by least-squares sinusoid fit.

    Fits N(beta) = A + C cos(beta - beta0) over the (phase, counts) points
    and reports V_raw = C/A and V_net = C/(A - B) for the supplied
    per-point background B.

    Raises:
        DomainError: fewer than 3 distinct phases, span below one full
            period, negative counts, or background >= fitted offset.
        FitError: relative residual above ``max_relative_residual`` (the
            data is not a sinusoid of the assumed period).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be (N, 2) of (phase, counts), got shape {pts.shape}")
    phases, counts = pts[:, 0], pts[:, 1]
    if np.any(counts < 0):
        raise DomainError("fringe counts must be >= 0")
    if background < 0:
        raise DomainError(f"background must be >= 0, got {background}")
    if np.unique(phases).size < 3:
        raise DomainError("need at least 3 distinct phases to fit a sinusoid")
    span = phases.max() - phases.min()
    if span < 2.0 * math.pi * (1.0 - 1e-6):
        raise DomainError(
            f"phase span {span:.4f} rad covers less than one fringe period"
        )
    basis = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(basis, counts, rcond=None)
    offset, p, q = coef
    amplitude = math.hypot(p, q)
    phase_offset = math.atan2(q, p)
    residuals = counts - basis @ coef
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    if offset <= 0:
        raise DomainError("fitted offset is not positive; no signal to normalize by")
    if residual_rms > max_relative_residual * offset:
        raise FitError(
            f"fringe is not sinusoidal: residual rms {residual_rms:.4g} exceeds "
            f"{max_relative_residual:.0%} of the offset {offset:.4g}"
        )
    if background >= offset:
        raise DomainError(
            f"background {background:.4g} >= fitted offset {offset:.4g}; "
            f"net visibility undefined"
        )
    v_raw = amplitude / offset
    v_net = amplitude / (offset - background)
    return VisibilityFit(
        v_raw=v_raw,
        v_net=v_net,
        amplitude=amplitude,
        offset=float(offset),
        phase_offset_rad=phase_offset,
        residual_rms=residual_rms,
    )
