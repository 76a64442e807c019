"""Single-photon detector model and arrival-time analysis.

Covers the detector stochastics (dark counts, Gaussian timing jitter,
non-paralyzable dead time, optional afterpulsing), the arrival-time
histogram folded on the laser sync (one per scan, of its points' summed
bin counts), windowed peak selection, and the estimators used on top:
dead-time correction, peak FWHM, and fringe visibility.

Only the dead time reads events in time order, so the merged stream of
arrivals and dark counts is sorted once, and only when a dead time will
gate it; a detector without one returns its events unsorted.

The dead time is a vectorised gate: an event at least one dead time after
its predecessor is always accepted, and inside each cluster between such
events the acceptances follow "first event after the dead time ends", a
step taken by a block of clusters at once until few clusters are left,
which a scalar loop finishes. Afterpulses repair that gated stream: each real
event's afterpulse mark is drawn up front, and the candidates are settled
in time order. An accepted candidate blocks the real events in its dead
time, and the real chain is re-gated from there until it rejoins the old
one. One array step tests every real event's candidate against the gate;
a candidate whose backward window no re-gating has touched keeps that
test. A scalar loop takes the rest and the afterpulses' own candidates
by the sequential rule, and re-gates the real chain after every accepted
one. The output equals a sequential loop over the merged stream fed the
same marks. Steps over the whole stream go a block at a time, so none of
them builds an event-sized temporary, and the gated events are compacted
in place. The Monte Carlo engine lends ``simulate_detection`` its own
event buffer to work in; other callers' arrivals are copied.

The detector and window configuration (``DetectorModel``, ``ScaWindow``,
``FWHM_TO_SIGMA``) is defined in ``scenario``; import it from there.

Times are nanoseconds unless a suffix says otherwise; rates are hertz.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from .errors import FINITE, NON_NEGATIVE, POSITIVE, DomainError, FitError, grid, require

if TYPE_CHECKING:
    from .scenario import DetectorModel

__all__ = [
    "TacHistogram",
    "VisibilityFit",
    "dead_time_observe",
    "dead_time_correct",
    "simulate_detection",
    "peak_fwhm",
    "check_fit_phases",
    "extract_visibility",
]


@dataclass(frozen=True)
class TacHistogram:
    """Arrival-time histogram folded on the sync period.

    Bin 0 starts at the sync, and bin i covers [i, i + 1) bin widths after it.

    Attributes:
        bin_width_ps: bin width.
        counts: per-bin event counts.
        sync_pulses: sync (laser) pulses integrated over.
    """

    bin_width_ps: float
    counts: np.ndarray
    sync_pulses: int

    def __post_init__(self) -> None:
        require(self.bin_width_ps, POSITIVE, "bin width", " ps")
        if not np.isfinite(self.counts).all():
            raise DomainError("histogram counts must be finite")
        if np.any(self.counts < 0):
            raise DomainError("histogram counts must be >= 0")

    def total_counts(self) -> int:
        return int(self.counts.sum())

    def bin_centers_ns(self) -> np.ndarray:
        width_ns = self.bin_width_ps * 1e-3
        return (np.arange(self.counts.size) + 0.5) * width_ns

    def bin_edges_ns(self) -> np.ndarray:
        width_ns = self.bin_width_ps * 1e-3
        return np.arange(self.counts.size + 1) * width_ns


def dead_time_observe(rate_true_hz: float, dead_time_us: float) -> float:
    """Observed rate of a non-paralyzable detector, R / (1 + R tau)."""
    require(rate_true_hz, NON_NEGATIVE, "rate", " Hz")
    require(dead_time_us, NON_NEGATIVE, "dead time", " us")
    return rate_true_hz / (1.0 + rate_true_hz * dead_time_us * 1e-6)


def dead_time_correct(rate_obs_hz: float, dead_time_us: float) -> float:
    """True rate from an observed one, R_obs / (1 - R_obs tau).

    Exact inverse of non-paralyzable thinning.

    Raises:
        DomainError: R_obs tau >= 1; the detector is saturated and no
            finite true rate reproduces the observation.
    """
    require(rate_obs_hz, NON_NEGATIVE, "rate", " Hz")
    require(dead_time_us, NON_NEGATIVE, "dead time", " us")
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
# Elements per block where a whole-stream step would otherwise need an
# event-sized temporary: 2**14 float64s are 128 kB. Two points run at once,
# each with a few block temporaries live, and blocks this small keep those
# within the CPU cache; larger blocks for every step run no faster with
# one point in flight.
_BLOCK = 1 << 14
# Events per span whose longer clusters the gate's frontier steps at once.
# The frontier's numpy calls cost per step, not per event, so a span wider
# than a block makes fewer of them for the same acceptances; its index
# arrays hold one entry per cluster, and wider spans add peak memory.
_GATE_SPAN = 1 << 16


def _blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Bounds (lo, hi) of the blocks that tile range(start, stop), in order."""
    for lo in range(start, stop, _BLOCK):
        yield lo, min(lo + _BLOCK, stop)


def _reserve(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buffer``, or a copy of its first ``used`` entries with room for ``extra`` more.

    An engine buffer sized with room for its later appends is returned as
    it is, so an append costs no copy of the events already in it.
    """
    if buffer.size >= used + extra:
        return buffer
    grown = np.empty(used + extra)
    grown[:used] = buffer[:used]
    return grown


def _add_normal(rng: np.random.Generator, times_ns: np.ndarray, sigma_ns: float) -> None:
    """Add Normal(0, sigma) draws to ``times_ns`` in place, as one ``rng.normal`` call draws them.

    Normal(0, sigma) draws are sigma times standard normal ones, drawn a
    block at a time into one reused block-sized buffer.
    """
    buffer = np.empty(min(times_ns.size, _BLOCK))
    for lo, hi in _blocks(0, times_ns.size):
        block = buffer[: hi - lo]
        rng.standard_normal(out=block)
        block *= sigma_ns
        times_ns[lo:hi] += block


def _fill_uniform(rng: np.random.Generator, out: np.ndarray, high: float) -> None:
    """Fill ``out`` with Uniform(0, high) draws, as one ``rng.uniform`` call draws them.

    Uniform(0, high) draws are high times standard uniforms, drawn in place.
    """
    rng.random(out=out)
    out *= high


def _compress(times_ns: np.ndarray, mask: np.ndarray, tail=()) -> np.ndarray:
    """``times_ns[mask]`` followed by ``tail``, compacted in place.

    The kept events move to the front of ``times_ns`` a block at a time, so
    the temporaries stay block-sized and no second event-sized buffer is
    allocated. The tail goes after them when it fits in the events removed,
    else into one new buffer. ``times_ns`` holds garbage afterwards.
    """
    filled = 0
    for lo, hi in _blocks(0, mask.size):
        # Each block lands at or before its own place, over no unread event.
        block = times_ns[lo:hi].compress(mask[lo:hi])
        times_ns[filled : filled + block.size] = block
        filled += block.size
    out = _reserve(times_ns, filled, len(tail))
    out[filled : filled + len(tail)] = tail
    return out[: filled + len(tail)]


def _seek(times_ns: np.ndarray, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """First index at or after j whose time is at or after x, elementwise.

    Equals max(j, searchsorted(times_ns, x)). Most answers lie within a
    step or two of j, so two linear probes settle them for a fraction of
    the cost of a binary search, which then settles the rest.
    """
    n = times_ns.size
    for _ in range(2):
        j = j + (times_ns.take(np.minimum(j, n - 1)) < x)
    j = np.minimum(j, n)
    rest = np.flatnonzero(times_ns.take(np.minimum(j, n - 1)) < x)
    j[rest] = np.searchsorted(times_ns, x[rest])
    return j


def _next_true(mask: np.ndarray, i: int) -> int:
    """Index of the first True in ``mask[i:]``, or ``mask.size``; a block at a time."""
    for lo, hi in _blocks(i, mask.size):
        block = mask[lo:hi]
        j = int(block.argmax())
        if block[j]:
            return lo + j
    return mask.size


def _gate(times_ns: np.ndarray, dead_ns: float) -> np.ndarray:
    """Mask of the events a non-paralyzable detector accepts, dead_ns > 0.

    Equals the sequential rule (accept t when t >= last accepted + dead)
    bit for bit, and draws no random numbers. An event with
    t[i] >= t[i-1] + dead heads a cluster and is always accepted: every
    earlier acceptance ended its dead time by t[i-1] + dead, and rounding
    is monotone. The mask starts as the heads, tested a block at a time,
    which settles every single-event cluster. Inside a longer cluster the
    acceptances follow nxt(i) = searchsorted(t, t[i] + dead), the first
    event at or after the end of i's dead time. A frontier starts at the
    heads of those clusters only and steps along nxt while it stays in its
    cluster, so numpy runs once per acceptance in the longest cluster, and
    nxt is searched for frontier events only. Once at most
    ``_SCALAR_FRONTIER`` clusters are left, each is finished by the
    sequential rule over its own events, read one float at a time.
    """
    n = times_ns.size
    keep = np.ones(n, dtype=bool)
    for lo, hi in _blocks(1, n):
        np.greater_equal(times_ns[lo:hi], times_ns[lo - 1 : hi - 1] + dead_ns, out=keep[lo:hi])
    # A longer cluster starts at a head followed by an event in its dead
    # time, and ends at the next head after such an event, or at n. The
    # clusters are found and stepped a span of the stream at a time, each
    # span from the end of the last cluster stepped, so a head that a step
    # marks is never read as a cluster start, and the index arrays and the
    # frontier's temporaries hold one entry per cluster in the span.
    accepted = []
    lo = 0
    while lo < n - 1:
        hi = min(lo + _GATE_SPAN, n - 1)
        frontier = np.flatnonzero(keep[lo:hi] > keep[lo + 1 : hi + 1]) + lo
        if not frontier.size:
            lo = hi
            continue
        first, stop = int(frontier[0]), _next_true(keep, int(frontier[-1]) + 1)
        top = min(stop, n - 1)
        end = np.flatnonzero(keep[first:top] < keep[first + 1 : top + 1]) + first + 1
        if stop == n:
            end = np.append(end, n)
        while frontier.size > _SCALAR_FRONTIER:
            # frontier + 1 is not a head, so it falls in the frontier's dead time.
            frontier = _seek(times_ns, times_ns[frontier] + dead_ns, frontier + 2)
            inside = frontier < end
            frontier, end = frontier.compress(inside), end.compress(inside)
            keep[frontier] = True
            more = frontier + 1 < end
            frontier, end = frontier.compress(more), end.compress(more)
        for i, stop_i in zip(frontier.tolist(), end.tolist()):
            blocked_until = -math.inf
            for k, t in enumerate(memoryview(times_ns)[i:stop_i], i):
                if t >= blocked_until:
                    accepted.append(k)
                    blocked_until = t + dead_ns
        lo = max(hi, stop)
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

    Each real candidate is tested against the gate of the real stream in
    array steps. Its j0 and j1, the first events at or after c and c +
    dead, are found by short probes from its parent and from j0, and a
    binary search settles the few that the probes do not reach. The last
    real acceptance before c is found by stepping back from j0 over the
    rejected events in its backward window [c - 2 dead, c), three steps
    for every candidate and a scalar loop for the few still stepping.
    Until a rewrite reaches that window, the test is the sequential one,
    short of one comparison with the last accepted afterpulse, so a clean
    candidate that the real gate rejects is never visited. The loop visits
    the rest in time order, the afterpulses' own candidates on a heap, and
    re-walks after each accepted one on a bytearray of acceptances. It
    reads the candidates through memoryviews, 8 bytes each, and the array
    steps' temporaries are freed before it starts. The output is compacted
    over ``times_ns``, which the caller gives up.
    """
    keep0 = _gate(times_ns, dead_ns)
    n = times_ns.size
    cand = times_ns[spawners] + dead_ns + delays_ns
    below = cand < horizon_ns
    # Time order, ties by spawner index, as a sequential loop takes them.
    cand, parent = cand.compress(below), spawners.compress(below)
    order = np.argsort(cand, kind="stable")
    cand, parent = cand[order], parent[order]
    del below, order
    m = cand.size
    # j0 is the first event at or after c, j1 the first after its dead time.
    # c lies after its parent unless t + dead + delay rounds back to t, so
    # j0 is sought from the parent on, and searched afresh where it does.
    j0 = _seek(times_ns, cand, parent + 1)
    tied = np.flatnonzero(times_ns.take(parent) >= cand)
    j0[tied] = np.searchsorted(times_ns, cand.take(tied))
    j1 = _seek(times_ns, cand + dead_ns, j0)
    floor = cand - 2.0 * dead_ns
    # The real gate blocks c when its last acceptance before c lies at or
    # after the floor and c < t + dead. k steps back from j0 - 1 over the
    # rejected events at or after the floor, and stops on that acceptance,
    # before the floor, or at -1: three array steps, then a scalar loop
    # over the few candidates left.
    k = j0 - 1
    left = np.arange(m)
    for _ in range(3):
        k_left = k.take(left)
        at = np.maximum(k_left, 0)
        back = (k_left >= 0) & (times_ns.take(at) >= floor.take(left)) & ~keep0.take(at)
        left = left.compress(back)
        k[left] -= 1
    for a in left.tolist():
        floor_a, k_a = floor[a], int(k[a])
        while k_a >= 0 and times_ns[k_a] >= floor_a and not keep0[k_a]:
            k_a -= 1
        k[a] = k_a
    t_prev = times_ns.take(np.maximum(k, 0))
    ok = (k < 0) | (t_prev < floor) | (cand >= t_prev + dead_ns)
    del tied, k, left, k_left, at, back, t_prev
    # Index of the next candidate at or after i that the real gate accepts.
    next_ok = np.minimum.accumulate(np.append(np.where(ok, np.arange(m), m), m)[::-1])[::-1]
    del ok
    keep = bytearray(keep0)
    del keep0
    cs, parents, floors, j0s, j1s, next_ok = map(
        memoryview, (cand, parent, floor, j0, j1, np.ascontiguousarray(next_ok))
    )
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
            clean = False
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
            clean = nxt >= dirty_end
        if clean:
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
            # Floors ascend and mod_t only grows, so the window's end only
            # moves on, most often by a candidate or two.
            dirty_end = max(dirty_end, i)
            while dirty_end < m and floors[dirty_end] <= mod_t:
                dirty_end += 1
        delay = next(marks)
        if delay is not None:
            spawned = c + dead_ns + delay
            if spawned < horizon_ns:
                heappush(children, spawned)
    del cs, parents, floors, j0s, j1s, next_ok, cand, parent, floor, j0, j1
    # Equal times are equal values, so a stable sort of the two sorted runs,
    # which merges them through a buffer the size of the shorter one, gives
    # the same array as inserting each afterpulse.
    out = _compress(times_ns, np.frombuffer(keep, dtype=bool), afterpulses)
    out.sort(kind="stable")
    return out


def _spawners(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Ascending indices below n, each one present with probability p > 0.

    The gaps between them are geometric, so there is one draw per index, a
    chunk of 10 sigma above the mean count at a time until they pass n. A
    gap is cut to n + 1, which passes n all the same, so no sum overflows.
    """
    size = int(n * p + 10.0 * math.sqrt(n * p)) + 16
    chunks, last = [], -1
    while last < n:
        gaps = rng.geometric(p, size)
        np.minimum(gaps, n + 1, out=gaps)
        gaps[0] += last
        np.cumsum(gaps, out=gaps)
        chunks.append(gaps)
        last = int(gaps[-1])
    found = np.concatenate(chunks)
    return found[: np.searchsorted(found, n)]


def _dead_time_pass(
    times_ns: np.ndarray, det: DetectorModel, rng: np.random.Generator, horizon_ns: float
) -> np.ndarray:
    """Non-paralyzable gating of a sorted stream, optionally with afterpulses.

    Without afterpulsing this is ``_gate`` alone and draws no random
    numbers. With it, every real event's afterpulse mark is drawn up front:
    the spawners by ``_spawners``, then one exponential delay of scale dead
    per spawner; the afterpulses' own marks follow from the same ``rng`` as
    they are needed, and ``_afterpulse_pass`` settles the candidates. The
    accepted events are compacted to the front of ``times_ns``, which the
    caller gives up.
    """
    dead_ns = det.dead_time_us * 1e3
    p_after = det.afterpulse_probability
    if p_after == 0.0:
        return _compress(times_ns, _gate(times_ns, dead_ns))
    spawners = _spawners(rng, times_ns.size, p_after)
    delays_ns = rng.exponential(dead_ns, spawners.size)
    marks = _afterpulse_marks(rng, p_after, dead_ns)
    return _afterpulse_pass(times_ns, dead_ns, spawners, delays_ns, horizon_ns, marks)


def simulate_detection(
    arrivals,
    det: DetectorModel,
    duration_s: float,
    rng: np.random.Generator,
    *,
    buffer: np.ndarray | None = None,
) -> np.ndarray:
    """Stochastic detector response to a stream of firing photons.

    Args:
        arrivals: times of the photons that fire the detector, in any
            order; the caller has already thinned them by the quantum
            efficiency. Their order only decides which jitter draw each
            one takes, and, without a dead time, the order of the output.
        det: detector parameters.
        duration_s: observation window for dark-count generation, seconds.
        rng: random generator (caller owns the substream).
        buffer: optional 1-D float64 array that the detector works in and
            the caller gives up. The arrivals are copied to its start
            unless they are already there (``arrivals`` is
            ``buffer[:n]``), and the entries after them are room for the
            dark counts. Without one, the detector works on a copy.

    Returns:
        Detection timestamps in ns. The arrivals are smeared by the
        Gaussian jitter and homogeneous Poisson dark counts are appended.
        With a dead time the combined stream is sorted once and gated by
        it, and the detections come in time order. Without one nothing
        reads the order, so nothing sorts: the detections are the
        jittered arrivals, in their given order, then the dark counts.
        With ``buffer`` they are a view of it, or of a grown copy when it
        had too little room; without, an array of their own.

    Raises:
        DomainError: arrival times not 1-D, negative duration, or a
            buffer that is not 1-D float64 or is shorter than the arrivals.
    """
    require(duration_s, NON_NEGATIVE, "duration", " s")
    fired = np.array(arrivals, dtype=float) if buffer is None else np.asarray(arrivals, dtype=float)
    if fired.ndim != 1:
        raise DomainError(f"arrival times must be 1-D, got shape {fired.shape}")
    n_fired = fired.size
    if buffer is None:
        stream = fired
    else:
        if buffer.dtype != np.float64 or buffer.ndim != 1 or buffer.size < n_fired:
            raise DomainError(
                f"buffer must be 1-D float64 with room for {n_fired} arrivals, "
                f"got {buffer.dtype} of shape {buffer.shape}"
            )
        if n_fired and (fired.ctypes.data, fired.strides) != (buffer.ctypes.data, buffer.strides):
            buffer[:n_fired] = fired
        stream = buffer
    # A caller that passes its arrivals as a temporary frees them here.
    del arrivals, fired

    sigma = det.jitter_sigma_ns()
    if sigma > 0:
        _add_normal(rng, stream[:n_fired], sigma)
    n_dark = rng.poisson(det.dark_count_rate_hz * duration_s)
    stream = _reserve(stream, n_fired, n_dark)[: n_fired + n_dark]
    _fill_uniform(rng, stream[n_fired:], duration_s * 1e9)
    # Only the dead time reads the events in time order; without one (and so
    # without afterpulses, which need it) the stream stays unsorted.
    if det.dead_time_us > 0:
        stream.sort()
        horizon_ns = max(duration_s * 1e9, float(stream[-1]) if stream.size else 0.0)
        detections = _dead_time_pass(stream, det, rng, horizon_ns)
    else:
        detections = stream
    if buffer is None and detections.base is not None and detections.base.size > detections.size:
        # A view would keep the whole pre-gate stream alive.
        detections = detections.copy()
    return detections


def _bin_folded(folded_ns: np.ndarray, sync_period_ns: float, bin_width_ps: float) -> np.ndarray:
    """Int64 counts of times already folded on the sync period, the one binning rule.

    A time at or past the last bin's left edge, the period end included,
    lands in the last bin. The engine sums each point's counts into the
    scan's one ``TacHistogram``; its width is the scenario's, which the
    scenario's domain holds above 0.
    """
    width_ns = bin_width_ps * 1e-3
    n_bins = max(1, math.ceil(sync_period_ns / width_ns - 1e-9))
    # Dividing straight into the integer buffer truncates as astype would,
    # without a float temporary; a block at a time, the index buffer stays
    # block-sized too, and the blocks' counts add up to the whole count.
    counts = np.zeros(n_bins, dtype=np.int64)
    idx = np.empty(min(folded_ns.size, _BLOCK), dtype=np.int64)
    for lo, hi in _blocks(0, folded_ns.size):
        block = idx[: hi - lo]
        np.divide(folded_ns[lo:hi], width_ns, out=block, casting="unsafe")
        np.minimum(block, n_bins - 1, out=block)
        counts += np.bincount(block, minlength=n_bins)
    return counts


# peak_fwhm looks for the peak maximum this far either side of the seed, ns.
PEAK_SEARCH_NS = 1.5


def peak_fwhm(hist: TacHistogram, peak_seed_ns: float) -> float:
    """Full width at half maximum of the peak nearest the seed position.

    Finds the local maximum within ``PEAK_SEARCH_NS`` and walks outward to
    the half-maximum crossings, locating each by linear interpolation
    between bin centers.

    Raises:
        DomainError: the identified peak bin holds fewer than 100 counts
            (stated in the error), or the crossings lie outside the
            histogram.
    """
    centers = hist.bin_centers_ns()
    counts = hist.counts.astype(float)
    in_range = np.abs(centers - peak_seed_ns) <= PEAK_SEARCH_NS
    if not np.any(in_range):
        raise DomainError(f"no histogram bins within {PEAK_SEARCH_NS} ns of {peak_seed_ns} ns")
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


@dataclass(frozen=True)
class VisibilityFit:
    """Sinusoid fit N(beta) = offset + amplitude cos(beta - phase_offset)."""

    v_raw: float
    v_net: float
    amplitude: float
    offset: float
    phase_offset_rad: float
    residual_rms: float


def check_fit_phases(phases) -> None:
    """Refuse a phase grid that ``extract_visibility`` cannot fit.

    Raises:
        DomainError: a grid that is not flat, a phase not finite, fewer
            than 3 distinct phases, or a span below one full fringe period.
    """
    phases = np.sort(grid(phases, "phase", FINITE, " rad"))
    if phases.size < 3 or np.count_nonzero(phases[1:] != phases[:-1]) < 2:
        raise DomainError("need at least 3 distinct phases to fit a sinusoid")
    span = phases[-1] - phases[0]
    if span < 2.0 * math.pi * (1.0 - 1e-6):
        raise DomainError(
            f"phase span {span:.4f} rad covers less than one fringe period"
        )


# extract_visibility refuses a fit whose residual rms exceeds this share of
# the fitted offset.
FIT_RESIDUAL_LIMIT = 0.2


def extract_visibility(points, background: float = 0.0) -> VisibilityFit:
    """Fringe visibility by least-squares sinusoid fit.

    Fits N(beta) = A + C cos(beta - beta0) over the (phase, counts) points
    and reports V_raw = C/A and V_net = C/(A - B) for the supplied
    per-point background B.

    Raises:
        DomainError: a phase not finite, fewer than 3 distinct phases,
            span below one full period, counts negative or not finite, or
            background >= fitted offset.
        FitError: relative residual above ``FIT_RESIDUAL_LIMIT`` (the
            data is not a sinusoid of the assumed period).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be (N, 2) of (phase, counts), got shape {pts.shape}")
    phases, counts = pts[:, 0], pts[:, 1]
    if not np.isfinite(counts).all():
        raise DomainError("fringe counts must be finite")
    if np.any(counts < 0):
        raise DomainError("fringe counts must be >= 0")
    require(background, NON_NEGATIVE, "background")
    check_fit_phases(phases)
    basis = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(basis, counts, rcond=None)
    offset, p, q = coef
    amplitude = math.hypot(p, q)
    phase_offset = math.atan2(q, p)
    residuals = counts - basis @ coef
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    if offset <= 0:
        raise DomainError("fitted offset is not positive; no signal to normalize by")
    if residual_rms > FIT_RESIDUAL_LIMIT * offset:
        raise FitError(
            f"fringe is not sinusoidal: residual rms {residual_rms:.4g} exceeds "
            f"{FIT_RESIDUAL_LIMIT:.0%} of the offset {offset:.4g}"
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
