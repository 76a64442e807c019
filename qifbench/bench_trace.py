"""Span tracer for the traced benchmark run.

The benchmark wraps the public functions of each qifsim module from the
outside; the package itself carries no tracing code. Every call to a
wrapped function records a span (name, start, end, parent id) in memory.
Per-layer metrics are computed from the spans of one pass over a workload,
and the spans of the last pass are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# Modules whose public functions are traced, in the order they are reported.
TRACED_MODULES = (
    "cli",
    "scenario",
    "qpm",
    "conversion",
    "timebin",
    "detection",
    "montecarlo",
    "repeater",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that its child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered_length(clipped)


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording a span per call; ``on_result(args, result)`` runs inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def count_calls(self, name: str, fn):
        """Return ``fn`` counting its calls under ``name``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def children(self) -> dict[int | None, list[Span]]:
        index: dict[int | None, list[Span]] = defaultdict(list)
        for span in self.spans:
            index[span.parent].append(span)
        return index

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def install(tracer: Tracer, package, hooks=None):
    """Wrap every public function of the traced modules, wherever it is looked up.

    A function imported by name into another module (``from .detection
    import simulate_detection``) is replaced in that module's namespace too.
    ``hooks`` maps a span name to an ``on_result`` callback. Returns a
    function that restores the originals.
    """
    hooks = hooks or {}
    modules = [getattr(package, name) for name in TRACED_MODULES]
    namespaces = [package, *modules]
    wrapped = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{short}.{attr}"
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                undo.append((ns, attr, value))
                setattr(ns, attr, wrapped[id(value)][1])
    sellmeier = package.qpm.SellmeierModel
    original_index = sellmeier.index
    sellmeier.index = tracer.count_calls("qpm.index_calls", original_index)
    undo.append((sellmeier, "index", original_index))

    def restore() -> None:
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in ms).

    A module's time is the summed duration of its outermost spans, those
    whose parent belongs to another module, so nested calls within a module
    are not counted twice. A layer that the pass never calls reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    children = tracer.children()
    modules = {span.id: span.module for span in tracer.spans}

    def ms(*names: str) -> float:
        return 1e3 * sum(span.duration for n in names for span in by_name[n])

    def self_ms(name: str) -> float:
        return 1e3 * sum(self_time(span, children[span.id]) for span in by_name[name])

    def module_spans(module: str) -> list[Span]:
        return [span for span in tracer.spans if span.module == module]

    def module_ms(module: str) -> float:
        return 1e3 * sum(
            span.duration
            for span in module_spans(module)
            if modules.get(span.parent) != module
        )

    counters = tracer.counters
    arrivals = counters["detection.arrivals"]
    return {
        "cli.self_ms": self_ms("cli.main"),
        "cli.csv_bytes": counters["cli.csv_bytes"],
        "scenario.load_ms": ms("scenario.load_scenario"),
        "scenario.digest_calls": len(by_name["scenario.scenario_digest"]),
        "scenario.digest_ms": ms("scenario.scenario_digest"),
        "qpm.solve_ms": ms("qpm.solve_poling_period", "qpm.solve_pump_wavelength"),
        "qpm.index_calls": counters["qpm.index_calls"],
        "conversion.calls": len(module_spans("conversion")),
        "conversion.ms": module_ms("conversion"),
        "timebin.analyze_calls": len(by_name["timebin.analyze"]),
        "timebin.ms": module_ms("timebin"),
        "detection.simulate_ms": ms("detection.simulate_detection"),
        "detection.arrivals": arrivals,
        "detection.detections": counters["detection.detections"],
        "detection.yield": counters["detection.detections"] / arrivals if arrivals else 0.0,
        "detection.histogram_ms": ms("detection.build_histogram"),
        "detection.fit_ms": ms("detection.extract_visibility"),
        "montecarlo.run_ms": ms("montecarlo.run_fringe_scan"),
        "montecarlo.self_ms": self_ms("montecarlo.run_fringe_scan"),
        "montecarlo.sample_ms": ms("montecarlo.sample_photon_numbers"),
        "montecarlo.photons": counters["montecarlo.photons"],
        "montecarlo.oracle_ms": ms("montecarlo.expected_fringe"),
        "montecarlo.sweep_ms": ms("montecarlo.run_efficiency_sweep"),
        "repeater.calls": len(module_spans("repeater")),
        "repeater.ms": module_ms("repeater"),
    }


def run_children_ms(tracer: Tracer) -> float:
    """Summed duration of the direct children of every ``run_fringe_scan`` span."""
    children = tracer.children()
    return 1e3 * sum(
        child.duration
        for span in tracer.spans
        if span.name == "montecarlo.run_fringe_scan"
        for child in children[span.id]
    )
