"""Simulation toolkit for a coherence-preserving photonic quantum interface.

Models a difference-frequency conversion stage between a visible-band
emitter and the telecom O-band, together with everything needed to
characterize it: quasi-phase-matching dispersion, conversion and noise
budgets, time-bin qubit interferometry, single-photon detection, a
reproducible Monte Carlo experiment engine, and repeater-link rate
comparisons. The ``qifsim`` CLI drives all of it from scenario files.

The analytic modules and ``scenario`` need only the standard library and
load with the package; ``conversion`` also holds the efficiency sweep,
whose binomial draws come from the standard library. ``detection`` and
``montecarlo``, which need numpy, and ``cli`` load on first access
(``qifsim.montecarlo``, ``from qifsim import detection``). Only the
fringe-scan, histogram and validate commands import numpy; qpm-solve,
budget, repeater-rates and efficiency-curve never do.
"""

__version__ = "0.1.0"

import importlib

from . import conversion, qpm, repeater, scenario, timebin
from .errors import ConfigError, DomainError, FitError, QifsimError, SolverError

__all__ = [
    "__version__",
    "cli",
    "conversion",
    "detection",
    "montecarlo",
    "qpm",
    "repeater",
    "scenario",
    "timebin",
    "QifsimError",
    "DomainError",
    "SolverError",
    "FitError",
    "ConfigError",
]


def __getattr__(name: str):
    # ``detection``, ``montecarlo`` and ``cli`` are imported on first access,
    # not above: the first two import numpy, and ``python -m qifsim.cli``
    # imports this package before it runs the module, where runpy warns
    # when the package has already imported it.
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
