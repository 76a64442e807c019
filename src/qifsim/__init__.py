"""Simulation toolkit for a coherence-preserving photonic quantum interface.

Models a difference-frequency conversion stage between a visible-band
emitter and the telecom O-band, together with everything needed to
characterize it: quasi-phase-matching dispersion, conversion and noise
budgets, time-bin qubit interferometry, single-photon detection, a
reproducible Monte Carlo experiment engine, and repeater-link rate
comparisons. The ``qifsim`` CLI drives all of it from scenario files.
"""

__version__ = "0.1.0"

import importlib

from . import conversion, detection, montecarlo, qpm, repeater, scenario, timebin
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
    # ``cli`` is imported on first use, not here: ``python -m qifsim.cli``
    # imports this package before it runs the module, and runpy warns when
    # the package has already imported it.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
