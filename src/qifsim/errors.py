"""Exception hierarchy shared across the package, and the one domain rule.

A ``Domain`` is one interval and its wording. ``check_domains`` holds a
dataclass's fields to theirs, ``require`` one function argument and
``grid`` each point of a flat grid; all three word a refusal alike.
"""

import sys
from typing import NamedTuple


class QifsimError(Exception):
    """Base class for all package errors."""


class DomainError(QifsimError, ValueError):
    """A physical or numerical input is outside its valid domain."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field  # the one field whose domain a value broke, if any


class SolverError(QifsimError, RuntimeError):
    """A root search failed to bracket or converge."""


class FitError(QifsimError, RuntimeError):
    """A model fit did not describe the data within tolerance."""


class ConfigError(QifsimError):
    """A scenario or data file is missing, malformed, or inconsistent."""


class Domain(NamedTuple):
    """The closed interval ``lo <= value <= hi`` of one value, and its wording.

    NaN is outside every domain; finite ones end at the largest float, and
    "> 0" starts at the smallest. An ``integer`` domain also refuses a
    float, even one of integral value, and a bool: the scenario format
    writes and reads such a value as an integer.
    """

    lo: float
    hi: float
    text: str
    integer: bool = False


_MAX = sys.float_info.max
FINITE = Domain(-_MAX, _MAX, "finite")
POSITIVE = Domain(5e-324, _MAX, "> 0 and finite")
NON_NEGATIVE = Domain(0.0, _MAX, ">= 0 and finite")
FRACTION = Domain(0.0, 1.0, "in [0, 1]")
POSITIVE_OR_INF = Domain(5e-324, float("inf"), "> 0")
COUNT = Domain(0, _MAX, "an integer >= 0", integer=True)


def is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool and for any float."""
    return hasattr(value, "__index__") and not isinstance(value, bool)


def domains(**fields: Domain) -> tuple[tuple[str, float, float, str, bool], ...]:
    """A class's ``_DOMAINS`` table for ``check_domains``: (field, lo, hi, text, integer) rows."""
    return tuple((name, *domain) for name, domain in fields.items())


def check_domains(obj) -> None:
    """Raise DomainError for the first field of ``obj`` outside its row of ``obj._DOMAINS``."""
    for name, lo, hi, text, integer in obj._DOMAINS:
        value = getattr(obj, name)
        if not (lo <= value <= hi and (not integer or is_integer(value))):
            raise DomainError(f"{name} must be {text}, got {value}", field=name)


def require(value, domain: Domain, name: str, unit: str = "") -> None:
    """Raise DomainError unless the argument ``value`` lies in ``domain``.

    An integer domain tests the type first, so a string is refused too.
    Only ``check_domains`` sets ``DomainError.field``: ``scenario`` reads
    it as a dataclass field's name, and an argument is none.
    """
    lo, hi, text, integer = domain
    if not ((not integer or is_integer(value)) and lo <= value <= hi):
        raise DomainError(f"{name} must be {text}, got {value}{unit}")


def grid(values, name: str, domain: Domain, unit: str = "") -> list[float]:
    """The points of a flat grid as floats, each ``require``-d to lie in ``domain``.

    Any one-dimensional iterable of numbers is a grid, a numpy array
    included; a scalar, a 0-d or 2-d array, a nested list, a string (whose
    digits would each be a point) or a non-number is refused as
    ``{name}s must be a flat grid of numbers``.
    """
    flat = getattr(values, "ndim", 1) == 1 and not isinstance(values, (str, bytes))
    try:
        points = [float(v) for v in values] if flat else None
    except (TypeError, ValueError):  # a scalar, a nested grid, or a non-number
        points = None
    if points is None:
        raise DomainError(f"{name}s must be a flat grid of numbers, got {values!r}")
    for point in points:
        require(point, domain, name, unit)
    return points


def reject_repeats(values: list[float], quantity: str) -> None:
    """A grid value keys its point's stream, so a repeat would replay its draws."""
    seen: set[float] = set()
    for value in values:
        if value in seen:
            raise ConfigError(
                f"{quantity} grid repeats the value {value!r}; each point draws "
                f"from a stream keyed by its value, so grid values must be distinct"
            )
        seen.add(value)
