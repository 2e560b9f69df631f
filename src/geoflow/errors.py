"""Exception types shared across the package, and the one rule for each kind
of public argument: a count, a real scalar, an array of numbers and a
sequence. Each rule raises InvalidInput; no other module tests such an
argument's type, finiteness or range by hand."""

import operator
import reprlib
from numbers import Integral, Real

import numpy as np


class GeoflowError(Exception):
    """Base class for all library errors."""


class OutOfChart(GeoflowError):
    """A chart point lies outside the surface's coordinate domain."""


class OutOfDomain(GeoflowError):
    """A flow evaluation (t, v) lies outside the maximal flow domain."""


class StepFailure(GeoflowError):
    """The adaptive step controller gave up, or a fixed RK4 step was not finite."""


class DomainTooSmall(GeoflowError):
    """The chart domain cannot accommodate the requested smoothing width or probe set."""


class UnknownSurface(GeoflowError):
    """Requested catalog surface does not exist."""


class DisconnectedMesh(GeoflowError):
    """No path between mesh vertices (defensive; cannot occur on a box grid)."""


class ConfigError(GeoflowError):
    """Invalid run configuration."""


class InvalidInput(GeoflowError, ValueError):
    """A request argument is malformed: wrong shape, non-finite or out of range."""


def require_count(value, least: int, what: str):
    """Raise InvalidInput unless value is an integer of at least least, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidInput(f"{what} must be an integer of at least {least}, got {value!r}")


def _shown(value) -> str:
    """value's repr on one line for a message, a numpy scalar's as its number."""
    return " ".join(reprlib.repr(value.item() if isinstance(value, np.generic) else value).split())


def _require_range(x, value, what, finite, above=None, at_least=None, at_most=None):
    """x, converted from value; raise InvalidInput unless every entry of x is
    finite where asked and within the bounds given."""
    bounds = [(op, name, b) for op, name, b in ((operator.gt, ">", above), (operator.ge, ">=", at_least),
                                                (operator.le, "<=", at_most)) if b is not None]
    if (finite and not np.all(np.isfinite(x))) or not all(np.all(op(x, b)) for op, _, b in bounds):
        need = ", ".join(["finite"] * finite + [f"{name} {b:g}" for _, name, b in bounds])
        raise InvalidInput(f"{what} must be {need}, got {_shown(value)}")
    return x


def require_real(value, what: str, *, above=None, at_least=None, at_most=None) -> float:
    """value as a float; raise InvalidInput unless it is a real number, not a
    bool, finite, and > above, >= at_least and <= at_most where given."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInput(f"{what} must be a real number, got {_shown(value)}")
    return _require_range(float(value), value, what, True, above, at_least, at_most)


def require_array(value, what: str, *, finite=False, at_least=None) -> np.ndarray:
    """value as a float array, not copied when it is one; raise InvalidInput
    unless it converts from numbers other than a bool, and, where asked,
    unless every entry is finite and >= at_least. Shapes are the caller's."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # not numbers, or ragged
        array = None
    if array is None or isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{what} must be an array of numbers, got {_shown(value)}")
    return _require_range(array, value, what, finite, at_least=at_least)


def require_sequence(value, what: str, least: int = 0) -> list:
    """value's items as a list; raise InvalidInput unless it is an iterable
    other than a string, with at least least items."""
    if isinstance(value, str) or not np.iterable(value):
        raise InvalidInput(f"{what} must be a sequence, got {_shown(value)}")
    items = list(value)
    if len(items) < least:
        raise InvalidInput(f"{what} must hold at least {least}, got {len(items)}")
    return items
