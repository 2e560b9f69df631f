"""Exception types shared across the package, and the count and number checks that raise one."""

from numbers import Integral, Real


class GeoflowError(Exception):
    """Base class for all library errors."""


class OutOfChart(GeoflowError):
    """A chart point lies outside the surface's coordinate domain."""


class OutOfDomain(GeoflowError):
    """A flow evaluation (t, v) lies outside the maximal flow domain."""


class StepFailure(GeoflowError):
    """The adaptive step controller could not meet the requested tolerance."""


class DegeneratePlane(GeoflowError):
    """The two vectors spanning a curvature plane are (numerically) dependent."""


class DomainTooSmall(GeoflowError):
    """The chart domain cannot accommodate the requested smoothing width."""


class QuadratureFailure(GeoflowError):
    """Adaptive quadrature did not converge."""


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


def require_real(value, what: str) -> float:
    """Return value as a float; raise InvalidInput unless it is a real number, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInput(f"{what} must be a real number, got {value!r}")
    return float(value)
