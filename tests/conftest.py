import numpy as np
import pytest

from geoflow.catalog import make_surface

CATALOG_NAMES = ["flat", "hemisphere", "trough", "c21_cubic", "c2alpha", "vee"]
C2_AND_BETTER = ["flat", "hemisphere", "trough", "c21_cubic", "c2alpha"]
C3_AND_BETTER = ["flat", "hemisphere", "trough"]


@pytest.fixture(scope="session")
def surfaces():
    return {name: make_surface(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def flat(surfaces):
    return surfaces["flat"]


@pytest.fixture(scope="session")
def hemisphere(surfaces):
    return surfaces["hemisphere"]


@pytest.fixture(scope="session")
def trough(surfaces):
    return surfaces["trough"]


@pytest.fixture(scope="session")
def c21_cubic(surfaces):
    return surfaces["c21_cubic"]


@pytest.fixture(scope="session")
def c2alpha(surfaces):
    return surfaces["c2alpha"]


@pytest.fixture(scope="session")
def vee(surfaces):
    return surfaces["vee"]


def random_chart_points(surface, n, rng, shrink=0.8):
    """n random points well inside the chart (membership respected)."""
    center = 0.5 * (surface.domain_lo + surface.domain_hi)
    half = 0.5 * (surface.domain_hi - surface.domain_lo)
    pts = []
    while len(pts) < n:
        x = center + (rng.random(surface.dim) * 2 - 1) * shrink * half
        if surface.contains(x):
            pts.append(x)
    return np.array(pts)


def grid_points(surface, per_axis):
    """Chart points of a per_axis^m grid over the box, membership applied."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(surface.domain_lo, surface.domain_hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return pts[surface.contains_batch(pts)]
