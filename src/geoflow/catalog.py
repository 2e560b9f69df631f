"""Built-in surface catalog and the surface definition file format.

Each entry constructs a GraphSurface with hand-coded derivative arrays and
closed-form certified bounds, and records the closed-form facts (known
geodesics, curvature values) that the test oracles rely on.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OutOfChart, UnknownSurface, require_array
from .surface import GraphSurface, GridSurface, Regularity, SurfaceBounds


@dataclass
class SurfaceCatalogEntry:
    description: str
    build: callable
    oracles: dict = field(default_factory=dict)


def _zeros_like_point(X, shape):
    X = np.asarray(X, dtype=float)
    return np.zeros(X.shape[:-1] + shape)


def _flat():
    def h(X):
        return _zeros_like_point(X, (1,))

    def derivatives(X):
        return _zeros_like_point(X, (2, 1)), _zeros_like_point(X, (2, 2, 1))

    return GraphSurface(
        "flat", 2, 1, [-1.0, -1.0], [1.0, 1.0], h, derivatives,
        regularity=Regularity("smooth"), bounds=SurfaceBounds(0.0, 0.0, 0.0),
    )


def _hemisphere():
    r = 0.8

    def safe(X):
        X = np.asarray(X, dtype=float)
        r2 = np.einsum("...i,...i->...", X, X)
        if np.any(r2 >= 1.0 - 1e-12):
            raise OutOfChart("hemisphere height undefined at |x| >= 1")
        return X, np.sqrt(1.0 - r2)

    def h(X):
        _, s = safe(X)
        return s[..., None]

    def derivatives(X):
        X, s = safe(X)  # one rim check and square root for both arrays
        hess = -np.einsum("...i,...j->...ij", X, X) / (s ** 3)[..., None, None]
        idx = np.arange(2)
        hess[..., idx, idx] -= 1.0 / s[..., None]
        return (-X / s[..., None])[..., None], hess[..., None]

    def member(X):
        X = np.asarray(X, dtype=float)
        return np.einsum("...i,...i->...", X, X) <= r * r + 1e-15

    # |grad h| = |x|/s and max |Hess h(u, u)| = |x|^2/s^3 + 1/s = 1/s^3, with
    # s = sqrt(1 - |x|^2), peak on the rim; the sphere's curvatures are all 1.
    rim = float(np.sqrt(1.0 - r * r))
    return GraphSurface(
        "hemisphere", 2, 1, [-r, -r], [r, r], h, derivatives,
        regularity=Regularity("smooth"), membership=member,
        bounds=SurfaceBounds(r / rim, rim ** -3, 1.0),
    )


def _ridge(X):
    """Crease switch of a profile whose f'' is not smooth at x1 = 0."""
    return np.asarray(X, dtype=float)[..., 0]


def _profile_surface(name, f, df, d2f, regularity, peak, crease=None):
    """Surface of the form h(x1, x2) = f(x1) over [-0.8, 0.8]^2; intrinsically flat.
    |f'| and |f''| are nondecreasing in |x1| for every profile here, so they peak at
    the chart edge; the one principal curvature f''/(1 + f'^2)^(3/2) peaks at peak."""
    def h(X):
        X = np.asarray(X, dtype=float)
        return f(X[..., 0])[..., None]

    def derivatives(X):
        X = np.asarray(X, dtype=float)
        grad = _zeros_like_point(X, (2, 1))
        grad[..., 0, 0] = df(X[..., 0])
        hess = _zeros_like_point(X, (2, 2, 1))
        hess[..., 0, 0, 0] = d2f(X[..., 0])
        return grad, hess

    kappa = d2f(peak) / (1.0 + df(peak) ** 2) ** 1.5
    return GraphSurface(
        name, 2, 1, [-0.8, -0.8], [0.8, 0.8], h, derivatives,
        regularity=regularity, crease=crease,
        bounds=SurfaceBounds(float(abs(df(0.8))), float(abs(d2f(0.8))), float(kappa)),
    )


def _trough():
    return _profile_surface(
        "trough",
        lambda u: 0.5 * (np.cosh(u) - 1.0),
        lambda u: 0.5 * np.sinh(u),
        lambda u: 0.5 * np.cosh(u),
        Regularity("smooth"), np.arcsinh(np.sqrt(0.5)),  # sinh(u)^2 = 1/2
    )


def _c21_cubic():
    return _profile_surface(
        "c21_cubic",
        lambda u: np.abs(u) ** 3,
        lambda u: 3.0 * u * np.abs(u),
        lambda u: 6.0 * np.abs(u),
        Regularity("C2alpha", 1.0), 45.0 ** -0.25, crease=_ridge,  # u^4 = 1/45
    )


def _c2alpha(alpha=0.5):
    regularity = Regularity("C2alpha", alpha)  # rejects alpha that is not a number in (0, 1] first
    a = float(alpha)
    p = 2.0 + a
    return _profile_surface(
        "c2alpha",
        lambda u: np.abs(u) ** p,
        lambda u: p * np.sign(u) * np.abs(u) ** (p - 1.0),
        lambda u: p * (p - 1.0) * np.abs(u) ** a,
        regularity, min(0.8, (a / (p * p * (3.0 + 2.0 * a))) ** (0.5 / (1.0 + a))),
        crease=_ridge,
    )


def _vee():
    # The curvature 2/(1 + 4u^2)^(3/2) has sup 2, its limit at the crease,
    # where d2f(0) = 0; at the smallest positive double it evaluates to 2.
    return _profile_surface(
        "vee",
        lambda u: u * np.abs(u),
        lambda u: 2.0 * np.abs(u),
        lambda u: 2.0 * np.sign(u),
        Regularity("C11"), np.nextafter(0.0, 1.0), crease=_ridge,
    )


CATALOG = {
    "flat": SurfaceCatalogEntry(
        "plane h = 0; geodesics are straight lines",
        _flat, oracles={"sectional": 0.0, "geodesic": "straight line"},
    ),
    "hemisphere": SurfaceCatalogEntry(
        "unit sphere cap h = sqrt(1 - |x|^2), chart |x| <= 0.8; "
        "great circles through the pole project to x(t) = sin(t) * dir",
        _hemisphere, oracles={"sectional": 1.0, "geodesic": "great circle"},
    ),
    "trough": SurfaceCatalogEntry(
        "profile surface h = (cosh(x1) - 1)/2; developable, zero sectional curvature",
        _trough, oracles={"sectional": 0.0},
    ),
    "c21_cubic": SurfaceCatalogEntry(
        "h = |x1|^3; second derivatives Lipschitz but not differentiable at the ridge",
        _c21_cubic, oracles={"sectional": 0.0},
    ),
    "c2alpha": SurfaceCatalogEntry(
        "h = |x1|^(2+alpha); second derivatives alpha-Hoelder at the ridge",
        _c2alpha, oracles={"sectional": 0.0},
    ),
    "vee": SurfaceCatalogEntry(
        "h = x1 |x1|; bounded discontinuous second derivative across the crease",
        _vee, oracles={"sectional": 0.0},
    ),
}


def make_surface(name, **params) -> GraphSurface:
    """The catalog surface name built with params; InvalidInput for a parameter it does not take."""
    if not isinstance(name, str) or name not in CATALOG:
        raise UnknownSurface(f"no catalog surface named {name!r}")
    build = CATALOG[name].build
    if unknown := sorted(set(params) - set(inspect.signature(build).parameters)):
        raise InvalidInput(f"surface {name!r} takes no parameter {', '.join(unknown)}")
    return build(**params)


def surface_from_spec(spec: dict) -> GraphSurface:
    """Construct a surface from the JSON definition format.

    {"type": "catalog", "name": ..., "alpha": optional}
    {"type": "grid", "samples": [[...]], "domain": [[lo,hi],[lo,hi]],
     "regularity": ..., "alpha": optional}

    Raises InvalidInput for a spec that is not a dict or lacks a key its type needs.
    """
    if not isinstance(spec, dict):
        raise InvalidInput(f"a surface spec must be an object, got {spec!r}")
    kind = spec.get("type", "catalog")
    if kind not in ("catalog", "grid"):
        raise UnknownSurface(f"unknown surface spec type {kind!r}")
    if missing := [k for k in (["name"] if kind == "catalog" else ["samples", "domain"]) if k not in spec]:
        raise InvalidInput(f"surface spec missing key {missing[0]!r}")
    if kind == "catalog":
        params = {}
        if "alpha" in spec and spec["alpha"] is not None:
            params["alpha"] = spec["alpha"]
        return make_surface(spec["name"], **params)
    samples = require_array(spec["samples"], "grid samples", finite=True)
    if samples.ndim not in (2, 3):
        raise InvalidInput("grid samples must be an (Nx, Ny) or (Nx, Ny, c) array")
    # one message for every malformed domain; GridSurface rejects pairs that do not increase
    bad_domain = "grid domain must be [[x0, x1], [y0, y1]], finite and strictly increasing"
    try:
        domain = require_array(spec["domain"], "grid domain", finite=True)
    except InvalidInput as exc:
        raise InvalidInput(bad_domain) from exc
    if domain.shape != (2, 2):
        raise InvalidInput(bad_domain)
    (x0, x1), (y0, y1) = domain
    xa = np.linspace(x0, x1, samples.shape[0])
    ya = np.linspace(y0, y1, samples.shape[1])
    reg = Regularity.parse(spec.get("regularity", "smooth"), spec.get("alpha"))
    return GridSurface.from_samples(spec.get("name", "grid"), xa, ya, samples, regularity=reg)
