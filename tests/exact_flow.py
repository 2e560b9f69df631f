"""Exact geodesic flow and flow differential on the catalog's profile surfaces.

A profile surface h(x1, x2) = f(x1) is intrinsically flat: in the
coordinates (s(x1), x2), with s(u) the arc length of the profile from 0 to
u, its geodesics are straight lines at constant speed. So sigma = s'(x1) y1
is constant, s(x1(t)) = s(x1(0)) + sigma t, x2 is linear in t, and
y1 = sigma / s'(x1(t)). s is a 60-node Gauss-Legendre sum on [0, u], which
lies on one side of the crease x1 = 0, and is inverted by Newton's method;
no adaptive quadrature is used.
"""

import numpy as np

from geoflow.flow import TangentVector
from geoflow.jacobi import chart_to_covariant

# f' and f'' of each profile, written out as in geoflow.catalog
PROFILES = {
    "trough": (lambda u: 0.5 * np.sinh(u), lambda u: 0.5 * np.cosh(u)),
    "c21_cubic": (lambda u: 3.0 * u * abs(u), lambda u: 6.0 * abs(u)),
    "c2alpha": (lambda u: 2.5 * np.sign(u) * abs(u) ** 1.5, lambda u: 3.75 * abs(u) ** 0.5),
    "vee": (lambda u: 2.0 * abs(u), lambda u: 2.0 * np.sign(u)),
}
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(60)


def _ds(name, u):
    """s'(u) = sqrt(1 + f'(u)^2)."""
    return np.sqrt(1.0 + PROFILES[name][0](u) ** 2)


def _d2s(name, u):
    """s''(u) = f'(u) f''(u) / s'(u)."""
    df, d2f = PROFILES[name]
    return df(u) * d2f(u) / _ds(name, u)


def _s(name, u):
    """Arc length of the profile from 0 to u."""
    return 0.5 * u * (_WEIGHTS @ _ds(name, 0.5 * u * (_NODES + 1.0)))


def exact_flow(name, t, v: TangentVector) -> TangentVector:
    """phi(t, v) on the profile surface name."""
    (x1, x2), (y1, y2) = v.x, v.y
    sigma = _ds(name, x1) * y1
    target, u = _s(name, x1) + sigma * t, x1 + y1 * t
    for _ in range(20):  # Newton's method for s(u) = target
        u -= (_s(name, u) - target) / _ds(name, u)
    return TangentVector([u, x2 + y2 * t], [sigma / _ds(name, u), y2])


def exact_differential(surface, t, v: TangentVector) -> np.ndarray:
    """The flow differential in (J, K) coordinates, as flow_differential's
    matrix: the chart differential d(x, y)(t) / d(x, y)(0), by implicit
    differentiation of s(x1(t)) = s(x1) + s'(x1) y1 t, between the
    chart_to_covariant frames of the start and the end."""
    name, end = surface.name, exact_flow(surface.name, t, v)
    x1, y1, x1_t = v.x[0], v.y[0], end.x[0]
    sigma, ds_t = _ds(name, x1) * y1, _ds(name, x1_t)
    d_sigma = np.array([_d2s(name, x1) * y1, 0.0, _ds(name, x1), 0.0])  # by (x1, x2, y1, y2)
    d_x1 = (np.array([_ds(name, x1), 0.0, 0.0, 0.0]) + t * d_sigma) / ds_t
    d_y1 = (d_sigma - sigma * _d2s(name, x1_t) / ds_t * d_x1) / ds_t
    chart = np.array([d_x1, [0.0, 1.0, 0.0, t], d_y1, [0.0, 0.0, 0.0, 1.0]])
    start_frame = chart_to_covariant(surface, v.x, v.y)
    return chart_to_covariant(surface, end.x, end.y) @ chart @ np.linalg.inv(start_frame)
