"""Geodesic flows, exponential maps and flow differentials on graph charts.

Core entry points:

* catalog.make_surface / catalog.CATALOG — built-in surfaces of varying class
* surface — metric, Christoffel symbols, the curvature operator
* flow — geodesic integration, the flow map phi(t, v), the exponential map
* jacobi — variation fields, the flow differential and its FD oracle
* regularity — smoothing families, convergence reports, exponential and
  modulus-transfer bounds
* minimality — mesh shortest-path oracle and minimality margins
"""

from .catalog import CATALOG, make_surface, surface_from_spec
from .errors import (
    ConfigError,
    DisconnectedMesh,
    DomainTooSmall,
    GeoflowError,
    InvalidInput,
    OutOfChart,
    OutOfDomain,
    StepFailure,
    UnknownSurface,
)
from .flow import TangentVector, Trajectory, exp_map, geodesic_flow, integrate_geodesic
from .jacobi import FlowDifferential, JacobiState, flow_differential, propagate_jacobi
from .surface import GraphSurface, GridSurface, Regularity, SurfaceBounds

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ConfigError",
    "DisconnectedMesh",
    "DomainTooSmall",
    "FlowDifferential",
    "GeoflowError",
    "GraphSurface",
    "GridSurface",
    "InvalidInput",
    "JacobiState",
    "OutOfChart",
    "OutOfDomain",
    "Regularity",
    "StepFailure",
    "SurfaceBounds",
    "TangentVector",
    "Trajectory",
    "UnknownSurface",
    "exp_map",
    "flow_differential",
    "geodesic_flow",
    "integrate_geodesic",
    "make_surface",
    "propagate_jacobi",
    "surface_from_spec",
    "__version__",
]
