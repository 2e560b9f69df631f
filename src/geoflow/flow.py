"""Geodesic flow: first-order system, trajectories, exponential map.

The chart state is s = (x, y) with dx/dt = y and dy_k/dt = -Gamma^k_ij y_i y_j.
Trajectories stop at the chart boundary (located by bisection on the step's
dense output) and report why they ended. The integration policy lives here
once, in integrate_batch, the entry point for single runs and batches of
rows alike: the integrator checks every end time (finite and >= 0; t = 0
returns the start), tolerances turns a requested tol into (rtol, atol),
state_inside is the chart predicate, a surface's declared crease, where its
Christoffel symbols or curvature matrix are not smooth, becomes the
integrator's crease switch (the embedded error estimate is unreliable on a
step across a kink of the right-hand side, so every step ends at the crease
instead), the pair is DOP853 on closed-form surfaces and DP5 on a
GridSurface (whose spline second derivatives have a third derivative that
jumps at every knot, where the 8th-order pair takes more steps than DP5),
and require_completed turns a run with any incomplete row into an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate
from .errors import InvalidInput, OutOfDomain, StepFailure, require_array, require_real
from .surface import GridSurface, g_norm_batch, local_geometry

# Base-point draws random_tangent makes before it gives up on a box without chart points.
_MAX_BASE_DRAWS = 1000


@dataclass(frozen=True)
class TangentVector:
    """Chart point plus chart velocity components."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", require_array(self.x, "base point"))
        object.__setattr__(self, "y", require_array(self.y, "velocity"))

    def as_state(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])

    @staticmethod
    def from_state(u: np.ndarray) -> "TangentVector":
        m = u.size // 2
        return TangentVector(u[:m], u[m:])


@dataclass(kw_only=True)
class Trajectory(integrate.IntegrationResult):
    """A geodesic run, its states (K, 2m) rows (x, y), and its initial velocity's g-norm."""

    speed: float

    @property
    def final(self) -> TangentVector:
        return TangentVector.from_state(self.states[-1])


def tolerances(surface, tol=None) -> tuple[float, float]:
    """(rtol, atol) = (tol, tol / 100) for a requested tol; for None, by
    regularity class, sitting below the tolerances the verification suites
    assert. Raises InvalidInput for a tol that is not positive and finite."""
    if tol is None:
        return (1e-10, 1e-12) if surface.regularity.c3 else (1e-9, 1e-11)
    tol = require_real(tol, "tolerance", above=0)
    return tol, tol * 1e-2


def require_completed(res, what):
    """Return res if every row reached its end time; raise StepFailure if
    a step failed and OutOfDomain if a row left the chart."""
    if res.status == integrate.STEP_FAILURE:
        raise StepFailure(f"a step failed during {what} at t={res.final_time:.6g}")
    if res.status == integrate.LEFT_CHART:
        raise OutOfDomain(f"{what} left the chart at t={res.final_time:.6g}")
    return res


def make_geodesic_rhs(surface):
    """Vectorized right-hand side on flat states (..., 2m)."""
    m = surface.dim

    def rhs(u):
        u = np.asarray(u, dtype=float)
        y = u[..., m:]
        geo = local_geometry(surface, u[..., :m])
        # -Gamma(y, y) = -w (y^T hess y), without forming Gamma
        acc = geo.w @ np.einsum("...i,...ija,...j->...a", y, geo.hess, -y)[..., None]
        return np.concatenate([y, acc[..., 0]], axis=-1)

    return rhs


def check_request(surface, v: TangentVector):
    """Validate a public tangent vector v once; return (x0, y0, speed), the
    base point and velocity as float arrays and the velocity's g-norm.

    Raises OutOfChart when v.x is not a chart point and InvalidInput for a v
    that is not a TangentVector, or a velocity of the wrong shape, with
    non-finite entries or with a g-norm that is not finite. End times are
    the integrators' to check.
    """
    if not isinstance(v, TangentVector):
        raise InvalidInput(f"need a TangentVector, got {v!r}")
    x0 = surface.require_inside(v.x)
    y0 = surface.require_vector(v.y, "velocity")
    speed = float(g_norm_batch(surface, x0, y0))
    if not np.isfinite(speed):
        raise InvalidInput(f"g-norm of velocity {y0} is not finite")
    return x0, y0, speed


def state_inside(surface):
    """Chart-membership predicate on states (..., d) whose first m entries
    are x, one bool per state."""
    m = surface.dim

    def inside(u):
        return surface.contains_batch(u[..., :m])

    return inside


def random_tangent(surface, rng, shrink, box=None) -> TangentVector:
    """Random unit-g-speed tangent vector with base point uniform in the
    central part of a box (default: the chart box), scaled by shrink.

    Draws the base point (redrawn until it is a chart point), then a normal
    direction, from rng in that order. Raises InvalidInput for an rng that
    is not a numpy Generator, a non-finite shrink or a box that is not
    (lo, hi) of dim entries each, and OutOfDomain when _MAX_BASE_DRAWS base
    points all miss the chart.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidInput(f"rng must be a numpy.random.Generator, got {rng!r}")
    shrink = require_real(shrink, "shrink")
    box = (surface.domain_lo, surface.domain_hi) if box is None else require_array(box, "box")
    if np.shape(box) != (2, surface.dim):
        raise InvalidInput(f"box must be (lo, hi) with {surface.dim} entries each, got {box}")
    lo, hi = box
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    for _ in range(_MAX_BASE_DRAWS):
        x = center + (rng.random(surface.dim) - 0.5) * shrink * half
        if surface.contains(x):
            break
    else:
        raise OutOfDomain(f"no chart point of {surface.name!r} in {_MAX_BASE_DRAWS} draws")
    y = rng.normal(size=surface.dim)
    # Scaling by the reciprocal, not dividing: the report's roundoff-level
    # residuals are pinned to the bits of tangents drawn this way.
    y *= 1.0 / g_norm_batch(surface, x, y)
    return TangentVector(x, y)


def integrate_batch(surface, u0, t_end, tol=None, rhs=None):
    """Integrate one state (d,) or a batch of rows (B, d), whose first 2m
    entries are the phase (x, y), under the surface's integration policy;
    rhs defaults to the geodesic right-hand side, t_end is one time or one
    per row, and a row's final_state is its state at its end time (the one
    way to read a run at chosen times). Returns the IntegrationResult with
    per-row status (see integrate.integrate_adaptive); apply
    require_completed where every row must complete. Raises InvalidInput
    for a u0 whose rows are not phases (x, y) when rhs is None.
    """
    m, crease = surface.dim, surface.crease
    if rhs is None and require_array(u0, "initial state").shape[-1:] != (2 * m,):
        raise InvalidInput(f"geodesic rows need {2 * m} entries (x, y), got shape {np.shape(u0)}")
    return integrate.integrate_adaptive(
        make_geodesic_rhs(surface) if rhs is None else rhs, u0, t_end,
        *tolerances(surface, tol), inside=state_inside(surface),
        crease=None if crease is None else lambda u: crease(u[..., :m]),
        tableau=integrate.DP5 if isinstance(surface, GridSurface) else integrate.DOP853,
    )


def integrate_geodesic(surface, v: TangentVector, t_end: float,
                       tol: float | None = None) -> Trajectory:
    """Integrate the geodesic with gamma'(0) = v up to t_end or chart exit;
    t_end = 0 gives the one-sample trajectory at v."""
    x0, y0, speed = check_request(surface, v)
    res = integrate_batch(surface, np.concatenate([x0, y0]), t_end, tol)
    return Trajectory(**vars(res), speed=speed)


def geodesic_flow(surface, t: float, v: TangentVector, tol: float | None = None) -> TangentVector:
    """State of the geodesic with initial tangent v after time t: v itself
    at t = 0, and for t < 0 the reflection of the forward run of -t."""
    t = require_real(t, "flow time")
    if t < 0.0:
        # Run the reflected geodesic forward: phi(-t, (x, y)) = N(phi(t, N v)).
        out = geodesic_flow(surface, -t, TangentVector(v.x, -v.y), tol)
        return TangentVector(out.x, -out.y)
    return require_completed(integrate_geodesic(surface, v, t, tol), "geodesic").final


def exp_map(surface, v: TangentVector, tol: float | None = None) -> np.ndarray:
    """Base point of the time-one flow."""
    return geodesic_flow(surface, 1.0, v, tol).x


def flow_property_residual(surface, s: float, t: float, v: TangentVector, tol: float | None = None) -> float:
    """Chart distance between phi(s + t, v) and phi(s, phi(t, v))."""
    s, t = require_real(s, "s"), require_real(t, "t")
    a = geodesic_flow(surface, s + t, v, tol)
    mid = geodesic_flow(surface, t, v, tol)
    b = geodesic_flow(surface, s, mid, tol)
    return float(np.linalg.norm(a.as_state() - b.as_state()))


def speed_profile(surface, traj: Trajectory) -> np.ndarray:
    """g-norm of the velocity at every trajectory sample."""
    m = surface.dim
    return g_norm_batch(surface, traj.states[:, :m], traj.states[:, m:])
