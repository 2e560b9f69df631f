"""Geodesic flow: first-order system, trajectories, exponential map.

The chart state is s = (x, y) with dx/dt = y and dy_k/dt = -Gamma^k_ij y_i y_j.
Trajectories stop at the chart boundary (located by bisection on the step's
dense output) and report why they ended. The integration policy lives here
once, in integrate_batch, the entry point for single runs and batches of
rows alike: tolerances turns a requested tol into (rtol, atol), state_inside
is the chart predicate, a surface's declared crease becomes the
integrator's crease switch (the embedded error estimate is unreliable on a
step across a curvature jump or kink, so every step ends at the crease
instead), and require_completed turns a run with any incomplete row into an
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate
from .errors import InvalidInput, OutOfDomain, StepFailure
from .surface import g_norm_batch, local_geometry


@dataclass(frozen=True)
class TangentVector:
    """Chart point plus chart velocity components."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    def as_state(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])

    @staticmethod
    def from_state(u: np.ndarray) -> "TangentVector":
        m = u.size // 2
        return TangentVector(u[:m], u[m:])


@dataclass
class Trajectory:
    times: np.ndarray      # strictly increasing sample times
    states: np.ndarray     # (K, 2m) rows (x, y)
    status: str            # Completed | LeftChart | StepFailure
    speed: float           # g-norm of the initial velocity

    @property
    def final(self) -> TangentVector:
        return TangentVector.from_state(self.states[-1])

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def positions(self, dim) -> np.ndarray:
        return self.states[:, :dim]


def tolerances(surface, tol=None) -> tuple[float, float]:
    """(rtol, atol) = (tol, tol / 100) for a requested tol; for None, by
    regularity class, sitting below the tolerances the verification suites
    assert. Raises InvalidInput for a tol that is not positive and finite."""
    if tol is None:
        return (1e-10, 1e-12) if surface.regularity.at_least("C3") else (1e-9, 1e-11)
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInput(f"tolerance must be positive and finite, got {tol}")
    return tol, tol * 1e-2


def require_completed(res, what):
    """Return res if every row reached its end time; raise StepFailure if
    the step controller gave up and OutOfDomain if a row left the chart."""
    if res.status == integrate.STEP_FAILURE:
        raise StepFailure(f"step controller failed during {what} at t={res.final_time:.6g}")
    if res.status == integrate.LEFT_CHART:
        raise OutOfDomain(f"{what} left the chart at t={res.final_time:.6g}")
    return res


def make_geodesic_rhs(surface):
    """Vectorized right-hand side on flat states (..., 2m)."""
    m = surface.dim

    def rhs(u):
        u = np.asarray(u, dtype=float)
        y = u[..., m:]
        gamma = local_geometry(surface, u[..., :m]).gamma
        acc = -np.einsum("...kij,...i,...j->...k", gamma, y, y)
        return np.concatenate([y, acc], axis=-1)

    return rhs


def check_request(surface, t, v: TangentVector, *, positive=False):
    """Validate a public request (t, v) once; return (x0, y0) as float arrays.

    Raises OutOfChart when v.x is not a chart point and InvalidInput for a
    non-finite t (or t <= 0 when positive), or a velocity of the wrong
    shape, with non-finite entries or with a g-norm that is not finite.
    """
    if not np.isfinite(t):
        raise InvalidInput(f"time must be finite, got {t}")
    if positive and t <= 0:
        raise InvalidInput(f"time must be positive, got {t}")
    x0 = surface.require_inside(v.x)
    y0 = np.asarray(v.y, dtype=float)
    if y0.shape != (surface.dim,):
        raise InvalidInput(f"velocity has shape {y0.shape}, expected ({surface.dim},)")
    if not (np.all(np.isfinite(y0)) and np.isfinite(g_norm_batch(surface, x0, y0))):
        raise InvalidInput(f"velocity {y0} or its g-norm is not finite")
    return x0, y0


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
    direction, from rng in that order.
    """
    lo, hi = (surface.domain_lo, surface.domain_hi) if box is None else box
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    while True:
        x = center + (rng.random(surface.dim) - 0.5) * shrink * half
        if surface.contains(x):
            break
    y = rng.normal(size=surface.dim)
    # Scaling by the reciprocal, not dividing: the report's roundoff-level
    # residuals are pinned to the bits of tangents drawn this way.
    y *= 1.0 / g_norm_batch(surface, x, y)
    return TangentVector(x, y)


def integrate_batch(surface, u0, t_end, tol=None, checkpoints=None, rhs=None):
    """Integrate one state (d,) or a batch of rows (B, d), whose first 2m
    entries are the phase (x, y), under the surface's integration policy;
    rhs defaults to the geodesic right-hand side, t_end is one time or one
    per row. Returns the IntegrationResult with per-row status (see
    integrate.integrate_adaptive); apply require_completed where every row
    must complete.
    """
    m, crease = surface.dim, surface.crease
    return integrate.integrate_adaptive(
        make_geodesic_rhs(surface) if rhs is None else rhs, u0, t_end,
        *tolerances(surface, tol), inside=state_inside(surface),
        crease=None if crease is None else lambda u: crease(u[..., :m]), checkpoints=checkpoints,
    )


def integrate_geodesic(surface, v: TangentVector, t_end: float,
                       tol: float | None = None) -> Trajectory:
    """Integrate the geodesic with gamma'(0) = v up to t_end or chart exit."""
    x0, y0 = check_request(surface, t_end, v, positive=True)
    speed = float(g_norm_batch(surface, x0, y0))
    res = integrate_batch(surface, np.concatenate([x0, y0]), t_end, tol)
    return Trajectory(res.times, res.states, res.status, speed)


def geodesic_flow(surface, t: float, v: TangentVector, tol: float | None = None) -> TangentVector:
    """State of the geodesic with initial tangent v after time t."""
    x0, y0 = check_request(surface, t, v)
    tolerances(surface, tol)  # a bad tol is an error even where no step is taken
    if t == 0.0:
        return TangentVector(x0.copy(), y0.copy())
    if t < 0.0:
        # Run the reflected geodesic forward: phi(-t, (x, y)) = N(phi(t, N v)).
        out = geodesic_flow(surface, -t, TangentVector(x0, -y0), tol)
        return TangentVector(out.x, -out.y)
    return require_completed(integrate_geodesic(surface, v, t, tol), "geodesic").final


def exp_map(surface, v: TangentVector, tol: float | None = None) -> np.ndarray:
    """Base point of the time-one flow."""
    return geodesic_flow(surface, 1.0, v, tol).x


def flow_property_residual(surface, s: float, t: float, v: TangentVector, tol: float | None = None) -> float:
    """Chart distance between phi(s + t, v) and phi(s, phi(t, v))."""
    if s == 0.0:
        return 0.0
    a = geodesic_flow(surface, s + t, v, tol)
    mid = geodesic_flow(surface, t, v, tol)
    b = geodesic_flow(surface, s, mid, tol)
    return float(np.linalg.norm(a.as_state() - b.as_state()))


def speed_profile(surface, traj: Trajectory) -> np.ndarray:
    """g-norm of the velocity at every trajectory sample."""
    m = surface.dim
    return g_norm_batch(surface, traj.states[:, :m], traj.states[:, m:])


def trajectory_rows(surface, traj: Trajectory) -> np.ndarray:
    """Columns t, x1..xm, y1..ym, speed for CSV output."""
    sp = speed_profile(surface, traj)
    return np.column_stack([traj.times, traj.states, sp])
