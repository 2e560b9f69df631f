"""Jacobi fields along geodesics and the flow differential.

The joint state is (x, y, J, K): the geodesic phase, the chart components J
of a variation field, and the components K of its covariant derivative along
the curve. With G(y) the matrix Gamma(y, .) and M the curvature matrix from
second-fundamental-form products, the linear part reads

    dJ/dt = K - G(y) J,        dK/dt = M J - G(y) K.

Propagating the 2m standard basis initial values (J0, K0) yields the 2m x 2m
derivative of the geodesic flow in (J, K) coordinates. A finite-difference
Jacobian of the flow, converted with the chart/covariant dictionary

    J = dx,  K = dy + Gamma(dx, y),

serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate
from .errors import InvalidInput, OutOfDomain, StepFailure
from .flow import TangentVector, check_request, default_tolerances, make_geodesic_rhs, step_cap
from .surface import local_geometry

__all__ = [
    "JacobiState",
    "FlowDifferential",
    "propagate_jacobi",
    "flow_differential",
    "fd_flow_differential",
    "mixed_partials_residual",
    "chart_to_covariant",
    "covariant_to_chart",
]


@dataclass(frozen=True)
class JacobiState:
    """Chart components of the field (J) and of its covariant derivative (K)."""

    J: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "J", np.asarray(self.J, dtype=float))
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.J, self.K])

    @staticmethod
    def from_vector(u: np.ndarray) -> "JacobiState":
        m = u.size // 2
        return JacobiState(u[:m], u[m:])


@dataclass
class FlowDifferential:
    """2m x 2m linear map sending initial (J0, K0) to (J(t), K(t))."""

    matrix: np.ndarray
    t: float
    v: TangentVector

    def apply(self, j0: JacobiState) -> JacobiState:
        return JacobiState.from_vector(self.matrix @ j0.as_vector())


def _make_joint_rhs(surface, n_cols):
    """RHS on states [x, y, J(m x n_cols), K(m x n_cols)] flattened."""
    m = surface.dim

    def rhs(u):
        y = u[m: 2 * m]
        geo = local_geometry(surface, u[:m], y)
        g_mat = geo.gamma_v
        jk = u[2 * m:].reshape(2, m, n_cols)
        j_dot = jk[1] - g_mat @ jk[0]
        k_dot = geo.curvature @ jk[0] - g_mat @ jk[1]
        return np.concatenate([y, -(g_mat @ y), j_dot.ravel(), k_dot.ravel()])

    return rhs


def _joint_inside(surface):
    m = surface.dim

    def inside(u):
        return surface.contains(u[:m])

    return inside


def _propagate_columns(surface, v, jk0, t_end, tol, mode, checkpoints=None):
    """Integrate the joint system with the (m, 2, n_cols) initial block jk0.

    Returns (result, n_cols); result states contain [x, y, J, K] flattened.
    """
    x0, y0 = check_request(surface, t_end, v, positive=True)
    n_cols = jk0.shape[-1]
    rtol, atol = default_tolerances(surface)
    if tol is not None:
        rtol, atol = tol, tol * 1e-2
    u0 = np.concatenate([x0, y0, jk0.ravel()])
    if mode == "joint":
        rhs = _make_joint_rhs(surface, n_cols)
        res = integrate.integrate_adaptive(
            rhs,
            u0,
            t_end,
            rtol,
            atol,
            max_step=step_cap(surface),
            inside=_joint_inside(surface),
            checkpoints=checkpoints,
        )
        return res, n_cols
    if mode == "two_pass":
        return _propagate_two_pass(surface, v, jk0, t_end, rtol, atol, checkpoints)
    raise ValueError(f"unknown mode {mode!r}")


def _propagate_two_pass(surface, v, jk0, t_end, rtol, atol, checkpoints):
    """First solve the geodesic alone, then the linear system along it.

    The base curve is interpolated with cubic Hermite polynomials over the
    accepted steps; the linear system is stepped with RK4 substeps.
    """
    from .flow import integrate_geodesic

    m = surface.dim
    n_cols = jk0.shape[-1]
    traj = integrate_geodesic(
        surface, v, t_end, rtol, checkpoints=checkpoints, max_step=min(step_cap(surface), t_end / 8)
    )
    if traj.exit_reason != integrate.COMPLETED:
        res = integrate.IntegrationResult(traj.times, traj.states, traj.exit_reason)
        return res, n_cols
    geo = make_geodesic_rhs(surface)
    derivs = geo(traj.states)

    def hermite(i, tau):
        h = traj.times[i + 1] - traj.times[i]
        s = tau / h
        p0, p1 = traj.states[i], traj.states[i + 1]
        d0, d1 = derivs[i] * h, derivs[i + 1] * h
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        return h00 * p0 + h10 * d0 + h01 * p1 + h11 * d1

    def lin_rhs(phase, jk_flat):
        x, y = phase[:m], phase[m:]
        jk = jk_flat.reshape(2, m, n_cols)
        geo = local_geometry(surface, x, y)
        g_mat = geo.gamma_v
        return np.concatenate(
            [(jk[1] - g_mat @ jk[0]).ravel(), (geo.curvature @ jk[0] - g_mat @ jk[1]).ravel()]
        )

    jk = jk0.ravel().copy()
    times = [0.0]
    states = [np.concatenate([traj.states[0], jk])]
    for i in range(len(traj.times) - 1):
        h = traj.times[i + 1] - traj.times[i]
        n_sub = 4
        hs = h / n_sub
        for k in range(n_sub):
            t0 = k * hs
            # classical RK4 with the interpolated base state
            k1 = lin_rhs(hermite(i, t0), jk)
            k2 = lin_rhs(hermite(i, t0 + 0.5 * hs), jk + 0.5 * hs * k1)
            k3 = lin_rhs(hermite(i, t0 + 0.5 * hs), jk + 0.5 * hs * k2)
            k4 = lin_rhs(hermite(i, t0 + hs), jk + hs * k3)
            jk = jk + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        times.append(traj.times[i + 1])
        states.append(np.concatenate([traj.states[i + 1], jk]))
    res = integrate.IntegrationResult(np.array(times), np.array(states), integrate.COMPLETED)
    return res, n_cols


def propagate_jacobi(
    surface,
    v: TangentVector,
    j0: JacobiState,
    t_end: float,
    tol: float | None = None,
    mode: str = "joint",
) -> JacobiState:
    """Solve the Jacobi system along the geodesic of v; linear in j0."""
    if j0.J.shape != (surface.dim,) or j0.K.shape != (surface.dim,) \
            or not np.all(np.isfinite(j0.as_vector())):
        raise InvalidInput(f"Jacobi initial value must be two finite {surface.dim}-vectors")
    jk0 = np.stack([j0.J, j0.K])[..., None]  # (2, m, 1)
    res, _ = _propagate_columns(surface, v, jk0, t_end, tol, mode)
    if res.status != integrate.COMPLETED:
        if res.status == integrate.LEFT_CHART:
            raise OutOfDomain(f"geodesic left the chart at t={res.final_time:.6g}")
        raise StepFailure("step controller failed during Jacobi propagation")
    m = surface.dim
    jk = res.final_state[2 * m:].reshape(2, m)
    return JacobiState(jk[0], jk[1])


def flow_differential(surface, t: float, v: TangentVector, tol: float | None = None,
                      mode: str = "joint") -> FlowDifferential:
    """Propagate the 2m standard basis initial conditions as one joint run."""
    m = surface.dim
    if t == 0.0:
        check_request(surface, t, v)
        return FlowDifferential(np.eye(2 * m), 0.0, v)
    jk0 = np.eye(2 * m).reshape(2, m, 2 * m)
    res, n_cols = _propagate_columns(surface, v, jk0, t, tol, mode)
    if res.status != integrate.COMPLETED:
        if res.status == integrate.LEFT_CHART:
            raise OutOfDomain(f"geodesic left the chart at t={res.final_time:.6g}")
        raise StepFailure("step controller failed during flow differential")
    mat = res.final_state[2 * m:].reshape(2 * m, 2 * m)
    return FlowDifferential(mat, t, v)


def chart_to_covariant(surface, x, y) -> np.ndarray:
    """Block matrix C with (J, K) = C (dx, dy): K = dy + Gamma(dx, y)."""
    m = surface.dim
    c = np.eye(2 * m)
    c[m:, :m] = local_geometry(surface, x, y).gamma_v
    return c


def covariant_to_chart(surface, x, y) -> np.ndarray:
    """Inverse of chart_to_covariant: dy = K - Gamma(J, y)."""
    return 2.0 * np.eye(2 * surface.dim) - chart_to_covariant(surface, x, y)


def fd_flow_differential(surface, t: float, v: TangentVector, eps: float = 1e-5,
                         order: int | None = None, tol: float = 1e-12) -> np.ndarray:
    """Central-difference Jacobian of the flow, in (J, K) coordinates.

    order 4 stencils on surfaces of class >= C3, order 2 otherwise. The
    unperturbed state (row 0, whose end point sets the covariant frame) and
    all perturbed ones integrate as one batch with shared accepted steps,
    so the common part of the integration error cancels in the differences.
    Uses only the geodesic right-hand side, never the Jacobi system.
    """
    m = surface.dim
    if order is None:
        order = 4 if surface.regularity.at_least("C3") else 2
    x0, y0 = check_request(surface, t, v)
    if t < 0.0:
        raise InvalidInput(f"flow differential needs t >= 0, got {t}")
    base = np.concatenate([x0, y0])

    if order == 4:
        offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * eps
        weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * eps)
    else:
        offsets = np.array([-1.0, 1.0]) * eps
        weights = np.array([-1.0, 1.0]) / (2.0 * eps)

    n_dirs = 2 * m
    ics = [base]
    for d in range(n_dirs):
        for o in offsets:
            u = base.copy()
            u[d] += o
            ics.append(u)
    ics = np.array(ics)  # (B, 2m)

    geo = make_geodesic_rhs(surface)

    def batch_rhs(u_flat):
        return geo(u_flat.reshape(ics.shape)).ravel()

    def inside(u_flat):
        pts = u_flat.reshape(ics.shape)[:, :m]
        return bool(np.all(surface.contains_batch(pts)))

    res = integrate.integrate_adaptive(
        batch_rhs, ics.ravel(), t, tol, tol * 1e-2,
        max_step=step_cap(surface), inside=inside,
    )
    if res.status != integrate.COMPLETED:
        raise OutOfDomain("a perturbed geodesic left the chart during the FD probe")
    ends = res.final_state.reshape(ics.shape)
    d_chart = np.empty((2 * m, 2 * m))
    k = len(offsets)
    for d in range(n_dirs):
        block = ends[1 + d * k: 1 + (d + 1) * k]
        d_chart[:, d] = weights @ block

    c_end = chart_to_covariant(surface, ends[0, :m], ends[0, m:])
    c_start_inv = covariant_to_chart(surface, x0, y0)
    return c_end @ d_chart @ c_start_inv


def mixed_partials_residual(
    surface,
    v: TangentVector,
    w: np.ndarray,
    eps: float = 1e-4,
    *,
    t_end: float = 0.4,
    n_samples: int = 5,
    dt: float = 0.01,
    tol: float = 1e-12,
) -> float:
    """Consistency of the two mixed second derivatives of the geodesic variation.

    For tau(t, s) = embedded position of the geodesic with initial velocity
    y0 + s w, two estimators of the ambient mixed derivative are compared:

    * d/ds of the ambient velocity, where the t-derivative comes directly
      from the integrated state (no t-differencing);
    * d/dt of the ambient s-difference quotient, differenced across nearby
      sample times.

    Both use the same pair of trajectories s = +-eps, integrated as one
    batch. Returns the max norm difference over the sample times.
    """
    m = surface.dim
    x0 = surface.require_inside(v.x)
    y0 = np.asarray(v.y, dtype=float)
    w = np.asarray(w, dtype=float)

    t_max = t_end - 2.0 * dt
    t_samples = np.linspace(t_max / n_samples, t_max, n_samples)
    stencil = np.array([-2.0, -1.0, 1.0, 2.0]) * dt
    t_weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * dt)
    checkpoints = np.unique(
        np.concatenate([t_samples, (t_samples[:, None] + stencil).ravel()])
    )
    checkpoints = checkpoints[(checkpoints > 0) & (checkpoints < t_end - 1e-12)]

    ics = np.array(
        [np.concatenate([x0, y0 + eps * w]), np.concatenate([x0, y0 - eps * w])]
    )
    geo = make_geodesic_rhs(surface)

    def batch_rhs(u_flat):
        return geo(u_flat.reshape(2, 2 * m)).ravel()

    def inside(u_flat):
        return bool(np.all(surface.contains_batch(u_flat.reshape(2, 2 * m)[:, :m])))

    res = integrate.integrate_adaptive(
        batch_rhs, ics.ravel(), t_end, tol, tol * 1e-2,
        max_step=step_cap(surface), inside=inside, checkpoints=checkpoints,
    )
    if res.status != integrate.COMPLETED:
        raise OutOfDomain("variation trajectories left the chart")

    def states_at(t_req):
        idx = np.searchsorted(res.times, t_req - 1e-12)
        if idx >= len(res.times) or abs(res.times[idx] - t_req) > 1e-9:
            raise OutOfDomain(f"sample time {t_req} not on the trajectory")
        return res.states[idx].reshape(2, 2 * m)

    def ambient_velocity(state_row):
        x, y = state_row[:m], state_row[m:]
        grad = surface.gradient(x)                    # (m, c)
        return np.concatenate([y, grad.T @ y])

    def ambient_pos(state_row):
        return surface.embed_batch(state_row[:m])

    worst = 0.0
    for t_k in t_samples:
        pair = states_at(t_k)
        est_a = (ambient_velocity(pair[0]) - ambient_velocity(pair[1])) / (2 * eps)
        j_amb = []
        for o in stencil:
            p = states_at(t_k + o)
            j_amb.append((ambient_pos(p[0]) - ambient_pos(p[1])) / (2 * eps))
        est_b = t_weights @ np.array(j_amb)
        worst = max(worst, float(np.max(np.abs(est_a - est_b))))
    return worst
