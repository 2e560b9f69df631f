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

from .errors import InvalidInput, require_array, require_count, require_real, require_sequence
from .flow import TangentVector, check_request, integrate_batch, require_completed
from .integrate import IntegrationResult
from .surface import local_geometry

# Tolerance of the finite-difference estimators, well below their stencil error.
_FD_TOL = 1e-12


@dataclass(frozen=True)
class JacobiState:
    """Chart components of the field (J) and of its covariant derivative (K)."""

    J: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "J", require_array(self.J, "Jacobi field J"))
        object.__setattr__(self, "K", require_array(self.K, "covariant derivative K"))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.J, self.K])

    def block(self, m) -> np.ndarray:
        """(J, K) as a (2, m, 1) initial block for propagate_block; raises
        InvalidInput unless J and K are both m-vectors."""
        if self.J.shape != (m,) or self.K.shape != (m,):
            raise InvalidInput(f"Jacobi state needs J and K of shape ({m},), "
                               f"got {self.J.shape} and {self.K.shape}")
        return np.stack([self.J, self.K])[..., None]


@dataclass
class FlowDifferential:
    """2m x 2m linear map sending initial (J0, K0) to (J(t), K(t)), with the
    flow end state phi(t, v) and the joint run they are read off."""

    matrix: np.ndarray
    end: TangentVector
    run: IntegrationResult


def _make_joint_rhs(surface, n_cols):
    """RHS on states [x, y, J(m x n_cols), K(m x n_cols)] flattened, with any
    leading axes."""
    m = surface.dim

    def rhs(u):
        y = u[..., m: 2 * m]
        g_mat, m_mat = local_geometry(surface, u[..., :m]).jacobi_matrices(y)
        jk = u[..., 2 * m:].reshape(u.shape[:-1] + (2, m, n_cols))
        j_dot = jk[..., 1, :, :] - g_mat @ jk[..., 0, :, :]
        k_dot = m_mat @ jk[..., 0, :, :] - g_mat @ jk[..., 1, :, :]
        flat = u.shape[:-1] + (-1,)
        return np.concatenate(
            [y, -(g_mat @ y[..., None])[..., 0], j_dot.reshape(flat), k_dot.reshape(flat)],
            axis=-1,
        )

    return rhs


def coefficient_matrix(surface, x, y) -> np.ndarray:
    """Coefficient matrix A = [[-G, I], [M, -G]] of d/dt (J, K) = A (J, K) at
    phase points x, y (..., m): the (J, K) part of the joint right-hand side
    applied to the basis block, so A is the matrix the integrator integrates."""
    m = surface.dim
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    basis = np.broadcast_to(basis_block(m).ravel(), x.shape[:-1] + (4 * m * m,))
    du = _make_joint_rhs(surface, 2 * m)(np.concatenate([x, y, basis], axis=-1))
    return du[..., 2 * m:].reshape(x.shape[:-1] + (2 * m, 2 * m))


def propagate_block(surface, v, jk0, t_end, tol):
    """Integrate the joint system from the (2, m, n_cols) initial block jk0,
    or from a JacobiState as its (2, m, 1) block, along the geodesic of v,
    or, for a list v, along each of its geodesics as the rows of one batch;
    t_end is one time or one per row, each row's final_state its state there.

    Validates every v with check_request and the block; the integrator
    checks t_end. Returns the IntegrationResult, whose states hold
    [x, y, J, K] flattened; apply require_completed where every row must
    complete.
    """
    m = surface.dim
    jk0 = require_array(jk0.block(m) if isinstance(jk0, JacobiState) else jk0, "Jacobi initial block",
                        finite=True)
    if jk0.ndim != 3 or jk0.shape[:2] != (2, m):
        raise InvalidInput(f"Jacobi initial block must be a (2, {m}, n) array, got shape {jk0.shape}")
    single = isinstance(v, TangentVector)
    vs = [v] if single else require_sequence(v, "tangent vectors", 1)
    u0 = np.array([np.concatenate([*check_request(surface, w)[:2], jk0.ravel()]) for w in vs])
    return integrate_batch(surface, u0[0] if single else u0, t_end, tol,
                           rhs=_make_joint_rhs(surface, jk0.shape[-1]))


def propagate_jacobi(surface, v: TangentVector, j0: JacobiState, t_end: float,
                     tol: float | None = None) -> JacobiState:
    """Solve the Jacobi system along the geodesic of v; linear in j0."""
    res = propagate_block(surface, v, j0, t_end, tol)
    m = surface.dim
    jk = require_completed(res, "Jacobi propagation").final_state[2 * m:].reshape(2, m)
    return JacobiState(jk[0], jk[1])


def basis_block(m):
    """The 2m standard basis initial values (J0, K0) as a (2, m, 2m) block."""
    require_count(m, 1, "dim")
    return np.eye(2 * m).reshape(2, m, 2 * m)


def flow_differential(surface, t: float, v: TangentVector, tol: float | None = None) -> FlowDifferential:
    """Propagate the 2m standard basis initial conditions as one joint run;
    at t = 0 the matrix is the identity and the end state is v."""
    m = surface.dim
    res = require_completed(propagate_block(surface, v, basis_block(m), t, tol), "Jacobi propagation")
    end = res.final_state
    return FlowDifferential(end[2 * m:].reshape(2 * m, 2 * m), TangentVector.from_state(end[:2 * m]), res)


def chart_to_covariant(surface, x, y) -> np.ndarray:
    """Block matrix C with (J, K) = C (dx, dy): K = dy + Gamma(dx, y), at a
    chart point x and a finite velocity y."""
    x, y = surface.require_inside(x), surface.require_vector(y, "velocity")
    m = surface.dim
    c = np.eye(2 * m)
    c[m:, :m] = local_geometry(surface, x).gamma_v(y)
    return c


def fd_flow_differential(surface, t: float, v: TangentVector, eps: float = 1e-5,
                         order: int | None = None) -> np.ndarray:
    """Central-difference Jacobian of the flow, in (J, K) coordinates.

    order 4 stencils on surfaces of class >= C3, order 2 otherwise. The
    unperturbed state (row 0, whose end point sets the covariant frame) and
    all perturbed ones integrate as one batch with shared accepted steps,
    so the common part of the integration error cancels in the differences.
    Uses only the geodesic right-hand side, never the Jacobi system.
    """
    m = surface.dim
    eps = require_real(eps, "eps", above=0)
    if order is None:
        order = 4 if surface.regularity.c3 else 2
    require_count(order, 2, "order")
    if order not in (2, 4):
        raise InvalidInput(f"need order 2 or 4, got {order!r}")
    x0, y0, _ = check_request(surface, v)
    base = np.concatenate([x0, y0])

    if order == 4:
        offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * eps
        weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * eps)
    else:
        offsets = np.array([-1.0, 1.0]) * eps
        weights = np.array([-1.0, 1.0]) / (2.0 * eps)

    # row 0 is the base state, row 1 + d k + i moves entry d by offsets[i]
    n, k = 2 * m, len(offsets)
    ics = np.vstack([base, (base + np.eye(n)[:, None, :] * offsets[:, None]).reshape(-1, n)])
    res = integrate_batch(surface, ics, t, _FD_TOL)
    ends = require_completed(res, f"batch of {len(ics)} FD stencil geodesics").final_state
    d_chart = (weights @ ends[1:].reshape(n, k, n)).T

    c_end = chart_to_covariant(surface, ends[0, :m], ends[0, m:])
    c_start_inv = 2.0 * np.eye(n) - chart_to_covariant(surface, x0, y0)  # dy = K - Gamma(J, y)
    return c_end @ d_chart @ c_start_inv


def mixed_partials_residual(surface, v: TangentVector, w: np.ndarray) -> float:
    """Consistency of the two mixed second derivatives of the geodesic variation.

    For tau(t, s) = embedded position of the geodesic with initial velocity
    y0 + s w, two estimators of the ambient mixed derivative are compared:

    * d/ds of the ambient velocity, where the t-derivative comes directly
      from the integrated state (no t-differencing);
    * d/dt of the ambient s-difference quotient, differenced across nearby
      stencil times.

    Both use the same pair of trajectories s = +-eps, each run as one row
    per sample and stencil time that ends there, all rows one batch.
    Returns the max norm difference over the n_samples sample times.
    """
    eps, t_end, n_samples, dt = 1e-4, 0.4, 5, 0.01
    m = surface.dim
    x0, y0, _ = check_request(surface, v)
    w = surface.require_vector(w, "variation direction")

    t_max = t_end - 2.0 * dt
    t_samples = np.linspace(t_max / n_samples, t_max, n_samples)
    stencil = np.array([-2.0, -1.0, 1.0, 2.0]) * dt
    t_weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * dt)
    # row (side, k, 0) ends at t_samples[k], row (side, k, 1 + j) at t_samples[k] + stencil[j]
    times = np.column_stack([t_samples, t_samples[:, None] + stencil]).ravel()
    pair = np.array([np.concatenate([x0, y0 + eps * w]), np.concatenate([x0, y0 - eps * w])])
    res = require_completed(integrate_batch(surface, np.repeat(pair, len(times), axis=0),
                                            np.tile(times, 2), _FD_TOL), "mixed-partials pair")
    ends = res.final_state.reshape(2, n_samples, 1 + len(stencil), 2 * m)

    def ambient_velocity(state_row):
        x, y = state_row[:m], state_row[m:]
        grad = surface.gradient(x)                    # (m, c)
        return np.concatenate([y, grad.T @ y])

    def ambient_pos(state_row):
        return surface.embed_batch(state_row[:m])

    worst = 0.0
    for k in range(n_samples):
        plus, minus = ends[0, k], ends[1, k]
        est_a = (ambient_velocity(plus[0]) - ambient_velocity(minus[0])) / (2 * eps)
        j_amb = [(ambient_pos(p) - ambient_pos(q)) / (2 * eps) for p, q in zip(plus[1:], minus[1:])]
        est_b = t_weights @ np.array(j_amb)
        worst = max(worst, float(np.max(np.abs(est_a - est_b))))
    return worst
