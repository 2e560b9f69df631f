"""Independent routes to the geometry that geoflow.surface computes.

Each route takes its own formula, not the library's push-through kernel:
- the second fundamental form as the normal projection of (0, u^T Hess h v),
  with the projector I - T (T^T T)^-1 T^T of the tangent frame T;
- the Christoffel symbols from the general metric formula, with the metric
  derivatives taken by 4th-order central differences of g;
- g, Gamma, the Pi-products S and the curvature matrix M, each from its own
  solve against g (reference_geometry);
- the sectional curvature read off the library's curvature operator,
  K(u, v) = -g(M(u) v, v) / (|u|_g^2 |v|_g^2 - g(u, v)^2), as the Jacobi
  equation J'' = M J gives g(M J, J) = -K (|u|^2 |J|^2 - g(u, J)^2).
"""

import numpy as np

from geoflow.surface import curvature_operator

_FD_STEP = 1e-3


def tangent_frame(surface, X):
    """(..., n, m) matrices whose columns are the embedded coordinate tangents (e_i, d_i h)."""
    grad = surface.gradient(X)
    eye = np.broadcast_to(np.eye(surface.dim), grad.shape[:-2] + (surface.dim, surface.dim))
    return np.concatenate([eye, grad.swapaxes(-1, -2)], axis=-2)


def normal_projector(surface, X):
    """(..., n, n) orthogonal projectors of R^n onto the normal space, I - T (T^T T)^-1 T^T."""
    t = tangent_frame(surface, X)
    tt = t.swapaxes(-1, -2)
    return np.eye(surface.ambient_dim) - t @ np.linalg.solve(tt @ t, tt)


def second_fundamental_form(surface, X, u, v):
    """Pi(u, v) at X as ambient n-vectors (..., n): the normal component of (0, u^T Hess h v)."""
    w = np.einsum("...i,...j,...ija->...a", u, v, surface.hessian(X))
    ambient = np.concatenate([np.zeros(w.shape[:-1] + (surface.dim,)), w], axis=-1)
    return np.einsum("...ab,...b->...a", normal_projector(surface, X), ambient)


def christoffel_fd(surface, x):
    """Gamma[k, i, j] at the point x from the metric formula
    Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    def metric(p):
        grad = surface.gradient(p)
        return np.eye(surface.dim) + grad @ grad.T

    dg = []  # dg[k, i, j] = d_k g_ij
    for k in range(surface.dim):
        e = np.zeros(surface.dim)
        e[k] = _FD_STEP
        dg.append((-metric(x + 2 * e) + 8 * metric(x + e) - 8 * metric(x - e) + metric(x - 2 * e))
                  / (12 * _FD_STEP))
    dg = np.array(dg)
    half = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)  # half[i, j, l]
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(metric(x)), half)


def reference_geometry(surface, X, Y):
    """g, Gamma, S[a,b,c,d] = <Pi(e_a,e_b), Pi(e_c,e_d)> and M at X, for the
    velocity Y, each from its own formula."""
    grad = surface.gradient(X)
    hess = surface.hessian(X)
    m = surface.dim
    g = np.einsum("...ia,...ja->...ij", grad, grad) + np.eye(m)
    gamma = np.einsum("...la,...ija->...lij", np.linalg.solve(g, grad), hess)
    q = np.einsum("...le,...abe->...lab", grad, hess)
    w = np.linalg.solve(g, q.reshape(q.shape[:-2] + (m * m,))).reshape(q.shape)
    s = np.einsum("...abe,...cde->...abcd", hess, hess)
    s -= np.einsum("...lab,...lcd->...abcd", q, w)
    b = np.einsum("...i,...k,...jikl->...lj", Y, Y, s)
    b -= np.einsum("...i,...k,...ikjl->...lj", Y, Y, s)
    return g, gamma, s, np.einsum("...kl,...lj->...kj", np.linalg.inv(g), b)


def sectional_curvature(surface, x, u, v):
    """K of the plane spanned by u and v at x, from curvature_operator(surface, x, u)."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    grad = surface.gradient(x)
    g = np.eye(surface.dim) + grad @ grad.T
    den = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    return float(-(v @ g @ (curvature_operator(surface, x, u) @ v)) / den)
