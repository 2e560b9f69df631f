"""Graph-chart surfaces and their first- and second-order geometry.

A surface is described locally as the graph of a height function
h: U -> R^{n-m} over an axis-aligned chart box U in R^m, embedded as
F(x) = (x, h(x)). The induced metric, Christoffel symbols and second
fundamental form all come from h and its first two derivative arrays;
local_geometry derives them from one gradient and one Hessian evaluation
per batch of points, and every batch kernel below is built on it.

The curvature operator entering the Jacobi equation is assembled purely
from products of second-fundamental-form values, so it needs second
derivatives of h only. A finite-difference route through derivatives of
the Christoffel symbols (which implicitly spends a third derivative) is
provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePlane, InvalidInput, OutOfChart

_REG_ORDER = {"C11": (1, 1.0), "C2": (2, 0.0), "C2alpha": None, "C3": (3, 0.0), "smooth": (99, 0.0)}


@dataclass(frozen=True)
class Regularity:
    """Differentiability class tag: C11, C2, C2alpha(alpha), C3 or smooth."""

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in _REG_ORDER:
            raise ValueError(f"unknown regularity tag {self.tag!r}")
        if self.tag == "C2alpha" and not (self.alpha and 0.0 < self.alpha <= 1.0):
            raise ValueError("C2alpha requires alpha in (0, 1]")

    @property
    def order(self) -> tuple:
        if self.tag == "C2alpha":
            return (2, float(self.alpha))
        return _REG_ORDER[self.tag]

    def at_least(self, other) -> bool:
        if isinstance(other, str):
            other = Regularity(other) if other != "C2alpha" else Regularity("C2alpha", 1e-9)
        return self.order >= other.order

    def __str__(self):
        if self.tag == "C2alpha":
            return f"C2alpha({self.alpha:g})"
        return self.tag

    @staticmethod
    def parse(text: str, alpha: float | None = None) -> "Regularity":
        text = {"Smooth": "smooth"}.get(text, text)
        if text == "C2alpha":
            return Regularity("C2alpha", alpha if alpha is not None else 0.5)
        return Regularity(text)


@dataclass(frozen=True)
class SurfaceBounds:
    """Certified sups over the chart domain, declared by the surface.

    grad_sup: sup |grad h|, the Frobenius norm of the (m, c) gradient.
    hess_sup: sup over unit u of |Hess h(u, u)|.
    curvature_sup: sup over |u|_g = 1 of |Pi(u, u)|, the curvature bound C
    of the injectivity-radius formula.
    """

    grad_sup: float
    hess_sup: float
    curvature_sup: float


class GraphSurface:
    """Immutable chart description of a graph submanifold of R^n.

    height/gradient/hessian are vectorized callables mapping points of
    shape (..., m) to arrays of shape (..., codim), (..., m, codim) and
    (..., m, m, codim). `membership` optionally tightens the box domain
    (e.g. to a disk). The callables are also invoked slightly outside the
    domain, where integrator stages overshoot before a chart exit is
    located. `crease` optionally declares where the second derivatives are
    not smooth: a vectorized switching function mapping points (..., m) to
    values (...) whose sign changes across the crease (e.g. x1 for a ridge
    at x1 = 0); the integrator ends a step at every crossing of it.
    `bounds` declares the certified SurfaceBounds; a surface that declares
    none raises InvalidInput wherever a certified bound is needed.
    """

    def __init__(
        self,
        name,
        dim,
        codim,
        domain_lo,
        domain_hi,
        height,
        gradient,
        hessian,
        *,
        regularity: Regularity,
        membership=None,
        crease=None,
        bounds: SurfaceBounds | None = None,
    ):
        self.name = name
        self.dim = int(dim)
        self.codim = int(codim)
        self.ambient_dim = self.dim + self.codim
        self.domain_lo = np.asarray(domain_lo, dtype=float)
        self.domain_hi = np.asarray(domain_hi, dtype=float)
        if self.domain_lo.shape != (self.dim,) or np.any(self.domain_hi <= self.domain_lo):
            raise ValueError("invalid chart box")
        self.height = height
        self.gradient = gradient
        self.hessian = hessian
        self.regularity = regularity
        self._membership = membership
        self.crease = crease
        self._bounds = bounds

    # -- domain --------------------------------------------------------

    def contains_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        ok = np.all((X >= self.domain_lo) & (X <= self.domain_hi), axis=-1)
        if self._membership is not None:
            ok = ok & self._membership(X)
        return ok

    def contains(self, x) -> bool:
        return bool(self.contains_batch(np.asarray(x, dtype=float)))

    def require_inside(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise OutOfChart(f"point has wrong dimension {x.shape}")
        if not self.contains(x):
            raise OutOfChart(f"{x} outside chart domain of {self.name!r}")
        return x

    # -- geometry ------------------------------------------------------

    def embed_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.concatenate([X, self.height(X)], axis=-1)

    @property
    def bounds(self) -> SurfaceBounds:
        if self._bounds is None:
            raise InvalidInput(f"{self.name!r} declares no certified derivative bounds")
        return self._bounds

    def __repr__(self):
        return (
            f"GraphSurface({self.name!r}, dim={self.dim}, codim={self.codim}, "
            f"regularity={self.regularity})"
        )


# ---------------------------------------------------------------------------
# batch geometry kernels (unchecked; used by the ODE right-hand sides)
# ---------------------------------------------------------------------------

@dataclass
class LocalGeometry:
    """Geometry at a batch of chart points X (..., m) from one gradient and
    one Hessian evaluation. Everything past gamma is derived on first use;
    gamma_v and curvature need the velocity field Y."""

    grad: np.ndarray                 # (..., m, c)
    hess: np.ndarray                 # (..., m, m, c)
    g: np.ndarray                    # (..., m, m)  g = I + grad grad^T
    gamma: np.ndarray                # (..., m, m, m)  gamma[k, i, j] = (g^-1 q)[k, i, j]
    Y: np.ndarray | None = None      # (..., m)

    @cached_property
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def pi(self) -> np.ndarray:
        """S[a,b,c,d] = <Pi(e_a,e_b), Pi(e_c,e_d)> = hess_ab . hess_cd - q_ab^T g^-1 q_cd,
        with q[l,a,b] = grad[l] . hess[a,b] the normal-projector correction."""
        m = self.g.shape[-1]
        h = self.hess.reshape(self.hess.shape[:-3] + (m * m, -1))
        q = self.grad @ np.swapaxes(h, -1, -2)                    # (..., m, m*m)
        s = h @ np.swapaxes(h, -1, -2) - np.swapaxes(q, -1, -2) @ self.gamma.reshape(q.shape)
        return s.reshape(s.shape[:-2] + (m, m, m, m))

    @cached_property
    def gamma_v(self) -> np.ndarray:
        """G[k, i] = gamma[k, i, j] Y^j, shape (..., m, m)."""
        return np.einsum("...kij,...j->...ki", self.gamma, self.Y)

    @cached_property
    def curvature(self) -> np.ndarray:
        """M = g^-1 b, b[l,j] = <Pi(e_j,Y), Pi(Y,e_l)> - <Pi(Y,Y), Pi(e_j,e_l)>;
        see curvature_matrix_batch."""
        Y, s = self.Y, self.pi
        b = np.einsum("...i,...k,...jikl->...lj", Y, Y, s)
        b -= np.einsum("...i,...k,...ikjl->...lj", Y, Y, s)
        return np.linalg.solve(self.g, b)


def local_geometry(surface, X, Y=None) -> LocalGeometry:
    """Metric and Christoffel symbols at X, with the rest of LocalGeometry
    derived from the same evaluation on first use.

    Calls surface.gradient and surface.hessian once each. One batched solve
    gives g^-1 grad, so gamma = (g^-1 grad) . hess = g^-1 q; solving against
    grad rather than q keeps geodesics bit-for-bit those of that formula.
    """
    grad = surface.gradient(X)
    hess = surface.hessian(X)
    g = np.eye(surface.dim) + grad @ np.swapaxes(grad, -1, -2)
    gamma = np.einsum("...la,...ija->...lij", np.linalg.solve(g, grad), hess)
    return LocalGeometry(grad, hess, g, gamma, None if Y is None else np.asarray(Y, dtype=float))


def christoffel_batch(surface, X):
    """gamma[k,i,j] = sum_{l,a} ginv[k,l] grad[l,a] hess[i,j,a]."""
    return local_geometry(surface, X).gamma


def curvature_matrix_batch(surface, X, Y):
    """Matrix M with M @ J = second covariant derivative of J along a
    geodesic through X with velocity Y (the Jacobi right-hand side).

    Assembled from second-fundamental-form products only:
    b[l,j] = <Pi(e_j,V), Pi(V,e_l)> - <Pi(V,V), Pi(e_j,e_l)>, M = g^{-1} b.
    """
    return local_geometry(surface, X, Y).curvature


def g_norm_batch(surface, X, Y):
    g = local_geometry(surface, X).g
    return np.sqrt(np.einsum("...i,...ij,...j->...", Y, g, Y))


# ---------------------------------------------------------------------------
# pointwise operations (checked)
# ---------------------------------------------------------------------------

def tangent_frame(surface, x) -> np.ndarray:
    """n x m matrix whose columns are the embedded coordinate tangents (e_i, d_i h)."""
    x = surface.require_inside(x)
    grad = surface.gradient(x)                       # (m, c)
    top = np.eye(surface.dim)
    return np.concatenate([top, grad.T], axis=0)


def normal_projector(surface, x) -> np.ndarray:
    """Orthogonal projector of R^n onto the normal space, I - T (T^T T)^{-1} T^T."""
    t = tangent_frame(surface, x)
    gram_inv = np.linalg.inv(t.T @ t)
    return np.eye(surface.ambient_dim) - t @ gram_inv @ t.T


def second_fundamental_form(surface, x, u, v) -> np.ndarray:
    """Pi(u, v): the normal component of the ambient second derivative
    (0, u^T Hess h v), as an ambient n-vector."""
    x = surface.require_inside(x)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    hess = surface.hessian(x)                        # (m, m, c)
    w = np.einsum("i,j,ija->a", u, v, hess)
    ambient = np.concatenate([np.zeros(surface.dim), w])
    return normal_projector(surface, x) @ ambient


def curvature_operator(surface, x, V) -> np.ndarray:
    """m x m matrix sending a Jacobi value J to its second covariant derivative.

    Built from products of second-fundamental-form values; second
    derivatives of h are the highest ones touched.
    """
    x = surface.require_inside(x)
    V = np.asarray(V, dtype=float)
    return curvature_matrix_batch(surface, x, V)


def sectional_curvature(surface, x, u, v) -> float:
    x = surface.require_inside(x)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    geo = local_geometry(surface, x)
    s, g = geo.pi, geo.g
    num = np.einsum("i,j,k,l,ijkl->", u, u, v, v, s) - np.einsum(
        "i,j,k,l,ijkl->", u, v, u, v, s
    )
    den = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if den < 1e-12:
        raise DegeneratePlane(f"plane spanned by {u}, {v} is degenerate (denominator {den:.3e})")
    return float(num / den)


def _central_diff(f, x, step) -> np.ndarray:
    """Per-axis 4th-order central differences of f at x: out[k] = d_k f(x)."""
    out = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = 1.0
        fp1, fm1 = f(x + step * e), f(x - step * e)
        fp2, fm2 = f(x + 2 * step * e), f(x - 2 * step * e)
        out.append((-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * step))
    return np.array(out)


def christoffel_fd(surface, x, step=1e-3) -> np.ndarray:
    """Christoffels from the general metric formula, with the metric
    derivatives taken by 4th-order central differences of the metric.
    Cross-check only; valid on smooth catalog surfaces away from kinks.
    """
    x = surface.require_inside(x)
    dg = _central_diff(lambda p: local_geometry(surface, p).g, x, step)  # dg[k, i, j] = d_k g_ij
    # half[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    half = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", local_geometry(surface, x).g_inv, half)


def curvature_from_christoffel(surface, x, V, J, step=1e-3) -> np.ndarray:
    """Jacobi right-hand side via derivatives of the Christoffel symbols.

    Independent route that numerically differentiates christoffel_batch
    (spending a third derivative of h). Returns the same vector as
    curvature_operator(surface, x, V) @ J on surfaces smooth enough for
    the interchange of derivatives.
    """
    x = surface.require_inside(x)
    V = np.asarray(V, dtype=float)
    J = np.asarray(J, dtype=float)
    gamma = christoffel_batch(surface, x)
    # dgam[a, k, i, j] = d_a gamma^k_ij
    dgam = _central_diff(lambda p: christoffel_batch(surface, p), x, step)
    # R(V, J)W with W = V:  (R(V,J)W)^l = V^i J^j W^k (d_j G^l_ik - d_i G^l_jk
    #                                   + G^l_jm G^m_ik - G^l_im G^m_jk)
    r = np.einsum("i,j,k,jlik->l", V, J, V, dgam)
    r -= np.einsum("i,j,k,iljk->l", V, J, V, dgam)
    r += np.einsum("i,j,k,ljm,mik->l", V, J, V, gamma, gamma)
    r -= np.einsum("i,j,k,lim,mjk->l", V, J, V, gamma, gamma)
    return -r


class GridSurface(GraphSurface):
    """Chart surface backed by sampled grids and bicubic splines (dim 2 only).

    h (Nx, Ny, c), grad (Nx, Ny, 2, c) and hess (Nx, Ny, 3, c) are samples on
    the grid x_axis x y_axis, in the layout of the derivative callables; the
    Hessian holds the entries 11, 12 and 22. The codim c is read from h.
    The three fields are fitted independently, not by differentiating one
    another, so sampled data (e.g. smoothed height fields with convolved
    derivative grids) plug in directly. Each field is one tensor-product
    spline whose coefficients are stacked along a trailing axis, so one call
    evaluates all of its components. Points are clamped to the grid box
    first, as FITPACK evaluation does.

    Bounds: a B-spline lies within its largest |coefficient| on the grid box
    (convex hull; de Boor, A Practical Guide to Splines), so grad_sup and
    hess_sup are Frobenius norms of per-entry coefficient maxima (12 counted
    twice), and curvature_sup = hess_sup as |Pi(u,u)| <= |Hess h(u,u)|, |u| <= |u|_g.
    """

    def __init__(self, name, x_axis, y_axis, h, grad, hess, *, regularity=Regularity("smooth")):
        from scipy.interpolate import NdBSpline, RectBivariateSpline

        x_axis = np.asarray(x_axis, dtype=float)
        y_axis = np.asarray(y_axis, dtype=float)
        h, grad, hess = (np.asarray(a, dtype=float) for a in (h, grad, hess))
        nx, ny, codim = h.shape
        if (len(x_axis), len(y_axis), grad.shape, hess.shape) \
                != (nx, ny, (nx, ny, 2, codim), (nx, ny, 3, codim)):
            raise ValueError("h, grad, hess must be (Nx, Ny, c), (Nx, Ny, 2, c), (Nx, Ny, 3, c)")

        def stacked(field):
            # Interpolating (s=0) fits on one grid share their knots and have
            # one coefficient per sample, so they stack into one spline.
            field = field.reshape(nx, ny, -1)
            coeffs = np.empty_like(field)
            for i in range(field.shape[-1]):
                spl = RectBivariateSpline(x_axis, y_axis, field[..., i], kx=3, ky=3, s=0)
                coeffs[..., i] = spl.get_coeffs().reshape(nx, ny)
            return NdBSpline(spl.get_knots(), coeffs, 3)

        h_spl, g_spl, hess_spl = stacked(h), stacked(grad), stacked(hess)
        grad_max = np.max(np.abs(g_spl.c), axis=(0, 1))
        hess_max = np.max(np.abs(hess_spl.c), axis=(0, 1)).reshape(3, codim)
        hess_sup = float(np.sqrt(np.sum(np.array([[1.0], [2.0], [1.0]]) * hess_max ** 2)))
        lo = np.array([x_axis[0], y_axis[0]])
        hi = np.array([x_axis[-1], y_axis[-1]])

        # Closures over the splines, not bound methods: a bound method stored
        # on self is a reference cycle, which leaves the coefficients to the
        # cyclic garbage collector instead of freeing them with the surface.
        def clamped(X):
            return np.minimum(np.maximum(np.asarray(X, dtype=float), lo), hi)

        def gradient(X):
            out = g_spl(clamped(X))
            return out.reshape(out.shape[:-1] + (2, codim))

        def hessian(X):
            out = hess_spl(clamped(X))
            return out.reshape(out.shape[:-1] + (3, codim))[..., [[0, 1], [1, 2]], :]

        super().__init__(
            name, 2, codim, lo, hi, lambda X: h_spl(clamped(X)), gradient, hessian,
            regularity=regularity,
            bounds=SurfaceBounds(float(np.linalg.norm(grad_max)), hess_sup, hess_sup),
        )

    @classmethod
    def from_samples(cls, name, x_axis, y_axis, h_samples, *, regularity=Regularity("smooth")):
        """Build from height samples alone; derivatives by 4th-order central
        differences, usable domain shrunk by the stencil width (2 cells per
        differentiation pass, 4 total for the mixed second derivative)."""
        x_axis = np.asarray(x_axis, dtype=float)
        y_axis = np.asarray(y_axis, dtype=float)
        h = np.asarray(h_samples, dtype=float)
        if h.ndim == 2:
            h = h[..., None]
        if len(x_axis) < 13 or len(y_axis) < 13:
            raise ValueError("need at least 13 samples per axis")
        dx = x_axis[1] - x_axis[0]
        dy = y_axis[1] - y_axis[0]

        def d4(a, axis, step):
            # central 4th order: (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12h;
            # output index j corresponds to input index j + 2.
            def sl(k):
                return tuple(
                    slice(k, a.shape[ax] - 4 + k) if ax == axis else slice(None)
                    for ax in range(a.ndim)
                )

            return (-a[sl(4)] + 8 * a[sl(3)] - 8 * a[sl(1)] + a[sl(0)]) / (12 * step)

        # Crop every field to the common grid shrunk by 4 cells per side.
        hx = d4(h, 0, dx)[2:-2, 4:-4]
        hy = d4(h, 1, dy)[4:-4, 2:-2]
        hxx = d4(d4(h, 0, dx), 0, dx)[:, 4:-4]
        hyy = d4(d4(h, 1, dy), 1, dy)[4:-4, :]
        hxy = d4(d4(h, 0, dx), 1, dy)[2:-2, 2:-2]
        return cls(
            name,
            x_axis[4:-4],
            y_axis[4:-4],
            h[4:-4, 4:-4],
            np.stack([hx, hy], axis=-2),
            np.stack([hxx, hxy, hyy], axis=-2),
            regularity=regularity,
        )
