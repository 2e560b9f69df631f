"""Graph-chart surfaces and their first- and second-order geometry.

A surface is described locally as the graph of a height function
h: U -> R^{n-m} over an axis-aligned chart box U in R^m, embedded as
F(x) = (x, h(x)). The induced metric, Christoffel symbols and the
curvature matrix of the Jacobi equation all come from h and its first two
derivative arrays; local_geometry derives them from one surface.derivatives
call per batch of points, and every batch kernel below is built on it.

No kernel solves against g = I + grad grad^T: by the push-through identity,
all follows from the c x c normal metric a_inv = (I_c + grad^T grad)^-1 (a
division for codim 1) and w = g^-1 grad = grad a_inv, as gamma = w . hess,
<Pi_ab, Pi_cd> = hess_ab^T a_inv hess_cd and g^-1 b = b - w grad^T b.

The curvature operator entering the Jacobi equation is assembled purely
from products of second-fundamental-form values, so it needs second
derivatives of h only. A finite-difference route through derivatives of
the Christoffel symbols (which implicitly spends a third derivative) is
provided as an independent cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, OutOfChart, require_array, require_count, require_real

# Step of the finite differences in curvature_from_christoffel.
_FD_STEP = 1e-3


@dataclass(frozen=True)
class Regularity:
    """Differentiability class tag: C11, C2, C2alpha(alpha), C3 or smooth."""

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in ("C11", "C2", "C2alpha", "C3", "smooth"):
            raise InvalidInput(f"unknown regularity tag {self.tag!r}")
        if self.tag == "C2alpha":
            require_real(self.alpha, "C2alpha's alpha", above=0, at_most=1)
        elif self.alpha is not None:
            raise InvalidInput(f"regularity {self.tag} takes no alpha, got {self.alpha!r}")

    @property
    def c3(self) -> bool:
        """Whether the class is C3 or smoother."""
        return self.tag in ("C3", "smooth")

    def __str__(self):
        if self.tag == "C2alpha":
            return f"C2alpha({self.alpha:g})"
        return self.tag

    @staticmethod
    def parse(text: str, alpha: float | None = None) -> "Regularity":
        text = "smooth" if text == "Smooth" else text
        return Regularity(text, 0.5 if text == "C2alpha" and alpha is None else alpha)


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

    height is a vectorized callable mapping points of shape (..., m) to
    arrays of shape (..., codim); derivatives maps them to the pair
    (gradient, Hessian) of shapes (..., m, codim) and (..., m, m, codim),
    the Hessian symmetric in its two chart indices. It is the one derivative
    callable a surface supplies, so work the two arrays share (a chart test,
    a square root, a spline evaluation) runs once; gradient and hessian are
    its two parts. `membership` optionally tightens the box domain
    (e.g. to a disk). The callables are also invoked slightly outside the
    domain, where integrator stages overshoot before a chart exit is
    located. `crease` optionally declares where the right-hand side is not
    smooth, that is where the Christoffel symbols or the curvature matrix are
    not (where h is merely not C^3, e.g. x1|x1| at x1 = 0, they may well be):
    a vectorized switching function mapping points (..., m) to values (...)
    whose sign changes across the crease (e.g. x1 for a ridge at x1 = 0);
    the integrator ends a step at every crossing of it.
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
        derivatives,
        *,
        regularity: Regularity,
        membership=None,
        crease=None,
        bounds: SurfaceBounds | None = None,
    ):
        self.name = name
        require_count(dim, 1, "dim")
        require_count(codim, 1, "codim")
        self.dim = int(dim)
        self.codim = int(codim)
        self.ambient_dim = self.dim + self.codim
        # finite, as NaN would pass a hi <= lo test, and m-vectors, as a (1,) corner would broadcast
        self.domain_lo, self.domain_hi = (require_array(c, "chart box corner", finite=True)
                                          for c in (domain_lo, domain_hi))
        if any(c.shape != (self.dim,) for c in (self.domain_lo, self.domain_hi)) \
                or not np.all(self.domain_lo < self.domain_hi):
            raise InvalidInput(f"chart box corners must be {self.dim}-vectors with lo < hi")
        if not isinstance(regularity, Regularity) or not isinstance(bounds, (SurfaceBounds, type(None))):
            raise InvalidInput(f"regularity must be a Regularity and bounds a SurfaceBounds or None, "
                               f"got {regularity!r} and {bounds!r}")
        self.height = height
        self.derivatives = derivatives
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
        x = require_array(x, "chart point")
        if x.shape != (self.dim,):
            raise OutOfChart(f"point has wrong dimension {x.shape}")
        if not self.contains(x):
            raise OutOfChart(f"{x} outside chart domain of {self.name!r}")
        return x

    def require_vector(self, v, what="vector"):
        """v as a float array; raises InvalidInput unless it is a finite m-vector."""
        v = require_array(v, what, finite=True)
        if v.shape != (self.dim,):
            raise InvalidInput(f"{what} must be a {self.dim}-vector, got {v}")
        return v

    # -- geometry ------------------------------------------------------

    def gradient(self, X):
        """The gradient part of derivatives(X), shape (..., m, c)."""
        return self.derivatives(X)[0]

    def hessian(self, X):
        """The Hessian part of derivatives(X), shape (..., m, m, c)."""
        return self.derivatives(X)[1]

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

@dataclass(frozen=True)
class LocalGeometry:
    """Geometry at chart points X (..., m) from one derivatives evaluation,
    held as a_inv and w; every other quantity is derived from them on each
    read, with no solve against g. gamma_v, jacobi_matrices and curvature take
    the velocity Y."""

    grad: np.ndarray                 # (..., m, c)
    hess: np.ndarray                 # (..., m, m, c)
    a_inv: np.ndarray                # (..., c, c)  (I_c + grad^T grad)^-1
    w: np.ndarray                    # (..., m, c)  g^-1 grad = grad a_inv

    @property
    def g(self) -> np.ndarray:
        return _metric(self.grad)

    @property
    def gamma(self) -> np.ndarray:
        return np.einsum("...ka,...ija->...kij", self.w, self.hess)

    def gamma_v(self, Y) -> np.ndarray:
        """G[k, i] = gamma[k, i, j] Y^j = w[k] . hy[:, i], shape (..., m, m)."""
        return self.w @ _hess_y(self.hess, Y)

    def jacobi_matrices(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """(G, M): G = Gamma(Y, .) as in gamma_v and the curvature matrix M = g^-1 b =
        b - w (grad^T b), both from one contraction hy = Hess(., Y). With
        Q[j,i,l] = <a_inv hy_j, hess_il>, b[l,j] = <Pi(e_j,Y), Pi(Y,e_l)> - <Pi(Y,Y), Pi(e_j,e_l)>
        = sum_i Y^i (Q[j,i,l] - Q[i,j,l]); both terms of each difference are entries of one
        Q, so b is exactly 0 where hess has a single nonzero entry."""
        m = self.grad.shape[-2]
        hy = _hess_y(self.hess, Y)                                   # (..., c, m)
        h = self.hess.reshape(self.hess.shape[:-3] + (m * m, -1))    # (..., m*m, c)
        q = (h @ (self.a_inv @ hy)).reshape(hy.shape[:-2] + (m, m, m))  # q[i,l,j] = Q[j,i,l]
        b = np.einsum("...i,...ilj->...lj", Y, q - q.swapaxes(-3, -1))
        return self.w @ hy, b - self.w @ (self.grad.swapaxes(-1, -2) @ b)

    def curvature(self, Y) -> np.ndarray:
        """M, the second matrix of jacobi_matrices."""
        return self.jacobi_matrices(Y)[1]


def _hess_y(hess, Y) -> np.ndarray:
    """hy[a, i] = Hess(e_i, Y)^a, shape (..., c, m)."""
    return np.einsum("...ija,...j->...ai", hess, Y)


def local_geometry(surface, X) -> LocalGeometry:
    """LocalGeometry at X from one surface.derivatives call. The normal
    metric a_inv is a division for codim 1, else one c x c inverse."""
    grad, hess = surface.derivatives(X)
    gram = grad.swapaxes(-1, -2) @ grad
    a_inv = 1.0 / (1.0 + gram) if surface.codim == 1 else np.linalg.inv(np.eye(surface.codim) + gram)
    return LocalGeometry(grad, hess, a_inv, grad @ a_inv)


def christoffel_batch(surface, X):
    """gamma[k,i,j] = sum_a (g^-1 grad)[k,a] hess[i,j,a]."""
    return local_geometry(surface, X).gamma


def curvature_matrix_batch(surface, X, Y):
    """Matrix M with M @ J = second covariant derivative of J along a
    geodesic through X with velocity Y (the Jacobi right-hand side).

    Assembled from second-fundamental-form products only:
    b[l,j] = <Pi(e_j,V), Pi(V,e_l)> - <Pi(V,V), Pi(e_j,e_l)>, M = g^{-1} b.
    """
    return local_geometry(surface, X).curvature(Y)


def _metric(grad) -> np.ndarray:
    """g = I + grad grad^T from the gradient (..., m, c)."""
    return np.eye(grad.shape[-2]) + grad @ np.swapaxes(grad, -1, -2)


def g_norm_batch(surface, X, Y):
    """|Y|_g at X, from one gradient evaluation."""
    g = _metric(surface.gradient(X))
    return np.sqrt(np.einsum("...i,...ij,...j->...", Y, g, Y))


# ---------------------------------------------------------------------------
# pointwise operations (checked)
# ---------------------------------------------------------------------------

def curvature_operator(surface, x, V) -> np.ndarray:
    """m x m matrix sending a Jacobi value J to its second covariant derivative.

    Built from products of second-fundamental-form values; second
    derivatives of h are the highest ones touched.
    """
    return curvature_matrix_batch(surface, surface.require_inside(x), surface.require_vector(V))


def _central_diff(f, x) -> np.ndarray:
    """Per-axis 4th-order central differences of f at x: out[k] = d_k f(x)."""
    out = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = _FD_STEP
        fp1, fm1, fp2, fm2 = f(x + e), f(x - e), f(x + 2 * e), f(x - 2 * e)
        out.append((-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * _FD_STEP))
    return np.array(out)


def curvature_from_christoffel(surface, x, V, J) -> np.ndarray:
    """Jacobi right-hand side via derivatives of the Christoffel symbols.

    Independent route that numerically differentiates christoffel_batch
    (spending a third derivative of h). Returns the same vector as
    curvature_operator(surface, x, V) @ J on surfaces smooth enough for
    the interchange of derivatives.
    """
    x = surface.require_inside(x)
    V, J = surface.require_vector(V), surface.require_vector(J)
    gamma = christoffel_batch(surface, x)
    # dgam[a, k, i, j] = d_a gamma^k_ij
    dgam = _central_diff(lambda p: christoffel_batch(surface, p), x)
    # R(V, J)W with W = V:  (R(V,J)W)^l = V^i J^j W^k (d_j G^l_ik - d_i G^l_jk
    #                                   + G^l_jm G^m_ik - G^l_im G^m_jk)
    r = np.einsum("i,j,k,jlik->l", V, J, V, dgam)
    r -= np.einsum("i,j,k,iljk->l", V, J, V, dgam)
    r += np.einsum("i,j,k,ljm,mik->l", V, J, V, gamma, gamma)
    r -= np.einsum("i,j,k,lim,mjk->l", V, J, V, gamma, gamma)
    return -r


def _collocation_lu(x):
    """Knots of the not-a-knot cubic interpolant on the axis x (the knots of
    FITPACK's s = 0 fit) and the L D U factors of its collocation matrix
    A[i, j] = B_j(x[i]), as an (n, 7) band whose column 3 + j - i holds entry
    (i, j): L's strict lower part in columns 0-2, 1 / D in column 3 and U's
    strict upper part in columns 4-6, L and U unit triangular. A is totally
    positive (de Boor, A Practical Guide to Splines), so Gaussian elimination
    without pivoting is stable and fills in nothing outside the band."""
    from scipy.interpolate import BSpline

    n = len(x)
    knots = np.concatenate([np.repeat(x[0], 4), x[2:-2], np.repeat(x[-1], 4)])
    design = BSpline.design_matrix(x, knots, 3)
    rows = np.repeat(np.arange(n), np.diff(design.indptr))
    band = np.zeros((n, 7))
    band[rows, 3 + design.indices - rows] = design.data
    a = band.tolist()  # the scalar elimination runs faster on Python floats
    for p in range(n):
        for i in range(p + 1, min(n, p + 4)):
            if a[i][3 + p - i]:
                lip = a[i][3 + p - i] = a[i][3 + p - i] / a[p][3]
                for j in range(p + 1, min(n, p + 4)):
                    a[i][3 + j - i] -= lip * a[p][3 + j - p]
    band = np.array(a)
    band[:, 4:] /= band[:, 3:4]
    band[:, 3] = 1.0 / band[:, 3]
    return knots, band


def _solve_collocation(band, c, axis):
    """Overwrite the contiguous array c (nx, ny, p) with A^-1 c along axis 0
    or 1, for the factors of A from _collocation_lu: one axpy of a grid line
    per nonzero of L and U, on views of c."""
    n = len(band)
    v = c.reshape(c.shape[0] if axis else 1, n, -1)
    a = band.tolist()
    for i in range(n):
        for j in range(max(0, i - 3), i):
            if a[i][3 + j - i]:
                v[:, i] -= a[i][3 + j - i] * v[:, j]
    v *= band[:, 3:4]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(n, i + 4)):
            if a[i][3 + j - i]:
                v[:, i] -= a[i][3 + j - i] * v[:, j]


def _fit(x_lu, y_lu, c):
    """Coefficients of the bicubic spline interpolating the samples c
    (nx, ny, p) on the grid whose axes have the factors x_lu and y_lu,
    solved in place in c: along axis 0, then along axis 1."""
    _solve_collocation(x_lu, c, 0)
    _solve_collocation(y_lu, c, 1)
    return c


class GridSurface(GraphSurface):
    """Chart surface backed by sampled grids and bicubic splines (dim 2 only).

    grad (Nx, Ny, 2, c) and hess (Nx, Ny, 3, c; entries 11, 12, 22) are samples
    on the grid x_axis x y_axis; c is read from grad, and each axis needs at
    least 4 samples. h is the height samples (Nx, Ny, c), or a deferred height:
    a function of no arguments, called at the first height read, returning the
    samples and the height at the chart origin (or None). Its fit is kept, and
    shifted to that height by adding the difference to every coefficient (the
    B-splines sum to one), not fitted again. Samples that are not finite or
    not (Nx, Ny, c) are InvalidInput, a deferred height's at that read. The
    fields are fitted independently, so sampled data (e.g. smoothed height
    fields with convolved derivative grids) plug in directly.
    Every component is interpolated by the not-a-knot bicubic spline, the
    fit FITPACK makes at s = 0: each axis's collocation matrix is factored
    once as a band (_collocation_lu) and solved in place along that axis for
    all components together. The height is one tensor-product spline, and
    the 2c gradient and 3c Hessian components are another, with all their
    coefficients in one array stacked along a trailing axis, so one
    derivatives call evaluates every component once. Points are clamped to
    the grid box first, as FITPACK evaluation does.

    Bounds: a B-spline lies within its largest |coefficient| on the grid box
    (convex hull; de Boor, A Practical Guide to Splines), so grad_sup and
    hess_sup are Frobenius norms of per-entry coefficient maxima (12 counted
    twice), and curvature_sup = hess_sup as |Pi(u,u)| <= |Hess h(u,u)|, |u| <= |u|_g.
    """

    def __init__(self, name, x_axis, y_axis, h, grad, hess, *, regularity=Regularity("smooth")):
        from scipy.interpolate import NdBSpline

        x_axis, y_axis = (require_array(ax, "grid axis", finite=True) for ax in (x_axis, y_axis))
        grad, hess = (require_array(a, "grad and hess samples", finite=True) for a in (grad, hess))
        nx, ny, _, codim = grad.shape if grad.ndim == 4 else (0, 0, 0, 0)
        if (x_axis.shape, y_axis.shape, grad.shape, hess.shape) \
                != ((nx,), (ny,), (nx, ny, 2, codim), (nx, ny, 3, codim)):
            raise InvalidInput("grad and hess must be (Nx, Ny, 2, c) and (Nx, Ny, 3, c) on the axes")
        if min(nx, ny) < 4:
            raise InvalidInput(f"a bicubic fit needs at least 4 samples per axis, got {nx} x {ny}")
        if not all(np.all(np.diff(ax) > 0) for ax in (x_axis, y_axis)):
            raise InvalidInput("grid axes must be strictly increasing")

        (tx, x_lu), (ty, y_lu) = _collocation_lu(x_axis), _collocation_lu(y_axis)
        n_grad = 2 * codim
        d_spl = NdBSpline((tx, ty), _fit(x_lu, y_lu, np.concatenate(
            [grad.reshape(nx, ny, n_grad), hess.reshape(nx, ny, 3 * codim)], axis=-1)), 3)
        # per component: reducing a strided (nx, ny) view is several times
        # faster than one reduction of the stack over axes (0, 1)
        d_max = np.array([max(c.max(), -c.min()) for c in np.moveaxis(d_spl.c, -1, 0)])
        grad_max, hess_max = d_max[:n_grad], d_max[n_grad:].reshape(3, codim)
        hess_sup = float(np.sqrt(np.sum(np.array([[1.0], [2.0], [1.0]]) * hess_max ** 2)))
        lo = np.array([x_axis[0], y_axis[0]])
        hi = np.array([x_axis[-1], y_axis[-1]])

        # Closures over the splines, not bound methods: a bound method stored
        # on self is a reference cycle, which leaves the coefficients to the
        # cyclic garbage collector instead of freeing them with the surface.
        def clamped(X):
            return np.minimum(np.maximum(np.asarray(X, dtype=float), lo), hi)

        @functools.cache
        def h_spl():
            samples, h0 = h() if callable(h) else (h, None)
            samples = require_array(samples, "height samples", finite=True)
            h0 = None if h0 is None else require_array(h0, "height at the origin", finite=True)
            if samples.shape != (nx, ny, codim) or h0 is not None and h0.shape != (codim,):
                raise InvalidInput(f"height samples and origin height must be {(nx, ny, codim)} and "
                                   f"{(codim,)}, got {samples.shape} and {np.shape(h0)}")
            spl = NdBSpline((tx, ty), _fit(x_lu, y_lu, samples.copy()), 3)
            if h0 is not None:
                spl.c[...] += h0 - spl(np.zeros(2))
            return spl

        if not callable(h):
            h_spl()  # fitted, and checked, now

        def derivatives(X):
            out = d_spl(clamped(X))
            lead = out.shape[:-1]
            return (out[..., :n_grad].reshape(lead + (2, codim)),
                    out[..., n_grad:].reshape(lead + (3, codim))[..., [[0, 1], [1, 2]], :])

        super().__init__(
            name, 2, codim, lo, hi, lambda X: h_spl()(clamped(X)), derivatives, regularity=regularity,
            bounds=SurfaceBounds(float(np.linalg.norm(grad_max)), hess_sup, hess_sup),
        )

    @classmethod
    def from_samples(cls, name, x_axis, y_axis, h_samples, *, regularity=Regularity("smooth")):
        """Build from height samples alone; derivatives by 4th-order central
        differences, usable domain shrunk by the stencil width (2 cells per
        differentiation pass, 4 total for the mixed second derivative). The
        stencils take one step per axis, so each axis must be evenly spaced:
        every sample within 1e-9 steps of the even grid between its ends
        (which a linspace axis is exactly)."""
        x_axis, y_axis = (require_array(ax, "grid axis", finite=True) for ax in (x_axis, y_axis))
        h = require_array(h_samples, "height samples", finite=True)
        if h.ndim == 2:
            h = h[..., None]
        if x_axis.ndim != 1 or y_axis.ndim != 1 or x_axis.size < 13 or y_axis.size < 13:
            raise InvalidInput(f"need 1-d axes of at least 13 samples, got shapes "
                               f"{x_axis.shape} and {y_axis.shape}")
        dx = x_axis[1] - x_axis[0]
        dy = y_axis[1] - y_axis[0]
        for ax, step in ((x_axis, dx), (y_axis, dy)):
            if np.any(np.abs(ax - np.linspace(ax[0], ax[-1], ax.size)) > 1e-9 * abs(step)):
                raise InvalidInput("from_samples needs evenly spaced axes")

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
