import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow.catalog import surface_from_spec
from geoflow.errors import DegeneratePlane, InvalidInput, OutOfChart
from geoflow.regularity import mollify
from geoflow.surface import (
    GraphSurface,
    GridSurface,
    Regularity,
    christoffel_batch,
    christoffel_fd,
    curvature_from_christoffel,
    curvature_operator,
    local_geometry,
    normal_projector,
    second_fundamental_form,
    sectional_curvature,
    tangent_frame,
)

from conftest import C3_AND_BETTER, CATALOG_NAMES, grid_points, random_chart_points


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embed_flat(flat):
    np.testing.assert_allclose(flat.embed_batch([0.2, -0.1]), [0.2, -0.1, 0.0], atol=1e-15)


def test_embed_hemisphere_pole(hemisphere):
    np.testing.assert_allclose(hemisphere.embed_batch([0.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_embed_hemisphere_value(hemisphere):
    # direct evaluation of sqrt(0.91)
    np.testing.assert_allclose(
        hemisphere.embed_batch([0.3, 0.0]), [0.3, 0.0, math.sqrt(0.91)], rtol=1e-15
    )


def test_embed_out_of_chart(hemisphere):
    with pytest.raises(OutOfChart):
        hemisphere.require_inside([0.79, 0.2])  # |x| > 0.8


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_flat_identity(flat):
    g = local_geometry(flat, np.array([0.3, -0.4])).g
    np.testing.assert_allclose(g, np.eye(2), atol=1e-15)


def test_metric_hemisphere_pole(hemisphere):
    g = local_geometry(hemisphere, np.zeros(2)).g
    np.testing.assert_allclose(g, np.eye(2), atol=1e-15)


def test_metric_hemisphere_closed_form(hemisphere):
    # g = I + x x^T / (1 - |x|^2) for the sphere graph
    g = local_geometry(hemisphere, np.array([0.3, 0.0])).g
    assert g[0, 0] == pytest.approx(1.0 / 0.91, rel=1e-14)
    assert g[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert g[1, 1] == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(3)
    for x in random_chart_points(hemisphere, 10, rng):
        g = local_geometry(hemisphere, x).g
        expected = np.eye(2) + np.outer(x, x) / (1.0 - x @ x)
        np.testing.assert_allclose(g, expected, rtol=1e-12)


def test_metric_inverse_consistency(surfaces):
    rng = np.random.default_rng(7)
    for surf in surfaces.values():
        for x in random_chart_points(surf, 20, rng):
            geo = local_geometry(surf, x)
            g, g_inv = geo.g, geo.g_inv
            np.testing.assert_allclose(g_inv @ g, np.eye(2), atol=1e-12)


def test_metric_eigenvalue_bounds(surfaces):
    # eigenvalues of g = I + grad grad^T lie in [1, 1 + |grad h|^2]
    rng = np.random.default_rng(11)
    for surf in surfaces.values():
        hi = 1.0 + surf.bounds.grad_sup ** 2
        pts = random_chart_points(surf, 100, rng)
        g = local_geometry(surf, pts).g
        eig = np.linalg.eigvalsh(g)
        assert np.all(eig >= 1.0 - 1e-12)
        assert np.all(eig <= hi + 1e-12)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_christoffel_flat_zero(flat):
    gamma = christoffel_batch(flat, np.array([0.5, 0.5]))
    np.testing.assert_allclose(gamma, 0.0, atol=1e-15)


def test_christoffel_hemisphere_pole(hemisphere):
    gamma = christoffel_batch(hemisphere, np.zeros(2))
    np.testing.assert_allclose(gamma, 0.0, atol=1e-15)


def test_christoffel_hemisphere_value(hemisphere):
    # closed form for the sphere graph: Gamma^1_11 = x1 / (1 - |x|^2)
    gamma = christoffel_batch(hemisphere, np.array([0.3, 0.0]))
    assert gamma[0, 0, 0] == pytest.approx(0.3 / 0.91, rel=1e-13)


def test_christoffel_symmetry(surfaces):
    rng = np.random.default_rng(13)
    for surf in surfaces.values():
        for x in random_chart_points(surf, 10, rng):
            g = christoffel_batch(surf, x)
            np.testing.assert_array_equal(g, np.swapaxes(g, 1, 2))


def test_christoffel_matches_metric_formula(hemisphere, trough):
    # graph-specialized symbols vs the general first-derivatives-of-g formula
    rng = np.random.default_rng(17)
    for surf in (hemisphere, trough):
        for x in random_chart_points(surf, 10, rng, shrink=0.7):
            direct = christoffel_batch(surf, x)
            fd = christoffel_fd(surf, x)
            np.testing.assert_allclose(direct, fd, atol=1e-9)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_crease_declared_where_rhs_is_not_smooth(surfaces, name):
    # A crease marks where Gamma or M is not smooth, not where h is: across
    # x1 = 0 the one-sided second differences of Gamma and M agree to O(d^3)
    # where they are smooth (halving d divides the gap by 8), and only to
    # O(d^2) on c2alpha, whose Gamma^1_11 ~ 9.375 u|u| (halving d divides it by 4).
    surf = surfaces[name]
    x2 = np.array([-0.3, 0.0, 0.25])
    y = np.broadcast_to(np.random.default_rng(29).normal(size=(3, 2)), (5, 3, 2))

    def gap(d):
        x = np.stack(np.broadcast_arrays((np.arange(-2, 3) * d)[:, None], x2), axis=-1)
        geo = local_geometry(surf, x)
        f = np.concatenate([geo.gamma.reshape(5, 3, -1), geo.curvature(y).reshape(5, 3, -1)], axis=-1)
        return np.max(np.abs((f[4] - 2 * f[3] + f[2]) - (f[2] - 2 * f[1] + f[0])))

    coarse, fine = gap(1e-2), gap(5e-3)
    assert (fine <= coarse / 7) == (surf.crease is None), (coarse, fine)
    if surf.crease is not None:
        assert fine >= coarse / 4.5


def test_derivative_arrays_match_finite_differences(surfaces):
    # analytic grad/hess agree with central differences of h to O(step^2)
    step = 1e-5
    rng = np.random.default_rng(19)
    for name in C3_AND_BETTER:
        surf = surfaces[name]
        for x in random_chart_points(surf, 5, rng, shrink=0.7):
            grad = surf.gradient(x)
            hess = surf.hessian(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                d = (surf.height(x + e) - surf.height(x - e)) / (2 * step)
                np.testing.assert_allclose(grad[i], d, atol=1e-8)
                dd = (surf.gradient(x + e) - surf.gradient(x - e)) / (2 * step)
                np.testing.assert_allclose(hess[i], dd, atol=1e-8)


def test_hessian_symmetry_sampling(surfaces):
    rng = np.random.default_rng(23)
    for surf in surfaces.values():
        pts = random_chart_points(surf, 50, rng)
        hess = surf.hessian(pts)
        np.testing.assert_array_equal(hess, np.swapaxes(hess, 1, 2))


def test_c11_hessian_bounded(vee):
    rng = np.random.default_rng(29)
    pts = random_chart_points(vee, 200, rng, shrink=0.99)
    hess = vee.hessian(pts)
    assert np.max(np.abs(hess)) <= vee.bounds.hess_sup




# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------


def test_pi_flat_zero(flat):
    out = second_fundamental_form(flat, [0.1, 0.2], [1.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_pi_hemisphere_pole(hemisphere):
    out = second_fundamental_form(hemisphere, [0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-14)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)


def test_pi_symmetry_and_tangency(surfaces):
    rng = np.random.default_rng(31)
    for surf in surfaces.values():
        pts = random_chart_points(surf, 100, rng)
        for x in pts[:20]:
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            a = second_fundamental_form(surf, x, u, v)
            b = second_fundamental_form(surf, x, v, u)
            np.testing.assert_allclose(a, b, atol=1e-12)
        # orthogonality to the tangent frame at 100 points
        for x in pts:
            u = rng.normal(size=2)
            val = second_fundamental_form(surf, x, u, u)
            frame = tangent_frame(surf, x)
            np.testing.assert_allclose(frame.T @ val, 0.0, atol=1e-10)


def test_pi_bilinear(hemisphere):
    rng = np.random.default_rng(37)
    x = np.array([0.2, -0.3])
    u, v, w = rng.normal(size=(3, 2))
    a, b = 0.7, -1.3
    lhs = second_fundamental_form(hemisphere, x, a * u + b * w, v)
    rhs = (
        a * second_fundamental_form(hemisphere, x, u, v)
        + b * second_fundamental_form(hemisphere, x, w, v)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_normal_projector_idempotent(hemisphere):
    p = normal_projector(hemisphere, np.array([0.3, 0.2]))
    np.testing.assert_allclose(p @ p, p, atol=1e-13)
    np.testing.assert_allclose(p, p.T, atol=1e-14)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_operator_flat(flat):
    m = curvature_operator(flat, [0.2, 0.2], [1.0, 0.5])
    np.testing.assert_allclose(m, 0.0, atol=1e-15)


def test_curvature_operator_sphere_pole(hemisphere):
    m = curvature_operator(hemisphere, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(m @ [0.0, 1.0], [0.0, -1.0], atol=1e-13)


def test_curvature_operator_annihilates_velocity(surfaces):
    rng = np.random.default_rng(41)
    for surf in surfaces.values():
        for x in random_chart_points(surf, 5, rng):
            v = rng.normal(size=2)
            m = curvature_operator(surf, x, v)
            np.testing.assert_allclose(m @ v, 0.0, atol=1e-12)


def test_gauss_consistency(hemisphere, trough):
    # second-derivative route vs third-derivative route, relative 1e-5
    rng = np.random.default_rng(43)
    for surf in (hemisphere, trough):
        scale = max(surf.bounds.hess_sup ** 2, 1e-8)
        for x in random_chart_points(surf, 20, rng, shrink=0.7):
            v = rng.normal(size=2)
            j = rng.normal(size=2)
            a = curvature_operator(surf, x, v) @ j
            b = curvature_from_christoffel(surf, x, v, j)
            rel = np.max(np.abs(a - b)) / max(np.max(np.abs(b)), scale)
            assert rel <= 1e-5


def test_sectional_flat(flat):
    assert sectional_curvature(flat, [0.1, 0.1], [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-14)


def test_sectional_hemisphere_unit(hemisphere):
    rng = np.random.default_rng(47)
    for x in random_chart_points(hemisphere, 20, rng):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e-3:
            continue
        k = sectional_curvature(hemisphere, x, u, v)
        assert k == pytest.approx(1.0, abs=1e-8)


def test_sectional_profile_surfaces_flat(trough, vee, surfaces):
    rng = np.random.default_rng(53)
    for surf in (trough, surfaces["c21_cubic"], vee):
        for x in random_chart_points(surf, 10, rng):
            k = sectional_curvature(surf, x, [1.0, 0.2], [-0.3, 1.0])
            assert abs(k) <= 1e-8


def test_sectional_symmetric_under_swap(hemisphere):
    rng = np.random.default_rng(59)
    for _ in range(10):
        x = random_chart_points(hemisphere, 1, rng)[0]
        u, v = rng.normal(size=(2, 2))
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e-3:
            continue
        a = sectional_curvature(hemisphere, x, u, v)
        b = sectional_curvature(hemisphere, x, v, u)
        assert a == pytest.approx(b, abs=1e-12)


def test_sectional_degenerate_plane(hemisphere):
    with pytest.raises(DegeneratePlane):
        sectional_curvature(hemisphere, [0.1, 0.1], [1.0, 0.5], [2.0, 1.0])


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [1.0, 0.0, 0.0], [1.0], 1.0])
def test_pointwise_ops_reject_malformed_vectors(hemisphere, bad):
    x, e = [0.1, 0.1], [0.0, 1.0]
    calls = [
        lambda: sectional_curvature(hemisphere, x, bad, e),
        lambda: sectional_curvature(hemisphere, x, e, bad),
        lambda: second_fundamental_form(hemisphere, x, bad, e),
        lambda: second_fundamental_form(hemisphere, x, e, bad),
        lambda: curvature_operator(hemisphere, x, bad),
        lambda: curvature_from_christoffel(hemisphere, x, bad, e),
        lambda: curvature_from_christoffel(hemisphere, x, e, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()


@pytest.mark.parametrize("tag, alpha", [("C4", None), ("C2alpha", math.nan), ("C2alpha", 0.0),
                                        ("C2alpha", 1.5), ("C2alpha", -0.5), ("C2alpha", "x"),
                                        ("C2alpha", True)])
def test_regularity_rejects_bad_tag_or_alpha(tag, alpha):
    with pytest.raises(InvalidInput):
        Regularity(tag, alpha)


def test_make_surface_rejects_bad_alpha():
    from geoflow import InvalidInput as exported, __all__
    from geoflow.catalog import make_surface

    assert "InvalidInput" in __all__ and exported is InvalidInput
    for alpha in (math.nan, 0.0, 2.0, "x", None):
        with pytest.raises(InvalidInput):
            make_surface("c2alpha", alpha=alpha)
    with pytest.raises(InvalidInput):
        make_surface("flat", alpha=0.5)  # a parameter flat does not take


@settings(max_examples=30, deadline=None)
@given(
    x1=st.floats(-0.5, 0.5),
    x2=st.floats(-0.5, 0.5),
    u1=st.floats(-2, 2),
    u2=st.floats(-2, 2),
)
def test_curvature_quadratic_form_positive_on_sphere(x1, x2, u1, u2):
    # <M J, J>_g = -K (|v|^2 |J|^2 - <v,J>^2) <= 0 on the unit sphere
    from geoflow.catalog import make_surface

    hemi = make_surface("hemisphere")
    x = np.array([x1, x2])
    v = np.array([1.0, 0.3])
    j = np.array([u1, u2])
    g = local_geometry(hemi, x).g
    m = curvature_operator(hemi, x, v)
    quad = j @ g @ (m @ j)
    gram = (v @ g @ v) * (j @ g @ j) - (v @ g @ j) ** 2
    assert quad == pytest.approx(-gram, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# grid surfaces
# ---------------------------------------------------------------------------


def test_grid_surface_from_samples_matches_analytic(hemisphere):
    n = 161
    xa = np.linspace(-0.45, 0.45, n)
    ya = np.linspace(-0.45, 0.45, n)
    mesh = np.stack(np.meshgrid(xa, ya, indexing="ij"), axis=-1)
    samples = hemisphere.height(mesh)[..., 0]
    grid = GridSurface.from_samples("hemi_grid", xa, ya, samples)
    rng = np.random.default_rng(61)
    pts = random_chart_points(grid, 30, rng, shrink=0.8)
    np.testing.assert_allclose(grid.height(pts), hemisphere.height(pts), atol=1e-10)
    np.testing.assert_allclose(grid.gradient(pts), hemisphere.gradient(pts), atol=1e-7)
    np.testing.assert_allclose(grid.hessian(pts), hemisphere.hessian(pts), atol=1e-5)


def test_grid_surface_freed_without_cycle_collector():
    # Its spline coefficients are the largest arrays a smoothing run keeps;
    # they must go with the last reference, not wait for the cycle collector.
    import gc
    import weakref

    xa = np.linspace(-0.5, 0.5, 41)
    grid = GridSurface.from_samples("flat_grid", xa, xa, np.zeros((41, 41)))
    grid.hessian(np.zeros(2))
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_grid_surface_out_of_chart():
    xa = np.linspace(-0.5, 0.5, 41)
    grid = GridSurface.from_samples(
        "flat_grid", xa, xa, np.zeros((41, 41))
    )
    with pytest.raises(OutOfChart):
        grid.require_inside([0.49, 0.0])  # outside the shrunk valid region


def _nan_height_sample():
    xa = np.linspace(-0.5, 0.5, 41)
    h = np.zeros((41, 41))
    h[20, 20] = np.nan
    return GridSurface.from_samples("nan_grid", xa, xa, h)


def _inf_hessian_sample():
    xa = np.linspace(-0.5, 0.5, 21)
    hess = np.zeros((21, 21, 3, 1))
    hess[3, 4, 1, 0] = np.inf
    return GridSurface("inf_grid", xa, xa, np.zeros((21, 21, 1)), np.zeros((21, 21, 2, 1)), hess)


@pytest.mark.parametrize("build", [_nan_height_sample, _inf_hessian_sample],
                         ids=["nan_height", "inf_hessian"])
def test_grid_surface_rejects_non_finite_samples(build):
    # a non-finite sample would come back as NaN bounds and NaN derivatives
    with pytest.raises(InvalidInput):
        build()


# ---------------------------------------------------------------------------
# local geometry kernel against the separate per-quantity formulas
# ---------------------------------------------------------------------------


def reference_geometry(surface, X, Y):
    """Gamma, S and M computed separately, each from its own formula."""
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
    return g, np.linalg.inv(g), gamma, s, np.einsum("...kl,...lj->...kj", np.linalg.inv(g), b)


def _sphere_cap3():
    """Cap of the unit 3-sphere in R^4: h = sqrt(1 - |x|^2) over the ball |x| <= 0.8 in R^3."""
    def root(X):
        X = np.asarray(X, dtype=float)
        return X, np.sqrt(1.0 - np.einsum("...i,...i->...", X, X))

    def height(X):
        return root(X)[1][..., None]

    def derivatives(X):
        X, s = root(X)
        eye = np.eye(3) / s[..., None, None]
        hess = -eye - X[..., :, None] * X[..., None, :] / s[..., None, None] ** 3
        return (-X / s[..., None])[..., None], hess[..., None]

    return GraphSurface("cap3", 3, 1, [-0.8] * 3, [0.8] * 3, height, derivatives,
                        regularity=Regularity("smooth"),
                        membership=lambda X: np.einsum("...i,...i->...", X, X) <= 0.64)


@pytest.fixture(scope="module")
def kernel_surfaces(surfaces):
    return list(surfaces.values()) + [mollify(surfaces["c21_cubic"], 0.1, kernel_cells=8),
                                      _codim2_grid(), _sphere_cap3()]


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


@pytest.mark.parametrize("n_points", [1, 256])
def test_local_geometry_matches_reference(kernel_surfaces, n_points):
    rng = np.random.default_rng(17)
    for surf in kernel_surfaces:
        X = random_chart_points(surf, n_points, rng)
        Y = rng.normal(size=X.shape)
        if n_points == 1:
            X, Y = X[0], Y[0]
        geo = local_geometry(surf, X)
        ref = reference_geometry(surf, X, Y)
        got = (geo.g, geo.g_inv, geo.gamma, geo.pi, geo.curvature(Y))
        for name, a, b in zip(("g", "g_inv", "gamma", "pi", "M"), got, ref):
            assert a.shape == b.shape, (surf.name, name)
            if np.any(b):
                assert _rel(a, b) <= 1e-13, (surf.name, name, _rel(a, b))
            else:
                assert np.max(np.abs(a)) <= 1e-15, (surf.name, name)
        np.testing.assert_allclose(geo.gamma_v(Y), np.einsum("...kij,...j->...ki", ref[2], Y),
                                   rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("domain", [[[0.5, -0.5], [-0.5, 0.5]], [[-0.5, 0.5], [0.5, -0.5]],
                                    [[math.nan, 0.5], [-0.5, 0.5]], [1, 2], [[0, 1]],
                                    [[0, 1], [0, 1, 2]], [[0, "a"], [0, 1]], [[0, math.inf], [0, 1]]])
def test_grid_spec_rejects_bad_domain(domain):
    # a reversed, non-finite or malformed domain is InvalidInput, not a raw
    # TypeError or ValueError from unpacking it or from scipy
    samples = np.random.default_rng(3).normal(size=(17, 17)).tolist()
    with pytest.raises(InvalidInput, match="strictly increasing"):
        surface_from_spec({"type": "grid", "samples": samples, "domain": domain})


def test_derivatives_contract(kernel_surfaces, hemisphere):
    # kernel_surfaces: the catalog, a mollified GridSurface, a codim-2 grid and a 3-dim cap.
    # derivatives(X) is (grad, hess) of shapes (..., m, c) and (..., m, m, c), the
    # Hessian exactly symmetric; gradient and hessian are its two parts.
    rng = np.random.default_rng(29)
    for surf in kernel_surfaces:
        m, c = surf.dim, surf.codim
        pts = random_chart_points(surf, 12, rng)
        for X in (pts[0], pts, pts.reshape(3, 4, m)):
            grad, hess = surf.derivatives(X)
            assert grad.shape == X.shape[:-1] + (m, c), surf.name
            assert hess.shape == X.shape[:-1] + (m, m, c), surf.name
            assert np.array_equal(hess, hess.swapaxes(-3, -2)), surf.name
            for part, whole in ((surf.gradient(X), grad), (surf.hessian(X), hess)):
                assert part.shape == whole.shape and part.tobytes() == whole.tobytes(), surf.name
    for bad in ([0.6, 0.8], [[0.0, 0.1], [1.2, 0.0]]):
        for fn in (hemisphere.derivatives, hemisphere.gradient, hemisphere.hessian):
            with pytest.raises(OutOfChart):
                fn(bad)


def test_rhs_solves_only_in_the_normal_space(monkeypatch, surfaces):
    # codim 1: no np.linalg call; codim c: one c x c inverse per RHS evaluation
    from geoflow.flow import make_geodesic_rhs
    from geoflow.jacobi import _make_joint_rhs

    calls = []

    def counted(name, f):
        def wrapped(a, *args):
            calls.append((name, np.shape(a)))
            return f(a, *args)
        return wrapped

    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    u = np.array([0.2, -0.1, 0.6, 0.5])
    for surf in list(surfaces.values()) + [_codim2_grid()]:
        calls.clear()
        assert np.all(np.isfinite(make_geodesic_rhs(surf)(np.stack([u, -u]))))
        assert np.all(np.isfinite(_make_joint_rhs(surf, 4)(np.concatenate([u, np.eye(4).ravel()]))))
        assert calls == ([] if surf.codim == 1 else [("inv", (2, 2, 2)), ("inv", (2, 2))]), surf.name


def test_stacked_spline_matches_fitpack():
    from scipy.interpolate import RectBivariateSpline

    xa = np.linspace(-0.6, 0.6, 57)
    ya = np.linspace(-0.5, 0.55, 49)
    xx, yy = np.meshgrid(xa, ya, indexing="ij")
    fields = [np.sin(3 * xx + yy) * np.cos(2 * yy) + 0.1 * k * xx * yy for k in range(12)]
    # codim 2: h (2 grids), gradient (2 x 2), Hessian entries 11, 12, 22 (3 x 2)
    f = np.stack(fields, axis=-1)
    grid = GridSurface("spline2", xa, ya, f[..., :2], f[..., 2:6].reshape(57, 49, 2, 2),
                       f[..., 6:].reshape(57, 49, 3, 2))
    rng = np.random.default_rng(5)
    # includes points outside the grid box, where FITPACK clamps
    pts = rng.uniform([-0.7, -0.6], [0.7, 0.65], size=(300, 2))

    def ev(z):
        return RectBivariateSpline(xa, ya, z, kx=3, ky=3, s=0).ev(pts[:, 0], pts[:, 1])

    h_ref = np.stack([ev(z) for z in fields[:2]], axis=-1)
    g_ref = np.stack([np.stack([ev(fields[2 + 2 * i + a]) for a in range(2)], axis=-1)
                      for i in range(2)], axis=-2)
    h11, h12, h22 = [np.stack([ev(fields[6 + 2 * k + a]) for a in range(2)], axis=-1)
                     for k in range(3)]
    hess_ref = np.stack([np.stack([h11, h12], -2), np.stack([h12, h22], -2)], -3)
    for got, ref in ((grid.height(pts), h_ref), (grid.gradient(pts), g_ref),
                     (grid.hessian(pts), hess_ref)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))
    assert grid.hessian(pts[0]).shape == (2, 2, 2)
    with pytest.raises(ValueError):  # a full 2 x 2 Hessian is not the stored layout
        GridSurface("bad", xa, ya, f[..., :2], f[..., 2:6].reshape(57, 49, 2, 2),
                    f[..., 4:].reshape(57, 49, 2, 2, 2))


@pytest.mark.parametrize("nx, ny", [(4, 4), (4, 9), (23, 6), (75, 61)])
def test_banded_fit_matches_fitpack(nx, ny):
    # the banded collocation solve reproduces FITPACK's s = 0 knots and
    # coefficients on non-uniform axes, down to the 4-sample minimum
    from scipy.interpolate import RectBivariateSpline

    from geoflow import surface

    rng = np.random.default_rng(nx * ny)
    xa, ya = (np.cumsum(rng.uniform(0.5, 1.5, n)) / n for n in (nx, ny))
    # codim 2: 2 height, 2 x 2 gradient and 3 x 2 Hessian-entry grids
    f = rng.normal(size=(nx, ny, 12))
    (tx, x_lu), (ty, y_lu) = surface._collocation_lu(xa), surface._collocation_lu(ya)
    assert x_lu.shape == (nx, 7) and y_lu.shape == (ny, 7)
    got = surface._fit(x_lu, y_lu, f.copy())
    for comp in range(12):
        spl = RectBivariateSpline(xa, ya, f[..., comp], kx=3, ky=3, s=0)
        np.testing.assert_array_equal(tx, spl.get_knots()[0])
        np.testing.assert_array_equal(ty, spl.get_knots()[1])
        ref = spl.get_coeffs().reshape(nx, ny)
        assert np.max(np.abs(got[..., comp] - ref)) <= 1e-14 * np.max(np.abs(ref)), comp
    grid = GridSurface("fit", xa, ya, f[..., :2], f[..., 2:6].reshape(nx, ny, 2, 2),
                       f[..., 6:].reshape(nx, ny, 3, 2))
    pts = rng.uniform([xa[0], ya[0]], [xa[-1], ya[-1]], size=(50, 2))
    ref = np.stack([RectBivariateSpline(xa, ya, f[..., a], s=0).ev(pts[:, 0], pts[:, 1])
                    for a in range(2)], axis=-1)
    assert np.max(np.abs(grid.height(pts) - ref)) <= 1e-14 * np.max(np.abs(f))


@pytest.mark.parametrize("nx, ny", [(3, 4), (4, 3), (1, 8)])
def test_grid_surface_rejects_under_4_samples(nx, ny):
    # a not-a-knot bicubic needs 4 samples per axis
    axes = [np.linspace(0.0, 1.0, n) for n in (nx, ny)]
    with pytest.raises(InvalidInput, match="4 samples"):
        GridSurface("small", *axes, np.zeros((nx, ny, 1)), np.zeros((nx, ny, 2, 1)),
                    np.zeros((nx, ny, 3, 1)))


def test_grid_surface_build_peak_memory():
    # a 673 x 673 fit (mollify's finest default level) holds its 6 coefficient
    # grids and one grid line at a time: the parent's 6 per-component FITPACK
    # fits peaked at 10.07 grids, and a dense 673 x 673 collocation matrix or
    # a transposed copy of a stack would each add at least one more grid
    import tracemalloc

    n = 673
    axis = np.linspace(-0.7, 0.7, n)
    f = np.random.default_rng(0).normal(size=(n, n, 6))
    h, grad, hess = f[..., :1], f[..., 1:3].reshape(n, n, 2, 1), f[..., 3:].reshape(n, n, 3, 1)
    GridSurface("warm", axis[:9], axis[:9], h[:9, :9], grad[:9, :9], hess[:9, :9])  # imports
    tracemalloc.start()
    try:
        GridSurface("big", axis, axis, h, grad, hess)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * n * n, peak / (8 * n * n)


# ---------------------------------------------------------------------------
# declared bounds
# ---------------------------------------------------------------------------


def _codim2_grid():
    """Spline surface of h = (0.3 sin(3 x1 + x2), 0.2 x1 cos(2 x2)) on a coarse grid."""
    xa = np.linspace(-0.5, 0.5, 21)
    x1, x2 = np.meshgrid(xa, xa, indexing="ij")
    s, c = np.sin(3 * x1 + x2), np.cos(3 * x1 + x2)
    s2, c2 = np.sin(2 * x2), np.cos(2 * x2)
    zero = np.zeros_like(x1)
    h = np.stack([0.3 * s, 0.2 * x1 * c2], -1)
    grad = np.stack([np.stack([0.9 * c, 0.2 * c2], -1),
                     np.stack([0.3 * c, -0.4 * x1 * s2], -1)], -2)
    hess = np.stack([np.stack([-2.7 * s, zero], -1), np.stack([-0.9 * s, -0.4 * s2], -1),
                     np.stack([-0.3 * s, -0.8 * x1 * c2], -1)], -2)
    return GridSurface("codim2", xa, xa, h, grad, hess)


def _dense_sups(surf, pts):
    """Largest |grad h|, |Hess h(u, u)| over unit u and principal curvature
    over the points of a codim-1 surface, each exact per point."""
    geo = local_geometry(surf, pts)
    grad = np.sqrt(np.sum(geo.grad ** 2, axis=(-2, -1)))
    hess = np.abs(np.linalg.eigvalsh(geo.hess[..., 0])).max(axis=-1)
    shape_op = np.linalg.solve(geo.g, geo.hess[..., 0]) / np.sqrt(1.0 + grad ** 2)[:, None, None]
    kappa = np.abs(np.linalg.eigvals(shape_op).real).max(axis=-1)
    return grad.max(), hess.max(), kappa.max()


def test_hemisphere_bounds(hemisphere):
    assert hemisphere.bounds.grad_sup == pytest.approx(4 / 3, rel=1e-15)
    assert hemisphere.bounds.hess_sup == pytest.approx(125 / 27, rel=1e-15)
    assert hemisphere.bounds.curvature_sup == 1.0


def test_vee_bounds(vee):
    assert (vee.bounds.grad_sup, vee.bounds.hess_sup, vee.bounds.curvature_sup) == (1.6, 2.0, 2.0)


def test_declared_bounds_match_dense_maxima(surfaces):
    # every sup is attained or approached on the x1 axis (the profiles depend
    # on x1 alone, the hemisphere on |x|) or on the hemisphere's rim circle
    angle = np.linspace(0.0, 2.0 * np.pi, 721)
    rim = 0.8 * np.stack([np.cos(angle), np.sin(angle)], -1)
    axis = np.stack([np.linspace(-0.8, 0.8, 100_001), np.zeros(100_001)], -1)
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        pts = np.concatenate([axis, rim, grid_points(surf, 101)])
        b = surf.bounds
        for declared, dense in zip((b.grad_sup, b.hess_sup, b.curvature_sup),
                                   _dense_sups(surf, pts)):
            assert dense <= declared * (1 + 1e-12), name
            assert declared <= dense * (1 + 1e-6), name


def test_grid_bounds_cover_splines(vee):
    # the coefficient bounds hold between the grid nodes, where splines ring
    angle = np.linspace(0.0, np.pi, 32, endpoint=False)
    dirs = np.stack([np.cos(angle), np.sin(angle)], -1)
    for surf in (mollify(vee, 0.05), _codim2_grid()):
        grad_max = hess_max = 0.0
        for pts in np.array_split(grid_points(surf, 400), 16):
            grad_max = max(grad_max, np.sqrt(np.sum(surf.gradient(pts) ** 2, axis=(-2, -1))).max())
            hess_uu = np.einsum("di,dj,pija->pda", dirs, dirs, surf.hessian(pts))
            hess_max = max(hess_max, np.linalg.norm(hess_uu, axis=-1).max())
        assert grad_max <= surf.bounds.grad_sup, surf.name
        assert hess_max <= surf.bounds.hess_sup, surf.name
        assert surf.bounds.curvature_sup == surf.bounds.hess_sup


def test_curvature_sup_bounds_sampled_directions(surfaces):
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(64, 2))

    def sampled(surf, pts):
        geo = local_geometry(surf, pts)
        gn2 = np.einsum("di,pij,dj->pd", dirs, geo.g, dirs)
        val2 = np.einsum("di,dj,dk,dl,pijkl->pd", dirs, dirs, dirs, dirs, geo.pi) / gn2 ** 2
        return float(np.sqrt(np.max(val2)))

    for surf in [surfaces[name] for name in CATALOG_NAMES] + [_codim2_grid()]:
        pts = grid_points(surf, 16)
        assert surf.bounds.curvature_sup >= sampled(surf, pts) - 1e-12, surf.name


@pytest.mark.parametrize("lo, hi", [
    ([-1.0, -1.0], [math.nan, 1.0]),      # NaN passes a hi <= lo test
    ([-1.0, -1.0], [math.inf, 1.0]),
    ([-1.0, -1.0], [1.0]),                # would broadcast over the box
    ([-1.0], [1.0, 1.0]),
    ([-1.0, -1.0], [1.0, -1.0]),
    ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
])
def test_chart_box_rejects_bad_corners(lo, hi):
    with pytest.raises(InvalidInput, match="chart box"):
        GraphSurface("box", 2, 1, lo, hi, None, None, regularity=Regularity("smooth"))


def test_undeclared_bounds_raise():
    surf = GraphSurface("bare", 2, 1, [-1.0, -1.0], [1.0, 1.0], None, None,
                        regularity=Regularity("smooth"))
    with pytest.raises(InvalidInput):
        surf.bounds
