import copy
import math

import numpy as np
import pytest

from geoflow.errors import InvalidInput, OutOfChart, OutOfDomain
from geoflow.flow import TangentVector, geodesic_flow, integrate_batch, make_geodesic_rhs
from geoflow.jacobi import (
    JacobiState,
    _make_joint_rhs,
    basis_block,
    chart_to_covariant,
    coefficient_matrix,
    fd_flow_differential,
    flow_differential,
    mixed_partials_residual,
    propagate_jacobi,
)
from geoflow.regularity import mollify
from geoflow.surface import g_norm_batch, local_geometry

from conftest import C2_AND_BETTER, C3_AND_BETTER, CATALOG_NAMES, random_chart_points


def unit_tangent(surface, rng, shrink=0.4):
    x = random_chart_points(surface, 1, rng, shrink=shrink)[0]
    y = rng.normal(size=2)
    y /= g_norm_batch(surface, x, y)
    return TangentVector(x, y)


# ---------------------------------------------------------------------------
# joint right-hand side
# ---------------------------------------------------------------------------


def joint_rhs(surface, v, j0):
    """Phase and (J, K) derivatives of the joint RHS at one state, one column."""
    m = surface.dim
    du = _make_joint_rhs(surface, 1)(np.concatenate([v.x, v.y, j0.J, j0.K]))
    return TangentVector(du[:m], du[m: 2 * m]), JacobiState(du[2 * m: 3 * m], du[3 * m:])


def test_joint_rhs_flat(flat):
    j = np.array([0.3, -0.2])
    k = np.array([1.0, 0.5])
    _, jac_dot = joint_rhs(flat, TangentVector([0.1, 0.1], [1.0, 0.0]), JacobiState(j, k))
    np.testing.assert_allclose(jac_dot.J, k, atol=1e-15)
    np.testing.assert_allclose(jac_dot.K, 0.0, atol=1e-15)


def test_joint_rhs_sphere_pole(hemisphere):
    _, jac_dot = joint_rhs(
        hemisphere,
        TangentVector([0.0, 0.0], [1.0, 0.0]),
        JacobiState([0.0, 1.0], [0.0, 0.0]),
    )
    np.testing.assert_allclose(jac_dot.K, [0.0, -1.0], atol=1e-13)


def test_joint_rhs_zero_is_fixed(surfaces):
    rng = np.random.default_rng(2)
    for surf in surfaces.values():
        v = unit_tangent(surf, rng)
        _, jac_dot = joint_rhs(surf, v, JacobiState([0.0, 0.0], [0.0, 0.0]))
        np.testing.assert_array_equal(jac_dot.J, 0.0)
        np.testing.assert_array_equal(jac_dot.K, 0.0)


def test_joint_rhs_phase_matches_geodesic_rhs(surfaces):
    rng = np.random.default_rng(4)
    for surf in surfaces.values():
        v = unit_tangent(surf, rng)
        phase_dot, _ = joint_rhs(surf, v, JacobiState([0.3, -0.1], [0.2, 0.5]))
        expected = make_geodesic_rhs(surf)(v.as_state())
        np.testing.assert_allclose(phase_dot.as_state(), expected, rtol=1e-14, atol=1e-15)


def hand_built_a(surface, x, y):
    """A = [[-G, I], [M, -G]] assembled block by block from the geometry."""
    m = surface.dim
    geo = local_geometry(surface, x)
    a = np.zeros(x.shape[:-1] + (2 * m, 2 * m))
    a[..., :m, :m] = a[..., m:, m:] = -geo.gamma_v(y)
    a[..., :m, m:] = np.eye(m)
    a[..., m:, :m] = geo.curvature(y)
    return a


@pytest.mark.parametrize("n_points", [1, 64])
def test_joint_rhs_matches_coefficient_matrix(surfaces, n_points):
    # coefficient_matrix (which sets the Gronwall and transfer constants) is
    # read off the joint RHS; it must be the A written out by hand, bit for
    # bit up to the sign of zeros, for any leading shape
    rng = np.random.default_rng(6)
    for surf in [*surfaces.values(), mollify(surfaces["c2alpha"], 0.1)]:
        m = surf.dim
        for lead in [(), (n_points,), (n_points, 3)]:
            x = random_chart_points(surf, int(np.prod(lead)), rng).reshape(lead + (m,))
            y = rng.normal(size=lead + (m,))
            a = coefficient_matrix(surf, x, y)
            assert a.shape == lead + (2 * m, 2 * m)
            assert np.array_equal(a, hand_built_a(surf, x, y)), (surf.name, lead)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_flat_affine(flat):
    j0 = JacobiState([0.2, -0.1], [0.5, 0.3])
    out = propagate_jacobi(flat, TangentVector([0.0, 0.0], [0.4, 0.1]), j0, 1.5)
    np.testing.assert_allclose(out.J, j0.J + 1.5 * j0.K, atol=1e-11)
    np.testing.assert_allclose(out.K, j0.K, atol=1e-11)


def test_propagate_sphere_sine(hemisphere):
    # |J(t)|_g = sin t, |K(t)|_g = cos t for J(0)=0, K(0) unit orthogonal
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        out = propagate_jacobi(hemisphere, v, JacobiState([0, 0], [0, 1.0]), t, tol=1e-11)
        x_t = geodesic_flow(hemisphere, t, v).x
        assert float(g_norm_batch(hemisphere, x_t, out.J)) == pytest.approx(
            math.sin(t), abs=1e-9
        )
        assert float(g_norm_batch(hemisphere, x_t, out.K)) == pytest.approx(
            math.cos(t), abs=1e-9
        )


def test_propagate_tangential(surfaces):
    # J0 = 0, K0 = velocity propagates to (t * velocity, velocity)
    rng = np.random.default_rng(3)
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        v = unit_tangent(surf, rng)
        t = 0.3
        out = propagate_jacobi(surf, v, JacobiState([0.0, 0.0], v.y), t)
        end = geodesic_flow(surf, t, v)
        np.testing.assert_allclose(out.J, t * end.y, atol=1e-8)
        np.testing.assert_allclose(out.K, end.y, atol=1e-8)


def test_propagate_linearity(hemisphere):
    rng = np.random.default_rng(5)
    v = unit_tangent(hemisphere, rng)
    a = JacobiState(rng.normal(size=2), rng.normal(size=2))
    b = JacobiState(rng.normal(size=2), rng.normal(size=2))
    al, be = 0.6, -1.7
    combo = JacobiState(al * a.J + be * b.J, al * a.K + be * b.K)
    out_c = propagate_jacobi(hemisphere, v, combo, 0.4, tol=1e-11).as_vector()
    out_a = propagate_jacobi(hemisphere, v, a, 0.4, tol=1e-11).as_vector()
    out_b = propagate_jacobi(hemisphere, v, b, 0.4, tol=1e-11).as_vector()
    np.testing.assert_allclose(out_c, al * out_a + be * out_b, atol=1e-10)


def test_propagate_out_of_domain(hemisphere):
    with pytest.raises(OutOfDomain):
        propagate_jacobi(
            hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), JacobiState([1, 0], [0, 0]), 2.0
        )


# ---------------------------------------------------------------------------
# flow differential
# ---------------------------------------------------------------------------


def test_flow_differential_identity_at_zero(hemisphere):
    fd = flow_differential(hemisphere, 0.0, TangentVector([0.1, 0.1], [1.0, 0.0]))
    np.testing.assert_array_equal(fd.matrix, np.eye(4))


def test_flow_differential_flat_block(flat):
    fd = flow_differential(flat, 1.0, TangentVector([0.0, 0.0], [0.5, 0.2]))
    expected = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    np.testing.assert_allclose(fd.matrix, expected, atol=1e-11)


def test_flow_differential_columns_match_repropagation(hemisphere):
    rng = np.random.default_rng(11)
    v = unit_tangent(hemisphere, rng)
    fd = flow_differential(hemisphere, 0.45, v, tol=1e-11)
    for c in (0, 2, 3):
        e = np.zeros(4)
        e[c] = 1.0
        out = propagate_jacobi(
            hemisphere, v, JacobiState(e[:2], e[2:]), 0.45, tol=1e-11
        ).as_vector()
        np.testing.assert_allclose(fd.matrix[:, c], out, atol=1e-9)


def test_flow_differential_sphere_sine_block(hemisphere):
    # the J-from-K block acts with gain sin(t) on the orthogonal direction
    fd = flow_differential(hemisphere, 0.5, TangentVector([0.0, 0.0], [1.0, 0.0]), tol=1e-11)
    col = fd.matrix @ np.array([0.0, 0.0, 0.0, 1.0])
    x_t = geodesic_flow(hemisphere, 0.5, TangentVector([0.0, 0.0], [1.0, 0.0])).x
    assert float(g_norm_batch(hemisphere, x_t, col[:2])) == pytest.approx(
        math.sin(0.5), abs=1e-9
    )


def test_cocycle_composition(hemisphere):
    rng = np.random.default_rng(13)
    v = unit_tangent(hemisphere, rng, shrink=0.25)
    s, t = 0.2, 0.25
    a = flow_differential(hemisphere, s + t, v, tol=1e-11).matrix
    mid = geodesic_flow(hemisphere, t, v, tol=1e-11)
    b = flow_differential(hemisphere, s, mid, tol=1e-11).matrix
    c = flow_differential(hemisphere, t, v, tol=1e-11).matrix
    np.testing.assert_allclose(a, b @ c, atol=1e-7)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_flat(flat):
    num = fd_flow_differential(flat, 1.0, TangentVector([0.0, 0.0], [0.5, 0.2]))
    expected = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    np.testing.assert_allclose(num, expected, atol=1e-9)


def test_fd_matches_jacobi_hemisphere(hemisphere):
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    a = flow_differential(hemisphere, 0.5, v, tol=1e-11).matrix
    b = fd_flow_differential(hemisphere, 0.5, v)
    assert np.max(np.abs(a - b)) <= 1e-6


def test_fd_oracle_catalog(surfaces):
    rng = np.random.default_rng(17)
    for name in C2_AND_BETTER:
        surf = surfaces[name]
        for _ in range(3):
            v = unit_tangent(surf, rng)
            t = rng.uniform(0.15, 0.35)
            a = flow_differential(surf, t, v, tol=1e-11).matrix
            b = fd_flow_differential(surf, t, v)
            assert np.max(np.abs(a - b)) <= 1e-5, name


def test_fd_truncation_order(hemisphere):
    # second-order stencil error shrinks like eps^2 before the roundoff floor
    rng = np.random.default_rng(19)
    v = unit_tangent(hemisphere, rng)
    ref = flow_differential(hemisphere, 0.4, v, tol=1e-12).matrix
    errs = [
        np.max(np.abs(fd_flow_differential(hemisphere, 0.4, v, eps=e, order=2) - ref))
        for e in (1e-2, 1e-3)
    ]
    assert errs[0] / errs[1] > 30.0


# ---------------------------------------------------------------------------
# mixed partials
# ---------------------------------------------------------------------------


def test_mixed_partials_flat(flat):
    r = mixed_partials_residual(
        flat, TangentVector([0.0, 0.0], [0.5, 0.2]), np.array([0.3, 1.0])
    )
    assert r <= 1e-10


def test_mixed_partials_hemisphere(hemisphere):
    r = mixed_partials_residual(
        hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert r <= 1e-6


def test_mixed_partials_smooth_catalog(surfaces):
    rng = np.random.default_rng(23)
    for name in C3_AND_BETTER:
        surf = surfaces[name]
        v = unit_tangent(surf, rng, shrink=0.3)
        w = rng.normal(size=2)
        assert mixed_partials_residual(surf, v, w) <= 1e-5, name


# ---------------------------------------------------------------------------
# boundary validation and evaluation counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("v, w", [
    (TangentVector([0.0, 0.0], [1.0, 0.0]), [1.0, 0.0, 0.0]),
    (TangentVector([0.0, 0.0], [1.0, 0.0]), [math.nan, 0.0]),
    (TangentVector([0.0, 0.0], [math.nan, 0.0]), [1.0, 0.0]),
], ids=["w_wrong_shape", "w_nan", "velocity_nan"])
def test_mixed_partials_bad_input_rejected(hemisphere, v, w):
    with pytest.raises(InvalidInput):
        mixed_partials_residual(hemisphere, v, np.array(w))


def test_flow_differential_end_state(surfaces):
    rng = np.random.default_rng(31)
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        v = unit_tangent(surf, rng, shrink=0.3)
        end = flow_differential(surf, 0.3, v).end
        ref = geodesic_flow(surf, 0.3, v)
        np.testing.assert_allclose(end.as_state(), ref.as_state(), rtol=0, atol=1e-8, err_msg=name)
    v = TangentVector([0.1, 0.2], [1.0, 0.0])
    np.testing.assert_array_equal(flow_differential(surfaces["hemisphere"], 0.0, v).end.as_state(),
                                  v.as_state())


def test_flow_differential_bad_time_rejected(hemisphere):
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    for t in (math.nan, math.inf, -0.3):
        for fn in (flow_differential, fd_flow_differential):
            with pytest.raises(InvalidInput):
                fn(hemisphere, t, v)
        with pytest.raises(InvalidInput):
            propagate_jacobi(hemisphere, v, JacobiState([0, 0], [0, 1.0]), t)


def test_fd_flow_differential_identity_at_zero(vee):
    # t = 0 is a valid end time: every stencil row stays at its start
    num = fd_flow_differential(vee, 0.0, TangentVector([0.1, 0.0], [1.0, 0.0]))
    np.testing.assert_allclose(num, np.eye(4), rtol=0, atol=1e-11)


def test_bad_tol_rejected_at_time_zero(flat):
    # t = 0 takes no step, but the tolerance is still a request to check
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    for fn in (geodesic_flow, flow_differential):
        for tol in (-1, "a"):
            with pytest.raises(InvalidInput):
                fn(flat, 0.0, v, tol=tol)


@pytest.mark.parametrize("eps, order", [
    (0.0, None), (-1e-5, None), (math.nan, None), (math.inf, 2), (1e-5, 3), (1e-5, 1),
])
def test_fd_flow_differential_bad_stencil_rejected(hemisphere, eps, order):
    with pytest.raises(InvalidInput):
        fd_flow_differential(hemisphere, 0.3, TangentVector([0.0, 0.0], [1.0, 0.0]),
                             eps=eps, order=order)


def test_flow_differential_bad_velocity_rejected(hemisphere):
    for y in ([1.0, 0.0, 0.0], [math.nan, 1.0]):
        v = TangentVector([0.0, 0.0], y)
        for fn in (flow_differential, fd_flow_differential):
            with pytest.raises(InvalidInput):
                fn(hemisphere, 0.3, v)
        with pytest.raises(InvalidInput):
            propagate_jacobi(hemisphere, v, JacobiState([0, 0], [0, 1.0]), 0.3)
    for j0 in (JacobiState([0, 0, 0], [0, 1.0, 0]), JacobiState([1.0, 0.0, 0.0], [0.0, 1.0])):
        with pytest.raises(InvalidInput):
            propagate_jacobi(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), j0, 0.3)


@pytest.mark.parametrize("x, y, error", [
    ([math.nan, 0.0], [1.0, 0.0], OutOfChart),
    ([0.9, 0.0], [1.0, 0.0], OutOfChart),
    ([0.1, 0.0], [math.nan, 0.0], InvalidInput),
    ([0.1, 0.0], [1.0, 0.0, 0.0], InvalidInput),
])
def test_chart_to_covariant_rejects_bad_input(vee, x, y, error):
    with pytest.raises(error):
        chart_to_covariant(vee, x, y)


def test_rhs_one_derivative_evaluation_each(surfaces):
    # one surface.derivatives call per RHS, and no separate gradient or Hessian call
    for surf in surfaces.values():
        counted = copy.copy(surf)
        calls = {"derivatives": 0, "gradient": 0, "hessian": 0}

        def counting(attr):
            fn = getattr(surf, attr)

            def wrapper(X):
                calls[attr] += 1
                return fn(X)

            return wrapper

        for attr in calls:
            setattr(counted, attr, counting(attr))
        u = np.concatenate([[0.1, -0.05], [0.6, 0.8], np.eye(4).ravel()])
        _make_joint_rhs(counted, 4)(u)
        assert calls == {"derivatives": 1, "gradient": 0, "hessian": 0}, surf.name
        make_geodesic_rhs(counted)(u[:4])
        assert calls == {"derivatives": 2, "gradient": 0, "hessian": 0}, surf.name


def test_vee_flow_differential_rhs_budget(vee):
    # Gamma and M are analytic across vee's kink x1 = 0 (no crease declared),
    # so a flow differential across it stays cheap
    rhs = _make_joint_rhs(vee, 4)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = np.array([rng.uniform(-0.1, -0.02), rng.uniform(-0.2, 0.2)])
        a = rng.uniform(-0.8, 0.8)
        y = np.array([math.cos(a), math.sin(a)])
        y /= g_norm_batch(vee, x, y)
        calls = []

        def counting_rhs(u):
            calls.append(1)
            return rhs(u)

        u0 = np.concatenate([x, y, basis_block(2).ravel()])
        res = integrate_batch(vee, u0, rng.uniform(0.2, 0.4), rhs=counting_rhs)
        assert res.status == "Completed"
        assert res.final_state[0] > 0  # crossed the crease
        assert len(calls) <= 200


def test_joint_run_across_the_crease_rejects_no_step(c2alpha):
    # the joint run of a flow differential whose geodesic crosses x1 = 0: its
    # steps that fail the error test there are cut at the crossing, where 14
    # were rejected (293 RHS calls) when only accepted steps were cut
    v = TangentVector([-0.23797977604112561, 0.055267749406969997],
                      [0.99747114427240258, 0.071072613177678393])
    run = flow_differential(c2alpha, 0.28936451275113773, v).run
    assert run.status == "Completed" and run.n_rejected == 0 and run.n_cuts >= 1
    assert np.min(np.abs(run.states[:, 0])) <= 1e-9
