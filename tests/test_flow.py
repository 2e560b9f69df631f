import math

import numpy as np
import pytest

from geoflow import integrate
from geoflow.errors import InvalidInput, OutOfChart, OutOfDomain, StepFailure
from geoflow.flow import (
    TangentVector,
    exp_map,
    flow_property_residual,
    geodesic_flow,
    integrate_batch,
    integrate_geodesic,
    make_geodesic_rhs,
    random_tangent,
    require_completed,
    speed_profile,
    state_inside,
)
from geoflow.serialize import write_trajectory_csv
from geoflow.surface import GraphSurface, Regularity, g_norm_batch

from conftest import C2_AND_BETTER, random_chart_points


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def test_rhs_flat(flat):
    out = make_geodesic_rhs(flat)(np.array([0.0, 0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_rhs_hemisphere_pole(hemisphere):
    out = make_geodesic_rhs(hemisphere)(np.array([0.0, 0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out[2:], [0.0, 0.0], atol=1e-15)


def test_rhs_hemisphere_value(hemisphere):
    out = make_geodesic_rhs(hemisphere)(np.array([0.3, 0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out[:2], [1.0, 0.0], atol=1e-15)
    assert out[2] == pytest.approx(-0.3 / 0.91, rel=1e-13)
    assert out[3] == pytest.approx(0.0, abs=1e-15)


def test_rhs_out_of_chart(hemisphere):
    # the right-hand side is unchecked; the chart predicate and the
    # request check are what keep states off it
    assert not state_inside(hemisphere)(np.array([0.9, 0.0, 1.0, 0.0]))
    with pytest.raises(OutOfChart):
        integrate_geodesic(hemisphere, TangentVector([0.9, 0.0], [1.0, 0.0]), 0.3)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_flat_straight_line(flat):
    traj = integrate_geodesic(flat, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    assert traj.status == "Completed"
    np.testing.assert_allclose(traj.final.x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(traj.final.y, [1.0, 0.0], atol=1e-12)


def test_hemisphere_great_circle(hemisphere):
    # oracle: chart projection of the great circle, x(t) = (sin t, 0)
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    assert traj.status == "Completed"
    np.testing.assert_allclose(traj.final.x, [math.sin(0.5), 0.0], atol=1e-9)
    np.testing.assert_allclose(traj.final.y, [math.cos(0.5), 0.0], atol=1e-9)


def test_hemisphere_chart_exit(hemisphere):
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 3.0)
    assert traj.status == "LeftChart"
    assert traj.final_time == pytest.approx(math.asin(0.8), abs=1e-9)
    assert np.linalg.norm(traj.final.x) == pytest.approx(0.8, abs=1e-12)


def test_chart_exit_costs_no_extra_rhs_evaluations(hemisphere):
    # the exit is bisected on the last step's dense output, so every RHS
    # evaluation belongs to the initial slope or to an attempted step
    rhs = make_geodesic_rhs(hemisphere)
    calls = []

    def counting_rhs(u):
        calls.append(1)
        return rhs(u)

    res = integrate.integrate_adaptive(
        counting_rhs, [0.0, 0.0, 1.0, 0.0], 3.0, 1e-10, 1e-12, inside=state_inside(hemisphere)
    )
    assert res.status == "LeftChart"
    assert len(calls) <= 1 + 6 * (res.n_accepted + res.n_rejected)


def test_crease_crossing_cuts_the_step(vee):
    # the geodesic crosses the ridge x1 = 0 once: the accepted step across it
    # is cut and retaken to end just past the crease
    res = integrate_batch(vee, [-0.1, 0.05, 1.0, 0.3], 0.3)
    assert res.status == "Completed"
    assert res.n_cuts >= 1
    x1 = res.states[:, 0]
    assert x1[0] < 0 < x1[-1]
    assert abs(x1[np.argmax(x1 > 0)]) <= 1e-9


def test_no_cut_away_from_the_crease(vee):
    res = integrate_batch(vee, [0.2, 0.0, 1.0, 0.2], 0.4)
    assert res.status == "Completed"
    assert np.all(res.states[:, 0] > 0)
    assert res.n_cuts == 0


def test_step_counts_repeat(vee):
    rows = np.array([[-0.1, 0.05, 1.0, 0.3], [-0.2, 0.0, 0.9, -0.4], [0.2, 0.0, 1.0, 0.2]])
    a, b = (integrate_batch(vee, rows, [0.3, 0.4, 0.4]) for _ in range(2))
    assert (a.n_accepted, a.n_rejected, a.n_cuts) == (b.n_accepted, b.n_rejected, b.n_cuts)
    assert a.n_cuts >= 1
    np.testing.assert_array_equal(a.times, b.times)


def test_trajectory_invariants(hemisphere):
    traj = integrate_geodesic(hemisphere, TangentVector([0.1, -0.2], [0.7, 0.4]), 0.6)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.states)
    sp = speed_profile(hemisphere, traj)
    assert np.max(np.abs(sp - traj.speed)) / traj.speed <= 1e-8


def test_speed_conservation_catalog(surfaces):
    rng = np.random.default_rng(5)
    for name in C2_AND_BETTER:
        surf = surfaces[name]
        for _ in range(3):
            x = random_chart_points(surf, 1, rng, shrink=0.4)[0]
            y = rng.normal(size=2)
            y /= g_norm_batch(surf, x, y)
            traj = integrate_geodesic(surf, TangentVector(x, y), 0.35)
            if traj.status != "Completed":
                continue
            sp = speed_profile(surf, traj)
            assert np.max(np.abs(sp - traj.speed)) / traj.speed <= 1e-8, name


def test_step_failure_reported(hemisphere):
    # controller runs out of its step budget: partial trajectory, reason set
    res = integrate.integrate_adaptive(
        make_geodesic_rhs(hemisphere), [0.0, 0.0, 1.0, 0.0], 0.9, 1e-12, 1e-14, max_steps=8
    )
    assert res.status == "StepFailure"
    assert len(res.times) >= 2  # partial trajectory is returned
    assert res.final_time < 0.9


def test_unsatisfiable_tolerance_is_step_failure():
    # the slope jumps from 1 to 0 as soon as u leaves 0, so every step's
    # error estimate is about 1e-3 h, above atol = 1e-20 for any h >= h_min:
    # the step shrinks below h_min and the run ends without forcing a step
    res = integrate.integrate_adaptive(lambda u: (u <= 0.0) * 1.0, [0.0], 1.0, 1e-20, 1e-20)
    assert res.status == "StepFailure"
    assert res.n_accepted == 0
    assert res.final_time == 0.0


def test_geodesic_flow_step_failure_inside_chart():
    # a gradient that is NaN past x1 = 0.3, well inside the chart: the
    # controller stalls there, which is a step failure, not a chart exit
    def field(shape, nan_past=None):
        def f(X):
            X = np.asarray(X, dtype=float)
            out = np.zeros(X.shape[:-1] + shape)
            if nan_past is not None:
                out[X[..., 0] > nan_past] = np.nan
            return out
        return f

    surf = GraphSurface("nan_gradient", 2, 1, [-1.0, -1.0], [1.0, 1.0], field((1,)),
                        field((2, 1), nan_past=0.3), field((2, 2, 1)),
                        regularity=Regularity("smooth"))
    with pytest.raises(StepFailure):
        geodesic_flow(surf, 0.5, TangentVector([0.0, 0.0], [1.0, 0.0]))


def test_random_tangent_unit_speed_in_box(surfaces):
    rng = np.random.default_rng(37)
    for surf in surfaces.values():
        center = 0.5 * (surf.domain_lo + surf.domain_hi)
        half = 0.5 * (surf.domain_hi - surf.domain_lo)
        for _ in range(20):
            v = random_tangent(surf, rng, 0.5)
            assert surf.contains(v.x)
            assert np.all(np.abs(v.x - center) <= 0.25 * half)
            assert float(g_norm_batch(surf, v.x, v.y)) == pytest.approx(1.0, abs=1e-14)
    box = (np.array([0.1, -0.2]), np.array([0.3, 0.0]))
    v = random_tangent(surfaces["trough"], rng, 1.0, box=box)
    assert np.all((v.x >= box[0]) & (v.x <= box[1]))


def test_integrate_batch_matches_single_runs(hemisphere):
    rng = np.random.default_rng(41)
    vs = [random_tangent(hemisphere, rng, 0.5) for _ in range(3)]
    res = integrate_batch(hemisphere, np.array([v.as_state() for v in vs]), 0.3, 1e-11)
    assert res.states.shape == (len(res.times), 3, 4)
    for row, v in zip(res.final_state, vs):
        np.testing.assert_allclose(row, geodesic_flow(hemisphere, 0.3, v, 1e-11).as_state(),
                                   rtol=0, atol=1e-9)


def test_integrate_batch_row_leaving_chart(hemisphere):
    # row 1 crosses |x| = 0.8 near t = 0.1 and stops there; row 0 goes on
    ics = np.array([[0.0, 0.0, 1.0, 0.0], [0.7, 0.0, 1.0, 0.0]])
    res = integrate_batch(hemisphere, ics, 0.3, 1e-10)
    assert res.row_status == ["Completed", "LeftChart"]
    assert res.status == "LeftChart"
    assert res.final_time == pytest.approx(0.3, abs=1e-14)
    assert np.linalg.norm(res.final_state[1, :2]) == pytest.approx(0.8, abs=1e-12)
    np.testing.assert_allclose(res.final_state[0],
                               geodesic_flow(hemisphere, 0.3, TangentVector(ics[0, :2], ics[0, 2:]),
                                             1e-10).as_state(), rtol=0, atol=1e-9)
    with pytest.raises(OutOfDomain):
        require_completed(res, "batch")


@pytest.mark.parametrize("ics, t_end", [
    ([[0.1, 0.0, 1.0, 0.0]], math.nan),
    ([[0.1, 0.0, 1.0, 0.0]], -1.0),
    ([[0.1, 0.0, 1.0, 0.0], [0.2, 0.0, 1.0, 0.0]], [0.3, math.inf]),
], ids=["nan", "negative", "per_row_inf"])
def test_integrate_batch_impossible_end_time_rejected(vee, ics, t_end):
    # no row can reach such an end time; it is never reported Completed at t = 0
    with pytest.raises(InvalidInput):
        integrate_batch(vee, ics, t_end)


# ---------------------------------------------------------------------------
# flow map and exponential map
# ---------------------------------------------------------------------------


def test_flow_identity_at_zero(hemisphere):
    v = TangentVector([0.1, 0.2], [0.5, -0.3])
    out = geodesic_flow(hemisphere, 0.0, v)
    np.testing.assert_array_equal(out.x, v.x)
    np.testing.assert_array_equal(out.y, v.y)


def test_flow_flat(flat):
    out = geodesic_flow(flat, 2.0, TangentVector([0.0, 0.0], [0.3, 0.4]))
    np.testing.assert_allclose(out.x, [0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(out.y, [0.3, 0.4], atol=1e-12)


def test_flow_hemisphere(hemisphere):
    out = geodesic_flow(hemisphere, 0.5, TangentVector([0.0, 0.0], [1.0, 0.0]))
    np.testing.assert_allclose(out.x, [math.sin(0.5), 0.0], atol=1e-9)
    np.testing.assert_allclose(out.y, [math.cos(0.5), 0.0], atol=1e-9)


def test_flow_out_of_domain(hemisphere):
    with pytest.raises(OutOfDomain):
        geodesic_flow(hemisphere, 3.0, TangentVector([0.0, 0.0], [1.0, 0.0]))


def test_exp_map_flat_translation(flat):
    out = exp_map(flat, TangentVector([0.1, 0.2], [0.3, -0.1]))
    np.testing.assert_allclose(out, [0.4, 0.1], atol=1e-12)


def test_exp_map_hemisphere(hemisphere):
    out = exp_map(hemisphere, TangentVector([0.0, 0.0], [0.5, 0.0]))
    np.testing.assert_allclose(out, [math.sin(0.5), 0.0], atol=1e-9)


def test_exp_map_zero_velocity(surfaces):
    for surf in surfaces.values():
        x = 0.1 * np.ones(2)
        out = exp_map(surf, TangentVector(x, [0.0, 0.0]))
        np.testing.assert_allclose(out, x, atol=1e-12)


# ---------------------------------------------------------------------------
# flow properties
# ---------------------------------------------------------------------------


def test_composition_flat(flat):
    r = flow_property_residual(flat, 0.7, 1.1, TangentVector([0.0, 0.0], [0.4, 0.2]))
    assert r <= 1e-12


def test_composition_zero_s(hemisphere):
    r = flow_property_residual(hemisphere, 0.0, 0.3, TangentVector([0.0, 0.0], [1.0, 0.0]))
    assert r == 0.0


def test_composition_hemisphere(hemisphere):
    r = flow_property_residual(hemisphere, 0.2, 0.2, TangentVector([0.0, 0.0], [1.0, 0.0]))
    assert r <= 1e-8


def test_time_reversal(surfaces):
    rng = np.random.default_rng(9)
    for name in C2_AND_BETTER:
        surf = surfaces[name]
        x = random_chart_points(surf, 1, rng, shrink=0.3)[0]
        y = rng.normal(size=2)
        y /= 2 * g_norm_batch(surf, x, y)
        out = geodesic_flow(surf, 0.4, TangentVector(x, y))
        back = geodesic_flow(surf, 0.4, TangentVector(out.x, -out.y))
        np.testing.assert_allclose(back.x, x, atol=1e-8)
        np.testing.assert_allclose(back.y, -y, atol=1e-8)


def test_scaling(hemisphere):
    v = TangentVector([0.1, 0.0], [0.8, 0.3])
    for lam in (0.5, 2.0):
        a = geodesic_flow(hemisphere, 0.3, TangentVector(v.x, lam * v.y))
        b = geodesic_flow(hemisphere, lam * 0.3, v)
        np.testing.assert_allclose(a.x, b.x, atol=1e-8)


def test_negative_time_reflection(hemisphere):
    v = TangentVector([0.2, 0.1], [0.5, -0.2])
    fwd = geodesic_flow(hemisphere, 0.3, v)
    back = geodesic_flow(hemisphere, -0.3, fwd)
    np.testing.assert_allclose(back.x, v.x, atol=1e-8)
    np.testing.assert_allclose(back.y, v.y, atol=1e-8)


def test_richardson_tolerance_refinement(hemisphere):
    # loosened-tolerance endpoint errors against the tightest run shrink
    v = TangentVector([0.0, 0.05], [1.0, 0.1])
    ref = geodesic_flow(hemisphere, 0.6, v, tol=1e-12).as_state()
    errs = []
    for tol in (1e-4, 1e-6, 1e-8):
        out = geodesic_flow(hemisphere, 0.6, v, tol=tol).as_state()
        errs.append(np.linalg.norm(out - ref))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_trajectory_csv(tmp_path, hemisphere):
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, hemisphere, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,speed"
    assert len(lines) == len(traj.times) + 1
    row = np.array([float(v) for v in lines[-1].split(",")])
    assert row[0] == pytest.approx(0.5, abs=1e-12)
    assert row[1] == pytest.approx(math.sin(0.5), abs=1e-9)
    assert row[5] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# boundary validation
# ---------------------------------------------------------------------------


def test_infinite_t_end_rejected(hemisphere):
    with pytest.raises(InvalidInput):
        integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), math.inf)
    with pytest.raises(ValueError):  # non-positive t_end stays a ValueError
        integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.0)


def test_nan_time_rejected(hemisphere):
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    for t in (math.nan, -math.inf):
        with pytest.raises(InvalidInput):
            geodesic_flow(hemisphere, t, v)


def test_velocity_wrong_shape_rejected(hemisphere):
    v = TangentVector([0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(InvalidInput):
        integrate_geodesic(hemisphere, v, 0.3)
    with pytest.raises(InvalidInput):
        geodesic_flow(hemisphere, -0.3, v)


def test_nan_velocity_rejected(hemisphere):
    v = TangentVector([0.0, 0.0], [math.nan, 1.0])
    with pytest.raises(InvalidInput):
        integrate_geodesic(hemisphere, v, 0.3)
    with pytest.raises(InvalidInput):
        geodesic_flow(hemisphere, 0.0, v)


@pytest.mark.parametrize("speed", [1e300, 1e160])
def test_overflowing_speed_rejected(vee, speed):
    # finite entries whose g-norm overflows: no trajectory can mean anything
    v = TangentVector([0.0, 0.0], [speed, 0.0])
    assert not np.isfinite(g_norm_batch(vee, v.x, v.y))
    with pytest.raises(InvalidInput):
        integrate_geodesic(vee, v, 0.3)
    with pytest.raises(InvalidInput):
        geodesic_flow(vee, 0.0, v)
