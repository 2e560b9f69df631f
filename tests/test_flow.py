import math
import warnings

import numpy as np
import pytest

from geoflow import flow, integrate, jacobi
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
from geoflow.jacobi import JacobiState, fd_flow_differential, flow_differential, propagate_jacobi
from geoflow.minimality import branching_check
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
    # evaluation belongs to the initial slope, the starting-step probe, an
    # attempted step or the 3 dense-output stages of the locating step
    rhs = make_geodesic_rhs(hemisphere)
    calls = []

    def counting_rhs(u):
        calls.append(1)
        return rhs(u)

    res = integrate.integrate_adaptive(
        counting_rhs, [0.0, 0.0, 1.0, 0.0], 3.0, 1e-10, 1e-12, inside=state_inside(hemisphere)
    )
    assert res.status == "LeftChart"
    assert len(calls) <= 1 + 1 + 12 * (res.n_accepted + res.n_rejected) + 3


def test_zero_end_time_evaluates_no_rhs():
    # every row is done at the start, so f is never called, and a start
    # whose right-hand side is not finite is still returned as it is
    calls = []

    def counting_rhs(u):
        calls.append(1)
        return np.array([u[1], -u[0]])

    res = integrate.integrate_adaptive(counting_rhs, [1.0, 0.0], 0.0)
    assert calls == [] and res.status == "Completed"
    np.testing.assert_array_equal(res.states, [[1.0, 0.0]])
    res = integrate.integrate_adaptive(lambda u: np.full(u.shape, np.nan), [[1.0, 0.0]] * 2, 0.0)
    assert res.row_status == ["Completed"] * 2 and res.final_time == 0.0


def test_zero_end_time_rows_retire_before_the_first_rhs():
    # a row done at the start is never evaluated: a non-finite right-hand
    # side on another row fails that row only
    def rhs(u):
        return np.where(u[:, 1:] > 0.5, np.nan, -u)

    res = integrate.integrate_adaptive(rhs, [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    assert res.row_status == ["Completed", "StepFailure"]
    np.testing.assert_array_equal(res.final_state, [[1.0, 0.0], [0.0, 1.0]])
    # the running rows step exactly as they would alone
    res = integrate.integrate_adaptive(lambda u: -u, [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    alone = integrate.integrate_adaptive(lambda u: -u, [[0.0, 1.0]], [1.0])
    assert res.row_status == ["Completed"] * 2
    np.testing.assert_array_equal(res.times, alone.times)
    np.testing.assert_array_equal(res.states[:, 1], alone.states[:, 0])
    np.testing.assert_array_equal(res.states[:, 0], np.tile([1.0, 0.0], (len(res.times), 1)))


def test_crease_crossing_cuts_the_step(c2alpha):
    # the geodesic crosses the ridge x1 = 0 once: the accepted step across it
    # is cut and retaken to end at the crease, just past it or a hair short
    res = integrate_batch(c2alpha, [-0.1, 0.05, 1.0, 0.3], 0.3)
    assert res.status == "Completed"
    assert res.n_cuts >= 1
    x1 = res.states[:, 0]
    assert x1[0] < 0 < x1[-1]
    assert np.min(np.abs(x1)) <= 1e-9


def test_no_cut_away_from_the_crease(c2alpha):
    res = integrate_batch(c2alpha, [0.2, 0.0, 1.0, 0.2], 0.4)
    assert res.status == "Completed"
    assert np.all(res.states[:, 0] > 0)
    assert res.n_cuts == 0


@pytest.mark.parametrize("name", ["vee", "c21_cubic"])
def test_no_cut_where_gamma_is_smooth(surfaces, name):
    # h is not C^3 at x1 = 0 on these two, but Gamma and M are analytic there,
    # so they declare no crease and a crossing run makes no cut
    res = integrate_batch(surfaces[name], [-0.1, 0.05, 1.0, 0.3], 0.3)
    assert res.status == "Completed"
    assert res.states[0, 0] < 0 < res.states[-1, 0]
    assert surfaces[name].crease is None and res.n_cuts == 0


def test_step_counts_repeat(c2alpha):
    rows = np.array([[-0.1, 0.05, 1.0, 0.3], [-0.2, 0.0, 0.9, -0.4], [0.2, 0.0, 1.0, 0.2]])
    a, b = (integrate_batch(c2alpha, rows, [0.3, 0.4, 0.4]) for _ in range(2))
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("u0", [[1.0, 0.5], [[1.0, 0.5], [0.2, -0.7]]], ids=["single", "batch"])
def test_non_finite_stage_rejected_as_out_of_chart(bad, u0):
    # stage 2 of the first attempt is non-finite in one run and raises
    # OutOfChart in the other: same rejection, same steps, same bits, and
    # the warnings of later stages computed from it (sin(inf)) stay silent
    def pendulum(poison):
        calls = []

        def rhs(u):
            calls.append(1)
            out = np.stack([u[..., 1], -np.sin(u[..., 0])], axis=-1)
            if len(calls) == 4:  # f(u0), the starting-step probe, then stages 1, 2
                if poison is None:
                    raise OutOfChart("poisoned stage")
                out[...] = poison
            return out

        return rhs

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate.integrate_adaptive(pendulum(bad), u0, 2.0)
    want = integrate.integrate_adaptive(pendulum(None), u0, 2.0)
    assert got.status == want.status == "Completed"
    assert (got.n_accepted, got.n_rejected) == (want.n_accepted, want.n_rejected)
    assert want.n_rejected >= 1
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.states, want.states)


def test_step_failure_reported(hemisphere, monkeypatch):
    # controller runs out of its step budget: partial trajectory, reason set
    monkeypatch.setattr(integrate, "_MAX_STEPS", 8)
    res = integrate.integrate_adaptive(
        make_geodesic_rhs(hemisphere), [0.0, 0.0, 1.0, 0.0], 0.9, 1e-12, 1e-14
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

    grad, hess = field((2, 1), nan_past=0.3), field((2, 2, 1))
    surf = GraphSurface("nan_gradient", 2, 1, [-1.0, -1.0], [1.0, 1.0], field((1,)),
                        lambda X: (grad(X), hess(X)), regularity=Regularity("smooth"))
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


@pytest.mark.parametrize("shrink", [math.nan, math.inf, "a"])
def test_random_tangent_rejects_non_finite_shrink(hemisphere, shrink):
    with pytest.raises(InvalidInput):
        random_tangent(hemisphere, np.random.default_rng(0), shrink)


@pytest.mark.parametrize("box", [[[0, 0]], [[0, 0, 0], [1, 1, 1]]], ids=["one-corner", "3-dim"])
def test_random_tangent_rejects_malformed_box(flat, box):
    with pytest.raises(InvalidInput):
        random_tangent(flat, np.random.default_rng(0), 0.5, box=box)


def test_random_tangent_box_without_chart_point(hemisphere):
    # [0.7, 0.8]^2 lies outside the chart disk |x| <= 0.8: the redraws end
    rng, ref = np.random.default_rng(43), np.random.default_rng(43)
    with pytest.raises(OutOfDomain):
        random_tangent(hemisphere, rng, 1.0, box=([0.7, 0.7], [0.8, 0.8]))
    ref.random((flow._MAX_BASE_DRAWS, 2))
    assert rng.random() == ref.random()
    # a box the rim cuts: base points are redrawn until one is a chart
    # point, then one normal direction is drawn, as before the bound
    lo, hi = np.array([0.4, 0.4]), np.array([0.7, 0.7])
    rng, ref = np.random.default_rng(43), np.random.default_rng(43)
    v = random_tangent(hemisphere, rng, 1.0, box=(lo, hi))
    while not hemisphere.contains(x := 0.5 * (lo + hi) + (ref.random(2) - 0.5) * (0.5 * (hi - lo))):
        pass
    np.testing.assert_array_equal(v.x, x)
    ref.normal(size=2)
    assert rng.random() == ref.random()


def test_records_carry_their_run(c2alpha, monkeypatch):
    # a trajectory is its geodesic run; a flow differential keeps its joint run
    v = TangentVector([-0.1, 0.05], [1.0, 0.3])  # crosses the crease at x1 = 0
    traj = integrate_geodesic(c2alpha, v, 0.3)
    res = integrate_batch(c2alpha, v.as_state(), 0.3)
    assert isinstance(traj, integrate.IntegrationResult) and traj.n_cuts >= 1
    np.testing.assert_array_equal(traj.times, res.times)
    np.testing.assert_array_equal(traj.states, res.states)
    assert traj.row_status == res.row_status
    counts = ("n_accepted", "n_rejected", "n_cuts", "n_rhs")
    assert [getattr(traj, k) for k in counts] == [getattr(res, k) for k in counts]

    joint_rhs, calls = jacobi._make_joint_rhs, []

    def counting_joint_rhs(surface, n_cols):
        rhs = joint_rhs(surface, n_cols)
        return lambda u: calls.append(1) or rhs(u)

    monkeypatch.setattr(jacobi, "_make_joint_rhs", counting_joint_rhs)
    run = flow_differential(c2alpha, 0.3, v).run
    assert run.n_rhs == len(calls) > 0 and run.n_cuts >= 1


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
    # loosened-tolerance endpoint errors against the tightest run shrink; near
    # the rim, where the chart is most curved, every tolerance binds the steps
    v = TangentVector([-0.7, 0.05], [1.0, 0.1])
    ref = geodesic_flow(hemisphere, 1.0, v, tol=1e-12).as_state()
    errs = []
    for tol in (1e-4, 1e-6, 1e-8):
        out = geodesic_flow(hemisphere, 1.0, v, tol=tol).as_state()
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
    # t_end = 0 is the one-sample trajectory at the start
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.0)
    assert traj.status == integrate.COMPLETED and traj.times.tolist() == [0.0]
    np.testing.assert_array_equal(traj.states, [[0.0, 0.0, 1.0, 0.0]])


V0 = TangentVector([0.1, 0.2], [0.6, -0.3])
J0 = JacobiState([0.3, -0.2], [0.1, 0.5])


def _branching_spreads_and_quotients(surface, t):
    rep = branching_check(surface, V0, t, [0.1, 0.05], [TangentVector(V0.x, V0.y + [1e-3, 0.0])])
    return np.array(rep["spreads"] + rep["quotients"])


def _matrix_and_end(surface, t):
    fd = flow_differential(surface, t, V0)
    return np.vstack([fd.matrix, fd.end.as_state()])


# Each entry point as a function of (surface, t), and what it returns at t = 0.
END_TIME_ENTRY_POINTS = {
    "integrate_geodesic": (lambda s, t: integrate_geodesic(s, V0, t).states, [V0.as_state()]),
    "geodesic_flow": (lambda s, t: geodesic_flow(s, t, V0).as_state(), V0.as_state()),
    "flow_differential": (_matrix_and_end, np.vstack([np.eye(4), V0.as_state()])),
    "fd_flow_differential": (lambda s, t: fd_flow_differential(s, t, V0), np.eye(4)),
    "propagate_jacobi": (lambda s, t: propagate_jacobi(s, V0, J0, t).as_vector(), J0.as_vector()),
    "branching_check": (_branching_spreads_and_quotients, [0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("name", list(END_TIME_ENTRY_POINTS))
def test_one_end_time_rule(hemisphere, name):
    # t = 0 returns the start; a non-finite or negative time is InvalidInput,
    # except that geodesic_flow runs negative times backwards
    run, start = END_TIME_ENTRY_POINTS[name]
    if name == "fd_flow_differential":  # differences of rows that did not move
        np.testing.assert_allclose(run(hemisphere, 0.0), start, rtol=0, atol=1e-11)
    else:
        np.testing.assert_array_equal(run(hemisphere, 0.0), start)
    for t in (math.nan, math.inf, -0.3):
        if name == "geodesic_flow" and t < 0:
            continue
        with pytest.raises(InvalidInput):
            run(hemisphere, t)


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
