"""Flow and flow-differential invariants on generated inputs.

Start points lie in the disk |x| <= 0.25 with unit chart velocity and times
in [0.05, 0.2] (up to 0.3 for batch rows); as argued in
perfbench/workloads.py, such geodesics stay in every catalog chart even for
the composed time s + t <= 0.4. Time reversal and speed conservation also
draw c2alpha runs that cross its ridge x1 = 0, where the 0.5-Hoelder second
derivative defeats the step-size control unless the step ends at the crossing.
On the profile surfaces the flow and its differential are also checked
against the exact ones of exact_flow, for times in [0.1, 0.4].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow.flow import (
    TangentVector,
    flow_property_residual,
    geodesic_flow,
    integrate_batch,
    integrate_geodesic,
    speed_profile,
)
from geoflow.jacobi import JacobiState, flow_differential, propagate_jacobi

from conftest import C2_AND_BETTER, C3_AND_BETTER
from exact_flow import PROFILES, exact_differential, exact_flow

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
times = st.floats(0.05, 0.2)


@st.composite
def tangents(draw):
    r = draw(st.floats(0.0, 0.25))
    a = draw(st.floats(0.0, 2.0 * math.pi))
    b = draw(st.floats(0.0, 2.0 * math.pi))
    return TangentVector([r * math.cos(a), r * math.sin(a)], [math.cos(b), math.sin(b)])


@st.composite
def ridge_crossings(draw):
    """c2alpha runs from within 0.05 of the ridge, heading across it at
    |y1| >= 0.5 for long enough to reach it."""
    y1 = draw(st.floats(0.5, 1.0))
    side = draw(st.sampled_from([-1.0, 1.0]))
    y2 = draw(st.sampled_from([-1.0, 1.0])) * math.sqrt(1.0 - y1 * y1)
    x = [side * draw(st.floats(0.0, 0.05)), draw(st.floats(-0.25, 0.25))]
    return "c2alpha", TangentVector(x, [-side * y1, y2]), draw(st.floats(0.1, 0.2))


def runs(names):
    """(surface name, start, time): generic runs on the named surfaces or
    ridge crossings on c2alpha."""
    return st.one_of(st.tuples(st.sampled_from(names), tangents(), times), ridge_crossings())


@PROPERTY
@given(st.sampled_from(C2_AND_BETTER), tangents(), times, times)
def test_flow_composition(surfaces, name, v, s, t):
    assert flow_property_residual(surfaces[name], s, t, v) <= 1e-7


@PROPERTY
@given(runs(C2_AND_BETTER))
def test_flow_time_reversal(surfaces, run):
    name, v, t = run
    surf = surfaces[name]
    back = geodesic_flow(surf, -t, geodesic_flow(surf, t, v))
    assert np.max(np.abs(back.as_state() - v.as_state())) <= 1e-7


@PROPERTY
@given(runs(C2_AND_BETTER + ["vee"]))
def test_speed_conserved(surfaces, run):
    name, v, t = run
    surf = surfaces[name]
    traj = integrate_geodesic(surf, v, t)
    assert np.max(np.abs(speed_profile(surf, traj) - traj.speed)) <= 1e-8 * traj.speed


@PROPERTY
@given(st.sampled_from(C2_AND_BETTER),
       st.lists(st.tuples(tangents(), st.floats(0.05, 0.3)), min_size=1, max_size=6))
def test_batch_rows_match_single_runs(surfaces, name, rows):
    # each row keeps the error control of its own run, whatever it is batched with
    surf = surfaces[name]
    res = integrate_batch(surf, np.array([v.as_state() for v, _ in rows]),
                          [t for _, t in rows], 1e-11)
    assert res.row_status == ["Completed"] * len(rows)
    for end, (v, t) in zip(res.final_state, rows):
        single = geodesic_flow(surf, t, v, 1e-11).as_state()
        assert np.max(np.abs(end - single)) <= 1e-9


unit_box = st.floats(-1.0, 1.0)


@PROPERTY
@given(
    st.sampled_from(C2_AND_BETTER), tangents(), times,
    st.lists(unit_box, min_size=4, max_size=4), st.lists(unit_box, min_size=4, max_size=4),
    unit_box, unit_box,
)
def test_propagate_jacobi_linear(surfaces, name, v, t, a, b, al, be):
    surf = surfaces[name]

    def prop(j):
        return propagate_jacobi(surf, v, JacobiState(j[:2], j[2:]), t, tol=1e-11).as_vector()

    a, b = np.array(a), np.array(b)
    np.testing.assert_allclose(prop(al * a + be * b), al * prop(a) + be * prop(b), rtol=0, atol=1e-8)


@PROPERTY
@given(st.sampled_from(C3_AND_BETTER), tangents(), times, times)
def test_flow_differential_cocycle(surfaces, name, v, s, t):
    surf = surfaces[name]
    first = flow_differential(surf, t, v, tol=1e-11)
    second = flow_differential(surf, s, first.end, tol=1e-11)
    whole = flow_differential(surf, s + t, v, tol=1e-11)
    np.testing.assert_allclose(whole.matrix, second.matrix @ first.matrix, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["hemisphere", "trough", "c2alpha", "vee"])
@PROPERTY
@given(tangents(), st.lists(st.floats(0.05, 0.3), min_size=2, max_size=6))
def test_row_end_times_sample_the_run(surfaces, name, v, ends):
    # one start repeated once per end time: each row's end state is the longest
    # row's sample at that time, bit for bit, across crease cuts on c2alpha
    ends = sorted(ends)
    res = integrate_batch(surfaces[name], np.tile(v.as_state(), (len(ends), 1)), ends)
    assert res.row_status == ["Completed"] * len(ends)
    for end, t in zip(res.final_state, ends):
        k = np.searchsorted(res.times, t * (1 - 1e-14))
        assert abs(res.times[k] - t) <= 1e-14 * t
        assert np.array_equal(end, res.states[k, -1])


@pytest.mark.parametrize("name", list(PROFILES))
@PROPERTY
@given(tangents(), st.floats(0.1, 0.4))
def test_flow_matches_exact_profile_flow(surfaces, name, v, t):
    exact = exact_flow(name, t, v).as_state()
    assert np.max(np.abs(geodesic_flow(surfaces[name], t, v).as_state() - exact)) <= 1e-8


@pytest.mark.parametrize("name", list(PROFILES))
@PROPERTY
@given(tangents(), st.floats(0.1, 0.4))
def test_flow_differential_matches_exact_profile_flow(surfaces, name, v, t):
    diff = flow_differential(surfaces[name], t, v).matrix - exact_differential(surfaces[name], t, v)
    assert np.max(np.abs(diff)) <= 1e-8
