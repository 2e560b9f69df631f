import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geoflow
from geoflow import integrate
from geoflow.errors import InvalidInput, OutOfChart
from geoflow.flow import TangentVector, integrate_batch, make_geodesic_rhs, state_inside
from geoflow.jacobi import fd_flow_differential, flow_differential

from conftest import CATALOG_NAMES
from exact_flow import exact_flow

TABLEAUS = [(integrate.DP5, 5), (integrate.DOP853, 8)]


# ---------------------------------------------------------------------------
# tableau data
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def rooted_trees(n):
    """Every rooted tree with n vertices, as the sorted tuple of its root's subtrees."""
    if n == 1:
        return ((),)
    return tuple(sorted({tuple(sorted(rest + (child,)))
                         for k in range(1, n) for child in rooted_trees(k)
                         for rest in rooted_trees(n - k)}))


def stage_matrix(tab):
    """The tableau's stage weights as one square matrix, zero on and above the diagonal."""
    a = np.zeros((len(tab.a), len(tab.a)))
    for i, row in enumerate(tab.a):
        a[i, :i] = row
    return a


def order_residual(tab, n):
    """Largest |b . Phi(t) - 1 / gamma(t)| over the rooted trees t with n
    vertices (Butcher's order conditions, Hairer, Norsett & Wanner, sec. II.2)."""
    a = stage_matrix(tab)[:len(tab.b), :len(tab.b)]

    def phi(tree):  # stage weights of the elementary differential of tree
        out = np.ones(len(tab.b))
        for sub in tree:
            out = out * (a @ phi(sub))
        return out

    def size(tree):
        return 1 + sum(size(sub) for sub in tree)

    def gamma(tree):
        return size(tree) * np.prod([gamma(sub) for sub in tree])

    return max(abs(tab.b @ phi(tree) - 1.0 / gamma(tree)) for tree in rooted_trees(n))


@pytest.mark.parametrize("tab, order", TABLEAUS, ids=["DP5", "DOP853"])
def test_tableau_data(tab, order):
    s, k = tab.p.shape
    assert [len(row) for row in tab.a] == list(range(s))
    # first same as last: the last step stage is taken at u_new
    np.testing.assert_array_equal(tab.a[len(tab.b) - 1], tab.b[:-1])
    assert tab.b[-1] == 0.0
    for n in range(1, order + 1):
        assert order_residual(tab, n) <= 1e-14, n
    assert order_residual(tab, order + 1) > 1e-6  # and not of a higher order
    for e in (tab.e5, tab.e3):
        assert e.shape == tab.b.shape and abs(e.sum()) <= 1e-15
    # dense output: u at theta = 0 and u_new at theta = 1, up to the rounding
    # of p's entries (DOP853's reach 545)
    b = np.zeros(s)
    b[:len(tab.b)] = tab.b
    np.testing.assert_array_equal(tab.p @ 0.0 ** np.arange(1, k + 1), np.zeros(s))
    assert np.all(np.abs(tab.p @ np.ones(k) - b) <= 1e-15 * np.abs(tab.p).sum(axis=1))


def test_dop853_weights_land_a_straight_line():
    # b sums to exactly 1 and each of its partial sums is exact, so a unit
    # slope gives exactly 1 whatever the summation order
    assert np.sum(integrate.DOP853.b) == 1.0
    for n in (1, 4, 17, 64):
        np.testing.assert_array_equal(integrate.DOP853.b @ np.ones((13, n)), np.ones(n))


def test_integrate_loads_no_scipy():
    src = str(Path(geoflow.__file__).resolve().parents[1])
    code = ("import sys\nimport geoflow.integrate\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True, timeout=60)


@pytest.mark.parametrize("bad", [np.nan, np.inf, None], ids=["nan", "inf", "out_of_chart"])
def test_failed_start_probe_keeps_first_guess(bad):
    # the starting-step probe, the second call of f, is not finite or raises
    # OutOfChart: the first step is the first guess h0 = 0.01 |u0| / |f0|, in
    # RMS norms weighted by the tolerances, and the run goes on
    def pendulum(u):
        calls.append(1)
        if len(calls) == 2:
            if bad is None:
                raise integrate.OutOfChart("poisoned probe")
            return np.full(2, bad)
        return np.array([u[1], -np.sin(u[0])])

    calls = []
    u0, f0 = np.array([1.0, 0.5]), np.array([0.5, -np.sin(1.0)])
    scale = 1e-12 + 1e-10 * u0
    h0 = 0.01 * np.linalg.norm(u0 / scale) / np.linalg.norm(f0 / scale)
    res = integrate.integrate_adaptive(pendulum, u0, 2.0)
    assert res.status == "Completed"
    assert res.times[1] == pytest.approx(h0, rel=1e-14)


# ---------------------------------------------------------------------------
# right-hand-side counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("run", ["batch", "chart_exit", "crease_cut"])
def test_n_rhs_counts_every_call(surfaces, run):
    name, u0, t_end = {
        "batch": ("hemisphere", [[0.0, 0.0, 1.0, 0.0], [0.1, -0.2, 0.7, 0.4]], 0.5),
        "chart_exit": ("hemisphere", [0.0, 0.0, 1.0, 0.0], 3.0),
        "crease_cut": ("c2alpha", [-0.1, 0.05, 1.0, 0.3], 0.3),
    }[run]
    surf = surfaces[name]
    rhs = make_geodesic_rhs(surf)
    calls = []

    def counting_rhs(u):
        calls.append(1)
        return rhs(u)

    res = integrate_batch(surf, u0, t_end, rhs=counting_rhs)
    assert res.n_rhs == len(calls) > 0
    assert res.status == ("LeftChart" if run == "chart_exit" else "Completed")
    assert res.n_cuts >= (run == "crease_cut")


def _kinked_rhs(u):
    """x' = 1 + y, y' = |x|: f is continuous with a kink where x changes sign.
    From (x0 < 0, 0), x = sin t + x0 cos t up to t* = atan(-x0), where
    x' = sqrt(1 + x0^2), and x = sqrt(1 + x0^2) sinh(t - t*) after it."""
    return np.stack([1.0 + u[..., 1], np.abs(u[..., 0])], axis=-1)


@pytest.mark.parametrize("x0, tableau", [
    (-0.1, integrate.DP5), (-0.05, integrate.DOP853), (-0.1, integrate.DOP853),
    (-0.2, integrate.DOP853), (-0.3, integrate.DOP853),
], ids=["DP5-0.1", "DOP853-0.05", "DOP853-0.1", "DOP853-0.2", "DOP853-0.3"])
def test_failed_step_across_a_kink_is_cut(x0, tableau):
    # Without a crease switch the steps across the kink are rejected until
    # one fits. With it, a step across that fails the error test is cut at
    # the crossing its dense output estimates; a step that ends past an
    # estimate and fails again drops it, and the crossing is located anew.
    plain = integrate.integrate_adaptive(_kinked_rhs, [x0, 0.0], 1.0, tableau=tableau)
    res = integrate.integrate_adaptive(_kinked_rhs, [x0, 0.0], 1.0, crease=lambda u: u[0],
                                       tableau=tableau)
    assert res.status == plain.status == "Completed"
    assert res.n_rhs < plain.n_rhs and res.n_rejected < plain.n_rejected
    assert np.min(np.abs(res.states[:, 0])) <= 1e-9
    speed, t_past = np.sqrt(1.0 + x0 * x0), 1.0 - np.arctan(-x0)
    exact = [speed * np.sinh(t_past), speed * np.cosh(t_past) - 1.0]
    assert np.max(np.abs(res.final_state - exact)) <= 1e-10


def test_end_time_keeps_the_step_length_after_it():
    # a row that ends just after the first step shortens the one step that
    # reaches its end time, not the steps after it: the other row takes the
    # steps of its own run, shifted by that short step
    def oscillator(u):
        return np.stack([u[..., 1], -u[..., 0]], axis=-1)

    alone = integrate.integrate_adaptive(oscillator, [1.0, 0.0], 1.0)
    res = integrate.integrate_adaptive(oscillator, [[1.0, 0.0]] * 2, [alone.times[1] + 1e-6, 1.0])
    assert res.row_status == ["Completed"] * 2
    assert res.n_accepted <= alone.n_accepted + 1
    np.testing.assert_allclose(res.final_state[1], alone.final_state, rtol=0, atol=1e-12)


def test_rk4_n_rhs(hemisphere):
    res = integrate.integrate_fixed_rk4(make_geodesic_rhs(hemisphere), [0.0, 0.0, 1.0, 0.0],
                                        0.5, 0.1, inside=state_inside(hemisphere))
    assert res.n_rhs == 4 * 5


def _rhs_leaving_the_disk(u):
    # f raises OutOfChart outside |u| < 1, as the hemisphere's derivatives do
    if abs(u[0]) >= 1.0:
        raise OutOfChart("outside")
    return np.ones(1)


@pytest.mark.parametrize("run, last_time", [
    ((np.square, [1.0], 2.0, 0.01), 1.02),  # u' = u^2 from 1: the RK4 state overflows after t = 1.02
    ((np.negative, [np.nan], 1.0, 0.1), 0.0),  # a NaN start
    ((_rhs_leaving_the_disk, [0.0], 2.0, 0.25), 0.75),  # a stage outside f's domain
], ids=["blow-up", "nan start", "stage raises OutOfChart"])
def test_rk4_failed_step_ends_with_step_failure(run, last_time):
    # as in the adaptive loop, a step whose stages fail or whose state is not
    # finite ends the run at its last step, with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate.integrate_fixed_rk4(*run)
        assert integrate.integrate_adaptive(*run[:3]).status == integrate.STEP_FAILURE
    assert res.status == integrate.STEP_FAILURE
    assert res.final_time == pytest.approx(last_time, abs=1e-12)
    assert np.isfinite(res.final_state).all() == (last_time > 0)


@pytest.mark.parametrize("y0, t_end, step, n_steps, n_raised, atol", [
    (1.0, 3.0, 0.1, 9, 0, 1e-5),      # the step to t = 1.0 lands outside
    (3.0, 2.0, 0.3, 1, 1, 2e-3),      # the second step's last stage lies past the rim
], ids=["step lands outside", "stage raises OutOfChart"])
def test_rk4_chart_exit_stops_at_the_last_step_inside(hemisphere, y0, t_end, step, n_steps, n_raised,
                                                      atol):
    # the great circle x = sin(y0 t) (1, 0) leaves |x| <= 0.8 at y0 t = 0.927;
    # given inside, a step with a stage where f raises OutOfChart has left the
    # chart, as the adaptive loop finds by shrinking it; without inside it fails
    rhs, raised = make_geodesic_rhs(hemisphere), []

    def recording(u):
        try:
            return rhs(u)
        except OutOfChart:
            raised.append(u)
            raise

    run = (recording, [0.0, 0.0, y0, 0.0], t_end, step)
    res = integrate.integrate_fixed_rk4(*run, inside=state_inside(hemisphere))
    assert res.status == integrate.LEFT_CHART and len(raised) == n_raised
    h = t_end / np.ceil(t_end / step)
    assert res.n_accepted == n_steps and res.final_time == pytest.approx(n_steps * h, abs=1e-12)
    np.testing.assert_allclose(res.final_state[:2], [np.sin(y0 * n_steps * h), 0.0], atol=atol)
    assert integrate.integrate_adaptive(*run[:3], inside=state_inside(hemisphere)).status == \
        integrate.LEFT_CHART
    if n_raised:
        assert integrate.integrate_fixed_rk4(*run).status == integrate.STEP_FAILURE


def test_rk4_step_below_the_step_bound_is_rejected():
    calls = []

    def counting(u):
        calls.append(1)
        return -u

    with pytest.raises(InvalidInput):
        integrate.integrate_fixed_rk4(counting, [1.0], 0.1, 1e-300)
    with pytest.raises(InvalidInput):
        integrate.integrate_fixed_rk4(counting, [1.0], 1.0, 0.99 / integrate._MAX_STEPS)
    assert calls == []


def test_rk4_is_fourth_order_on_the_exact_trough_flow(trough):
    # each halving of the step divides the end-state error by about 2^4 = 16
    v = TangentVector([0.1, -0.2], [0.8, 0.6])
    exact = exact_flow("trough", 0.4, v).as_state()
    rhs, inside = make_geodesic_rhs(trough), state_inside(trough)
    errors = [np.max(np.abs(integrate.integrate_fixed_rk4(rhs, v.as_state(), 0.4, h, inside=inside).final_state
                            - exact)) for h in (0.04, 0.02, 0.01, 0.005)]
    assert all(12.0 <= a / b <= 20.0 for a, b in zip(errors, errors[1:])), errors


# Summed RHS evaluations of the joint Jacobi runs and the finite-difference
# batches over the probes below: 1314 with DP5 everywhere, 648 with DOP853.
RHS_BUDGET = 648


def test_flow_probe_rhs_budget(surfaces, monkeypatch):
    # one probe per catalog surface as the jacobian --fd-check requests draw
    # them: start in |x0| <= 0.25, unit chart velocity, t in [0.2, 0.4]
    run = integrate.integrate_adaptive
    n_rhs = []

    def counted(*args, **kwargs):
        res = run(*args, **kwargs)
        n_rhs.append(res.n_rhs)
        return res

    monkeypatch.setattr(integrate, "integrate_adaptive", counted)
    rng = np.random.default_rng(21)
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        r, a, b, t = 0.25 * np.sqrt(rng.random()), *2 * np.pi * rng.random(2), rng.uniform(0.2, 0.4)
        v = TangentVector([r * np.cos(a), r * np.sin(a)], [np.cos(b), np.sin(b)])
        diff = flow_differential(surf, t, v).matrix - fd_flow_differential(surf, t, v)
        assert np.max(np.abs(diff)) <= 1e-5, name
    assert len(n_rhs) == 2 * len(CATALOG_NAMES)
    assert sum(n_rhs) <= RHS_BUDGET
