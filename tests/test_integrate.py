import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoflow
from geoflow import integrate
from geoflow.flow import TangentVector, integrate_batch, make_geodesic_rhs, state_inside
from geoflow.jacobi import fd_flow_differential, flow_differential

from conftest import CATALOG_NAMES

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
        "crease_cut": ("vee", [-0.1, 0.05, 1.0, 0.3], 0.3),
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


def test_rk4_n_rhs(hemisphere):
    res = integrate.integrate_fixed_rk4(make_geodesic_rhs(hemisphere), [0.0, 0.0, 1.0, 0.0],
                                        0.5, 0.1, inside=state_inside(hemisphere))
    assert res.n_rhs == 4 * 5


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
