import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import integrate
from geoflow import regularity as reg
from geoflow.catalog import make_surface
from geoflow.errors import DomainTooSmall, InvalidInput
from geoflow.flow import TangentVector
from geoflow.jacobi import JacobiState
from geoflow.surface import GraphSurface, Regularity, g_norm_batch

from conftest import grid_points, random_chart_points


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _affine_surface():
    def h(X):
        return (0.3 + 0.5 * X[..., 0] - 0.2 * X[..., 1])[..., None]

    def grad(X):
        out = np.zeros(X.shape[:-1] + (2, 1))
        out[..., 0, 0] = 0.5
        out[..., 1, 0] = -0.2
        return out

    def hess(X):
        return np.zeros(X.shape[:-1] + (2, 2, 1))

    return GraphSurface(
        "affine", 2, 1, [-0.8, -0.8], [0.8, 0.8], h, grad, hess,
        regularity=Regularity("smooth"),
    )


def test_kernel_unit_mass():
    for radius in (16, 11, 2):
        w = reg._bump_weights(radius)
        assert w.shape == (2 * radius + 1,)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)
        np.testing.assert_array_equal(w, w[::-1])  # symmetric
        assert w[0] == 0.0 and w[-1] == 0.0 and np.all(w[1:-1] > 0.0)


def test_two_pass_smoothing_reference():
    # the strided one-axis-at-a-time passes equal the valid 2-D convolution
    # with the outer-product kernel, subsampled afterwards
    from scipy.signal import fftconvolve

    field = np.random.default_rng(7).normal(size=(97, 90, 2, 1))
    for radius in ((16, 16), (16, 11)):
        kernel = np.outer(*(reg._bump_weights(r) for r in radius))
        for k in (1, 3):
            got = reg._smooth_field(field, radius, k)
            for c in range(2):
                want = fftconvolve(field[..., c, 0], kernel, mode="valid")[::k, ::k]
                assert got.shape == want.shape + (2, 1)
                np.testing.assert_allclose(got[..., c, 0], want, rtol=0, atol=1e-14)


def test_mollify_zero(flat):
    s = reg.mollify(flat, 0.1)
    pts = grid_points(s, 30)
    assert np.max(np.abs(s.height(pts))) <= 1e-14
    assert np.max(np.abs(s.hessian(pts))) <= 1e-12


def test_mollify_affine_exact():
    s = reg.mollify(_affine_surface(), 0.1)
    pts = grid_points(s, 40)
    expected = 0.3 + 0.5 * pts[:, 0] - 0.2 * pts[:, 1]
    np.testing.assert_allclose(s.height(pts)[:, 0], expected, atol=1e-12)
    np.testing.assert_allclose(s.gradient(pts)[:, 0, 0], 0.5, atol=1e-12)
    np.testing.assert_allclose(s.gradient(pts)[:, 1, 0], -0.2, atol=1e-12)


def test_mollify_vee_second_derivative(vee):
    # smoothing of the sign-valued second derivative: positivity of the
    # kernel keeps the smoothed samples inside [-2, 2] exactly, and away from
    # the crease the smoothed field sits at +-2
    for eps in (0.04, 0.02):
        # mollify's fine grid (spacing eps / 16, radius 16, stride 3) across the crease
        xs = np.arange(-64, 65) * (eps / 16)
        pts = np.stack(np.meshgrid(xs, xs[:40], indexing="ij"), axis=-1)
        hess = vee.hessian(pts)[..., [0, 0, 1], [0, 1, 1], :]
        assert np.max(np.abs(reg._smooth_field(hess, [16, 16], 3))) <= 2.0 + 1e-12
        s = reg.mollify(vee, eps)
        x = np.array([[2.5 * eps, 0.1], [-2.5 * eps, -0.2], [0.5, 0.3]])
        h11 = s.hessian(x)[:, 0, 0, 0]
        np.testing.assert_allclose(h11, [2.0, -2.0, 2.0], atol=1e-6)
    # the splined field between nodes may ring above the data bound by its
    # interpolation error only
    s = reg.mollify(vee, 0.05)
    pts = grid_points(s, 100)
    assert np.max(np.abs(s.hessian(pts)[..., 0, 0, 0])) <= 2.0 + 5e-3


def test_mollify_pointwise_limit(vee):
    # at a fixed point off the crease the smoothed value approaches 2 sign(x1);
    # at x1 = 0.05 no kernel reaches the crease, at x1 = 0.03 the coarsest
    # (eps = 0.04) smooths across it, so the error must shrink from there
    errs = {0.05: [], 0.03: []}
    for eps in (0.04, 0.02, 0.01):
        s = reg.mollify(vee, eps)
        for x1, e in errs.items():
            e.append(abs(float(s.hessian(np.array([x1, 0.0]))[0, 0, 0]) - 2.0))
    assert errs[0.05][-1] <= 1e-6
    near = errs[0.03]
    assert near[0] >= 1e-3 and near[0] >= near[-1] and near[-1] <= 1e-6, near


def test_mollify_renormalizes_origin(c21_cubic):
    s = reg.mollify(c21_cubic, 0.05)
    np.testing.assert_allclose(
        s.height(np.zeros(2)), c21_cubic.height(np.zeros(2)), atol=1e-12
    )


def test_mollify_errors(hemisphere, vee):
    with pytest.raises(DomainTooSmall):
        reg.mollify(vee, 0.9)  # eps beyond half the chart width
    with pytest.raises(DomainTooSmall):
        reg.mollify(hemisphere, 0.05)  # membership tighter than the box


@pytest.mark.parametrize("eps, kernel_cells", [
    (math.nan, 16), (math.inf, 16), (-0.1, 16), (0.0, 16), (0.1, 0), (0.1, -4), (0.1, 12.5),
])
def test_mollify_rejects_invalid_input(vee, eps, kernel_cells):
    with pytest.raises(InvalidInput):
        reg.mollify(vee, eps, kernel_cells=kernel_cells)


def test_mollify_peak_memory(vee):
    # vee at eps = 0.05 samples a 513 x 513 fine grid; smoothing one field
    # at a time keeps the peak near the derivative arrays themselves
    field_bytes = 8 * 513 ** 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reg.mollify(vee, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 * field_bytes, peak / field_bytes


# ---------------------------------------------------------------------------
# approximation sequences
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c2alpha_sequence():
    surf = make_surface("c2alpha")
    return reg.approximation_sequence(surf, [0.1, 0.05, 0.025, 0.0125])


def test_sequence_monotone_convergence(c2alpha_sequence):
    seq = c2alpha_sequence
    assert all(s.regularity.tag == "smooth" for s in seq.smoothed)
    assert np.all(np.diff(seq.h_c1_dist) < 0)
    assert np.all(np.diff(seq.metric_c1_dist) < 0)
    assert np.all(np.diff(seq.pi_c0_dist) < 0)


def test_sequence_matches_base_at_origin(c2alpha_sequence):
    seq = c2alpha_sequence
    h0 = seq.base.height(np.zeros(2))
    for s in seq.smoothed:
        np.testing.assert_allclose(s.height(np.zeros(2)), h0, atol=1e-12)


def test_sequence_rejects_nondecreasing_scales(vee):
    with pytest.raises(ValueError):
        reg.approximation_sequence(vee, [0.05, 0.05])


def test_flow_convergence_flat(flat):
    seq = reg.approximation_sequence(flat, [0.1, 0.05])
    rng = np.random.default_rng(1)
    probes = reg.convergence_probes(seq, 5, rng)
    rep = reg.flow_convergence_report(seq, probes)
    assert max(rep.flow_c0) <= 1e-9
    assert max(rep.dflow_c0) <= 1e-8


def test_vee_uniform_pi_bound(vee):
    seq = reg.approximation_sequence(vee, [0.08, 0.04, 0.02])
    assert max(seq.pi_sup) <= 2.0 * 1.1


def test_flow_convergence_prunes_escaping_probes(c21_cubic, monkeypatch):
    seq = reg.approximation_sequence(c21_cubic, [0.1, 0.05])
    rng = np.random.default_rng(8)
    probes = reg.convergence_probes(seq, 4, rng)
    # this one exits the level charts long before t
    probes.append((5.0, TangentVector([0.0, 0.0], [1.0, 0.0])))
    shapes = []
    run = integrate.integrate_adaptive

    def counted(f, u0, *args, **kwargs):
        shapes.append(np.shape(u0))
        return run(f, u0, *args, **kwargs)

    monkeypatch.setattr(integrate, "integrate_adaptive", counted)
    rep = reg.flow_convergence_report(seq, probes)
    assert shapes == [(5, 4 + 16)] * 2  # one joint batch of all probes per level
    assert rep.pruned_probes == [4]
    assert len(rep.flow_c0) == 1


# ---------------------------------------------------------------------------
# exponential a-priori bound
# ---------------------------------------------------------------------------


def test_gronwall_bound_values():
    assert reg.gronwall_bound(0.0, 3.0, 5.0) == 3.0
    assert reg.gronwall_bound(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-15)


def test_gronwall_dominance_hemisphere(hemisphere):
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = random_chart_points(hemisphere, 1, rng, shrink=0.4)[0]
        y = rng.normal(size=2)
        y /= g_norm_batch(hemisphere, x, y)
        j0 = JacobiState(rng.normal(size=2), rng.normal(size=2))
        rep = reg.measure_gronwall_margin(hemisphere, TangentVector(x, y), j0, 0.35)
        assert rep["holds"]


@pytest.mark.parametrize("j0", [
    JacobiState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), JacobiState([math.nan, 0.0], [0.0, 1.0]),
    JacobiState([1.0, 0.0, 0.0], [0.0, 1.0]),
], ids=["three_vectors", "nan", "shape_mismatch"])
def test_gronwall_margin_bad_initial_value_rejected(hemisphere, j0):
    with pytest.raises(InvalidInput):
        reg.measure_gronwall_margin(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), j0, 0.3)


# ---------------------------------------------------------------------------
# modulus machinery
# ---------------------------------------------------------------------------


def test_osgood_gamma_formula():
    gamma = reg.osgood_gamma(lambda d: d, 1.0, 1.0, 1.0)
    assert gamma(0.1) == pytest.approx(0.1 * math.e, rel=1e-15)


def test_osgood_gamma_zero_modulus():
    gamma = reg.osgood_gamma(lambda d: 0.0 * d, 2.0, 3.0, 1.0)
    assert gamma(0.5) == 0.0


def test_osgood_gamma_power_form():
    gamma = reg.osgood_gamma(lambda d: 2.0 * d ** 0.5, 1.0, 0.0, 1.0)
    for d in (0.01, 0.04):
        assert gamma(d) == pytest.approx(2.0 * math.sqrt(d), rel=1e-14)


def test_osgood_integral_zero_l():
    holds, margin = reg.osgood_integral_check(
        np.linspace(0, 1, 5), np.zeros(5), 0.0, lambda d: d
    )
    assert holds


def test_osgood_integral_equality_case():
    # L(t) = a e^{C (t - t0)}, mu(s) = C s makes the inequality an identity
    c, a = 2.0, 0.1
    times = np.linspace(0.0, 1.0, 9)
    l_values = a * np.exp(c * times)
    holds, margin = reg.osgood_integral_check(
        times, l_values, a, lambda d: c * d
    )
    assert holds
    assert abs(margin) <= 1e-6


def test_osgood_integral_measured_chain(c21_cubic):
    # deviations of the joint state between two nearby base points stay
    # below the exponential envelope certified by the integral inequality
    gaps, coeff_dev, state_dev, c_tilde, c_bar = reg._modulus_probes(
        c21_cubic, 0.3, 4, [1e-3, 1e-2], seed=3
    )
    a_vals = c_tilde * 0.3 * coeff_dev
    for a, dev in zip(a_vals, state_dev):
        holds, margin = reg.osgood_integral_check(
            [0.0, 0.3], [0.0, dev], float(a), lambda d: c_bar * d
        )
        assert holds, (a, dev, margin)


def test_empirical_modulus_constant_map():
    mu = reg.empirical_modulus([(d, 0.0) for d in np.linspace(1e-4, 1, 20)])
    assert mu(0.5) == 0.0


def test_osgood_integral_with_empirical_modulus():
    gaps = np.logspace(-4, 0, 150)
    mu = reg.empirical_modulus(zip(gaps, 2.0 * gaps))
    times = np.linspace(0.0, 0.5, 4)
    l_values = 0.05 * np.exp(0.5 * times)  # well below the mu-envelope
    holds, margin = reg.osgood_integral_check(times, l_values, 0.05, mu)
    assert holds and margin >= 0.0


def test_osgood_divergence_probe_is_quiet():
    # an empirical modulus is 0 left of its first sample, so 1/mu is not
    # integrable at 0: the outcome the a = 0 probe looks for, so no warning
    # may escape
    gaps = np.logspace(-5, -1, 50)
    mu = reg.empirical_modulus(zip(gaps, 2.0 * np.abs(np.sin(3.0 * gaps))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reg.osgood_integral_check([0.0, 0.5], [0.0, 0.0], 0.0, mu) == (True, 1e-12)
        holds, margin = reg.osgood_integral_check([0.0, 0.5], [0.0, 1e-3], 0.0, mu)
    assert not holds and margin < 0.0


@pytest.mark.parametrize("mu", [
    reg.empirical_modulus(zip(np.logspace(-3, -1, 20), np.logspace(-3, -1, 20))),
    lambda d: max(d - 1e-4, 0.0),
], ids=["empirical", "callable"])
def test_osgood_modulus_vanishing_near_zero_diverges(mu):
    # mu = 0 on [0, 1e-4] or further: divergent at a = 0, so only L == 0
    # holds, and the margin is the floor minus |L|, not a 1/1e-300 artefact
    assert reg.osgood_integral_check([0.0, 0.5], [0.0, 0.0], 0.0, mu) == (True, 1e-12)
    holds, margin = reg.osgood_integral_check([0.0, 0.5], [0.0, 1e-3], 0.0, mu)
    assert not holds and margin == pytest.approx(1e-12 - 1e-3, rel=1e-12)


def test_empirical_modulus_identity_map():
    gaps = np.logspace(-5, 0, 200)
    mu = reg.empirical_modulus(zip(gaps, gaps))
    edges, values = mu.edges[mu.populated], mu.values[mu.populated]
    assert np.all(values <= edges + 1e-12)
    assert np.all(values >= np.concatenate([[0], edges[:-1]]) - 1e-12)


def binned_running_max(samples, edges):
    """Loop reference for empirical_modulus: per-bin sups and their running max."""
    sups = [None] * len(edges)
    for gap, dev in samples:
        i = min(int(np.searchsorted(edges, gap, side="left")), len(edges) - 1)
        if sups[i] is None or dev > sups[i]:
            sups[i] = dev
    running = np.maximum.accumulate([-np.inf if s is None else s for s in sups])
    return np.where(running == -np.inf, 0.0, running), np.array([s is not None for s in sups])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=40))
def test_empirical_modulus_nondecreasing(gaps):
    samples = [(g, abs(math.sin(7 * g))) for g in gaps]
    mu = reg.empirical_modulus(samples)
    deltas = np.linspace(0, 1.2, 50)
    vals = mu(deltas)
    assert np.all(np.diff(vals) >= -1e-15)
    assert mu(0.0) == 0.0
    values, populated = binned_running_max(samples, mu.edges)
    np.testing.assert_array_equal(mu.values, values)
    np.testing.assert_array_equal(mu.populated, populated)


def test_injradius_values():
    assert reg.injradius_lower_bound(1.0, 2 * math.pi) == pytest.approx(math.pi)
    assert reg.injradius_lower_bound(2.0, 10.0) == pytest.approx(math.pi / 2)
    assert reg.injradius_lower_bound(0.1, 1.0) == pytest.approx(0.5)


NAN, INF = float("nan"), float("inf")
LINEAR = lambda d: d
PAIRS = [(0.1, 0.2), (0.5, 0.3)]


@pytest.mark.parametrize("call", [
    lambda: reg.injradius_lower_bound(NAN, 1.0),
    lambda: reg.injradius_lower_bound(1.0, INF),
    lambda: reg.injradius_lower_bound(0.0, 1.0),
    lambda: reg.osgood_gamma(LINEAR, 1.0, 1.0, NAN),
    lambda: reg.osgood_gamma(LINEAR, NAN, 1.0, 1.0),
    lambda: reg.osgood_gamma(LINEAR, 1.0, INF, 1.0),
    lambda: reg.osgood_gamma(LINEAR, -1.0, 1.0, 1.0),
    lambda: reg.empirical_modulus([(0.1, NAN), (0.5, 0.3)]),
    lambda: reg.empirical_modulus([(INF, 0.2), (0.5, 0.3)]),
    lambda: reg.empirical_modulus([(0.1, 0.2)]),
    lambda: reg.holder_modulus_check(PAIRS, NAN, 1.0),
    lambda: reg.holder_modulus_check(PAIRS, 0.5, NAN),
    lambda: reg.holder_modulus_check(PAIRS, 0.5, -1.0),
])
def test_formulas_reject_bad_input(call):
    # a non-finite or out-of-range argument never comes back as a NaN result
    with pytest.raises(InvalidInput):
        call()


def test_holder_check_linear_map():
    gaps = np.logspace(-4, 0, 100)
    samples = list(zip(gaps, 3.0 * gaps))
    holds, _ = reg.holder_modulus_check(samples, 1.0, 3.5)
    assert holds
    holds, _ = reg.holder_modulus_check(samples, 1.0, 2.0)
    assert not holds


def test_holder_check_constant_map():
    samples = [(d, 0.0) for d in np.logspace(-3, 0, 30)]
    holds, _ = reg.holder_modulus_check(samples, 0.5, 0.0)
    assert holds


# ---------------------------------------------------------------------------
# dominance drivers (small desk-scale versions of the acceptance runs)
# ---------------------------------------------------------------------------


def test_lipschitz_flow_vee(vee):
    rep = reg.lipschitz_flow_report(vee, t_end=0.25, n_pairs=40, seed=5)
    assert rep["bounded"]
    assert rep["c_bar"] <= 2.2


@pytest.mark.parametrize("t_end", [math.nan, -0.3], ids=["nan", "negative"])
def test_lipschitz_flow_impossible_end_time_rejected(vee, t_end):
    with pytest.raises(InvalidInput):
        reg.lipschitz_flow_report(vee, t_end=t_end, n_pairs=4)


def test_drivers_reject_empty_probe_sets(c21_cubic):
    with pytest.raises(InvalidInput):
        reg.lipschitz_flow_report(c21_cubic, n_pairs=0)
    with pytest.raises(InvalidInput):
        reg.osgood_dominance_report(c21_cubic, n_centers=0)
    with pytest.raises(InvalidInput):
        reg.holder_dominance_report(c21_cubic, 0.5, n_centers=0)


def test_osgood_dominance_small(c21_cubic):
    rep = reg.osgood_dominance_report(c21_cubic, t1=0.25, n_centers=4, seed=9)
    assert rep["holds"]
    assert np.all(rep["values"] <= rep["limits"] + 1e-12)


def test_holder_dominance_small(c2alpha):
    rep = reg.holder_dominance_report(c2alpha, 0.5, t1=0.25, n_centers=4, seed=13)
    assert rep["holds"]
