import json
import math
import tracemalloc
from pathlib import Path

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

    def derivatives(X):
        grad = np.zeros(X.shape[:-1] + (2, 1))
        grad[..., 0, 0] = 0.5
        grad[..., 1, 0] = -0.2
        return grad, np.zeros(X.shape[:-1] + (2, 2, 1))

    return GraphSurface(
        "affine", 2, 1, [-0.8, -0.8], [0.8, 0.8], h, derivatives,
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


@pytest.mark.parametrize("trailing", [(1,), (2, 1), (2, 2, 1)], ids=["c", "2c", "22c"])
def test_smooth_field_matches_direct_dots(trailing):
    # each kept output is the bump-weighted dot over its window, on axis 0 and
    # then axis 1; the output counts (37 x 45 at k = 2, 73 x 89 at k = 1) leave
    # a short last block of _STRIP_ROWS on both axes
    field = np.random.default_rng(3).uniform(0.5, 1.5, size=(79, 93) + trailing)
    radius = (3, 2)
    wx, wy = (reg._bump_weights(r) for r in radius)
    for k in (2, 1):
        got = reg._smooth_field(field, radius, k)
        n0, n1 = ((n - 2 * r - 1) // k + 1 for n, r in zip(field.shape, radius))
        assert n0 % reg._STRIP_ROWS and n1 % reg._STRIP_ROWS
        rows = np.stack([np.tensordot(wx, field[i * k: i * k + len(wx)], axes=1)
                         for i in range(n0)])
        want = np.stack([np.tensordot(wy, rows[:, j * k: j * k + len(wy)], axes=(0, 1))
                         for j in range(n1)], axis=1)
        assert got.shape == want.shape == (n0, n1) + trailing
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


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
    with pytest.raises(DomainTooSmall, match="spline grid"):
        reg.mollify(vee, 0.4 * 1.6)  # a 3 x 3 spline grid, under the bicubic fit's 4


@pytest.mark.parametrize("eps, kernel_cells", [
    (math.nan, 16), (math.inf, 16), (-0.1, 16), (0.0, 16), (0.1, 0), (0.1, -4), (0.1, 12.5),
    (0.1, True), ("a", 16), ([0.1], 16),
])
def test_mollify_rejects_invalid_input(vee, eps, kernel_cells):
    with pytest.raises(InvalidInput):
        reg.mollify(vee, eps, kernel_cells=kernel_cells)


def test_mollify_peak_memory(vee):
    # vee at eps = 0.05 samples a 513 x 513 fine grid, in strips of 128 fine
    # rows; the peak stays near the derivative arrays of one strip
    reg.mollify(vee, 0.1)  # imports scipy.interpolate before tracing starts
    field_bytes = 8 * 513 ** 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reg.mollify(vee, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * field_bytes, peak / field_bytes


def test_mollify_memory_follows_strip(vee):
    # vee at eps = 0.025 samples a 1025 x 1025 fine grid, but one strip of
    # fine rows at a time: the peak stays under three such fields, where
    # smoothing the whole grid at once reached 9.3
    reg.mollify(vee, 0.1)  # imports scipy.interpolate before tracing starts
    field_bytes = 8 * 1025 ** 2
    tracemalloc.start()
    try:
        reg.mollify(vee, 0.025)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * field_bytes, peak / field_bytes


@pytest.mark.parametrize("name", ["vee", "c2alpha"])
def test_strips_change_no_bits(name, monkeypatch):
    # at eps = 0.05 the spline grid has 161 rows, so the last strip holds one
    # row, and vee's crease x1 = 0 (row 80) lies inside a strip; every field,
    # the height as captured at its first read, must equal the smoothing of
    # the whole fine grid bit for bit
    surf = make_surface(name)
    fields = []
    grid_surface = reg.GridSurface

    def capture(label, xa, ya, h, grad, hess, **kwargs):
        def height():
            samples, h0 = h()
            fields.insert(0, samples)
            return samples, h0

        fields.extend([grad, hess])
        return grid_surface(label, xa, ya, height, grad, hess, **kwargs)

    monkeypatch.setattr(reg, "GridSurface", capture)
    reg.mollify(surf, 0.05).height(np.zeros(2))
    assert len(fields) == 3
    assert len(fields[0]) == 161 and 161 % reg._STRIP_ROWS != 0
    # mollify's fine grid: 513 points per axis (spacing eps / 16), radius 16, stride 3
    axes = [np.linspace(lo, hi, 513) for lo, hi in zip(surf.domain_lo, surf.domain_hi)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    whole = [reg._smooth_field(field, [16, 16], 3)
             for field in (surf.height(pts), surf.gradient(pts), surf.hessian(pts))]
    whole[2] = whole[2][..., [0, 0, 1], [0, 1, 1], :]  # entries 11, 12, 22, as mollify takes them
    for got, want in zip(fields, whole):
        np.testing.assert_array_equal(got, want)


def test_mollify_fits_each_field_once(c2alpha, monkeypatch):
    # one fit of the stacked 2 gradient and 3 Hessian components per level,
    # and none of the height, which no flow reads; a height read fits it once,
    # the origin re-normalization shifting the fit instead of fitting again,
    # and a second read fits nothing
    from geoflow import surface

    fits = []
    fit = surface._fit

    def counted(x_lu, y_lu, c):
        fits.append(c.shape[-1])
        return fit(x_lu, y_lu, c)

    monkeypatch.setattr(surface, "_fit", counted)
    seq = reg.approximation_sequence(c2alpha, [0.1, 0.05, 0.025, 0.0125])
    assert fits == [5] * 4
    for _ in range(2):
        for s in seq.smoothed:
            s.height(np.zeros(2))
        assert fits == [5] * 4 + [1] * 4


def test_deferred_height_matches_eager_bits():
    # each level's height, origin re-normalization included, equals the bits
    # the eager fit gave in tests/data/mollified_heights.json, recorded with
    # mollify(make_surface(name), eps).height(points) when mollify fitted the
    # height at once; the points lie inside and outside the grid box
    data = json.loads((Path(__file__).parent / "data" / "mollified_heights.json").read_text())
    pts = np.array(data["points"])
    for name, want in data["heights"].items():
        s = reg.mollify(make_surface(name), data["eps"])
        inside = s.contains_batch(pts)
        assert inside.any() and not inside.all()
        assert [v.hex() for v in s.height(pts)[:, 0]] == want, name


def test_flow_study_reads_no_height(c2alpha, monkeypatch):
    # the flows and their differentials see a level only through its
    # gradient and Hessian, so the study never samples the base height
    reads = []
    height = c2alpha.height
    monkeypatch.setattr(c2alpha, "height", lambda X: reads.append(np.shape(X)) or height(X))
    seq = reg.approximation_sequence(c2alpha, [0.1, 0.05])
    reg.flow_convergence_report(seq, reg.convergence_probes(seq, 3, np.random.default_rng(2)))
    assert reads == []
    seq.smoothed[0].height(np.zeros(2))  # the first read samples it, strip by strip
    assert reads and reads[-1] == (2,)


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
    pts = grid_points(seq.smoothed[0], 41)  # the coarsest level's box is the common one
    h_c1 = [np.max(np.abs(s.height(pts) - seq.base.height(pts)))
            + np.max(np.abs(s.gradient(pts) - seq.base.gradient(pts))) for s in seq.smoothed]
    assert np.all(np.diff(h_c1) < 0)
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


@pytest.mark.parametrize("dists, factor", [
    ([4.0, 2.0, 1.0], 2.0), ([3e-3], 0.0), ([0.0, 2e-3], 0.0), ([0.0], math.inf),
    ([0.0, 0.0, 0.0], math.inf), ([2e-3, 0.0], math.inf),
])
def test_avg_factor(dists, factor):
    # a single positive distance shows no shrink; a sequence ending at 0
    # (all zero on a flat surface) shrank without bound
    assert reg._avg_factor(dists) == pytest.approx(factor)


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


def test_empirical_modulus_constant_map():
    mu = reg.empirical_modulus([(d, 0.0) for d in np.linspace(1e-4, 1, 20)])
    assert mu(0.5) == 0.0


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
    lambda: reg.osgood_gamma(LINEAR, 1.0, 1.0, 0.0),
    lambda: reg.holder_modulus_check(PAIRS, 1.5, 1.0),
    lambda: reg.gronwall_bound(1.0, 1.0, [0.1, -0.1]),
    lambda: reg.coefficient_bound_along(make_surface("vee"), np.zeros((0, 4))),
    lambda: reg.coefficient_bound_along(make_surface("vee"), np.zeros((3, 5))),
    lambda: reg.coefficient_bound_along(make_surface("vee"), [[0.0, 0.0, NAN, 1.0]]),
    lambda: reg.gronwall_bound(NAN, 1.0, 0.1),
    lambda: reg.gronwall_bound(1.0, INF, 0.1),
    lambda: reg.gronwall_bound(1.0, 1.0, [0.0, NAN]),
    lambda: reg.empirical_modulus(PAIRS)(NAN),
    lambda: reg.empirical_modulus(PAIRS)([0.1, NAN]),
    lambda: reg.empirical_modulus([(0.1,), (0.2, 0.3)]),
    lambda: reg.approximation_sequence(make_surface("vee"), 0.1),
    lambda: reg.approximation_sequence(make_surface("vee"), ["a", 0.1]),
    lambda: reg.approximation_sequence(make_surface("vee"), [0.1, None]),
])
def test_formulas_reject_bad_input(call):
    # a non-finite or out-of-range argument never comes back as a NaN result
    with pytest.raises(InvalidInput):
        call()


def test_empirical_modulus_names_the_non_finite_sample():
    # a single non-finite pair is reported as non-finite, not as too few samples
    with pytest.raises(InvalidInput, match="finite"):
        reg.empirical_modulus([(NAN, 1.0)])


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


def test_lipschitz_bound_covers_chart_coordinates(vee):
    # c_bar bounds the (J, K) system, while the quotients are in chart
    # coordinates: this batch's largest quotient exceeds exp(c_bar t) alone
    rep = reg.lipschitz_flow_report(vee, t_end=0.1, n_pairs=200, seed=14)
    assert rep["max_quotient"] > reg.gronwall_bound(rep["c_bar"], 1.0, 0.1)
    assert rep["bounded"]


@pytest.mark.parametrize("t_end", [math.nan, -0.3], ids=["nan", "negative"])
def test_lipschitz_flow_impossible_end_time_rejected(vee, t_end):
    with pytest.raises(InvalidInput):
        reg.lipschitz_flow_report(vee, t_end=t_end, n_pairs=4)


def test_drivers_reject_empty_probe_sets(c21_cubic):
    seq = reg.approximation_sequence(c21_cubic, [0.2, 0.1])
    for count in (0, 2.5, NAN, True):
        with pytest.raises(InvalidInput):
            reg.convergence_probes(seq, count, np.random.default_rng(0))
        with pytest.raises(InvalidInput):
            reg.lipschitz_flow_report(c21_cubic, n_pairs=count)
        with pytest.raises(InvalidInput):
            reg.osgood_dominance_report(c21_cubic, n_centers=count)
        with pytest.raises(InvalidInput):
            reg.holder_dominance_report(c21_cubic, n_centers=count)


def test_osgood_dominance_small(c21_cubic):
    rep = reg.osgood_dominance_report(c21_cubic, t1=0.25, n_centers=4, seed=9)
    assert rep["holds"]
    assert np.all(rep["values"] <= rep["limits"] + 1e-12)


def test_holder_dominance_small(c2alpha):
    rep = reg.holder_dominance_report(c2alpha, t1=0.25, n_centers=4, seed=13)
    assert rep["holds"]


def test_holder_dominance_reads_alpha_from_surface(vee):
    with pytest.raises(InvalidInput):
        reg.holder_dominance_report(vee)  # C11: no Hoelder exponent to read
    rep = reg.holder_dominance_report(make_surface("c2alpha", alpha=0.3), t1=0.25, n_centers=2)
    assert rep["alpha"] == 0.3
