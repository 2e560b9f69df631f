import copy
import math
import time
from itertools import product

import numpy as np
import pytest

from geoflow.errors import InvalidInput, OutOfChart, OutOfDomain
from geoflow.flow import TangentVector, integrate_geodesic
from geoflow.minimality import (
    KING_ANISOTROPY,
    branching_check,
    build_mesh_oracle,
    mesh_error_budget,
    minimality_report,
    search_box,
    shortest_path,
    short_geodesic,
)
from geoflow.regularity import injradius_lower_bound
from geoflow.surface import GraphSurface, Regularity, SurfaceBounds

from conftest import CATALOG_NAMES, random_chart_points


@pytest.fixture(scope="module")
def flat_oracle(flat):
    return build_mesh_oracle(flat, 64)


@pytest.fixture(scope="module")
def hemi_oracle(hemisphere):
    return build_mesh_oracle(hemisphere, 64)


# ---------------------------------------------------------------------------
# oracle construction
# ---------------------------------------------------------------------------


def test_build_requires_resolution(flat):
    with pytest.raises(ValueError):
        build_mesh_oracle(flat, 4)


def test_flat_edge_weights_equal_chart_steps(flat_oracle):
    g = flat_oracle.graph.tocoo()
    chart = np.linalg.norm(
        flat_oracle.vertices[g.row] - flat_oracle.vertices[g.col], axis=1
    )
    np.testing.assert_allclose(g.data, chart, rtol=1e-12)


def test_edge_weights_dominate_chart_distance(hemi_oracle):
    g = hemi_oracle.graph.tocoo()
    chart = np.linalg.norm(
        hemi_oracle.vertices[g.row] - hemi_oracle.vertices[g.col], axis=1
    )
    assert np.all(g.data >= chart - 1e-12)


def test_weights_symmetric(hemi_oracle):
    g = hemi_oracle.graph
    diff = (g - g.T).tocoo()
    assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-15


def test_build_rejects_fractional_resolution(flat):
    for resolution in (16.5, 7, True):
        with pytest.raises(InvalidInput):
            build_mesh_oracle(flat, resolution)


def test_build_on_c11_surface(vee):
    # needs height values only
    oracle = build_mesh_oracle(vee, 32)
    assert len(oracle.vertices) == 32 * 32


def _counted(surface):
    """A copy of surface whose height and chart test count the points they see."""
    seen = {"height": 0, "contains": 0}

    def counting(key, fn):
        def wrapped(X):
            seen[key] += np.asarray(X)[..., 0].size
            return fn(X)
        return wrapped

    surf = copy.copy(surface)
    surf.height = counting("height", surface.height)
    surf.contains_batch = counting("contains", surface.contains_batch)
    return surf, seen


def _snap_cases(surface, oracle, rng):
    """Random chart points, exact midpoints between grid points and points on
    the box faces, each kept when it lies in the chart."""
    lo, hi, axes = surface.domain_lo, surface.domain_hi, oracle.axes
    mid = 0.5 * (axes[:, :-1] + axes[:, 1:])
    n = oracle.resolution // 2 - 1
    pts = list(random_chart_points(surface, 40, rng, shrink=1.0))
    pts += [0.5 * (lo + hi), mid[:, n], mid[:, 0], mid[:, -1], [axes[0, 3], mid[1, n]]]
    pts += [np.where(face, a, b) for face in product((0, 1), repeat=2)
            for a, b in ((lo, hi), (lo, mid[:, n]), (hi, mid[:, n]))]
    return [np.asarray(p, dtype=float) for p in pts if surface.contains(p)]


@pytest.mark.parametrize("resolution", [64, 256])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cell_snap_matches_full_argmin(surfaces, name, resolution):
    surf, seen = _counted(surfaces[name])
    oracle, full = build_mesh_oracle(surf, resolution), build_mesh_oracle(surfaces[name], resolution)
    rng = np.random.default_rng(47)
    pts = _snap_cases(surfaces[name], full, rng)
    if name == "hemisphere":  # within 0.02 of the rim |x| = 0.8
        a = rng.uniform(0.0, 2.0 * np.pi, 40)
        pts += list(((0.8 - rng.uniform(0.0, 0.02, 40)) * np.array([np.cos(a), np.sin(a)])).T)
    ids = np.ravel_multi_index(full.box((0, 0), full.shape)[0].T, full.shape)
    for p in pts:
        d = np.linalg.norm(full.vertices - p, axis=1)
        k = int(np.argmin(d))
        i, dist = oracle.snap(p)
        assert (i, dist.hex()) == (ids[k], float(d[k]).hex()), p
    # a point whose cell has a corner outside the chart searches the whole
    # mesh (once built, its views are cached); elsewhere a snap tests only p
    # and its cell's 4 corners
    assert (seen["contains"] > 5 * len(pts)) == (name == "hemisphere")


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def test_flat_straight_path(flat_oracle):
    length = shortest_path(flat_oracle, [0.0, 0.0], [0.5, 0.0])[0]
    assert length == pytest.approx(0.5, abs=flat_oracle.mesh_step)


def test_same_point_zero(flat_oracle):
    assert shortest_path(flat_oracle, [0.3, 0.3], [0.3, 0.3])[0] == 0.0


def test_flat_sanity_bounds(flat_oracle):
    # dominance holds between the snapped vertices; the king-move overhead
    # plus snapping slack bounds the other side
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.uniform(-0.9, 0.9, 2)
        q = rng.uniform(-0.9, 0.9, 2)
        length, hops, sp, sq = shortest_path(flat_oracle, p, q)
        e = np.linalg.norm(p - q)
        assert length >= e - sp - sq - 1e-12
        assert length <= e * KING_ANISOTROPY + 2 * flat_oracle.mesh_step


@pytest.mark.parametrize("bad", [[math.nan, 0.0], [5.0, 5.0], [0.1], [0.0, 0.0, 0.0]],
                         ids=["nan", "outside", "short", "long"])
def test_shortest_path_rejects_points_off_chart(flat, bad):
    oracle = build_mesh_oracle(flat, 16)
    for p, q in ((bad, [0.0, 0.0]), ([0.0, 0.0], bad)):
        with pytest.raises(OutOfChart):
            shortest_path(oracle, p, q)
    with pytest.raises(OutOfChart):
        oracle.snap(bad)


def test_hemisphere_great_circle_distance(hemi_oracle):
    # intrinsic distance between the pole point and (sin 0.5, 0) is 0.5
    length, hops, sp, sq = shortest_path(hemi_oracle, [0.0, 0.0], [math.sin(0.5), 0.0])
    assert length >= 0.5 - 2 * hemi_oracle.mesh_step - (sp + sq) * 2
    assert length <= 0.5 * KING_ANISOTROPY + 2 * hemi_oracle.mesh_step


def test_triangle_inequality(hemi_oracle):
    rng = np.random.default_rng(23)
    for _ in range(50):
        pts = random_chart_points(hemi_oracle.surface, 3, rng)
        d_ab = shortest_path(hemi_oracle, pts[0], pts[1])[0]
        d_bc = shortest_path(hemi_oracle, pts[1], pts[2])[0]
        d_ac = shortest_path(hemi_oracle, pts[0], pts[2])[0]
        assert d_ac <= d_ab + d_bc + 1e-9


def test_refinement_never_lengthens_much(hemisphere):
    # nested refinement (65 -> 129) keeps all old vertices available
    coarse = build_mesh_oracle(hemisphere, 65)
    fine = build_mesh_oracle(hemisphere, 129)
    rng = np.random.default_rng(29)
    for _ in range(10):
        p, q = random_chart_points(hemisphere, 2, rng)
        lc = shortest_path(coarse, p, q)[0]
        lf = shortest_path(fine, p, q)[0]
        assert lf <= lc + coarse.mesh_step


# ---------------------------------------------------------------------------
# the search window
# ---------------------------------------------------------------------------


def _full_search(oracle, p, q):
    """Length and hop count of the shortest path over the whole oracle.graph,
    whose nodes are the inside cells of the whole grid's box, in id order."""
    from scipy.sparse.csgraph import dijkstra
    index = oracle.box((0, 0), oracle.shape)[1]
    i, j = index.flat[oracle.snap(p)[0]], index.flat[oracle.snap(q)[0]]
    dist, pred = dijkstra(oracle.graph, directed=False, indices=i, return_predecessors=True)
    hops, k = 0, j
    while k != i:
        k, hops = pred[k], hops + 1
    return float(dist[j]), hops


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_window_matches_full_search(surfaces, name):
    surf = surfaces[name]
    oracle = build_mesh_oracle(surf, 64)
    rng = np.random.default_rng(41)
    pts = random_chart_points(surf, 40, rng, shrink=1.0)
    pairs = list(zip(pts[::2], pts[1::2])) + [(pts[0], pts[0])]
    for p, q in pairs:
        assert shortest_path(oracle, p, q)[:2] == _full_search(oracle, p, q)


def test_window_rim_pairs_fall_back_to_full_grid(hemi_oracle):
    # close pairs just inside |x| = 0.8, where the straight king walk can
    # cut a grid cell outside the disk
    rng = np.random.default_rng(43)
    fallbacks = 0
    for _ in range(60):
        a = rng.uniform(0.0, 2.0 * np.pi) + np.array([0.0, rng.uniform(0.02, 0.5)])
        r = 0.8 - rng.uniform(0.0, 0.02, 2)
        p, q = (r * np.array([np.cos(a), np.sin(a)])).T
        assert shortest_path(hemi_oracle, p, q)[:2] == _full_search(hemi_oracle, p, q)
        lo, hi = search_box(hemi_oracle, hemi_oracle.snap(p)[0], hemi_oracle.snap(q)[0])
        fallbacks += bool(np.all(lo == 0) and np.all(hi == hemi_oracle.resolution))
    assert fallbacks > 0


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_short_query_searches_small_window(surfaces, name):
    oracle = build_mesh_oracle(surfaces[name], 256)
    i, j = oracle.snap([0.0, 0.0])[0], oracle.snap([0.2, 0.1])[0]
    lo, hi = search_box(oracle, i, j)
    searched = len(oracle.box(lo, hi)[0])
    assert searched <= 0.1 * len(oracle.vertices)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_short_query_evaluates_only_its_window(surfaces, name):
    # the chart test and the height run on the walk and the window, not the
    # whole 256 x 256 grid
    surf, seen = _counted(surfaces[name])
    shortest_path(build_mesh_oracle(surf, 256), [0.0, 0.0], [0.2, 0.1])
    assert 0 < max(seen.values()) <= 0.1 * 256 ** 2


# ---------------------------------------------------------------------------
# minimality margins
# ---------------------------------------------------------------------------


def test_margin_flat_segment(flat):
    oracle = build_mesh_oracle(flat, 128)
    traj = integrate_geodesic(flat, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    assert minimality_report(traj, oracle)["margin"] >= 0.0


def test_margin_hemisphere_arc(hemisphere):
    oracle = build_mesh_oracle(hemisphere, 128)
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    rep = minimality_report(traj, oracle)
    assert rep["margin"] >= 0.0
    assert rep["geodesic_length"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("hops", [-3, math.nan, 2.5, True],
                         ids=["negative", "nan", "fractional", "bool"])
def test_error_budget_rejects_bad_hop_count(flat, hops):
    with pytest.raises(InvalidInput):
        mesh_error_budget(build_mesh_oracle(flat, 32), hops)


def test_error_budget_needs_2dim_chart():
    # sec(pi/8) bounds 8-neighbour paths only; 26-neighbour paths in 3-D
    # overshoot by up to about 1.1281
    def h(X):
        return np.zeros(np.shape(X)[:-1] + (1,))

    flat3 = GraphSurface("flat3", 3, 1, [-1.0] * 3, [1.0] * 3, h, None,
                         regularity=Regularity("smooth"), bounds=SurfaceBounds(0.0, 0.0, 0.0))
    oracle = build_mesh_oracle(flat3, 8)
    assert shortest_path(oracle, [0.0, 0.0, 0.0], [0.5, 0.5, 0.5])[1] > 0
    with pytest.raises(InvalidInput):
        mesh_error_budget(oracle, 3)


def test_margin_needs_declared_bounds(flat):
    # the mesh budget's lift factor is a certified bound; a surface without
    # one gets no margin
    bare = GraphSurface("bare", 2, 1, flat.domain_lo, flat.domain_hi, flat.height,
                        flat.derivatives, regularity=flat.regularity)
    traj = integrate_geodesic(bare, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.3)
    with pytest.raises(InvalidInput):
        minimality_report(traj, build_mesh_oracle(bare, 16))


def test_margin_vee_crease_crossing(vee):
    oracle = build_mesh_oracle(vee, 128)
    traj = integrate_geodesic(vee, TangentVector([-0.15, 0.0], [0.9, 0.3]), 0.3)
    assert minimality_report(traj, oracle)["margin"] >= 0.0


def test_short_geodesics_all_catalog(surfaces):
    rng = np.random.default_rng(31)
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        oracle = build_mesh_oracle(surf, 64)
        c = max(surf.bounds.curvature_sup, 1e-6)
        inradius = 0.5 * float(np.min(surf.domain_hi - surf.domain_lo))
        max_len = 0.5 * min(injradius_lower_bound(c, 2 * inradius), inradius)
        for _ in range(3):
            traj = short_geodesic(surf, rng, max_len)
            assert minimality_report(traj, oracle)["margin"] >= 0.0, name


# ---------------------------------------------------------------------------
# branching / uniqueness
# ---------------------------------------------------------------------------


def test_branching_flat(flat):
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    perts = [TangentVector([0.0, 1e-3], [1.0, 0.0]), TangentVector([0.0, 0.0], [1.0, 1e-3])]
    rep = branching_check(flat, v, 0.5, [1e-3, 5e-4, 2.5e-4], perts)
    assert rep["spread_monotone"]
    assert max(rep["spreads"]) <= 1e-12
    assert rep["max_quotient"] == pytest.approx(1.0, abs=0.2)


@pytest.mark.parametrize("step_sizes", [[], [0.0], [math.nan], [-1e-3], ["a"]],
                         ids=["empty", "zero", "nan", "negative", "string"])
def test_branching_bad_step_sizes_rejected(flat, step_sizes):
    with pytest.raises(InvalidInput):
        branching_check(flat, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.3, step_sizes, [])


def test_branching_step_below_the_step_bound_rejected(vee):
    # 0.3 / 1e-9 steps is over the integrator's step bound: rejected before a run starts
    t0 = time.perf_counter()
    with pytest.raises(InvalidInput):
        branching_check(vee, TangentVector([-0.12, 0.0], [0.95, 0.31]), 0.3, [1e-9], [])
    assert time.perf_counter() - t0 < 1.0
    # 1e-6 is a legal integrator step at t = 0.3, its reference run's 2.5e-7 is not:
    # the message names the caller's step
    with pytest.raises(InvalidInput, match=r"step size .*>= 2\.4e-06, got 1e-06"):
        branching_check(vee, TangentVector([-0.12, 0.0], [0.95, 0.31]), 0.3, [1e-6], [])


def test_branching_coarse_step_leaving_the_chart(hemisphere):
    # at step 2/7 the second step's last stage lies past the hemisphere's rim,
    # where its derivatives raise OutOfChart: the run has left the chart
    with pytest.raises(OutOfDomain, match="left the chart"):
        branching_check(hemisphere, TangentVector([0.0, 0.0], [3.0, 0.0]), 2.0, [0.3], [])


def test_branching_bad_perturbation_rejected(flat):
    # a perturbation is checked as a request before it is compared with v
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(InvalidInput):
        branching_check(flat, v, 0.3, [1e-3], [TangentVector([0.0, 0.0], [1.0, 0.0, 0.0])])


def test_branching_hemisphere_bounded(hemisphere):
    rng = np.random.default_rng(37)
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    perts = [
        TangentVector(v.x + rng.normal(scale=1e-4, size=2), v.y + rng.normal(scale=1e-4, size=2))
        for _ in range(20)
    ]
    rep = branching_check(hemisphere, v, 0.5, [1e-3, 5e-4, 2.5e-4], perts)
    assert rep["spread_monotone"]
    # quotient bounded by the exponential coefficient bound (loose check)
    assert rep["max_quotient"] <= math.e


def test_branching_vee_crease(vee):
    # aimed along the crease: refinement spread shrinks (or sits at roundoff)
    v = TangentVector([0.0, -0.2], [0.02, 1.0])
    perts = [TangentVector([0.0, -0.2], [0.02 + d, 1.0]) for d in (1e-3, 1e-4)]
    rep = branching_check(vee, v, 0.3, [1e-3, 5e-4, 2.5e-4], perts)
    assert rep["spread_monotone"]
    assert rep["max_quotient"] <= 2.0
