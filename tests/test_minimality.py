import math

import numpy as np
import pytest

from geoflow.errors import InvalidInput
from geoflow.flow import TangentVector, integrate_geodesic
from geoflow.minimality import (
    KING_ANISOTROPY,
    branching_check,
    build_mesh_oracle,
    minimality_report,
    shortest_path,
    short_geodesic,
)
from geoflow.regularity import injradius_lower_bound
from geoflow.surface import GraphSurface

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
    assert np.max(np.abs(diff.data)) if diff.nnz else 0.0 <= 1e-15


def test_build_on_c11_surface(vee):
    # needs height values only
    oracle = build_mesh_oracle(vee, 32)
    assert len(oracle.vertices) == 32 * 32


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
# minimality margins
# ---------------------------------------------------------------------------


def test_margin_flat_segment(flat):
    oracle = build_mesh_oracle(flat, 128)
    traj = integrate_geodesic(flat, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    assert minimality_report(flat, traj, oracle)["margin"] >= 0.0


def test_margin_hemisphere_arc(hemisphere):
    oracle = build_mesh_oracle(hemisphere, 128)
    traj = integrate_geodesic(hemisphere, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.5)
    rep = minimality_report(hemisphere, traj, oracle)
    assert rep["margin"] >= 0.0
    assert rep["geodesic_length"] == pytest.approx(0.5, abs=1e-12)


def test_margin_needs_declared_bounds(flat):
    # the mesh budget's lift factor is a certified bound; a surface without
    # one gets no margin
    bare = GraphSurface("bare", 2, 1, flat.domain_lo, flat.domain_hi, flat.height,
                        flat.gradient, flat.hessian, regularity=flat.regularity)
    traj = integrate_geodesic(bare, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.3)
    with pytest.raises(InvalidInput):
        minimality_report(bare, traj, build_mesh_oracle(bare, 16))


def test_margin_vee_crease_crossing(vee):
    oracle = build_mesh_oracle(vee, 128)
    traj = integrate_geodesic(vee, TangentVector([-0.15, 0.0], [0.9, 0.3]), 0.3)
    assert minimality_report(vee, traj, oracle)["margin"] >= 0.0


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
            assert minimality_report(surf, traj, oracle)["margin"] >= 0.0, name


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


@pytest.mark.parametrize("step_sizes", [[], [0.0], [math.nan], [-1e-3]],
                         ids=["empty", "zero", "nan", "negative"])
def test_branching_bad_step_sizes_rejected(flat, step_sizes):
    with pytest.raises(InvalidInput):
        branching_check(flat, TangentVector([0.0, 0.0], [1.0, 0.0]), 0.3, step_sizes, [])


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
