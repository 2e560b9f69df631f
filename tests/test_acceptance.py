"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live) and enforces its runtime budget.
"""

import math
import time

import numpy as np

from geoflow import regularity as reg
from geoflow.flow import TangentVector, exp_map, flow_property_residual, geodesic_flow
from geoflow.jacobi import JacobiState, fd_flow_differential, flow_differential, \
    mixed_partials_residual, propagate_jacobi
from geoflow.minimality import branching_check, build_mesh_oracle, minimality_report, \
    short_geodesic
from geoflow.regularity import injradius_lower_bound
from geoflow.surface import curvature_from_christoffel, curvature_operator, g_norm_batch

from conftest import C2_AND_BETTER, C3_AND_BETTER, CATALOG_NAMES, random_chart_points


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}, {elapsed:.2f}s/{budget:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def unit_tangent(surface, rng, shrink=0.5):
    x = random_chart_points(surface, 1, rng, shrink=shrink)[0]
    y = rng.normal(size=2)
    y /= g_norm_batch(surface, x, y)
    return TangentVector(x, y)


def test_01_sphere_exponential_map(hemisphere):
    t0 = time.perf_counter()
    out = exp_map(hemisphere, TangentVector([0.0, 0.0], [0.5, 0.0]))
    err = float(np.linalg.norm(out - np.array([math.sin(0.5), 0.0])))
    report(1, "sphere-exponential-map", err <= 1e-8, f"err={err:.2e}", time.perf_counter() - t0, 1.0)


def test_02_sphere_jacobi_field(hemisphere):
    t0 = time.perf_counter()
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    worst = 0.0
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        out = propagate_jacobi(hemisphere, v, JacobiState([0, 0], [0, 1.0]), t, tol=1e-11)
        x_t = geodesic_flow(hemisphere, t, v, tol=1e-11).x
        norm = float(g_norm_batch(hemisphere, x_t, out.J))
        worst = max(worst, abs(norm - math.sin(t)))
    report(2, "sphere-jacobi-sine", worst <= 1e-7, f"max err={worst:.2e}", time.perf_counter() - t0, 1.0)


def test_03_flow_differential_oracle(surfaces):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_case = ""
    for name in ("flat", "hemisphere", "trough", "c21_cubic"):
        surf = surfaces[name]
        for _ in range(20):
            v = unit_tangent(surf, rng)
            t = rng.uniform(0.1, 0.35)
            a = flow_differential(surf, t, v, tol=1e-11).matrix
            b = fd_flow_differential(surf, t, v)
            d = float(np.max(np.abs(a - b)))
            if d > worst:
                worst, worst_case = d, name
    report(3, "flow-differential-fd-oracle", worst <= 1e-5,
           f"max |diff|={worst:.2e} ({worst_case})", time.perf_counter() - t0, 30.0)


def test_04_gauss_consistency(surfaces):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for name in ("hemisphere", "trough"):
        surf = surfaces[name]
        scale = max(surf.bounds.hess_sup ** 2, 1e-8)
        for _ in range(50):
            x = random_chart_points(surf, 1, rng, shrink=0.7)[0]
            v = rng.normal(size=2)
            j = rng.normal(size=2)
            a = curvature_operator(surf, x, v) @ j
            b = curvature_from_christoffel(surf, x, v, j)
            rel = float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), scale))
            worst = max(worst, rel)
    report(4, "gauss-consistency", worst <= 1e-5, f"max rel={worst:.2e}",
           time.perf_counter() - t0, 5.0)


def test_05_k2_convergence(c21_cubic):
    t0 = time.perf_counter()
    seq = reg.approximation_sequence(c21_cubic, [0.1, 0.05, 0.025, 0.0125])
    rng = np.random.default_rng(303)
    probes = reg.convergence_probes(seq, 20, rng)
    rep = reg.flow_convergence_report(seq, probes)
    d = np.array(rep.dflow_c0)
    monotone = bool(np.all(np.diff(d) < 0))
    factor = float(np.exp(np.mean(np.log(d[:-1] / d[1:]))))
    ok = monotone and factor >= 1.5
    report(5, "k2-dflow-convergence", ok,
           f"dists={np.array2string(d, precision=2)} factor={factor:.2f}",
           time.perf_counter() - t0, 120.0)


def test_06_c11_lipschitz_flow(vee):
    t0 = time.perf_counter()
    seq = reg.approximation_sequence(vee, [0.1, 0.05, 0.025, 0.0125])
    rng = np.random.default_rng(404)
    probes = reg.convergence_probes(seq, 20, rng)
    rep = reg.flow_convergence_report(seq, probes)
    f = np.array(rep.flow_c0)
    cauchy = bool(np.all(np.diff(f) < 0))
    lip = reg.lipschitz_flow_report(vee, t_end=0.3, n_pairs=200, seed=404)
    ok = cauchy and lip["bounded"] and lip["c_bar"] <= 2.2
    report(6, "c11-lipschitz-flow", ok,
           f"flow dists={np.array2string(f, precision=2)} "
           f"maxq={lip['max_quotient']:.3f} bound={lip['bound']:.3f} c_bar={lip['c_bar']:.3f}",
           time.perf_counter() - t0, 120.0)


def test_07_osgood_dominance(c21_cubic):
    t0 = time.perf_counter()
    rep = reg.osgood_dominance_report(c21_cubic, t1=0.3, n_centers=8, seed=505)
    margin = float(np.min(rep["limits"] / np.maximum(rep["values"], 1e-300)))
    report(7, "osgood-modulus-dominance", rep["holds"],
           f"min limit/value={margin:.2f} over {len(rep['edges'])} bins",
           time.perf_counter() - t0, 60.0)


def test_08_holder_branch(c2alpha):
    t0 = time.perf_counter()
    rep = reg.holder_dominance_report(c2alpha, 0.5, t1=0.3, n_centers=8, seed=606)
    report(8, "holder-modulus-branch", rep["holds"],
           f"c_bound={rep['c_bound']:.3f} bins={len(rep['edges'])}",
           time.perf_counter() - t0, 60.0)


def test_09_minimality(surfaces):
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = np.inf
    worst_name = ""
    for name in CATALOG_NAMES:
        surf = surfaces[name]
        oracle = build_mesh_oracle(surf, 128)
        c = max(surf.bounds.curvature_sup, 1e-6)
        inradius = 0.5 * float(np.min(surf.domain_hi - surf.domain_lo))
        max_len = 0.5 * min(injradius_lower_bound(c, 2 * inradius), inradius)
        for _ in range(20):
            traj = short_geodesic(surf, rng, max_len)
            margin = minimality_report(surf, traj, oracle)["margin"]
            if margin < worst:
                worst, worst_name = margin, name
    report(9, "minimality-margins", worst >= 0.0,
           f"min margin={worst:.4f} ({worst_name})", time.perf_counter() - t0, 120.0)


def test_10_nonbranching_uniqueness(surfaces, vee):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    v = TangentVector([-0.12, 0.0], [0.95, 0.31])
    perts = [
        TangentVector(v.x + rng.normal(scale=1e-4, size=2), v.y + rng.normal(scale=1e-4, size=2))
        for _ in range(10)
    ]
    b = branching_check(vee, v, 0.3, [1e-3, 5e-4, 2.5e-4], perts)
    worst_res = 0.0
    for name in C2_AND_BETTER:
        surf = surfaces[name]
        for _ in range(3):
            w = unit_tangent(surf, rng, shrink=0.3)
            res = flow_property_residual(surf, 0.15, 0.15, w)
            worst_res = max(worst_res, res)
    ok = b["spread_monotone"] and worst_res <= 1e-7
    report(10, "nonbranching-uniqueness", ok,
           f"spreads={np.array2string(np.array(b['spreads']), precision=2)} "
           f"max composition residual={worst_res:.2e}",
           time.perf_counter() - t0, 60.0)


def test_11_mixed_partials(surfaces):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for name in C3_AND_BETTER:
        surf = surfaces[name]
        for _ in range(3):
            v = unit_tangent(surf, rng, shrink=0.3)
            w = rng.normal(size=2)
            worst = max(worst, mixed_partials_residual(surf, v, w))
    report(11, "mixed-partials-residual", worst <= 1e-5, f"max={worst:.2e}",
           time.perf_counter() - t0, 10.0)
