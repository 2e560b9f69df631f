"""The paper's acceptance criteria as one table.

The paper claims that a C^k submanifold of R^n (k >= 2) has a C^(k-1)
geodesic flow and exponential map. Each row of CRITERIA checks one
consequence of that claim, or of the machinery it rests on, on catalog
surfaces: a name, the suite that selects it, a seed, a check, a limit and a
runtime budget in seconds. check(seed, limit) draws from seed alone and
returns (passed, values), values the named numbers its pass rule reads.

`geoflow report` runs the rows of the selected suites, every row by default,
with its --seed added to each row's seed, and writes each row's values and
verdict; tests/test_acceptance.py runs every row at its own seed and holds it
to its budget. Wall times go to the test output only, so the report stays
byte-identical from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import regularity as reg
from .catalog import CATALOG, make_surface
from .flow import (TangentVector, exp_map, flow_property_residual, geodesic_flow, integrate_geodesic,
                   random_tangent, speed_profile)
from .jacobi import JacobiState, fd_flow_differential, flow_differential, mixed_partials_residual, \
    propagate_jacobi
from .minimality import branching_check, build_mesh_oracle, minimality_report, short_geodesic
from .surface import curvature_from_christoffel, curvature_operator, g_norm_batch

SUITES = ("surface", "flow", "jacobi", "minimality", "regularity")
_C3_AND_BETTER = ("flat", "hemisphere", "trough")
_C2_AND_BETTER = (*_C3_AND_BETTER, "c21_cubic", "c2alpha")
_SCALES = [0.1, 0.05, 0.025, 0.0125]  # smoothing widths of the convergence criteria


@dataclass(frozen=True)
class Criterion:
    name: str
    suite: str
    seed: int
    check: Callable
    limit: float | None  # None: the pass rule is a driver's own verdict
    budget: float

    def run(self, offset: int = 0) -> dict:
        """This row's record at seed + offset."""
        seed = self.seed + offset
        passed, values = self.check(seed, self.limit)
        return {"name": self.name, "suite": self.suite, "seed": seed, "limit": self.limit,
                "values": values, "passed": bool(passed)}


def _chart_point(surface, rng, shrink):
    """A uniform point of the chart box shrunk about its center, redrawn until it is a chart point."""
    center = 0.5 * (surface.domain_lo + surface.domain_hi)
    half = 0.5 * (surface.domain_hi - surface.domain_lo)
    while True:
        x = center + (rng.random(surface.dim) * 2 - 1) * shrink * half
        if surface.contains(x):
            return x


def _unit_tangent(surface, rng, shrink=0.5):
    x = _chart_point(surface, rng, shrink)
    y = rng.normal(size=2)
    y /= g_norm_batch(surface, x, y)
    return TangentVector(x, y)


def _convergence(name, seed):
    """The surface and its flow convergence report over _SCALES, 20 probes drawn from seed."""
    surf = make_surface(name)
    seq = reg.approximation_sequence(surf, _SCALES)
    return surf, reg.flow_convergence_report(seq, reg.convergence_probes(seq, 20, np.random.default_rng(seed)))


def _dominance_values(rep):
    return {"min_limit_over_value": float(np.min(rep["limits"] / np.maximum(rep["values"], 1e-300))),
            "bins": len(rep["edges"])}


def _gauss_consistency(seed, limit):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("hemisphere", "trough"):
        surf = make_surface(name)
        scale = max(surf.bounds.hess_sup ** 2, 1e-8)
        for _ in range(50):
            x = _chart_point(surf, rng, 0.7)
            v = rng.normal(size=2)
            j = rng.normal(size=2)
            a = curvature_operator(surf, x, v) @ j
            b = curvature_from_christoffel(surf, x, v, j)
            worst = max(worst, float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), scale)))
    return worst <= limit, {"max_rel": worst}


def _sphere_exponential_map(seed, limit):
    out = exp_map(make_surface("hemisphere"), TangentVector([0.0, 0.0], [0.5, 0.0]))
    err = float(np.linalg.norm(out - np.array([math.sin(0.5), 0.0])))
    return err <= limit, {"err": err}


def _speed_conservation(name, seed, limit):
    """g-speed drift along a geodesic to t = 0.4, from the tangent drawn for
    name when one generator draws one per _C2_AND_BETTER surface in order."""
    rng = np.random.default_rng(seed)
    v = {n: random_tangent(make_surface(n), rng, 0.5) for n in _C2_AND_BETTER}[name]
    surf = make_surface(name)
    traj = integrate_geodesic(surf, v, 0.4)
    drift = float(np.max(np.abs(speed_profile(surf, traj) - traj.speed)) / traj.speed)
    return drift <= limit, {"drift": drift}


def _sphere_jacobi_sine(seed, limit):
    hemi = make_surface("hemisphere")
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    worst = 0.0
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        out = propagate_jacobi(hemi, v, JacobiState([0, 0], [0, 1.0]), t, tol=1e-11)
        x_t = geodesic_flow(hemi, t, v, tol=1e-11).x
        worst = max(worst, abs(float(g_norm_batch(hemi, x_t, out.J)) - math.sin(t)))
    return worst <= limit, {"max_err": worst}


def _flow_differential_fd_oracle(seed, limit):
    rng = np.random.default_rng(seed)
    worst, worst_case = 0.0, ""
    for name in ("flat", "hemisphere", "trough", "c21_cubic"):
        surf = make_surface(name)
        for _ in range(20):
            v = _unit_tangent(surf, rng)
            t = rng.uniform(0.1, 0.35)
            a = flow_differential(surf, t, v, tol=1e-11).matrix
            d = float(np.max(np.abs(a - fd_flow_differential(surf, t, v))))
            if d > worst:
                worst, worst_case = d, name
    return worst <= limit, {"max_abs_diff": worst, "surface": worst_case}


def _mixed_partials_residual(seed, limit):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in _C3_AND_BETTER:
        surf = make_surface(name)
        for _ in range(3):
            v = _unit_tangent(surf, rng, shrink=0.3)
            worst = max(worst, mixed_partials_residual(surf, v, rng.normal(size=2)))
    return worst <= limit, {"max_residual": worst}


def _minimality_margins(seed, limit):
    rng = np.random.default_rng(seed)
    worst, worst_name = np.inf, ""
    for name in CATALOG:
        surf = make_surface(name)
        oracle = build_mesh_oracle(surf, 128)
        c = max(surf.bounds.curvature_sup, 1e-6)
        inradius = 0.5 * float(np.min(surf.domain_hi - surf.domain_lo))
        max_len = 0.5 * min(reg.injradius_lower_bound(c, 2 * inradius), inradius)
        for _ in range(20):
            margin = float(minimality_report(short_geodesic(surf, rng, max_len), oracle)["margin"])
            if margin < worst:
                worst, worst_name = margin, name
    return worst >= limit, {"min_margin": worst, "surface": worst_name}


def _nonbranching_uniqueness(seed, limit):
    rng = np.random.default_rng(seed)
    v = TangentVector([-0.12, 0.0], [0.95, 0.31])
    perts = [TangentVector(v.x + rng.normal(scale=1e-4, size=2), v.y + rng.normal(scale=1e-4, size=2))
             for _ in range(10)]
    b = branching_check(make_surface("vee"), v, 0.3, [1e-3, 5e-4, 2.5e-4], perts)
    worst = 0.0
    for name in _C2_AND_BETTER:
        surf = make_surface(name)
        for _ in range(3):
            worst = max(worst, flow_property_residual(surf, 0.15, 0.15, _unit_tangent(surf, rng, shrink=0.3)))
    return b["spread_monotone"] and worst <= limit, {"spreads": b["spreads"], "max_composition_residual": worst}


def _k2_dflow_convergence(seed, limit):
    _, rep = _convergence("c21_cubic", seed)
    d = np.array(rep.dflow_c0)
    factor = float(np.exp(np.mean(np.log(d[:-1] / d[1:]))))
    return bool(np.all(np.diff(d) < 0)) and factor >= limit, {"dflow_c0": rep.dflow_c0, "factor": factor}


def _c11_lipschitz_flow(seed, limit):
    vee, rep = _convergence("vee", seed)
    lip = reg.lipschitz_flow_report(vee, t_end=0.3, n_pairs=200, seed=seed)
    passed = bool(np.all(np.diff(rep.flow_c0) < 0)) and lip["bounded"] and lip["c_bar"] <= limit
    return passed, {"flow_c0": rep.flow_c0, "max_quotient": lip["max_quotient"], "bound": lip["bound"],
                    "c_bar": lip["c_bar"]}


def _osgood_modulus_dominance(seed, limit):
    rep = reg.osgood_dominance_report(make_surface("c21_cubic"), t1=0.3, n_centers=8, seed=seed)
    return rep["holds"], _dominance_values(rep)


def _holder_modulus_branch(seed, limit):
    rep = reg.holder_dominance_report(make_surface("c2alpha"), t1=0.3, n_centers=8, seed=seed)
    return rep["holds"], {**_dominance_values(rep), "c_bound": rep["c_bound"]}


def _gronwall_dominance_hemisphere(seed, limit):
    rng = np.random.default_rng(seed)
    hemi = make_surface("hemisphere")
    holds = True
    for _ in range(10):
        v = random_tangent(hemi, rng, 0.5)
        j0 = JacobiState(rng.normal(size=2), rng.normal(size=2))
        holds = reg.measure_gronwall_margin(hemi, v, j0, 0.4)["holds"] and holds
    return holds, {"holds": holds}


CRITERIA = (
    Criterion("gauss_consistency", "surface", 202, _gauss_consistency, 1e-5, 5.0),
    Criterion("sphere_exponential_map", "flow", 0, _sphere_exponential_map, 1e-8, 1.0),
    *(Criterion(f"speed_conservation_{name}", "flow", 0, partial(_speed_conservation, name), 1e-8, 5.0)
      for name in _C2_AND_BETTER),
    Criterion("sphere_jacobi_sine", "jacobi", 0, _sphere_jacobi_sine, 1e-7, 1.0),
    Criterion("flow_differential_fd_oracle", "jacobi", 101, _flow_differential_fd_oracle, 1e-5, 30.0),
    Criterion("mixed_partials_residual", "jacobi", 909, _mixed_partials_residual, 1e-5, 10.0),
    Criterion("minimality_margins", "minimality", 707, _minimality_margins, 0.0, 120.0),
    Criterion("nonbranching_uniqueness", "minimality", 808, _nonbranching_uniqueness, 1e-7, 60.0),
    Criterion("k2_dflow_convergence", "regularity", 303, _k2_dflow_convergence, 1.5, 120.0),
    Criterion("c11_lipschitz_flow", "regularity", 404, _c11_lipschitz_flow, 2.2, 120.0),
    Criterion("osgood_modulus_dominance", "regularity", 505, _osgood_modulus_dominance, None, 60.0),
    Criterion("holder_modulus_branch", "regularity", 606, _holder_modulus_branch, None, 60.0),
    Criterion("gronwall_dominance_hemisphere", "regularity", 0, _gronwall_dominance_hemisphere, None, 5.0),
)
