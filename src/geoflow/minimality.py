"""Discrete shortest-path oracle and local length-minimality checks.

The oracle is a king-move grid graph over the chart whose edges are weighted
by ambient chord length. Shortest vertex paths overestimate the intrinsic
distance by at most a mesh-resolution term times the king-move anisotropy
constant sec(pi/8), which the margin computation budgets explicitly. The
oracle needs height values only, so it also works on surfaces whose
derivatives are discontinuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from . import integrate
from .errors import DisconnectedMesh, InvalidInput, OutOfDomain
from .flow import (TangentVector, Trajectory, check_request, integrate_batch, integrate_geodesic,
                   make_geodesic_rhs, random_tangent, require_completed, state_inside)

KING_ANISOTROPY = 1.0 / np.cos(np.pi / 8.0)  # worst king-path overhead, 1.0824


@dataclass
class MeshGeodesicOracle:
    surface: object
    resolution: int
    vertices: np.ndarray       # (V, m) chart points
    graph: object              # CSR matrix of symmetric chord-length weights
    mesh_step: float           # largest per-axis grid spacing

    def snap(self, p) -> tuple[int, float]:
        """Nearest vertex index and its chart distance to p."""
        p = np.asarray(p, dtype=float)
        d = np.linalg.norm(self.vertices - p, axis=1)
        i = int(np.argmin(d))
        return i, float(d[i])


def build_mesh_oracle(surface, resolution: int = 64) -> MeshGeodesicOracle:
    """King-move mesh over the chart with ambient chord-length weights."""
    if resolution < 8:
        raise InvalidInput(f"resolution must be at least 8 per axis, got {resolution}")
    m = surface.dim
    axes = [
        np.linspace(lo, hi, resolution)
        for lo, hi in zip(surface.domain_lo, surface.domain_hi)
    ]
    steps = [ax[1] - ax[0] for ax in axes]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    keep = surface.contains_batch(pts)
    index = -np.ones(len(pts), dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    verts = pts[keep]
    emb = surface.embed_batch(verts)

    shape = (resolution,) * m
    lin = np.arange(len(pts)).reshape(shape)
    rows, cols, vals = [], [], []
    for offset in product((-1, 0, 1), repeat=m):
        if all(o == 0 for o in offset) or offset < tuple(-o for o in offset):
            continue  # half of the offsets; weights are symmetric
        src = lin[tuple(slice(max(0, -o), resolution - max(0, o)) for o in offset)]
        dst = lin[tuple(slice(max(0, o), resolution - max(0, -o)) for o in offset)]
        a = index[src.ravel()]
        b = index[dst.ravel()]
        ok = (a >= 0) & (b >= 0)
        a, b = a[ok], b[ok]
        w = np.linalg.norm(emb[a] - emb[b], axis=1)
        rows.append(a)
        cols.append(b)
        vals.append(w)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    graph = coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(len(verts), len(verts)),
    ).tocsr()
    return MeshGeodesicOracle(surface, resolution, verts, graph, float(max(steps)))


def shortest_path(oracle: MeshGeodesicOracle, p, q):
    """(length, hop_count, snap_p, snap_q) of the shortest vertex path."""
    i, sp = oracle.snap(p)
    j, sq = oracle.snap(q)
    dist, pred = _dijkstra(
        oracle.graph, directed=False, indices=i, return_predecessors=True
    )
    if not np.isfinite(dist[j]):
        raise DisconnectedMesh(f"no mesh path between {p} and {q}")
    hops = 0
    k = j
    while k != i:
        k = pred[k]
        if k < 0:
            raise DisconnectedMesh("predecessor chain broken")
        hops += 1
    return float(dist[j]), hops, sp, sq


def mesh_error_budget(surface, oracle: MeshGeodesicOracle, hops: int) -> float:
    """Resolution allowance: lift factor * anisotropy * mesh step * hop count,
    with the lift sqrt(1 + grad_sup^2) from the surface's certified bounds."""
    lift = float(np.sqrt(1.0 + surface.bounds.grad_sup ** 2))
    return lift * KING_ANISOTROPY * oracle.mesh_step * hops


def minimality_report(surface, traj: Trajectory, oracle: MeshGeodesicOracle) -> dict:
    """Margin of one trajectory against the mesh oracle: mesh length + budget
    - geodesic length, nonnegative when no mesh competitor is shorter up to
    mesh error. The geodesic length is speed * final_time, the exact g-length
    of the geodesic, which a chord sum over the samples would underestimate."""
    pts = traj.positions(surface.dim)
    mesh_len, hops, sp, sq = shortest_path(oracle, pts[0], pts[-1])
    length = traj.speed * traj.final_time
    budget = mesh_error_budget(surface, oracle, hops)
    margin = mesh_len + budget - length
    return {
        "geodesic_length": length,
        "mesh_length": mesh_len,
        "error_budget": budget,
        "margin": margin,
        "hops": hops,
        "snap_distances": [sp, sq],
        "verdict": "minimal_within_mesh_error" if margin >= 0 else "violated",
    }


def branching_check(surface, v: TangentVector, t_end: float, step_sizes, perturbations) -> dict:
    """Uniqueness and stable dependence diagnostics for one initial condition.

    (a) endpoint spread of fixed-step runs against a reference run at a
    quarter of the smallest step — shrinking spread indicates a unique limit
    trajectory; (b) Lipschitz quotients |phi(t, v) - phi(t, w)| / |v - w|
    over the perturbation set.
    """
    u0 = np.concatenate(check_request(surface, t_end, v, positive=True))
    step_sizes = sorted(step_sizes, reverse=True)
    if not step_sizes or not all(np.isfinite(s) and s > 0 for s in step_sizes):
        raise InvalidInput(f"need one or more finite positive step sizes, got {step_sizes}")
    reference_step = step_sizes[-1] / 4.0
    runs = {}
    for s in list(step_sizes) + [reference_step]:
        res = integrate.integrate_fixed_rk4(
            make_geodesic_rhs(surface), u0, t_end, s, inside=state_inside(surface)
        )
        runs[s] = require_completed(res, f"geodesic at step size {s:g}").final_state
    ref = runs[reference_step]
    spreads = [float(np.linalg.norm(runs[s] - ref)) for s in step_sizes]
    # below the roundoff floor refinement cannot show further shrinkage
    floor = 1e-13 * max(1.0, float(np.linalg.norm(ref)))
    monotone = all(
        b <= a * (1 + 1e-9) + floor for a, b in zip(spreads, spreads[1:])
    )

    # v and its perturbations integrate as one batch
    rows, gaps = [u0], []
    for w in perturbations:
        dv = np.linalg.norm(w.as_state() - v.as_state())
        if dv == 0:
            continue
        rows.append(np.concatenate(check_request(surface, t_end, w, positive=True)))
        gaps.append(dv)
    res = integrate_batch(surface, np.array(rows), t_end)
    ends = require_completed(res, f"batch of {len(rows)} perturbed geodesics").final_state
    quotients = [float(np.linalg.norm(end - ends[0]) / dv) for end, dv in zip(ends[1:], gaps)]
    return {
        "step_sizes": list(map(float, step_sizes)),
        "spreads": spreads,
        "spread_monotone": bool(monotone),
        "quotients": quotients,
        "max_quotient": float(max(quotients)) if quotients else 0.0,
    }


def short_geodesic(surface, rng, max_length: float) -> Trajectory:
    """Random unit-speed geodesic from the central chart region, of g-length
    at most max_length (used by the minimality test drivers)."""
    for _ in range(100):
        v = random_tangent(surface, rng, 0.8)
        t_end = max_length * (0.4 + 0.6 * rng.random())
        traj = integrate_geodesic(surface, v, t_end)
        if traj.status == integrate.COMPLETED:
            return traj
    raise OutOfDomain("could not place a short geodesic inside the chart")
