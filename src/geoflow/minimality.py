"""Discrete shortest-path oracle and local length-minimality checks.

The oracle is a king-move grid graph over the chart whose edges are weighted
by ambient chord length. Shortest vertex paths overestimate the intrinsic
distance by at most a mesh-resolution term times the king-move anisotropy
constant sec(pi/8), which the margin computation budgets explicitly. The
oracle needs height values only, so it also works on surfaces whose
derivatives are discontinuous.

The oracle keeps only the grid axes; the chart test and the embedding run on
the cells a query looks at. A point snaps to the nearest corner of its grid
cell, and a query searches the index box that one king path bounds: on a graph
chart |F(x) - F(x')| >= |x - x'|, so each vertex of a path no longer than the
king walk between the snapped vertices lies within that length of both ends.
Where a cell corner or the walk leaves the chart, the snap or search covers
the whole grid. scipy.sparse is imported where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import integrate
from .errors import DisconnectedMesh, InvalidInput, OutOfDomain, require_count, require_real, require_sequence
from .flow import (TangentVector, Trajectory, check_request, integrate_batch, integrate_geodesic,
                   make_geodesic_rhs, random_tangent, require_completed, state_inside)

KING_ANISOTROPY = 1.0 / np.cos(np.pi / 8.0)  # worst king-path overhead, 1.0824


@dataclass
class MeshGeodesicOracle:
    """King-move mesh over the chart; a vertex id is the flat row-major index of its grid cell."""
    surface: object
    resolution: int
    axes: np.ndarray           # (m, resolution) grid coordinates per axis
    steps: np.ndarray          # (m,) grid spacing per axis
    shape: tuple               # (resolution,) * m

    @property
    def mesh_step(self) -> float:
        """Largest per-axis grid spacing."""
        return float(max(self.steps))

    def points(self, cells) -> np.ndarray:
        """Chart points of integer grid cells (..., m)."""
        return self.axes[np.arange(len(self.shape)), cells]

    def box(self, lo, hi):
        """(cells, local): the inside cells (K, m) of the index box [lo, hi) in
        row-major order, and the box grid of positions among them, -1 outside."""
        cells = np.moveaxis(np.mgrid[tuple(slice(a, b) for a, b in zip(lo, hi))], 0, -1)
        inside = self.surface.contains_batch(self.points(cells))
        return cells[inside], np.where(inside, np.cumsum(inside).reshape(inside.shape) - 1, -1)

    @cached_property
    def vertices(self) -> np.ndarray:
        """(V, m) chart points of the vertices, in id order."""
        return self.points(self.box((0,) * len(self.shape), self.shape)[0])

    @cached_property
    def graph(self):
        """CSR matrix of symmetric chord-length weights over the whole mesh."""
        return box_graph(self, (0,) * len(self.shape), self.shape)[0]

    def snap(self, p) -> tuple[int, float]:
        """Nearest vertex id and its chart distance to the chart point p: the nearest
        corner of p's grid cell, or the nearest vertex when a corner is outside the chart."""
        p = self.surface.require_inside(p)
        lo = np.clip(np.floor((p - self.axes[:, 0]) / self.steps), 0, self.resolution - 2).astype(np.int64)
        cells, local = self.box(lo, lo + 2)
        cells = cells if np.all(local >= 0) else self.box((0,) * len(self.shape), self.shape)[0]
        d = np.linalg.norm(self.points(cells) - p, axis=1)
        i = int(np.argmin(d))
        return int(np.ravel_multi_index(cells[i], self.shape)), float(d[i])


def build_mesh_oracle(surface, resolution: int = 64) -> MeshGeodesicOracle:
    """King-move mesh over the chart at `resolution` points per axis."""
    require_count(resolution, 8, "resolution per axis")
    axes = np.array([np.linspace(lo, hi, resolution) for lo, hi in zip(surface.domain_lo, surface.domain_hi)])
    return MeshGeodesicOracle(surface, resolution, axes, axes[:, 1] - axes[:, 0], (resolution,) * len(axes))


def box_graph(oracle: MeshGeodesicOracle, lo, hi):
    """(graph, ids): CSR king-move graph over the inside vertices of the index
    box [lo, hi), whose nodes are the vertex ids `ids` in increasing order.
    The CSR arrays are filled offset by offset on the box grid, so a row lists
    its neighbours in increasing column order, as scipy's canonical CSR does."""
    from scipy.sparse import csr_matrix
    cells, local = oracle.box(lo, hi)
    inside = local >= 0
    emb = np.zeros((oracle.surface.ambient_dim,) + local.shape)  # embedding per box cell
    emb[:, inside] = oracle.surface.embed_batch(oracle.points(cells)).T
    nbrs, weights = [], []
    for offset in product((-1, 0, 1), repeat=local.ndim):
        if any(offset):  # cells p in src and their neighbours p + offset in dst
            src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, local.shape))
            dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(offset, local.shape))
            nb, w = np.full(local.shape, -1), np.zeros(local.shape)
            nb[src] = local[dst]
            d = emb[(slice(None),) + src] - emb[(slice(None),) + dst]
            w[src] = np.sqrt(np.sum(d * d, axis=0))
            nbrs.append(nb[inside])
            weights.append(w[inside])
    nbrs, weights = np.stack(nbrs, axis=1), np.stack(weights, axis=1)
    ok = nbrs >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(ok, axis=1))])
    return csr_matrix((weights[ok], nbrs[ok], indptr), shape=(len(cells),) * 2), \
        np.ravel_multi_index(cells.T, oracle.shape)


def search_box(oracle: MeshGeodesicOracle, i: int, j: int):
    """Index box [lo, hi) that holds every vertex path from vertex i to vertex j
    no longer than the straight king walk between them; the whole grid when
    that walk leaves the chart."""
    ci, cj = np.array(np.unravel_index([i, j], oracle.shape)).T
    n = int(np.max(np.abs(cj - ci)))
    walk = ci + np.floor(np.arange(n + 1)[:, None] * (cj - ci) / max(n, 1) + 0.5).astype(np.int64)
    pts = oracle.points(walk)
    if not np.all(oracle.surface.contains_batch(pts)):
        return np.zeros_like(ci), np.full_like(ci, oracle.resolution)
    bound = float(np.sum(np.linalg.norm(np.diff(oracle.surface.embed_batch(pts), axis=0), axis=1)))
    # cells per axis within chart distance U, with slack for rounding
    reach = np.ceil(bound * (1 + 1e-9) / oracle.steps).astype(np.int64) + 1
    return np.maximum(np.maximum(ci, cj) - reach, 0), \
        np.minimum(np.minimum(ci, cj) + reach + 1, oracle.resolution)


def shortest_path(oracle: MeshGeodesicOracle, p, q):
    """(length, hop_count, snap_p, snap_q) of the shortest vertex path; p and q
    must lie in the chart."""
    from scipy.sparse.csgraph import dijkstra
    (i, sp), (j, sq) = oracle.snap(p), oracle.snap(q)
    graph, ids = box_graph(oracle, *search_box(oracle, i, j))
    a, b = np.searchsorted(ids, [i, j])
    # box_graph lists each edge both ways with bitwise equal weights (the two
    # embedding differences are negatives), so the directed search needs no transpose
    dist, pred = dijkstra(graph, directed=True, indices=a, return_predecessors=True)
    if not np.isfinite(dist[b]):
        raise DisconnectedMesh(f"no mesh path between {p} and {q}")
    hops, k = 0, b
    while k != a:  # dist[b] is finite, so the predecessor chain reaches a
        k, hops = pred[k], hops + 1
    return float(dist[b]), hops, sp, sq


def mesh_error_budget(oracle: MeshGeodesicOracle, hops: int) -> float:
    """Resolution allowance: lift factor * anisotropy * mesh step * hop count,
    with the lift sqrt(1 + grad_sup^2) from the oracle surface's certified bounds."""
    surface = oracle.surface
    require_count(hops, 0, "hop count")
    if surface.dim != 2:  # sec(pi/8) is 2-D only
        raise InvalidInput(f"need a 2-dim chart, got dim {surface.dim}")
    lift = float(np.sqrt(1.0 + surface.bounds.grad_sup ** 2))
    return lift * KING_ANISOTROPY * oracle.mesh_step * hops


def minimality_report(traj: Trajectory, oracle: MeshGeodesicOracle) -> dict:
    """Margin of one trajectory on oracle.surface: mesh length + budget -
    geodesic length, nonnegative when no mesh competitor is shorter up to
    mesh error. The geodesic length is speed * final_time, the exact g-length
    of the geodesic, which a chord sum over the samples would underestimate."""
    m = oracle.surface.dim
    mesh_len, hops, sp, sq = shortest_path(oracle, traj.states[0, :m], traj.states[-1, :m])
    length = traj.speed * traj.final_time
    budget = mesh_error_budget(oracle, hops)
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
    u0 = np.concatenate(check_request(surface, v)[:2])
    # the reference run at a quarter of the smallest step keeps to the integrator's step bound
    least = 4.0 * float(integrate.end_times(t_end)[0]) / integrate._MAX_STEPS
    step_sizes = sorted((require_real(s, "a step size", above=0, at_least=least)
                         for s in require_sequence(step_sizes, "step sizes", 1)), reverse=True)
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
    rows = [np.concatenate(check_request(surface, w)[:2])
            for w in require_sequence(perturbations, "perturbations")]
    rows = [u0] + [row for row in rows if np.any(row != u0)]
    gaps = [np.linalg.norm(row - u0) for row in rows[1:]]
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
    max_length = require_real(max_length, "max_length", above=0)
    for _ in range(100):
        v = random_tangent(surface, rng, 0.8)
        t_end = max_length * (0.4 + 0.6 * rng.random())
        traj = integrate_geodesic(surface, v, t_end)
        if traj.status == integrate.COMPLETED:
            return traj
    raise OutOfDomain("could not place a short geodesic inside the chart")
