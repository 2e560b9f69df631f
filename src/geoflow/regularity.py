"""Smoothing of low-regularity graphs and quantitative flow-convergence checks.

Height fields are smoothed by convolution with a compactly supported product
of 1-D bump kernels, sampled on a fine grid one strip of rows at a time and
applied one axis at a time. Derivative grids are produced by convolving the
surface's own derivative arrays with the same kernel (the convolution
commutes with differentiation for the classes handled here), at once, and
the height only at its first read: the flows see a level through its
derivatives alone. The discrete weights are nonnegative, symmetric and
normalized to unit mass, so affine height fields are preserved exactly and
sup bounds of the derivatives can never be inflated by the smoothing.

The module also provides the quantitative bounds used to certify the flow
behaviour: the exponential a-priori bound on Jacobi states, the explicit
modulus transfer Gamma(delta) = Ct * t1 * exp(Cb * t1) * mu(delta) for the
dependence of solutions of a linear system on a parameter entering its
coefficients, and empirical modulus estimation over binned sample pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DomainTooSmall, InvalidInput, OutOfDomain, require_array, require_count,
                     require_real, require_sequence)
from .flow import TangentVector, integrate_batch, random_tangent, require_completed
from .integrate import LEFT_CHART, STEP_FAILURE
from .jacobi import basis_block, chart_to_covariant, coefficient_matrix, propagate_block
from .surface import GraphSurface, GridSurface, Regularity, g_norm_batch, local_geometry

_MODULUS_BINS = 32                      # log-spaced bins of an empirical modulus
_PROBE_RES = 41                         # per-axis grid measuring distances to the base
_PROBE_TIMES = (0.15, 0.3)              # flow-time range of the convergence probes
_CONVERGE_FACTOR = 1.5                  # mean shrink per level that counts as converging
_LIPSCHITZ_GAPS = (1e-4, 1e-2)          # log-uniform range of initial-state gaps
_MODULUS_GAPS = np.logspace(-3, -1, 7)  # base-point gaps of the modulus probes
_STRIP_ROWS = 32                        # spline-grid rows that mollify smooths at a time

# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------


@dataclass
class Modulus:
    """Empirical modulus of continuity mu on [0, delta_max], mu(0) = 0.

    edges: upper bin edges, increasing; values: the running max of the
    per-bin sups, so mu is nondecreasing (0 left of the first sample);
    populated: the bins that received a sample. Closed-form moduli (linear,
    power, the transfer Gamma) are plain callables of delta.
    """

    edges: np.ndarray
    values: np.ndarray
    populated: np.ndarray

    def __call__(self, delta):
        delta = require_array(delta, "delta", at_least=-np.inf)  # any number but NaN
        idx = np.clip(np.searchsorted(self.edges, delta, side="left"), 0, len(self.values) - 1)
        out = np.where(delta <= 0.0, 0.0, self.values[idx])
        return float(out) if out.ndim == 0 else out


def empirical_modulus(samples) -> Modulus:
    """Per-bin sup of output deviation over (gap, deviation) sample pairs.

    samples: iterable of (input_gap, output_deviation). _MODULUS_BINS bins
    are spaced logarithmically over [1e-6, largest gap]; empty bins inherit
    the running max from the left.
    """
    pairs = require_array(require_sequence(samples, "samples"), "gaps and deviations", finite=True,
                          at_least=0)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) < 2:
        raise InvalidInput("need at least 2 (gap, deviation) samples")
    gaps, devs = pairs[:, 0], pairs[:, 1]
    delta_max = max(float(np.max(gaps)), 2e-6)
    edges = np.logspace(np.log10(1e-6), np.log10(delta_max), _MODULUS_BINS)
    idx = np.clip(np.searchsorted(edges, gaps, side="left"), 0, _MODULUS_BINS - 1)
    sups = np.full(_MODULUS_BINS, -np.inf)
    np.maximum.at(sups, idx, devs)
    run = np.maximum.accumulate(sups)
    return Modulus(edges, np.where(run == -np.inf, 0.0, run), sups > -np.inf)


def dominance(samples, limit) -> dict:
    """Per-bin check of the empirical modulus of (gap, deviation) samples
    against a closed-form modulus limit, on the populated bins: holds when
    every margin limit(edge) - value is >= -1e-12."""
    mu = empirical_modulus(samples)
    edges, values = mu.edges[mu.populated], mu.values[mu.populated]
    limits = require_array(limit(edges), "modulus limit", finite=True)
    if limits.ndim > 1 or limits.size not in (1, len(edges)):
        raise InvalidInput(f"modulus limit must give one value per edge, got shape {limits.shape}")
    margins = limits - values
    return {"edges": edges, "values": values, "limits": limits, "margins": margins,
            "holds": bool(np.all(margins >= -1e-12))}


def gronwall_bound(c_bar: float, x0_norm: float, t):
    """A-priori bound x0 * exp(c_bar * t) for the joint Jacobi state, at one
    time t or an array of times."""
    c_bar = require_real(c_bar, "c_bar", at_least=0)
    x0_norm = require_real(x0_norm, "x0_norm", at_least=0)
    return x0_norm * np.exp(c_bar * require_array(t, "t", finite=True, at_least=0))


def osgood_gamma(mu_r, c_tilde: float, c_bar: float, t1: float):
    """Modulus transfer Gamma(delta) = c_tilde * t1 * exp(c_bar * t1) * mu_r(delta)."""
    c_tilde = require_real(c_tilde, "c_tilde", at_least=0)
    c_bar = require_real(c_bar, "c_bar", at_least=0)
    t1 = require_real(t1, "t1", above=0)
    scale = c_tilde * t1 * np.exp(c_bar * t1)
    return lambda delta: scale * mu_r(delta)


def injradius_lower_bound(c: float, l: float) -> float:
    """min(pi / c, l / 2) for curvature bound c and shortest-loop length l."""
    c, l = require_real(c, "c", above=0), require_real(l, "l", above=0)
    return float(min(np.pi / c, l / 2.0))


def holder_modulus_check(samples, alpha: float, c_bound: float):
    """Assert the empirical modulus lies below c_bound * delta^alpha per bin.

    Returns (holds, report) with per-bin margins (see dominance).
    """
    alpha = require_real(alpha, "alpha", above=0, at_most=1)
    c_bound = require_real(c_bound, "c_bound", at_least=0)
    rep = dominance(samples, lambda d: c_bound * d ** alpha)
    return rep["holds"], rep


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


@functools.cache
def _bump_weights(radius: int) -> np.ndarray:
    """1-D bump exp(-1 / (1 - s^2)) at s = i / radius, |i| <= radius (zero at
    both ends), normalized to unit mass; built once per radius, read-only."""
    s = np.arange(1 - radius, radius) / radius
    w = np.pad(np.exp(-1.0 / (1.0 - s ** 2)), 1)
    w /= w.sum()
    w.flags.writeable = False
    return w


@functools.cache
def _window_matrix(radius: int, k: int) -> np.ndarray:
    """Banded (_STRIP_ROWS, (_STRIP_ROWS - 1) k + 2 radius + 1) matrix whose
    row r holds _bump_weights(radius) from column r k: one smoothing pass over
    _STRIP_ROWS outputs as one product; built once per (radius, k), read-only."""
    w = _bump_weights(radius)
    mat = np.zeros((_STRIP_ROWS, (_STRIP_ROWS - 1) * k + len(w)))
    for r in range(_STRIP_ROWS):
        mat[r, r * k: r * k + len(w)] = w
    mat.flags.writeable = False
    return mat


def _smooth_field(field, radius, k: int) -> np.ndarray:
    """Valid part of the convolution of a fine-grid field (Nx, Ny, ...) with
    the product of 1-D bumps of radius[i] cells on axis i, at every k-th
    point of each axis. Each pass is one BLAS product per block of
    _STRIP_ROWS outputs, the axis's _window_matrix times every component of
    the block's fine rows (axis 0) or of each first-pass row's fine columns
    (axis 1). Every block but the last on an axis has the same shape, so
    smoothing a grid whole or strip by strip gives the same bits."""
    mats = [_window_matrix(r, k) for r in radius]
    nx, ny = field.shape[:2]
    flat = field.reshape(nx, -1)
    n_out = [(n - 2 * r - 1) // k + 1 for n, r in zip((nx, ny), radius)]
    out = np.empty(n_out + [flat.shape[1] // ny])
    for i0 in range(0, n_out[0], _STRIP_ROWS):
        rows = min(_STRIP_ROWS, n_out[0] - i0)
        width = (rows - 1) * k + 2 * radius[0] + 1
        first = (mats[0][:rows, :width] @ flat[i0 * k: i0 * k + width]).reshape(rows, ny, -1)
        for j0 in range(0, n_out[1], _STRIP_ROWS):
            cols = min(_STRIP_ROWS, n_out[1] - j0)
            w = (cols - 1) * k + 2 * radius[1] + 1
            out[i0: i0 + rows, j0: j0 + cols] = mats[1][:cols, :w] @ first[:, j0 * k: j0 * k + w]
    return out.reshape(out.shape[:2] + field.shape[2:])


def _smooth_strips(sample, outs, axes, radius, k):
    """Fill outs (spline grid rows first) with the smoothing of the fields
    sample(pts) returns, one strip of _STRIP_ROWS rows at a time, at the fine
    points pts (..., 2) its kernel windows cover. A Hessian (..., 2, 2, c) is
    smoothed as returned, so no pass copies it, and keeps entries 11, 12, 22."""
    n = len(outs[0])
    for i0 in range(0, n, _STRIP_ROWS):
        # Spline rows i0:i1 are the kernel windows starting at fine rows
        # i0 * k, ..., (i1 - 1) * k: the same dot products as on the whole grid.
        i1 = min(i0 + _STRIP_ROWS, n)
        rows = axes[0][i0 * k: (i1 - 1) * k + 2 * radius[0] + 1]
        pts = np.empty((len(rows), len(axes[1]), 2))
        pts[..., 0], pts[..., 1] = rows[:, None], axes[1]
        fields = list(sample(pts))
        for out in outs:  # each field is freed once smoothed, before the next strip's call
            field = _smooth_field(fields.pop(0), radius, k)
            out[i0:i1] = field if field.ndim == out.ndim else field[..., [0, 0, 1], [0, 1, 1], :]


def mollify(surface: GraphSurface, eps: float, *, kernel_cells: int = 16) -> GridSurface:
    """Smoothed copy of the surface on the chart box shrunk by eps.

    The gradient and Hessian are sampled on a fine grid of spacing
    eps / kernel_cells, with one surface.derivatives call per strip of
    _smooth_strips. Each component is convolved with a product of 1-D bumps
    of support radius eps, one axis at a time, each pass keeping only the
    outputs on the spline grid, and the two fields are fitted here. The
    height is deferred: the returned GridSurface samples, smooths and fits
    it in the same strips on its first height read, re-normalized to match
    the original at the chart origin when the origin is on the grid, and
    keeps it; the flows and their differentials never read it. Only
    box-domain charts of dim 2 are supported, and an eps that leaves fewer
    than 4 spline-grid samples on an axis is DomainTooSmall.
    """
    require_count(kernel_cells, 1, "kernel_cells")
    eps = require_real(eps, "eps", above=0)
    if surface.dim != 2:
        raise DomainTooSmall("smoothing is implemented for 2-dimensional charts")
    if surface._membership is not None:
        raise DomainTooSmall(f"{surface.name!r} restricts its chart beyond the box; cannot smooth")
    widths = surface.domain_hi - surface.domain_lo
    if 2 * eps >= np.min(widths):
        raise DomainTooSmall(f"eps={eps:g} too large for chart widths {widths}")

    step = eps / kernel_cells
    n_pts = np.ceil(widths / step).astype(int) + 1
    axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(surface.domain_lo, surface.domain_hi, n_pts)]
    radius = [int(np.floor(eps / (ax[1] - ax[0]) + 1e-9)) for ax in axes]
    if min(radius) < 2:
        raise DomainTooSmall("kernel support under-resolved; increase kernel_cells")
    # Subsample to the spline grid: spacing about eps/6 resolves every
    # eps-scale feature while keeping the spline fits cheap.
    k = max(1, int(round(kernel_cells / 6)))
    xa, ya = (ax[r: len(ax) - r: k] for ax, r in zip(axes, radius))
    if min(len(xa), len(ya)) < 4:
        raise DomainTooSmall(f"eps={eps:g} leaves a {len(xa)} x {len(ya)} spline grid; "
                             "a bicubic fit needs 4 samples per axis")
    shape = (len(xa), len(ya))
    grad, hess = (np.empty(shape + (n, surface.codim)) for n in (2, 3))
    _smooth_strips(surface.derivatives, [grad, hess], axes, radius, k)

    def height():
        h = np.empty(shape + (surface.codim,))
        _smooth_strips(lambda pts: [surface.height(pts)], [h], axes, radius, k)
        return h, surface.height(np.zeros(2)) if xa[0] <= 0 <= xa[-1] and ya[0] <= 0 <= ya[-1] else None

    return GridSurface(f"{surface.name}_eps{eps:g}", xa, ya, height, grad, hess,
                       regularity=Regularity("smooth"))


# ---------------------------------------------------------------------------
# approximation sequences and convergence reports
# ---------------------------------------------------------------------------


@dataclass
class SmoothingSequence:
    base: GraphSurface
    scales: list
    smoothed: list
    metric_c1_dist: np.ndarray   # per level: sup|g_l - g| + sup|Dg_l - Dg|
    pi_c0_dist: np.ndarray       # per level: sup |Pi_l - Pi| on basis pairs
    pi_sup: np.ndarray           # per level: sup |Pi_l| (uniform-bound check)
    common_box: tuple            # (lo, hi): the chart box every level shares


def _level_fields(surf, pts):
    """g, dg[k,i,j] = partial_k g_ij and Pi(e_i, e_j) as ambient
    vectors (P, m, m, n), from one derivative evaluation."""
    geo = local_geometry(surf, pts)
    gamma = geo.gamma
    dg = np.einsum("...kia,...ja->...kij", geo.hess, geo.grad)
    dg += np.swapaxes(dg, -1, -2)
    # ambient = (0, hess_ab) - sum_k T_k gamma[k,a,b];  T_k = (e_k, grad[k])
    p_top = -np.moveaxis(gamma, -3, -1)                       # (P, a, b, m)
    p_bot = geo.hess - np.einsum("...kab,...ke->...abe", gamma, geo.grad)
    return geo.g, dg, np.concatenate([p_top, p_bot], axis=-1)


def approximation_sequence(surface: GraphSurface, scales) -> SmoothingSequence:
    """Smoothed family for decreasing scales, with distances to base measured
    on a _PROBE_RES x _PROBE_RES grid of the common box."""
    scales = [require_real(e, "each scale", above=0) for e in require_sequence(scales, "scales", 2)]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise InvalidInput(f"need strictly decreasing scales, got {scales}")
    smoothed = [mollify(surface, e) for e in scales]

    lo = np.max([s.domain_lo for s in smoothed], axis=0)
    hi = np.min([s.domain_hi for s in smoothed], axis=0)
    axes = [np.linspace(a + 1e-9, b - 1e-9, _PROBE_RES) for a, b in zip(lo, hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)

    g_base, dg_base, pi_base = _level_fields(surface, pts)

    m_d, p_d, p_sup = [], [], []
    for s in smoothed:
        g_s, dg_s, pi_s = _level_fields(s, pts)
        m_d.append(float(np.max(np.abs(g_s - g_base))) + float(np.max(np.abs(dg_s - dg_base))))
        p_d.append(float(np.max(np.linalg.norm(pi_s - pi_base, axis=-1))))
        p_sup.append(float(np.max(np.linalg.norm(pi_s, axis=-1))))

    return SmoothingSequence(
        surface, scales, smoothed, np.array(m_d), np.array(p_d), np.array(p_sup), (lo, hi),
    )


@dataclass
class ConvergenceReport:
    """The smooth-converge JSON record, its fields in key order."""

    scales: list
    metric_c1: list
    pi_c0: list
    flow_c0: list                # successive sup |phi_l - phi_{l+1}| over probes
    dflow_c0: list               # successive sup |dphi_l - dphi_{l+1}|
    verdict: str
    pi_sup: list
    pruned_probes: list


def _avg_factor(dists):
    """Geometric mean of the shrinks between successive positive distances;
    with fewer than two, inf if the last distance is 0, else 0 (no shrink)."""
    d = np.asarray(dists, dtype=float)
    pos = d[d > 0]
    if len(pos) < 2:
        return np.inf if d[-1] == 0 else 0.0
    ratios = pos[:-1] / pos[1:]
    return float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-12)))))


def flow_convergence_report(seq: SmoothingSequence, probes) -> ConvergenceReport:
    """Successive sup-distances of the flows and flow differentials over probes.

    probes: list of (t, TangentVector). Probes whose geodesic leaves any
    level's chart are pruned and reported. A distance sequence counts as
    converging when it shrinks by _CONVERGE_FACTOR per level on average
    (_avg_factor): a single positive distance, all that two scales give,
    never does, and an all-zero sequence (a flat surface) always does.
    """
    probes = [require_sequence(p, "each probe (t, v)", 2) for p in require_sequence(probes, "probes", 1)]
    if any(len(p) > 2 for p in probes):
        raise InvalidInput("each probe must be a pair (t, v)")
    m = seq.base.dim
    finals, left = [], np.zeros(len(probes), dtype=bool)
    for s in seq.smoothed:  # all probes as one joint batch per level
        res = propagate_block(s, [v for _, v in probes], basis_block(m), [t for t, _ in probes],
                              None)
        if res.status == STEP_FAILURE:
            require_completed(res, f"flow differentials on {s.name}")
        left |= np.array(res.row_status) == LEFT_CHART
        finals.append(res.final_state)
    if left.all():
        raise OutOfDomain("all probes left the chart on some smoothing level")
    pruned = [int(k) for k in np.flatnonzero(left)]
    finals = np.stack(finals, axis=1)[~left]  # (P, L, [x, y, J, K])
    steps = finals[:, 1:] - finals[:, :-1]
    flow_d = [float(d) for d in np.max(np.linalg.norm(steps[..., : 2 * m], axis=-1), axis=0)]
    dflow_d = [float(d) for d in np.max(np.abs(steps[..., 2 * m:]), axis=(0, 2))]
    flow_fac, dflow_fac = _avg_factor(flow_d), _avg_factor(dflow_d)
    if flow_fac >= _CONVERGE_FACTOR and dflow_fac >= _CONVERGE_FACTOR:
        verdict = "converging"
    elif flow_fac >= _CONVERGE_FACTOR:
        verdict = "lipschitz_only"
    else:
        verdict = "inconclusive"
    return ConvergenceReport(
        scales=seq.scales, metric_c1=seq.metric_c1_dist.tolist(), pi_c0=seq.pi_c0_dist.tolist(),
        flow_c0=flow_d, dflow_c0=dflow_d, verdict=verdict, pi_sup=seq.pi_sup.tolist(),
        pruned_probes=pruned)


# ---------------------------------------------------------------------------
# measured constants along trajectories
# ---------------------------------------------------------------------------


def convergence_probes(seq: SmoothingSequence, n_probes: int, rng):
    """Random (t, v) probes inside the common chart of all smoothing levels,
    unit speed on the coarsest level, t uniform in _PROBE_TIMES."""
    require_count(n_probes, 1, "n_probes")
    probes = []
    for _ in range(n_probes):
        v = random_tangent(seq.smoothed[0], rng, 0.6, box=seq.common_box)
        probes.append((rng.uniform(*_PROBE_TIMES), v))
    return probes


def coefficient_bound_along(surface, traj_states) -> float:
    """sup of the spectral norm of the (J, K) coefficient matrix along phase
    samples (..., 2m)."""
    m = surface.dim
    states = require_array(traj_states, "phase samples", finite=True)
    if states.ndim < 1 or states.shape[-1] != 2 * m or not states.size:
        raise InvalidInput(f"need at least one phase sample of shape (..., {2 * m}), got {states.shape}")
    a = coefficient_matrix(surface, states[..., :m], states[..., m:])
    return float(np.max(np.linalg.norm(a, ord=2, axis=(-2, -1))))


def measure_gronwall_margin(surface, v: TangentVector, j0, t_end):
    """Integrate the joint system and compare sup |(J,K)(t)| with the bound.

    Returns dict with the measured norms, the coefficient bound along the
    trajectory, the certified bound at each sample's time and holds.
    """
    m = surface.dim
    res = require_completed(propagate_block(surface, v, j0, t_end, None), "Jacobi propagation")
    jk = res.states[:, 2 * m:]
    norms = np.linalg.norm(jk, axis=1)
    c_bar = coefficient_bound_along(surface, res.states[:, : 2 * m])
    bounds = gronwall_bound(c_bar, np.linalg.norm(jk[0]), res.times)
    return {
        "c_bar": c_bar,
        "norms": norms,
        "bounds": bounds,
        "times": res.times,
        "holds": bool(np.all(norms <= bounds * (1 + 1e-9) + 1e-12)),
    }


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def lipschitz_flow_report(surface, t_end=0.3, n_pairs=200, seed=0):
    """Difference quotients of the flow map over random nearby tangent pairs.

    All trajectories integrate as one batch, each row under the error
    control of its own run. c_bar, measured along the batch samples, bounds
    the (J, K) system, (J, K) = C (dx, dy) with C from chart_to_covariant,
    while the quotients are taken in chart coordinates, whose differential
    is C(end)^-1 Phi C(start) with |Phi| <= exp(c_bar * t). So the quotient
    bound is max |C(end)^-1| * exp(c_bar * t) * max |C(start)| over the rows.
    """
    require_count(n_pairs, 1, "n_pairs")
    require_count(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    m = surface.dim
    ics = []
    for _ in range(n_pairs):
        base = random_tangent(surface, rng, 0.6).as_state()
        delta = np.exp(rng.uniform(np.log(_LIPSCHITZ_GAPS[0]), np.log(_LIPSCHITZ_GAPS[1])))
        d = rng.normal(size=2 * m)
        d *= delta / np.linalg.norm(d)
        ics.append(base)
        ics.append(base + d)
    ics = np.array(ics)
    res = require_completed(integrate_batch(surface, ics, t_end), f"batch of {len(ics)} geodesics")
    ends = res.final_state
    quotients = (np.linalg.norm(ends[1::2] - ends[0::2], axis=1)
                 / np.linalg.norm(ics[1::2] - ics[0::2], axis=1))

    stride = max(1, len(res.times) // 40)
    c_bar = coefficient_bound_along(surface, res.states[::stride])
    c_start, c_end = ([chart_to_covariant(surface, s[:m], s[m:]) for s in states]
                      for states in (ics, ends))
    chart_factor = (max(np.linalg.norm(2.0 * np.eye(2 * m) - c, 2) for c in c_end)
                    * max(np.linalg.norm(c, 2) for c in c_start))
    bound = float(gronwall_bound(c_bar, chart_factor, t_end))
    return {
        "t_end": t_end,
        "quotients": quotients,
        "max_quotient": float(np.max(quotients)),
        "c_bar": c_bar,
        "bound": bound,
        "bounded": bool(np.max(quotients) <= bound),
    }


def _modulus_probes(surface, t1, n_centers, seed):
    """Trajectories of the joint system from paired base points.

    Each center is a random unit tangent (x0, y); for each gap delta of
    _MODULUS_GAPS the partner starts at x0 + delta * (random unit vector)
    with y rescaled to unit speed there, both with the same Jacobi initial
    value; a partner off the chart is dropped, and fewer than 2 partners left
    is DomainTooSmall. All centers and partners integrate as one batch, and
    every sup is taken over the run's own samples in t, as in
    measure_gronwall_margin.
    Returns per-pair gaps, coefficient deviations (sup over the samples),
    final-state deviations, and the measured constants c_tilde (solution
    sup) and c_bar (coefficient sup).
    """
    require_count(n_centers, 1, "n_centers")
    require_count(seed, 0, "seed")
    t1 = require_real(t1, "t1", above=0)
    rng = np.random.default_rng(seed)
    m = surface.dim
    jk0 = np.array([[0.0, 0.0], [0.8, 0.6]])[..., None]  # generic: engages every block

    vs, pairs = [], []  # pairs: (center row, partner row, gap)
    for _ in range(n_centers):
        v = random_tangent(surface, rng, 0.5)
        center = len(vs)
        vs.append(v)
        for delta in _MODULUS_GAPS:
            d = rng.normal(size=m)
            d *= delta / np.linalg.norm(d)
            x1 = v.x + d
            if not surface.contains(x1):
                continue
            pairs.append((center, len(vs), float(np.linalg.norm(d))))
            vs.append(TangentVector(x1, v.y / float(g_norm_batch(surface, x1, v.y))))
    if len(pairs) < 2:
        raise DomainTooSmall(f"{len(pairs)} of {n_centers * len(_MODULUS_GAPS)} modulus probe "
                             f"partners fit in the chart of {surface.name!r}; need at least 2")

    states = require_completed(propagate_block(surface, vs, jk0, t1, None),
                               f"batch of {len(vs)} modulus probes").states  # (K, B, 2m + 2m)
    a = coefficient_matrix(surface, states[..., :m], states[..., m: 2 * m])
    gaps = np.array([gap for _, _, gap in pairs])
    coeff_dev = np.array([np.max(np.linalg.norm(a[:, c] - a[:, p], ord=2, axis=(-2, -1)))
                          for c, p, _ in pairs])
    state_dev = np.array([np.linalg.norm(states[-1, c, 2 * m:] - states[-1, p, 2 * m:])
                          for c, p, _ in pairs])
    c_tilde = float(np.max(np.linalg.norm(states[..., 2 * m:], axis=-1)))
    c_bar = float(np.max(np.linalg.norm(a, ord=2, axis=(-2, -1))))
    return gaps, coeff_dev, state_dev, c_tilde, c_bar


def osgood_dominance_report(surface, t1=0.3, n_centers=8, seed=0):
    """Empirical modulus of x0 -> (J, K)(t1) against the transfer bound Gamma.

    Gamma is built from the same probe set: inner modulus = binned coefficient
    deviations, constants measured along the probe trajectories.
    """
    gaps, coeff_dev, state_dev, c_tilde, c_bar = _modulus_probes(surface, t1, n_centers, seed)
    gamma = osgood_gamma(empirical_modulus(zip(gaps, coeff_dev)), c_tilde, c_bar, t1)
    return {"t1": t1, "c_tilde": c_tilde, "c_bar": c_bar, "gamma": gamma,
            **dominance(zip(gaps, state_dev), gamma)}


def holder_dominance_report(surface, t1=0.3, n_centers=8, seed=0):
    """Hoelder-form transfer: deviations of (J, K)(t1) against C * delta^alpha, alpha
    the surface's own exponent, with C = c_tilde * t1 * exp(c_bar * t1) * (measured
    Hoelder constant of the coefficients); raises InvalidInput unless it is C2alpha."""
    if surface.regularity.tag != "C2alpha":
        raise InvalidInput(f"need a C2alpha surface, got {surface.name!r} of class {surface.regularity}")
    alpha = surface.regularity.alpha
    gaps, coeff_dev, state_dev, c_tilde, c_bar = _modulus_probes(surface, t1, n_centers, seed)
    c_r = float(np.max(coeff_dev / gaps ** alpha))
    c_bound = c_tilde * t1 * np.exp(c_bar * t1) * c_r
    holds, rep = holder_modulus_check(zip(gaps, state_dev), alpha, c_bound)
    rep.update(
        {"alpha": alpha, "c_r": c_r, "c_bound": c_bound, "c_tilde": c_tilde, "c_bar": c_bar}
    )
    return rep
