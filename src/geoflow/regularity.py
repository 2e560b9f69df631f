"""Smoothing of low-regularity graphs and quantitative flow-convergence checks.

Height fields are smoothed by convolution with a compactly supported product
of 1-D bump kernels, sampled on a fine grid and applied one axis at a time.
Derivative grids are produced by convolving the surface's own derivative
arrays with the same kernel (the convolution commutes with differentiation
for the classes handled here); the discrete weights are nonnegative,
symmetric and normalized to unit mass, so affine height fields are preserved
exactly and sup bounds of the derivatives can never be inflated by the
smoothing.

The module also provides the quantitative bounds used to certify the flow
behaviour: the exponential a-priori bound on Jacobi states, the explicit
modulus transfer Gamma(delta) = Ct * t1 * exp(Cb * t1) * mu(delta) for the
dependence of solutions of a linear system on a parameter entering its
coefficients, the integral-inequality form of that argument, and empirical
modulus estimation over binned sample pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainTooSmall, InvalidInput, OutOfDomain, QuadratureFailure
from .flow import TangentVector, integrate_batch, random_tangent, require_completed
from .integrate import LEFT_CHART, STEP_FAILURE
from .jacobi import basis_block, propagate_block
from .surface import GraphSurface, GridSurface, Regularity, g_norm_batch, local_geometry

_MODULUS_BINS = 32                      # log-spaced bins of an empirical modulus
_OSGOOD_FLOOR = 1e-12                   # |L| that counts as zero in osgood_integral_check
_PROBE_RES = 41                         # per-axis grid measuring distances to the base
_PROBE_TIMES = (0.15, 0.3)              # flow-time range of the convergence probes
_CONVERGE_FACTOR = 1.5                  # mean shrink per level that counts as converging
_LIPSCHITZ_GAPS = (1e-4, 1e-2)          # log-uniform range of initial-state gaps
_MODULUS_GAPS = np.logspace(-3, -1, 7)  # base-point gaps of the modulus probes

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
        delta = np.asarray(delta, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, delta, side="left"), 0, len(self.values) - 1)
        out = np.where(delta <= 0.0, 0.0, self.values[idx])
        return float(out) if out.ndim == 0 else out


def empirical_modulus(samples) -> Modulus:
    """Per-bin sup of output deviation over (gap, deviation) sample pairs.

    samples: iterable of (input_gap, output_deviation). _MODULUS_BINS bins
    are spaced logarithmically over [1e-6, largest gap]; empty bins inherit
    the running max from the left.
    """
    pairs = np.asarray(list(samples), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) < 2:
        raise InvalidInput("need at least 2 (gap, deviation) samples")
    if not np.all(np.isfinite(pairs) & (pairs >= 0)):
        raise InvalidInput("gaps and deviations must be finite and nonnegative")
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
    limits = limit(edges)
    margins = limits - values
    return {"edges": edges, "values": values, "limits": limits, "margins": margins,
            "holds": bool(np.all(margins >= -1e-12))}


def gronwall_bound(c_bar: float, x0_norm: float, t):
    """A-priori bound x0 * exp(c_bar * t) for the joint Jacobi state, at one
    time t or an array of times."""
    return x0_norm * np.exp(c_bar * t)


def osgood_gamma(mu_r, c_tilde: float, c_bar: float, t1: float):
    """Modulus transfer Gamma(delta) = c_tilde * t1 * exp(c_bar * t1) * mu_r(delta)."""
    if not (np.isfinite([c_tilde, c_bar, t1]).all() and c_tilde >= 0 and c_bar >= 0 and t1 > 0):
        raise InvalidInput(f"need finite c_tilde, c_bar >= 0 and t1 > 0, got {c_tilde, c_bar, t1}")
    scale = c_tilde * t1 * np.exp(c_bar * t1)
    return lambda delta: scale * mu_r(delta)


def osgood_integral_check(times, l_values, a: float, mu):
    """Check the integral inequality int_a^{L(t)} ds/mu(s) <= t - t0 for a
    modulus mu, any callable of delta.

    Returns (holds, margin): margin is the minimum over samples of
    t - t0 - integral. For a = 0 with a divergent integral the check
    asserts L == 0 within _OSGOOD_FLOOR.
    """
    times = np.asarray(times, dtype=float)
    l_values = np.asarray(l_values, dtype=float)
    t0 = times[0]

    def inverse(s):
        return 1.0 / max(mu(s), 1e-300)

    if a == 0.0:
        # Divergence probe: 1/mu is non-integrable at zero iff the partial
        # integrals over [a0, 1] keep growing as a0 shrinks. mu is
        # nondecreasing, so mu(1e-9) = 0 means mu = 0 near 0: divergent
        # without any quadrature.
        divergent = mu(1e-9) <= 0.0
        if not divergent:
            try:
                with warnings.catch_warnings():  # a divergent integral is a result here
                    warnings.simplefilter("ignore", IntegrationWarning)
                    i6, _ = quad(inverse, 1e-6, 1.0, limit=200)
                    i9, _ = quad(inverse, 1e-9, 1.0, limit=200)
            except Exception as exc:  # pragma: no cover - defensive
                raise QuadratureFailure(str(exc)) from exc
            divergent = i9 > 1.2 * i6 + 1e-9 or not np.isfinite(i9)
        if divergent:
            holds = bool(np.all(np.abs(l_values) <= _OSGOOD_FLOOR))
            margin = float(_OSGOOD_FLOOR - np.max(np.abs(l_values)))
            return holds, margin
        a = _OSGOOD_FLOOR  # integrable modulus: fall through with a tiny positive a
    margin = np.inf
    for t, lv in zip(times, l_values):
        if lv <= a:
            continue  # inequality trivially satisfied
        try:
            integral, _ = quad(inverse, a, lv, limit=200)
        except Exception as exc:
            raise QuadratureFailure(str(exc)) from exc
        if not np.isfinite(integral):
            raise QuadratureFailure("integral did not converge")
        margin = min(margin, (t - t0) - integral)
    if margin is np.inf:
        margin = float(times[-1] - t0)
    return bool(margin >= -1e-9), float(margin)


def injradius_lower_bound(c: float, l: float) -> float:
    """min(pi / c, l / 2) for curvature bound c and shortest-loop length l."""
    if not (np.isfinite([c, l]).all() and c > 0 and l > 0):
        raise InvalidInput(f"c and l must be positive and finite, got {c}, {l}")
    return float(min(np.pi / c, l / 2.0))


def holder_modulus_check(samples, alpha: float, c_bound: float):
    """Assert the empirical modulus lies below c_bound * delta^alpha per bin.

    Returns (holds, report) with per-bin margins (see dominance).
    """
    if not (0.0 < alpha <= 1.0 and np.isfinite(c_bound) and c_bound >= 0):
        raise InvalidInput(f"need alpha in (0, 1] and finite c_bound >= 0, got {alpha, c_bound}")
    rep = dominance(samples, lambda d: c_bound * d ** alpha)
    return rep["holds"], rep


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _bump_weights(radius: int) -> np.ndarray:
    """1-D bump exp(-1 / (1 - s^2)) at s = i / radius, |i| <= radius (zero at
    both ends), normalized to unit mass."""
    s = np.arange(1 - radius, radius) / radius
    w = np.pad(np.exp(-1.0 / (1.0 - s ** 2)), 1)
    return w / w.sum()


def _smooth_field(field, radius, k: int) -> np.ndarray:
    """Valid part of the convolution of a fine-grid field (Nx, Ny, ...) with
    the product of 1-D bumps of radius[i] cells on axis i, at every k-th
    point of each axis: one strided 1-D pass per axis and component."""
    wx, wy = (_bump_weights(r) for r in radius)
    comps = np.moveaxis(field.reshape(field.shape[:2] + (-1,)), -1, 0)
    rows = (sliding_window_view(c, len(wx), axis=0)[::k] @ wx for c in comps)
    out = np.stack([sliding_window_view(r, len(wy), axis=1)[:, ::k] @ wy for r in rows], axis=-1)
    return out.reshape(out.shape[:2] + field.shape[2:])


def mollify(surface: GraphSurface, eps: float, *, kernel_cells: int = 16) -> GridSurface:
    """Smoothed copy of the surface on the chart box shrunk by eps.

    The height, gradient and Hessian (entries 11, 12, 22) are sampled on a
    fine grid of spacing eps / kernel_cells, one field at a time. Each
    component is convolved with a product of 1-D bumps of support radius
    eps, one axis at a time, each pass keeping only the outputs on the
    spline grid, so the fine grid holds the points and one field at a time.
    The smoothed height at the chart origin is re-normalized to match the
    original. Only box-domain charts of dim 2 are supported.
    """
    if not (np.isfinite(eps) and eps > 0 and isinstance(kernel_cells, (int, np.integer))
            and kernel_cells >= 1):
        raise InvalidInput(f"need finite eps > 0 and an int kernel_cells >= 1: {eps, kernel_cells}")
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
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    # Subsample to the spline grid: spacing about eps/6 resolves every
    # eps-scale feature while keeping the spline fits cheap.
    k = max(1, int(round(kernel_cells / 6)))
    xa = axes[0][radius[0]: len(axes[0]) - radius[0]: k]
    ya = axes[1][radius[1]: len(axes[1]) - radius[1]: k]
    h = _smooth_field(surface.height(pts), radius, k)
    grad = _smooth_field(surface.gradient(pts), radius, k)
    hess = _smooth_field(surface.hessian(pts)[..., [0, 0, 1], [0, 1, 1], :], radius, k)

    # Re-normalize the height at the chart origin when it is on the grid.
    if (xa[0] <= 0 <= xa[-1]) and (ya[0] <= 0 <= ya[-1]):
        from scipy.interpolate import RectBivariateSpline

        h0 = surface.height(np.zeros(2))
        for a in range(surface.codim):
            spl = RectBivariateSpline(xa, ya, h[..., a], kx=3, ky=3, s=0)
            h[..., a] -= float(spl.ev(0.0, 0.0)) - h0[a]

    return GridSurface(f"{surface.name}_eps{eps:g}", xa, ya, h, grad, hess,
                       regularity=Regularity("smooth"))


# ---------------------------------------------------------------------------
# approximation sequences and convergence reports
# ---------------------------------------------------------------------------


@dataclass
class SmoothingSequence:
    base: GraphSurface
    scales: list
    smoothed: list
    h_c1_dist: np.ndarray        # per level: sup|h_l - h| + sup|grad_l - grad|
    metric_c1_dist: np.ndarray   # per level: sup|g_l - g| + sup|Dg_l - Dg|
    pi_c0_dist: np.ndarray       # per level: sup |Pi_l - Pi| on basis pairs
    pi_sup: np.ndarray           # per level: sup |Pi_l| (uniform-bound check)
    common_box: tuple            # (lo, hi): the chart box every level shares


def _level_fields(surf, pts):
    """grad, g, dg[k,i,j] = partial_k g_ij and Pi(e_i, e_j) as ambient
    vectors (P, m, m, n), from one derivative evaluation."""
    geo = local_geometry(surf, pts)
    dg = np.einsum("...kia,...ja->...kij", geo.hess, geo.grad)
    dg += np.swapaxes(dg, -1, -2)
    # ambient = (0, hess_ab) - sum_k T_k gamma[k,a,b];  T_k = (e_k, grad[k])
    p_top = -np.moveaxis(geo.gamma, -3, -1)                   # (P, a, b, m)
    p_bot = geo.hess - np.einsum("...kab,...ke->...abe", geo.gamma, geo.grad)
    return geo.grad, geo.g, dg, np.concatenate([p_top, p_bot], axis=-1)


def approximation_sequence(surface: GraphSurface, scales) -> SmoothingSequence:
    """Smoothed family for decreasing scales, with distances to base measured
    on a _PROBE_RES x _PROBE_RES grid of the common box."""
    scales = [float(e) for e in scales]
    if not (len(scales) >= 2 and all(np.isfinite(scales)) and scales[-1] > 0) \
            or any(b >= a for a, b in zip(scales, scales[1:])):
        raise InvalidInput(f"need two or more positive, strictly decreasing scales, got {scales}")
    smoothed = [mollify(surface, e) for e in scales]

    lo = np.max([s.domain_lo for s in smoothed], axis=0)
    hi = np.min([s.domain_hi for s in smoothed], axis=0)
    axes = [np.linspace(a + 1e-9, b - 1e-9, _PROBE_RES) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)

    h_base = surface.height(pts)
    grad_base, g_base, dg_base, pi_base = _level_fields(surface, pts)

    h_d, m_d, p_d, p_sup = [], [], [], []
    for s in smoothed:
        grad_s, g_s, dg_s, pi_s = _level_fields(s, pts)
        h_d.append(
            float(np.max(np.abs(s.height(pts) - h_base)))
            + float(np.max(np.abs(grad_s - grad_base)))
        )
        m_d.append(
            float(np.max(np.abs(g_s - g_base))) + float(np.max(np.abs(dg_s - dg_base)))
        )
        p_d.append(float(np.max(np.linalg.norm(pi_s - pi_base, axis=-1))))
        p_sup.append(float(np.max(np.linalg.norm(pi_s, axis=-1))))

    return SmoothingSequence(
        surface, scales, smoothed,
        np.array(h_d), np.array(m_d), np.array(p_d), np.array(p_sup), (lo, hi),
    )


@dataclass
class ConvergenceReport:
    scales: list
    metric_c1: list
    pi_c0: list
    flow_c0: list                # successive sup |phi_l - phi_{l+1}| over probes
    dflow_c0: list               # successive sup |dphi_l - dphi_{l+1}|
    verdict: str
    pruned_probes: list = field(default_factory=list)
    pi_sup: list = field(default_factory=list)

    def as_dict(self):
        return {
            "scales": list(map(float, self.scales)),
            "metric_c1": list(map(float, self.metric_c1)),
            "pi_c0": list(map(float, self.pi_c0)),
            "flow_c0": list(map(float, self.flow_c0)),
            "dflow_c0": list(map(float, self.dflow_c0)),
            "verdict": self.verdict,
            "pi_sup": list(map(float, self.pi_sup)),
            "pruned_probes": self.pruned_probes,
        }


def _avg_factor(dists):
    d = np.asarray(dists, dtype=float)
    d = d[d > 0]
    if len(d) < 2:
        return np.inf
    ratios = d[:-1] / d[1:]
    return float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-12)))))


def flow_convergence_report(seq: SmoothingSequence, probes) -> ConvergenceReport:
    """Successive sup-distances of the flows and flow differentials over probes.

    probes: list of (t, TangentVector). Probes whose geodesic leaves any
    level's chart are pruned and reported. A distance sequence counts as
    converging when it shrinks by _CONVERGE_FACTOR per level on average.
    """
    if not probes:
        raise InvalidInput("need at least one probe")
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
    flow_fac = _avg_factor(flow_d)
    dflow_fac = _avg_factor(dflow_d)
    if flow_fac >= _CONVERGE_FACTOR and dflow_fac >= _CONVERGE_FACTOR:
        verdict = "converging"
    elif flow_fac >= _CONVERGE_FACTOR:
        verdict = "lipschitz_only"
    else:
        verdict = "inconclusive"
    return ConvergenceReport(
        scales=seq.scales,
        metric_c1=list(seq.metric_c1_dist),
        pi_c0=list(seq.pi_c0_dist),
        flow_c0=flow_d,
        dflow_c0=dflow_d,
        verdict=verdict,
        pruned_probes=pruned,
        pi_sup=list(seq.pi_sup),
    )


# ---------------------------------------------------------------------------
# measured constants along trajectories
# ---------------------------------------------------------------------------


def convergence_probes(seq: SmoothingSequence, n_probes: int, rng):
    """Random (t, v) probes inside the common chart of all smoothing levels,
    unit speed on the coarsest level, t uniform in _PROBE_TIMES."""
    probes = []
    for _ in range(n_probes):
        v = random_tangent(seq.smoothed[0], rng, 0.6, box=seq.common_box)
        probes.append((rng.uniform(*_PROBE_TIMES), v))
    return probes


def jacobi_coefficient_matrix(surface, x, y) -> np.ndarray:
    """Coefficient matrix A of the linear (J, K) system at a phase point:
    d/dt (J, K) = A (J, K) with A = [[-G, I], [M, -G]]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = surface.dim
    geo = local_geometry(surface, x, y)
    a = np.zeros(x.shape[:-1] + (2 * m, 2 * m))
    a[..., :m, :m] = -geo.gamma_v
    a[..., :m, m:] = np.eye(m)
    a[..., m:, :m] = geo.curvature
    a[..., m:, m:] = -geo.gamma_v
    return a


def coefficient_bound_along(surface, traj_states) -> float:
    """sup of the spectral norm of the (J, K) coefficient matrix along samples."""
    m = surface.dim
    states = np.asarray(traj_states, dtype=float)
    a = jacobi_coefficient_matrix(surface, states[..., :m], states[..., m:])
    return float(np.max(np.linalg.norm(a, ord=2, axis=(-2, -1))))


def measure_gronwall_margin(surface, v: TangentVector, j0, t_end):
    """Integrate the joint system and compare sup |(J,K)(t)| with the bound.

    Returns dict with the measured norms, the coefficient bound along the
    trajectory, the certified bound at each sample's time and holds.
    """
    res = propagate_block(surface, v, j0.block(surface.dim), t_end, None)
    require_completed(res, "Jacobi propagation")
    m = surface.dim
    states = res.states
    jk = states[:, 2 * m:]
    norms = np.linalg.norm(jk, axis=1)
    c_bar = coefficient_bound_along(surface, states[:, : 2 * m])
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
    control of its own run; the quotient bound exp(c_bar * t) uses the
    coefficient bound measured along the batch samples.
    """
    if n_pairs < 1:
        raise InvalidInput(f"need at least one pair, got n_pairs={n_pairs}")
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
    bound = float(gronwall_bound(c_bar, 1.0, t_end))
    return {
        "t_end": t_end,
        "quotients": quotients,
        "max_quotient": float(np.max(quotients)),
        "c_bar": c_bar,
        "bound": bound,
        "bounded": bool(np.max(quotients) <= bound),
    }


def _modulus_probes(surface, t1, n_centers, deltas, seed):
    """Trajectories of the joint system from paired base points.

    Each center is a random unit tangent (x0, y); for each gap delta the
    partner starts at x0 + delta * (random unit vector) with y rescaled to
    unit speed there, both with the same Jacobi initial value. All centers
    and partners integrate as one batch. Returns per-pair gaps, sup-t
    coefficient deviations, final-state deviations, and the measured
    constants c_tilde (solution sup) and c_bar (coefficient sup).
    """
    if n_centers < 1:
        raise InvalidInput(f"need at least one center, got n_centers={n_centers}")
    rng = np.random.default_rng(seed)
    m = surface.dim
    jk0 = np.array([[0.0, 0.0], [0.8, 0.6]])[..., None]  # generic: engages every block
    t_grid = np.linspace(0.0, t1, 25)

    vs, pairs = [], []  # pairs: (center row, partner row, gap)
    for _ in range(n_centers):
        v = random_tangent(surface, rng, 0.5)
        center = len(vs)
        vs.append(v)
        for delta in deltas:
            d = rng.normal(size=m)
            d *= delta / np.linalg.norm(d)
            x1 = v.x + d
            if not surface.contains(x1):
                continue
            pairs.append((center, len(vs), float(np.linalg.norm(d))))
            vs.append(TangentVector(x1, v.y / float(g_norm_batch(surface, x1, v.y))))

    res = propagate_block(surface, vs, jk0, t1, None, t_grid[1:-1])
    require_completed(res, f"batch of {len(vs)} modulus probes")
    idx = np.clip(np.searchsorted(res.times, t_grid - 1e-12), 0, len(res.times) - 1)
    states = res.states[idx]  # (T, B, 2m + 2m)
    a = jacobi_coefficient_matrix(surface, states[..., :m], states[..., m: 2 * m])
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
    gaps, coeff_dev, state_dev, c_tilde, c_bar = _modulus_probes(
        surface, t1, n_centers, _MODULUS_GAPS, seed
    )
    gamma = osgood_gamma(empirical_modulus(zip(gaps, coeff_dev)), c_tilde, c_bar, t1)
    return {"t1": t1, "c_tilde": c_tilde, "c_bar": c_bar, "gamma": gamma,
            **dominance(zip(gaps, state_dev), gamma)}


def holder_dominance_report(surface, alpha, t1=0.3, n_centers=8, seed=0):
    """Hoelder-form transfer: deviations of (J, K)(t1) against C * delta^alpha
    with C = c_tilde * t1 * exp(c_bar * t1) * (measured Hoelder constant of
    the coefficients)."""
    gaps, coeff_dev, state_dev, c_tilde, c_bar = _modulus_probes(
        surface, t1, n_centers, _MODULUS_GAPS, seed
    )
    c_r = float(np.max(coeff_dev / gaps ** alpha))
    c_bound = c_tilde * t1 * np.exp(c_bar * t1) * c_r
    holds, rep = holder_modulus_check(zip(gaps, state_dev), alpha, c_bound)
    rep.update(
        {"alpha": alpha, "c_r": c_r, "c_bound": c_bound, "c_tilde": c_tilde, "c_bar": c_bar}
    )
    return rep
