"""Explicit Runge-Kutta integrators with adaptive step control.

Dormand-Prince 5(4) embedded pair with a PI step-size controller, plus a
classical fixed-step RK4 kept for reproducible convergence studies. Both
integrate autonomous systems u' = f(u). The DP5 stepper takes one state
(d,) or a batch of rows (B, d) that share every step; its error norm is the
largest per-row RMS error (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4), so a row keeps the error control of its own run, and a single
state is the batch of one row. Each row may have its own end time.

One event locator bisects crossings on an accepted step's dense output
(Shampine & Thompson, "Event location for ordinary differential
equations", Comput. Math. Appl. 39, 2000), for two kinds of event. A
membership predicate may be supplied; when an accepted step lands a row
outside, that row stops at its located crossing with status ``LeftChart``.
A crease switch may be supplied, a function whose sign changes where f is
not smooth; the embedded error estimate is unreliable on a step across
such a point (Gear & Osterby, ACM TOMS 10, 1984), so an accepted step that
changes the sign of any row's switch is cut and retaken to end just past
the first located crossing, with the later ones queued as step targets.
A step that would have to shrink below the smallest step ends the run with
``StepFailure``. The fixed-step driver stops at its last step inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, OutOfChart

COMPLETED = "Completed"
LEFT_CHART = "LeftChart"
STEP_FAILURE = "StepFailure"

# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# Continuous extension of order 4 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.6): u(t + theta h) = u + h (_DP_P @ [theta, .., theta^4]) @ stages,
# with stages[6] = f(u_new).
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY = 0.9


@dataclass
class IntegrationResult:
    """Samples of one run over a state (d,) or over a batch of rows (B, d).

    states[k] holds every row's state at times[k], or its end state once
    the row has stopped. row_status gives each row's outcome; status sums
    them up: Completed when every row reached its end time, else
    StepFailure if the step controller gave up, else LeftChart.
    """

    times: np.ndarray          # (K,)
    states: np.ndarray         # (K, d) or (K, B, d)
    row_status: list           # per row: Completed | LeftChart | StepFailure
    n_accepted: int = 0
    n_rejected: int = 0
    n_cuts: int = 0            # accepted steps retaken to end at a crease crossing

    @property
    def status(self) -> str:
        return next((s for s in (STEP_FAILURE, LEFT_CHART) if s in self.row_status), COMPLETED)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _locate(u, h, stages, same_side):
    """Locate, on the dense output of an accepted step of size h from the
    rows u (n, d), where each row first leaves the side it starts on.

    same_side maps states (n, d) to one bool per row; it holds at u and
    fails at the step's end. Bisects theta to within 2^-52 per row, with no
    right-hand-side evaluations. Returns (lo, hi, u_lo): the last theta on
    the start side, the first one past it, and the state at lo.
    """
    q = h * (stages.transpose(1, 2, 0) @ _DP_P)  # (n, d, 4)
    lo, hi, u_lo = np.zeros(len(u)), np.ones(len(u)), u
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        u_mid = u + (q @ (mid[:, None] ** np.arange(1, 5))[..., None])[..., 0]
        same = same_side(u_mid)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        u_lo = np.where(same[:, None], u_mid, u_lo)
    return lo, hi, u_lo


def _initial_step(f0, u0, rtol, atol, ends):
    """The smallest of the rows' starting-step guesses."""
    scale = atol + rtol * np.abs(u0)
    d0 = np.sqrt(np.mean((u0 / scale) ** 2, axis=-1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=-1))
    h = np.where(d1 > 1e-12, 0.01 * d0 / np.maximum(d1, 1e-12), 1e-4 * ends)
    return float(np.min(np.minimum(h, 0.1 * ends)))


def _on_first_row(fn):
    """A function of (d,) states as a function of batches of one row."""
    return lambda x: np.asarray(fn(x[0]))[None]


def end_times(t_end, n_rows=1) -> np.ndarray:
    """t_end as one end time per row; raises InvalidInput unless each is
    finite and >= 0."""
    ends = np.broadcast_to(np.asarray(t_end, dtype=float), (n_rows,))
    if not np.all(np.isfinite(ends) & (ends >= 0)):
        raise InvalidInput(f"end times must be finite and >= 0, got {t_end}")
    return ends


def integrate_adaptive(f, u0, t_end, rtol=1e-10, atol=1e-12, *, inside=None, crease=None,
                       checkpoints=None, max_steps=500_000):
    """Integrate u' = f(u) from t=0 with adaptive DP5(4) steps.

    u0 is one state (d,) or a batch of rows (B, d); f, inside and crease
    take states of the same shape, inside returning one bool and crease one
    switching value per row. The rows share every step, and the error norm
    is the largest per-row RMS error. t_end is one end time or one per row,
    checked by end_times; a row whose end time is 0 is retired before f is
    first evaluated, so t_end = 0 returns the start as the only sample.
    A row stops at its end time, or, when an accepted step ends outside, at
    the crossing located on the step's dense output; the others go on.
    An accepted step that changes the sign of any row's crease switch is
    cut (n_cuts counts these; each counts towards max_steps): every
    crossing row's theta is located on its dense output and the time
    theta * h * (1 + 1e-12) queued as a step target. A step that ends on a
    target is not cut again, and its rows count as past their crossings;
    after the last target, stepping resumes with the step length from
    before the cut. A step where f raises OutOfChart or returns a
    non-finite stage is rejected and retried at a quarter of its length; a
    non-finite f at the start fails the run. checkpoints: optional
    increasing times the stepper must land on exactly (sample times end up
    in the returned arrays).
    """
    single = np.ndim(u0) == 1
    if single:  # the batch of one row, with f, inside and crease still seeing (d,) states
        f = _on_first_row(f)
        inside = None if inside is None else _on_first_row(inside)
        crease = None if crease is None else _on_first_row(crease)
    u = current = np.array(u0, dtype=float, ndmin=2)  # current: every row's latest state
    n_rows, dim = u.shape
    ends = end_times(t_end, n_rows)
    due = ends - 1e-14 * np.maximum(1.0, ends)  # a row is done once t reaches this
    rows = np.flatnonzero(due > 0)              # original index of each running row
    row_status = [COMPLETED] * n_rows
    t, times, states = 0.0, [0.0], [current]    # samples are never written to
    n_acc = n_rej = n_cuts = 0
    h_min = 1e-14 * max(1.0, np.max(ends))
    cps = np.asarray([] if checkpoints is None else checkpoints, dtype=float)
    cps = np.unique(cps[(cps > 1e-15) & (cps < np.max(ends) - 1e-15)])
    cp_idx = 0
    crossings = []  # (time, row) of located crease crossings still ahead, ascending

    def result(failed=False):
        for r in rows if failed else ():
            row_status[r] = STEP_FAILURE
        out = np.array(states)
        out = out[:, 0] if single else out
        return IntegrationResult(np.array(times), out, row_status, n_acc, n_rej, n_cuts)

    if not len(rows):  # rows done at the start are retired before f is evaluated
        return result()
    u = u[rows]
    try:
        f_cur = f(u)
    except OutOfChart:
        return result(failed=True)
    if not np.isfinite(f_cur).all():
        return result(failed=True)
    side = None if crease is None else crease(u)  # each running row's crease switch
    h = _initial_step(f_cur, u, rtol, atol, ends[rows])
    err_old = 1e-4
    next_due = -np.inf

    while True:
        if t >= next_due:  # retire the rows that are done
            keep = t < due[rows]
            rows, u, f_cur = rows[keep], u[keep], f_cur[keep]
            side = None if side is None else side[keep]
            if not len(rows):
                return result()
            next_due, next_end = np.min(due[rows]), np.min(ends[rows])
        target = next_end if cp_idx == len(cps) else min(next_end, cps[cp_idx])
        h = max(min(h, target - t), h_min)
        # A step that the locator set ends at its crossing and is not cut again.
        located = bool(crossings) and crossings[0][0] <= t + h
        h_step = max(crossings[0][0] - t, h_min) if located else h

        # Stages (7, rows, d), combined as one (7, rows * d) matrix: for one
        # row this is the product of a single run, bit for bit. The stages
        # are tested once, after the last: a non-finite one rejects the step
        # as an OutOfChart from f does, and the floating-point warnings of
        # the stages computed from it are silenced.
        stages = np.empty((7,) + u.shape)
        stages[0] = f_cur
        flat = stages.reshape(7, -1)
        try:
            with np.errstate(all="ignore"):
                for i in range(1, 7):
                    stages[i] = f(u + h_step * (_DP_A[i] @ flat[:i]).reshape(u.shape))
            finite = np.isfinite(flat[1:]).all()
        except OutOfChart:
            finite = False
        if not finite:
            n_rej += 1
            h = 0.25 * h_step
            if h < h_min:
                return result(failed=True)
            continue

        u_new = u + h_step * (_DP_B5 @ flat).reshape(u.shape)
        err_vec = h_step * (_DP_ERR @ flat).reshape(u.shape)
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new))
        err = float(np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=-1) / dim).max())

        side_new = None if side is None or err > 1.0 else crease(u_new)
        crossed = None if side_new is None or located else side * side_new < 0
        if crossed is not None and crossed.any():
            # Cut: queue every row's crossing as a step target; h is kept for after them.
            n_cuts += 1
            s0, cut_rows = side[crossed], rows[crossed]
            _, theta, _ = _locate(u[crossed], h_step, stages[:, crossed],
                                  lambda x: s0 * crease(x) > 0)
            ahead = t + np.minimum(theta * (1 + 1e-12), 1.0) * h_step
            crossings = sorted([(c, r) for c, r in crossings if r not in cut_rows]
                               + list(zip(ahead, cut_rows)))
        elif err <= 1.0:
            if located:  # its rows count as past their crossings, even a hair short of one
                reached = crossings[0][0]
                side_new = np.where(np.isin(rows, [r for c, r in crossings if c <= reached]),
                                    -side, side_new)
            n_acc += 1
            left = np.zeros(len(rows), dtype=bool) if inside is None else ~inside(u_new)
            if left.any():
                theta, _, current_left = _locate(u[left], h_step, stages[:, left], inside)
                current = current.copy()
                current[rows[left]] = current_left
                for r in rows[left]:
                    row_status[r] = LEFT_CHART
                if left.all():  # the run ends at the last exit
                    times.append(t + np.max(theta) * h_step)
                    states.append(current)
                    return result()
                rows, u_new, stages = rows[~left], u_new[~left], stages[:, ~left]
                side_new = None if side is None else side_new[~left]
                next_due = -np.inf
            t, u, side = t + h_step, u_new, side_new
            f_cur = stages[6]  # FSAL: last stage is f at the new point
            if len(rows) < n_rows:
                current = current.copy()
                current[rows] = u
            else:
                current = u
            times.append(t)
            states.append(current)
            if cp_idx < len(cps) and t >= cps[cp_idx] - 1e-13:
                cp_idx += 1
            if located:
                crossings = [(c, r) for c, r in crossings if c > max(reached, t)]
            else:
                fac = _SAFETY * err ** -0.17 * err_old ** 0.04 if err > 0 else 5.0
                h *= min(5.0, max(0.2, fac))
                err_old = max(err, 1e-10)
        else:
            n_rej += 1
            h = h_step * min(1.0, max(0.2, _SAFETY * err ** -0.2))
            if h < h_min:
                return result(failed=True)

        if n_acc + n_rej + n_cuts > max_steps:
            return result(failed=True)


def integrate_fixed_rk4(f, u0, t_end, step, *, inside=None):
    """Fixed-step RK4 from t=0 to t_end, checked by end_times, in steps of
    at most step; t_end = 0 returns the start as the only sample. A step
    that fails or lands outside ends the run with status LeftChart at the
    last step inside."""
    t_end = float(end_times(t_end)[0])
    u = np.asarray(u0, dtype=float).copy()
    n = int(np.ceil(t_end / step))
    h = t_end / max(n, 1)
    t, times, states = 0.0, [0.0], [u.copy()]
    for i in range(n):
        try:
            k1 = f(u)
            k2 = f(u + 0.5 * h * k1)
            k3 = f(u + 0.5 * h * k2)
            k4 = f(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except (OutOfChart, FloatingPointError):
            u = None
        if u is None or not np.all(np.isfinite(u)) or (inside is not None and not inside(u)):
            return IntegrationResult(np.array(times), np.array(states), [LEFT_CHART], i, 0)
        t += h
        times.append(t)
        states.append(u)
    return IntegrationResult(np.array(times), np.array(states), [COMPLETED], n, 0)
