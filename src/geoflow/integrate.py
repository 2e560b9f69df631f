"""Explicit Runge-Kutta integrators with adaptive step control.

Dormand-Prince 5(4) embedded pair with a PI step-size controller, plus a
classical fixed-step RK4 kept for reproducible convergence studies. Both
integrate autonomous systems u' = f(u). A membership predicate may be
supplied; when an accepted DP5 step lands outside, the crossing is located
by bisection on the step's dense output and the run stops there with status
``LeftChart``. The fixed-step driver stops at its last step inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfChart

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
    times: np.ndarray          # (K,)
    states: np.ndarray         # (K, d)
    status: str                # Completed | LeftChart | StepFailure
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def rk4_step(f, u, h):
    k1 = f(u)
    k2 = f(u + 0.5 * h * k1)
    k3 = f(u + 0.5 * h * k2)
    k4 = f(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _bisect_exit(u, h, stages, inside):
    """Locate the boundary crossing within an accepted step of size h from
    u (inside) whose end point is outside, on the step's dense output.

    Makes no right-hand-side evaluations. Returns (tau, state) with state
    the last trial point still inside.
    """
    q = h * (stages.T @ _DP_P)
    lo, hi, u_lo = 0.0, 1.0, u
    for _ in range(52):  # theta to within 2^-52
        mid = 0.5 * (lo + hi)
        u_mid = u + q @ (mid ** np.arange(1, 5))
        if inside(u_mid):
            lo, u_lo = mid, u_mid
        else:
            hi = mid
    return lo * h, u_lo


def _initial_step(f0, u0, rtol, atol, t_end, max_step):
    scale = atol + rtol * np.abs(u0)
    d0 = np.sqrt(np.mean((u0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-12 else 1e-4 * t_end
    return float(min(h, 0.1 * t_end, max_step))


def integrate_adaptive(
    f,
    u0,
    t_end,
    rtol=1e-10,
    atol=1e-12,
    *,
    max_step=np.inf,
    inside=None,
    checkpoints=None,
    max_steps=500_000,
):
    """Integrate u' = f(u) from t=0 to t_end with adaptive DP5(4) steps.

    checkpoints: optional increasing times the stepper must land on exactly
    (sample times end up in the returned arrays). inside: predicate on the
    full state; a violation after an accepted step triggers exit bisection.
    """
    u = np.asarray(u0, dtype=float).copy()
    t = 0.0
    times = [0.0]
    states = [u.copy()]
    n_acc = n_rej = 0

    cps = np.asarray([] if checkpoints is None else checkpoints, dtype=float)
    cps = np.unique(cps[(cps > 1e-15) & (cps < t_end - 1e-15)])
    cp_idx = 0

    def eval_rhs(x):
        k = f(x)
        if not np.all(np.isfinite(k)):
            raise OutOfChart("non-finite right-hand side")
        return k

    def result(status):
        return IntegrationResult(np.array(times), np.array(states), status, n_acc, n_rej)

    try:
        f_cur = eval_rhs(u)
    except OutOfChart:
        return result(STEP_FAILURE)

    h = _initial_step(f_cur, u, rtol, atol, t_end, max_step)
    h_min = 1e-14 * max(1.0, t_end)
    err_old = 1e-4
    stages = np.empty((7, u.size))

    while t < t_end - 1e-14 * max(1.0, t_end):
        target = t_end
        if cp_idx < len(cps):
            target = min(target, cps[cp_idx])
        h = max(min(h, max_step, target - t), h_min)

        stages[0] = f_cur
        try:
            for i in range(1, 7):
                stages[i] = eval_rhs(u + h * (_DP_A[i] @ stages[:i]))
        except OutOfChart:
            n_rej += 1
            h *= 0.25
            if h < h_min:
                return result(STEP_FAILURE)
            continue

        u_new = u + h * (_DP_B5 @ stages)
        err_vec = h * (_DP_ERR @ stages)
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0 or h <= h_min * 1.0001:
            n_acc += 1
            if inside is not None and not inside(u_new):
                tau, u_exit = _bisect_exit(u, h, stages, inside)
                times.append(t + tau)
                states.append(u_exit)
                return result(LEFT_CHART)
            t, u = t + h, u_new
            f_cur = stages[6].copy()  # FSAL: last stage is f at the new point
            times.append(t)
            states.append(u.copy())
            if cp_idx < len(cps) and t >= cps[cp_idx] - 1e-13:
                cp_idx += 1
            fac = _SAFETY * err ** -0.17 * err_old ** 0.04 if err > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
            err_old = max(err, 1e-10)
        else:
            n_rej += 1
            h *= min(1.0, max(0.2, _SAFETY * err ** -0.2))
            if h < h_min:
                return result(STEP_FAILURE)

        if n_acc + n_rej > max_steps:
            return result(STEP_FAILURE)

    return result(COMPLETED)


def integrate_fixed_rk4(f, u0, t_end, step, *, inside=None):
    """Fixed-step RK4. A step that fails or lands outside ends the run with
    status LeftChart at the last step inside."""
    u = np.asarray(u0, dtype=float).copy()
    n = max(1, int(np.ceil(t_end / step)))
    h = t_end / n
    t = 0.0
    times = [0.0]
    states = [u.copy()]
    for i in range(n):
        try:
            u = rk4_step(f, u, h)
        except (OutOfChart, FloatingPointError):
            u = None
        if u is None or not np.all(np.isfinite(u)) or (inside is not None and not inside(u)):
            return IntegrationResult(np.array(times), np.array(states), LEFT_CHART, i, 0)
        t += h
        times.append(t)
        states.append(u)
    return IntegrationResult(np.array(times), np.array(states), COMPLETED, n, 0)
