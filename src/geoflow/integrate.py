"""Explicit Runge-Kutta integrators with adaptive step control.

One adaptive step loop runs an embedded pair given as data: Dormand-Prince
8(5,3), DOP853 (Prince & Dormand, J. Comput. Appl. Math. 7, 1981), or
Dormand-Prince 5(4), DP5 (Hairer, Norsett & Wanner, Solving ODEs I, sec.
II.4-II.6); a classical fixed-step RK4 is kept for reproducible convergence
studies. Both integrate autonomous systems u' = f(u). The adaptive loop
takes one state (d,) or a batch of rows (B, d) that share every step; its
error norm is the largest per-row RMS error, so a row keeps the error
control of its own run, and a single state is the batch of one row. The
first step is Hairer's starting step.

A step is shortened only to end on a target, a row's end time or its one
queued crease crossing: it ends at the earliest one within reach and
leaves the step length for after it unchanged. One event locator bisects
crossings on a step's dense output (Shampine & Thompson, "Event location
for ordinary differential equations", Comput. Math. Appl. 39, 2000), for
two kinds of event; DOP853's needs 3 more stages, run only on a step that
locates a crossing. A membership predicate may be supplied; when an
accepted step lands a row outside, that row stops at its located crossing
with status ``LeftChart``. A crease switch may be supplied, a function
whose sign changes where f is not smooth; the embedded error estimate is
unreliable on a step across such a point (Gear & Osterby, ACM TOMS 10,
1984), so a step that changes the sign of any row's switch, whether or not
it passes the error test, is cut: each crossing row's located crossing
becomes its queued target. A crossing located on a failed step is an
estimate: a row counts as past it only once its switch has changed sign.
A step that would have to shrink below the smallest step ends the run with
``StepFailure``. The fixed-step RK4 driver shares the stage routine and statuses.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, OutOfChart, require_array, require_real

COMPLETED = "Completed"
LEFT_CHART = "LeftChart"
STEP_FAILURE = "StepFailure"
_SAFETY = 0.9
_MAX_STEPS = 500_000  # steps, rejected and cut ones too, before a run ends with StepFailure


# An embedded explicit Runge-Kutta pair whose last step stage is the next
# step's first (first same as last). Stage i < len(b) is f at
# u + h (a[i] @ stages[:i]): stage 0 is f(u), the last is f(u_new) with
# u_new = u + h (b @ stages). The stages from len(b) on run only for the
# dense output u + h (stages @ p) @ [theta, .., theta^k]. A step's error
# is |E5|^2 / sqrt(|E5|^2 + 0.01 |E3|^2), E5 and E3 the estimates weighted by
# e5 and e3 (DOP853's combined estimate; DP5's e3 is 0, leaving |E5|), and
# the next step is 0.9 err^(0.75 beta - 1/q) err_old^beta times an accepted
# one, within [0.2, 5], and 0.9 err^(-1/q) times a rejected one, within [0.2, 1].
Tableau = namedtuple("Tableau", "a b e5 e3 p q beta")


# Dormand-Prince 5(4).
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    _DP_B5[:6],
]
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# Continuous extension of order 4 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.6), with stages[6] = f(u_new).
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
DP5 = Tableau(_DP_A, _DP_B5, _DP_ERR, np.zeros(7), _DP_P, 5, 0.04)

# Dormand-Prince 8(5,3), as in Hairer's code DOP853: stages 0-11, f(u_new) as
# stage 12 and the dense output's stages 13-15. b is rounded to multiples
# of 2^-50 and sums to exactly 1, so each of its partial sums is exact: in
# any summation order a unit slope advances the state just as the time, and
# a straight line at unit speed lands exactly on its end point.
_DOP853_B = np.array([
    0.054293734116567904, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145005, -5.801203960010585,
    0.31116436695782035, -0.15216094966251603, 0.20136540080402998, 0.04471061572777302, 0,
])
_DOP853_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    _DOP853_B[:12],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
_DOP853_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0,
])
_DOP853_E3 = _DOP853_B - np.array([31 / 127, 0, 0, 0, 0, 0, 0, 0, 12675 / 17272, 0, 0, 3 / 136, 0])
# Continuous extension of order 7: Hairer's form, a polynomial in theta and
# 1 - theta over the 7 coefficient vectors of DOP853's code, expanded in
# exact arithmetic into one coefficient per stage and power of theta.
_DOP853_P = np.array([
    [1.0, -10.26605707375931, 48.161850968566455, -114.93304874997833, 147.46446875669767,
     -97.06685363011368, 25.69393346270375],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 13.917653631776606, -154.78787266663716, 522.9219089608218, -456.25918840208783,
     -75.53193732135753, 154.18974869023643],
    [0, 2.60560375199361, -21.622822384626506, 2.535182028966755, 292.25417465990404,
     -505.40999933296894, 231.5293791760455],
    [0, -15.018944223519686, 160.09447708973047, -474.3071826037644, 135.96036916173838,
     545.1091945264187, -357.6391179106141],
    [0, 3.050527683318489, -38.54396729189063, 174.47140009219885, -337.0513470238771,
     291.78987509083254, -93.40532418362432],
    [0, -1.3278744327655212, 16.661770430049543, -74.44027814126304, 140.75210016191608,
     -119.2562021040512, 37.45832313645163],
    [0, 2.8445336326728783, -36.558295489910115, 170.69007169147514, -345.9748485480496,
     313.299553623578, -104.0996495089623],
    [0, 0.7657106259527878, -9.906995535619368, 46.8029919188744, -96.5198694669957,
     88.74316650017616, -29.8402934266605],
    [0, -1.0889903364513334, 14.097013042320002, -66.68230591294363, 137.96299063474376,
     -127.82216401767992, 43.53345659001114],
    [0, 18.148505520854727, -127.63310949253875, 357.3419516129657, -500.7031507909224,
     349.17035710882897, -96.32455395918828],
    [0, -9.194632392478356, 93.3567459327894, -282.6272618704363, 361.14007718803333,
     -201.85219053352347, 39.17726167561544],
    [0, -4.436036387594894, 56.68120539776666, -261.77342902691703, 520.9742236688993,
     -461.17279991013964, 149.72683625798564],
])
DOP853 = Tableau([np.array(row) for row in _DOP853_A], _DOP853_B, _DOP853_E5, _DOP853_E3,
                 _DOP853_P, 8, 0.0)

_RK4_A = [np.array([]), np.array([0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0, 1.0])]


@dataclass
class IntegrationResult:
    """Samples of one run over a state (d,) or over a batch of rows (B, d).

    states[k] holds every row's state at times[k], or its end state once
    the row has stopped. row_status gives each row's outcome; status sums
    them up: Completed when every row reached its end time, else
    StepFailure if a step failed, else LeftChart.
    """

    times: np.ndarray          # (K,)
    states: np.ndarray         # (K, d) or (K, B, d)
    row_status: list           # per row: Completed | LeftChart | StepFailure
    n_accepted: int = 0
    n_rejected: int = 0
    n_cuts: int = 0            # steps, failed ones too, retaken to end at a crease crossing
    n_rhs: int = 0             # calls of f

    @property
    def status(self) -> str:
        return next((s for s in (STEP_FAILURE, LEFT_CHART) if s in self.row_status), COMPLETED)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


class _Counted:
    """f, counting its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, u):
        self.calls += 1
        return self.f(u)


def _fill_stages(f, a, u, h, stages, first, stop):
    """Evaluate stages[first:stop] of a step of size h from the rows u in
    place, stage 0 as f(u); True if all are finite, None if f raises
    OutOfChart, else False. The stages (s, n, d) are combined as one (s, n * d)
    matrix: for one row this is the product of a single run, bit for bit. The
    floating-point warnings of stages computed from a non-finite one are silenced."""
    flat = stages.reshape(len(stages), -1)
    try:
        with np.errstate(all="ignore"):
            for i in range(first, stop):
                stages[i] = f(u + h * (a[i] @ flat[:i]).reshape(u.shape) if i else u)
    except OutOfChart:
        return None
    return bool(np.isfinite(flat[first:stop]).all())


def _locate(u, h, stages, same_side, p):
    """Locate, on the dense output p of a step of size h from the rows u
    (n, d), where each row first leaves the side it starts on.

    same_side maps states (n, d) to one bool per row; it holds at u and
    fails at the step's end. Bisects theta to within 2^-52 per row, with no
    right-hand-side evaluations. Returns (lo, hi, u_lo): the last theta on
    the start side, the first one past it, and the state at lo.
    """
    q = h * (stages.transpose(1, 2, 0) @ p)  # (n, d, k)
    lo, hi, u_lo = np.zeros(len(u)), np.ones(len(u)), u
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        u_mid = u + (q @ (mid[:, None] ** np.arange(1, p.shape[1] + 1))[..., None])[..., 0]
        same = same_side(u_mid)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        u_lo = np.where(same[:, None], u_mid, u_lo)
    return lo, hi, u_lo


def _initial_step(f, u0, f0, rtol, atol, q):
    """Hairer's starting step for error order q - 1 (Solving ODEs I, sec.
    II.4), the smallest of the rows' and not capped by their end times: the
    step loop shortens a step to reach one. f is evaluated once, an Euler
    step of the first guess h0 away; a row where that fails keeps h0."""
    scale = atol + rtol * np.abs(u0)
    d0, d1 = (np.sqrt(np.mean((v / scale) ** 2, axis=-1)) for v in (u0, f0))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    with np.errstate(all="ignore"):
        try:
            f1 = f(u0 + h0[:, None] * f0)
        except OutOfChart:
            f1 = np.nan
        d12 = np.maximum(d1, np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=-1)) / h0)
        h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, 1e-3 * h0), (0.01 / d12) ** (1 / q))
        # h1 is NaN or 0 where f1 is not finite
        h = np.where(h1 > 0, np.minimum(100 * h0, h1), h0)
    return float(np.min(h))


def _on_first_row(fn):
    """A function of (d,) states as a function of batches of one row."""
    return lambda x: np.asarray(fn(x[0]))[None]


def end_times(t_end, n_rows=1) -> np.ndarray:
    """t_end as one end time per row; raises InvalidInput unless it is one
    time or one per row, each finite and >= 0."""
    ends = require_array(t_end, "end times", finite=True, at_least=0)
    if ends.ndim > 1 or ends.size not in (1, n_rows):
        raise InvalidInput(f"need one end time or {n_rows}, got {t_end!r}")
    return np.broadcast_to(ends, (n_rows,))


def integrate_adaptive(f, u0, t_end, rtol=1e-10, atol=1e-12, *, inside=None, crease=None,
                       tableau=DOP853):
    """Integrate u' = f(u) from t=0 with adaptive steps of a pair, DOP853 or DP5.

    u0 is one state (d,) or a batch of rows (B, d); f, inside and crease
    take states of the same shape, inside returning one bool and crease one
    switching value per row. The rows share every step, and the error norm
    is the largest per-row RMS error. t_end is one end time or one per row,
    checked by end_times; a row whose end time is 0 is retired before f is
    first evaluated, so t_end = 0 returns the start as the only sample.
    Each row has two kinds of step target, its end time and at most one
    queued crease crossing, and nothing else ends a step early: to read a
    run at chosen times, give each time its own row. A step ends at the
    earliest target within reach, and one that a target shortened leaves
    the step length for after it unchanged. A row stops at its end time,
    or, when an accepted step ends outside, at the crossing located on the
    step's dense output; the others go on, and a row that stops takes its
    queued crossing with it. A step that changes the sign of any row's
    crease switch is cut, not accepted or rejected (n_cuts counts these;
    each counts towards _MAX_STEPS): each crossing row's theta is located
    on its dense output and the time theta * h * (1 + 1e-12) queued as its
    crossing, exact if the step passed the error test and an estimate if it
    failed. A step that reaches a queued crossing is not cut again. Its
    rows count as past exact crossings, and past estimated ones only where
    their switch changed sign, so a row an estimate left short is cut again
    by a later step. A step where f raises OutOfChart or
    returns a non-finite stage, a dense-output one too, is rejected and
    retried at a fifth of its length; a non-finite f at the start fails the run.
    n_rhs counts every call of f.
    """
    u0 = require_array(u0, "initial state")
    rtol, atol = require_real(rtol, "rtol", above=0), require_real(atol, "atol", above=0)
    single = u0.ndim == 1
    if single:  # the batch of one row, with f, inside and crease still seeing (d,) states
        f = _on_first_row(f)
        inside = None if inside is None else _on_first_row(inside)
        crease = None if crease is None else _on_first_row(crease)
    f, tab, n_step = _Counted(f), tableau, len(tableau.b)
    u = current = np.array(u0, ndmin=2)  # current: every row's latest state
    if u.ndim != 2:
        raise InvalidInput(f"need one state or a batch of rows, got shape {u.shape}")
    n_rows, dim = u.shape
    ends = end_times(t_end, n_rows)
    due = ends - 1e-14 * np.maximum(1.0, ends)  # a row is done once t reaches this
    rows = np.flatnonzero(due > 0)              # original index of each running row
    row_status = [COMPLETED] * n_rows
    t, times, states = 0.0, [0.0], [current]    # samples are never written to
    n_acc = n_rej = n_cuts = 0
    h_min = 1e-14 * max(1.0, np.max(ends))

    def result(failed=False):
        for r in rows if failed else ():
            row_status[r] = STEP_FAILURE
        out = np.array(states)
        out = out[:, 0] if single else out
        return IntegrationResult(np.array(times), out, row_status, n_acc, n_rej, n_cuts, f.calls)

    if not len(rows):  # rows done at the start are retired before f is evaluated
        return result()
    u, ends, due = u[rows], ends[rows], due[rows]  # from here on, one entry per running row
    try:
        f_cur = f(u)
    except OutOfChart:
        return result(failed=True)
    if not np.isfinite(f_cur).all():
        return result(failed=True)
    # Each row's crease switch and its queued crossing: the time (inf for
    # none) and whether the step that located it passed the error test.
    side = cross = exact = None
    if crease is not None:
        side, cross, exact = crease(u), np.full(len(rows), np.inf), np.zeros(len(rows), bool)
    h = _initial_step(f, u, f_cur, rtol, atol, tab.q)
    err_old = 1e-4
    next_due = -np.inf

    while True:
        if t >= next_due:  # rows leave here: those done and those that left the chart
            keep = t < due
            rows, u, f_cur, ends, due = rows[keep], u[keep], f_cur[keep], ends[keep], due[keep]
            if side is not None:
                side, cross, exact = side[keep], cross[keep], exact[keep]
            if not len(rows):
                return result()
            next_due, next_end = np.min(due), np.min(ends)
        # A step ends at the earliest target within reach, a row's end time or
        # queued crossing, and one that a target shortened leaves h for after it.
        target = next_end if cross is None else min(next_end, np.min(cross))
        aimed = target <= t + h
        h_step = max(target - t if aimed else h, h_min)
        reached = None if cross is None else cross <= max(target, t + h_step)

        stages = np.empty((len(tab.p),) + u.shape)  # the step's stages, then the dense output's
        stages[0] = f_cur
        err, cut = np.inf, False  # a step whose stages fail is rejected as too large an error
        if _fill_stages(f, tab.a, u, h_step, stages, 1, n_step):
            flat = stages[:n_step].reshape(n_step, -1)
            u_new = u + h_step * (tab.b @ flat).reshape(u.shape)
            scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new))
            n5, n3 = (np.add.reduce((h_step * (e @ flat).reshape(u.shape) / scale) ** 2, axis=-1)
                      for e in (tab.e5, tab.e3))
            n5 = n5 * np.divide(n5, n5 + 0.01 * n3, out=np.zeros_like(n5), where=n5 > 0)
            err = float(np.sqrt(n5 / dim).max())
            side_new = None if side is None else crease(u_new)
            crossed = None if side_new is None or reached.any() else side * side_new < 0
            cut = crossed is not None and crossed.any()
            # Rows located on the dense output: a cut step's crease crossings,
            # else an accepted step's chart exits.
            event = crossed if cut else np.zeros(len(rows), dtype=bool) \
                if inside is None or not err <= 1.0 else ~inside(u_new)
            if event.any() and not _fill_stages(f, tab.a, u, h_step, stages, n_step, len(tab.p)):
                err, cut = np.inf, False

        if cut:
            # Cut: queue every crossing row's crossing, exact if the step
            # passed the error test; h is kept for after them.
            n_cuts += 1
            s0 = side[crossed]
            _, theta, _ = _locate(u[crossed], h_step, stages[:, crossed],
                                  lambda x: s0 * crease(x) > 0, tab.p)
            cross[crossed] = t + np.minimum(theta * (1 + 1e-12), 1.0) * h_step
            exact[crossed] = err <= 1.0
        elif err <= 1.0:
            if reached is not None:  # rows on exact crossings are past them, even a hair short
                side_new = np.where(reached & exact, -side, side_new)
                cross[reached] = np.inf
            n_acc += 1
            left = event
            if left.any():  # rows that land outside stop at their exits, and leave at the top
                theta, _, u_new[left] = _locate(u[left], h_step, stages[:, left], inside, tab.p)
                due[left] = next_due = -np.inf
                for r in rows[left]:
                    row_status[r] = LEFT_CHART
            # the step ends at t + h_step, or at the last exit once every row has left
            t += np.max(theta) * h_step if left.all() else h_step
            u, side, f_cur = u_new, side_new, stages[n_step - 1]  # first same as last: f at u
            if len(rows) < n_rows:
                current = current.copy()
                current[rows] = u
            else:
                current = u
            times.append(t)
            states.append(current)
            if not aimed:
                fac = (_SAFETY * err ** (0.75 * tab.beta - 1 / tab.q) * err_old ** tab.beta
                       if err > 0 else 5.0)
                h *= min(5.0, max(0.2, fac))
                err_old = max(err, 1e-10)
        else:
            n_rej += 1
            h = h_step * min(1.0, max(0.2, _SAFETY * err ** (-1 / tab.q)))
            if not h >= h_min:  # a NaN step length too, as from a non-finite start
                return result(failed=True)

        if n_acc + n_rej + n_cuts > _MAX_STEPS:
            return result(failed=True)


def integrate_fixed_rk4(f, u0, t_end, step, *, inside=None):
    """Classical RK4 from t=0 to t_end, checked by end_times, in equal steps of at
    most step >= t_end / _MAX_STEPS; t_end = 0 returns the start. A run ends at
    its last step inside: StepFailure where a stage or the state is not finite,
    LeftChart where it lands outside or, given inside, f raises OutOfChart."""
    t_end = float(end_times(t_end)[0])
    step = require_real(step, "step", above=0, at_least=t_end / _MAX_STEPS)
    f, u = _Counted(f), require_array(u0, "initial state")
    n = int(np.ceil(t_end / step))
    h = t_end / max(n, 1)
    times, states, status = [0.0], [u], COMPLETED
    k1, k2, k3, k4 = stages = np.empty((4,) + u.shape)  # filled in place by each step
    for _ in range(n):
        ok = _fill_stages(f, _RK4_A, states[-1], h, stages, 0, 4)
        with np.errstate(all="ignore"):  # an overflow shows as a state that is not finite
            u = states[-1] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        status = (STEP_FAILURE if inside is None else LEFT_CHART) if ok is None else \
            STEP_FAILURE if not ok or not np.isfinite(u).all() else \
            LEFT_CHART if inside is not None and not inside(u) else COMPLETED
        if status != COMPLETED:
            break
        times.append(times[-1] + h)
        states.append(u)
    return IntegrationResult(np.array(times), np.array(states), [status], len(times) - 1, 0,
                             n_rhs=f.calls)
