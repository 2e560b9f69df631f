"""Seeded request generators and per-request output checks.

Each workload turns (seed, request index) into the argument list a user
would pass to ``geoflow`` and a check on the command's exit code and stdout.
Requests are addressable by index, so two runs with one seed, and the
traced and untraced runs of one request, see the same arguments.

In-chart guarantee: every start point lies in the disk |x0| <= 0.25 and the
chart velocity has Euclidean norm 1. On a graph surface the chart speed is
bounded by the conserved g-speed, which is at most sqrt(1 + |grad h(x0)|^2)
<= 1.12 on every catalog surface inside that disk (the steepest is vee,
|grad h| = 2 |x1| <= 0.5). A geodesic run for t <= 0.4 therefore stays
within |x| <= 0.25 + 0.45 = 0.70, inside the smallest chart (hemisphere,
|x| <= 0.8), so no request should leave its chart.
"""

from __future__ import annotations

import json
import math

import numpy as np

CATALOG = ("flat", "hemisphere", "trough", "c21_cubic", "c2alpha", "vee")
SMOOTHING = ("c21_cubic", "c2alpha", "vee")
START_RADIUS = 0.25
FD_MATCH = 1e-5  # the CLI's own DEFAULT_TOLERANCES["fd_match"]
# Additive recurrence in [0, 1)^4 (Roberts' R_4 sequence): step g^-(j+1),
# with g the real root of x^5 = x + 1.
_G = 1.1673039782614187
R4_STEP = np.array([_G ** -(j + 1) for j in range(4)])


def _vec(v) -> str:
    return ",".join(format(float(a), ".17g") for a in v)


def _probe(seed, i, t_lo, t_hi):
    """Surface, start point, chart velocity and time of request i.

    Each surface takes successive points of a quasi-random sequence with a
    seeded offset, so a run's inputs fill the input box evenly and its mix
    of easy and hard inputs varies little from seed to seed. The start point
    is uniform in the disk |x0| <= START_RADIUS; the velocity has unit norm.
    """
    k, rnd = i % len(CATALOG), i // len(CATALOG)
    offset = np.random.default_rng([seed, k]).random(4)
    u_r, u_a, u_b, u_t = (offset + rnd * R4_STEP) % 1.0
    r = START_RADIUS * math.sqrt(u_r)
    a, b = 2.0 * math.pi * u_a, 2.0 * math.pi * u_b
    x0 = (r * math.cos(a), r * math.sin(a))
    y0 = (math.cos(b), math.sin(b))
    return CATALOG[k], x0, y0, t_lo + (t_hi - t_lo) * u_t


def _load(out):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON ({exc})"


def _check_flow_probe(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    doc, err = _load(out)
    if err:
        return err
    diff = doc.get("max_abs_diff")
    if not isinstance(diff, (int, float)) or not diff <= FD_MATCH:
        return f"max_abs_diff {diff!r} exceeds {FD_MATCH:g}"
    return None


def _check_smoothing(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    doc, err = _load(out)
    if err:
        return err
    flow_c0 = doc.get("flow_c0") or []
    if len(flow_c0) < 2 or not all(b < a for a, b in zip(flow_c0, flow_c0[1:])):
        return f"flow_c0 not strictly decreasing: {flow_c0!r}"
    if doc.get("verdict") == "inconclusive":
        return "verdict inconclusive"
    return None


def _check_minimality(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    doc, err = _load(out)
    if err:
        return err
    if doc.get("verdict") != "minimal_within_mesh_error":
        return f"verdict {doc.get('verdict')!r}"
    return None


def _flow_probe(seed, i):
    name, x0, y0, t = _probe(seed, i, 0.2, 0.4)
    argv = ["--surface", name, "jacobian", "--x0", _vec(x0), "--y0", _vec(y0),
            "--t", format(t, ".17g"), "--fd-check"]
    return argv, _check_flow_probe


def _smoothing(seed, i):
    run_seed = int(np.random.default_rng([seed, i]).integers(0, 2 ** 31 - 1))
    argv = ["--seed", str(run_seed), "--surface", SMOOTHING[i % len(SMOOTHING)],
            "smooth-converge"]
    return argv, _check_smoothing


def _minimality(seed, i):
    name, x0, y0, t = _probe(seed, i, 0.12, 0.3)
    argv = ["--surface", name, "minimality", "--x0", _vec(x0), "--y0", _vec(y0),
            "--t-end", format(t, ".17g"), "--resolution", "256"]
    return argv, _check_minimality


# name -> (request(seed, index) -> (argv, check(rc, stdout) -> error or None),
#          round length: requests per pass over the surfaces)
WORKLOADS = {
    "flow_probes": (_flow_probe, len(CATALOG)),
    "smoothing_study": (_smoothing, len(SMOOTHING)),
    "mesh_minimality": (_minimality, len(CATALOG)),
}
