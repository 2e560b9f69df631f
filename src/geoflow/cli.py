"""Command-line front end: surface catalog, experiments, machine-readable output.

Commands
--------
surface list | surface info <name>
geodesic        integrate one geodesic, write trajectory CSV + summary JSON
jacobian        flow differential at (t, v), optionally with the FD oracle
smooth-converge mollified-family convergence report
minimality      shortest-path margin report for one geodesic
report          run verification suites, aggregate JSON, exit 0 iff all pass

Exit codes: 0 success, 1 failed verdict, 2 bad configuration or input, 3 out of domain.
All randomness derives from the seed recorded in the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import regularity as reg
from . import serialize
from .catalog import CATALOG, make_surface, surface_from_spec
from .errors import ConfigError, GeoflowError, InvalidInput, OutOfChart, UnknownSurface
from .flow import (
    TangentVector,
    flow_property_residual,
    geodesic_flow,
    integrate_geodesic,
    random_tangent,
    require_completed,
    speed_profile,
)
from .jacobi import JacobiState, fd_flow_differential, flow_differential, propagate_jacobi
from .minimality import build_mesh_oracle, minimality_report, short_geodesic
from .surface import curvature_from_christoffel, curvature_operator, g_norm_batch

SCHEMA = 1


@dataclass
class RunConfig:
    surface: dict = field(default_factory=lambda: {"type": "catalog", "name": "flat"})
    tolerances: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        tols = d.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError(f"tolerances must be an object, got {tols!r}")
        for key, value in tols.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance key {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not np.isfinite(value):
                raise ConfigError(f"tolerance {key!r} must be a finite number, got {value!r}")
        return RunConfig(**d)

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as fh:
            return RunConfig.from_dict(json.load(fh))


DEFAULT_TOLERANCES = {
    "conservation": 1e-8,
    "composition": 1e-7,
    "fd_match": 1e-5,
    "gauss_rel": 1e-5,
    "sphere_jacobi": 1e-7,
    "margin": 0.0,
}


def _resolve_surface(spec: dict):
    try:
        return surface_from_spec(spec)
    except KeyError as exc:
        raise ConfigError(f"surface spec missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed surface spec: {exc}") from exc


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_surface(args, cfg: RunConfig) -> int:
    if args.action == "list":
        for name, entry in CATALOG.items():
            print(f"{name:12s} {str(make_surface(name).regularity):12s} {entry.description}")
        return 0
    name = args.name
    surf = _resolve_surface({"type": "catalog", "name": name, "alpha": args.alpha})
    entry = CATALOG[name]
    info = {
        "schema": SCHEMA,
        "name": name,
        "regularity": str(surf.regularity),
        "domain": [[float(a), float(b)] for a, b in zip(surf.domain_lo, surf.domain_hi)],
        **asdict(surf.bounds),
        "oracles": {k: v for k, v in entry.oracles.items()},
        "description": entry.description,
    }
    print(serialize.dumps(info))
    return 0


def cmd_geodesic(args, cfg: RunConfig) -> int:
    surface = _resolve_surface(cfg.surface)
    x0 = _parse_vec(args.x0)
    y0 = _parse_vec(args.y0)
    traj = integrate_geodesic(surface, TangentVector(x0, y0), args.t_end, args.tol)
    speeds = speed_profile(surface, traj)
    drift = float(np.max(np.abs(speeds - traj.speed))) / max(traj.speed, 1e-300)
    summary = {
        "schema": SCHEMA,
        "surface": surface.name,
        "seed": cfg.seed,
        "t_requested": float(args.t_end),
        "t_reached": traj.final_time,
        "exit_reason": traj.status,
        "final_x": traj.final.x,
        "final_y": traj.final.y,
        "speed": traj.speed,
        "speed_drift": drift,
    }
    csv_path = args.out or cfg.output.get("trajectory_csv", "geodesic.csv")
    serialize.write_trajectory_csv(csv_path, surface, traj)
    json_path = cfg.output.get("summary_json", "geodesic.json")
    print(serialize.write_json(json_path, summary))
    return 0


def cmd_jacobian(args, cfg: RunConfig) -> int:
    surface = _resolve_surface(cfg.surface)
    x0 = _parse_vec(args.x0)
    y0 = _parse_vec(args.y0)
    v = TangentVector(x0, y0)
    fd = flow_differential(surface, args.t, v, args.tol)
    out = {
        "schema": SCHEMA,
        "t": float(args.t),
        "v": {"x": x0, "y": y0},
        "matrix": fd.matrix,
    }
    if args.fd_check:
        num = fd_flow_differential(surface, args.t, v)
        out["fd_matrix"] = num
        out["max_abs_diff"] = float(np.max(np.abs(num - fd.matrix)))
    path = args.out or cfg.output.get("jacobian_json", "jacobian.json")
    print(serialize.write_json(path, out))
    return 0


def cmd_smooth_converge(args, cfg: RunConfig) -> int:
    surface = _resolve_surface(cfg.surface)
    if surface.regularity.at_least("C3"):
        print(
            f"warning: {surface.name!r} is {surface.regularity}; the smoothing "
            "study targets surfaces of class C2 and below",
            file=sys.stderr,
        )
    scales = _parse_vec(args.scales)
    seq = reg.approximation_sequence(surface, scales)
    probes = reg.convergence_probes(seq, args.probes, np.random.default_rng(cfg.seed))
    report = reg.flow_convergence_report(seq, probes)
    out = {"schema": SCHEMA, "surface": surface.name, "seed": cfg.seed}
    out.update(report.as_dict())
    path = args.out or cfg.output.get("convergence_json", "convergence.json")
    text = serialize.write_json(path, out)
    csv_path = cfg.output.get("convergence_csv", "delta-vs-level.csv")
    rows = [
        [i, scales[i], seq.metric_c1_dist[i], seq.pi_c0_dist[i],
         report.flow_c0[i] if i < len(report.flow_c0) else np.nan,
         report.dflow_c0[i] if i < len(report.dflow_c0) else np.nan]
        for i in range(len(scales))
    ]
    serialize.write_csv(csv_path, ["level", "scale", "metric_c1", "pi_c0", "flow_c0", "dflow_c0"], rows)
    print(text)
    return 0


def cmd_minimality(args, cfg: RunConfig) -> int:
    surface = _resolve_surface(cfg.surface)
    x0 = _parse_vec(args.x0)
    y0 = _parse_vec(args.y0)
    traj = integrate_geodesic(surface, TangentVector(x0, y0), args.t_end)
    require_completed(traj, "geodesic")
    rep = minimality_report(surface, traj, build_mesh_oracle(surface, args.resolution))
    out = {"schema": SCHEMA, "surface": surface.name, "resolution": args.resolution}
    out.update(rep)
    path = args.out or cfg.output.get("minimality_json", "minimality.json")
    print(serialize.write_json(path, out))
    return 0


# ---------------------------------------------------------------------------
# verification suites for `report`
# ---------------------------------------------------------------------------


def _check(name, value, limit, passed=None):
    """One report check; passed defaults to value <= limit."""
    if passed is None:
        passed = value <= limit
    return {"name": name, "value": float(value), "limit": limit, "passed": bool(passed)}


def _suite_surface(tols, seed):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("hemisphere", "trough"):
        surf = make_surface(name)
        worst = 0.0
        scale = max(surf.bounds.hess_sup ** 2, 1e-8)
        for _ in range(20):
            v = random_tangent(surf, rng, 0.5)
            j = rng.normal(size=2)
            a = curvature_operator(surf, v.x, v.y) @ j
            b = curvature_from_christoffel(surf, v.x, v.y, j)
            rel = np.max(np.abs(a - b)) / max(np.max(np.abs(b)), scale)
            worst = max(worst, float(rel))
        checks.append(_check(f"gauss_consistency_{name}", worst, tols["gauss_rel"]))
    return checks


def _suite_flow(tols, seed):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("flat", "hemisphere", "trough", "c21_cubic", "c2alpha"):
        surf = make_surface(name)
        v = random_tangent(surf, rng, 0.5)
        traj = integrate_geodesic(surf, v, 0.4)
        drift = float(
            np.max(np.abs(speed_profile(surf, traj) - traj.speed)) / traj.speed
        )
        checks.append(_check(f"speed_conservation_{name}", drift, tols["conservation"]))
        res = flow_property_residual(surf, 0.15, 0.2, v)
        checks.append(_check(f"composition_{name}", res, tols["composition"]))
    return checks


def _suite_jacobi(tols, seed):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("flat", "hemisphere", "trough"):
        surf = make_surface(name)
        worst = 0.0
        for _ in range(5):
            v = random_tangent(surf, rng, 0.5)
            t = rng.uniform(0.2, 0.4)
            a = flow_differential(surf, t, v, tol=1e-11).matrix
            b = fd_flow_differential(surf, t, v)
            worst = max(worst, float(np.max(np.abs(a - b))))
        checks.append(_check(f"fd_oracle_{name}", worst, tols["fd_match"]))
    hemi = make_surface("hemisphere")
    v = TangentVector([0.0, 0.0], [1.0, 0.0])
    worst = 0.0
    for t in (0.1, 0.3, 0.5):
        js = propagate_jacobi(hemi, v, JacobiState([0, 0], [0, 1.0]), t, tol=1e-11)
        worst = max(worst, abs(float(g_norm_batch(hemi, geodesic_flow(hemi, t, v).x, js.J)) - np.sin(t)))
    checks.append(_check("sphere_jacobi_sin", worst, tols["sphere_jacobi"]))
    return checks


def _suite_minimality(tols, seed):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("flat", "hemisphere", "vee"):
        surf = make_surface(name)
        oracle = build_mesh_oracle(surf, 64)
        worst = np.inf
        for _ in range(3):
            traj = short_geodesic(surf, rng, 0.3)
            rep = minimality_report(surf, traj, oracle)
            worst = min(worst, rep["margin"])
        checks.append(_check(f"margin_{name}", worst, tols["margin"], worst >= tols["margin"]))
    return checks


def _suite_regularity(tols, seed):
    rng = np.random.default_rng(seed)
    checks = []
    hemi = make_surface("hemisphere")
    ok = True
    for _ in range(10):
        v = random_tangent(hemi, rng, 0.5)
        j0 = JacobiState(rng.normal(size=2), rng.normal(size=2))
        rep = reg.measure_gronwall_margin(hemi, v, j0, 0.4)
        ok = ok and rep["holds"]
    checks.append(_check("gronwall_dominance_hemisphere", ok, 1.0, ok))
    gamma = reg.osgood_gamma(lambda d: d, 1.0, 1.0, 1.0)
    checks.append(_check("gamma_formula", abs(gamma(0.1) - 0.1 * np.e), 1e-12))
    err = abs(reg.injradius_lower_bound(1.0, 2 * np.pi) - np.pi)
    checks.append(_check("injradius_formula", err, 1e-12))
    return checks


SUITES = {
    "surface": _suite_surface,
    "flow": _suite_flow,
    "jacobi": _suite_jacobi,
    "minimality": _suite_minimality,
    "regularity": _suite_regularity,
}


def cmd_report(args, cfg: RunConfig) -> int:
    names = args.suites.split(",") if args.suites else list(cfg.suites)
    names = [n for n in names if n]
    if not names:
        print("error: empty suite selection", file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"error: unknown suites {unknown}", file=sys.stderr)
        return 2
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(cfg.tolerances)
    results = {}
    for name in names:
        checks = SUITES[name](tols, cfg.seed)
        results[name] = {
            "passed": bool(all(c["passed"] for c in checks)),
            "checks": checks,
        }
    all_passed = all(r["passed"] for r in results.values())
    out = {
        "schema": SCHEMA,
        "seed": cfg.seed,
        "tolerances": tols,
        "suites": results,
        "all_passed": all_passed,
    }
    path = args.out or cfg.output.get("report_json", "report.json")
    print(serialize.write_json(path, out))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geoflow", description=__doc__)
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--surface", default=None, help="catalog surface name")
    p.add_argument("--alpha", type=float, default=None, help="exponent for c2alpha")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("surface", help="catalog listing and details")
    ps.add_argument("action", choices=["list", "info"])
    ps.add_argument("name", nargs="?", default=None)

    pg = sub.add_parser("geodesic", help="integrate one geodesic")
    pg.add_argument("--x0", required=True)
    pg.add_argument("--y0", required=True)
    pg.add_argument("--t-end", type=float, required=True, dest="t_end")
    pg.add_argument("--tol", type=float, default=None)
    pg.add_argument("--out", default=None, help="trajectory CSV path")

    pj = sub.add_parser("jacobian", help="flow differential at (t, v)")
    pj.add_argument("--x0", required=True)
    pj.add_argument("--y0", required=True)
    pj.add_argument("--t", type=float, required=True)
    pj.add_argument("--tol", type=float, default=None)
    pj.add_argument("--fd-check", action="store_true", dest="fd_check")
    pj.add_argument("--out", default=None)

    pc = sub.add_parser("smooth-converge", help="smoothing-family convergence study")
    pc.add_argument("--scales", default="0.1,0.05,0.025,0.0125")
    pc.add_argument("--probes", type=int, default=20)
    pc.add_argument("--out", default=None)

    pm = sub.add_parser("minimality", help="shortest-path margin for one geodesic")
    pm.add_argument("--x0", required=True)
    pm.add_argument("--y0", required=True)
    pm.add_argument("--t-end", type=float, required=True, dest="t_end")
    pm.add_argument("--resolution", type=int, default=128)
    pm.add_argument("--out", default=None)

    pr = sub.add_parser("report", help="run verification suites")
    pr.add_argument("--suites", default=None, help="comma list: " + ",".join(SUITES))
    pr.add_argument("--out", default=None)
    return p


_VALUE_FLAGS = {"--x0", "--y0", "--scales"}


def _join_value_flags(argv):
    """Rewrite ["--x0", "-0.1,0"] as ["--x0=-0.1,0"] so argparse does not
    mistake negative-leading vectors for option names."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.surface is not None:
            cfg.surface = {"type": "catalog", "name": args.surface}
            if args.alpha is not None:
                cfg.surface["alpha"] = args.alpha
        handler = {
            "surface": cmd_surface,
            "geodesic": cmd_geodesic,
            "jacobian": cmd_jacobian,
            "smooth-converge": cmd_smooth_converge,
            "minimality": cmd_minimality,
            "report": cmd_report,
        }[args.command]
        return handler(args, cfg)
    except (ConfigError, UnknownSurface, OutOfChart, InvalidInput, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
