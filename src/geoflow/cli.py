"""Command-line front end: surface catalog, experiments, machine-readable output.

Commands
--------
surface list | surface info NAME
geodesic        integrate one geodesic, write trajectory CSV + summary JSON
jacobian        flow differential at (t, v), optionally with the FD oracle
smooth-converge mollified-family convergence report
minimality      shortest-path margin report for one geodesic
report          run the acceptance criteria (geoflow.criteria), JSON, exit 0 iff all pass

Exit codes: 0 success, 1 failed verdict, 2 bad configuration or input, 3 out of domain.
All randomness derives from the seed recorded in the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import regularity as reg
from . import serialize
from .catalog import CATALOG, make_surface, surface_from_spec
from .criteria import CRITERIA, SUITES
from .errors import ConfigError, GeoflowError, InvalidInput, OutOfChart, UnknownSurface, require_count
from .flow import TangentVector, integrate_geodesic, require_completed
from .jacobi import fd_flow_differential, flow_differential
from .minimality import build_mesh_oracle, minimality_report

SCHEMA = 1


@dataclass
class RunConfig:
    surface: dict = field(default_factory=lambda: {"type": "catalog", "name": "flat"})
    output: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.surface, dict):
            raise ConfigError(f"surface must be an object, got {self.surface!r}")
        if not (isinstance(self.output, dict) and all(isinstance(p, str) for p in self.output.values())):
            raise ConfigError(f"output must be an object of path strings, got {self.output!r}")
        if not (isinstance(self.suites, list) and all(isinstance(n, str) for n in self.suites)):
            raise ConfigError(f"suites must be a list of suite names, got {self.suites!r}")
        if unknown := [key for key in self.output if key not in OUTPUTS]:
            raise ConfigError(f"unknown output key {unknown[0]!r}")
        try:  # the count rule, as a configuration error
            require_count(self.seed, 0, "seed")
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {d!r}")
        unknown = set(d) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**d)

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as fh:
            return RunConfig.from_dict(json.load(fh))


# each output key of a config file and the path written when neither the
# file nor --out gives one
OUTPUTS = {
    "trajectory_csv": "geodesic.csv",
    "summary_json": "geodesic.json",
    "jacobian_json": "jacobian.json",
    "convergence_json": "convergence.json",
    "convergence_csv": "delta-vs-level.csv",
    "minimality_json": "minimality.json",
    "report_json": "report.json",
}


def _out_path(given, cfg, key):
    """given, else cfg.output[key], else its default in OUTPUTS; checked before any work."""
    path = given or cfg.output.get(key, OUTPUTS[key])
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        open(path, "w")  # fails, creating nothing, as the write would
    return path


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}") from exc


def _tangent(args) -> TangentVector:
    return TangentVector(_parse_vec(args.x0), _parse_vec(args.y0))


def _with_flags(spec: dict, args) -> dict:
    """spec, or the catalog surface --surface names, with --alpha set."""
    if args.surface is not None:
        spec = {"type": "catalog", "name": args.surface}
    return spec if args.alpha is None else {**spec, "alpha": args.alpha}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_surface_list(args, cfg: RunConfig) -> int:
    for name, entry in CATALOG.items():
        print(f"{name:12s} {str(make_surface(name).regularity):12s} {entry.description}")
    return 0


def cmd_surface_info(args, cfg: RunConfig) -> int:
    name = args.name
    surf = surface_from_spec(_with_flags({"type": "catalog", "name": name}, args))
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
    surface = surface_from_spec(cfg.surface)
    csv_path = _out_path(args.out, cfg, "trajectory_csv")
    json_path = _out_path(None, cfg, "summary_json")
    traj = integrate_geodesic(surface, _tangent(args), args.t_end, args.tol)
    speeds = serialize.write_trajectory_csv(csv_path, surface, traj)
    drift = float(np.max(np.abs(speeds - traj.speed))) / max(traj.speed, 1e-300)
    summary = {
        "schema": SCHEMA,
        "surface": surface.name,
        "t_requested": float(args.t_end),
        "t_reached": traj.final_time,
        "exit_reason": traj.status,
        "final_x": traj.final.x,
        "final_y": traj.final.y,
        "speed": traj.speed,
        "speed_drift": drift,
    }
    print(serialize.write_json(json_path, summary))
    return 0


def cmd_jacobian(args, cfg: RunConfig) -> int:
    surface = surface_from_spec(cfg.surface)
    path = _out_path(args.out, cfg, "jacobian_json")
    v = _tangent(args)
    fd = flow_differential(surface, args.t, v, args.tol)
    out = {
        "schema": SCHEMA,
        "t": float(args.t),
        "v": {"x": v.x, "y": v.y},
        "matrix": fd.matrix,
    }
    if args.fd_check:
        num = fd_flow_differential(surface, args.t, v)
        out["fd_matrix"] = num
        out["max_abs_diff"] = float(np.max(np.abs(num - fd.matrix)))
    print(serialize.write_json(path, out))
    return 0


def cmd_smooth_converge(args, cfg: RunConfig) -> int:
    surface = surface_from_spec(cfg.surface)
    path = _out_path(args.out, cfg, "convergence_json")
    csv_path = _out_path(None, cfg, "convergence_csv")
    if surface.regularity.c3:
        print(
            f"warning: {surface.name!r} is {surface.regularity}; the smoothing "
            "study targets surfaces of class C2 and below",
            file=sys.stderr,
        )
    seq = reg.approximation_sequence(surface, _parse_vec(args.scales))
    probes = reg.convergence_probes(seq, args.probes, np.random.default_rng(cfg.seed))
    report = reg.flow_convergence_report(seq, probes)
    out = {"schema": SCHEMA, "surface": surface.name, "seed": cfg.seed}
    out.update(asdict(report))
    text = serialize.write_json(path, out)
    columns = [range(len(report.scales)), report.scales, report.metric_c1, report.pi_c0,
               report.flow_c0 + [np.nan], report.dflow_c0 + [np.nan]]  # no step past the last level
    serialize.write_csv(csv_path, ["level", "scale", "metric_c1", "pi_c0", "flow_c0", "dflow_c0"],
                        np.column_stack(columns))
    print(text)
    return 0


def cmd_minimality(args, cfg: RunConfig) -> int:
    surface = surface_from_spec(cfg.surface)
    path = _out_path(args.out, cfg, "minimality_json")
    traj = integrate_geodesic(surface, _tangent(args), args.t_end)
    require_completed(traj, "geodesic")
    rep = minimality_report(traj, build_mesh_oracle(surface, args.resolution))
    out = {"schema": SCHEMA, "surface": surface.name, "resolution": args.resolution}
    out.update(rep)
    print(serialize.write_json(path, out))
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    if args.suites is None:
        names = cfg.suites or SUITES
    elif not (names := [n for n in args.suites.split(",") if n]):
        raise ConfigError("empty suite selection")
    if unknown := [n for n in names if n not in SUITES]:
        raise ConfigError(f"unknown suites {unknown}")
    path = _out_path(args.out, cfg, "report_json")
    checks = [row.run(cfg.seed) for row in CRITERIA if row.suite in names]
    all_passed = all(c["passed"] for c in checks)
    out = {"schema": SCHEMA, "seed": cfg.seed, "checks": checks, "all_passed": all_passed}
    print(serialize.write_json(path, out))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geoflow", description=__doc__)
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--surface", default=None, help="catalog surface name")
    p.add_argument("--alpha", type=float, default=None, help="exponent for c2alpha")
    sub = p.add_subparsers(dest="command", required=True)
    tangent = argparse.ArgumentParser(add_help=False)  # the start (x0, y0) of one geodesic
    tangent.add_argument("--x0", required=True)
    tangent.add_argument("--y0", required=True)

    # each set_defaults names, in reads, the global flags its command reads
    ps = sub.add_parser("surface", help="catalog listing and details")
    surface_sub = ps.add_subparsers(dest="action", required=True)
    surface_sub.add_parser("list").set_defaults(run=cmd_surface_list, reads=())
    psi = surface_sub.add_parser("info")
    psi.set_defaults(run=cmd_surface_info, reads=("alpha",))
    psi.add_argument("name")

    pg = sub.add_parser("geodesic", parents=[tangent], help="integrate one geodesic")
    pg.set_defaults(run=cmd_geodesic, reads=("surface", "alpha"))
    pg.add_argument("--t-end", type=float, required=True, dest="t_end")
    pg.add_argument("--tol", type=float, default=None)
    pg.add_argument("--out", default=None, help="trajectory CSV path")

    pj = sub.add_parser("jacobian", parents=[tangent], help="flow differential at (t, v)")
    pj.set_defaults(run=cmd_jacobian, reads=("surface", "alpha"))
    pj.add_argument("--t", type=float, required=True)
    pj.add_argument("--tol", type=float, default=None)
    pj.add_argument("--fd-check", action="store_true", dest="fd_check")
    pj.add_argument("--out", default=None)

    pc = sub.add_parser("smooth-converge", help="smoothing-family convergence study")
    pc.set_defaults(run=cmd_smooth_converge, reads=("seed", "surface", "alpha"))
    pc.add_argument("--scales", default="0.1,0.05,0.025,0.0125")
    pc.add_argument("--probes", type=int, default=20)
    pc.add_argument("--out", default=None)

    pm = sub.add_parser("minimality", parents=[tangent], help="shortest-path margin for one geodesic")
    pm.set_defaults(run=cmd_minimality, reads=("surface", "alpha"))
    pm.add_argument("--t-end", type=float, required=True, dest="t_end")
    pm.add_argument("--resolution", type=int, default=128)
    pm.add_argument("--out", default=None)

    pr = sub.add_parser("report", help="run the acceptance criteria")
    pr.set_defaults(run=cmd_report, reads=("seed",))
    pr.add_argument("--suites", default=None, help="comma list of " + ",".join(SUITES) + " (default: all)")
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_value_flags(list(argv)))
    try:
        if unread := [flag for flag in ("seed", "surface", "alpha")
                      if getattr(args, flag) is not None and flag not in args.reads]:
            raise ConfigError(f"--{unread[0]} is not read by this command")
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        cfg.surface = _with_flags(cfg.surface, args)
        return args.run(args, cfg)
    except (ConfigError, UnknownSurface, OutOfChart, InvalidInput, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
