"""Benchmark worker: one fresh single-process run of one workload.

The parent (run.py) starts this script with its cwd in a private temporary
directory, because the CLI writes default-named side files there. The
worker imports ``geoflow.cli``, prints ``ready`` so the parent can time
set-up, then drives ``geoflow.cli.main`` in a closed loop with one client
and writes a JSON result file.

With ``--setup-only`` it exits right after ``ready``. With ``--trace 1``
every request runs both untraced and traced, and the result adds per-layer
metrics, the tracing overhead and the span file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--requests", type=int, default=None,
                   help="run exactly this many requests instead of timing --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", help="path of the JSON result file")
    p.add_argument("--spans", help="path of the span file written by a traced run")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GEOFLOW_THREADS")},
    }


def call_cli(main, argv, tracer=None, request_id=None, probe=None):
    """Run one CLI request in-process; returns (exit code, seconds, stdout).

    With a speed probe, the time the probe spends sampling during the
    request is taken off the returned seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    sampling = probe if probe is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        with sampling:
            try:
                rc = main(argv) if tracer is None else tracer.call_request(request_id, main, argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raw exception is a failed request, not a dead run
                rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if probe is not None:
        dt -= probe.inside_s
    return rc, dt, out.getvalue()


def run_loop(main, request, round_len, seed, *, seconds=None, count=None, tracer=None,
             probe=None):
    """Closed loop, one client. Without `count`, the loop runs whole rounds
    (one request per surface), so every run sees the same mix of surfaces.
    It starts another round only if a round as long as the last one would
    end within `seconds`, so a run is at least one round and rarely overruns.

    With a tracer, every request also runs traced, right after or right
    before its untraced run (alternating), so that machine-speed drift
    cancels in the traced/untraced comparison.

    With a speed probe, each untraced request records the reference-kernel
    samples taken during it and right after it (see speedref.py).
    """
    phases = ("untraced", "traced") if tracer else ("untraced",)
    out = {p: {"latencies_s": [], "failures": [], "stdout_bytes": 0} for p in phases}
    if probe is not None:
        # ref_samples[0]: before the first request; [i + 1]: during and after request i
        out["untraced"]["ref_samples"] = [probe.after()]
    start = round_start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % round_len == 0 and i > 0:
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
            round_start = now
        argv, check = request(seed, i)
        for phase in (phases if i % 2 == 0 else phases[::-1]):
            if phase == "traced":
                tracer.install()
                try:
                    rc, dt, stdout = call_cli(main, argv, tracer, i)
                finally:
                    tracer.uninstall()
            else:
                rc, dt, stdout = call_cli(main, argv, probe=probe)
                if probe is not None:
                    out[phase]["ref_samples"].append(probe.after())
            error = check(rc, stdout)
            if error:
                out[phase]["failures"].append({"request": i, "argv": argv, "error": error})
            out[phase]["latencies_s"].append(dt)
            out[phase]["stdout_bytes"] += len(stdout.encode())
        i += 1
    out["untraced"]["elapsed_s"] = time.perf_counter() - start
    return out


def main(argv=None):
    args = parse_args(argv)
    import geoflow.cli

    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import WORKLOADS  # beside this script, so on sys.path

    request, round_len = WORKLOADS[args.workload]
    tracer = probe = None
    if args.trace:
        from layertrace import UNITS, Tracer

        tracer = Tracer()
    else:
        from speedref import SpeedProbe

        probe = SpeedProbe()
    result = run_loop(geoflow.cli.main, request, round_len, args.seed,
                      seconds=args.seconds, count=args.requests, tracer=tracer, probe=probe)
    result["environment"] = environment()

    if tracer is not None:
        traced = result["traced"]
        tracer.counts["cli.bytes_written"] += traced["stdout_bytes"]
        layers = tracer.metrics(len(traced["latencies_s"]))
        layers["trace.request_ms"] = 1e3 * statistics.median(traced["latencies_s"])
        layers["trace_overhead_frac"] = statistics.median(
            [t / u for t, u in zip(traced["latencies_s"], result["untraced"]["latencies_s"])]
        ) - 1.0
        result["layers"] = {k: {"value": layers[k], "unit": u} for k, u in UNITS.items()}
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({
                    "workload": args.workload,
                    "seed": args.seed,
                    "environment": result["environment"],
                    "span_fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": tracer.spans,
                    "layers": result["layers"],
                }, fh)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
