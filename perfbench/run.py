"""geoflow benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow_probes --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in a
fresh single-process worker (worker.py) whose cwd is a private temporary
directory under ``.perfbench_run/``. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics and
writes the spans to ``.perfbench_run/``. Every metric is printed by name
with its unit, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speedref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("flow_probes", "smoothing_study", "mesh_minimality")
SETUP_SAMPLES = 5          # fresh workers timed to `ready`; the median is setup_s
WORKER_TIMEOUT_S = 150.0
TAIL_MIN_SAMPLES = 100     # p90 needs at least 10 samples beyond it
# One thread per worker: the requests are single-threaded, and extra BLAS or
# FFT threads only add contention on a small shared machine.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GEOFLOW_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, cwd):
    """Start a worker and wait for its `ready` line; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=cwd, env=worker_env(),
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def finish(proc):
    """Wait for a worker to end, killing it after the timeout."""
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")


def run_workload(name, seed, seconds, trace, run_dir):
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=run_dir)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(["--setup-only"], tmp)
                finish(proc)
                setups.append(setup)
        result_path = os.path.join(tmp, "result.json")
        spans_path = os.path.join(run_dir, f"spans-{name}-seed{seed}.json")
        proc, setup = start_worker(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--result", result_path, "--spans", spans_path],
            tmp,
        )
        setups.append(setup)
        finish(proc)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_samples_s"] = setups
    return result


def summarize(name, result, trace):
    """Print the workload's metrics by name and return (metrics, attempted, failed)."""
    phases = [result["untraced"]] + ([result["traced"]] if trace else [])
    attempted = sum(len(p["latencies_s"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    plain = result["untraced"]
    lat = sorted(plain["latencies_s"])
    n = len(lat)
    if not trace:
        # Request i is bracketed by the samples after request i - 1 and the
        # samples during and right after request i (speedref.py).
        ref = plain["ref_samples"]
        slow = [speedref.slowness(ref[i] + ref[i + 1]) for i in range(n)]
        ref_lat = [t / s for t, s in zip(plain["latencies_s"], slow)]
    env = result["environment"]
    print(f"[{name}] environment: {json.dumps(env, sort_keys=True)}")
    print(f"[{name}] closed loop, 1 client, 1 process: {n} timed requests "
          f"in {plain['elapsed_s']:.3f} s")
    for f in failures[:5]:
        print(f"[{name}] FAILED request {f['request']}: {f['error']} :: {' '.join(f['argv'])}")
    print(f"[{name}] failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} attempted)")
    if trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_samples_s"]), "unit": "s"},
            "ref_throughput_rps": {"value": n / sum(ref_lat), "unit": "1/s"},
            "ref_latency_p50_ms": {"value": 1e3 * statistics.median(ref_lat), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"[{name}] machine slowness (1 = nominal): median {statistics.median(slow):.4g}, "
              f"range {min(slow):.4g}-{max(slow):.4g} over {n} requests")
        print(f"[{name}] throughput_rps = {n / sum(lat):.6g} 1/s (wall clock; informational, not gated)")
        print(f"[{name}] latency_p50_ms = {1e3 * statistics.median(lat):.6g} ms "
              f"(n={n}; wall clock; informational, not gated)")
        if n >= TAIL_MIN_SAMPLES:
            p90 = 1e3 * statistics.quantiles(lat, n=10)[-1]
            print(f"[{name}] latency_p90_ms = {p90:.6g} ms (n={n}; informational, not gated)")
        else:
            print(f"[{name}] latency_p90_ms not reported: n={n} < {TAIL_MIN_SAMPLES}, "
                  "fewer than 10 samples beyond it")
    samples = f" (median of {len(result['setup_samples_s'])} fresh workers)"
    for key, m in metrics.items():
        note = samples if key == "setup_s" else f" (n={n})" if key == "ref_latency_p50_ms" else ""
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}{note}")
    return metrics, attempted, len(failures)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "geoflow", "cli.py")):
        print(f"error: no geoflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, run_dir)
        except (BenchError, OSError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        m, a, f = summarize(name, result, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
