"""Self-test: two traced runs with the same seed give identical layer counts.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

Each workload runs twice in fresh traced workers on a fixed number of
requests. Every count metric (integrator steps and RHS evaluations,
derivative calls and points, mesh vertices and edges, mollified grid points
and bytes, bytes written) must agree exactly; timings are not compared.
Exits 0 when all agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import ROOT, WORKLOADS, BenchError, finish, start_worker

# Deterministic layer counts; timings are not compared.
COUNT_METRICS = (
    "catalog.gradient_calls", "catalog.hessian_calls", "catalog.points_per_call",
    "surface.grid_gradient_calls", "surface.grid_hessian_calls",
    "flow.geodesic_flow_calls",
    "integrate.calls", "integrate.steps_accepted", "integrate.steps_rejected",
    "integrate.rhs_evals", "integrate.accept_ratio", "integrate.state_dim_mean",
    "integrate.incomplete",
    "regularity.mollify_grid_points", "regularity.mollify_bytes_computed",
    "regularity.probes_pruned",
    "minimality.vertices", "minimality.edges",
    "cli.bytes_written",
)

# Two rounds of the six catalog surfaces; one smoothing study (about 8 s each).
REQUESTS = {"flow_probes": 12, "smoothing_study": 1, "mesh_minimality": 12}


def traced_counts(workload, seed, run_dir):
    tmp = tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run_dir)
    try:
        result_path = os.path.join(tmp, "result.json")
        proc, _ = start_worker(
            ["--workload", workload, "--seed", str(seed), "--requests",
             str(REQUESTS[workload]), "--trace", "1", "--result", result_path],
            tmp,
        )
        finish(proc)
        with open(result_path) as fh:
            layers = json.load(fh)["layers"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {k: layers[k]["value"] for k in COUNT_METRICS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    run_dir = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)
    mismatches = 0
    for workload in WORKLOADS:
        try:
            first, second = (traced_counts(workload, args.seed, run_dir) for _ in range(2))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        for key in COUNT_METRICS:
            same = first[key] == second[key]
            mismatches += not same
            print(f"{'ok  ' if same else 'DIFF'} {workload} {key}: {first[key]!r} vs {second[key]!r}")
    print(f"{mismatches} mismatching counts")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
