"""The benchmark's per-layer tracer (perfbench/layertrace.py) still runs on
the library: one traced request each of the flow_probes, mesh_minimality
and smoothing_study workloads (perfbench/workloads.py) must exit 0, pass
the workload's own output check and yield the per-layer metrics. The
tracer wraps library functions by name and reads library attributes
(christoffel_batch, curvature_matrix_batch, mollify's kernel_cells
default, a convergence report's pruned_probes, the mesh oracle's vertices
and graph), so a change that removes one fails here rather than in a
`perfbench/run.py --trace 1` run.
"""

from pathlib import Path

from geoflow.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_requests_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layertrace import UNITS, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    workloads = ["flow_probes", "mesh_minimality", "smoothing_study"]
    for i, workload in enumerate(workloads):
        argv, check = WORKLOADS[workload][0](1, 0)
        capsys.readouterr()
        tracer.install()
        try:
            rc = tracer.call_request(i, main, argv)
        finally:
            tracer.uninstall()
        assert rc == 0, workload
        assert check(rc, capsys.readouterr().out) is None, workload
    metrics = tracer.metrics(len(workloads))
    assert set(metrics) == set(UNITS) - {"trace.request_ms", "trace_overhead_frac"}
    assert metrics["integrate.calls"] > 0 and metrics["minimality.vertices"] > 0
    assert metrics["regularity.mollify_grid_points"] > 0
