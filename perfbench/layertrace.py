"""Per-layer tracing of geoflow from outside the package.

``Tracer.install()`` replaces the public functions of each geoflow module
with timing wrappers, in every geoflow module that imported them by name,
and ``uninstall()`` puts the originals back. Coarse calls (library entry
points, integrators, serialization) become spans: name, start, end, parent
span and request id, kept in memory and written out when the run ends.
Fine-grained calls (right-hand-side evaluations, surface derivative
callables) are only counted and timed, because a span each would cost more
than the call.

The layers are the package modules; a span's layer is the part of its name
before the first dot (serialization counts as ``cli``).
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import random
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import geoflow.catalog
import geoflow.flow
import geoflow.integrate
import geoflow.jacobi
import geoflow.minimality
import geoflow.regularity
import geoflow.serialize
from geoflow.surface import GridSurface, christoffel_batch, curvature_matrix_batch

# Spans whose integrator calls own the right-hand-side evaluations beneath
# them; the innermost one decides which per-eval cost an evaluation feeds.
RHS_OWNERS = {
    "flow.integrate_geodesic": "flow",
    "jacobi.flow_differential": "jacobi",
    "jacobi.fd_flow_differential": "jacobi_fd",
}
SAMPLES_PER_SURFACE = 256
MAX_GRID_SURFACES = 4  # replayed grid surfaces kept alive (each holds ~20 MB of splines)
REPLAY_POINTS_P1 = 64

COUNT = "count"
# Unit of every per-layer metric, in report order.
UNITS = {
    "catalog.gradient_calls": COUNT, "catalog.hessian_calls": COUNT,
    "catalog.points_per_call": "points", "catalog.deriv_busy_ms": "ms",
    "surface.grid_gradient_calls": COUNT, "surface.grid_hessian_calls": COUNT,
    "surface.grid_deriv_busy_ms": "ms",
    "surface.christoffel_us.P1": "us", "surface.christoffel_us.P256": "us",
    "surface.curvature_matrix_us.P1": "us", "surface.curvature_matrix_us.P256": "us",
    "surface.grid_deriv_us.P1": "us", "surface.grid_deriv_us.P256": "us",
    "flow.integrate_geodesic_ms": "ms", "flow.geodesic_flow_calls": COUNT,
    "flow.geodesic_flow_ms": "ms", "flow.rhs_us_per_eval": "us",
    "jacobi.flow_differential_ms": "ms", "jacobi.fd_flow_differential_ms": "ms",
    "jacobi.rhs_us_per_eval": "us", "jacobi.fd_rhs_us_per_eval": "us",
    "integrate.calls": COUNT, "integrate.steps_accepted": COUNT,
    "integrate.steps_rejected": COUNT, "integrate.rhs_evals": COUNT,
    "integrate.accept_ratio": "frac", "integrate.self_ms": "ms",
    "integrate.state_dim_mean": COUNT, "integrate.incomplete": COUNT,
    "regularity.mollify_ms": "ms", "regularity.mollify_grid_points": "points",
    "regularity.mollify_bytes_computed": "bytes",
    "regularity.approximation_sequence_ms": "ms",
    "regularity.flow_convergence_report_ms": "ms", "regularity.probes_pruned": COUNT,
    "minimality.build_mesh_oracle_ms": "ms", "minimality.vertices": COUNT,
    "minimality.edges": COUNT, "minimality.report_ms": "ms",
    "cli.request_overhead_ms": "ms", "cli.serialize_ms": "ms", "cli.bytes_written": "bytes",
    "trace.request_ms": "ms", "trace_overhead_frac": "frac",
}


class Tracer:
    """Spans and counters of one traced run; install() before each traced
    request and uninstall() after it."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, request id]
        self.child_s = []      # per span: time spent in right-hand sides directly beneath it
        self.span_surface = {}  # open RHS-owning span index -> its surface argument
        self.stack = []
        self.request = None
        self.counts = defaultdict(float)
        self.samples = {}      # surface name -> [surface, sampled (x, y) rows, rows seen]
        self._rng = random.Random(0)
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.child_s.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call_request(self, request_id, fn, *args):
        """Run one request as the root span ``cli.request``."""
        self.request = request_id
        idx = self._open("cli.request")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.request = None

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if name in RHS_OWNERS and args:
                self.span_surface[idx] = args[0]
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.span_surface.pop(idx, None)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- fine-grained counters ---------------------------------------------

    def _timed_derivative(self, fn, key):
        counts = self.counts
        k_s, k_calls, k_points = key + ".s", key + ".calls", key + ".points"

        @functools.wraps(fn)
        def wrapper(X):
            t0 = time.perf_counter()
            try:
                return fn(X)
            finally:
                counts[k_s] += time.perf_counter() - t0
                counts[k_calls] += 1
                counts[k_points] += math.prod(np.shape(X)[:-1])

        return wrapper

    def _hook_surface(self, surface):
        layer = "surface.grid" if isinstance(surface, GridSurface) else "catalog"
        for attr in ("gradient", "hessian"):
            setattr(surface, attr, self._timed_derivative(getattr(surface, attr), f"{layer}.{attr}"))

    def _owner(self):
        for idx in reversed(self.stack):
            bucket = RHS_OWNERS.get(self.spans[idx][0])
            if bucket is not None:
                return bucket, self.span_surface.get(idx)
        return "other", None

    def _timed_rhs(self, f, bucket, surface):
        counts, child_s, stack = self.counts, self.child_s, self.stack
        k_s, k_evals = bucket + ".rhs_s", bucket + ".rhs_evals"
        sample = surface if bucket in ("flow", "jacobi") and self._keep(surface) else None

        def rhs(u):
            t0 = time.perf_counter()
            try:
                return f(u)
            finally:
                dt = time.perf_counter() - t0
                child_s[stack[-1]] += dt
                counts[k_s] += dt
                counts[k_evals] += 1
                counts["integrate.rhs_evals"] += 1
                if sample is not None:
                    self._sample(sample, u)

        return rhs

    def _keep(self, surface):
        if surface is None:
            return False
        if surface.name in self.samples or not isinstance(surface, GridSurface):
            return True
        kept = sum(isinstance(s[0], GridSurface) for s in self.samples.values())
        return kept < MAX_GRID_SURFACES

    def _sample(self, surface, u):
        """Reservoir sample of visited (x, y) states, per surface name."""
        entry = self.samples.get(surface.name)
        if entry is None:
            entry = self.samples[surface.name] = [surface, [], 0]
        entry[0] = surface
        entry[2] += 1
        rows = entry[1]
        if len(rows) < SAMPLES_PER_SURFACE:
            rows.append(np.array(u[: 2 * surface.dim], dtype=float))
        else:
            j = self._rng.randrange(entry[2])
            if j < SAMPLES_PER_SURFACE:
                rows[j] = np.array(u[: 2 * surface.dim], dtype=float)

    def _integrator(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, u0, *args, **kwargs):
            bucket, surface = self._owner()
            counts["integrate.calls"] += 1
            counts["integrate.state_dim_sum"] += np.size(u0)
            idx = self._open(name)
            try:
                res = fn(self._timed_rhs(f, bucket, surface), u0, *args, **kwargs)
            finally:
                self._close(idx)
            counts["integrate.steps_accepted"] += res.n_accepted
            counts["integrate.steps_rejected"] += res.n_rejected
            counts["integrate.incomplete"] += res.status != geoflow.integrate.COMPLETED
            return res

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, original, replacement):
        """Point every geoflow module attribute bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geoflow" or mod_name.startswith("geoflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        counts = self.counts
        reg, mini, ser = geoflow.regularity, geoflow.minimality, geoflow.serialize
        kernel_cells = inspect.signature(reg.mollify).parameters["kernel_cells"].default

        def after_spec(args, kwargs, surface):
            self._hook_surface(surface)

        def after_mollify(args, kwargs, smoothed):
            surface, eps = args[0], args[1]
            step = eps / kwargs.get("kernel_cells", kernel_cells)
            widths = surface.domain_hi - surface.domain_lo
            points = math.prod(int(n) for n in np.ceil(widths / step).astype(int) + 1)
            counts["regularity.mollify_grid_points"] += points
            # Fine-grid arrays mollify materialises: the point grid (2 values),
            # h, grad and hess (7 per codim) and six smoothed fields per codim.
            counts["regularity.mollify_bytes_computed"] += 8 * points * (2 + 13 * surface.codim)
            self._hook_surface(smoothed)

        def after_report(args, kwargs, report):
            counts["regularity.probes_pruned"] += len(report.pruned_probes)

        def after_oracle(args, kwargs, oracle):
            counts["minimality.vertices"] += len(oracle.vertices)
            counts["minimality.edges"] += oracle.graph.nnz // 2

        def after_write(args, kwargs, out):
            counts["cli.bytes_written"] += _file_size(args[0])

        spanned = [
            ("catalog.surface_from_spec", geoflow.catalog.surface_from_spec, after_spec),
            ("regularity.mollify", reg.mollify, after_mollify),
            ("regularity.approximation_sequence", reg.approximation_sequence, None),
            ("regularity.convergence_probes", reg.convergence_probes, None),
            ("regularity.flow_convergence_report", reg.flow_convergence_report, after_report),
            ("flow.integrate_geodesic", geoflow.flow.integrate_geodesic, None),
            ("flow.geodesic_flow", geoflow.flow.geodesic_flow, None),
            ("jacobi.flow_differential", geoflow.jacobi.flow_differential, None),
            ("jacobi.fd_flow_differential", geoflow.jacobi.fd_flow_differential, None),
            ("minimality.build_mesh_oracle", mini.build_mesh_oracle, after_oracle),
            ("minimality.minimality_report", mini.minimality_report, None),
            ("cli.serialize.dumps", ser.dumps, None),
            ("cli.serialize.write_json", ser.write_json, after_write),
            ("cli.serialize.write_csv", ser.write_csv, after_write),
            ("cli.serialize.write_trajectory_csv", ser.write_trajectory_csv, None),
        ]
        for name, fn, after in spanned:
            self._patch(fn, self._spanned(name, fn, after))
        for fn in (geoflow.integrate.integrate_adaptive, geoflow.integrate.integrate_fixed_rk4):
            self._patch(fn, self._integrator("integrate." + fn.__name__, fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def _outermost_ms(self, match, n):
        """Total ms per request of spans whose name satisfies `match`,
        leaving out those nested in another such span."""
        total = 0.0
        for span in self.spans:
            if not match(span[0]):
                continue
            parent = span[3]
            while parent is not None and not match(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent is None:
                total += span[2] - span[1]
        return 1e3 * total / n

    def _ms(self, name, n):
        return self._outermost_ms(lambda s: s == name, n)

    def _per_eval_us(self, bucket):
        evals = self.counts[bucket + ".rhs_evals"]
        return 1e6 * self.counts[bucket + ".rhs_s"] / evals if evals else 0.0

    def _request_overhead_s(self):
        """Request time not spent inside a library (non-cli) call it made."""
        library = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][0] == "cli.request" \
                    and not span[0].startswith("cli."):
                library[parent] += span[2] - span[1]
        return sum(s[2] - s[1] - library[i] for i, s in enumerate(self.spans)
                   if s[0] == "cli.request")

    def metrics(self, n_requests):
        """Per-layer metrics, per request unless the name says otherwise."""
        c, n = self.counts, max(1, n_requests)
        cat_calls = c["catalog.gradient.calls"] + c["catalog.hessian.calls"]
        acc, rej = c["integrate.steps_accepted"], c["integrate.steps_rejected"]
        integrate_self = sum(
            s[2] - s[1] - self.child_s[i] for i, s in enumerate(self.spans)
            if s[0].startswith("integrate.")
        )
        m = {
            "catalog.gradient_calls": c["catalog.gradient.calls"] / n,
            "catalog.hessian_calls": c["catalog.hessian.calls"] / n,
            "catalog.points_per_call": (
                (c["catalog.gradient.points"] + c["catalog.hessian.points"]) / cat_calls
                if cat_calls else 0.0
            ),
            "catalog.deriv_busy_ms": 1e3 * (c["catalog.gradient.s"] + c["catalog.hessian.s"]) / n,
            "surface.grid_gradient_calls": c["surface.grid.gradient.calls"] / n,
            "surface.grid_hessian_calls": c["surface.grid.hessian.calls"] / n,
            "surface.grid_deriv_busy_ms": (
                1e3 * (c["surface.grid.gradient.s"] + c["surface.grid.hessian.s"]) / n
            ),
            "flow.integrate_geodesic_ms": self._ms("flow.integrate_geodesic", n),
            "flow.geodesic_flow_calls": sum(s[0] == "flow.geodesic_flow" for s in self.spans) / n,
            "flow.geodesic_flow_ms": self._ms("flow.geodesic_flow", n),
            "flow.rhs_us_per_eval": self._per_eval_us("flow"),
            "jacobi.flow_differential_ms": self._ms("jacobi.flow_differential", n),
            "jacobi.fd_flow_differential_ms": self._ms("jacobi.fd_flow_differential", n),
            "jacobi.rhs_us_per_eval": self._per_eval_us("jacobi"),
            "jacobi.fd_rhs_us_per_eval": self._per_eval_us("jacobi_fd"),
            "integrate.calls": c["integrate.calls"] / n,
            "integrate.steps_accepted": acc / n,
            "integrate.steps_rejected": rej / n,
            "integrate.rhs_evals": c["integrate.rhs_evals"] / n,
            "integrate.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
            "integrate.self_ms": 1e3 * integrate_self / n,
            "integrate.state_dim_mean": (
                c["integrate.state_dim_sum"] / c["integrate.calls"] if c["integrate.calls"] else 0.0
            ),
            "integrate.incomplete": c["integrate.incomplete"] / n,
            "regularity.mollify_ms": self._ms("regularity.mollify", n),
            "regularity.mollify_grid_points": c["regularity.mollify_grid_points"] / n,
            "regularity.mollify_bytes_computed": c["regularity.mollify_bytes_computed"] / n,
            "regularity.approximation_sequence_ms": self._ms("regularity.approximation_sequence", n),
            "regularity.flow_convergence_report_ms": self._ms("regularity.flow_convergence_report", n),
            "regularity.probes_pruned": c["regularity.probes_pruned"] / n,
            "minimality.build_mesh_oracle_ms": self._ms("minimality.build_mesh_oracle", n),
            "minimality.vertices": c["minimality.vertices"] / n,
            "minimality.edges": c["minimality.edges"] / n,
            "minimality.report_ms": self._ms("minimality.minimality_report", n),
            "cli.request_overhead_ms": 1e3 * self._request_overhead_s() / n,
            "cli.serialize_ms": self._outermost_ms(lambda s: s.startswith("cli.serialize."), n),
            "cli.bytes_written": c["cli.bytes_written"] / n,
        }
        m.update(self.replay_kernels())
        return m

    def replay_kernels(self):
        """Time geometry kernels at sampled visited states, with the
        uninstrumented derivative callables, at batch sizes 1 and 256.

        Each value is the mean over the visited surfaces of the median time
        per call in microseconds; 0 means the workload visited no surface
        of that kind.
        """
        results = defaultdict(list)
        for surface, rows, _ in self.samples.values():
            for attr in ("gradient", "hessian"):
                fn = getattr(surface, attr)
                setattr(surface, attr, getattr(fn, "__wrapped__", fn))
            states = np.array(rows)
            m = surface.dim
            kernels = {
                "christoffel": lambda X, Y: christoffel_batch(surface, X),
                "curvature_matrix": lambda X, Y: curvature_matrix_batch(surface, X, Y),
            }
            if isinstance(surface, GridSurface):
                kernels["grid_deriv"] = lambda X, Y: (surface.gradient(X), surface.hessian(X))
            batch = np.resize(states, (256, 2 * m))
            singles = states[:REPLAY_POINTS_P1]
            for kname, fn in kernels.items():
                results[f"surface.{kname}_us.P1"].append(
                    _median_us([(row[:m], row[m:]) for row in singles for _ in range(3)], fn))
                results[f"surface.{kname}_us.P256"].append(
                    _median_us([(batch[:, :m], batch[:, m:])] * 15, fn))
        names = [f"surface.{k}_us.{p}" for k in ("christoffel", "curvature_matrix", "grid_deriv")
                 for p in ("P1", "P256")]
        return {k: statistics.fmean(results[k]) if results[k] else 0.0 for k in names}


def _median_us(calls, fn):
    times = []
    for X, Y in calls:
        t0 = time.perf_counter()
        fn(X, Y)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
