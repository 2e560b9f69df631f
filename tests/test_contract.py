"""The error contract as one table: every public function and class of
geoflow.{flow, jacobi, regularity, minimality, surface, catalog, integrate}
has a row, and each malformed argument in it (a string, a bool, NaN, inf, a
wrong shape, an empty sequence, a negative or non-integer count, a point
outside the chart) raises a GeoflowError subclass or gives the result the
row documents. A public name with no row fails
test_every_public_name_has_a_row. Records, and the two mesh kernels whose
arguments come only from checked ones, are listed in UNCHECKED instead, each
with the checked function that feeds it.

The table varies the numeric and array arguments, the tangent vectors and
the sequences; its rng rows pass a generator, and two GraphSurface rows a
regularity or bounds, of the wrong type. Otherwise surfaces, oracles,
trajectories, smoothing sequences, generators and callables are always the
library's own well-formed ones.
Geometry kernels (the right-hand-side building blocks) do not check their
arguments; their rows document that NaN in gives non-finite out, never a
finite number.

A case with `was` set raised that raw Python or numpy error before the
argument rules moved into errors.py.
"""

import importlib
import inspect
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from geoflow import catalog, flow, integrate, jacobi, minimality, regularity, surface
from geoflow.errors import GeoflowError
from geoflow.flow import TangentVector
from geoflow.jacobi import JacobiState

NAN, INF = math.nan, math.inf
MODULES = ["flow", "jacobi", "regularity", "minimality", "surface", "catalog", "integrate"]

FLAT = catalog.make_surface("flat")
HEMI = catalog.make_surface("hemisphere")
VEE = catalog.make_surface("vee")
C21 = catalog.make_surface("c21_cubic")
C2ALPHA = catalog.make_surface("c2alpha")
V = TangentVector([0.1, 0.0], [1.0, 0.0])
OUTSIDE = TangentVector([2.0, 0.0], [1.0, 0.0])          # outside flat's box
OFF_DISK = TangentVector([0.75, 0.75], [1.0, 0.0])       # in the hemisphere's box, off its disk
J0 = JacobiState([0.0, 0.0], [0.0, 1.0])
PAIRS = [(0.1, 0.2), (0.5, 0.3)]
LINEAR = lambda d: d
ORACLE = minimality.build_mesh_oracle(FLAT, 16)
SEQ = regularity.SmoothingSequence(FLAT, [0.2, 0.1], [FLAT, FLAT], *[np.zeros(2)] * 3,
                                   (FLAT.domain_lo, FLAT.domain_hi))
RUN = integrate.IntegrationResult(np.zeros(1), np.zeros((1, 4)), [integrate.COMPLETED])


def rng():
    return np.random.default_rng(0)


def grid(nx=6, ny=6, h=None, axes=None):
    """GridSurface on [0, 1]^2 from zero samples, with h or the axes replaced."""
    xa, ya = axes if axes is not None else (np.linspace(0, 1, nx), np.linspace(0, 1, ny))
    return surface.GridSurface("g", xa, ya, np.zeros((nx, ny, 1)) if h is None else h,
                               np.zeros((nx, ny, 2, 1)), np.zeros((nx, ny, 3, 1)))


def tiny_c2alpha():
    """A C2alpha grid chart on [-0.001, 0.001]^2, too small for any modulus-probe partner."""
    return catalog.surface_from_spec({"type": "grid", "samples": np.zeros((17, 17)).tolist(),
                                      "domain": [[-0.001, 0.001]] * 2, "regularity": "C2alpha"})


def t0_trajectory():
    return flow.integrate_geodesic(FLAT, V, 0.0)


def non_finite(value):
    return not np.all(np.isfinite(value))


class Case(NamedTuple):
    label: str
    call: Callable
    expect: Callable | None = None  # predicate on the documented result; None: a GeoflowError
    was: str | None = None          # raw error this call raised before errors.py held the rules


UNCHECKED = {
    "flow.Trajectory": "built by integrate_geodesic from a checked request",
    "jacobi.FlowDifferential": "built by flow_differential from a checked request",
    "regularity.SmoothingSequence": "built by approximation_sequence from checked scales",
    "regularity.ConvergenceReport": "built by flow_convergence_report from checked probes",
    "minimality.box_graph": "takes the index box search_box derives from snapped vertex ids",
    "minimality.search_box": "takes vertex ids from MeshGeodesicOracle.snap of checked points",
    "surface.SurfaceBounds": "declared constants of a catalog or grid surface",
    "surface.LocalGeometry": "built by local_geometry, whose row documents its inputs",
    "catalog.SurfaceCatalogEntry": "the catalog's own entries",
    "integrate.Tableau": "the DP5 and DOP853 coefficient sets",
    "integrate.IntegrationResult": "built by the integrators from checked requests",
}

ROWS = {
    # -- flow ----------------------------------------------------------------
    "flow.TangentVector": [
        Case("string x", lambda: TangentVector("a", [1.0, 0.0])),
        Case("string y", lambda: TangentVector([0.1, 0.0], ["a", 0.0])),
        Case("ragged x", lambda: TangentVector([[0.1], [0.0, 1.0]], [1.0, 0.0])),
        Case("shape: held, checked when used", lambda: TangentVector([0.1, 0.0, 0.0], [1.0, 0.0]),
             expect=lambda v: v.x.shape == (3,)),
    ],
    "flow.tolerances": [
        Case("string", lambda: flow.tolerances(FLAT, "a")),
        Case("bool", lambda: flow.tolerances(FLAT, True)),
        Case("nan", lambda: flow.tolerances(FLAT, NAN)),
        Case("inf", lambda: flow.tolerances(FLAT, INF)),
        Case("negative", lambda: flow.tolerances(FLAT, -1e-8)),
        Case("zero", lambda: flow.tolerances(FLAT, 0.0)),
        Case("shape", lambda: flow.tolerances(FLAT, [1e-8])),
        Case("None: by class", lambda: flow.tolerances(FLAT, None), expect=lambda r: r == (1e-10, 1e-12)),
    ],
    "flow.require_completed": [
        Case("left chart", lambda: flow.require_completed(
            integrate.IntegrationResult(np.zeros(1), np.zeros((1, 4)), [integrate.LEFT_CHART]), "run")),
        Case("step failure", lambda: flow.require_completed(
            integrate.IntegrationResult(np.zeros(1), np.zeros((1, 4)), [integrate.STEP_FAILURE]), "run")),
        Case("completed: returned", lambda: flow.require_completed(RUN, "run"), expect=lambda r: r is RUN),
    ],
    "flow.make_geodesic_rhs": [
        Case("nan state", lambda: flow.make_geodesic_rhs(HEMI)([NAN, 0.0, 1.0, 0.0]), expect=non_finite),
        Case("outside", lambda: flow.make_geodesic_rhs(HEMI)([1.0, 0.5, 1.0, 0.0])),
    ],
    "flow.check_request": [
        Case("string", lambda: flow.check_request(FLAT, "a")),
        Case("nan velocity", lambda: flow.check_request(FLAT, TangentVector([0.1, 0.0], [NAN, 0.0]))),
        Case("inf velocity", lambda: flow.check_request(FLAT, TangentVector([0.1, 0.0], [INF, 0.0]))),
        Case("shape", lambda: flow.check_request(FLAT, TangentVector([0.1, 0.0], [1.0, 0.0, 0.0]))),
        Case("empty", lambda: flow.check_request(FLAT, TangentVector([], []))),
        Case("nan point", lambda: flow.check_request(FLAT, TangentVector([NAN, 0.0], [1.0, 0.0]))),
        Case("outside", lambda: flow.check_request(HEMI, OFF_DISK)),
    ],
    "flow.state_inside": [
        Case("nan state: outside", lambda: flow.state_inside(FLAT)(np.array([NAN, 0.0, 1.0, 0.0])),
             expect=lambda r: not r),
    ],
    "flow.random_tangent": [
        Case("string shrink", lambda: flow.random_tangent(FLAT, rng(), "a")),
        Case("bool shrink", lambda: flow.random_tangent(FLAT, rng(), True)),
        Case("nan shrink", lambda: flow.random_tangent(FLAT, rng(), NAN)),
        Case("inf shrink", lambda: flow.random_tangent(FLAT, rng(), INF)),
        Case("string box", lambda: flow.random_tangent(FLAT, rng(), 0.5, box=[["a", 0], [1, 1]]),
             was="ValueError"),
        Case("shape box", lambda: flow.random_tangent(FLAT, rng(), 0.5, box=[0.0, 1.0])),
        Case("empty box", lambda: flow.random_tangent(FLAT, rng(), 0.5, box=[])),
        Case("box outside", lambda: flow.random_tangent(FLAT, rng(), 0.5, box=[[5.0, 5.0], [6.0, 6.0]])),
        Case("None rng", lambda: flow.random_tangent(FLAT, None, 0.5), was="AttributeError"),
        Case("legacy RandomState rng", lambda: flow.random_tangent(FLAT, np.random.RandomState(0), 0.5)),
    ],
    "flow.integrate_batch": [
        Case("string state", lambda: flow.integrate_batch(FLAT, "a", 0.3)),
        Case("shape", lambda: flow.integrate_batch(FLAT, [0.1, 0.0, 1.0], 0.3)),
        Case("empty", lambda: flow.integrate_batch(FLAT, [], 0.3)),
        Case("zero rows", lambda: flow.integrate_batch(FLAT, np.zeros((0, 4)), 1.0)),
        Case("string t", lambda: flow.integrate_batch(FLAT, V.as_state(), "a")),
        Case("end times per row", lambda: flow.integrate_batch(FLAT, [V.as_state()] * 2, [0.1, 0.2, 0.3])),
        Case("nan tol", lambda: flow.integrate_batch(FLAT, V.as_state(), 0.3, NAN)),
        Case("nan state: fails its run", lambda: flow.integrate_batch(FLAT, [NAN, 0.0, 1.0, 0.0], 0.3),
             expect=lambda r: r.status == integrate.STEP_FAILURE),
    ],
    "flow.integrate_geodesic": [
        Case("string x", lambda: flow.integrate_geodesic(FLAT, TangentVector(["a", 0], [1, 0]), 0.3),
             was="ValueError"),
        Case("string t", lambda: flow.integrate_geodesic(FLAT, V, "a"), was="ValueError"),
        Case("bool t", lambda: flow.integrate_geodesic(FLAT, V, True)),
        Case("nan t", lambda: flow.integrate_geodesic(FLAT, V, NAN)),
        Case("inf t", lambda: flow.integrate_geodesic(FLAT, V, INF)),
        Case("negative t", lambda: flow.integrate_geodesic(FLAT, V, -0.3)),
        Case("shape t", lambda: flow.integrate_geodesic(FLAT, V, [0.1, 0.2])),
        Case("outside", lambda: flow.integrate_geodesic(FLAT, OUTSIDE, 0.3)),
        Case("string tol", lambda: flow.integrate_geodesic(FLAT, V, 0.3, "a")),
        Case("t = 0: the start", lambda: flow.integrate_geodesic(FLAT, V, 0.0),
             expect=lambda r: len(r.times) == 1 and r.status == integrate.COMPLETED),
    ],
    "flow.geodesic_flow": [
        Case("string t", lambda: flow.geodesic_flow(FLAT, "a", V), was="TypeError"),
        Case("bool t", lambda: flow.geodesic_flow(FLAT, True, V)),
        Case("nan t", lambda: flow.geodesic_flow(FLAT, NAN, V)),
        Case("inf t", lambda: flow.geodesic_flow(FLAT, -INF, V)),
        Case("shape t", lambda: flow.geodesic_flow(FLAT, [0.3], V)),
        Case("outside", lambda: flow.geodesic_flow(FLAT, 0.3, OUTSIDE)),
        Case("leaves the chart", lambda: flow.geodesic_flow(FLAT, 5.0, V)),
        Case("negative t: the reflected run", lambda: flow.geodesic_flow(FLAT, -0.3, V),
             expect=lambda r: np.allclose(r.x, [-0.2, 0.0]) and np.allclose(r.y, [1.0, 0.0])),
    ],
    "flow.exp_map": [
        Case("string", lambda: flow.exp_map(FLAT, "a")),
        Case("outside", lambda: flow.exp_map(HEMI, OFF_DISK)),
        Case("nan tol", lambda: flow.exp_map(FLAT, V, NAN)),
    ],
    "flow.flow_property_residual": [
        Case("string s", lambda: flow.flow_property_residual(FLAT, "a", 0.1, V)),
        Case("nan t", lambda: flow.flow_property_residual(FLAT, 0.1, NAN, V)),
        Case("outside", lambda: flow.flow_property_residual(FLAT, 0.1, 0.1, OUTSIDE)),
    ],
    "flow.speed_profile": [
        Case("one sample", lambda: flow.speed_profile(FLAT, t0_trajectory()),
             expect=lambda r: np.allclose(r, [1.0])),
    ],
    # -- jacobi --------------------------------------------------------------
    "jacobi.JacobiState": [
        Case("string J", lambda: JacobiState("a", [0.0, 1.0])),
        Case("ragged K", lambda: JacobiState([0.0, 0.0], [[0.0], [1.0, 2.0]])),
        Case("shape: held, checked when propagated", lambda: JacobiState([1.0, 0.0, 0.0], [0.0, 1.0]),
             expect=lambda j: j.J.shape == (3,)),
    ],
    "jacobi.coefficient_matrix": [
        Case("nan point", lambda: jacobi.coefficient_matrix(HEMI, [NAN, 0.0], [1.0, 0.0]),
             expect=non_finite),
        Case("outside", lambda: jacobi.coefficient_matrix(HEMI, [1.0, 0.5], [1.0, 0.0])),
    ],
    "jacobi.propagate_block": [
        Case("string entry", lambda: jacobi.propagate_block(
            FLAT, V, np.array([[["a"], [0]], [[1], [0]]], dtype=object), 0.3, None), was="ValueError"),
        Case("nan block", lambda: jacobi.propagate_block(FLAT, V, np.full((2, 2, 1), NAN), 0.3, None)),
        Case("shape", lambda: jacobi.propagate_block(FLAT, V, np.zeros((2, 3, 1)), 0.3, None)),
        Case("empty list of v", lambda: jacobi.propagate_block(FLAT, [], jacobi.basis_block(2), 0.3, None)),
        Case("string v", lambda: jacobi.propagate_block(FLAT, "a", jacobi.basis_block(2), 0.3, None)),
        Case("end times per row",
             lambda: jacobi.propagate_block(FLAT, [V, V], jacobi.basis_block(2), [0.1, 0.2, 0.3], None)),
        Case("outside", lambda: jacobi.propagate_block(FLAT, [V, OUTSIDE], jacobi.basis_block(2), 0.3, None)),
    ],
    "jacobi.propagate_jacobi": [
        Case("string j0", lambda: jacobi.propagate_jacobi(FLAT, V, "a", 0.3)),
        Case("J and K differ", lambda: jacobi.propagate_jacobi(
            FLAT, V, JacobiState([1.0, 0.0, 0.0], [0.0, 1.0]), 0.3)),
        Case("nan J", lambda: jacobi.propagate_jacobi(FLAT, V, JacobiState([NAN, 0.0], [0.0, 1.0]), 0.3)),
        Case("nan t", lambda: jacobi.propagate_jacobi(FLAT, V, J0, NAN)),
        Case("outside", lambda: jacobi.propagate_jacobi(HEMI, OFF_DISK, J0, 0.3)),
    ],
    "jacobi.basis_block": [
        Case("negative", lambda: jacobi.basis_block(-2)),
        Case("non-integer", lambda: jacobi.basis_block(2.5)),
        Case("bool", lambda: jacobi.basis_block(True)),
        Case("string", lambda: jacobi.basis_block("a")),
    ],
    "jacobi.flow_differential": [
        Case("string t", lambda: jacobi.flow_differential(FLAT, "a", V)),
        Case("nan t", lambda: jacobi.flow_differential(FLAT, NAN, V)),
        Case("negative t", lambda: jacobi.flow_differential(FLAT, -0.3, V)),
        Case("outside", lambda: jacobi.flow_differential(FLAT, 0.3, OUTSIDE)),
        Case("inf tol", lambda: jacobi.flow_differential(FLAT, 0.3, V, INF)),
        Case("t = 0: the identity", lambda: jacobi.flow_differential(FLAT, 0.0, V),
             expect=lambda r: np.array_equal(r.matrix, np.eye(4))),
    ],
    "jacobi.chart_to_covariant": [
        Case("string y", lambda: jacobi.chart_to_covariant(FLAT, [0.1, 0.0], "a")),
        Case("nan y", lambda: jacobi.chart_to_covariant(FLAT, [0.1, 0.0], [NAN, 0.0])),
        Case("shape y", lambda: jacobi.chart_to_covariant(FLAT, [0.1, 0.0], [1.0])),
        Case("outside", lambda: jacobi.chart_to_covariant(HEMI, [0.75, 0.75], [1.0, 0.0])),
    ],
    "jacobi.fd_flow_differential": [
        Case("string eps", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, eps="a"), was="TypeError"),
        Case("bool eps", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, eps=True)),
        Case("nan eps", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, eps=NAN)),
        Case("inf eps", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, eps=INF)),
        Case("negative eps", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, eps=-1e-5)),
        Case("order 3", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, order=3)),
        Case("order array", lambda: jacobi.fd_flow_differential(FLAT, 0.3, V, order=np.array([2, 4]))),
        Case("negative t", lambda: jacobi.fd_flow_differential(FLAT, -0.3, V)),
        Case("outside", lambda: jacobi.fd_flow_differential(FLAT, 0.3, OUTSIDE)),
    ],
    "jacobi.mixed_partials_residual": [
        Case("string w", lambda: jacobi.mixed_partials_residual(FLAT, V, ["a", 0]), was="ValueError"),
        Case("nan w", lambda: jacobi.mixed_partials_residual(FLAT, V, [NAN, 0.0])),
        Case("shape w", lambda: jacobi.mixed_partials_residual(FLAT, V, [1.0])),
        Case("empty w", lambda: jacobi.mixed_partials_residual(FLAT, V, [])),
        Case("outside", lambda: jacobi.mixed_partials_residual(FLAT, OUTSIDE, [0.0, 1.0])),
    ],
    # -- regularity ----------------------------------------------------------
    "regularity.Modulus": [
        Case("string", lambda: regularity.empirical_modulus(PAIRS)("a")),
        Case("nan", lambda: regularity.empirical_modulus(PAIRS)(NAN)),
        Case("negative: 0", lambda: regularity.empirical_modulus(PAIRS)(-0.1), expect=lambda r: r == 0.0),
    ],
    "regularity.empirical_modulus": [
        Case("string", lambda: regularity.empirical_modulus("ab")),
        Case("not a sequence", lambda: regularity.empirical_modulus(5)),
        Case("empty", lambda: regularity.empirical_modulus([])),
        Case("nan", lambda: regularity.empirical_modulus([(0.1, NAN), (0.5, 0.3)])),
        Case("inf", lambda: regularity.empirical_modulus([(INF, 0.2), (0.5, 0.3)])),
        Case("negative gap", lambda: regularity.empirical_modulus([(-0.1, 0.2), (0.5, 0.3)])),
        Case("shape", lambda: regularity.empirical_modulus([(0.1, 0.2, 0.3), (0.5, 0.3, 0.1)])),
        Case("string pair", lambda: regularity.empirical_modulus([("a", 0.2), (0.5, 0.3)])),
    ],
    "regularity.dominance": [
        Case("string", lambda: regularity.dominance("ab", LINEAR)),
        Case("nan", lambda: regularity.dominance([(0.1, NAN), (0.5, 0.3)], LINEAR)),
        Case("empty", lambda: regularity.dominance([], LINEAR)),
        Case("nan limit", lambda: regularity.dominance(PAIRS, lambda d: NAN * d)),
        Case("limit of three values", lambda: regularity.dominance(PAIRS, lambda d: np.array([1.0, 2.0, 3.0])),
             was="ValueError"),
        Case("limit of shape (2, 1)", lambda: regularity.dominance(PAIRS, lambda d: d[:, None])),
        Case("constant limit: one value for every edge", lambda: regularity.dominance(PAIRS, lambda d: 1.0),
             expect=lambda r: r["holds"] and np.array_equal(r["margins"], 1.0 - r["values"])),
    ],
    "regularity.gronwall_bound": [
        Case("string c_bar", lambda: regularity.gronwall_bound("a", 1, 0.1), was="TypeError"),
        Case("string t", lambda: regularity.gronwall_bound(1, 1, "a"), was="TypeError"),
        Case("bool x0_norm", lambda: regularity.gronwall_bound(1.0, True, 0.1)),
        Case("nan c_bar", lambda: regularity.gronwall_bound(NAN, 1.0, 0.1)),
        Case("inf x0_norm", lambda: regularity.gronwall_bound(1.0, INF, 0.1)),
        Case("negative c_bar", lambda: regularity.gronwall_bound(-1.0, 1.0, 0.1)),
        Case("negative t", lambda: regularity.gronwall_bound(1.0, 1.0, [0.1, -0.1])),
        Case("array of times", lambda: regularity.gronwall_bound(1.0, 2.0, [0.0, 1.0]),
             expect=lambda r: np.allclose(r, [2.0, 2.0 * math.e])),
    ],
    "regularity.osgood_gamma": [
        Case("string c_tilde", lambda: regularity.osgood_gamma(LINEAR, "a", 1, 1), was="TypeError"),
        Case("bool t1", lambda: regularity.osgood_gamma(LINEAR, 1.0, 1.0, True)),
        Case("nan t1", lambda: regularity.osgood_gamma(LINEAR, 1.0, 1.0, NAN)),
        Case("inf c_bar", lambda: regularity.osgood_gamma(LINEAR, 1.0, INF, 1.0)),
        Case("negative c_tilde", lambda: regularity.osgood_gamma(LINEAR, -1.0, 1.0, 1.0)),
        Case("zero t1", lambda: regularity.osgood_gamma(LINEAR, 1.0, 1.0, 0.0)),
    ],
    "regularity.injradius_lower_bound": [
        Case("string c", lambda: regularity.injradius_lower_bound("a", 1), was="TypeError"),
        Case("bool l", lambda: regularity.injradius_lower_bound(1.0, True)),
        Case("nan c", lambda: regularity.injradius_lower_bound(NAN, 1.0)),
        Case("inf l", lambda: regularity.injradius_lower_bound(1.0, INF)),
        Case("zero c", lambda: regularity.injradius_lower_bound(0.0, 1.0)),
        Case("negative l", lambda: regularity.injradius_lower_bound(1.0, -1.0)),
    ],
    "regularity.mollify": [
        Case("string eps", lambda: regularity.mollify(VEE, "a")),
        Case("bool eps", lambda: regularity.mollify(VEE, True)),
        Case("nan eps", lambda: regularity.mollify(VEE, NAN)),
        Case("inf eps", lambda: regularity.mollify(VEE, INF)),
        Case("negative eps", lambda: regularity.mollify(VEE, -0.1)),
        Case("shape eps", lambda: regularity.mollify(VEE, [0.1])),
        Case("eps too wide", lambda: regularity.mollify(VEE, 0.9)),
        Case("non-integer kernel_cells", lambda: regularity.mollify(VEE, 0.1, kernel_cells=2.5)),
        Case("negative kernel_cells", lambda: regularity.mollify(VEE, 0.1, kernel_cells=-1)),
        Case("bool kernel_cells", lambda: regularity.mollify(VEE, 0.1, kernel_cells=True)),
        Case("restricted chart", lambda: regularity.mollify(HEMI, 0.1)),
        Case("string box", lambda: regularity.mollify(VEE, 0.1, box="a")),
        Case("shape box", lambda: regularity.mollify(VEE, 0.1, box=[-0.5, 0.5])),
        Case("3-vector box", lambda: regularity.mollify(VEE, 0.1, box=([-0.5] * 3, [0.5] * 3))),
        Case("nan box", lambda: regularity.mollify(VEE, 0.1, box=([NAN, -0.5], [0.5, 0.5]))),
        Case("inf box", lambda: regularity.mollify(VEE, 0.1, box=([-0.5, -0.5], [INF, 0.5]))),
        Case("box lo = hi", lambda: regularity.mollify(VEE, 0.1, box=([0.2, -0.5], [0.2, 0.5]))),
        Case("box lo > hi", lambda: regularity.mollify(VEE, 0.1, box=([-0.5, 0.5], [0.5, -0.5]))),
        Case("box past the shrunk chart", lambda: regularity.mollify(VEE, 0.1, box=([-0.75, -0.5], [0.5, 0.5]))),
        Case("box off the chart", lambda: regularity.mollify(VEE, 0.1, box=([1.0, 1.0], [2.0, 2.0]))),
        Case("box: a level that covers it", lambda: regularity.mollify(VEE, 0.05, box=([-0.5, 0.0], [0.5, 0.3])),
             expect=lambda s: np.all(s.domain_lo <= [-0.5, 0.0]) and np.all(s.domain_hi >= [0.5, 0.3])),
    ],
    "regularity.approximation_sequence": [
        Case("not a sequence", lambda: regularity.approximation_sequence(VEE, 0.1)),
        Case("string", lambda: regularity.approximation_sequence(VEE, "ab")),
        Case("string scale", lambda: regularity.approximation_sequence(VEE, ["a", 0.1])),
        Case("None scale", lambda: regularity.approximation_sequence(VEE, [0.1, None])),
        Case("bool scale", lambda: regularity.approximation_sequence(VEE, [True, 0.1])),
        Case("nan scale", lambda: regularity.approximation_sequence(VEE, [0.1, NAN])),
        Case("inf scale", lambda: regularity.approximation_sequence(VEE, [INF, 0.1])),
        Case("negative scale", lambda: regularity.approximation_sequence(VEE, [0.1, -0.05])),
        Case("empty", lambda: regularity.approximation_sequence(VEE, [])),
        Case("one scale", lambda: regularity.approximation_sequence(VEE, [0.1])),
        Case("increasing", lambda: regularity.approximation_sequence(VEE, [0.1, 0.2])),
    ],
    "regularity.flow_convergence_report": [
        Case("empty", lambda: regularity.flow_convergence_report(SEQ, [])),
        Case("string", lambda: regularity.flow_convergence_report(SEQ, "ab")),
        Case("string t", lambda: regularity.flow_convergence_report(SEQ, [("a", V)])),
        Case("nan t", lambda: regularity.flow_convergence_report(SEQ, [(NAN, V)])),
        Case("string v", lambda: regularity.flow_convergence_report(SEQ, [(0.1, "ab")])),
        Case("probe not a pair", lambda: regularity.flow_convergence_report(SEQ, [(0.1,)]),
             was="ValueError"),
        Case("probe of three", lambda: regularity.flow_convergence_report(SEQ, [(0.1, V, 0.2)]),
             was="ValueError"),
        Case("outside", lambda: regularity.flow_convergence_report(SEQ, [(0.1, OUTSIDE)])),
    ],
    "regularity.convergence_probes": [
        Case("zero", lambda: regularity.convergence_probes(SEQ, 0, rng())),
        Case("negative", lambda: regularity.convergence_probes(SEQ, -1, rng())),
        Case("non-integer", lambda: regularity.convergence_probes(SEQ, 2.5, rng())),
        Case("bool", lambda: regularity.convergence_probes(SEQ, True, rng())),
        Case("string", lambda: regularity.convergence_probes(SEQ, "a", rng())),
        Case("None rng", lambda: regularity.convergence_probes(SEQ, 2, None), was="AttributeError"),
    ],
    "regularity.coefficient_bound_along": [
        Case("string", lambda: regularity.coefficient_bound_along(FLAT, [["a", 0, 0, 0]]), was="ValueError"),
        Case("empty", lambda: regularity.coefficient_bound_along(FLAT, np.zeros((0, 4)))),
        Case("shape", lambda: regularity.coefficient_bound_along(FLAT, np.zeros((3, 5)))),
        Case("nan", lambda: regularity.coefficient_bound_along(FLAT, [[0.0, 0.0, NAN, 1.0]])),
        Case("inf", lambda: regularity.coefficient_bound_along(FLAT, [[0.0, 0.0, INF, 1.0]])),
    ],
    "regularity.measure_gronwall_margin": [
        Case("string j0", lambda: regularity.measure_gronwall_margin(FLAT, V, "a", 0.3)),
        Case("nan t", lambda: regularity.measure_gronwall_margin(FLAT, V, J0, NAN)),
        Case("outside", lambda: regularity.measure_gronwall_margin(FLAT, OUTSIDE, J0, 0.3)),
    ],
    "regularity.lipschitz_flow_report": [
        Case("string t_end", lambda: regularity.lipschitz_flow_report(VEE, t_end="a"), was="ValueError"),
        Case("nan t_end", lambda: regularity.lipschitz_flow_report(VEE, t_end=NAN, n_pairs=2)),
        Case("negative t_end", lambda: regularity.lipschitz_flow_report(VEE, t_end=-0.3, n_pairs=2)),
        Case("zero n_pairs", lambda: regularity.lipschitz_flow_report(VEE, n_pairs=0)),
        Case("non-integer n_pairs", lambda: regularity.lipschitz_flow_report(VEE, n_pairs=2.5)),
        Case("negative seed", lambda: regularity.lipschitz_flow_report(VEE, n_pairs=2, seed=-1)),
        Case("string seed", lambda: regularity.lipschitz_flow_report(VEE, n_pairs=2, seed="a")),
    ],
    "regularity.osgood_dominance_report": [
        Case("string t1", lambda: regularity.osgood_dominance_report(C21, t1="a"), was="DTypePromotionError"),
        Case("nan t1", lambda: regularity.osgood_dominance_report(C21, t1=NAN)),
        Case("zero t1", lambda: regularity.osgood_dominance_report(C21, t1=0.0)),
        Case("zero n_centers", lambda: regularity.osgood_dominance_report(C21, n_centers=0)),
        Case("non-integer n_centers", lambda: regularity.osgood_dominance_report(C21, n_centers=1.5)),
        Case("negative seed", lambda: regularity.osgood_dominance_report(C21, n_centers=1, seed=-1)),
        Case("no partner in the chart", lambda: regularity.osgood_dominance_report(
            tiny_c2alpha(), t1=1e-5, n_centers=2)),
    ],
    "regularity.holder_dominance_report": [
        Case("not C2alpha", lambda: regularity.holder_dominance_report(VEE)),
        Case("string t1", lambda: regularity.holder_dominance_report(C2ALPHA, t1="a")),
        Case("inf t1", lambda: regularity.holder_dominance_report(C2ALPHA, t1=INF)),
        Case("bool n_centers", lambda: regularity.holder_dominance_report(C2ALPHA, n_centers=True)),
        Case("non-integer seed", lambda: regularity.holder_dominance_report(C2ALPHA, n_centers=1, seed=0.5)),
        Case("no partner in the chart", lambda: regularity.holder_dominance_report(
            tiny_c2alpha(), t1=1e-5, n_centers=2), was="ValueError"),
    ],
    # -- minimality ----------------------------------------------------------
    "minimality.MeshGeodesicOracle": [
        Case("string point", lambda: ORACLE.snap("a")),
        Case("nan point", lambda: ORACLE.snap([NAN, 0.0])),
        Case("shape", lambda: ORACLE.snap([0.1, 0.0, 0.0])),
        Case("outside", lambda: ORACLE.snap([2.0, 0.0])),
    ],
    "minimality.build_mesh_oracle": [
        Case("too small", lambda: minimality.build_mesh_oracle(FLAT, 7)),
        Case("negative", lambda: minimality.build_mesh_oracle(FLAT, -16)),
        Case("non-integer", lambda: minimality.build_mesh_oracle(FLAT, 16.5)),
        Case("bool", lambda: minimality.build_mesh_oracle(FLAT, True)),
        Case("string", lambda: minimality.build_mesh_oracle(FLAT, "a")),
    ],
    "minimality.shortest_path": [
        Case("string", lambda: minimality.shortest_path(ORACLE, "a", [0.1, 0.0])),
        Case("nan", lambda: minimality.shortest_path(ORACLE, [0.1, 0.0], [NAN, 0.0])),
        Case("shape", lambda: minimality.shortest_path(ORACLE, [0.1], [0.1, 0.0])),
        Case("outside", lambda: minimality.shortest_path(ORACLE, [0.1, 0.0], [2.0, 0.0])),
    ],
    "minimality.mesh_error_budget": [
        Case("negative", lambda: minimality.mesh_error_budget(ORACLE, -1)),
        Case("non-integer", lambda: minimality.mesh_error_budget(ORACLE, 2.5)),
        Case("bool", lambda: minimality.mesh_error_budget(ORACLE, True)),
        Case("string", lambda: minimality.mesh_error_budget(ORACLE, "a")),
    ],
    "minimality.minimality_report": [
        Case("t = 0: zero length, minimal", lambda: minimality.minimality_report(t0_trajectory(), ORACLE),
             expect=lambda r: r["geodesic_length"] == 0.0 and r["verdict"] == "minimal_within_mesh_error"),
    ],
    "minimality.branching_check": [
        Case("step sizes not a sequence", lambda: minimality.branching_check(FLAT, V, 0.3, 0.1, []),
             was="TypeError"),
        Case("perturbations not a sequence", lambda: minimality.branching_check(FLAT, V, 0.3, [0.1], 0.1),
             was="TypeError"),
        Case("empty step sizes", lambda: minimality.branching_check(FLAT, V, 0.3, [], [])),
        Case("string step size", lambda: minimality.branching_check(FLAT, V, 0.3, ["a"], [])),
        Case("bool step size", lambda: minimality.branching_check(FLAT, V, 0.3, [True], [])),
        Case("nan step size", lambda: minimality.branching_check(FLAT, V, 0.3, [NAN], [])),
        Case("zero step size", lambda: minimality.branching_check(FLAT, V, 0.3, [0.0], [])),
        Case("step size whose reference run is below the step bound",
             lambda: minimality.branching_check(FLAT, V, 0.3, [1e-6], [])),
        Case("string perturbation", lambda: minimality.branching_check(FLAT, V, 0.3, [0.1], ["a"])),
        Case("string t_end", lambda: minimality.branching_check(FLAT, V, "a", [0.1], [])),
        Case("inf t_end", lambda: minimality.branching_check(FLAT, V, INF, [0.1], [])),
        Case("outside", lambda: minimality.branching_check(FLAT, OUTSIDE, 0.3, [0.1], [])),
    ],
    "minimality.short_geodesic": [
        Case("string", lambda: minimality.short_geodesic(FLAT, rng(), "a")),
        Case("nan", lambda: minimality.short_geodesic(FLAT, rng(), NAN)),
        Case("negative", lambda: minimality.short_geodesic(FLAT, rng(), -0.5)),
        Case("string rng", lambda: minimality.short_geodesic(FLAT, "a", 0.3), was="AttributeError"),
    ],
    # -- surface -------------------------------------------------------------
    "surface.Regularity": [
        Case("unknown tag", lambda: surface.Regularity("C7")),
        Case("string alpha", lambda: surface.Regularity("C2alpha", "a")),
        Case("bool alpha", lambda: surface.Regularity("C2alpha", True)),
        Case("nan alpha", lambda: surface.Regularity("C2alpha", NAN)),
        Case("zero alpha", lambda: surface.Regularity("C2alpha", 0.0)),
        Case("alpha above 1", lambda: surface.Regularity("C2alpha", 1.5)),
        Case("alpha on C2", lambda: surface.Regularity("C2", 0.5)),
        Case("parse string alpha", lambda: surface.Regularity.parse("C2alpha", "a")),
        Case("parse unhashable tag", lambda: surface.Regularity.parse(["C2"])),
        Case("parse alpha on smooth", lambda: surface.Regularity.parse("smooth", 0.3)),
        Case("parse capitalised tag", lambda: surface.Regularity.parse("Smooth")),
    ],
    "surface.GraphSurface": [
        Case("nan corner", lambda: surface.GraphSurface(
            "b", 2, 1, [-1, -1], [NAN, 1], None, None, regularity=surface.Regularity("smooth"))),
        Case("string corner", lambda: surface.GraphSurface(
            "b", 2, 1, [-1, "a"], [1, 1], None, None, regularity=surface.Regularity("smooth"))),
        Case("shape corner", lambda: surface.GraphSurface(
            "b", 2, 1, [-1], [1, 1], None, None, regularity=surface.Regularity("smooth"))),
        Case("non-integer dim", lambda: surface.GraphSurface(
            "b", 2.5, 1, [-1, -1], [1, 1], None, None, regularity=surface.Regularity("smooth"))),
        Case("zero codim", lambda: surface.GraphSurface(
            "b", 2, 0, [-1, -1], [1, 1], None, None, regularity=surface.Regularity("smooth"))),
        Case("string regularity", lambda: surface.GraphSurface(
            "b", 2, 1, [-1, -1], [1, 1], None, None, regularity="smooth")),
        Case("tuple bounds", lambda: surface.GraphSurface(
            "b", 2, 1, [-1, -1], [1, 1], None, None, regularity=surface.Regularity("smooth"),
            bounds=(1, 2, 3))),
        Case("string point", lambda: FLAT.require_inside("a")),
        Case("outside point", lambda: HEMI.require_inside([0.75, 0.75])),
        Case("nan vector", lambda: FLAT.require_vector([NAN, 0.0])),
        Case("no declared bounds", lambda: surface.GraphSurface(
            "b", 2, 1, [-1, -1], [1, 1], None, None, regularity=surface.Regularity("smooth")).bounds),
    ],
    "surface.local_geometry": [
        Case("nan point", lambda: surface.local_geometry(HEMI, [NAN, 0.0]).g, expect=non_finite),
        Case("outside", lambda: surface.local_geometry(HEMI, [1.0, 0.5])),
    ],
    "surface.christoffel_batch": [
        Case("nan point", lambda: surface.christoffel_batch(HEMI, [NAN, 0.0]), expect=non_finite),
    ],
    "surface.curvature_matrix_batch": [
        Case("nan velocity", lambda: surface.curvature_matrix_batch(HEMI, [0.1, 0.0], [NAN, 0.0]),
             expect=non_finite),
    ],
    "surface.g_norm_batch": [
        Case("nan velocity", lambda: surface.g_norm_batch(HEMI, [0.1, 0.0], [NAN, 0.0]), expect=non_finite),
    ],
    "surface.curvature_operator": [
        Case("nan V", lambda: surface.curvature_operator(FLAT, [0.1, 0.0], [NAN, 0.0])),
        Case("empty V", lambda: surface.curvature_operator(FLAT, [0.1, 0.0], [])),
        Case("outside", lambda: surface.curvature_operator(HEMI, [0.75, 0.75], [1.0, 0.0])),
    ],
    "surface.curvature_from_christoffel": [
        Case("nan J", lambda: surface.curvature_from_christoffel(FLAT, [0.1, 0.0], [1.0, 0.0], [NAN, 0.0])),
        Case("shape V", lambda: surface.curvature_from_christoffel(FLAT, [0.1, 0.0], [1.0], [0.0, 1.0])),
        Case("outside", lambda: surface.curvature_from_christoffel(
            FLAT, [2.0, 0.0], [1.0, 0.0], [0.0, 1.0])),
    ],
    "surface.GridSurface": [
        Case("string samples", lambda: grid(h=np.full((6, 6, 1), "a"))),
        Case("nan samples", lambda: grid(h=np.full((6, 6, 1), NAN))),
        Case("shape", lambda: grid(h=np.zeros((6, 6)))),
        Case("deferred nan samples", lambda: grid(h=lambda: (np.full((6, 6, 1), NAN), None)).height(V.x)),
        Case("deferred shape", lambda: grid(h=lambda: (np.zeros((6, 5, 1)), None)).height(V.x)),
        Case("deferred nan origin height", lambda: grid(h=lambda: (np.zeros((6, 6, 1)), [NAN])).height(V.x)),
        Case("deferred origin height shape", lambda: grid(h=lambda: (np.zeros((6, 6, 1)), [0, 0])).height(V.x)),
        Case("under 4 samples", lambda: grid(nx=3)),
        Case("reversed axis", lambda: grid(axes=(np.linspace(1, 0, 6), np.linspace(0, 1, 6)))),
        Case("inf axis", lambda: grid(axes=(np.linspace(0, 1, 6), [0, 0.2, 0.4, 0.6, 0.8, INF]))),
        Case("from samples: under 13", lambda: surface.GridSurface.from_samples(
            "g", np.linspace(0, 1, 12), np.linspace(0, 1, 12), np.zeros((12, 12)))),
        Case("from samples: nan", lambda: surface.GridSurface.from_samples(
            "g", np.linspace(0, 1, 13), np.linspace(0, 1, 13), np.full((13, 13), NAN))),
        Case("from samples: 2-d axis", lambda: surface.GridSurface.from_samples(
            "g", np.zeros((13, 2)), np.linspace(0, 1, 13), np.zeros((13, 13))), was="ValueError"),
        Case("from samples: uneven axis", lambda: surface.GridSurface.from_samples(
            "g", np.linspace(-1, 1, 30) ** 3, np.linspace(-1, 1, 30), np.zeros((30, 30)))),
    ],
    # -- catalog -------------------------------------------------------------
    "catalog.make_surface": [
        Case("unknown", lambda: catalog.make_surface("nope")),
        Case("unhashable name", lambda: catalog.make_surface(["flat"])),
        Case("unknown parameter", lambda: catalog.make_surface("flat", alpha=0.5)),
        Case("string alpha", lambda: catalog.make_surface("c2alpha", alpha="a")),
        Case("bool alpha", lambda: catalog.make_surface("c2alpha", alpha=True)),
        Case("nan alpha", lambda: catalog.make_surface("c2alpha", alpha=NAN)),
        Case("negative alpha", lambda: catalog.make_surface("c2alpha", alpha=-0.5)),
    ],
    "catalog.surface_from_spec": [
        Case("string", lambda: catalog.surface_from_spec("a")),
        Case("empty", lambda: catalog.surface_from_spec({})),
        Case("non-string key", lambda: catalog.surface_from_spec({"type": "catalog", "name": "c2alpha", 1: 0.3})),
        Case("grid without samples", lambda: catalog.surface_from_spec({"type": "grid", "domain": [[0, 1]] * 2})),
        Case("unknown type", lambda: catalog.surface_from_spec({"type": "mesh"})),
        Case("string samples", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": "a", "domain": [[0, 1], [0, 1]]})),
        Case("nan samples", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": [[NAN] * 13] * 13, "domain": [[0, 1], [0, 1]]})),
        Case("shape domain", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": [[0.0] * 13] * 13, "domain": [0, 1]})),
        Case("inf domain", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": [[0.0] * 13] * 13, "domain": [[0, INF], [0, 1]]})),
        Case("unknown grid key", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": [[0.0] * 13] * 13, "domain": [[0, 1], [0, 1]], "regularty": "C2"})),
        Case("parameter the builder does not take", lambda: catalog.surface_from_spec(
            {"type": "catalog", "name": "c2alpha", "alpah": 0.3})),
        Case("null alpha", lambda: catalog.surface_from_spec({"type": "catalog", "name": "c2alpha", "alpha": None})),
        Case("grid null alpha", lambda: catalog.surface_from_spec(
            {"type": "grid", "samples": [[0.0] * 13] * 13, "domain": [[0, 1], [0, 1]], "regularity": "C2alpha",
             "alpha": None})),
        Case("parameters reach the builder", lambda: catalog.surface_from_spec(
            {"type": "catalog", "name": "c2alpha", "alpha": 0.3}), expect=lambda s: s.regularity.alpha == 0.3),
    ],
    # -- integrate -----------------------------------------------------------
    "integrate.end_times": [
        Case("string", lambda: integrate.end_times("a")),
        Case("nan", lambda: integrate.end_times(NAN)),
        Case("inf", lambda: integrate.end_times(INF)),
        Case("negative", lambda: integrate.end_times(-1.0)),
        Case("one per row", lambda: integrate.end_times([0.1, 0.2], 3)),
        Case("shape", lambda: integrate.end_times([[0.1]], 1)),
        Case("empty", lambda: integrate.end_times([], 2)),
        Case("zero: done at the start", lambda: integrate.end_times(0.0, 2),
             expect=lambda r: np.array_equal(r, [0.0, 0.0])),
    ],
    "integrate.integrate_adaptive": [
        Case("string state", lambda: integrate.integrate_adaptive(np.negative, "a", 1.0)),
        Case("ragged state", lambda: integrate.integrate_adaptive(np.negative, [[1.0], [1.0, 2.0]], 1.0)),
        Case("shape", lambda: integrate.integrate_adaptive(np.negative, np.ones((2, 2, 2)), 1.0)),
        Case("zero rows", lambda: integrate.integrate_adaptive(np.negative, np.zeros((0, 4)), 1.0)),
        Case("empty state", lambda: integrate.integrate_adaptive(np.negative, [], 1.0)),
        Case("zero-width rows", lambda: integrate.integrate_adaptive(np.negative, np.zeros((2, 0)), 1.0)),
        Case("nan t", lambda: integrate.integrate_adaptive(np.negative, [1.0], NAN)),
        Case("string rtol", lambda: integrate.integrate_adaptive(np.negative, [1.0], 1.0, "a")),
        Case("negative atol", lambda: integrate.integrate_adaptive(np.negative, [1.0], 1.0, 1e-8, -1e-10)),
        Case("nan state: fails its run", lambda: integrate.integrate_adaptive(np.negative, [NAN], 1.0),
             expect=lambda r: r.status == integrate.STEP_FAILURE),
    ],
    "integrate.integrate_fixed_rk4": [
        Case("string state", lambda: integrate.integrate_fixed_rk4(np.negative, "a", 1.0, 0.1)),
        Case("empty state", lambda: integrate.integrate_fixed_rk4(np.negative, [], 1.0, 0.1)),
        Case("scalar state", lambda: integrate.integrate_fixed_rk4(np.negative, 1.0, 1.0, 0.1)),
        Case("batch of rows", lambda: integrate.integrate_fixed_rk4(
            np.negative, np.ones((2, 2)), 1.0, 0.1, inside=lambda u: u[..., 0] < 2.0)),
        Case("string step", lambda: integrate.integrate_fixed_rk4(np.negative, [1.0], 1.0, "a")),
        Case("zero step", lambda: integrate.integrate_fixed_rk4(np.negative, [1.0], 1.0, 0.0)),
        Case("nan step", lambda: integrate.integrate_fixed_rk4(np.negative, [1.0], 1.0, NAN)),
        Case("negative t", lambda: integrate.integrate_fixed_rk4(np.negative, [1.0], -1.0, 0.1)),
        Case("step below t_end / _MAX_STEPS", lambda: integrate.integrate_fixed_rk4(
            np.negative, [1.0], 0.1, 1e-300)),
        Case("nan state: stops at the start", lambda: integrate.integrate_fixed_rk4(
            np.negative, [NAN], 1.0, 0.1), expect=lambda r: r.status == integrate.STEP_FAILURE
            and list(r.times) == [0.0]),
    ],
}

CASES = [(name, case) for name, cases in ROWS.items() for case in cases]


@pytest.mark.parametrize("name, case", CASES, ids=[f"{name}-{case.label}" for name, case in CASES])
def test_contract(name, case):
    if case.expect is None:
        with pytest.raises(GeoflowError):
            case.call()
    else:
        assert case.expect(case.call())


def public_names():
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(f"geoflow.{module_name}")
        names |= {f"{module_name}.{name}" for name, obj in vars(module).items()
                  if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
    return names


def test_every_public_name_has_a_row():
    public = public_names()
    assert not set(ROWS) & set(UNCHECKED)
    assert public - set(ROWS) - set(UNCHECKED) == set(), "public names without a row"
    assert (set(ROWS) | set(UNCHECKED)) - public == set(), "rows for names that are gone"


def test_formerly_raw_calls_keep_their_rows():
    # the 24 calls that raised a raw Python or numpy error, on names that still
    # exist, are all still in the table
    was = [case.was for _, case in CASES if case.was]
    assert len(was) == 24
    assert set(was) == {"TypeError", "ValueError", "DTypePromotionError", "AttributeError"}
