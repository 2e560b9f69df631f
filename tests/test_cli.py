import builtins
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoflow
from geoflow.cli import DEFAULT_TOLERANCES, RunConfig, _suite_flow, main
from geoflow.errors import ConfigError


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(argv)


# ---------------------------------------------------------------------------
# surface command
# ---------------------------------------------------------------------------


def test_surface_list(capsys):
    assert main(["surface", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_surface_list_regularity_matches_info(capsys):
    # the listing prints each surface's own regularity, as `surface info` does
    assert main(["surface", "list"]) == 0
    listed = {line.split()[0]: line.split()[1]
              for line in capsys.readouterr().out.strip().splitlines()}
    for name, regularity in listed.items():
        assert main(["surface", "info", name]) == 0
        assert json.loads(capsys.readouterr().out)["regularity"] == regularity


def test_surface_info_vee(capsys):
    assert main(["surface", "info", "vee"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["regularity"] == "C11"
    assert info["hess_sup"] == pytest.approx(2.0, abs=1e-12)


def test_surface_info_alpha(capsys):
    assert main(["--alpha", "0.3", "surface", "info", "c2alpha"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["regularity"] == "C2alpha(0.3)"
    assert info["curvature_sup"] == pytest.approx(1.6425986, abs=1e-7)
    assert list(info)[4:7] == ["grad_sup", "hess_sup", "curvature_sup"]


def test_surface_info_unknown():
    assert main(["surface", "info", "nosuch"]) == 2


@pytest.mark.parametrize("argv", [["surface", "list", "vee"], ["surface", "info"]],
                         ids=["list-with-name", "info-without-name"])
def test_surface_action_arguments_exit_2(argv, tmp_path, monkeypatch, capsys):
    # `surface list` takes no NAME and `surface info` needs one
    with pytest.raises(SystemExit) as exit_:
        run_cli(argv, tmp_path, monkeypatch)
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# geodesic command
# ---------------------------------------------------------------------------


def test_geodesic_flat(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "flat", "geodesic", "--x0", "0,0", "--y0", "1,0", "--t-end", "1"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["exit_reason"] == "Completed"
    np.testing.assert_allclose(summary["final_x"], [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(summary["final_y"], [1.0, 0.0], atol=1e-9)
    assert summary["speed_drift"] <= 1e-12
    csv = (tmp_path / "geodesic.csv").read_text().splitlines()
    assert csv[0] == "t,x1,x2,y1,y2,speed"


def test_geodesic_hemisphere_exit(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "hemisphere", "geodesic", "--x0", "0,0", "--y0", "1,0", "--t-end", "3"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["exit_reason"] == "LeftChart"
    assert summary["t_reached"] == pytest.approx(math.asin(0.8), abs=1e-6)


def test_geodesic_bad_start(tmp_path, monkeypatch):
    code = run_cli(
        ["--surface", "hemisphere", "geodesic", "--x0", "0.9,0", "--y0", "1,0", "--t-end", "1"],
        tmp_path, monkeypatch,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# jacobian command
# ---------------------------------------------------------------------------


def test_jacobian_flat(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "flat", "jacobian", "--x0", "0,0", "--y0", "0.5,0.2",
         "--t", "1", "--fd-check"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    expected = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    np.testing.assert_allclose(np.array(out["matrix"]), expected, atol=1e-10)
    assert out["max_abs_diff"] <= 1e-5


def test_jacobian_identity_at_zero(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "hemisphere", "jacobian", "--x0", "0.1,0", "--y0", "1,0", "--t", "0"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_array_equal(np.array(out["matrix"]), np.eye(4))


@pytest.mark.parametrize("command, rest", [
    ("geodesic", ["--t-end", "0.3"]),
    ("jacobian", ["--t", "0.3"]),
    ("minimality", ["--t-end", "0.3", "--resolution", "16"]),
])
def test_start_outside_chart_is_bad_input(command, rest, tmp_path, monkeypatch):
    argv = ["--surface", "hemisphere", command, "--x0", "0.9,0", "--y0", "1,0"] + rest
    assert run_cli(argv, tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("argv", [
    ["--surface", "c21_cubic", "smooth-converge", "--scales", "0.1,abc"],
    ["--surface", "c21_cubic", "smooth-converge", "--scales", "0.05,0.1"],
    ["--surface", "c21_cubic", "smooth-converge", "--scales", "0.1"],
    ["--surface", "c21_cubic", "smooth-converge", "--scales", "0.2,0.1", "--probes", "0"],
    ["--surface", "flat", "minimality", "--x0", "0,0", "--y0", "1,0", "--t-end", "0.3",
     "--resolution", "4"],
    ["--surface", "flat", "geodesic", "--x0", "0,0", "--y0", "1,0", "--t-end", "0.3",
     "--tol", "-1"],
    ["--surface", "flat", "jacobian", "--x0", "0,0", "--y0", "1,0", "--t", "0.3",
     "--tol", "nan"],
    ["--seed", "-1", "report", "--suites", "flow"],
    ["--surface", "vee", "geodesic", "--x0", "0,0", "--y0", "1e300,0", "--t-end", "0.3"],
    ["--surface", "vee", "geodesic", "--x0", "0,0", "--y0", "1e160,0", "--t-end", "0.3"],
    # an --out that is a directory (the working directory) cannot be written
    ["--surface", "flat", "geodesic", "--x0", "0,0", "--y0", "1,0", "--t-end", "0.1", "--out", "."],
    ["--surface", "flat", "jacobian", "--x0", "0,0", "--y0", "1,0", "--t", "0.1", "--out", "."],
])
def test_bad_arguments_exit_2(argv, tmp_path, monkeypatch, capsys):
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_jacobian_out_of_domain(tmp_path, monkeypatch):
    code = run_cli(
        ["--surface", "hemisphere", "jacobian", "--x0", "0,0", "--y0", "1,0", "--t", "3"],
        tmp_path, monkeypatch,
    )
    assert code == 3


# ---------------------------------------------------------------------------
# smooth-converge command
# ---------------------------------------------------------------------------


def test_smooth_converge_smoke(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "c21_cubic", "smooth-converge", "--scales", "0.1,0.05",
         "--probes", "4"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) >= {"scales", "metric_c1", "pi_c0", "flow_c0", "dflow_c0", "verdict"}
    assert (tmp_path / "delta-vs-level.csv").exists()


def test_smooth_converge_csv_matches_json(tmp_path, monkeypatch, capsys):
    # the CSV holds the report's per-level columns; flow_c0 and dflow_c0 are
    # distances between successive levels, so the last level's are NaN
    code = run_cli(["--surface", "c21_cubic", "smooth-converge", "--scales", "0.1,0.07,0.05",
                    "--probes", "4"], tmp_path, monkeypatch)
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    header, *rows = (tmp_path / "delta-vs-level.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), np.array([[float(v) for v in r.split(",")] for r in rows]).T))
    assert columns["level"].tolist() == [0, 1, 2]
    assert columns["scale"].tolist() == out["scales"]
    for key in ("metric_c1", "pi_c0"):
        assert columns[key].tolist() == out[key]
    for key in ("flow_c0", "dflow_c0"):
        assert columns[key][:-1].tolist() == out[key] and np.isnan(columns[key][-1])


def test_smooth_converge_domain_too_small(tmp_path, monkeypatch):
    code = run_cli(
        ["--surface", "hemisphere", "smooth-converge", "--scales", "0.1,0.05",
         "--probes", "2"],
        tmp_path, monkeypatch,
    )
    assert code == 3


def test_smooth_converge_coarse_scale_exit_3(tmp_path, monkeypatch, capsys):
    # eps = 0.7 leaves a 2 x 2 spline grid on vee's chart: an error line, no traceback
    code = run_cli(["--surface", "vee", "smooth-converge", "--scales", "0.7,0.6"],
                   tmp_path, monkeypatch)
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "spline grid" in err[0]


@pytest.mark.parametrize("surface, verdict", [("vee", "inconclusive"), ("flat", "converging")])
def test_smooth_converge_two_scales_verdict(surface, verdict, tmp_path, monkeypatch, capsys):
    # two scales give one successive distance, which shows no shrink: vee's
    # positive distance is inconclusive; flat's levels agree exactly, and an
    # all-zero sequence counts as converging
    argv = ["--seed", "1", "--surface", surface, "smooth-converge", "--scales", "0.2,0.1", "--probes", "4"]
    assert run_cli(argv, tmp_path, monkeypatch) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["flow_c0"]) == 1 and (out["flow_c0"][0] > 0) == (surface == "vee")
    assert out["verdict"] == verdict


def test_numpy_scalar_shown_as_number(tmp_path, monkeypatch, capsys):
    # the CLI parses scales into numpy floats; the message shows the number
    argv = ["--surface", "vee", "smooth-converge", "--scales", "0.2,-0.1"]
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: each scale must be finite, > 0, got -0.1"


FLAT_START = ["--x0", "0,0", "--y0", "1,0"]


@pytest.mark.parametrize("argv, output, work", [
    (["smooth-converge", "--out", "missing/c.json"], {}, "approximation_sequence"),
    (["smooth-converge"], {"convergence_csv": "missing/d.csv"}, "approximation_sequence"),
    (["geodesic", *FLAT_START, "--t-end", "0.1", "--out", "missing/g.csv"], {}, "integrate_geodesic"),
    (["geodesic", *FLAT_START, "--t-end", "0.1"], {"summary_json": "missing/g.json"}, "integrate_geodesic"),
    (["jacobian", *FLAT_START, "--t", "0.1", "--out", "missing/j.json"], {}, "flow_differential"),
    (["minimality", *FLAT_START, "--t-end", "0.1", "--out", "missing/m.json"], {}, "integrate_geodesic"),
    (["report", "--suites", "flow", "--out", "missing/r.json"], {}, "SUITES"),
], ids=["smooth-json", "smooth-csv", "geodesic-csv", "geodesic-json", "jacobian", "minimality",
        "report"])
def test_missing_output_directory_fails_before_work(argv, output, work, tmp_path, monkeypatch,
                                                    capsys):
    # every JSON and CSV path is checked up front: exit 2 with the OSError
    # writing would raise, and no study, integration or suite is run
    from geoflow import cli

    calls = []

    def fail(*args, **kwargs):
        calls.append(work)
        raise AssertionError(f"{work} ran")

    if work == "SUITES":
        monkeypatch.setitem(cli.SUITES, "flow", fail)
    else:
        monkeypatch.setattr(cli.reg if work == "approximation_sequence" else cli, work, fail)
    (tmp_path / "cfg.json").write_text(json.dumps({"surface": {"type": "catalog", "name": "vee"},
                                                   "output": output}))
    assert run_cli(["--config", "cfg.json", *argv], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert calls == []
    assert len(err) == 1 and err[0].startswith("error: [Errno 2] No such file or directory: 'missing/")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# ---------------------------------------------------------------------------
# minimality command
# ---------------------------------------------------------------------------


def test_minimality_negative_coordinates(tmp_path, monkeypatch, capsys):
    # leading-dash vector values must not be mistaken for option names
    code = run_cli(
        ["--surface", "vee", "minimality", "--x0", "-0.15,0", "--y0", "0.9,0.3",
         "--t-end", "0.3", "--resolution", "64"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["margin"] >= 0.0


def test_minimality_flat(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["--surface", "flat", "minimality", "--x0", "0,0", "--y0", "1,0",
         "--t-end", "0.5", "--resolution", "64"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["margin"] >= 0.0
    assert out["verdict"] == "minimal_within_mesh_error"


# ---------------------------------------------------------------------------
# report command
# ---------------------------------------------------------------------------


def test_report_passes(tmp_path, monkeypatch, capsys):
    code = run_cli(["report", "--suites", "flow,regularity"], tmp_path, monkeypatch)
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True


@pytest.mark.parametrize("seed", range(10))
def test_flow_suite_passes(seed):
    # speed conservation and composition on every C2-and-better surface,
    # c2alpha's ridge included, at the default tolerances
    failed = [c["name"] for c in _suite_flow(DEFAULT_TOLERANCES, seed) if not c["passed"]]
    assert failed == []


def test_report_impossible_tolerance(tmp_path, monkeypatch):
    cfg = {"tolerances": {"conservation": 1e-30}, "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(
        ["--config", str(path), "report", "--suites", "flow"], tmp_path, monkeypatch
    )
    assert code == 1


def test_report_empty_suites(tmp_path, monkeypatch, capsys):
    assert run_cli(["report", "--suites", ""], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_report_unknown_suite(tmp_path, monkeypatch, capsys):
    assert run_cli(["report", "--suites", "bogus"], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_report_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--seed", "3", "report", "--suites", "regularity", "--out", "a.json"]) == 0
    assert main(["--seed", "3", "report", "--suites", "regularity", "--out", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_roundtrip():
    cfg = RunConfig(
        surface={"type": "catalog", "name": "vee"},
        tolerances={"conservation": 1e-9},
        output={"report_json": "r.json"},
        suites=["flow"],
        seed=42,
    )
    assert RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"nope": 1})


@pytest.mark.parametrize("tolerances", [
    {"composiion": 1e-30},
    {"composition": "tight"},
    {"composition": float("inf")},
    {"margin": True},
])
def test_config_rejects_bad_tolerances(tolerances, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"tolerances": tolerances})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": tolerances}))
    assert run_cli(["--config", str(path), "report", "--suites", "regularity"],
                   tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
def test_config_rejects_bad_seed(seed, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": seed})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": seed}))
    assert run_cli(["--config", str(path), "report", "--suites", "flow"], tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("config", [
    3, None, [["seed", 1]],
    {"surface": "flat"},
    {"output": 3},
    {"output": {"summary_json": 2}},
    {"output": {"trajectory_csv": None}},
    {"suites": "flow"},
    {"suites": ["flow", 1]},
], ids=["top-int", "top-null", "top-list", "surface-str", "output-int", "output-fd",
        "output-null-path", "suites-str", "suites-int-entry"])
def test_config_malformed_value_exit_2(config, tmp_path, monkeypatch, capsys):
    # rejected before any output is opened: no file, and no file descriptor
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["--config", str(tmp_path / "cfg.json"), "geodesic", "--x0", "0,0", "--y0", "1,0",
            "--t-end", "0.1"]
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert opened == [str(tmp_path / "cfg.json")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_bad_file(tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["--config", str(path), "surface", "list"], tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe{\x00")],
                         ids=["directory", "binary"])
def test_config_unreadable_file_exit_2(make, tmp_path, monkeypatch, capsys):
    # an OSError or a decode error is bad configuration, not a failed verdict with a traceback
    path = tmp_path / "cfg.json"
    make(path)
    assert run_cli(["--config", str(path), "report", "--suites", "flow"], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


GRID_13 = np.zeros((13, 13)).tolist()


@pytest.mark.parametrize("flags, spec", [
    ([], {"type": "grid", "samples": np.zeros((12, 20)).tolist(), "domain": [[0, 1], [0, 1]]}),
    ([], {"type": "grid", "samples": [[0.0] * 13] * 12 + [[0.0] * 12], "domain": [[0, 1], [0, 1]]}),
    ([], {"type": "grid", "samples": [0.0] * 13, "domain": [[0, 1], [0, 1]]}),
    ([], {"type": "grid", "samples": [[float("nan")] * 13] * 13, "domain": [[0, 1], [0, 1]]}),
    ([], {"type": "grid", "samples": GRID_13, "domain": [0, 1]}),
    ([], {"type": "grid", "samples": GRID_13, "domain": [[0, 1]]}),
    (["--surface", "c2alpha", "--alpha", "2"], None),
    (["--surface", "c2alpha", "--alpha", "nan"], None),
    (["--surface", "c2alpha", "--alpha", "0"], None),
    (["--surface", "vee", "--alpha", "0.5"], None),
    ([], {"type": "catalog", "name": "flat", "alpha": 0.5}),
    ([], {"type": "catalog", "name": "c2alpha", "alpha": "x"}),
    (["--alpha", "0.3"], None),
    ([], {"type": "grid", "samples": GRID_13, "domain": [[0, 1], [0, 1]], "regularity": "C2",
          "alpha": 0.5}),
], ids=["12-rows", "ragged", "1d", "nan", "flat-domain", "one-pair-domain",
        "alpha-2", "alpha-nan", "alpha-0", "alpha-on-vee", "alpha-on-flat", "alpha-str",
        "alpha-flag-on-default-flat", "alpha-on-grid-c2"])
def test_malformed_surface_spec_exit_2(flags, spec, tmp_path, monkeypatch, capsys):
    if spec is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"surface": spec}))
        flags = ["--config", str(tmp_path / "cfg.json")]
    argv = flags + ["geodesic", "--x0", "0.5,0.5", "--y0", "1,0", "--t-end", "0.1"]
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_alpha_flag_reaches_config_surface(tmp_path, monkeypatch, capsys):
    # flags override the file: --alpha sets the exponent of a config file's
    # surface as it does for one named by --surface
    (tmp_path / "c.json").write_text(json.dumps({"surface": {"type": "catalog", "name": "c2alpha"}}))
    matrices = []
    for flags in (["--config", "c.json", "--alpha", "0.9"], ["--surface", "c2alpha", "--alpha", "0.9"],
                  ["--config", "c.json"]):
        argv = flags + ["jacobian", "--x0", "0.1,0", "--y0", "1,0", "--t", "0.2"]
        assert run_cli(argv, tmp_path, monkeypatch) == 0
        matrices.append(json.loads(capsys.readouterr().out)["matrix"])
    assert matrices[0] == matrices[1] != matrices[2]


JACOBIAN_RUN = ["jacobian", "--x0", "0.1,0", "--y0", "1,0", "--t", "0.1"]
MINIMALITY_RUN = ["minimality", "--x0", "0.1,0", "--y0", "1,0", "--t-end", "0.1", "--resolution", "16"]
REPORT_RUN = ["report", "--suites", "regularity"]


@pytest.mark.parametrize("flags, command", [
    (["--seed", "1"], ["surface", "list"]),
    (["--surface", "vee"], ["surface", "list"]),
    (["--alpha", "0.3"], ["surface", "list"]),
    (["--seed", "1"], ["surface", "info", "c2alpha"]),
    (["--surface", "vee"], ["surface", "info", "c2alpha"]),
    (["--seed", "1"], JACOBIAN_RUN),
    (["--seed", "1"], MINIMALITY_RUN),
    (["--surface", "vee"], REPORT_RUN),
    (["--alpha", "0.3"], REPORT_RUN),
], ids=["seed-list", "surface-list", "alpha-list", "seed-info", "surface-info", "seed-jacobian",
        "seed-minimality", "surface-report", "alpha-report"])
def test_global_flag_a_command_does_not_read_exit_2(flags, command, tmp_path, monkeypatch, capsys):
    # refused before the config is read: the missing config file is not the error
    argv = ["--config", "missing.json", *flags, *command]
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flags[0]} is not read by this command")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [
    {"surface": {"type": "catalog", "name": "c2alpha", "alpah": 0.3}},
    {"surface": {"type": "catalog", "name": "c2alpha", "regularity": "C2alpha"}},
    {"surface": {"type": "grid", "samples": GRID_13, "domain": [[-1, 1], [-1, 1]], "regularty": "C2"}},
    {"surface": {"type": "grid", "samples": GRID_13, "domain": [[-1, 1], [-1, 1]], "regularity": "Smooth"}},
    {"surface": {"type": "catalog", "name": "c2alpha", "alpha": None}},
    {"surface": {"type": "catalog", "name": "c2alpha"}, "output": {"jacobian_jsn": "j.json"}},
], ids=["misspelt-parameter", "grid-key-in-catalog-spec", "misspelt-grid-key", "Smooth",
        "null-alpha", "misspelt-output-key"])
def test_config_key_nothing_reads_exit_2(config, tmp_path, monkeypatch, capsys):
    # a key is a parameter of the builder, or a known output, or exit 2 before any output is opened
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli(["--config", "cfg.json", *JACOBIAN_RUN], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert opened == ["cfg.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_catalog_spec_keys_reach_the_builder(tmp_path, monkeypatch):
    # a catalog entry's builder parameters are spec keys with no code naming them
    from geoflow.catalog import CATALOG, SurfaceCatalogEntry, make_surface

    tilts = []

    def build(tilt=0.0):
        tilts.append(tilt)
        return make_surface("flat")

    monkeypatch.setitem(CATALOG, "tilted", SurfaceCatalogEntry("flat, with a tilt", build))
    (tmp_path / "cfg.json").write_text(json.dumps({"surface": {"type": "catalog", "name": "tilted",
                                                               "tilt": 0.25}}))
    assert run_cli(["--config", "cfg.json", *JACOBIAN_RUN], tmp_path, monkeypatch) == 0
    assert tilts == [0.25]


def test_grid_surface_spec(tmp_path, monkeypatch, capsys):
    xa = np.linspace(-0.5, 0.5, 33)
    samples = np.zeros((33, 33))
    cfg = {
        "surface": {
            "type": "grid",
            "samples": samples.tolist(),
            "domain": [[-0.5, 0.5], [-0.5, 0.5]],
            "regularity": "smooth",
        },
        "seed": 0,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(
        ["--config", str(path), "geodesic", "--x0", "0,0", "--y0", "0.5,0",
         "--t-end", "0.4"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(out["final_x"], [0.2, 0.0], atol=1e-8)


def run_fresh(code, **kwargs):
    """Run a code string in a fresh interpreter that imports geoflow from this
    checkout; raises CalledProcessError unless it exits 0."""
    src = str(Path(geoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, **kwargs)


def test_cli_loads_scipy_only_where_used(tmp_path):
    # scipy is imported where it is used: importing the CLI and running the
    # numpy-only commands loads no scipy module; minimality, smooth-converge
    # and report with every suite, which need scipy.sparse.csgraph and
    # scipy.interpolate, still run from a cold start; and no command loads
    # scipy.integrate
    numpy_only = [
        ["surface", "list"],
        ["--surface", "vee", "geodesic", "--x0", "-0.1,0.05", "--y0", "1,0.3", "--t-end", "0.3"],
        ["--surface", "vee", "jacobian", "--x0", "-0.1,0.05", "--y0", "1,0.3", "--t", "0.3",
         "--fd-check"],
    ]
    code = (
        "import sys\n"
        "from geoflow.cli import main\n"
        "def no_scipy():\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    assert not loaded, loaded[:5]\n"
        "no_scipy()\n"
        f"for argv in {numpy_only!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    no_scipy()\n"
    )
    run_fresh(code, cwd=tmp_path, timeout=120, stdout=subprocess.DEVNULL)
    scipy_users = [
        ["--surface", "vee", "minimality", "--x0", "-0.1,0.05", "--y0", "1,0.3", "--t-end", "0.3",
         "--resolution", "32"],
        ["--surface", "vee", "smooth-converge", "--scales", "0.2,0.1", "--probes", "2"],
        ["--seed", "0", "report", "--suites", "surface,flow,jacobi,minimality,regularity"],
    ]
    code = (
        "import sys\n"
        "from geoflow.cli import main\n"
        f"for argv in {scipy_users!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.integrate'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    run_fresh(code, cwd=tmp_path, timeout=120, stdout=subprocess.DEVNULL)


def test_smooth_converge_peak_rss(tmp_path):
    # the default scales smooth a 2049 x 2049 fine grid at the finest level;
    # mollifying in strips keeps the whole run far below the ~410 MB that
    # holding that grid takes (ru_maxrss is in KiB on Linux)
    code = (
        "import resource, sys\n"
        "from geoflow.cli import main\n"
        "code = main(['--seed', '12345', '--surface', 'vee', 'smooth-converge'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    run = run_fresh(code, cwd=tmp_path, timeout=300, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True)
    max_rss_kib = int(run.stderr.split()[-1])
    assert max_rss_kib <= 250 * 1024, max_rss_kib
