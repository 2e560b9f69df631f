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
    assert main(["--surface", "c2alpha", "--alpha", "0.3", "surface", "info", "c2alpha"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["regularity"] == "C2alpha(0.3)"
    assert info["curvature_sup"] == pytest.approx(1.6425986, abs=1e-7)
    assert list(info)[4:7] == ["grad_sup", "hess_sup", "curvature_sup"]


def test_surface_info_unknown():
    assert main(["surface", "info", "nosuch"]) == 2


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


def test_smooth_converge_domain_too_small(tmp_path, monkeypatch):
    code = run_cli(
        ["--surface", "hemisphere", "smooth-converge", "--scales", "0.1,0.05",
         "--probes", "2"],
        tmp_path, monkeypatch,
    )
    assert code == 3


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


def test_report_empty_suites(tmp_path, monkeypatch):
    assert run_cli(["report", "--suites", ""], tmp_path, monkeypatch) == 2


def test_report_unknown_suite(tmp_path, monkeypatch):
    assert run_cli(["report", "--suites", "bogus"], tmp_path, monkeypatch) == 2


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
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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


def test_config_bad_file(tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["--config", str(path), "surface", "list"], tmp_path, monkeypatch) == 2


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
], ids=["12-rows", "ragged", "1d", "nan", "flat-domain", "one-pair-domain",
        "alpha-2", "alpha-nan", "alpha-0", "alpha-on-vee"])
def test_malformed_surface_spec_exit_2(flags, spec, tmp_path, monkeypatch, capsys):
    if spec is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"surface": spec}))
        flags = ["--config", str(tmp_path / "cfg.json")]
    argv = flags + ["geodesic", "--x0", "0.5,0.5", "--y0", "1,0", "--t-end", "0.1"]
    assert run_cli(argv, tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


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


def test_cli_import_skips_scipy_signal():
    # scipy.signal takes most of the CLI's import time and nothing needs it
    src = str(Path(geoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import geoflow.cli, sys; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
