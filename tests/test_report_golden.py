"""`geoflow report` with all five suites at --seed 0, 3 and 7 against its
recorded output in tests/data/report_seed<seed>.json. Seeds 3 and 7 are the
ones whose crease-crossing geodesics failed the report before the integrator
stopped its steps at creases.

Names, order, limits and verdicts must match exactly and every value within
1e-12 relative. A change that moves a value further regenerates the files with

    geoflow --seed 0 report --suites surface,flow,jacobi,minimality,regularity \
        --out tests/data/report_seed0.json

(likewise for seeds 3 and 7) and states why.
"""

import json
from pathlib import Path

import pytest

from geoflow.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_report_matches_golden(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--seed", str(seed), "report", "--suites", "surface,flow,jacobi,minimality,regularity",
            "--out", "report.json"]
    code = main(argv)
    got = json.loads((tmp_path / "report.json").read_text())
    want = json.loads((DATA / f"report_seed{seed}.json").read_text())
    assert code == (0 if want["all_passed"] else 1)
    assert {k: v for k, v in got.items() if k != "suites"} == \
        {k: v for k, v in want.items() if k != "suites"}
    assert list(got["suites"]) == list(want["suites"])
    for name, suite in want["suites"].items():
        checks = got["suites"][name]["checks"]
        assert got["suites"][name]["passed"] == suite["passed"], name
        assert [(c["name"], c["limit"], c["passed"]) for c in checks] == \
            [(c["name"], c["limit"], c["passed"]) for c in suite["checks"]]
        for c, w in zip(checks, suite["checks"]):
            assert c["value"] == pytest.approx(w["value"], rel=1e-12, abs=0), c["name"]
