"""`geoflow report` against its recorded output in
tests/data/report_seed<seed>.json: with no flags (every criterion at seed 0),
and with `--suites flow` at --seed 3 and 7, the seeds whose crease-crossing
geodesics failed speed conservation before the integrator stopped its steps
at creases.

Names, seeds, limits, verdicts and every string and count must match exactly,
and every other number within 1e-12 relative. A change that moves a value
further regenerates the files with

    geoflow report --out tests/data/report_seed0.json
    geoflow --seed 3 report --suites flow --out tests/data/report_seed3.json

(likewise for seed 7) and states why.
"""

import json
from pathlib import Path

import pytest

from geoflow.cli import main

DATA = Path(__file__).parent / "data"


def assert_close(got, want, where):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0), where
    else:
        assert got == want and type(got) is type(want), where


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_report_matches_golden(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["report"] if seed == 0 else ["--seed", str(seed), "report", "--suites", "flow"]
    code = main([*argv, "--out", "report.json"])
    got = json.loads((tmp_path / "report.json").read_text())
    want = json.loads((DATA / f"report_seed{seed}.json").read_text())
    assert code == (0 if want["all_passed"] else 1)
    assert_close(got, want, "report")
