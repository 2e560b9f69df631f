"""`geoflow smooth-converge` at --seed 12345 against its recorded output in
tests/data/smooth_converge_<surface>.json.

Keys, verdict and pruned probes must match exactly and every value within
1e-12 relative. A change that moves a value further regenerates the files
with

    geoflow --seed 12345 --surface <surface> smooth-converge \
        --scales 0.1,0.05,0.025 --probes 4 \
        --out tests/data/smooth_converge_<surface>.json

and states why.
"""

import json
from pathlib import Path

import pytest

from geoflow.cli import main

DATA = Path(__file__).parent / "data"
EXACT = ("schema", "surface", "seed", "verdict", "pruned_probes")


@pytest.mark.parametrize("surface", ["c21_cubic", "c2alpha", "vee"])
def test_smooth_converge_matches_golden(surface, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--seed", "12345", "--surface", surface, "smooth-converge",
            "--scales", "0.1,0.05,0.025", "--probes", "4", "--out", "convergence.json"]
    assert main(argv) == 0
    got = json.loads((tmp_path / "convergence.json").read_text())
    want = json.loads((DATA / f"smooth_converge_{surface}.json").read_text())
    assert list(got) == list(want)
    for key in EXACT:
        assert got[key] == want[key], key
    for key in set(want) - set(EXACT):
        assert len(got[key]) == len(want[key]), key
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), key
