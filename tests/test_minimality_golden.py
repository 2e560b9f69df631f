"""`geoflow minimality --resolution 256` on all six catalog surfaces against
its recorded output in tests/data/minimality_res256.json. Each case holds the
argument list and the JSON the command wrote. Two hemisphere geodesics run
close to the chart's rim, where the straight king walk between the snapped
ends leaves the chart and the search falls back to the whole grid.

`verdict`, `hops` and the other non-float keys must match exactly and every
float within 1e-12 relative. A change that moves a value further reruns each
case's `argv` with `--out`, stores the written JSON as its `output` and states
why.
"""

import json
from pathlib import Path

import pytest

from geoflow.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "minimality_res256.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{c['argv'][1]}-{k}" for k, c in enumerate(CASES)])
def test_minimality_matches_golden(case, tmp_path):
    out = tmp_path / "minimality.json"
    assert main(case["argv"] + ["--out", str(out)]) == 0
    got, want = json.loads(out.read_text()), case["output"]
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, (float, list)):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
        else:
            assert got[key] == value, key
