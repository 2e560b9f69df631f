"""The acceptance criteria of geoflow.criteria, one test per row: each row
passes at its own seed within its runtime budget.

Each test prints a single PASS/FAIL line with the numbers the row's pass rule
reads and its wall time (run with `pytest -s` to see them live).
"""

import time

import pytest

from geoflow.criteria import CRITERIA


@pytest.mark.parametrize("row", CRITERIA, ids=lambda row: row.name)
def test_criterion(row):
    t0 = time.perf_counter()
    record = row.run()
    elapsed = time.perf_counter() - t0
    status = "PASS" if record["passed"] and elapsed < row.budget else "FAIL"
    print(f"ACCEPTANCE {row.name}: {status} ({record['values']}, {elapsed:.2f}s/{row.budget:g}s)")
    assert record["passed"], f"{row.name}: {record['values']}"
    assert elapsed < row.budget, f"{row.name}: runtime {elapsed:.1f}s over budget {row.budget}s"
