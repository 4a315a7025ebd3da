"""The extended manifest (lengths 961 and 1922), with runtime budgets.

Both claims are block-rows constructions, so their orders come from the
residue-class block system (31 classes of 31 or 62 points) with a
degree-31 chain, not from a chain on 961 or 1922 points; together they
take under a second.  Run alone with:

    python -m pytest tests/test_extended.py -v -s
"""

import time

import pytest

from cycaut.manifest import extended_manifest_path, load_manifest, run_entry


@pytest.mark.parametrize(
    ("index", "budget_s"), [(0, 1.0), (1, 1.0)], ids=["len961", "len1922"]
)
def test_extended_entry(index, budget_s):
    entry = load_manifest(extended_manifest_path())[index]
    t0 = time.perf_counter()
    report = run_entry(entry, cache={})
    elapsed = time.perf_counter() - t0
    assert report.passed, report.reason
    assert str(report.computed_order) == entry["expected_order"]
    assert report.details["order"]["path"] == "blocks"
    assert elapsed < budget_s, f"{entry['name']} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS {entry['name']} in {elapsed:.2f}s")
