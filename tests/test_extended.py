"""The extended manifest (lengths 961 and 1922) and the long one
(lengths 3844 and 29791), with runtime budgets.

All four claims are block-rows constructions, so their orders come from
the residue-class block system (31 classes of 31k points) with a
degree-31 chain, not from a chain on all n points; the extended pair
takes under a second.  The len961 claim scaled to k = 124 blocks of rows
(n = 3844) has a claim of 6,426 digits, past CPython's default limit on
integer string conversion, and scaled to k = 961 (n = 29791 = 31^3) one
of 75,982 digits.  Run alone with:

    python -m pytest tests/test_extended.py -v -s
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cycaut.manifest import extended_manifest_path, load_manifest, long_manifest_path, run_entry

ROOT = Path(__file__).resolve().parent.parent
# CPython 3.10.0-3.10.6 have no limit on integer string conversion.
HAS_LIMIT = hasattr(sys, "set_int_max_str_digits")


@pytest.mark.parametrize(
    ("index", "budget_s"), [(0, 0.5), (1, 0.5)], ids=["len961", "len1922"]
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


@contextlib.contextmanager
def _digit_limit(digits):
    """Set the process-wide integer string conversion limit, and restore
    it afterwards: an in-process `cycaut.cli.main` call lifts it."""
    if not HAS_LIMIT:
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _scaled_entry(k):
    """The len961 claim with k blocks of rows: n = 31k, order 310*(k!)^31."""
    entry = json.loads(json.dumps(load_manifest(extended_manifest_path())[0]))
    entry.update(
        name=f"len{31 * k}-block-rows",
        n=31 * k,
        expected_order_factors=[[310, 1], [math.factorial(k), 31]],
    )
    with _digit_limit(0):
        entry["expected_order"] = str(310 * math.factorial(k) ** 31)
    for spec in entry["construction"]:
        spec["k"] = k
    return entry


def test_claim_beyond_the_digit_limit_passes(tmp_path):
    entry = _scaled_entry(124)
    assert len(entry["expected_order"]) == 6426
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([entry]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cycaut", "--json", "verify-table", str(path)],
        env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["pass"] is True
    assert record["computed_order"] == record["expected_order"] == entry["expected_order"]
    assert elapsed < 2.5, f"n = 3844 took {elapsed:.1f}s, budget 2.5s"


def test_long_manifest_passes():
    # both claims, n = 3844 and n = 29791, as one verify-table run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cycaut", "--json", "verify-table", long_manifest_path()],
        env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["name"], r["n"], r["pass"]) for r in records] == [
        ("len3844-two-quintics", 3844, True),
        ("len29791-two-quintics", 29791, True),
    ]
    with _digit_limit(0):
        for record, k in zip(records, (124, 961)):
            claim = str(310 * math.factorial(k) ** 31)
            assert record["computed_order"] == record["expected_order"] == claim
    assert elapsed < 5.0, f"the long manifest took {elapsed:.1f}s, budget 5.0s"


@pytest.mark.skipif(not HAS_LIMIT, reason="no limit on integer string conversion")
def test_the_digit_limit_is_named_at_load(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([_scaled_entry(124)]))
    with _digit_limit(4300), pytest.raises(ValueError) as info:
        load_manifest(str(path))
    assert str(info.value).startswith("entry 'len3844-block-rows': expected_order: Exceeds the limit")
