"""Runtime checks must not rely on `assert`, which `python -O` strips."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cycaut

PACKAGE = Path(cycaut.__file__).parent


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _verify_table_records(*python_flags):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, *python_flags, "-m", "cycaut", "--json", "verify-table"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    for record in records:
        record.pop("elapsed_ms")
    return records


def test_optimized_run_gives_the_same_records():
    plain = _verify_table_records()
    assert len(plain) == 13
    assert _verify_table_records("-O") == plain
