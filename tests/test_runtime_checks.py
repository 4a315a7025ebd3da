"""Runtime checks must not rely on `assert`, which `python -O` strips;
the package keeps no dead private names or stray exports; and the
bundled manifests run every construction kind and inner source but two."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cycaut
from cycaut.manifest import (
    _KINDS,
    _SOURCES,
    default_manifest_path,
    extended_manifest_path,
    load_manifest,
    long_manifest_path,
)

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


def _named(tree) -> Counter:
    """How often each name is read, assigned, defined, imported or taken
    as an attribute within the tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name] += 1
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] += 1
    return found


def _private_definitions(tree):
    """The module-level functions, classes and constants whose names
    start with one underscore, each with its defining statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_definition_is_named_elsewhere_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    named = sum((_named(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if named[name] == _named(node)[name]
    ]
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    path = PACKAGE / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(cycaut.__all__) == sorted(imported)


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


def _tags(node, found):
    """Collect the "kind" and "source" values anywhere in a record tree."""
    if isinstance(node, dict):
        for tag in ("kind", "source"):
            if tag in node:
                found[tag].add(node[tag])
        for value in node.values():
            _tags(value, found)
    elif isinstance(node, list):
        for value in node:
            _tags(value, found)
    return found


def _bundled_entries():
    """The entries of the three bundled manifests; the long one's orders
    have up to 75,982 digits, so the conversion limit is lifted while it
    loads (CPython 3.10.0-3.10.6 have none)."""
    entries = load_manifest(default_manifest_path()) + load_manifest(extended_manifest_path())
    if not hasattr(sys, "set_int_max_str_digits"):
        return entries + load_manifest(long_manifest_path())
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return entries + load_manifest(long_manifest_path())
    finally:
        sys.set_int_max_str_digits(before)


def test_bundled_manifests_use_every_kind_and_source_but_two():
    # the multiplier and perms kinds are run by the schema and
    # construction tests alone
    entries = _bundled_entries()
    assert len(entries) == 17
    found = _tags(entries, {"kind": set(), "source": set()})
    assert found["kind"] == set(_KINDS) - {"multiplier", "perms"}
    assert found["source"] == set(_SOURCES)
