"""The benchmark's entry points into the package still resolve.

`bench/tracing.py` wraps cycaut functions, constructors and methods by
(module, attribute path), and `bench/workloads.py` calls a few of them
directly.  A rename or a dropped parameter in the package would break a
benchmark run, traced or not, that no other test makes.  The bench files
are not a package, so they are loaded here by file path, unchanged."""

import importlib
import importlib.util
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracing")
WORKLOADS = _load("workloads")


@pytest.fixture
def mods():
    """Every cycaut module a layer names, as `bench/run.py` hands them on."""
    return {module: importlib.import_module(f"cycaut.{module}") for _, module, _ in TRACING.LAYERS}


@pytest.mark.parametrize(
    ("module", "path"),
    [(module, path) for _, module, path in TRACING.LAYERS],
    ids=[name for name, _, _ in TRACING.LAYERS],
)
def test_every_traced_layer_resolves(mods, module, path):
    target = mods[module]
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_traced_table_default_pass(mods, tmp_path):
    """One traced pass of table-default, set up and checked as the
    harness does it: every claim passes and carries its drawn seed."""
    workload = WORKLOADS.WORKLOADS["table-default"]
    tracer = TRACING.Tracer()
    tracer.install(mods)
    try:
        state = workload.prepare(mods, 1, tmp_path)
        tracer.item = (0, 0)
        outputs, latencies = workload.run_pass(state, tracer)
    finally:
        tracer.uninstall()
    assert workload.check(state, [outputs]) == (len(state["entries"]), 0)
    assert len(latencies) == len(state["entries"]) and state["seeds"]
    layers = tracer.per_layer(1)
    for name in ("cli.main", "manifest.run_entry", "verify.verify_claim", "verify.sample_outside"):
        assert layers[f"{name}.calls"] > 0, name


def test_chain_membership_calls_at_a_small_size(mods):
    """The set-up calls of chain-membership (`load_manifest(path)`,
    `expand_constructions(code, specs)`, `PermGroup.random_element`) on
    the block-rows group with two rows (n = 62) instead of BLOCK_K: its
    drawn elements must pass the workload's own membership oracle."""
    manifest = mods["manifest"]
    extended = manifest.load_manifest(manifest.extended_manifest_path())
    entry = WORKLOADS.block_rows_entry(extended, 2)
    code = mods["code"].CyclicCode(entry["n"], mods["gf2poly"].parse_poly_product(entry["generator"]))
    gens = manifest.expand_constructions(code, entry["construction"])
    group = mods["group"].PermGroup([p for _, p in gens], degree=code.length)
    assert group.order() == WORKLOADS.block_rows_order(2)
    units = WORKLOADS.preserving_multipliers(WORKLOADS.clmul(*WORKLOADS.QUINTICS), WORKLOADS.COLS)
    rng = Random(0)
    for _ in range(5):
        member = group.random_element(rng.getrandbits(63))
        assert WORKLOADS._in_block_rows_group(member.images, units)
        assert group.contains(member)
