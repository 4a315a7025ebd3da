"""Chain-identity regression: the stabilizer chains of two default-manifest
groups and of the n = 186 block-rows group (from the 72 generators of
`test_group._block_rows_186`) are pinned (base, orbit sizes, order,
seeded random elements), so any change to how the chain is built must
reproduce it exactly.

The random elements are pinned by a SHA-256 prefix of their cycle
notation; `random_element` walks the chain's transversals in order, so it
changes whenever a transversal or the orbit order changes."""

import hashlib
import math

import pytest
from test_group import _block_rows_186

from cycaut.group import PermGroup
from cycaut.manifest import _code_for, default_manifest_path, expand_constructions, load_manifest

ENTRIES = {e["name"]: e for e in load_manifest(default_manifest_path())}

PINNED = {
    "len49-block-rows": {
        "base": [0, 1, 2, 3, 4, 5, 6, 13, 41, 20, 34, 27, 12, 40, 19, 33, 26, 11, 39, 18, 32,
                 25, 10, 38, 17, 31, 24, 9, 37, 16, 30, 23, 8, 36, 15, 29, 22, 7, 35, 14, 28, 21],
        "orbits": [49, 42, 35, 28, 21, 14, 7] + [6, 5, 4, 3, 2] * 7,
        "order": 5040**8,
        "random": ["8885481c044f9b02", "5024948266cb500c", "2a439f83f0643b5f",
                   "6d78a1e41b63d8a0", "ff5c18c32285271c"],
    },
    "len98-cubic-product": {
        "base": [0, 1, 2, 3, 4, 5, 6, 13, 90, 20, 83, 76, 69, 62, 55, 48, 41, 34, 27, 12, 89,
                 19, 82, 75, 68, 61, 54, 47, 40, 33, 26, 11, 88, 18, 81, 74, 67, 60, 53, 46, 39,
                 32, 25, 10, 87, 17, 80, 73, 66, 59, 52, 45, 38, 31, 24, 9, 86, 16, 79, 72, 65,
                 58, 51, 44, 37, 30, 23, 8, 85, 15, 78, 71, 64, 57, 50, 43, 36, 29, 22, 7, 84,
                 14, 77, 70, 63, 56, 49, 42, 35, 28, 21],
        "orbits": [98, 84, 70, 56, 42, 28, 14] + list(range(13, 1, -1)) * 7,
        "order": math.factorial(7) * math.factorial(14) ** 7,
        "random": ["cd57435ca3983eff", "256a0c1e32b6c49a", "e044a7f6a7d0a97c",
                   "26d1b5dfb1b8d2f6", "dbe335d429a98a96"],
    },
    "len186-block-rows": {
        "base": list(range(31)) + [
            61, 154, 92, 123, 60, 153, 91, 122, 59, 152, 90, 121, 58, 151, 89, 120, 57, 150,
            88, 119, 56, 149, 87, 118, 55, 148, 86, 117, 54, 147, 85, 116, 53, 146, 84, 115,
            52, 145, 83, 114, 51, 144, 82, 113, 50, 143, 81, 112, 49, 142, 80, 111, 48, 141,
            79, 110, 47, 140, 78, 109, 46, 139, 77, 108, 45, 138, 76, 107, 44, 137, 75, 106,
            43, 136, 74, 105, 42, 135, 73, 104, 41, 134, 72, 103, 40, 133, 71, 102, 39, 132,
            70, 101, 38, 131, 69, 100, 37, 130, 68, 99, 36, 129, 67, 98, 35, 128, 66, 97, 34,
            127, 65, 96, 33, 126, 64, 95, 32, 125, 63, 94, 31, 62, 124, 93],
        "orbits": [186, 60] + [6] * 29 + [5, 4, 3, 2] * 31,
        "order": 310 * math.factorial(6) ** 31,
        "random": ["47eaea18a73821ef", "3ebde3b7301b8922", "ddfd4762951cc9ec",
                   "03432c83d5305245", "93cd5607f3b49d6e"],
    },
}


def _group(name):
    if name == "len186-block-rows":
        return PermGroup(_block_rows_186(), degree=186)
    entry = ENTRIES[name]
    code = _code_for(entry["n"], entry["generator"])
    gens = expand_constructions(code, entry["construction"], {})
    return PermGroup([p for _, p in gens], degree=code.length)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_chain_is_pinned(name):
    want = PINNED[name]
    grp = _group(name)
    assert grp.base_points() == want["base"]
    assert grp.orbit_sizes() == want["orbits"]
    assert grp.order() == want["order"]
    got = [hashlib.sha256(str(grp.random_element(s)).encode()).hexdigest()[:16] for s in range(5)]
    assert got == want["random"]
