"""The affine order rule: <x -> a_i*x + b_i mod n> with a translation by a
unit has order n * |<a_i>|, found without a chain."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cycaut.group as group_module
import cycaut.manifest as manifest_module
from cycaut.group import PermGroup, affine_order, exact_order
from cycaut.manifest import default_manifest_path, load_manifest, run_entry
from cycaut.perm import Permutation

ENTRIES = {e["name"]: e for e in load_manifest(default_manifest_path())}


def _affine(a, b, n):
    return Permutation(tuple((a * x + b) % n for x in range(n)))


@st.composite
def _affine_pairs(draw, least=2):
    """A modulus least <= n <= 40 and (a, b) pairs with a a unit mod n, with
    a translation by a unit put in at a drawn place about half the time."""
    n = draw(st.integers(least, 40))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    pair = st.tuples(st.sampled_from(units), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, min_size=1, max_size=4))
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), (1, draw(st.sampled_from(units))))
    return n, pairs


def _has_unit_translation(pairs, n):
    return any(a == 1 and gcd(b, n) == 1 for a, b in pairs)


class TestAgainstTheChain:
    @settings(max_examples=150, deadline=None)
    @given(_affine_pairs())
    def test_order_is_the_chain_order(self, drawn):
        n, pairs = drawn
        gens = [_affine(a, b, n) for a, b in pairs]
        chain = PermGroup(gens, degree=n).order()
        found = affine_order(gens, n)
        if _has_unit_translation(pairs, n):
            assert found == (chain, {"path": "affine", "multipliers": chain // n})
        else:
            assert found is None
        assert exact_order(gens, n)[0] == chain

    @settings(max_examples=150, deadline=None)
    @given(_affine_pairs(least=5), st.data())
    def test_declines_a_generator_composed_with_a_transposition(self, drawn, data):
        # for n >= 5 two affine maps agree on at most n/2 points, so a
        # transposition never leaves the map affine
        n, pairs = drawn
        pairs = [(1, 1), *pairs]
        gens = [_affine(a, b, n) for a, b in pairs]
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        swap = list(range(n))
        swap[i], swap[j] = j, i
        at = data.draw(st.integers(0, len(gens) - 1))
        gens[at] = gens[at] * Permutation(tuple(swap))
        assert affine_order(gens, n) is None


class TestCases:
    def test_a_translation_by_a_non_unit_is_not_enough(self):
        # <x+3, 2x> mod 9 has order 18: the translations by 0, 3, 6 and
        # the six units, not 9 * 6
        gens = [_affine(1, 3, 9), _affine(2, 0, 9)]
        assert affine_order(gens, 9) is None
        assert exact_order(gens, 9)[0] == PermGroup(gens, degree=9).order() == 18

    def test_every_point_is_checked(self):
        # 2x on 0..6 with points 3 and 5 swapped agrees with 2x at 0 and 1
        bent = _affine(2, 0, 7) * Permutation((0, 1, 2, 5, 4, 3, 6))
        gens = [_affine(1, 1, 7), bent]
        assert affine_order(gens, 7) is None
        assert exact_order(gens, 7)[0] == PermGroup(gens, degree=7).order() != 21

    def test_the_multipliers_are_closed(self):
        # <2> = {1, 2, 4, 8, 16} mod 31
        gens = [_affine(1, 1, 31), _affine(2, 0, 31)]
        assert affine_order(gens, 31) == (155, {"path": "affine", "multipliers": 5})
        gens = [_affine(2, 5, 31), _affine(1, 3, 31)]
        assert affine_order(gens, 31) == (155, {"path": "affine", "multipliers": 5})

    def test_degrees_below_two(self):
        assert affine_order([Permutation.identity(1)], 1) is None
        assert affine_order([], 0) is None
        assert exact_order([Permutation.identity(1)], 1)[0] == 1

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            affine_order([_affine(1, 1, 5), Permutation.identity(4)], 5)


class TestManifestRows:
    @pytest.mark.parametrize(
        "name, multipliers", [("len31-two-quintics", 10), ("len31-three-quintics", 5)]
    )
    def test_the_length_31_rows(self, name, multipliers):
        report = run_entry(ENTRIES[name], cache={})
        assert report.passed
        assert report.details["order"] == {"path": "affine", "multipliers": multipliers}

    @pytest.mark.parametrize(
        "name, top", [("len62-two-quintics", "310"), ("len62-three-quintics", "155")]
    )
    def test_the_block_action_on_31_columns_needs_no_chain(self, monkeypatch, name, top):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(group_module, "PermGroup", refuse)
        report = run_entry(ENTRIES[name], cache={})
        assert report.passed
        assert report.details["order"] == {
            "path": "blocks", "classes": 31, "block_size": 2, "top_order": top,
        }

    def test_the_multipliers_are_found_once_per_code_and_run(self, monkeypatch):
        calls, found = [], manifest_module.multiplier_subgroup

        def counted(code):
            calls.append(code.length)
            return found(code)

        # the len62 row takes its column group from the same length-31 code
        monkeypatch.setattr(manifest_module, "multiplier_subgroup", counted)
        cache = {}
        for name in ("len31-two-quintics", "len62-two-quintics", "len31-two-quintics"):
            assert run_entry(ENTRIES[name], cache=cache).passed
        assert calls == [31]
