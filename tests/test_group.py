import itertools
import json
import math
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cycaut.group as group_module
from cycaut.construct import block_row_generators, lifted_column_perm, shift
from cycaut.group import PermGroup, count_and_sift, filter_generators
from cycaut.manifest import _code_for, expand_constructions, extended_manifest_path, load_manifest
from cycaut.perm import Permutation, parse_cycles


def G(*cycle_texts, degree):
    return PermGroup([parse_cycles(t, degree) for t in cycle_texts], degree=degree)


class TestOrder:
    def test_s3(self):
        assert G("(1,2)", "(1,2,3)", degree=3).order() == 6

    def test_trivial_group(self):
        assert PermGroup([], degree=5).order() == 1

    def test_s7(self):
        assert G("(1,2)", "(1,2,3,4,5,6,7)", degree=7).order() == 5040

    def test_transposition_product(self):
        gens = [parse_cycles(f"({i},{i + 7})", 14) for i in range(1, 8)]
        assert PermGroup(gens, degree=14).order() == 2**7

    def test_cyclic_group_order_up_to_100(self):
        for n in range(1, 101):
            assert PermGroup([shift(n)]).order() == n

    def test_full_automorphism_list_as_generators(self):
        from cycaut.code import CyclicCode
        from cycaut.gf2poly import parse_poly
        from cycaut.verify import brute_force_aut

        autos = brute_force_aut(CyclicCode(7, parse_poly("x^3+x+1")))
        assert PermGroup(autos, degree=7).order() == 168

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            PermGroup([Permutation.identity(3), Permutation.identity(4)])

    def test_empty_needs_degree(self):
        with pytest.raises(ValueError):
            PermGroup([])


class TestMembership:
    def test_member_of_s3(self):
        assert G("(1,2)", "(1,2,3)", degree=3).contains(parse_cycles("(1,3,2)", 3))

    def test_odd_perm_not_in_c3(self):
        assert not G("(1,2,3)", degree=3).contains(parse_cycles("(1,2)", 3))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            G("(1,2)", degree=2).contains(parse_cycles("(1,2)", 3))

    def test_generators_are_members(self):
        grp = G("(1,2,3,4)", "(1,2)", degree=4)
        for gen in grp.generators:
            assert grp.contains(gen)

    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=25)
    def test_products_of_members_are_members(self, s1, s2):
        grp = G("(1,2)", "(1,2,3,4,5)", degree=5)
        a = grp.random_element(s1)
        b = grp.random_element(s2)
        assert grp.contains(a * b)


class TestRandomElement:
    def test_trivial_group_gives_identity(self):
        assert PermGroup([], degree=4).random_element(7).is_identity()

    def test_deterministic(self):
        grp = G("(1,2)", "(1,2,3,4)", degree=4)
        assert grp.random_element(123) == grp.random_element(123)

    def test_output_is_member(self):
        grp = G("(1,2)", "(1,2,3,4)", degree=4)
        for seed in range(20):
            assert grp.contains(grp.random_element(seed))

    def test_reaches_whole_small_group(self):
        grp = G("(1,2,3)", degree=3)
        seen = {grp.random_element(seed) for seed in range(60)}
        assert len(seen) == 3


class TestFilterGenerators:
    def test_reduces_redundant_list(self):
        s4 = G("(1,2)", "(1,2,3,4)", degree=4)
        elements = [s4.random_element(seed) for seed in range(40)]
        kept = filter_generators(elements, 4)
        assert len(kept) < len(elements)
        assert PermGroup(kept, degree=4).order() == s4.order()

    def test_empty(self):
        assert filter_generators([], 5) == []


def _reference_reduction(perms, degree):
    """Keep each permutation that the ones kept so far do not generate,
    asking a freshly built group every time."""
    kept = []
    for p in perms:
        if not PermGroup(kept, degree=degree).contains(p):
            kept.append(p)
    return kept


@st.composite
def _lists_reaching_symmetric(draw):
    """(n, perms): a few random permutations, then a transposition and an
    n-cycle conjugated by a random permutation (so they generate S_n), in
    either order, then up to 20 more random permutations."""
    n = draw(st.integers(min_value=2, max_value=6))
    perm = st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))
    conj = draw(perm)
    pair = [conj * parse_cycles("(1,2)", n) * conj.inverse(), conj * shift(n) * conj.inverse()]
    head = draw(st.lists(perm, max_size=3))
    tail = draw(st.lists(perm, max_size=20))
    return n, head + draw(st.permutations(pair)) + tail


class TestFilterGeneratorsSymmetricStop:
    """Once the kept permutations generate S_n, the reduction stops
    sifting but still consumes its input."""

    @given(_lists_reaching_symmetric())
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_reference_list(self, case):
        n, perms = case
        kept = filter_generators(perms, n)
        assert kept == _reference_reduction(perms, n)
        assert filter_generators(perms) == kept
        assert PermGroup(kept, degree=n).order() == math.factorial(n)

    @given(_lists_reaching_symmetric())
    @settings(max_examples=60, deadline=None)
    def test_count_and_sift_counts_every_item(self, case):
        n, perms = case
        count, kept = count_and_sift((p.images for p in perms), n)
        assert count == len(perms)
        assert kept == [p.images for p in _reference_reduction(perms, n)]

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_whole_symmetric_group_of_small_degree(self, degree):
        elements = [Permutation(images) for images in itertools.permutations(range(degree))]
        for perms in (elements, elements[::-1], elements * 2):
            assert filter_generators(perms, degree) == _reference_reduction(perms, degree)

    S5 = [parse_cycles("(1,2)", 5), shift(5)]
    TAIL = [G("(1,2)", "(1,2,3,4,5)", degree=5).random_element(seed) for seed in range(30)]

    def test_input_is_consumed(self):
        drawn = []

        def stream():
            for p in self.S5 + self.TAIL:
                drawn.append(p)
                yield p

        items = stream()
        assert filter_generators(items, 5) == self.S5
        assert drawn == self.S5 + self.TAIL
        assert next(items, None) is None

    def test_nothing_is_sifted_after_symmetric(self, monkeypatch):
        sifted = []
        real = group_module._Chain.contains

        def counting(chain, g):
            sifted.append(g)
            return real(chain, g)

        monkeypatch.setattr(group_module._Chain, "contains", counting)
        assert filter_generators(self.S5 + self.TAIL, 5) == self.S5
        assert sifted == [p.images for p in self.S5]

    def test_mixed_degrees_rejected_after_the_stop(self):
        s3 = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
        with pytest.raises(ValueError, match="mixed degrees"):
            filter_generators(s3 + [Permutation.identity(4)])


class TestBasePairSkip:
    """The chain skips a Schreier generator that equals a stored
    generator, which would sift to the identity, and only such ones."""

    def test_s4_from_four_cycle_and_transposition(self):
        grp = G("(1,2,3,4)", "(2,3)", degree=4)
        assert grp.order() == 24
        assert grp.base_points()[0] == 0
        assert grp.orbit_sizes() == [4, 3, 2]
        # the point stabilizer of 1, built from the chain's next level, is
        # S_3 on {2,3,4}; the pairs of (2,3) alone would give order 2
        stab = PermGroup(
            [Permutation(g) for g, _, _ in grp._chain.levels[1].gens], degree=4
        )
        assert stab.order() == 6
        assert all(g.images[0] == 0 for g in stab.generators)

    def test_generators_fixing_the_first_base(self):
        # (3,4) and (4,5) fix the first base 1; the stabilizer is S_4 on {2..5}
        assert G("(1,2)", "(2,3)", "(3,4)", "(4,5)", degree=5).order() == 120
        assert G("(3,4)", "(1,2,3)", "(4,5)", degree=5).order() == 120

    def test_base_pair_of_a_generator_moving_the_base(self):
        # s = (1,3,2)(4,5) moves the base 1, so its pair (s, base) is not
        # s itself; a rule that skipped every base pair would give order 6
        grp = G("(1,3)", "(1,3,2)(4,5)", degree=5)
        assert grp.order() == 12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    @pytest.mark.parametrize("full_top", [False, True])
    def test_wreath_products(self, k, m, full_top):
        # (S_k)^m as per-class generators, two per class, extended by
        # column maps: the m-cycle (order m) or, with (1,2), all of S_m
        taus = [shift(m)] + ([parse_cycles("(1,2)", m)] if full_top else [])
        top = math.factorial(m) if full_top else m
        gens = block_row_generators(k, m) + [lifted_column_perm(t, k) for t in taus]
        for listed in (gens, gens[::-1]):
            grp = PermGroup(listed, degree=k * m)
            assert grp.order() == math.factorial(k) ** m * top
            assert grp._chain.stored == {g for lvl in grp._chain.levels for g, _, _ in lvl.gens}

    def test_block_rows_sifts_few_schreier_generators(self):
        # The n = 186 block-rows group of the chain-membership benchmark
        # has 42,266 Schreier pairs; without the skips 33,868 of them are
        # sifted, with them 639.
        entry = json.loads(json.dumps(load_manifest(extended_manifest_path())[0]))
        entry["n"] = 186
        for spec in entry["construction"]:
            spec["k"] = 6
        code = _code_for(entry["n"], entry["generator"])
        gens = [p for _, p in expand_constructions(code, entry["construction"], {})]
        grp = PermGroup(gens, degree=186)
        assert grp.order() == 310 * math.factorial(6) ** 31
        assert grp._chain.sifted == 639
        assert len(grp._chain.stored) == 197


@st.composite
def _sparse_and_dense_generators(draw):
    """A degree <= 40 and generators of it, in a drawn order: the block
    rows of a k x m layout with lifted column maps (a wreath-type group),
    cycles on a few nearby points, and permutations of every point."""
    gens = []
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        m = draw(st.integers(2, 40 // k))
        degree = k * m
        gens += block_row_generators(k, m)
        columns = draw(st.lists(st.permutations(range(m)), max_size=2))
        gens += [lifted_column_perm(Permutation(tuple(c)), k) for c in columns]
    else:
        degree = draw(st.integers(4, 40))
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(2, min(5, degree)))
        start = draw(st.integers(0, degree - length))
        window = range(start, min(degree, start + 2 * length))
        cycle = draw(st.permutations(window))[:length]
        images = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        gens.append(Permutation(tuple(images)))
    for _ in range(draw(st.integers(0, 2))):
        gens.append(Permutation(tuple(draw(st.permutations(range(degree))))))
    return degree, draw(st.permutations(gens))


def _chain_state(gens, degree):
    grp = PermGroup(gens, degree=degree)
    chain = grp._chain
    return {
        "base": grp.base_points(),
        "orbit_order": [lvl.orbit_order for lvl in chain.levels],
        "transversals": [lvl.orbit for lvl in chain.levels],  # u, u^-1 and mask per point
        "stored": chain.stored,
        "sifted": chain.sifted,
        "random": [grp.random_element(seed) for seed in range(5)],
    }


def _dense_product(chain, seed):
    """`random_element` as a product of transversals composed over all
    points."""
    rng = Random(seed)
    acc = chain.identity
    for lvl in chain.levels:
        point = lvl.orbit_order[rng.randrange(len(lvl.orbit_order))]
        if point != lvl.base:
            acc = tuple(acc[i] for i in lvl.orbit[point][0])
    return acc


class TestSparsePath:
    """The chain looks up the Schreier generators u_p^-1 s u_p of
    generators s that move few points by their moved points alone, and
    writes out only those it does not find; with that path switched off,
    every Schreier generator is composed over all points.  Both must
    build the same chain and draw the same random elements, and those
    must be the products of the drawn transversals, which `sample`
    updates only where a transversal with a small mask moves points."""

    @given(_sparse_and_dense_generators())
    @settings(max_examples=60, deadline=None)
    def test_same_chain_without_the_sparse_path(self, case):
        degree, gens = case
        shipped = _chain_state(gens, degree)
        with mock.patch.object(group_module, "_sparse_moves", lambda a, identity: None):
            dense = _chain_state(gens, degree)
        assert shipped == dense
        chain = PermGroup(gens, degree=degree)._chain
        assert [p.images for p in shipped["random"]] == [
            _dense_product(chain, seed) for seed in range(5)
        ]

    def test_sparse_rule(self):
        identity = tuple(range(8))
        assert group_module._sparse_moves((1, 0, 2, 3, 4, 5, 6, 7), identity) == (0, 1)
        assert group_module._sparse_moves((1, 2, 0, 3, 4, 5, 6, 7), identity) is None
        # the degree-7 chains of brute force never take the sparse path
        assert group_module._sparse_moves((1, 0, 2, 3, 4, 5, 6), identity[:7]) is None


class TestSmallDegrees:
    """Degrees 0, 1 and 2, where a tuple composition has zero, one or two
    indices."""

    @pytest.mark.parametrize("degree", [0, 1])
    def test_trivial_degrees(self, degree):
        e = Permutation.identity(degree)
        for grp in (PermGroup([], degree=degree), PermGroup([e])):
            assert grp.order() == 1
            assert grp.base_points() == []
            assert grp.contains(e)
            assert grp.random_element(3) == e
        assert filter_generators([e, e], degree) == []

    def test_degree_two(self):
        e = Permutation.identity(2)
        t = parse_cycles("(1,2)", 2)
        trivial = PermGroup([e])
        assert trivial.order() == 1
        assert not trivial.contains(t)
        assert trivial.random_element(0) == e
        grp = PermGroup([t])
        assert grp.order() == 2
        assert grp.base_points() == [0]
        assert grp.contains(e) and grp.contains(t)
        assert {grp.random_element(seed) for seed in range(20)} == {e, t}
        assert filter_generators([e, t, t], 2) == [t]


def _subrange_perm(data, n):
    """A permutation of a sub-range [lo, hi) of 0..n-1, fixing the rest.
    It fixes the low points that the chain picks as its first bases."""
    lo = data.draw(st.integers(min_value=0, max_value=n - 2))
    hi = data.draw(st.integers(min_value=lo + 2, max_value=n))
    inner = data.draw(st.permutations(range(lo, hi)))
    return Permutation(tuple(range(lo)) + tuple(inner) + tuple(range(hi, n)))


class TestAgainstSympy:
    """Cross-check order and membership against an independent engine."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_order_matches_sympy(self, data):
        sympy_perms = pytest.importorskip("sympy.combinatorics")
        n = data.draw(st.integers(min_value=2, max_value=12))
        k = data.draw(st.integers(min_value=1, max_value=3))
        gens = [_subrange_perm(data, n) for _ in range(k)]
        ours = PermGroup(gens, degree=n).order()
        theirs = sympy_perms.PermutationGroup(
            [sympy_perms.Permutation(list(g.images)) for g in gens]
        ).order()
        assert ours == theirs

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_membership_matches_sympy(self, data):
        sympy_perms = pytest.importorskip("sympy.combinatorics")
        n = data.draw(st.integers(min_value=2, max_value=12))
        gens = [_subrange_perm(data, n) for _ in range(2)]
        candidate = _subrange_perm(data, n)
        if data.draw(st.booleans()):
            candidate = gens[0] * gens[1]
        ours = PermGroup(gens, degree=n).contains(candidate)
        theirs = sympy_perms.PermutationGroup(
            [sympy_perms.Permutation(list(g.images)) for g in gens]
        ).contains(sympy_perms.Permutation(list(candidate.images)))
        assert ours == theirs
