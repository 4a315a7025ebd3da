from random import Random

import pytest

from cycaut.code import Codeword, CyclicCode, apply_to_word
from cycaut.construct import multiplier, pair_swap, shift
from cycaut.gf2poly import divisors_of_xn_minus_1, parse_poly, parse_poly_product
import cycaut.manifest as manifest_module
import cycaut.verify as verify_module
from cycaut.group import build_group, filter_generators
from cycaut.manifest import default_manifest_path, expand_constructions, load_manifest, run_entry
from cycaut.perm import Permutation, parse_cycles
from cycaut.verify import (
    brute_force_aut,
    brute_force_group,
    is_automorphism,
    sample_outside,
    verify_claim,
)


HAMMING = CyclicCode(7, parse_poly("x^3+x+1"))


class TestIsAutomorphism:
    def test_shift_always_works(self):
        assert is_automorphism(HAMMING, shift(7))

    def test_plain_transposition_fails(self):
        assert not is_automorphism(HAMMING, parse_cycles("(1,2)", 7))

    def test_pair_swap_on_squared_generator(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        assert is_automorphism(code, pair_swap(7))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_automorphism(HAMMING, Permutation.identity(6))

    def test_shift_for_every_code_up_to_30(self):
        for n in range(1, 31):
            for g in divisors_of_xn_minus_1(n):
                assert is_automorphism(CyclicCode(n, g), shift(n))


class TestBruteForce:
    def test_hamming_count(self):
        assert len(brute_force_aut(HAMMING)) == 168

    def test_repetition_count(self):
        code = CyclicCode(7, parse_poly_product("(x^3+x+1)(x^3+x^2+1)"))
        assert len(brute_force_aut(code)) == 5040

    def test_degenerate_codes_full_symmetric(self):
        import math

        for g in (parse_poly("1"), parse_poly("x^5+1")):
            assert len(brute_force_aut(CyclicCode(5, g))) == math.factorial(5)

    def test_cutoff(self):
        code = CyclicCode(14, parse_poly("x^3+x+1"))
        with pytest.raises(ValueError, match="cutoff"):
            brute_force_aut(code)

    def test_lexicographic_order(self):
        autos = brute_force_aut(HAMMING)
        images = [a.images for a in autos]
        assert images == sorted(images)
        assert images[0] == tuple(range(7))

    def test_contains_shift_and_closure(self):
        autos = brute_force_aut(HAMMING)
        assert shift(7) in autos
        aset = {a.images for a in autos}
        assert all(a.inverse().images in aset for a in autos)

    def test_group_reduction_generates_all(self):
        count, gens = brute_force_group(HAMMING)
        autos = brute_force_aut(HAMMING)
        assert count == len(autos) == 168
        # reducing while enumerating keeps the in-order decisions of a
        # reduction of the full list
        assert gens == filter_generators(autos, 7)
        assert build_group(gens, degree=7).order() == 168

    def test_group_reduction_never_holds_every_automorphism(self, monkeypatch):
        offered = []
        real = verify_module.filter_generators

        def checking(perms, degree=None):
            # the reduction is handed a lazy stream, not a collected list
            assert not isinstance(perms, (list, tuple))
            offered.append(degree)
            return real(perms, degree)

        monkeypatch.setattr(verify_module, "filter_generators", checking)
        code = CyclicCode(7, parse_poly_product("(x^3+x+1)(x^3+x^2+1)"))
        count, gens = brute_force_group(code)
        assert count == 5040 and offered == [7]
        assert build_group(gens, degree=7).order() == 5040

    def test_closure_failure_raises_for_the_streamed_reduction(self, monkeypatch):
        # a reduction that drops generators makes the count and the order differ
        real = verify_module.filter_generators
        monkeypatch.setattr(
            verify_module, "filter_generators", lambda perms, n: real(perms, n)[:1]
        )
        with pytest.raises(RuntimeError, match="168 elements generate order 2$"):
            brute_force_group(HAMMING)

    def test_cutoff_for_the_streamed_reduction(self):
        with pytest.raises(ValueError, match="cutoff"):
            brute_force_group(CyclicCode(14, parse_poly("x^3+x+1")))

    def test_closure_failure_raises(self, monkeypatch):
        # the check must survive python -O, so it is an exception, not an assert
        monkeypatch.setattr(verify_module, "filter_generators", lambda perms, n: [shift(n)])
        with pytest.raises(RuntimeError, match="not a group"):
            brute_force_aut(HAMMING)

    def test_one_reduction_per_code_per_run(self, monkeypatch):
        calls = []
        real = verify_module.filter_generators

        def counting(perms, degree=None):
            calls.append(degree)
            return real(perms, degree)

        # every module that may reduce, so a reduction outside verify counts too
        monkeypatch.setattr(verify_module, "filter_generators", counting)
        monkeypatch.setattr(manifest_module, "filter_generators", counting, raising=False)
        entries = {e["name"]: e for e in load_manifest(default_manifest_path())}
        cache = {}
        # the brute claim and the brute inner sources of the length-14 and
        # length-49 constructions are all the same length-7 code
        for name in ("len7-cubic-product", "len14-cubic-product", "len49-block-rows"):
            assert run_entry(entries[name], cache=cache).passed
        assert calls == [7]


def _membership_first(code, group, trials, seed):
    """(escapes, automorphisms drawn) of `sample_outside`'s seeded draws,
    asking membership before the automorphism test."""
    rng = Random(seed)
    escapes = automorphisms = 0
    for _ in range(trials):
        images = list(range(code.length))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        automorphisms += is_automorphism(code, p)
        if group.contains(p):
            continue
        if is_automorphism(code, p):
            escapes += 1
    return escapes, automorphisms


class TestSampleOutside:
    def test_escapes_match_a_membership_first_count(self):
        # <shift> has order 7 inside Aut = 168, so draws escape
        cyclic = build_group([shift(7)], degree=7)
        for seed in range(6):
            escapes = sample_outside(HAMMING, cyclic, 300, seed)
            assert escapes == _membership_first(HAMMING, cyclic, 300, seed)[0]
            assert escapes > 0

    def test_membership_is_asked_only_for_automorphisms(self):
        cyclic = build_group([shift(7)], degree=7)
        automorphisms = _membership_first(HAMMING, cyclic, 300, 2)[1]
        asked = []
        real = cyclic.contains

        def counting(p):
            asked.append(p)
            return real(p)

        cyclic.contains = counting
        sample_outside(HAMMING, cyclic, 300, seed=2)
        assert 0 < len(asked) == automorphisms
        assert all(is_automorphism(HAMMING, p) for p in asked)

    def test_full_group_leaves_nothing_outside(self):
        s7 = build_group([parse_cycles("(1,2)", 7), shift(7)])
        assert sample_outside(HAMMING, s7, 200, seed=1) == 0

    def test_full_automorphism_group_has_no_escapes(self):
        aut = build_group(filter_generators(brute_force_aut(HAMMING), 7), degree=7)
        assert sample_outside(HAMMING, aut, 500, seed=0) == 0

    def test_counts_against_trivial_group(self):
        trivial = build_group([], degree=7)
        count = sample_outside(HAMMING, trivial, 1000, seed=0)
        # P(random in Aut) = 168/5040 = 1/30; the seeded draw is deterministic
        assert count == sample_outside(HAMMING, trivial, 1000, seed=0)
        assert 10 <= count <= 70

    def test_deterministic_per_seed(self):
        trivial = build_group([], degree=7)
        a = sample_outside(HAMMING, trivial, 100, seed=3)
        b = sample_outside(HAMMING, trivial, 100, seed=4)
        assert a == sample_outside(HAMMING, trivial, 100, seed=3)
        assert b == sample_outside(HAMMING, trivial, 100, seed=4)


class TestVerifyClaim:
    def _generators_for(self, code, specs):
        return expand_constructions(code, specs, cache={})

    def test_interleaved_claim_passes(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        gens = self._generators_for(
            code,
            [
                {"kind": "interleaved_lift", "rows": [1, 2],
                 "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
                {"kind": "pair_swap"},
            ],
        )
        report = verify_claim(code, gens, 56448, sampling=(200, 0))
        assert report.passed
        assert report.computed_order == 56448
        assert report.sample_escapes == 0

    def test_wrong_order_fails_with_both_orders(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        gens = self._generators_for(
            code,
            [
                {"kind": "interleaved_lift", "rows": [1, 2],
                 "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
                {"kind": "pair_swap"},
            ],
        )
        report = verify_claim(code, gens, 56449)
        assert not report.passed
        assert "56448" in report.reason and "56449" in report.reason

    def test_non_automorphism_generator_is_named(self):
        report = verify_claim(
            HAMMING, [("bad", parse_cycles("(1,2)", 7))], 168
        )
        assert not report.passed
        assert "bad" in report.reason
        assert report.counterexample == "(1,2)"

    def test_shift_is_member_of_constructed_group(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        gens = self._generators_for(
            code,
            [
                {"kind": "interleaved_lift", "rows": [1, 2],
                 "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
                {"kind": "pair_swap"},
            ],
        )
        grp = build_group([p for _, p in gens], degree=14)
        assert grp.order() == 56448
        assert grp.contains(shift(14))

    def test_report_summary_text(self):
        report = verify_claim(HAMMING, [("s", shift(7))], 7, name="tiny")
        assert report.passed
        assert "PASS tiny" in report.summary()
        assert "computed=7" in report.summary()

    def test_containment_mode(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        gens = [("s", shift(14))]
        report = verify_claim(code, gens, 56448, exact=False)
        assert report.passed
        assert report.computed_order == 14
        report = verify_claim(code, gens, 56449, exact=False)
        assert not report.passed


class TestAutomorphismInvariants:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_codes_brute_force_groups(self, n):
        import math

        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            autos = brute_force_aut(code)
            assert shift(n) in autos
            # group closure/inverse via the chain: generated order == count
            grp = build_group(filter_generators(autos, n), degree=n)
            assert grp.order() == len(autos)
            aset = {a.images for a in autos}
            for a in autos[:: max(1, len(autos) // 20)]:
                assert a.inverse().images in aset
            # automorphisms preserve the weight distribution
            dist = code.weight_distribution()
            words = list(code.codewords())
            for a in autos[:: max(1, len(autos) // 5)]:
                from collections import Counter

                image_dist = dict(
                    sorted(Counter(apply_to_word(a, w).weight() for w in words).items())
                )
                assert image_dist == dist

    def test_frobenius_preserves_odd_length_codes(self):
        for n in (1, 3, 5, 7, 9, 15, 21):
            for g in divisors_of_xn_minus_1(n):
                assert is_automorphism(CyclicCode(n, g), multiplier(2, n))
