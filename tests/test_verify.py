import itertools
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cycaut.code import Codeword, CyclicCode, apply_to_word
from cycaut.construct import multiplier, pair_swap, shift
from cycaut.gf2poly import (
    Gf2Poly,
    divisors_of_xn_minus_1,
    parse_poly,
    parse_poly_product,
    x_pow_n_minus_1,
)
import cycaut.manifest as manifest_module
import cycaut.verify as verify_module
from cycaut.group import PermGroup, filter_generators
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


def _maps_rows_into_code(code, p):
    """Reference test: every generator row g*x^j, j < k, moved by p, is
    divisible by g (long division written out here)."""
    g = code.generator.bits
    gdeg = g.bit_length() - 1
    for j in range(code.dimension):
        image = 0
        for i in range(code.length):
            if (g << j) >> i & 1:
                image |= 1 << p.images[i]
        while image.bit_length() - 1 >= gdeg:
            image ^= g << (image.bit_length() - 1 - gdeg)
        if image:
            return False
    return True


def _dual(code):
    """The dual code, generated by the reciprocal of h = (x^n+1)/g."""
    h = code.check.bits
    reciprocal = sum(1 << (h.bit_length() - 1 - i) for i in range(h.bit_length()) if h >> i & 1)
    return CyclicCode(code.length, Gf2Poly(reciprocal))


def _kernel_cases(n, rng):
    """Permutations to test on length n: the identity, the shift, the
    multipliers, and 25 seeded uniform draws."""
    perms = [Permutation.identity(n), shift(n)]
    perms += [multiplier(a, n) for a in range(2, n) if math.gcd(a, n) == 1]
    for _ in range(25):
        images = list(range(n))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    return perms


class TestSyndromeKernel:
    """`is_automorphism` tests the smaller of C and its dual with syndrome
    tables; it must agree with the row-by-row reference on C.  Lengths up
    to 15 take the lane-packed `sum` path; lengths 21 and 31 also have
    codes whose syndromes are too long for it and are XORed."""

    @pytest.mark.parametrize("n", [*range(1, 16), 21, 31])
    def test_agrees_with_reference_and_dual(self, n):
        rng = Random(n)
        perms = _kernel_cases(n, rng)
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            dual = _dual(code)
            assert dual.dimension == n - code.dimension
            for p in perms:
                want = _maps_rows_into_code(code, p)
                assert is_automorphism(code, p) == want, (n, str(g), str(p))
                assert is_automorphism(dual, p) == want, (n, str(g), str(p))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_brute_force_equals_exhaustive_reference(self, n):
        everything = [Permutation(images) for images in itertools.permutations(range(n))]
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            want = [p for p in everything if _maps_rows_into_code(code, p)]
            assert brute_force_aut(code) == want, (n, str(g))

    def test_brute_force_members_at_length_8(self):
        for g in divisors_of_xn_minus_1(8):
            code = CyclicCode(8, g)
            autos = brute_force_aut(code)
            for p in autos[:: max(1, len(autos) // 200)]:
                assert _maps_rows_into_code(code, p)
                assert is_automorphism(_dual(code), p)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_trivial_and_full_codes_admit_every_permutation(self, n):
        # g = 1 (all words) and g = x^n+1 (the zero code): no rows to test
        for g in (Gf2Poly(1), Gf2Poly((1 << n) | 1)):
            code = CyclicCode(n, g)
            for images in itertools.islice(itertools.permutations(range(n)), 50):
                assert is_automorphism(code, Permutation(images))

    def test_equal_codes_share_one_kernel(self):
        # the kernel is cached by the code; two codes built apart are equal
        a = CyclicCode(15, parse_poly_product("(x^4+x+1)(x^2+x+1)"))
        b = CyclicCode(15, parse_poly("x^6+x^5+x^4+x^3+1"))
        assert a == b and a is not b
        assert verify_module._automorphism_test(a) is verify_module._automorphism_test(b)

    def test_lengths_one_and_two(self):
        # n = 1: g in {1, x+1}; n = 2: g in {1, x+1, x^2+1}
        assert [str(g) for g in divisors_of_xn_minus_1(2)] == ["1", "x+1", "x^2+1"]
        swap = parse_cycles("(1,2)", 2)
        for g in divisors_of_xn_minus_1(2):
            assert is_automorphism(CyclicCode(2, g), swap)
        assert is_automorphism(CyclicCode(1, Gf2Poly(3)), Permutation.identity(1))
        assert len(brute_force_aut(CyclicCode(2, Gf2Poly(3)))) == 2


def _period(g, n):
    """The least e >= 1 with g | x^e + 1; it divides n."""
    return next(e for e in range(1, n + 1) if n % e == 0 and not x_pow_n_minus_1(e) % g)


def _sparse_case(code, rng):
    """A seeded permutation that moves 2 to max(2, n // 4) points: half of
    them within one residue class mod the period e of the code or of its
    dual, which keeps the columns x^i mod g (or mod the dual's generator)
    and so is an automorphism; the others anywhere, mostly not one."""
    n = code.length
    images = list(range(n))
    periods = sorted({_period(code.generator, n), _period(_dual(code).generator, n)} - {n})
    if periods and rng.random() < 0.5:
        e = rng.choice(periods)
        pool = range(rng.randrange(e), n, e)
    else:
        pool = range(n)
    points = rng.sample(pool, min(len(pool), rng.randint(2, max(2, n // 4))))
    if len(points) >= 2:
        targets = rng.sample(points, len(points))
        for x, y in zip(points, targets):
            images[x] = y
    return tuple(images)


def _agree(code, images):
    """The moved-points test of the kernel on images, after checking that
    it agrees with the row test and with the reference on the code and
    on its dual."""
    n = code.length
    moved = tuple(x for x, y in enumerate(images) if x != y)
    rows_test, moved_test = verify_module._automorphism_test(code)
    got = moved_test(images, moved)
    assert got == rows_test(images), (n, str(code.generator), images)
    assert got == _maps_rows_into_code(code, Permutation(images)), (n, str(code.generator), images)
    dual = _dual(code)
    dual_rows, dual_moved = verify_module._automorphism_test(dual)
    assert dual_moved(images, moved) == dual_rows(images) == got
    return got


class TestMovedPointsTest:
    """The moved-points test of `_automorphism_test` must agree with its
    row test, and with the reference, on sparse permutations, both
    automorphisms and not, for every code of the lengths below (which
    include g = 1 and g = x^n+1) and its dual; `is_automorphism` runs it
    on every permutation, dense ones too."""

    @pytest.mark.parametrize("n", [*range(1, 16), 21, 31])
    def test_agrees_on_every_divisor(self, n):
        rng = Random(1000 + n)
        outcomes = set()
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            for _ in range(12):
                outcomes.add(_agree(code, _sparse_case(code, rng)))
            assert _agree(code, tuple(range(n)))
        # at the primes 5, 11 and 13, where 2 is primitive, every code
        # admits all of S_n
        if n >= 4 and n not in (5, 11, 13):
            assert outcomes == {True, False}

    def test_agrees_on_every_move_of_at_most_four_points_at_length_7(self):
        # among them the 21 involutions of GL(3,2) = Aut of the Hamming
        # codes, automorphisms whose moved points have distinct syndromes
        outcomes = []
        for g in divisors_of_xn_minus_1(7):
            code = CyclicCode(7, g)
            for images in itertools.permutations(range(7)):
                if sum(a != b for a, b in enumerate(images)) <= 4:
                    outcomes.append(_agree(code, images))
        assert len(outcomes) == 8 * 407
        # four codes admit S_7, the four others the identity and 21 involutions
        assert sum(outcomes) == 4 * 407 + 4 * 22

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_at_length_62(self, data):
        divisors = _DIVISORS_62
        g = divisors[data.draw(st.integers(0, len(divisors) - 1), label="divisor")]
        code = CyclicCode(62, g)
        rng = Random(data.draw(st.integers(0, 2**32), label="seed"))
        for _ in range(4):
            _agree(code, _sparse_case(code, rng))

    def test_trivial_and_full_codes_at_length_62(self):
        rng = Random(62)
        for g in (Gf2Poly(1), x_pow_n_minus_1(62)):
            code = CyclicCode(62, g)
            assert all(_agree(code, _sparse_case(code, rng)) for _ in range(20))

    def test_sparse_automorphisms_of_the_block_rows(self):
        # the per-column generators of len961: 31-cycles and transpositions
        # that keep each class mod 31, automorphisms moving 31 or 2 of 961
        code = CyclicCode(961, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)"))
        for p in expand_constructions(code, [{"kind": "block_rows", "k": 31}])[:4]:
            assert is_automorphism(code, p[1])
        swap = list(range(961))
        swap[0], swap[1] = 1, 0
        assert not is_automorphism(code, Permutation(tuple(swap)))

    def test_is_automorphism_runs_only_the_moved_points_test(self, monkeypatch):
        # 4, 5 and all 16 of 16 points moved: the moved-points test every
        # time, on exactly the points p moves, and never the row test
        code = CyclicCode(16, parse_poly("x+1"))
        real = verify_module._automorphism_test
        calls = []

        def spying(code):
            rows_test, moved_test = real(code)

            def rows(images):
                calls.append("rows")
                return rows_test(images)

            def moved(images, points):
                assert list(points) == [x for x, y in enumerate(images) if x != y]
                calls.append(list(points))
                return moved_test(images, points)

            return rows, moved

        monkeypatch.setattr(verify_module, "_automorphism_test", spying)
        perms = [parse_cycles("(1,2)(5,9)", 16), parse_cycles("(1,2,3,4,5)", 16), shift(16)]
        assert all(is_automorphism(code, p) for p in perms)
        assert calls == [[0, 1, 4, 8], [0, 1, 2, 3, 4], list(range(16))]

    def test_agrees_with_the_reference_on_all_of_s7(self):
        # dense permutations too: every divisor of x^7+1 on all 5040
        everything = [Permutation(images) for images in itertools.permutations(range(7))]
        for g in divisors_of_xn_minus_1(7):
            code = CyclicCode(7, g)
            for p in everything:
                assert is_automorphism(code, p) == _maps_rows_into_code(code, p), (str(g), str(p))

    def test_dense_generators_of_the_block_rows(self):
        # the lifts of the shift and of the two multipliers of the [31, 21]
        # code move every point of 961; the shift after one transposition
        # is dense and not an automorphism
        code = CyclicCode(961, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)"))
        inner = {"source": "shift_multipliers", "n": 31, "generator": "(x^5+x^2+1)(x^5+x^3+1)"}
        lifts = expand_constructions(code, [{"kind": "lifted_column", "k": 31, "inner": inner}])
        assert len(lifts) == 3
        for _, p in lifts:
            assert 4 * sum(x != y for x, y in enumerate(p.images)) > 961
            assert is_automorphism(code, p)
        assert not is_automorphism(code, shift(961) * parse_cycles("(1,2)", 961))


_DIVISORS_62 = divisors_of_xn_minus_1(62)


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
        assert PermGroup(gens, degree=7).order() == 168

    def test_group_reduction_never_holds_every_automorphism(self, monkeypatch):
        offered = []
        real = verify_module.count_and_sift

        def checking(images, degree):
            # the reduction is handed a lazy stream, not a collected list
            assert not isinstance(images, (list, tuple))
            offered.append(degree)
            return real(images, degree)

        monkeypatch.setattr(verify_module, "count_and_sift", checking)
        code = CyclicCode(7, parse_poly_product("(x^3+x+1)(x^3+x^2+1)"))
        count, gens = brute_force_group(code)
        assert count == 5040 and offered == [7]
        assert PermGroup(gens, degree=7).order() == 5040

    def test_closure_failure_raises_for_the_streamed_reduction(self, monkeypatch):
        # a reduction that drops generators makes the count and the order differ
        real = verify_module.count_and_sift

        def dropping(images, degree):
            count, kept = real(images, degree)
            return count, kept[:1]

        monkeypatch.setattr(verify_module, "count_and_sift", dropping)
        with pytest.raises(RuntimeError, match="168 elements generate order 2$"):
            brute_force_group(HAMMING)

    def test_cutoff_for_the_streamed_reduction(self):
        with pytest.raises(ValueError, match="cutoff"):
            brute_force_group(CyclicCode(14, parse_poly("x^3+x+1")))

    def test_closure_failure_raises(self, monkeypatch):
        # the check must survive python -O, so it is an exception, not an assert
        monkeypatch.setattr(
            verify_module, "count_and_sift", lambda images, n: (168, [shift(n).images])
        )
        with pytest.raises(RuntimeError, match="not a group"):
            brute_force_aut(HAMMING)

    def test_every_permutation_is_counted_after_symmetric(self, monkeypatch):
        # The [7,1] code admits all of S_7, and its kept generators reach
        # S_7 at the 721st automorphism.  A kernel that rejects the last
        # permutation, long after that, must still make the count 5039.
        code = CyclicCode(7, parse_poly_product("(x^3+x+1)(x^3+x^2+1)"))
        real = verify_module._automorphism_test
        last = tuple(range(6, -1, -1))

        def rejecting_last(code):
            test, moved_test = real(code)
            return (lambda images: images != last and test(images)), moved_test

        monkeypatch.setattr(verify_module, "_automorphism_test", rejecting_last)
        with pytest.raises(RuntimeError, match="5039 elements generate order 5040$"):
            brute_force_group(code)

    def test_one_reduction_per_code_per_run(self, monkeypatch):
        calls = []
        real = verify_module.count_and_sift

        def counting(images, degree):
            calls.append(degree)
            return real(images, degree)

        # every module that may reduce, so a reduction outside verify counts too
        monkeypatch.setattr(verify_module, "count_and_sift", counting)
        monkeypatch.setattr(manifest_module, "count_and_sift", counting, raising=False)
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
        # <shift> (order 7) and <shift, i -> 2i> (order 21) lie inside
        # Aut = 168, so draws escape
        for gens in ([shift(7)], [shift(7), multiplier(2, 7)]):
            group = PermGroup(gens, degree=7)
            for seed in range(6):
                escapes = sample_outside(HAMMING, gens, group.order(), 300, seed)
                assert escapes == _membership_first(HAMMING, group, 300, seed)[0]
                assert escapes > 0

    def test_exact_order_is_asked_only_for_automorphisms(self, monkeypatch):
        cyclic = PermGroup([shift(7)], degree=7)
        automorphisms = _membership_first(HAMMING, cyclic, 300, 2)[1]
        asked = []
        real = verify_module.exact_order

        def counting(generators, degree):
            asked.append(generators[-1])
            return real(generators, degree)

        monkeypatch.setattr(verify_module, "exact_order", counting)
        sample_outside(HAMMING, [shift(7)], 7, 300, seed=2)
        assert 0 < len(asked) == automorphisms
        assert all(is_automorphism(HAMMING, p) for p in asked)

    def test_full_group_leaves_nothing_outside(self):
        s7 = [parse_cycles("(1,2)", 7), shift(7)]
        assert sample_outside(HAMMING, s7, 5040, 200, seed=1) == 0

    def test_full_automorphism_group_has_no_escapes(self):
        aut = filter_generators(brute_force_aut(HAMMING), 7)
        assert sample_outside(HAMMING, aut, 168, 500, seed=0) == 0

    def test_counts_against_trivial_group(self):
        count = sample_outside(HAMMING, [], 1, 1000, seed=0)
        # P(random in Aut) = 168/5040 = 1/30; the seeded draw is deterministic
        assert count == sample_outside(HAMMING, [], 1, 1000, seed=0)
        assert 10 <= count <= 70

    def test_deterministic_per_seed(self):
        a = sample_outside(HAMMING, [], 1, 100, seed=3)
        b = sample_outside(HAMMING, [], 1, 100, seed=4)
        assert a == sample_outside(HAMMING, [], 1, 100, seed=3)
        assert b == sample_outside(HAMMING, [], 1, 100, seed=4)

    def test_generator_degree_must_match_the_code(self):
        with pytest.raises(ValueError, match="degree does not match code length"):
            sample_outside(HAMMING, [shift(6)], 6, 10, seed=0)


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

    def test_without_a_claim_the_order_is_only_computed(self):
        code = CyclicCode(7, parse_poly_product("x^3+x+1"))
        gens = self._generators_for(code, [{"kind": "shift"}, {"kind": "multipliers"}])
        report = verify_claim(code, gens, None)
        assert (report.passed, report.reason, report.computed_order) == (True, "", 21)
        bad = self._generators_for(code, [{"kind": "perms", "cycles": ["(1,2)"]}])
        report = verify_claim(code, bad, None)
        assert not report.passed and report.computed_order is None
        assert report.reason == "generator perms[0].0 = (1,2) is not an automorphism"

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
        grp = PermGroup([p for _, p in gens], degree=14)
        assert grp.order() == 56448
        assert grp.contains(shift(14))

    def test_report_summary_text(self):
        report = verify_claim(HAMMING, [("s", shift(7))], 7, name="tiny")
        assert report.passed
        assert "PASS tiny" in report.summary()
        assert "computed=7" in report.summary()

    def test_a_proper_subgroup_fails(self):
        # the shift generates a subgroup of order 14, which divides the
        # claim but does not equal it
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        report = verify_claim(code, [("s", shift(14))], 56448)
        assert not report.passed
        assert report.computed_order == 14
        assert report.reason == "order mismatch: computed 14, expected 56448"


class TestAutomorphismInvariants:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_codes_brute_force_groups(self, n):
        import math

        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            autos = brute_force_aut(code)
            assert shift(n) in autos
            # group closure/inverse via the chain: generated order == count
            grp = PermGroup(filter_generators(autos, n), degree=n)
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
