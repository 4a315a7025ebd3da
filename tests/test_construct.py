import math

import pytest
from hypothesis import given, settings, strategies as st

from cycaut.code import CyclicCode
from cycaut.construct import (
    block_row_generators,
    interleaved_lift,
    lifted_column_perm,
    multiplier,
    multiplier_subgroup,
    pair_swap,
    residue_lift,
    row_permutation,
    shift,
)
from cycaut.gf2poly import parse_poly, parse_poly_product
from cycaut.group import PermGroup, filter_generators
from cycaut.perm import Permutation, format_cycles, parse_cycles
from cycaut.verify import brute_force_aut, is_automorphism


HAMMING = CyclicCode(7, parse_poly("x^3+x+1"))


class TestShift:
    def test_small(self):
        assert format_cycles(shift(3)) == "(1,2,3)"

    def test_seventh_power_of_shift14(self):
        assert format_cycles(shift(14) ** 7) == "(1,8)(2,9)(3,10)(4,11)(5,12)(6,13)(7,14)"

    def test_degree_one(self):
        assert shift(1).is_identity()


class TestBlockRows:
    def test_k2_transpositions(self):
        gens = block_row_generators(2, 7)
        assert [format_cycles(g) for g in gens] == [
            "(1,8)", "(2,9)", "(3,10)", "(4,11)", "(5,12)", "(6,13)", "(7,14)"
        ]

    def test_k3_single_column(self):
        gens = block_row_generators(3, 1)
        assert {format_cycles(g) for g in gens} == {"(1,2,3)", "(1,2)"}

    def test_generated_order_is_factorial_power(self):
        # (S_2)^7 has order 2^7; the engine is the oracle here
        assert PermGroup(block_row_generators(2, 7), degree=14).order() == 2**7
        assert PermGroup(block_row_generators(3, 4), degree=12).order() == 6**4

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            block_row_generators(1, 5)

    def test_count(self):
        assert len(block_row_generators(2, 5)) == 5
        assert len(block_row_generators(4, 5)) == 10


def _block_rows_reference(k, m):
    """The k-cycle and (1,2) on the rows of each column of the k x m
    row-major layout, written out point by point."""
    degree = k * m
    gens = []
    for c in range(m):
        points = [c + r * m for r in range(k)]
        images = list(range(degree))
        for a, b in zip(points, points[1:]):
            images[a] = b
        images[points[-1]] = points[0]
        gens.append(Permutation(tuple(images)))
        if k > 2:
            images = list(range(degree))
            images[points[0]], images[points[1]] = points[1], points[0]
            gens.append(Permutation(tuple(images)))
    return gens


def _lifted_column_reference(tau, k):
    """tau on the columns of each of k row-major blocks, point by point."""
    n = tau.degree
    images = []
    for i in range(k):
        images.extend(t + i * n for t in tau.images)
    return Permutation(tuple(images))


class TestLayoutsAreOneLayoutTransposed:
    """Block rows and column lifts are built from the residue layout's
    primitives; they must equal the row-major formulas."""

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_block_rows_match_the_row_major_formula(self, k, m):
        assert block_row_generators(k, m) == _block_rows_reference(k, m)

    @given(
        st.integers(min_value=1, max_value=9).flatmap(lambda d: st.permutations(range(d))),
        st.integers(min_value=1, max_value=6),
    )
    def test_lifted_column_matches_the_row_major_formula(self, images, k):
        tau = Permutation(tuple(images))
        assert lifted_column_perm(tau, k) == _lifted_column_reference(tau, k)

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="at least one column"):
            block_row_generators(3, 0)
        # the layouts are calls of the two primitives, which own the range checks
        with pytest.raises(ValueError, match="at least one column"):
            lifted_column_perm(shift(7), 0)
        with pytest.raises(ValueError, match="at least one column"):
            pair_swap(0)
        with pytest.raises(ValueError, match=r"row 3 out of range 1\.\.2"):
            interleaved_lift(shift(7), 3)


def _perm_of_degree(d):
    return st.permutations(range(d)).map(lambda images: Permutation(tuple(images)))


_perms = st.integers(min_value=1, max_value=9).flatmap(_perm_of_degree)
_small = st.integers(min_value=1, max_value=6)


def _assert_permutation(images, n):
    # takes the images: the repr of a Permutation that is not one never ends
    assert sorted(images) == list(range(n))


class TestOutputsArePermutations:
    """The constructions and products are wrapped without the
    constructor's sort, so each must be a permutation by construction:
    checked here on random valid parameters."""

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_shift_and_multiplier(self, n, data):
        _assert_permutation(shift(n).images, n)
        a = data.draw(st.sampled_from([a for a in range(1, n + 1) if math.gcd(a, n) == 1]))
        _assert_permutation(multiplier(a, n).images, n)

    @given(_perms, _small, st.data())
    def test_residue_lift_and_interleaved_lift(self, alpha, rows, data):
        at = data.draw(st.integers(min_value=1, max_value=rows))
        _assert_permutation(residue_lift(alpha, at, rows).images, rows * alpha.degree)
        row = data.draw(st.sampled_from([1, 2]))
        _assert_permutation(interleaved_lift(alpha, row).images, 2 * alpha.degree)

    @given(_perms, _small)
    def test_row_permutation_and_lifted_column(self, beta, cols):
        _assert_permutation(row_permutation(beta, cols).images, beta.degree * cols)
        _assert_permutation(lifted_column_perm(beta, cols).images, beta.degree * cols)
        _assert_permutation(pair_swap(cols).images, 2 * cols)

    @given(st.integers(min_value=2, max_value=6), _small)
    def test_block_row_generators(self, k, m):
        for g in block_row_generators(k, m):
            _assert_permutation(g.images, k * m)

    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda d: st.tuples(_perm_of_degree(d), _perm_of_degree(d))
        ),
        st.integers(min_value=-5, max_value=12),
    )
    def test_products_and_powers(self, pair, e):
        p, q = pair
        _assert_permutation((p * q).images, p.degree)
        _assert_permutation((p**e).images, p.degree)
        _assert_permutation(Permutation.identity(p.degree).images, p.degree)


class TestLiftedColumn:
    def test_full_cycle_lift(self):
        lifted = lifted_column_perm(shift(7), 2)
        assert format_cycles(lifted) == "(1,2,3,4,5,6,7)(8,9,10,11,12,13,14)"

    def test_identity_lift(self):
        assert lifted_column_perm(Permutation.identity(7), 3).is_identity()

    def test_lift_of_automorphism_is_automorphism(self):
        # same generator polynomial at length 7 and 14
        long_code = CyclicCode(14, parse_poly("x^3+x+1"))
        for tau in filter_generators(brute_force_aut(HAMMING), 7):
            assert is_automorphism(long_code, lifted_column_perm(tau, 2))

    def test_lift_of_non_automorphism_is_not(self):
        long_code = CyclicCode(14, parse_poly("x^3+x+1"))
        tau = parse_cycles("(1,2)", 7)
        assert not is_automorphism(HAMMING, tau)
        assert not is_automorphism(long_code, lifted_column_perm(tau, 2))


class TestInterleavedAndPairSwap:
    def test_row1(self):
        assert format_cycles(interleaved_lift(shift(7), 1)) == "(1,3,5,7,9,11,13)"

    def test_row2(self):
        assert format_cycles(interleaved_lift(shift(7), 2)) == "(2,4,6,8,10,12,14)"

    def test_both_rows_compose_to_shift_squared(self):
        both = interleaved_lift(shift(7), 1) * interleaved_lift(shift(7), 2)
        assert both == shift(14) ** 2

    def test_bad_row(self):
        with pytest.raises(ValueError):
            interleaved_lift(shift(7), 3)

    def test_pair_swap_small(self):
        assert format_cycles(pair_swap(2)) == "(1,2)(3,4)"

    def test_pair_swap_involution(self):
        assert (pair_swap(7) ** 2).is_identity()

    def test_pair_swap_is_automorphism_of_squared_generator_code(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        assert is_automorphism(code, pair_swap(7))

    def test_interleaved_lifts_are_automorphisms(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        for sigma in filter_generators(brute_force_aut(HAMMING), 7):
            assert is_automorphism(code, interleaved_lift(sigma, 1))
            assert is_automorphism(code, interleaved_lift(sigma, 2))


class TestResidueRows:
    def test_lift_row1(self):
        assert format_cycles(residue_lift(shift(7), 1, 7)) == "(1,8,15,22,29,36,43)"

    def test_lift_identity(self):
        assert residue_lift(Permutation.identity(7), 3, 7).is_identity()

    def test_lift_row2_rows3(self):
        assert format_cycles(residue_lift(parse_cycles("(1,2,3)", 3), 2, 3)) == "(2,5,8)"

    def test_row_permutation_swap(self):
        got = row_permutation(parse_cycles("(1,2)", 7), 7)
        assert format_cycles(got) == "(1,2)(8,9)(15,16)(22,23)(29,30)(36,37)(43,44)"

    def test_row_permutation_identity(self):
        assert row_permutation(Permutation.identity(4), 5).is_identity()

    def test_two_row_case_equals_pair_swap(self):
        assert row_permutation(parse_cycles("(1,2)", 2), 7) == pair_swap(7)

    def test_bad_row_index(self):
        with pytest.raises(ValueError):
            residue_lift(shift(7), 8, 7)

    @given(st.data())
    @settings(max_examples=40)
    def test_conjugation_moves_the_row(self, data):
        rows = data.draw(st.integers(min_value=2, max_value=4))
        cols = data.draw(st.integers(min_value=2, max_value=4))
        alpha = Permutation(tuple(data.draw(st.permutations(range(cols)))))
        beta = Permutation(tuple(data.draw(st.permutations(range(rows)))))
        a = data.draw(st.integers(min_value=1, max_value=rows))
        rp = row_permutation(beta, cols)
        lhs = rp * residue_lift(alpha, a, rows) * rp.inverse()
        rhs = residue_lift(alpha, beta.images[a - 1] + 1, rows)
        assert lhs == rhs


class TestMultipliers:
    def test_unit_one_is_identity(self):
        assert multiplier(1, 7).is_identity()

    def test_squaring_map_on_hamming_word(self):
        from cycaut.code import Codeword, apply_to_word

        w = Codeword.from_text("1101000")
        image = apply_to_word(multiplier(2, 7), w)
        assert str(image) == "1010001"
        assert image.poly() == parse_poly("x^3+x+1") ** 2
        assert HAMMING.contains(image)

    def test_three_is_not_hamming_automorphism(self):
        assert not is_automorphism(HAMMING, multiplier(3, 7))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            multiplier(2, 14)
        with pytest.raises(ValueError):
            multiplier(0, 7)

    def test_hamming_subgroup(self):
        assert multiplier_subgroup(HAMMING) == [1, 2, 4]

    def test_two_quintic_subgroup(self):
        code = CyclicCode(31, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)"))
        units = multiplier_subgroup(code)
        assert len(units) == 10
        grp = PermGroup([shift(31)] + [multiplier(a, 31) for a in units if a != 1])
        assert grp.order() == 310

    def test_three_quintic_subgroup(self):
        code = CyclicCode(
            31, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)")
        )
        units = multiplier_subgroup(code)
        assert len(units) == 5
        grp = PermGroup([shift(31)] + [multiplier(a, 31) for a in units if a != 1])
        assert grp.order() == 155

    def test_subgroup_closed_and_contains_frobenius(self):
        from cycaut.gf2poly import divisors_of_xn_minus_1

        for n in (7, 9, 15):
            for g in divisors_of_xn_minus_1(n):
                units = multiplier_subgroup(CyclicCode(n, g))
                assert 1 in units and 2 in units
                unit_set = set(units)
                for a in units:
                    for b in units:
                        assert a * b % n in unit_set


class TestConstructedGroupOrders:
    @pytest.mark.parametrize(
        "n,gtext,inner_order",
        [
            (7, "x^3+x+1", 168),
            (7, "(x^3+x+1)(x^3+x^2+1)", 5040),
            (5, "x^4+x^3+x^2+x+1", 120),
        ],
    )
    def test_semidirect_order_with_brute_forced_inner_group(self, n, gtext, inner_order):
        # column lifts of Aut(length-n code) over (S_k)^n blocks: order (k!)^n * |Aut|
        import math

        inner = CyclicCode(n, parse_poly_product(gtext))
        taus = filter_generators(brute_force_aut(inner), n)
        for k in (2, 3):
            gens = block_row_generators(k, n) + [lifted_column_perm(t, k) for t in taus]
            grp = PermGroup(gens, degree=n * k)
            assert grp.order() == math.factorial(k) ** n * inner_order
