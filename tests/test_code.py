import pytest
from hypothesis import given, strategies as st

from cycaut.code import Codeword, CyclicCode, apply_to_word
from cycaut.construct import shift
from cycaut.gf2poly import ONE, parse_poly, parse_poly_product, x_pow_n_minus_1


HAMMING = CyclicCode(7, parse_poly("x^3+x+1"))
REPETITION = CyclicCode(7, parse_poly("x^6+x^5+x^4+x^3+x^2+x+1"))


class TestConstruction:
    def test_hamming_parameters(self):
        assert (HAMMING.length, HAMMING.dimension) == (7, 4)
        assert HAMMING.generator * HAMMING.check == x_pow_n_minus_1(7)

    def test_dimension_one(self):
        assert REPETITION.dimension == 1
        words = {str(w) for w in REPETITION.codewords()}
        assert words == {"0000000", "1111111"}

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            CyclicCode(7, parse_poly("x^2+x+1"))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            CyclicCode(0, ONE)

    def test_degenerate_codes(self):
        full = CyclicCode(5, ONE)
        assert full.dimension == 5
        zero = CyclicCode(5, x_pow_n_minus_1(5))
        assert zero.dimension == 0
        assert zero.weight_distribution() == {0: 1}


class TestMembership:
    def test_generator_word(self):
        assert HAMMING.contains(Codeword.from_text("1101000"))

    def test_non_member(self):
        assert not HAMMING.contains(Codeword.from_text("1110000"))

    def test_zero_word(self):
        assert HAMMING.contains(Codeword(7, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HAMMING.contains(Codeword.from_text("101"))

    @given(st.data())
    def test_linearity(self, data):
        words = list(HAMMING.codewords())
        w1 = data.draw(st.sampled_from(words))
        w2 = data.draw(st.sampled_from(words))
        assert HAMMING.contains(w1 ^ w2)

    @given(st.data())
    def test_shift_closure(self, data):
        words = list(HAMMING.codewords())
        w = data.draw(st.sampled_from(words))
        assert HAMMING.contains(apply_to_word(shift(7), w))


class TestRowsAndEnumeration:
    def test_hamming_rows(self):
        rows = [str(r) for r in HAMMING.generator_rows()]
        assert rows == ["1101000", "0110100", "0011010", "0001101"]

    def test_repetition_rows(self):
        assert [str(r) for r in REPETITION.generator_rows()] == ["1111111"]

    def test_full_space_rows(self):
        full = CyclicCode(3, ONE)
        assert [str(r) for r in full.generator_rows()] == ["100", "010", "001"]

    def test_rows_are_codewords(self):
        for code in (HAMMING, REPETITION):
            for row in code.generator_rows():
                assert code.contains(row)

    def test_enumeration_count_and_uniqueness(self):
        words = list(HAMMING.codewords())
        assert len(words) == 16
        assert len({w.bits for w in words}) == 16

    def test_hamming_weight_distribution(self):
        assert HAMMING.weight_distribution() == {0: 1, 3: 7, 4: 7, 7: 1}

    def test_repetition_weight_distribution(self):
        assert REPETITION.weight_distribution() == {0: 1, 7: 1}

    def test_enumeration_guard(self):
        big = CyclicCode(25, ONE)
        with pytest.raises(ValueError, match="exceeds the enumeration limit 20"):
            list(big.codewords())


class TestCodewordText:
    def test_leftmost_is_constant_term(self):
        w = Codeword.from_text("1101000")
        assert w.poly() == parse_poly("x^3+x+1")

    def test_bad_text(self):
        with pytest.raises(ValueError):
            Codeword.from_text("10a1")

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_roundtrip(self, n, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        w = Codeword(n, bits)
        assert Codeword.from_text(str(w)) == w

    def test_product_form_code(self):
        code = CyclicCode(14, parse_poly_product("(x^3+x+1)^2"))
        assert (code.length, code.dimension) == (14, 8)
