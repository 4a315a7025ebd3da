import signal

import pytest
from hypothesis import given, strategies as st

from cycaut.code import Codeword, apply_to_word
from cycaut.construct import shift
from cycaut.perm import Permutation, format_cycles, parse_cycles


@st.composite
def permutations(draw, max_degree=12):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(range(n)))
    return Permutation(tuple(images))


def words_for(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1).map(lambda b: Codeword(n, b))


class TestCompose:
    def test_involution(self):
        t = parse_cycles("(1,2)", 2)
        assert (t * t).is_identity()

    def test_three_cycle_squared(self):
        c = parse_cycles("(1,2,3)", 3)
        assert c * c == parse_cycles("(1,3,2)", 3)

    def test_identity_neutral(self):
        a = parse_cycles("(1,4)(2,3)", 4)
        assert a * Permutation.identity(4) == a
        assert Permutation.identity(4) * a == a

    def test_order_is_a_after_b(self):
        # (a*b)(i) = a(b(i)): with a=(1,2), b=(2,3): 3 -> b -> 2 -> a -> 1
        a = parse_cycles("(1,2)", 3)
        b = parse_cycles("(2,3)", 3)
        assert (a * b).images[2] == 0

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)

    @given(permutations())
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


class TestCycleNotation:
    def test_parse_images(self):
        p = parse_cycles("(1,2,3)(4,5)", 5)
        assert [i + 1 for i in p.images] == [2, 3, 1, 5, 4]

    def test_identity_text(self):
        assert parse_cycles("()", 5).is_identity()
        assert format_cycles(Permutation.identity(3)) == "()"

    def test_roundtrip_example(self):
        assert format_cycles(parse_cycles("(2,14)", 14)) == "(2,14)"

    def test_repr_is_a_parse_cycles_call(self):
        p = parse_cycles("(1,3)(2,4,5)", 6)
        assert repr(p) == "parse_cycles('(1,3)(2,4,5)', 6)"
        assert eval(repr(p), {"parse_cycles": parse_cycles}) == p

    def test_whitespace_ignored(self):
        assert parse_cycles("(1, 2, 3) (4,5)", 5) == parse_cycles("(1,2,3)(4,5)", 5)

    def test_rejects_repeats_and_out_of_range(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(1,6)", 5)
        with pytest.raises(ValueError):
            parse_cycles("(0,1)", 5)
        with pytest.raises(ValueError):
            parse_cycles("", 5)

    @pytest.mark.parametrize("text", ["(\uff11,2)", "(+3,1)", "(1_0,2)"])
    def test_rejects_points_not_in_ascii_digits(self, text):
        # int() reads each of these points
        with pytest.raises(ValueError, match="bad cycle"):
            parse_cycles(text, 10)

    @given(permutations())
    def test_roundtrip(self, p):
        assert parse_cycles(format_cycles(p), p.degree) == p


class TestWordAction:
    def test_full_cycle_is_right_shift(self):
        w = Codeword.from_text("1101000")
        assert str(apply_to_word(shift(7), w)) == "0110100"

    def test_identity_action(self):
        w = Codeword.from_text("10110")
        assert apply_to_word(Permutation.identity(5), w) == w

    def test_symmetric_bits_fixed(self):
        w = Codeword.from_text("1101000")
        assert apply_to_word(parse_cycles("(1,2)", 7), w) == w

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            apply_to_word(Permutation.identity(3), Codeword.from_text("1101"))

    @given(st.data())
    def test_action_is_homomorphism(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        a = Permutation(tuple(data.draw(st.permutations(range(n)))))
        b = Permutation(tuple(data.draw(st.permutations(range(n)))))
        w = data.draw(words_for(n))
        assert apply_to_word(a * b, w) == apply_to_word(a, apply_to_word(b, w))

    @given(st.data())
    def test_weight_preserved(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        p = Permutation(tuple(data.draw(st.permutations(range(n)))))
        w = data.draw(words_for(n))
        assert apply_to_word(p, w).weight() == w.weight()

    @given(st.data())
    def test_full_cycle_matches_shift_everywhere(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        w = data.draw(words_for(n))
        shifted = apply_to_word(shift(n), w)
        expected = Codeword.from_text(str(w)[-1] + str(w)[:-1])
        assert shifted == expected


class TestConstructorCheck:
    def test_public_constructor_rejects_non_permutations(self):
        for images in ((0, 0), (1, 2), (0, 2, 2), (-1, 0)):
            with pytest.raises(ValueError, match="not a permutation"):
                Permutation(images)

    @given(permutations())
    def test_unchecked_wrap_equals_checked(self, p):
        q = Permutation._trusted(p.images)
        assert q == p and hash(q) == hash(p)
        assert q.degree == p.degree and str(q) == str(p)

    @pytest.mark.parametrize("images", [(0, 0), (1, 0, 1), (1, 2, 2), (2, 0, 0, 3)])
    def test_cycle_text_of_non_permutation_raises(self, images):
        # a cycle walk that never returns to its start once looped forever
        def overrun(signum, frame):
            raise TimeoutError("format_cycles ran for more than 1 s")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError, match="not a permutation"):
                format_cycles(Permutation._trusted(images))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @given(permutations())
    def test_cycle_text_of_permutations_is_unchanged(self, p):
        # the unbounded walk, which ends on every permutation
        img, seen, out = p.images, set(), []
        for i in range(len(img)):
            if i in seen or img[i] == i:
                continue
            cycle, j = [i], img[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = img[j]
            out.append("(" + ",".join(str(c + 1) for c in cycle) + ")")
        assert str(p) == ("".join(out) or "()")
