import pytest
from hypothesis import given, strategies as st

import cycaut.gf2poly as gf2poly
from cycaut.gf2poly import (
    Gf2Poly,
    ONE,
    X,
    ZERO,
    NEG_INF,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    format_poly,
    gcd,
    is_irreducible,
    parse_poly,
    parse_poly_product,
    x_pow_n_minus_1,
)

polys = st.integers(min_value=0, max_value=(1 << 96) - 1).map(Gf2Poly)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 96) - 1).map(Gf2Poly)


def P(text):
    return parse_poly(text)


class TestArithmetic:
    def test_add_characteristic_two(self):
        assert P("x+1") + P("x+1") == ZERO

    def test_add_by_hand(self):
        # coefficientwise XOR: only the x^2 and x terms survive
        assert P("x^3+x+1") + P("x^3+x^2+1") == P("x^2+x")

    def test_add_identity(self):
        assert P("x^5+x^2") + ZERO == P("x^5+x^2")

    def test_mul_long_multiplication(self):
        # long multiplication of the two cubics gives the all-ones sextic
        assert P("x^3+x+1") * P("x^3+x^2+1") == P("x^6+x^5+x^4+x^3+x^2+x+1")

    def test_mul_squaring(self):
        assert P("x+1") * P("x+1") == P("x^2+1")

    def test_mul_identity(self):
        assert P("x^4+x") * ONE == P("x^4+x")

    def test_divmod_exact(self):
        # (x^3+x+1)(x^4+x^2+x+1) = x^7+1, checked by re-multiplication
        q, r = divmod(P("x^7+1"), P("x^3+x+1"))
        assert (q, r) == (P("x^4+x^2+x+1"), ZERO)
        assert q * P("x^3+x+1") == P("x^7+1")

    def test_divmod_small_dividend(self):
        assert divmod(P("x^2+x+1"), P("x^3+x+1")) == (ZERO, P("x^2+x+1"))

    def test_divmod_by_one(self):
        p = P("x^6+x^3+1")
        assert divmod(p, ONE) == (p, ZERO)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("x"), ZERO)

    def test_degree_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert ZERO.degree < 0
        assert ONE.degree == 0
        assert X.degree == 1

    @given(polys, polys)
    def test_add_self_cancels(self, p, q):
        assert p + p == ZERO
        assert p + q == q + p

    @given(polys, nonzero_polys)
    def test_divmod_identity(self, p, q):
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree

    @given(polys, nonzero_polys)
    def test_mul_then_divmod(self, p, q):
        assert divmod(p * q, q) == (p, ZERO)


class TestGcd:
    def test_gcd_divisor(self):
        assert gcd(P("x^7+1"), P("x^3+x+1")) == P("x^3+x+1")

    def test_gcd_coprime(self):
        assert gcd(P("x^3+x+1"), P("x^3+x^2+1")) == ONE

    def test_gcd_with_zero(self):
        assert gcd(P("x^4+x"), ZERO) == P("x^4+x")

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, p, q):
        d = gcd(p, q)
        assert p % d == ZERO
        assert q % d == ZERO


class TestIrreducibility:
    def test_cubic_irreducible(self):
        assert is_irreducible(P("x^3+x+1"))

    def test_sextic_product_reducible(self):
        assert not is_irreducible(P("x^3+x+1") * P("x^3+x^2+1"))

    def test_quadratic_irreducible(self):
        assert is_irreducible(P("x^2+x+1"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(ONE)
        with pytest.raises(ValueError):
            is_irreducible(ZERO)

    def test_known_quintics(self):
        for text in ("x^5+x^2+1", "x^5+x^3+1", "x^5+x^3+x^2+x+1"):
            assert is_irreducible(P(text))

    @given(nonzero_polys, nonzero_polys)
    def test_products_are_reducible(self, p, q):
        if p.degree >= 1 and q.degree >= 1:
            assert not is_irreducible(p * q)


class TestFactorXnMinus1:
    def test_n7(self):
        assert factor_xn_minus_1(7) == [
            (P("x+1"), 1),
            (P("x^3+x+1"), 1),
            (P("x^3+x^2+1"), 1),
        ]

    def test_n14_doubles_multiplicity(self):
        assert factor_xn_minus_1(14) == [
            (P("x+1"), 2),
            (P("x^3+x+1"), 2),
            (P("x^3+x^2+1"), 2),
        ]

    def test_n15(self):
        factors = {str(f) for f, _ in factor_xn_minus_1(15)}
        assert factors == {"x+1", "x^2+x+1", "x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"}
        assert all(m == 1 for _, m in factor_xn_minus_1(15))

    def test_n1(self):
        assert factor_xn_minus_1(1) == [(P("x+1"), 1)]

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            factor_xn_minus_1(0)

    def test_unexhausted_factorization_raises(self, monkeypatch):
        # cosets of size 1 only: the two cubic factors of x^7+1 are never split
        # off, and the check must survive python -O, so it is an exception
        monkeypatch.setattr(gf2poly, "_cyclotomic_cosets", lambda m: [[0]])
        with pytest.raises(RuntimeError, match="did not exhaust"):
            factor_xn_minus_1(7)

    def test_a_trace_sweep_that_never_splits_raises(self, monkeypatch):
        # a zero trace never separates the two cubic factors of x^7+1; the
        # sweep must end in an exception that survives python -O
        monkeypatch.setattr(gf2poly, "_trace_mod", lambda h, d, g: 0)
        with pytest.raises(RuntimeError, match="splits a product of degree-3 irreducibles"):
            factor_xn_minus_1(7)

    @pytest.mark.parametrize("n", list(range(1, 41)) + [49, 62, 63, 98, 105])
    def test_invariants(self, n):
        factors = factor_xn_minus_1(n)
        product = ONE
        for f, m in factors:
            assert is_irreducible(f)
            assert m == (n & -n)
            product = product * f**m
        assert product == x_pow_n_minus_1(n)
        assert len({f for f, _ in factors}) == len(factors)

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 21, 31, 33, 35])
    def test_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expected = set()
        for factor, mult in sympy.Poly(x**n - 1, x, modulus=2).factor_list()[1]:
            coeffs = factor.all_coeffs()  # descending
            bits = 0
            for i, c in enumerate(reversed(coeffs)):
                if int(c) % 2:
                    bits |= 1 << i
            expected.add((bits, mult))
        got = {(f.bits, m) for f, m in factor_xn_minus_1(n)}
        assert got == expected

    def test_divisor_enumeration(self):
        divisors = divisors_of_xn_minus_1(7)
        assert len(divisors) == 8
        assert all(x_pow_n_minus_1(7) % d == ZERO for d in divisors)


class TestTextForm:
    def test_format_descending(self):
        assert str(P("1+x+x^3")) == "x^3+x+1"

    def test_zero_and_one(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert parse_poly("0") == ZERO

    def test_whitespace_ignored(self):
        assert parse_poly("x^3 + x + 1") == P("x^3+x+1")

    def test_rejects_garbage(self):
        for bad in ("", "x^", "y+1", "x^3+x+1+", "2x", "x^-1"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_rejects_non_ascii_digits(self):
        # without re.ASCII, \d matches the digits of every script
        with pytest.raises(ValueError, match="bad polynomial term"):
            parse_poly("x^\uff13+x+1")
        with pytest.raises(ValueError, match="bad polynomial product"):
            parse_poly_product("(x^3+x+1)^\uff12")

    def test_rejects_repeated_terms(self):
        with pytest.raises(ValueError):
            parse_poly("x+x")

    def test_product_form(self):
        assert parse_poly_product("(x^3+x+1)^2") == P("x^3+x+1") ** 2
        assert parse_poly_product("(x^3+x+1)(x^3+x^2+1)") == P("x^6+x^5+x^4+x^3+x^2+x+1")
        assert parse_poly_product("x^3+x+1") == P("x^3+x+1")
        with pytest.raises(ValueError):
            parse_poly_product("(x^3+x+1")

    @given(polys)
    def test_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p
