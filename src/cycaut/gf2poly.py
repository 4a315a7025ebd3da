"""Exact arithmetic and factorization for polynomials over GF(2).

A polynomial is stored as a nonnegative integer: bit i is the coefficient
of x^i, so the constant term is the lowest bit.  Addition is XOR,
multiplication is carry-less convolution.  The zero polynomial is the
integer 0 and its degree is the sentinel -inf, so degree comparisons
against real degrees always behave.

The text grammar is a sum of terms over {"1", "x", "x^K"}, K in ASCII
digits, joined by "+" ("0" alone denotes the zero polynomial).  The
parser accepts terms in any order; the formatter emits descending
exponents, e.g. "x^3+x+1".

`factor_xn_minus_1` splits a product g of distinct degree-d irreducibles
by gcd(g, Tr(x^e)), Tr(h) = h + h^2 + ... + h^(2^(d-1)) mod g, at the
first e = 1, 2, ..., deg g - 1 that splits it.  One does: with 1 the x^e
span F_2[x]/(g), Tr(1) = d mod 2 mod every factor alike, and for factors
f1 != f2 the CRT element that is 0 mod f2 and has trace 1 mod f1
separates their traces, so by linearity some x^e does too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NEG_INF = float("-inf")

_TERM_RE = re.compile(r"1|x(\^\d+)?", re.ASCII)
_FACTOR_RE = re.compile(r"\(([^()]+)\)(?:\^(\d+))?", re.ASCII)


@dataclass(frozen=True, slots=True)
class Gf2Poly:
    """Immutable polynomial over GF(2), bit-packed exponent-ascending."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("polynomial bits must be nonnegative")

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else NEG_INF

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: Gf2Poly) -> Gf2Poly:
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: Gf2Poly) -> Gf2Poly:
        return Gf2Poly(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
        q, r = _divmod_bits(self.bits, other.bits)
        return Gf2Poly(q), Gf2Poly(r)

    def __floordiv__(self, other: Gf2Poly) -> Gf2Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Gf2Poly) -> Gf2Poly:
        return Gf2Poly(_mod_bits(self.bits, other.bits))

    def __pow__(self, e: int) -> Gf2Poly:
        if e < 0:
            raise ValueError("negative exponent")
        acc, base = 1, self.bits
        while e:
            if e & 1:
                acc = _mul_bits(acc, base)
            base = _mul_bits(base, base)
            e >>= 1
        return Gf2Poly(acc)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Gf2Poly({format_poly(self)!r})"


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)


def _mul_bits(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _mod_bits(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    bdeg = b.bit_length() - 1
    adeg = a.bit_length() - 1
    while adeg >= bdeg:
        a ^= b << (adeg - bdeg)
        adeg = a.bit_length() - 1
    return a


def _divmod_bits(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    bdeg = b.bit_length() - 1
    q = 0
    adeg = a.bit_length() - 1
    while adeg >= bdeg:
        q ^= 1 << (adeg - bdeg)
        a ^= b << (adeg - bdeg)
        adeg = a.bit_length() - 1
    return q, a


def gcd(p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor; errors when both inputs are zero.

    Over GF(2) every nonzero polynomial is monic, so no normalization is
    needed.
    """
    a, b = p.bits, q.bits
    if a == 0 and b == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    while b:
        a, b = b, _mod_bits(a, b)
    return Gf2Poly(a)


def _powmod_bits(a: int, e: int, m: int) -> int:
    acc = 1 % m
    base = _mod_bits(a, m)
    while e:
        if e & 1:
            acc = _mod_bits(_mul_bits(acc, base), m)
        base = _mod_bits(_mul_bits(base, base), m)
        e >>= 1
    return acc


def is_irreducible(p: Gf2Poly) -> bool:
    """Distinct-degree sieve: p of degree d is reducible iff it shares a
    factor with x^(2^i) - x for some i <= d/2."""
    d = p.degree
    if not isinstance(d, int) or d < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    t = 2  # x
    for _ in range(d // 2):
        t = _mod_bits(_mul_bits(t, t), p.bits)
        if gcd(Gf2Poly(t ^ 2), p).bits != 1:
            return False
    return True


def x_pow_n_minus_1(n: int) -> Gf2Poly:
    """x^n + 1 (same as x^n - 1 in characteristic 2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return Gf2Poly((1 << n) | 1)


def _cyclotomic_cosets(m: int) -> list[list[int]]:
    """Orbits of multiplication by 2 on Z/mZ, for odd m."""
    seen = bytearray(m)
    cosets = []
    for s in range(m):
        if seen[s]:
            continue
        coset = []
        j = s
        while not seen[j]:
            seen[j] = 1
            coset.append(j)
            j = 2 * j % m
        cosets.append(coset)
    return cosets


def _trace_mod(h: int, d: int, g: int) -> int:
    """h + h^2 + h^4 + ... + h^(2^(d-1)) mod g."""
    acc = t = _mod_bits(h, g)
    for _ in range(d - 1):
        t = _mod_bits(_mul_bits(t, t), g)
        acc ^= t
    return acc


def _equal_degree_split(g: int, d: int) -> list[int]:
    """Split g, a product of distinct irreducibles of degree d, into them
    by the trace sweep of the module docstring."""
    gdeg = g.bit_length() - 1
    if gdeg == d:
        return [g]
    for e in range(1, gdeg):
        h = _powmod_bits(2, e, g)
        u = gcd(Gf2Poly(_trace_mod(h, d, g)), Gf2Poly(g)).bits
        udeg = u.bit_length() - 1
        if 0 < udeg < gdeg:
            v = _divmod_bits(g, u)[0]
            return _equal_degree_split(u, d) + _equal_degree_split(v, d)
    raise RuntimeError(f"no trace x^e, e < {gdeg}, splits a product of degree-{d} irreducibles")


def factor_xn_minus_1(n: int) -> list[tuple[Gf2Poly, int]]:
    """Complete irreducible factorization of x^n + 1 over GF(2).

    Writing n = 2^a * m with m odd, x^n + 1 = (x^m + 1)^(2^a) and the odd
    part is squarefree with factor degrees given by the sizes of the
    cyclotomic cosets of 2 mod m.  Factors come back sorted by (degree,
    coefficient bits) with every multiplicity equal to 2^a.
    """
    if n < 1:
        raise ValueError("n must be positive")
    mult = n & -n
    m = n // mult
    remaining = (1 << m) | 1
    degrees = sorted({len(c) for c in _cyclotomic_cosets(m)})
    factors: list[int] = []
    for d in degrees:
        if remaining == 1:
            break
        t = _powmod_bits(2, 1 << d, remaining)  # x^(2^d) mod remaining
        gd = gcd(Gf2Poly(t ^ 2), Gf2Poly(remaining)).bits
        if gd == 1:
            continue
        remaining = _divmod_bits(remaining, gd)[0]
        factors.extend(_equal_degree_split(gd, d))
    if remaining != 1:
        raise RuntimeError(f"factorization did not exhaust x^{m} + 1")
    factors.sort(key=lambda f: (f.bit_length(), f))
    return [(Gf2Poly(f), mult) for f in factors]


def divisors_of_xn_minus_1(n: int) -> list[Gf2Poly]:
    """All monic divisors of x^n + 1, i.e. all generator polynomials of
    length-n binary cyclic codes.  Sorted by (degree, coefficient bits)."""
    divisors = [1]
    for f, mult in factor_xn_minus_1(n):
        powers = [1]
        for _ in range(mult):
            powers.append(_mul_bits(powers[-1], f.bits))
        divisors = [_mul_bits(d, p) for d in divisors for p in powers]
    divisors.sort(key=lambda d: (d.bit_length(), d))
    return [Gf2Poly(d) for d in divisors]


def format_poly(p: Gf2Poly) -> str:
    bits = p.bits
    if bits == 0:
        return "0"
    terms = []
    for i in range(bits.bit_length() - 1, -1, -1):
        if (bits >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def parse_poly(text: str) -> Gf2Poly:
    """Parse the sum-of-terms grammar; repeated terms are rejected."""
    s = "".join(text.split())
    if s == "0":
        return ZERO
    if not s:
        raise ValueError("empty polynomial text")
    bits = 0
    for term in s.split("+"):
        if not _TERM_RE.fullmatch(term):
            raise ValueError(f"bad polynomial term {term!r}")
        if term == "1":
            t = 1
        elif term == "x":
            t = 2
        else:
            t = 1 << int(term[2:])
        if bits & t:
            raise ValueError(f"repeated polynomial term {term!r}")
        bits |= t
    return Gf2Poly(bits)


def parse_poly_product(text: str, max_degree: int | None = None) -> Gf2Poly:
    """Parse either the plain sum grammar or a product form
    "(f1)(f2)...", each factor optionally raised with "^k".  A product
    of degree above max_degree, when given, raises ValueError before its
    factors are multiplied out."""
    s = "".join(text.split())
    if "(" not in s:
        factors = [(parse_poly(s), 1)]
    else:
        factors, pos = [], 0
        while pos < len(s):
            m = _FACTOR_RE.match(s, pos)
            if not m:
                raise ValueError(f"bad polynomial product near {s[pos:]!r}")
            factors.append((parse_poly(m.group(1)), int(m.group(2) or 1)))
            pos = m.end()
    degree = sum(f.degree * power for f, power in factors if f)
    if max_degree is not None and degree > max_degree:
        raise ValueError(f"generator degree {degree} exceeds the length {max_degree}")
    acc = ONE
    for f, power in factors:
        acc = acc * (f if power == 1 else f**power)
    return acc
