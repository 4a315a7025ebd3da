"""Binary cyclic codes: construction, membership and enumeration.

A length-n cyclic code is the ideal of GF(2)[x]/(x^n - 1) generated by a
divisor g of x^n - 1; a length-n word belongs to the code iff its
polynomial is divisible by g.  Codeword text form is a bit string whose
leftmost character is coordinate 1 (the constant term), e.g. "1101000"
for 1 + x + x^3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .gf2poly import Gf2Poly, _divmod_bits, _mod_bits
from .perm import Permutation

MAX_ENUMERATION_DIM = 20


@dataclass(frozen=True, slots=True)
class Codeword:
    """Length-n bit word; bit i of `bits` is coordinate i+1."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0 or not 0 <= self.bits < (1 << self.length):
            raise ValueError("bits out of range for word length")

    @classmethod
    def from_text(cls, text: str) -> Codeword:
        s = text.strip()
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"bad codeword text {text!r}")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return cls(len(s), bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def poly(self) -> Gf2Poly:
        return Gf2Poly(self.bits)

    def __xor__(self, other: Codeword) -> Codeword:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return Codeword(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __repr__(self) -> str:
        return f"Codeword.from_text({str(self)!r})"


def apply_to_word(p: Permutation, w: Codeword) -> Codeword:
    """Permute coordinates: the bit at coordinate i moves to p(i)."""
    if p.degree != w.length:
        raise ValueError("permutation degree does not match word length")
    return Codeword(w.length, p.apply_to_bits(w.bits))


@dataclass(frozen=True, slots=True)
class CyclicCode:
    """[n, n - deg g] cyclic code with generator g | x^n - 1.

    `check` is the cofactor h with g*h = x^n + 1.
    """

    length: int
    generator: Gf2Poly
    dimension: int = field(init=False)
    check: Gf2Poly = field(init=False)

    def __post_init__(self):
        n, g = self.length, self.generator
        if n < 1:
            raise ValueError("code length must be positive")
        if g.bits == 0:
            raise ValueError("generator polynomial must be nonzero")
        q, r = _divmod_bits((1 << n) | 1, g.bits)
        if r:
            raise ValueError(
                f"{g} does not divide x^{n}+1 (remainder {Gf2Poly(r)})"
            )
        object.__setattr__(self, "dimension", n - g.degree)
        object.__setattr__(self, "check", Gf2Poly(q))

    def contains(self, w: Codeword) -> bool:
        if w.length != self.length:
            raise ValueError("word length does not match code length")
        return _mod_bits(w.bits, self.generator.bits) == 0

    def generator_rows(self) -> list[Codeword]:
        """The dimension-many cyclic shifts of the generator word; they
        span the code."""
        g = self.generator.bits
        return [Codeword(self.length, g << i) for i in range(self.dimension)]

    def codewords(self):
        """Yield all 2^k codewords exactly once (Gray-code order)."""
        k = self.dimension
        if k > MAX_ENUMERATION_DIM:
            raise ValueError(
                f"dimension {k} exceeds the enumeration limit {MAX_ENUMERATION_DIM}"
            )
        rows = [r.bits for r in self.generator_rows()]
        w = 0
        yield Codeword(self.length, 0)
        for m in range(1, 1 << k):
            w ^= rows[(m & -m).bit_length() - 1]
            yield Codeword(self.length, w)

    def weight_distribution(self) -> dict[int, int]:
        return dict(sorted(Counter(w.weight() for w in self.codewords()).items()))
