"""Explicit automorphism generators for cyclic codes of composite length.

All constructions view a length rows*cols word as a matrix and emit
permutations of the flat coordinates:

* block rows      - row-major blocks (row i is coordinates (i-1)*cols+1
                    .. i*cols).  Per column, any permutation of the rows
                    is a code automorphism; per-column symmetric groups
                    generate (S_rows)^cols.
* column lift     - a permutation of 1..cols applied inside every
                    row-major block simultaneously; it is an automorphism
                    of the long code iff it is one of the length-cols code
                    with the same generator polynomial.
* residue rows    - column-major: row a collects coordinates congruent to
                    a mod rows.  Permuting the columns of a single row by
                    an automorphism of the length-cols code, or permuting
                    whole rows, gives automorphisms; rows=2 is the
                    odd/even interleaving of a length-2p word.
* multipliers     - coordinate maps i -> a*i on residues mod n for units
                    a; the unit 2 (squaring) preserves every binary
                    cyclic code.

Block rows are the residue layout transposed (coordinate j + i*cols is
column j of block row i and column i of residue row j), so the two
primitives `residue_lift` and `row_permutation` build both layouts, alone
check their ranges, and wrap what they build unsorted (see `cycaut.perm`).
"""

from __future__ import annotations

from math import gcd as int_gcd

from .code import CyclicCode
from .perm import Permutation
from .verify import _automorphism_test


def shift(n: int) -> Permutation:
    """The full cycle (1,2,...,n), i.e. the right cyclic shift."""
    if n < 1:
        raise ValueError("n must be positive")
    return Permutation._trusted(tuple((i + 1) % n for i in range(n)))


def block_row_generators(k: int, m: int) -> list[Permutation]:
    """Per-column row k-cycle and row transposition in the k x m
    row-major layout: for column i the cycle (i, m+i, ..., (k-1)m+i) and
    the transposition (i, m+i).  Together they generate (S_k)^m.  For
    k = 2 the cycle equals the transposition and duplicates are dropped.
    They are the residue lifts of both at each of the m residue rows.
    """
    if k < 2:
        raise ValueError("need at least two rows")
    if m < 1:
        raise ValueError("need at least one column")
    moves = [shift(k)] if k == 2 else [shift(k), Permutation._trusted((1, 0, *range(2, k)))]
    return [residue_lift(alpha, row, m) for row in range(1, m + 1) for alpha in moves]


def lifted_column_perm(tau: Permutation, k: int) -> Permutation:
    """Apply tau to the columns of every row-major block: coordinate
    j + i*n maps to tau(j) + i*n for 0 <= i < k: `row_permutation(tau, k)`."""
    return row_permutation(tau, k)


def residue_lift(alpha: Permutation, at_row: int, rows: int) -> Permutation:
    """Permute the columns of one residue row: coordinate
    (at_row-1) + (b-1)*rows maps via b -> alpha(b); everything else is
    fixed.  alpha has degree cols, the result degree rows*cols."""
    if not 1 <= at_row <= rows:
        raise ValueError(f"row {at_row} out of range 1..{rows}")
    cols = alpha.degree
    images = list(range(rows * cols))
    r = at_row - 1
    for b in range(cols):
        images[r + b * rows] = r + alpha.images[b] * rows
    return Permutation._trusted(tuple(images))


def row_permutation(beta: Permutation, cols: int) -> Permutation:
    """Permute whole residue rows: coordinate (a-1) + (b-1)*rows maps via
    a -> beta(a) in every column.  beta has degree rows."""
    if cols < 1:
        raise ValueError("need at least one column")
    rows = beta.degree
    images = []
    for b in range(cols):
        images.extend(beta.images[r] + b * rows for r in range(rows))
    return Permutation._trusted(tuple(images))


def interleaved_lift(sigma: Permutation, row: int) -> Permutation:
    """Lift sigma to one parity class of a length-2p word: row 1 acts on
    the odd coordinates (2j-1 -> 2*sigma(j)-1), row 2 on the even ones."""
    return residue_lift(sigma, row, 2)


def pair_swap(p: int) -> Permutation:
    """(1,2)(3,4)...(2p-1,2p): swap the two parity classes pointwise."""
    return row_permutation(Permutation._trusted((1, 0)), p)


def multiplier(a: int, n: int) -> Permutation:
    """Residue map i -> a*i mod n on 0-based coordinates (1-based: the
    coordinate at 1+i moves to 1 + a*i mod n).  Requires gcd(a, n) = 1."""
    if int_gcd(a, n) != 1:
        raise ValueError(f"multiplier {a} is not a unit mod {n}")
    return Permutation._trusted(tuple(a * i % n for i in range(n)))


def multiplier_subgroup(code: CyclicCode) -> list[int]:
    """All units a mod n whose multiplier permutation preserves the code.
    The result is multiplicatively closed and contains 1; for odd n it
    contains 2 (squaring).  Exhaustive over the units 1..n (a = n is a
    unit only for n = 1, where 1 = n is the one residue).  A multiplier
    other than 1 moves most points, so each takes the row test of the
    automorphism kernel directly, on the images of `multiplier`."""
    n = code.length
    maps_into = _automorphism_test(code)[0]
    units = [a for a in range(1, n + 1) if int_gcd(a, n) == 1]
    return [a for a in units if maps_into([a * i % n for i in range(n)])]
