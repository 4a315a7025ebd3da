"""Binary cyclic codes, their automorphism groups, and an
order-verification harness."""

from .code import Codeword, CyclicCode, apply_to_word
from .construct import (
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
from .gf2poly import (
    Gf2Poly,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    format_poly,
    gcd,
    is_irreducible,
    parse_poly,
    parse_poly_product,
    x_pow_n_minus_1,
)
from .group import PermGroup, filter_generators
from .perm import Permutation, format_cycles, parse_cycles
from .verify import (
    VerificationReport,
    brute_force_aut,
    brute_force_group,
    is_automorphism,
    sample_outside,
    verify_claim,
)

__all__ = [
    "Codeword",
    "CyclicCode",
    "Gf2Poly",
    "PermGroup",
    "Permutation",
    "VerificationReport",
    "apply_to_word",
    "block_row_generators",
    "brute_force_aut",
    "brute_force_group",
    "divisors_of_xn_minus_1",
    "factor_xn_minus_1",
    "filter_generators",
    "format_cycles",
    "format_poly",
    "gcd",
    "interleaved_lift",
    "is_automorphism",
    "is_irreducible",
    "lifted_column_perm",
    "multiplier",
    "multiplier_subgroup",
    "pair_swap",
    "parse_cycles",
    "parse_poly",
    "parse_poly_product",
    "residue_lift",
    "row_permutation",
    "sample_outside",
    "shift",
    "verify_claim",
    "x_pow_n_minus_1",
]
