"""Acceptance suite: each test pins one verification target at its exact
expected value and its runtime budget, and prints one PASS line."""

import math
import time
from collections import Counter

import pytest

from cycaut.code import CyclicCode, apply_to_word
from cycaut.construct import multiplier, multiplier_subgroup, shift
from cycaut.gf2poly import (
    ONE,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    parse_poly,
    parse_poly_product,
    x_pow_n_minus_1,
)
from cycaut.group import PermGroup, filter_generators
from cycaut.manifest import default_manifest_path, load_manifest, run_entry
from cycaut.verify import brute_force_aut, is_automorphism


ENTRIES = {e["name"]: e for e in load_manifest(default_manifest_path())}


def _check_runtime(t0, limit_s, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"{label} took {elapsed:.1f}s, budget {limit_s}s"
    return elapsed


def _report(num, text, elapsed):
    print(f"PASS criterion {num}: {text} ({elapsed:.2f}s)")


def test_criterion_1_factorization_identities():
    t0 = time.perf_counter()
    expected = {
        7: [("x+1", 1), ("x^3+x+1", 1), ("x^3+x^2+1", 1)],
        14: [("x+1", 2), ("x^3+x+1", 2), ("x^3+x^2+1", 2)],
        15: [
            ("x+1", 1),
            ("x^2+x+1", 1),
            ("x^4+x+1", 1),
            ("x^4+x^3+1", 1),
            ("x^4+x^3+x^2+x+1", 1),
        ],
    }
    for n, want in expected.items():
        factors = factor_xn_minus_1(n)
        assert [(str(f), m) for f, m in factors] == want
        product = ONE
        for f, m in factors:
            product = product * f**m
        assert product == x_pow_n_minus_1(n)
    elapsed = _check_runtime(t0, 1.0, "criterion 1")
    _report(1, "factor 7/14/15 match and re-multiply to x^n+1", elapsed)


def test_criterion_2_brute_force_orders():
    t0 = time.perf_counter()
    assert len(brute_force_aut(CyclicCode(7, parse_poly("x^3+x+1")))) == 168
    assert (
        len(brute_force_aut(CyclicCode(7, parse_poly_product("(x^3+x+1)(x^3+x^2+1)"))))
        == 5040
    )
    elapsed = _check_runtime(t0, 0.2, "criterion 2")
    _report(2, "length-7 brute-force orders 168 and 5040", elapsed)


def test_criterion_3_interleaved_construction_n14():
    t0 = time.perf_counter()
    report = run_entry(ENTRIES["len14-squared-cubic"], cache={})
    assert report.passed, report.reason
    assert report.computed_order == 56448 == 2 * 168**2
    elapsed = _check_runtime(t0, 10.0, "criterion 3")
    _report(3, "n=14 g=(x^3+x+1)^2 constructed order 2*168^2", elapsed)


def test_criterion_4_block_construction_n14():
    t0 = time.perf_counter()
    report = run_entry(ENTRIES["len14-cubic-product"], cache={})
    assert report.passed, report.reason
    assert report.computed_order == 645120 == math.factorial(7) * 2**7
    elapsed = _check_runtime(t0, 10.0, "criterion 4")
    _report(4, "n=14 g=(x^3+x+1)(x^3+x^2+1) constructed order 7!*2^7", elapsed)


def test_criterion_5_n49_both_layouts():
    t0 = time.perf_counter()
    cache = {}
    expected = 5040**8
    for name in ("len49-block-rows", "len49-residue-rows"):
        report = run_entry(ENTRIES[name], cache=cache)
        assert report.passed, f"{name}: {report.reason}"
        assert report.computed_order == expected
    elapsed = _check_runtime(t0, 1.0, "criterion 5")
    _report(5, "both n=49 constructions reach order 5040^8", elapsed)


def test_criterion_6_n98_rows():
    t0 = time.perf_counter()
    cache = {}
    report = run_entry(ENTRIES["len98-squared-cubic"], cache=cache)
    assert report.passed, report.reason
    assert report.computed_order == 2 * 168**2 * 5040**14
    report = run_entry(ENTRIES["len98-cubic-product"], cache=cache)
    assert report.passed, report.reason
    assert report.computed_order == math.factorial(7) * math.factorial(14) ** 7
    elapsed = _check_runtime(t0, 1.0, "criterion 6")
    _report(6, "n=98 orders 2*168^2*(7!)^14 and 7!*(14!)^7", elapsed)


def test_criterion_7_multiplier_subgroups_n31():
    t0 = time.perf_counter()
    two = CyclicCode(31, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)"))
    units2 = multiplier_subgroup(two)
    assert len(units2) == 10
    grp2 = PermGroup([shift(31)] + [multiplier(a, 31) for a in units2 if a != 1])
    assert grp2.order() == 310

    three = CyclicCode(31, parse_poly_product("(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)"))
    units3 = multiplier_subgroup(three)
    assert len(units3) == 5
    grp3 = PermGroup([shift(31)] + [multiplier(a, 31) for a in units3 if a != 1])
    assert grp3.order() == 155
    elapsed = _check_runtime(t0, 5.0, "criterion 7")
    _report(7, "n=31 multiplier subgroups of sizes 10 and 5, orders 310 and 155", elapsed)


def test_criterion_8_n62_rows():
    t0 = time.perf_counter()
    report = run_entry(ENTRIES["len62-two-quintics"], cache={})
    assert report.passed, report.reason
    assert report.computed_order == 310 * 2**31

    # the squared-quintic row: GL(5,2) wr S_2 on two interleaved Hamming codes
    report = run_entry(ENTRIES["len62-squared-quintic"], cache={})
    assert report.passed, report.reason
    assert report.computed_order == 2 * 9999360**2
    elapsed = _check_runtime(t0, 1.0, "criterion 8")
    _report(8, "n=62 orders 310*2^31 and 2*9999360^2 exact", elapsed)


def test_criterion_9_negative_sampling():
    t0 = time.perf_counter()
    cache = {}
    for name in ("len14-squared-cubic", "len14-cubic-product"):
        entry = ENTRIES[name]
        assert entry["sampling"] == {"trials": 1000, "seed": 0}
        report = run_entry(entry, cache=cache)
        assert report.passed, report.reason
        assert report.sample_trials == 1000
        assert report.sample_escapes == 0
    elapsed = _check_runtime(t0, 1.0, "criterion 9")
    _report(9, "1000 sampled outsiders per n=14 construction, 0 escapes", elapsed)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()

    # (a) the full cycle is an automorphism of every code with n <= 30
    for n in range(1, 31):
        tau = shift(n)
        for g in divisors_of_xn_minus_1(n):
            assert is_automorphism(CyclicCode(n, g), tau)

    # (b)+(c) brute-forced sets for n <= 8 are groups matching the chain
    # order, and preserve weight distributions
    for n in range(1, 9):
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            autos = brute_force_aut(code)
            grp = PermGroup(filter_generators(autos, n), degree=n)
            assert grp.order() == len(autos)
            auto_set = {a.images for a in autos}
            for a in autos:
                assert a.inverse().images in auto_set
            dist = code.weight_distribution()
            words = list(code.codewords())
            for a in autos[:: max(1, len(autos) // 6)]:
                image_dist = dict(
                    sorted(Counter(apply_to_word(a, w).weight() for w in words).items())
                )
                assert image_dist == dist

    # (d) the squaring multiplier preserves every odd-length code
    for n in range(1, 31, 2):
        for g in divisors_of_xn_minus_1(n):
            assert is_automorphism(CyclicCode(n, g), multiplier(2, n))

    elapsed = _check_runtime(t0, 30.0, "criterion 10")
    _report(10, "shift/group/weight/Frobenius property suites", elapsed)
