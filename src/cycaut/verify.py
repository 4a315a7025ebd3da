"""Automorphism testing, brute-force automorphism groups for small
degrees, negative sampling, and order-claim verification.

A coordinate permutation is a code automorphism iff it maps every
codeword into the code; by linearity it suffices that the images of the
generator rows are codewords, which is what `is_automorphism` checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from time import perf_counter

from .code import CyclicCode
from .gf2poly import _mod_bits
from .group import PermGroup, build_group, chain_order, exact_order, filter_generators
from .perm import Permutation

BRUTE_FORCE_MAX_N = 10


def is_automorphism(code: CyclicCode, p: Permutation) -> bool:
    """True iff p maps the code into itself (generator-row images are
    codewords, which suffices by linearity)."""
    if p.degree != code.length:
        raise ValueError("permutation degree does not match code length")
    g = code.generator.bits
    images = p.images
    row = g
    for _ in range(code.dimension):
        bits = row
        out = 0
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            out |= 1 << images[i]
        if _mod_bits(out, g):
            return False
        row <<= 1
    return True


def brute_force_aut(code: CyclicCode, max_n: int = BRUTE_FORCE_MAX_N) -> list[Permutation]:
    """All automorphisms of the code, by exhausting S_n in lexicographic
    one-line order.  Guarded by max_n; the count grows as n!.  Raises
    RuntimeError unless they form a group (see `brute_force_group`)."""
    autos = list(_automorphisms(code, max_n))
    _closed_reduction(autos, code.length)
    return autos


def brute_force_group(
    code: CyclicCode, max_n: int = BRUTE_FORCE_MAX_N
) -> tuple[int, list[Permutation]]:
    """The number of automorphisms of the code and their
    `filter_generators` reduction, made while they are enumerated (in the
    order of `brute_force_aut`), so they are never all held at once.
    Raises RuntimeError unless the reduction generates a group of exactly
    as many elements as were found, i.e. the enumerated set is closed."""
    return _closed_reduction(_automorphisms(code, max_n), code.length)


def _closed_reduction(perms, n: int) -> tuple[int, list[Permutation]]:
    """Count and reduce the permutations in one pass; raise RuntimeError
    unless the reduction generates exactly as many elements."""
    count = 0

    def counted():
        nonlocal count
        for p in perms:
            count += 1
            yield p

    gens = filter_generators(counted(), n)
    order = build_group(gens, degree=n).order()
    if order != count:
        raise RuntimeError(
            f"brute-forced automorphism set is not a group: "
            f"{count} elements generate order {order}"
        )
    return count, gens


def _automorphisms(code: CyclicCode, max_n: int):
    """Yield every automorphism of the code, in lexicographic order over
    S_n.  `itertools.permutations` only makes permutations, so they are
    wrapped without the check."""
    n = code.length
    if n > max_n:
        raise ValueError(
            f"length {n} exceeds brute-force cutoff {max_n}; "
            "use a constructive verification instead"
        )
    g = code.generator.bits
    rows = [r.bits for r in code.generator_rows()]
    supports = []
    for r in rows:
        sup = []
        while r:
            sup.append((r & -r).bit_length() - 1)
            r &= r - 1
        supports.append(sup)
    trusted = Permutation._trusted
    for images in itertools.permutations(range(n)):
        for sup in supports:
            out = 0
            for i in sup:
                out |= 1 << images[i]
            if _mod_bits(out, g):
                break
        else:
            yield trusted(images)


def sample_outside(code: CyclicCode, group: PermGroup, trials: int, seed: int) -> int:
    """Draw seeded uniform permutations of S_n and count the automorphisms
    of the code among those outside the group.  Zero escapes is the
    expected outcome when the group is the full automorphism group.

    The automorphism test runs first: it rejects almost every draw on its
    first row, and only automorphisms need the membership sift.  The
    count does not depend on the order of the two tests."""
    if group.degree != code.length:
        raise ValueError("group degree does not match code length")
    rng = Random(seed)
    n = code.length
    escapes = 0
    for _ in range(trials):
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation._trusted(tuple(images))
        if is_automorphism(code, p) and not group.contains(p):
            escapes += 1
    return escapes


@dataclass
class VerificationReport:
    """Outcome of one order claim."""

    name: str
    n: int
    generator: str
    expected_order: int
    method: str
    computed_order: int | None = None
    passed: bool = False
    reason: str = ""
    elapsed_ms: float = 0.0
    seed: int | None = None
    sample_trials: int = 0
    sample_escapes: int = 0
    counterexample: str | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (
            f"{verdict} {self.name}: n={self.n} g={self.generator} "
            f"expected={self.expected_order} computed={self.computed_order} "
            f"[{self.method}, {self.elapsed_ms:.0f} ms"
        )
        if self.sample_trials:
            line += f", sampled {self.sample_trials} outside (seed {self.seed}), {self.sample_escapes} escapes"
        line += "]"
        if self.reason:
            line += f" -- {self.reason}"
        return line


def verify_claim(
    code: CyclicCode,
    generators: list[tuple[str, Permutation]],
    expected_order: int,
    *,
    name: str = "claim",
    method: str = "construct",
    sampling: tuple[int, int] | None = None,
    exact: bool = True,
) -> VerificationReport:
    """Check an order claim against constructed generators.

    Every generator must individually pass is_automorphism (none is
    trusted by construction).  The exact order of the group they generate
    must equal the expected order, or divide it when exact=False
    (containment-only claims).  When sampling=(trials, seed) is given, that
    many random permutations outside the group must all fail
    is_automorphism; membership needs the full stabilizer chain, so the
    order then comes from it.  Otherwise it comes from `exact_order`.
    details["order"] says which path gave the order.
    """
    t0 = perf_counter()
    report = VerificationReport(
        name=name,
        n=code.length,
        generator=str(code.generator),
        expected_order=expected_order,
        method=method,
    )
    if sampling is not None:
        report.seed = sampling[1]
    for label, p in generators:
        if not is_automorphism(code, p):
            report.reason = f"constructed generator {label} = {p} is not an automorphism"
            report.counterexample = str(p)
            report.elapsed_ms = (perf_counter() - t0) * 1000.0
            return report
    gens = [p for _, p in generators]
    if sampling is None:
        report.computed_order, report.details["order"] = exact_order(gens, code.length)
    else:
        grp = PermGroup(gens, degree=code.length)
        report.computed_order, report.details["order"] = chain_order(grp)
    if exact:
        if report.computed_order != expected_order:
            report.reason = (
                f"order mismatch: computed {report.computed_order}, expected {expected_order}"
            )
            report.elapsed_ms = (perf_counter() - t0) * 1000.0
            return report
    else:
        if expected_order % report.computed_order != 0:
            report.reason = (
                f"constructed subgroup order {report.computed_order} "
                f"does not divide expected {expected_order}"
            )
            report.elapsed_ms = (perf_counter() - t0) * 1000.0
            return report
    if sampling is not None:
        trials, seed = sampling
        report.sample_trials = trials
        report.sample_escapes = sample_outside(code, grp, trials, seed)
        if report.sample_escapes:
            report.reason = (
                f"{report.sample_escapes} sampled permutations outside the "
                f"constructed group are automorphisms"
            )
            report.elapsed_ms = (perf_counter() - t0) * 1000.0
            return report
    report.passed = True
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report
