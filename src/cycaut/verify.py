"""Automorphism testing, brute-force automorphism groups for small
degrees, negative sampling, and order-claim verification.

A coordinate permutation is an automorphism of a code C iff it maps C
into C; by linearity it suffices that the images of the rows of a basis
are codewords.  A permutation preserves the standard inner product, so it
maps C into C iff it maps the dual code C-dual into C-dual: Aut(C) =
Aut(C-dual) (MacWilliams & Sloane, The Theory of Error-Correcting Codes,
1977; Huffman, "Codes and groups", Handbook of Coding Theory, 1998).  For
the cyclic code C = <g> of length n and dimension k, C-dual is the cyclic
code generated by the reciprocal of the check polynomial h = (x^n+1)/g,
of dimension n - k.  The test therefore runs on D, the smaller of the
two, with min(k, n - k) basis rows g_D * x^j: 10 rows instead of 1912 on
the length-1922 claim.

A word w lies in D iff its syndrome w mod g_D is 0.  One kernel per
code, `_automorphism_test`, tabulates the syndromes and returns two tests
over the same tables: a row test, which rejects at the first row whose
image has a non-zero syndrome, and a moved-points test, whose cost is in
proportion to the points a permutation moves; its docstring gives both.
The policy: screen candidates with rows, prove generators with moved
points.  Brute force, negative sampling and the multiplier scan call the
row test, as their candidates mostly fail at the first row;
`is_automorphism` proves generators, which mostly pass, and runs the
moved-points test on every permutation, dense or not.

Brute force filters the image tuples of `itertools.permutations` through
the kernel and streams the survivors into `group.count_and_sift`, one
loop that counts them and reduces them to generators; the loop is shared
with `filter_generators`.  Once the kept tuples generate S_n the rest are
still tested and counted, but not sifted, and no tuple but a kept one is
wrapped as a `Permutation`.

Every order, the one negative sampling compares against too, comes from
`group.exact_order`: a drawn p lies in the group G iff |<G, p>| = |G|,
so `sample_outside` never builds a chain just to ask membership.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter, xor
from random import Random
from time import perf_counter

from .code import CyclicCode
from .gf2poly import Gf2Poly
from .group import count_and_sift, exact_order
from .perm import Permutation

# The longest code that brute force enumerates S_n for, wherever it is
# asked to: `aut-brute`, a "brute" manifest entry or inner source.
BRUTE_FORCE_MAX_N = 10


def is_automorphism(code: CyclicCode, p: Permutation) -> bool:
    """True iff p maps the code into itself.

    Tested on the smaller of the code and its dual, which have the same
    automorphisms: the image of each of its min(k, n - k) basis rows must
    have syndrome 0.  It proves generators, which mostly pass, so it runs
    the moved-points test on `p.moved`, at a cost that follows the points
    p moves, and never the row test, which screens candidates that mostly
    fail (see `_automorphism_test`)."""
    if p.degree != code.length:
        raise ValueError("permutation degree does not match code length")
    return _automorphism_test(code)[1](p.images, p.moved)


# Lane-packed syndromes of at most this many bits keep `sum` on its
# machine-word fast path (see `_automorphism_test`).
_WORD_BITS = 62


def _automorphism_test(code: CyclicCode):
    """The row test and the moved-points test of whether a permutation
    maps the cyclic code into itself: the row test, a predicate on its
    images, screens candidates; the moved-points test, a predicate on its
    images and the points it moves, proves generators.
    Equal codes share one kernel, cached by n and the bits of g: ints
    hash faster than the code.

    D is the code if its dimension k <= n - k, else the dual code,
    generated by the reciprocal of the code's check polynomial h =
    (x^n+1)/g.  syndromes[i] = x^i mod g_D, and rows[j] picks the
    support of g_D * x^j, j < dim D, out of the images.
    When dim D >= 1, g_D has degree n - dim D >= 1 and constant term 1, so
    every support has at least two points and each itemgetter returns a
    tuple.  When dim D = 0 (g = 1 or g = x^n+1) there are no rows and
    every permutation passes.  holding[x] lists the rows j whose support
    holds x, that is, x - j is in the support of g_D.

    A row's syndrome is the XOR of its points' syndromes.  When the
    syndromes are short (every code of length <= 15, among others), each
    of their bits is given a lane wide enough to count the row's points,
    so that the plain `sum` of the packed syndromes holds, in the low bit
    of each lane, the XOR; while it fits in a machine word, `sum` adds in
    C without a call per point, where `reduce(xor, ...)` makes one.  That
    keeps brute force over S_7 as fast as the bit loop it replaces.
    Longer syndromes are XORed.  The rows are tested one at a time and
    the first non-zero syndrome rejects: a random permutation almost
    always fails on the first row, so looking up the syndromes of all n
    image points first costs more than it saves.

    A permutation p fixes every point it does not move, so for every row
    r, p(r) + r is the sum of e_x + e_p(x) over the points x of r that p
    moves, and the syndrome of p(r) is the XOR of s_x ^ s_p(x) over them
    (r itself has syndrome 0).  The moved-points test takes the moved
    points from the permutation (`Permutation.moved`, found once per
    permutation or given by the primitive that built it), so it reads no
    other point; it adds each one's s_x ^ s_p(x) into the syndromes of the
    rows that hold it, and p passes iff they all end at 0."""
    return _kernel(code.length, code.generator.bits)


# Bounded, so that a sweep over many codes keeps only the latest tables.
@functools.lru_cache(maxsize=64)
def _kernel(n: int, g: int):
    """`_automorphism_test` of the length-n code generated by the bits g:
    the row test screens candidates, the moved-points test proves."""
    code = CyclicCode(n, Gf2Poly(g))
    k = code.dimension
    if 2 * k <= n:
        gd, rank = g, k
    else:
        gd, rank = int(format(code.check.bits, "b")[::-1], 2), n - k
    deg = gd.bit_length() - 1
    syndromes = []
    s = 1
    for _ in range(n):
        syndromes.append(s)
        s <<= 1
        if s >> deg:
            s ^= gd
    support = [i for i in range(deg + 1) if gd >> i & 1]
    rows = [itemgetter(*[i + j for i in support]) for j in range(rank)]
    holding: list[list[int]] = [[] for _ in range(n)]
    for j in range(rank):
        for i in support:
            holding[i + j].append(j)
    width = len(support).bit_length()
    if deg * width <= _WORD_BITS:
        lanes = [1 << (b * width) for b in range(deg)]
        table = [sum(lane for b, lane in enumerate(lanes) if s >> b & 1) for s in syndromes]
        combine, mask = sum, sum(lanes)
    else:
        table, combine, mask = syndromes, functools.partial(functools.reduce, xor), -1
    syndrome = table.__getitem__

    def maps_into(images) -> bool:
        for row in rows:
            if combine(map(syndrome, row(images))) & mask:
                return False
        return True

    def moved_maps_into(images, moved) -> bool:
        # the syndrome of p(r_j) is the XOR of s_x ^ s_p(x) over the moved x in r_j
        acc = [0] * rank
        for x in moved:
            d = syndromes[x] ^ syndromes[images[x]]
            for j in holding[x]:
                acc[j] ^= d
        return not any(acc)

    return maps_into, moved_maps_into


def brute_force_aut(code: CyclicCode) -> list[Permutation]:
    """All automorphisms of the code, by exhausting S_n in lexicographic
    one-line order.  The count grows as n!, so a length beyond
    BRUTE_FORCE_MAX_N raises ValueError.  Raises RuntimeError unless they
    form a group (see `brute_force_group`)."""
    images = list(_automorphism_images(code))
    _closed_reduction(images, code.length)
    return list(map(Permutation._trusted, images))


def brute_force_group(code: CyclicCode) -> tuple[int, list[Permutation]]:
    """The number of automorphisms of the code and their
    `filter_generators` reduction, made while they are enumerated (in the
    order of `brute_force_aut`), so they are never all held at once.
    A length beyond BRUTE_FORCE_MAX_N raises ValueError.  Raises
    RuntimeError unless the reduction generates a group of exactly as
    many elements as were found, i.e. the enumerated set is closed.
    Every permutation of S_n is tested and every automorphism counted;
    the reduction is `count_and_sift` (see the module docstring)."""
    return _closed_reduction(_automorphism_images(code), code.length)


def _closed_reduction(images, n: int) -> tuple[int, list[Permutation]]:
    """Count and reduce the image tuples in one pass; raise RuntimeError
    unless the kept ones generate exactly as many elements."""
    count, kept = count_and_sift(images, n)
    gens = [Permutation._trusted(g) for g in kept]
    order = exact_order(gens, n)[0]
    if order != count:
        raise RuntimeError(
            f"brute-forced automorphism set is not a group: "
            f"{count} elements generate order {order}"
        )
    return count, gens


def _automorphism_images(code: CyclicCode):
    """Iterate lazily over the image tuples of every automorphism of the
    code, in lexicographic order over S_n."""
    n = code.length
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"length {n} exceeds brute-force cutoff {BRUTE_FORCE_MAX_N}; "
            "use a constructive verification instead"
        )
    return filter(_automorphism_test(code)[0], itertools.permutations(range(n)))


def sample_outside(code: CyclicCode, generators, order: int, trials: int, seed: int) -> int:
    """Draw seeded uniform permutations of S_n and count the automorphisms
    of the code outside G, the group of this order that the generators
    generate.  Zero escapes is the expected outcome when G is the full
    automorphism group.

    The automorphism test runs first: it rejects almost every draw on its
    first row, and only automorphisms need `exact_order` of G and the
    draw, and are wrapped as permutations.  The count does not depend on
    the order of the two tests.  The draws are candidates, screened by
    the row test."""
    if any(g.degree != code.length for g in generators):
        raise ValueError("generator degree does not match code length")
    rng = Random(seed)
    n = code.length
    maps_into = _automorphism_test(code)[0]
    escapes = 0
    for _ in range(trials):
        images = list(range(n))
        rng.shuffle(images)
        if maps_into(images):
            p = Permutation._trusted(tuple(images))
            if exact_order([*generators, p], n)[0] != order:
                escapes += 1
    return escapes


@dataclass
class VerificationReport:
    """Outcome of one order claim."""

    name: str
    n: int
    generator: str
    expected_order: int | None
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
    expected_order: int | None,
    *,
    name: str = "claim",
    method: str = "construct",
    sampling: tuple[int, int] | None = None,
) -> VerificationReport:
    """Check an order claim against labelled generators.

    Every generator must individually pass is_automorphism (none is
    trusted by construction).  The exact order of the group they generate
    must equal the expected order; expected_order=None computes the order
    without comparing it.  When sampling=(trials, seed) is given, that
    many random permutations outside the group must all fail
    is_automorphism (see `sample_outside`).  The order comes from
    `exact_order`, and details["order"] says which path gave it.
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
    report.reason = _failure(report, code, generators, sampling)
    report.passed = not report.reason
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report


def _failure(report, code, generators, sampling) -> str:
    """Run the checks of `verify_claim`, filling in the report; the
    reason of the first that fails, or "" when all pass."""
    for label, p in generators:
        if not is_automorphism(code, p):
            report.counterexample = str(p)
            return f"generator {label} = {p} is not an automorphism"
    gens = [p for _, p in generators]
    report.computed_order, report.details["order"] = exact_order(gens, code.length)
    computed, expected = report.computed_order, report.expected_order
    if expected is not None and computed != expected:
        return f"order mismatch: computed {computed}, expected {expected}"
    if sampling is not None:
        trials, seed = sampling
        report.sample_trials = trials
        report.sample_escapes = sample_outside(code, gens, computed, trials, seed)
        if report.sample_escapes:
            return (
                f"{report.sample_escapes} sampled permutations outside the "
                f"constructed group are automorphisms"
            )
    return ""
