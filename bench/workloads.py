"""The three benchmark workloads and their correctness checks.

Each workload has three parts:

* `prepare(mods, seed, workdir)` - set-up, done `setup_repeats` times a
  run: builds the inputs from the seed with the freshly imported program
  modules and returns a state.
* `run_pass(state, tracer)` - one pass of the timed section; returns the
  pass outputs and one latency in milliseconds per item.
* `check(state, outputs)` - run after the timed section on the outputs
  of every pass; returns (items attempted, items failed).  The checks use
  arithmetic of their own, not the program's, wherever that is possible.

The program sees only the generated inputs: a manifest with sampling
seeds, a claim, a query set or a list of lengths.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from random import Random
from time import perf_counter

# Block-rows family: a [31, 21] code with |Aut| = 310, lifted to
# length 31*K.  Its order is 310 * (K!)^31 (see len961/len1922 in the
# extended manifest, which are K = 31 and K = 62).
COLS = 31
QUINTICS = (0b100101, 0b101001)  # x^5+x^2+1, x^5+x^3+1
BLOCK_K = 6  # rows of the block layout: n = 186
QUERIES = 1000  # membership queries per pass, half members
FACTOR_LENGTHS = list(range(1, 256)) + [961]


# -- independent GF(2) arithmetic ---------------------------------------


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def coset_sizes(m: int) -> list[int]:
    """Sizes of the cyclotomic cosets of 2 mod odd m."""
    seen = [False] * m
    sizes = []
    for s in range(m):
        size = 0
        j = s
        while not seen[j]:
            seen[j] = True
            size += 1
            j = 2 * j % m
        if size:
            sizes.append(size)
    return sizes


def preserving_multipliers(g: int, n: int) -> set[int]:
    """Units a mod n whose map i -> a*i keeps g's code.  Since the map
    sends x^j g to x^(a j) times the image of g, checking g suffices."""
    terms = [i for i in range(n) if g >> i & 1]
    units = set()
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        image = 0
        for i in terms:
            image |= 1 << (a * i % n)
        if gf2_mod(image, g) == 0:
            units.add(a)
    return units


def block_rows_order(k: int) -> int:
    return 310 * math.factorial(k) ** 31


def block_rows_entry(extended: list[dict], k: int) -> dict:
    """The first extended-manifest claim (len961, K = 31) scaled to K = k."""
    entry = json.loads(json.dumps(extended[0]))
    entry["name"] = f"len{COLS * k}-block-rows"
    entry["n"] = COLS * k
    entry["expected_order"] = str(block_rows_order(k))
    entry["expected_order_factors"] = [[310, 1], [math.factorial(k), 31]]
    for spec in entry["construction"]:
        spec["k"] = k
    return entry


# -- table-default ------------------------------------------------------


class TableDefault:
    """`cycaut --json verify-table` on the bundled default manifest, with
    the sampling seeds of its sampled claims drawn from the bench seed."""

    name = "table-default"
    setup_repeats = 9

    def prepare(self, mods, seed, workdir):
        manifest = mods["manifest"]
        entries = manifest.load_manifest(manifest.default_manifest_path())
        rng = Random(seed)
        seeds = {}
        for entry in entries:
            if entry.get("sampling"):
                seeds[entry["name"]] = entry["sampling"]["seed"] = rng.randrange(1 << 31)
        path = Path(workdir) / f"table-default-seed{seed}.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return {"cli": mods["cli"], "path": str(path), "entries": entries, "seeds": seeds}

    def run_pass(self, state, tracer):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = state["cli"].main(["--json", "verify-table", state["path"]])
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        return (rc, records), [r.get("elapsed_ms", 0.0) for r in records]

    def check(self, state, outputs):
        entries = state["entries"]
        attempted = failed = 0
        for rc, records in outputs:
            attempted += len(entries)
            if rc != 0 or len(records) != len(entries):
                failed += len(entries)
                continue
            for entry, rec in zip(entries, records):
                failed += not self._record_ok(entry, rec, state["seeds"].get(entry["name"]))
        return attempted, failed

    @staticmethod
    def _record_ok(entry, rec, seed) -> bool:
        expected = entry["expected_order"]
        computed = rec.get("computed_order")
        if rec.get("name") != entry["name"] or rec.get("pass") is not True:
            return False
        if rec.get("expected_order") != expected or computed is None:
            return False
        if seed is not None and rec.get("seed") != seed:
            return False
        if entry["method"] == "containment":
            # A containment claim proves only that the built subgroup
            # divides the expected order.
            return int(expected) % int(computed) == 0
        return computed == expected


# -- chain-membership ---------------------------------------------------


class ChainMembership:
    """`PermGroup.contains` on a seeded query set against the block-rows
    group of the extended len961 claim scaled to n = 31 * BLOCK_K, which
    set-up builds: almost all of a set-up is the stabilizer-chain build."""

    name = "chain-membership"
    setup_repeats = 3  # each set-up builds the chain

    def prepare(self, mods, seed, workdir):
        manifest = mods["manifest"]
        extended = manifest.load_manifest(manifest.extended_manifest_path())
        entry = block_rows_entry(extended, BLOCK_K)
        code = mods["code"].CyclicCode(entry["n"], mods["gf2poly"].parse_poly_product(entry["generator"]))
        gens = manifest.expand_constructions(code, entry["construction"])
        group = mods["group"].PermGroup([p for _, p in gens], degree=code.length)
        rng = Random(seed)
        n = code.length
        queries = []
        for _ in range(QUERIES // 2):
            member = group.random_element(rng.getrandbits(63))
            queries.append(member)
            # Near-miss: swap two images that lie in different columns.
            images = list(member.images)
            while True:
                x, y = rng.randrange(n), rng.randrange(n)
                if images[x] % COLS != images[y] % COLS:
                    break
            images[x], images[y] = images[y], images[x]
            queries.append(mods["perm"].Permutation(tuple(images)))
        rng.shuffle(queries)
        return {"group": group, "queries": queries, "order": group.order()}

    def run_pass(self, state, tracer):
        contains = state["group"].contains
        answers = []
        latencies = []
        for i, q in enumerate(state["queries"]):
            if tracer is not None:
                tracer.item = (tracer.item[0], i)
            t0 = perf_counter()
            answers.append(contains(q))
            latencies.append((perf_counter() - t0) * 1000.0)
        return answers, latencies

    def check(self, state, outputs):
        g = clmul(*QUINTICS)
        units = preserving_multipliers(g, COLS)
        if len(units) != 10:
            raise RuntimeError(f"oracle: expected 10 preserving multipliers, found {len(units)}")
        truth = [_in_block_rows_group(q.images, units) for q in state["queries"]]
        if sum(truth) != len(truth) // 2:
            raise RuntimeError("oracle: query set is not half members")
        # The built group itself counts as one item: its order is known.
        attempted, failed = 1, int(state["order"] != block_rows_order(BLOCK_K))
        for answers in outputs:
            attempted += len(truth)
            failed += sum(a != t for a, t in zip(answers, truth))
            failed += len(truth) - len(answers)
        return attempted, failed


def _in_block_rows_group(images, units) -> bool:
    """Membership in (S_K)^31 extended by the column maps i -> a*i + b,
    a in `units`: every column class i mod 31 must map into one class,
    and the induced column map must be such an affine map."""
    sigma = [-1] * COLS
    for x, y in enumerate(images):
        c, d = x % COLS, y % COLS
        if sigma[c] < 0:
            sigma[c] = d
        elif sigma[c] != d:
            return False
    b = sigma[0]
    a = (sigma[1] - b) % COLS
    return a in units and all(sigma[j] == (a * j + b) % COLS for j in range(COLS))


# -- factor-sweep -------------------------------------------------------


class FactorSweep:
    """`factor_xn_minus_1(n)` for n = 1..255 and n = 961, in a seeded
    order; 961 = 31^2 splits degree-155 factors in the bit-loop kernels."""

    name = "factor-sweep"
    setup_repeats = 9

    def prepare(self, mods, seed, workdir):
        lengths = list(FACTOR_LENGTHS)
        Random(seed).shuffle(lengths)
        return {"gf2poly": mods["gf2poly"], "lengths": lengths}

    def run_pass(self, state, tracer):
        factor = state["gf2poly"].factor_xn_minus_1
        out = []
        latencies = []
        for n in state["lengths"]:
            if tracer is not None:
                tracer.item = (tracer.item[0], n)
            t0 = perf_counter()
            out.append(factor(n))
            latencies.append((perf_counter() - t0) * 1000.0)
        return out, latencies

    def check(self, state, outputs):
        verified: set = set()
        attempted = failed = 0
        for results in outputs:
            for n, factors in zip(state["lengths"], results):
                attempted += 1
                key = (n, tuple((f.bits, m) for f, m in factors))
                if key in verified:
                    continue
                if _factorization_ok(n, key[1]):
                    verified.add(key)
                else:
                    failed += 1
            failed += len(state["lengths"]) - len(results)
        return attempted, failed


def _factorization_ok(n: int, factors) -> bool:
    """x^n + 1 = (x^m + 1)^(2^a) with m odd, and x^m + 1 is squarefree
    with one irreducible factor per cyclotomic coset of 2 mod m, of the
    coset's size.  So if the factors multiply back to x^m + 1, have the
    coset sizes as degrees and each appear 2^a times, each one is
    irreducible: there are exactly as many factors as irreducibles."""
    mult = n & -n
    m = n // mult
    if any(k != mult for _, k in factors):
        return False
    if sorted(f.bit_length() - 1 for f, _ in factors) != sorted(coset_sizes(m)):
        return False
    prod = 1
    for f, _ in factors:
        prod = clmul(prod, f)
    for _ in range(mult.bit_length() - 1):
        prod = clmul(prod, prod)
    return prod == (1 << n) | 1


WORKLOADS = {w.name: w for w in (TableDefault(), ChainMembership(), FactorSweep())}
