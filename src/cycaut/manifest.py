"""Verification manifests: a JSON list of order claims, one per entry.

Entry fields:

  name            unique label
  n               code length
  generator       polynomial text, plain or product form "(f1)(f2)^k..."
  expected_order  decimal string (orders routinely exceed 64 bits)
  expected_order_factors
                  optional [[base, exp], ...]; their product must equal
                  expected_order (arithmetic identity of the claim)
  method          "brute" | "construct" | "multiplier" | "containment"
  construction    list of construction records (construct/containment only)
  sampling        optional {"trials": int, "seed": int}

Every method runs one pipeline, code -> generators -> `verify_claim`,
and differs only in where the generators come from:

  brute           the reduced generating set of the brute-forced
                  automorphisms (`brute_force_group`), which generates
                  exactly as many elements as were found
  multiplier      SHIFT_MULTIPLIERS: the shift and the preserving units
  construct       the construction list; the order must equal the claim
  containment     the construction list; the order must divide the claim

`sampling` applies to every method: that many seeded random permutations
outside the generated group must all fail the automorphism test.

Construction records (degree = code length unless noted):

  {"kind": "shift"}
  {"kind": "pair_swap"}
  {"kind": "block_rows", "k": K}
  {"kind": "lifted_column", "k": K, "inner": SOURCE}      inner degree n/K
  {"kind": "interleaved_lift", "rows": [1,2], "inner": SOURCE}
  {"kind": "residue_lift", "rows": R, "at": [a,...], "inner": SOURCE}
  {"kind": "row_permutation", "rows": R, "perms": [cycles,...]}
  {"kind": "multiplier", "a": A}
  {"kind": "multipliers"}                                  all preserving units
  {"kind": "perms", "cycles": [cycles,...]}

SOURCE describes the generators of an inner group on a shorter code:

  {"source": "brute", "n": N, "generator": g}              brute-forced, reduced
  {"source": "shift_multipliers", "n": N, "generator": g}  shift plus multipliers
  {"source": "construct", "n": N, "generator": g, "specs": [...]}   recursive
  {"source": "perms", "degree": N, "cycles": [...]}        explicit list

`load_manifest` checks the whole record tree before anything runs: an
unknown field, construction kind or inner source, a missing field, a
construction list on a method that takes none, an expected_order that is
not ASCII decimal, an integer field (n, k, rows, a, at, degree, trials,
seed, the factor pairs) that is not a JSON integer or is out of range, or
a brute-force length beyond its cutoff rejects the file, naming the entry
and the field.  The cutoff is `max_brute_n` (the `--max-n` of a run) for
a "brute" entry and BRUTE_FORCE_MAX_N for a "brute" inner source, as
`run_entry` and `expand_source` apply them.  So does a value that does
not fit the length of its record: a K or R that does not divide it, a
block_rows K below 2, an odd length for pair_swap or interleaved_lift,
an interleaved row other than 1 or 2, an "at" row outside 1..R, a
multiplier that is not a unit, a cycle text that does not parse at its
degree (R for row_permutation), an inner source of another degree than
the one noted above, or a generator that does not divide x^n+1.
"""

from __future__ import annotations

import json
import math
from importlib.resources import files
from time import perf_counter

from .code import CyclicCode
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
from .gf2poly import parse_poly_product
from .perm import Permutation, parse_cycles
from .verify import BRUTE_FORCE_MAX_N, VerificationReport, brute_force_group, verify_claim

METHODS = ("brute", "construct", "multiplier", "containment")
# The generators of the shift-and-multiplier group: the `multiplier`
# method and the `shift_multipliers` inner source.
SHIFT_MULTIPLIERS = [{"kind": "shift"}, {"kind": "multipliers"}]


def default_manifest_path() -> str:
    return str(files("cycaut").joinpath("manifests/default.json"))


def extended_manifest_path() -> str:
    return str(files("cycaut").joinpath("manifests/extended.json"))


def load_manifest(path: str, max_brute_n: int = BRUTE_FORCE_MAX_N) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("manifest must be a JSON list of entries")
    names = set()
    for entry in data:
        _validate_entry(entry, max_brute_n)
        if entry["name"] in names:
            raise ValueError(f"duplicate manifest entry name {entry['name']!r}")
        names.add(entry["name"])
    return data


# Known fields.  Construction and source records: kind (or source) ->
# (required fields, optional fields), besides "kind" (or "source") itself.
_ENTRY_FIELDS = (
    "name", "n", "generator", "expected_order", "expected_order_factors",
    "method", "construction", "sampling",
)
_SAMPLING_FIELDS = (("trials",), ("seed",))
_KINDS = {
    "shift": ((), ()),
    "pair_swap": ((), ()),
    "block_rows": (("k",), ()),
    "lifted_column": (("k", "inner"), ()),
    "interleaved_lift": (("inner",), ("rows",)),
    "residue_lift": (("rows", "inner"), ("at",)),
    "row_permutation": (("rows", "perms"), ()),
    "multiplier": (("a",), ()),
    "multipliers": ((), ()),
    "perms": (("cycles",), ()),
}
_SOURCES = {
    "brute": (("n", "generator"), ()),
    "shift_multipliers": (("n", "generator"), ()),
    "construct": (("n", "generator", "specs"), ()),
    "perms": (("degree", "cycles"), ()),
}


# Integer fields, wherever they appear, with their least value (None: no
# bound).  The "rows" of interleaved_lift and the "at" of residue_lift are
# lists of them.
_INTEGERS = {
    "n": 1, "k": 1, "rows": 1, "trials": 1,
    "a": None, "at": None, "degree": None, "seed": None,
}
_INTEGER_LISTS = {("interleaved_lift", "rows"), ("residue_lift", "at")}


def _validate_entry(entry: dict, max_brute_n: int) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"manifest entry must be an object: {entry!r}")
    for key in ("name", "n", "generator", "expected_order", "method"):
        if key not in entry:
            raise ValueError(f"manifest entry missing field {key!r}")
    where = f"entry {entry['name']!r}"
    method = entry["method"]
    _check_fields(entry, where, (), _ENTRY_FIELDS)
    if method not in METHODS:
        raise ValueError(f"{where}: unknown method {method!r}")
    _check_integers(entry, where)
    if method == "brute":
        _check_brute_length(entry["n"], max_brute_n, where)
    parse_order(entry["expected_order"], f"{where}: expected_order")
    factors = entry.get("expected_order_factors", [])
    if not isinstance(factors, list):
        raise ValueError(f"{where}: field 'expected_order_factors' must be a list")
    for idx, pair in enumerate(factors):
        named = f"{where}: field 'expected_order_factors'[{idx}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{named} must be a [base, exponent] pair: {pair!r}")
        _check_integer(pair[0], f"{named}[0]", None)
        _check_integer(pair[1], f"{named}[1]", 1)
    if "sampling" in entry:
        _check_fields(entry["sampling"], f"{where}: sampling", *_SAMPLING_FIELDS)
        _check_integers(entry["sampling"], f"{where}: sampling")
    if method in ("construct", "containment"):
        if not entry.get("construction"):
            raise ValueError(f"{where} needs a construction list")
        validate_constructions(entry["construction"], entry["n"], f"{where}: construction")
    elif "construction" in entry:
        raise ValueError(f"{where}: method {method!r} takes no field 'construction'")
    _check_code(entry, where)


def parse_order(value, where: str) -> int:
    """A group order given as a string of ASCII decimal digits ("１６８"
    and "1_68" are refused, though `int` reads both)."""
    text = str(value)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{where} must be an ASCII decimal string: {value!r}")
    return int(text)


def validate_constructions(specs, n: int, where: str = "construction") -> None:
    """Reject a construction list for length n with an unknown kind, inner
    source or field, a missing field, an integer field that is not a JSON
    integer in range, or a value that does not fit its length (see the
    module docstring), naming the record (`where` prefixes it)."""
    if not isinstance(specs, list):
        raise ValueError(f"{where} must be a list of construction records")
    for idx, spec in enumerate(specs):
        _check_record(spec, f"{where}[{idx}]", "kind", _KINDS, n)


def _check_record(record, where: str, tag: str, schema: dict, degree: int) -> None:
    """Check a construction record of length `degree`, or an inner source
    that must have that degree."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object")
    kind = record.get(tag)
    if kind not in schema:
        raise ValueError(f"{where}: unknown {tag} {kind!r}")
    required, optional = schema[kind]
    named = f"{where} ({tag} {kind!r})"
    _check_fields(record, named, required, (tag, *optional))
    _check_integers(record, named, kind)
    if tag == "kind":
        part = _check_fit(record, named, degree)
        if "inner" in record:
            _check_record(record["inner"], f"{where}.inner", "source", _SOURCES, part)
    else:
        _check_source(record, named, degree)
        if "specs" in record:
            validate_constructions(record["specs"], record["n"], f"{where}.specs")


def _check_fit(spec: dict, where: str, n: int) -> int:
    """Reject a construction record whose values do not fit length n, and
    return the length of its parts, which its inner source must have."""
    kind = spec["kind"]
    if kind in ("pair_swap", "interleaved_lift"):
        if n % 2:
            raise ValueError(f"{where} needs an even length, not {n}")
        for idx, row in enumerate(spec.get("rows", ())):
            if row not in (1, 2):
                raise ValueError(f"{where}: field 'rows'[{idx}] must be 1 or 2: {row}")
        return n // 2
    if kind in ("block_rows", "lifted_column", "residue_lift", "row_permutation"):
        key = "k" if "k" in spec else "rows"
        parts = spec[key]
        if kind == "block_rows" and parts < 2:
            raise ValueError(f"{where}: field 'k' must be at least 2: {parts}")
        if n % parts:
            raise ValueError(f"{where}: field {key!r} = {parts} does not divide the length {n}")
        for idx, row in enumerate(spec.get("at", ())):
            if not 1 <= row <= parts:
                raise ValueError(f"{where}: field 'at'[{idx}] = {row} is outside 1..{parts}")
        if kind == "row_permutation":
            _check_cycles(spec, "perms", where, parts)
        return n // parts
    if kind == "multiplier" and math.gcd(spec["a"], n) != 1:
        raise ValueError(f"{where}: field 'a' = {spec['a']} is not a unit mod {n}")
    if kind == "perms":
        _check_cycles(spec, "cycles", where, n)
    return n


def _check_source(source: dict, where: str, degree: int) -> None:
    """Reject an inner source beyond the brute-force cutoff, of another
    degree than `degree`, with a cycle text that does not parse at its
    degree, or with a generator that does not divide x^n+1."""
    kind = source["source"]
    if kind == "brute":
        _check_brute_length(source["n"], BRUTE_FORCE_MAX_N, where)
    key = "degree" if kind == "perms" else "n"
    if source[key] != degree:
        raise ValueError(f"{where}: field {key!r} = {source[key]} is not the inner degree {degree}")
    if kind == "perms":
        _check_cycles(source, "cycles", where, degree)
    else:
        _check_code(source, where)


def _check_cycles(record: dict, key: str, where: str, degree: int) -> None:
    texts = record[key]
    if not isinstance(texts, list):
        raise ValueError(f"{where}: field {key!r} must be a list of cycle texts: {texts!r}")
    for idx, text in enumerate(texts):
        if not isinstance(text, str):
            raise ValueError(f"{where}: field {key!r}[{idx}] must be a cycle text: {text!r}")
        try:
            parse_cycles(text, degree)
        except ValueError as exc:
            raise ValueError(f"{where}: field {key!r}[{idx}]: {exc}") from None


def _check_code(record: dict, where: str) -> None:
    try:
        _code_for(record["n"], record["generator"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_fields(record, where: str, required, optional) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object")
    for key in required:
        if key not in record:
            raise ValueError(f"{where}: missing field {key!r}")
    for key in record:
        if key not in required and key not in optional:
            raise ValueError(f"{where}: unknown field {key!r}")


def _check_integers(record: dict, where: str, kind: str | None = None) -> None:
    for key, least in _INTEGERS.items():
        if key not in record:
            continue
        value = record[key]
        if (kind, key) not in _INTEGER_LISTS:
            _check_integer(value, f"{where}: field {key!r}", least)
            continue
        if not isinstance(value, list):
            raise ValueError(f"{where}: field {key!r} must be a list of integers: {value!r}")
        for idx, item in enumerate(value):
            _check_integer(item, f"{where}: field {key!r}[{idx}]", least)


def _check_integer(value, where: str, least: int | None) -> None:
    """A JSON integer: not a bool, a float or a string of digits."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer: {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{where} must be at least {least}: {value}")


def _check_brute_length(n: int, cutoff: int, where: str) -> None:
    if n > cutoff:
        raise ValueError(
            f"{where}: field 'n' = {n} exceeds the brute-force cutoff {cutoff}"
        )


def _code_for(n: int, generator_text: str) -> CyclicCode:
    return CyclicCode(int(n), parse_poly_product(generator_text))


def expand_source(source: dict, cache: dict | None = None) -> list[Permutation]:
    """Generators of an inner group, per the SOURCE records above."""
    kind = source.get("source")
    if kind == "perms":
        degree = int(source["degree"])
        return [parse_cycles(text, degree) for text in source["cycles"]]
    if kind == "brute":
        code = _code_for(source["n"], source["generator"])
        return list(_cached_brute(code, BRUTE_FORCE_MAX_N, cache)[1])
    if kind in ("shift_multipliers", "construct"):
        code = _code_for(source["n"], source["generator"])
        specs = SHIFT_MULTIPLIERS if kind == "shift_multipliers" else source["specs"]
        return [p for _, p in expand_constructions(code, specs, cache)]
    raise ValueError(f"unknown inner source {kind!r}")


def _cached_brute(
    code: CyclicCode, max_n: int, cache: dict | None
) -> tuple[int, list[Permutation]]:
    """`brute_force_group` of the code, once per run cache."""
    if cache is None:
        return brute_force_group(code, max_n)
    key = ("brute", code.length, code.generator.bits)
    if key not in cache:
        cache[key] = brute_force_group(code, max_n)
    return cache[key]


def expand_constructions(
    code: CyclicCode, specs: list[dict], cache: dict | None = None
) -> list[tuple[str, Permutation]]:
    """Instantiate construction records against a code, returning labeled
    permutations of the code's degree."""
    n = code.length
    out: list[tuple[str, Permutation]] = []
    for idx, spec in enumerate(specs):
        kind = spec.get("kind")
        tag = f"{kind}[{idx}]"
        if kind == "shift":
            out.append((tag, shift(n)))
        elif kind == "pair_swap":
            if n % 2:
                raise ValueError("pair_swap needs an even length")
            out.append((tag, pair_swap(n // 2)))
        elif kind == "block_rows":
            k = int(spec["k"])
            if n % k:
                raise ValueError(f"block_rows: {k} does not divide {n}")
            for j, p in enumerate(block_row_generators(k, n // k)):
                out.append((f"{tag}.{j}", p))
        elif kind == "lifted_column":
            k = int(spec["k"])
            if n % k:
                raise ValueError(f"lifted_column: {k} does not divide {n}")
            for j, tau in enumerate(_inner(spec, n // k, cache)):
                out.append((f"{tag}.{j}", lifted_column_perm(tau, k)))
        elif kind == "interleaved_lift":
            if n % 2:
                raise ValueError("interleaved_lift needs an even length")
            rows = spec.get("rows", [1, 2])
            inner = _inner(spec, n // 2, cache)
            for row in rows:
                for j, sigma in enumerate(inner):
                    out.append((f"{tag}.r{row}.{j}", interleaved_lift(sigma, row)))
        elif kind == "residue_lift":
            rows = int(spec["rows"])
            if n % rows:
                raise ValueError(f"residue_lift: {rows} does not divide {n}")
            at = spec.get("at", [1])
            inner = _inner(spec, n // rows, cache)
            for a in at:
                for j, alpha in enumerate(inner):
                    out.append((f"{tag}.a{a}.{j}", residue_lift(alpha, a, rows)))
        elif kind == "row_permutation":
            rows = int(spec["rows"])
            if n % rows:
                raise ValueError(f"row_permutation: {rows} does not divide {n}")
            for j, text in enumerate(spec["perms"]):
                beta = parse_cycles(text, rows)
                out.append((f"{tag}.{j}", row_permutation(beta, n // rows)))
        elif kind == "multiplier":
            out.append((tag, multiplier(int(spec["a"]), n)))
        elif kind == "multipliers":
            for a in multiplier_subgroup(code):
                if a != 1:
                    out.append((f"{tag}.{a}", multiplier(a, n)))
        elif kind == "perms":
            for j, text in enumerate(spec["cycles"]):
                out.append((f"{tag}.{j}", parse_cycles(text, n)))
        else:
            raise ValueError(f"unknown construction kind {kind!r}")
    return out


def _inner(spec: dict, degree: int, cache: dict | None) -> list[Permutation]:
    """The generators of a record's inner source, which must have the
    given degree."""
    inner = expand_source(spec["inner"], cache)
    for p in inner:
        if p.degree != degree:
            raise ValueError(f"{spec['kind']}: inner degree {p.degree}, expected {degree}")
    return inner


def run_entry(
    entry: dict,
    *,
    max_brute_n: int = BRUTE_FORCE_MAX_N,
    default_seed: int = 0,
    cache: dict | None = None,
) -> VerificationReport:
    """Verify one manifest entry and return its report.  The method picks
    only the generators; `verify_claim` checks them all the same way."""
    name = entry["name"]
    method = entry["method"]
    expected = int(entry["expected_order"])
    factors = entry.get("expected_order_factors")
    if factors is not None:
        claimed = math.prod(int(b) ** int(e) for b, e in factors)
        if claimed != expected:
            return unchecked_report(
                entry, f"expected_order {expected} does not equal the factored form {claimed}"
            )
    code = _code_for(entry["n"], entry["generator"])

    sampling = None
    if entry.get("sampling"):
        sampling = (
            int(entry["sampling"]["trials"]),
            int(entry["sampling"].get("seed", default_seed)),
        )

    t0 = perf_counter()
    if method == "brute":
        reduced = _cached_brute(code, max_brute_n, cache)[1]
        generators = [(f"brute.{j}", p) for j, p in enumerate(reduced)]
    else:
        specs = SHIFT_MULTIPLIERS if method == "multiplier" else entry["construction"]
        generators = expand_constructions(code, specs, cache)
    expansion_ms = (perf_counter() - t0) * 1000.0
    report = verify_claim(
        code, generators, expected, name=name, method=method, sampling=sampling
    )
    report.elapsed_ms += expansion_ms
    return report


def unchecked_report(entry: dict, reason: str) -> VerificationReport:
    """The failing report of an entry whose claim was not checked."""
    code = _code_for(entry["n"], entry["generator"])
    return VerificationReport(
        name=entry["name"],
        n=code.length,
        generator=str(code.generator),
        expected_order=int(entry["expected_order"]),
        method=entry["method"],
        reason=reason,
    )


def report_record(report: VerificationReport) -> dict:
    """The stable machine-readable record for one entry."""
    return {
        "name": report.name,
        "n": report.n,
        "generator": report.generator,
        "expected_order": str(report.expected_order),
        "computed_order": None if report.computed_order is None else str(report.computed_order),
        "pass": report.passed,
        "elapsed_ms": round(report.elapsed_ms, 3),
        "seed": report.seed,
    }
