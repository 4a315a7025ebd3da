"""Verification manifests: a non-empty JSON list of order claims, one per entry.

Entry fields:

  name            unique label
  n               code length
  generator       polynomial text, plain or product form "(f1)(f2)^k..."
  expected_order  positive decimal string (orders routinely exceed 64 bits)
  expected_order_factors
                  optional [[base, exp], ...], each integer at least 1;
                  their product must equal expected_order (arithmetic
                  identity of the claim); a list whose product surely
                  exceeds it is refused before the product is built
  method          "brute" | "construct"
  construction    list of construction records (construct only)
  sampling        optional {"trials": int, "seed": int}, both required

Both methods run one pipeline, code -> generators -> `verify_claim`,
and the exact order of the generated group must equal the claim.  A
method is the inner source (SOURCE below) of the same name on the
entry's own code.  With `sampling`, that many seeded random permutations
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
  {"kind": "multipliers"}                                  a generating set of the preserving units
  {"kind": "perms", "cycles": [cycles,...]}

SOURCE describes the generators of an inner group on a shorter code:

  {"source": "brute", "n": N, "generator": g}              brute-forced, reduced
  {"source": "shift_multipliers", "n": N, "generator": g}  shift plus multipliers
  {"source": "construct", "n": N, "generator": g, "specs": [...]}   recursive
  {"source": "perms", "degree": N, "cycles": [...]}        explicit list

`load_manifest` checks the whole record tree before anything runs: a
JSON object that gives a key twice, an unknown field, construction kind
or inner source, a missing field, a
construction list on a method that takes none, a name, method,
generator, expected_order, kind or source that is not a string, an
expected_order that is not a positive ASCII decimal, factors whose
product is not the expected_order, an integer field
(n, k, rows, a, at, degree, trials, seed, the factor bases and
exponents) that is not a JSON integer or is out of range, or a
brute-force length beyond BRUTE_FORCE_MAX_N (of an entry or an inner
source alike) rejects the file, naming the entry (by its index, and its
name when it has one) and the field.  So does
a value that does not fit the length of its record: a K or R that does
not divide it, a block_rows K below 2, an odd length for pair_swap or
interleaved_lift, an interleaved row other than 1 or 2, an "at" row
outside 1..R, a multiplier that is not a unit, a cycle text that does
not parse at its degree (R for row_permutation), an inner source of
another degree than the one noted above, or a generator that does not
divide x^n+1.  Polynomial and cycle texts take ASCII digits only, as
expected_order does.  Expansion and `run_entry` rely on these checks and
make none of their own.
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
from .group import _orbit
from .perm import Permutation, parse_cycles
from .verify import BRUTE_FORCE_MAX_N, VerificationReport, brute_force_group, verify_claim

# The methods, each the inner source of its generators on the entry's code.
METHODS = ("brute", "construct")
# The generators of the shift_multipliers source.
SHIFT_MULTIPLIERS = [{"kind": "shift"}, {"kind": "multipliers"}]


def default_manifest_path() -> str:
    return str(files("cycaut").joinpath("manifests/default.json"))


def extended_manifest_path() -> str:
    return str(files("cycaut").joinpath("manifests/extended.json"))


def long_manifest_path() -> str:
    return str(files("cycaut").joinpath("manifests/long.json"))


def parse_json(text: str, where: str):
    """The value of a JSON text, refusing an object that gives a key twice,
    which `json` would read as its last value alone."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{where}: duplicate JSON object key {key!r}")
            obj[key] = value
        return obj

    return json.loads(text, object_pairs_hook=unique)


def load_manifest(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = parse_json(fh.read(), f"manifest {path}")
    if not isinstance(data, list) or not data:
        raise ValueError(f"manifest {path} must be a non-empty JSON list of entries")
    names = set()
    for idx, entry in enumerate(data):
        _validate_entry(entry, idx)
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
_SAMPLING_FIELDS = (("trials", "seed"), ())
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


def _validate_entry(entry: dict, idx: int) -> None:
    where = f"manifest entry [{idx}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object: {entry!r}")
    _check_string(entry, "name", where)
    if "name" in entry:
        where += f" {entry['name']!r}"
    for key in ("name", "n", "generator", "expected_order", "method"):
        if key not in entry:
            raise ValueError(f"{where}: missing field {key!r}")
    where = f"entry {entry['name']!r}"
    method = entry["method"]
    _check_fields(entry, where, (), _ENTRY_FIELDS)
    _check_string(entry, "method", where)
    if method not in METHODS:
        raise ValueError(f"{where}: unknown method {method!r}")
    _check_integers(entry, where)
    if method == "brute":
        _check_brute_length(entry["n"], where)
    _check_string(entry, "expected_order", where)
    expected = parse_order(entry["expected_order"], f"{where}: expected_order")
    factors = entry.get("expected_order_factors", [])
    if not isinstance(factors, list):
        raise ValueError(f"{where}: field 'expected_order_factors' must be a list")
    for idx, pair in enumerate(factors):
        named = f"{where}: field 'expected_order_factors'[{idx}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{named} must be a [base, exponent] pair: {pair!r}")
        _check_integer(pair[0], f"{named}[0]", 1)
        _check_integer(pair[1], f"{named}[1]", 1)
    # b**e >= 2**(e * (bit_length(b) - 1)): refuse a surely too large product unbuilt
    if sum(e * (b.bit_length() - 1) for b, e in factors) >= expected.bit_length():
        raise ValueError(
            f"{where}: field 'expected_order_factors' multiplies to more than expected_order {expected}"
        )
    if factors:
        claimed = math.prod(b**e for b, e in factors)
        if claimed != expected:
            raise ValueError(
                f"{where}: field 'expected_order_factors' multiplies to {claimed}, "
                f"not expected_order {expected}"
            )
    if "sampling" in entry:
        _check_fields(entry["sampling"], f"{where}: sampling", *_SAMPLING_FIELDS)
        _check_integers(entry["sampling"], f"{where}: sampling")
    if method == "construct":
        if not entry.get("construction"):
            raise ValueError(f"{where} needs a construction list")
        validate_constructions(entry["construction"], entry["n"], f"{where}: construction")
    elif "construction" in entry:
        raise ValueError(f"{where}: method {method!r} takes no field 'construction'")
    _check_code(entry, where)


def parse_order(text: str, where: str) -> int:
    """A group order given as a string of ASCII decimal digits ("１６８"
    and "1_68" are refused, though `int` reads both), at least 1.  A text
    longer than the interpreter's limit on integer string conversion
    (`sys.set_int_max_str_digits`) is refused with its `where`."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{where} must be an ASCII decimal string: {text!r}")
    try:
        order = int(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if order < 1:
        raise ValueError(f"{where} must be positive: {text!r}")
    return order


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
    _check_string(record, tag, where)
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
        _check_brute_length(source["n"], where)
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
    _check_string(record, "generator", where)
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


def _check_string(record: dict, key: str, where: str) -> None:
    if key in record and not isinstance(record[key], str):
        raise ValueError(f"{where}: field {key!r} must be a string: {record[key]!r}")


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


def _check_brute_length(n: int, where: str) -> None:
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"{where}: field 'n' = {n} exceeds the brute-force cutoff {BRUTE_FORCE_MAX_N}"
        )


def _code_for(n: int, generator_text: str) -> CyclicCode:
    """The length-n code of a generator text, refused above degree n."""
    return CyclicCode(n, parse_poly_product(generator_text, max_degree=n))


def expand_source(source: dict, cache: dict | None = None) -> list[Permutation]:
    """Generators of an inner group, per the SOURCE records above."""
    kind = source["source"]
    if kind == "perms":
        return [parse_cycles(text, source["degree"]) for text in source["cycles"]]
    code = _code_for(source["n"], source["generator"])
    return [p for _, p in _generators(kind, code, source.get("specs"), cache)]


def _generators(
    kind: str, code: CyclicCode, specs: list[dict] | None, cache: dict | None
) -> list[tuple[str, Permutation]]:
    """The labelled generators of a source (or method) on the code: the
    brute-force reduction, made once per run cache, or the expansion of
    the specs (SHIFT_MULTIPLIERS for "shift_multipliers")."""
    if kind != "brute":
        specs = SHIFT_MULTIPLIERS if kind == "shift_multipliers" else specs
        return expand_constructions(code, specs, cache)
    group = _per_code(cache, "brute", code, brute_force_group)
    return [(f"brute.{j}", p) for j, p in enumerate(group[1])]


def _per_code(cache: dict | None, kind: str, code: CyclicCode, make):
    """make(code), made once per run cache for each code."""
    if cache is None:
        return make(code)
    key = (kind, code.length, code.generator.bits)
    if key not in cache:
        cache[key] = make(code)
    return cache[key]


def expand_constructions(
    code: CyclicCode, specs: list[dict], cache: dict | None = None
) -> list[tuple[str, Permutation]]:
    """Instantiate construction records against a code, returning labeled
    permutations of the code's degree.

    The records must be ones `validate_constructions` accepted for the
    code's length: nothing is checked here again.  `load_manifest` and
    `aut-construct` validate before they expand, and the recursion into
    inner sources expands parts of a record tree already checked."""
    n = code.length
    out: list[tuple[str, Permutation]] = []
    for idx, spec in enumerate(specs):
        kind = spec["kind"]
        tag = f"{kind}[{idx}]"
        inner = expand_source(spec["inner"], cache) if "inner" in spec else []
        if kind == "shift":
            out.append((tag, shift(n)))
        elif kind == "pair_swap":
            out.append((tag, pair_swap(n // 2)))
        elif kind == "block_rows":
            k = spec["k"]
            for j, p in enumerate(block_row_generators(k, n // k)):
                out.append((f"{tag}.{j}", p))
        elif kind == "lifted_column":
            for j, tau in enumerate(inner):
                out.append((f"{tag}.{j}", lifted_column_perm(tau, spec["k"])))
        elif kind == "interleaved_lift":
            for row in spec.get("rows", [1, 2]):
                for j, sigma in enumerate(inner):
                    out.append((f"{tag}.r{row}.{j}", interleaved_lift(sigma, row)))
        elif kind == "residue_lift":
            for a in spec.get("at", [1]):
                for j, alpha in enumerate(inner):
                    out.append((f"{tag}.a{a}.{j}", residue_lift(alpha, a, spec["rows"])))
        elif kind == "row_permutation":
            rows = spec["rows"]
            for j, text in enumerate(spec["perms"]):
                out.append((f"{tag}.{j}", row_permutation(parse_cycles(text, rows), n // rows)))
        elif kind == "multiplier":
            out.append((tag, multiplier(spec["a"], n)))
        elif kind == "multipliers":
            for a in _per_code(cache, "multipliers", code, _multiplier_generators):
                out.append((f"{tag}.{a}", multiplier(a, n)))
        elif kind == "perms":
            for j, text in enumerate(spec["cycles"]):
                out.append((f"{tag}.{j}", parse_cycles(text, n)))
    return out


def _multiplier_generators(code: CyclicCode) -> list[int]:
    """A generating set of the units whose multipliers preserve the code:
    in ascending order, each unit that the ones kept before it do not
    generate under multiplication mod n."""
    n, kept, closure = code.length, [], {1}
    for a in multiplier_subgroup(code):
        if a not in closure:
            kept.append(a)
            closure = _orbit([1], lambda x: [x * b % n for b in kept])
    return kept


def run_entry(entry: dict, *, cache: dict | None = None) -> VerificationReport:
    """Verify one manifest entry and return its report.  The method picks
    only the source of the generators; `verify_claim` checks them all the
    same way."""
    method = entry["method"]
    code = _code_for(entry["n"], entry["generator"])
    sampling = None
    if "sampling" in entry:
        sampling = (entry["sampling"]["trials"], entry["sampling"]["seed"])

    t0 = perf_counter()
    generators = _generators(method, code, entry.get("construction"), cache)
    expansion_ms = (perf_counter() - t0) * 1000.0
    report = verify_claim(
        code, generators, int(entry["expected_order"]),
        name=entry["name"], method=method, sampling=sampling,
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
