"""Command-line interface.

Subcommands: factor, code-info, aut-brute, aut-construct, multipliers,
verify-table.  Exit codes: 0 all verifications pass, 1 a mathematical
claim failed, 2 input or usage error.  All numeric output is decimal;
orders are printed as exact decimal strings.  A reader that closes
stdout early ends the run quietly, with exit 0.

verify-table runs the entries of its manifest one at a time, in order,
and prints the report of each as it finishes: `report_record` as a JSON
line with --json, else `VerificationReport.summary()`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .code import MAX_ENUMERATION_DIM
from .construct import multiplier_subgroup
from .gf2poly import factor_xn_minus_1
from .manifest import (
    _code_for,
    default_manifest_path,
    expand_constructions,
    load_manifest,
    parse_json,
    parse_order,
    report_record,
    run_entry,
    unchecked_report,
    validate_constructions,
)
from .verify import VerificationReport, brute_force_group, verify_claim


def _decimal(text: str) -> int:
    """A length argument in ASCII digits alone: `int` also reads "７",
    "+7" and "1_5"."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not an ASCII decimal: {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args`
    fills a new namespace on every call and leaves the parser as it was,
    and each build leaves a few hundred objects for the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="cycaut",
        description="binary cyclic codes and their automorphism groups",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^n+1 into irreducibles")
    p.add_argument("n", type=_decimal)

    p = sub.add_parser("code-info", help="parameters and small-code statistics")
    p.add_argument("n", type=_decimal)
    p.add_argument("generator")

    p = sub.add_parser("aut-brute", help="brute-force automorphism group order")
    p.add_argument("n", type=_decimal)
    p.add_argument("generator")
    p.add_argument("--emit-gens", action="store_true")

    p = sub.add_parser("aut-construct", help="build generators from a construction spec")
    p.add_argument("n", type=_decimal)
    p.add_argument("generator")
    spec = p.add_mutually_exclusive_group(required=True)
    spec.add_argument("--spec", help="construction list as inline JSON")
    spec.add_argument("--spec-file", help="construction list from a JSON file")
    p.add_argument("--expect", help="expected order (decimal); exit 1 on mismatch")
    p.add_argument("--emit-gens", action="store_true")

    p = sub.add_parser("multipliers", help="units whose residue maps preserve the code")
    p.add_argument("n", type=_decimal)
    p.add_argument("generator")

    p = sub.add_parser("verify-table", help="run a verification manifest")
    p.add_argument("manifest", nargs="?", help="manifest path (default: bundled)")
    p.add_argument("--filter", help="only entries whose name contains this substring")
    return parser


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_factor(args) -> int:
    factors = factor_xn_minus_1(args.n)
    payload = {"n": args.n, "factors": [[str(f), m] for f, m in factors]}
    _emit(args, payload, [f"({f})^{m}" for f, m in factors])
    return 0


def _cmd_code_info(args) -> int:
    code = _code_for(args.n, args.generator)
    lines = [f"[{code.length},{code.dimension}]"]
    lines.append(f"generator: {code.generator}")
    lines.append(f"check: {code.check}")
    payload = {
        "n": code.length,
        "k": code.dimension,
        "generator": str(code.generator),
        "check": str(code.check),
    }
    if code.dimension <= 24:
        rows = [str(r) for r in code.generator_rows()]
        lines.append("rows:")
        lines.extend(f"  {r}" for r in rows)
        payload["rows"] = rows
    if code.dimension <= MAX_ENUMERATION_DIM:
        dist = code.weight_distribution()
        lines.append("weights: " + " ".join(f"{w}:{c}" for w, c in dist.items()))
        payload["weights"] = {str(w): c for w, c in dist.items()}
    _emit(args, payload, lines)
    return 0


def _cmd_aut_brute(args) -> int:
    code = _code_for(args.n, args.generator)
    count, reduced = brute_force_group(code)
    lines = [str(count)]
    payload = {"n": args.n, "generator": str(code.generator), "order": str(count)}
    if args.emit_gens:
        gens = [str(p) for p in reduced]
        lines.extend(gens)
        payload["generators"] = gens
    _emit(args, payload, lines)
    return 0


def _cmd_aut_construct(args) -> int:
    if args.spec is not None:
        where, text = "--spec", args.spec
    else:
        with open(args.spec_file, encoding="utf-8") as fh:
            where, text = "--spec-file", fh.read()
    specs = parse_json(text, where)
    code = _code_for(args.n, args.generator)
    validate_constructions(specs, code.length, where)
    expected = None if args.expect is None else parse_order(args.expect, "--expect")
    generators = expand_constructions(code, specs, cache={})
    report = verify_claim(code, generators, expected)
    order = report.computed_order
    if order is None:
        print(f"FAIL: {report.reason}", file=sys.stderr)
        return 1
    lines = [str(order)]
    payload = {"n": args.n, "generator": str(code.generator), "order": str(order)}
    if args.emit_gens:
        gens = [f"{label}: {p}" for label, p in generators]
        lines.extend(gens)
        payload["generators"] = [str(p) for _, p in generators]
    _emit(args, payload, lines)
    if not report.passed:
        print(f"FAIL: computed {order}, expected {args.expect}", file=sys.stderr)
        return 1
    return 0


def _cmd_multipliers(args) -> int:
    """The units U that preserve the code, and the order n*|U| of the
    group they generate with the shift: U is a group, so <shift, U> is
    {i -> a*i + b : a in U}."""
    code = _code_for(args.n, args.generator)
    units = multiplier_subgroup(code)
    order = code.length * len(units)
    lines = [
        "units: " + " ".join(str(a) for a in units),
        f"count: {len(units)}",
        f"order: {order}",
    ]
    payload = {
        "n": code.length,
        "generator": str(code.generator),
        "units": units,
        "count": len(units),
        "order": str(order),
    }
    _emit(args, payload, lines)
    return 0


# Errors a single manifest entry can raise while it runs (a brute-forced
# set that is not closed, say).  They fail that entry only.
_ENTRY_ERRORS = (ValueError, ZeroDivisionError, RuntimeError)


def _entry_report(entry: dict, cache: dict) -> tuple[VerificationReport, str | None]:
    """The report of one entry and, when the entry raised, the error text,
    which is then also the reason of its failing report."""
    try:
        report = run_entry(entry, cache=cache)
    except _ENTRY_ERRORS as exc:
        error = f"entry {entry['name']!r}: {exc}"
        return unchecked_report(entry, error), error
    return report, None


def _cmd_verify_table(args) -> int:
    """Run every entry, each on its own: an entry that raises gets a
    failing record, and the others still run.  Exit 2 when an entry
    raised, else 1 when a claim failed."""
    path = args.manifest or default_manifest_path()
    entries = load_manifest(path)
    if args.filter:
        entries = [e for e in entries if args.filter in e["name"]]
        if not entries:
            raise ValueError(f"--filter {args.filter!r} matches no entry")
    cache: dict = {}
    failures = errors = 0
    for entry in entries:
        report, error = _entry_report(entry, cache)
        if error is not None:
            errors += 1
            print(f"error: {error}", file=sys.stderr)
        print(json.dumps(report_record(report)) if args.json else report.summary())
        failures += not report.passed
    if not args.json:
        print(f"{len(entries) - failures}/{len(entries)} entries passed")
    return 2 if errors else 1 if failures else 0


_COMMANDS = {
    "factor": _cmd_factor,
    "code-info": _cmd_code_info,
    "aut-brute": _cmd_aut_brute,
    "aut-construct": _cmd_aut_construct,
    "multipliers": _cmd_multipliers,
    "verify-table": _cmd_verify_table,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Orders can run to tens of thousands of digits, so this lifts
    CPython's limit on integer string conversion (4300 digits) for the
    whole process, not for this call alone: `sys.set_int_max_str_digits`
    is process-wide.  CPython 3.10.0-3.10.6 have no such limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (`cycaut verify-table | head -1`):
        # stop quietly.  Output may still sit in the buffer, so stdout is
        # pointed at devnull, or the flush at exit would fail once more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
