"""One claim pipeline: both manifest methods build generators and hand
them to `verify_claim`.  These tests pin the records the pipeline gives,
the order of the shift-and-multipliers construction, the load-time
rejection of what the pipeline would ignore or misread, and the two
scripts built on the library."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycaut.cli import main
from cycaut.code import CyclicCode
from cycaut.construct import multiplier_subgroup
from cycaut.gf2poly import divisors_of_xn_minus_1, parse_poly_product
from cycaut.group import PermGroup, exact_order
from cycaut.manifest import (
    SHIFT_MULTIPLIERS,
    default_manifest_path,
    expand_constructions,
    expand_source,
    extended_manifest_path,
    load_manifest,
    run_entry,
)
from cycaut.perm import Permutation
from cycaut.verify import is_automorphism, verify_claim

ROOT = Path(__file__).resolve().parent.parent
F = math.factorial

# (name, computed_order, pass, seed) of every `--json verify-table` record
GOLDEN = {
    "default": [
        ("len7-cubic", 168, True, None),
        ("len7-cubic-product", F(7), True, None),
        ("len14-squared-cubic", 2 * 168**2, True, 0),
        ("len14-cubic-product", F(7) * 2**7, True, 0),
        ("len31-two-quintics", 310, True, None),
        ("len31-three-quintics", 155, True, None),
        ("len49-block-rows", F(7) ** 8, True, None),
        ("len49-residue-rows", F(7) ** 8, True, None),
        ("len62-two-quintics", 310 * 2**31, True, None),
        ("len62-three-quintics", 155 * 2**31, True, None),
        ("len62-squared-quintic", 2 * 9999360**2, True, None),
        ("len98-squared-cubic", 2 * 168**2 * F(7) ** 14, True, None),
        ("len98-cubic-product", F(7) * F(14) ** 7, True, None),
    ],
    "extended": [
        ("len961-two-quintics", 310 * F(31) ** 31, True, None),
        ("len1922-two-quintics", 310 * F(62) ** 31, True, None),
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    ("label", "path"),
    [("default", default_manifest_path()), ("extended", extended_manifest_path())],
)
def test_records_are_golden(capsys, label, path):
    code, out, _ = run_cli(capsys, "--json", "verify-table", path)
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["computed_order"], r["pass"], r["seed"]) for r in got] == [
        (name, str(order), passed, seed) for name, order, passed, seed in GOLDEN[label]
    ]


def test_no_claim_asks_chain_membership(monkeypatch):
    """Every order, the one negative sampling compares against too, comes
    from `exact_order`: with `PermGroup.contains` refused, all bundled
    entries still pass, and a sampled claim whose draws hit automorphisms
    outside its group still counts them as escapes."""

    def refuse(self, p):
        raise AssertionError("PermGroup.contains was called")

    monkeypatch.setattr(PermGroup, "contains", refuse)
    monkeypatch.setattr(PermGroup, "__contains__", refuse)
    entries = load_manifest(default_manifest_path()) + load_manifest(extended_manifest_path())
    assert len(entries) == 15
    cache: dict = {}
    assert [e["name"] for e in entries if not run_entry(e, cache=cache).passed] == []
    sampled = dict(TestEveryMethodRunsVerifyClaim.SHIFT_MULT, sampling={"trials": 300, "seed": 1})
    assert run_entry(sampled).sample_escapes > 0


def test_shift_and_multipliers_have_order_n_times_units():
    """The preserving units U form a group, so <shift, mu_a : a in U> is
    {i -> a*i + b : a in U}, of order n * |U|."""
    checked = 0
    for n in range(1, 32):
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            gens = [p for _, p in expand_constructions(code, SHIFT_MULTIPLIERS)]
            assert exact_order(gens, n)[0] == n * len(multiplier_subgroup(code)), (n, g)
            checked += 1
    assert checked == 929  # 927 with 2 <= n <= 31, and g = 1, x+1 at n = 1


def _unit_closure(units, n):
    """The units mod n that products of the given ones reach, with 1."""
    closure = {1}
    while True:
        grown = closure | {x * a % n for x in closure for a in units}
        if grown == closure:
            return closure
        closure = grown


def test_multipliers_are_a_generating_set_of_the_units():
    """The `multipliers` construction lists a generating set of the
    preserving units U, in ascending order, each outside the closure of
    the ones before it; verify_claim still finds n * |U|."""
    for n in range(1, 32):
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            units = multiplier_subgroup(code)
            kept = [p.images[1] for _, p in expand_constructions(code, [{"kind": "multipliers"}])]
            assert kept == sorted(kept), (n, g)
            for i, a in enumerate(kept):
                assert a not in _unit_closure(kept[:i], n), (n, g, a)
            assert _unit_closure(kept, n) == set(units), (n, g)
            report = verify_claim(code, expand_constructions(code, SHIFT_MULTIPLIERS), n * len(units))
            assert report.passed and report.computed_order == n * len(units), (n, g)


class TestSquaredQuinticRow:
    """C = <(x^5+x^2+1)^2> of length 62 is two interleaved [31,26] Hamming
    codes, and Aut(C) = GL(5,2) wr S_2.  On the points i <-> x^i mod
    x^5+x^2+1 of F_32, the shift is the Singer cycle v -> x*v, and with
    one transvection it generates GL(5,2)."""

    ENTRY = next(
        e for e in load_manifest(default_manifest_path()) if e["name"] == "len62-squared-quintic"
    )
    INNER = ENTRY["construction"][0]["inner"]
    HAMMING = CyclicCode(31, parse_poly_product("x^5+x^2+1"))

    @staticmethod
    def _transvection():
        """v -> v + v_0 * x on F_32 = F_2[x]/(x^5+x^2+1), v_0 the constant
        coefficient, as a permutation of the exponents i of v = x^i."""
        powers, v = [], 1
        for _ in range(31):
            powers.append(v)
            v <<= 1
            if v >> 5:
                v ^= 0b100101
        log = {v: i for i, v in enumerate(powers)}
        return Permutation(tuple(log[v ^ (0b10 if v & 1 else 0)] for v in powers))

    def test_the_cycle_texts_are_the_shift_and_the_transvection(self):
        shift31, transvection = expand_source(self.INNER)
        assert shift31 == Permutation(tuple((i + 1) % 31 for i in range(31)))
        assert transvection == self._transvection()

    def test_they_generate_gl_5_2(self):
        gens = expand_source(self.INNER)
        assert all(is_automorphism(self.HAMMING, p) for p in gens)
        assert exact_order(gens, 31)[0] == 9999360 == math.prod(2**5 - 2**i for i in range(5))

    def test_the_shift_alone_fails(self):
        # the subgroup of order 1922 divides the claim, but a PASS needs
        # equality
        entry = json.loads(json.dumps(self.ENTRY))
        entry["construction"][0]["inner"]["cycles"] = self.INNER["cycles"][:1]
        report = run_entry(entry, cache={})
        assert not report.passed
        assert report.reason == "order mismatch: computed 1922, expected 199974400819200"


class TestEveryMethodRunsVerifyClaim:
    BRUTE = {"name": "b", "n": 7, "generator": "x^3+x+1",
             "expected_order": "168", "method": "brute"}
    # <shift, multipliers> has order 21 here, but Aut = PSL(2,7) has 168
    SHIFT_MULT = {"name": "m", "n": 7, "generator": "x^3+x+1",
                  "expected_order": "21", "method": "construct",
                  "construction": SHIFT_MULTIPLIERS}

    # 21 = 7 * |<2>|, 2 having order 3 mod 7; Aut = PSL(2,7) is not
    # affine, and 7 is prime, so it has no residue-class blocks
    @pytest.mark.parametrize(
        "entry, path", [(BRUTE, "chain"), (SHIFT_MULT, "affine")], ids=["brute", "shift-multipliers"]
    )
    def test_order_path_is_reported(self, entry, path):
        report = run_entry(entry)
        assert report.passed and report.details["order"]["path"] == path

    def test_sampling_applies_to_brute(self):
        report = run_entry(dict(self.BRUTE, sampling={"trials": 300, "seed": 5}))
        assert report.passed, report.reason
        assert (report.seed, report.sample_trials, report.sample_escapes) == (5, 300, 0)

    def test_sampling_applies_to_construct(self):
        assert run_entry(self.SHIFT_MULT).passed
        report = run_entry(dict(self.SHIFT_MULT, sampling={"trials": 300, "seed": 1}))
        assert not report.passed
        assert report.sample_escapes > 0 and "sampled" in report.reason

    def test_mismatch_text_is_shared(self):
        for entry in (self.BRUTE, self.SHIFT_MULT):
            report = run_entry(dict(entry, expected_order="7"))
            assert not report.passed
            assert report.reason.startswith("order mismatch: computed ")

    def test_order_one_shift_multipliers_claim(self):
        for g in ("1", "x+1"):
            entry = {"name": "one", "n": 1, "generator": g, "expected_order": "1",
                     "method": "construct", "construction": SHIFT_MULTIPLIERS}
            assert run_entry(entry).passed


class TestLoadTimeRejection:
    """What the single pipeline would ignore or misread is refused when
    the manifest is loaded, naming the entry and the field."""

    BASE = {"name": "e", "n": 49, "generator": "(x^3+x+1)(x^3+x^2+1)",
            "expected_order": str(F(7) ** 8), "method": "construct",
            "construction": [
                {"kind": "residue_lift", "rows": 7, "at": [1],
                 "inner": {"source": "brute", "n": 7, "generator": "(x^3+x+1)(x^3+x^2+1)"}},
                {"kind": "row_permutation", "rows": 7, "perms": ["(1,2)", "(1,2,3,4,5,6,7)"]},
            ],
            "expected_order_factors": [[5040, 8]],
            "sampling": {"trials": 10, "seed": 0}}

    @staticmethod
    def _load(tmp_path, entry):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        return load_manifest(str(path))

    def test_the_base_entry_loads_and_passes(self, tmp_path):
        assert run_entry(self._load(tmp_path, self.BASE)[0]).passed

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("n", 49.5, r"entry 'e': field 'n' must be an integer: 49\.5"),
            ("n", "４９", r"entry 'e': field 'n' must be an integer"),
            ("n", True, r"entry 'e': field 'n' must be an integer: True"),
            ("n", 0, r"entry 'e': field 'n' must be at least 1: 0"),
            ("sampling", {"trials": True, "seed": 0}, r"sampling: field 'trials' must be an integer"),
            ("sampling", {"trials": -5, "seed": 0}, r"sampling: field 'trials' must be at least 1"),
            ("sampling", {"trials": 3, "seed": 1.0}, r"sampling: field 'seed' must be an integer"),
            ("expected_order_factors", [["2"]],
             r"field 'expected_order_factors'\[0\] must be a \[base, exponent\] pair"),
            ("expected_order_factors", [[5040, "8"]],
             r"field 'expected_order_factors'\[0\]\[1\] must be an integer"),
            ("expected_order_factors", [[5040, 0]],
             r"field 'expected_order_factors'\[0\]\[1\] must be at least 1"),
            ("expected_order_factors", [[5040.0, 8]],
             r"field 'expected_order_factors'\[0\]\[0\] must be an integer"),
        ],
    )
    def test_entry_fields(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, dict(self.BASE, **{field: value}))

    # (field, edit of BASE, message): a value of the wrong JSON type used
    # to reach the loader's lookups and crash with a TypeError or an
    # AttributeError instead of this ValueError.
    WRONG_TYPES = {
        "name-list": (lambda e: e.update(name=["e"]),
                      r"^manifest entry \[0\]: field 'name' must be a string: \['e'\]$"),
        "name-integer": (lambda e: e.update(name=5),
                         r"^manifest entry \[0\]: field 'name' must be a string: 5$"),
        "method-object": (lambda e: e.update(method={"brute": 1}),
                          r"^entry 'e': field 'method' must be a string"),
        "generator-integer": (lambda e: e.update(generator=11),
                              r"^entry 'e': field 'generator' must be a string: 11$"),
        "kind-list": (lambda e: e["construction"][1].update(kind=["row_permutation"]),
                      r"^entry 'e': construction\[1\]: field 'kind' must be a string"),
        "source-list": (lambda e: e["construction"][0]["inner"].update(source=["brute"]),
                        r"^entry 'e': construction\[0\]\.inner: field 'source' must be a string"),
        "expected-order-integer": (lambda e: e.update(expected_order=168),
                                   r"^entry 'e': field 'expected_order' must be a string: 168$"),
        "inner-generator-integer": (
            lambda e: e["construction"][0]["inner"].update(generator=11),
            r"^entry 'e': construction\[0\]\.inner \(source 'brute'\): "
            r"field 'generator' must be a string: 11$",
        ),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_wrong_type(self, tmp_path, case):
        edit, message = self.WRONG_TYPES[case]
        entry = json.loads(json.dumps(self.BASE))
        edit(entry)
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, entry)

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_wrong_type_makes_verify_table_exit_2(self, tmp_path, capsys, case):
        entry = json.loads(json.dumps(self.BASE))
        self.WRONG_TYPES[case][0](entry)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        code, out, err = run_cli(capsys, "--json", "verify-table", str(path))
        assert (code, out) == (2, "")
        assert "must be a string" in err

    @pytest.mark.parametrize(
        ("index", "field", "value", "message"),
        [
            (0, "rows", "7", r"construction\[0\] \(kind 'residue_lift'\): field 'rows' must be an integer"),
            (0, "rows", 0, r"construction\[0\] \(kind 'residue_lift'\): field 'rows' must be at least 1"),
            (0, "at", [1.0], r"construction\[0\] \(kind 'residue_lift'\): field 'at'\[0\] must be an integer"),
            (0, "at", 1, r"field 'at' must be a list of integers"),
            (1, "rows", False, r"construction\[1\] \(kind 'row_permutation'\): field 'rows' must be an integer"),
        ],
    )
    def test_construction_fields(self, tmp_path, index, field, value, message):
        entry = json.loads(json.dumps(self.BASE))
        entry["construction"][index][field] = value
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, entry)

    @pytest.mark.parametrize(
        ("record", "message"),
        [
            ({"kind": "block_rows", "k": "seven"}, r"\[0\] \(kind 'block_rows'\): field 'k' must be an integer"),
            ({"kind": "block_rows", "k": 0}, r"field 'k' must be at least 1: 0"),
            ({"kind": "multiplier", "a": 2.0}, r"\(kind 'multiplier'\): field 'a' must be an integer"),
            ({"kind": "interleaved_lift", "rows": [True],
              "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
             r"\(kind 'interleaved_lift'\): field 'rows'\[0\] must be an integer: True"),
            ({"kind": "interleaved_lift", "rows": 1,
              "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
             r"field 'rows' must be a list of integers"),
            ({"kind": "lifted_column", "k": 2,
              "inner": {"source": "perms", "degree": "7", "cycles": ["(1,2)"]}},
             r"\[0\]\.inner \(source 'perms'\): field 'degree' must be an integer"),
            ({"kind": "lifted_column", "k": 2,
              "inner": {"source": "shift_multipliers", "n": 7.0, "generator": "x^3+x+1"}},
             r"\[0\]\.inner \(source 'shift_multipliers'\): field 'n' must be an integer"),
        ],
    )
    def test_records_anywhere_in_the_tree(self, tmp_path, record, message):
        entry = dict(self.BASE, n=14, generator="(x^3+x+1)^2", construction=[record])
        with pytest.raises(ValueError, match=message) as info:
            self._load(tmp_path, entry)
        assert str(info.value).startswith("entry 'e': construction[0]")

    def test_construction_on_a_method_that_takes_none(self, tmp_path):
        entry = {"name": "m", "n": 7, "generator": "x^3+x+1",
                 "expected_order": "168", "method": "brute",
                 "construction": [{"kind": "shift"}]}
        with pytest.raises(ValueError, match="entry 'm': method 'brute' takes no field 'construction'"):
            self._load(tmp_path, entry)

    @pytest.mark.parametrize("method", ["containment", "multiplier"])
    def test_removed_methods_are_refused(self, tmp_path, method):
        entry = {"name": "x", "n": 31, "generator": "(x^5+x^2+1)(x^5+x^3+1)",
                 "expected_order": "310", "method": method,
                 "construction": SHIFT_MULTIPLIERS}
        with pytest.raises(ValueError, match=f"^entry 'x': unknown method '{method}'$"):
            self._load(tmp_path, entry)

    def test_aut_construct_spec_fields(self, capsys):
        spec = json.dumps([{"kind": "block_rows", "k": 2.0}])
        code, out, err = run_cli(capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", spec)
        assert code == 2 and out == ""
        assert "--spec[0] (kind 'block_rows'): field 'k' must be an integer: 2.0" in err

    @pytest.mark.parametrize(
        ("record", "message"),
        [
            ({"kind": ["shift"]}, "--spec[0]: field 'kind' must be a string: ['shift']"),
            ({"kind": "lifted_column", "k": 1, "inner": {"source": ["perms"]}},
             "--spec[0].inner: field 'source' must be a string: ['perms']"),
        ],
        ids=["kind", "source"],
    )
    def test_aut_construct_spec_types(self, capsys, record, message):
        spec = json.dumps([record])
        code, out, err = run_cli(capsys, "aut-construct", "7", "x^3+x+1", "--spec", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestAutConstructExpect:
    SPEC = json.dumps([{"kind": "shift"}, {"kind": "multipliers"}])

    @pytest.mark.parametrize("text", ["７", "1_4", "+7", " 7", "7.0", ""])
    def test_only_ascii_digits(self, capsys, text):
        code, out, err = run_cli(
            capsys, "aut-construct", "7", "x^3+x+1", "--spec", self.SPEC, "--expect", text
        )
        assert code == 2 and out == ""
        assert "--expect must be an ASCII decimal string" in err

    def test_order_is_printed_with_and_without_expect(self, capsys):
        base = ("aut-construct", "7", "x^3+x+1", "--spec", self.SPEC)
        assert run_cli(capsys, *base) == (0, "21\n", "")
        assert run_cli(capsys, *base, "--expect", "21") == (0, "21\n", "")
        assert run_cli(capsys, *base, "--expect", "168") == (
            1, "21\n", "FAIL: computed 21, expected 168\n"
        )

    def test_non_automorphism_generator(self, capsys):
        spec = json.dumps([{"kind": "perms", "cycles": ["(1,2)"]}])
        assert run_cli(capsys, "aut-construct", "7", "x^3+x+1", "--spec", spec) == (
            1, "", "FAIL: generator perms[0].0 = (1,2) is not an automorphism\n"
        )


def test_multipliers_of_length_one(capsys):
    for g in divisors_of_xn_minus_1(1):
        assert multiplier_subgroup(CyclicCode(1, g)) == [1]
        code, out, _ = run_cli(capsys, "multipliers", "1", str(g))
        assert code == 0 and out == "units: 1\ncount: 1\norder: 1\n"


@pytest.mark.parametrize(
    ("argv", "line"),
    [
        (["scripts/multiplier_scan.py", "7"], "[7,4] g=x^3+x+1  units={1,2,4}  order=21"),
        (["scripts/survey_small_codes.py", "--max-n", "7"],
         "[7,4] g=x^3+x+1  |Aut|=168  weights 0:1 3:7 4:7 7:1"),
    ],
    ids=["multiplier_scan", "survey_small_codes"],
)
def test_script_runs(argv, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()


def test_survey_max_n_stays_within_the_cutoff():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "scripts/survey_small_codes.py", "--max-n", "11"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert "--max-n 11 exceeds the brute-force cutoff 10" in result.stderr
