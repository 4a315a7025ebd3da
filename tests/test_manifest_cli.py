import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cycaut.cli as cli_module
import cycaut.manifest as manifest_module
from cycaut.cli import main
from cycaut.manifest import (
    SHIFT_MULTIPLIERS,
    default_manifest_path,
    expand_source,
    extended_manifest_path,
    load_manifest,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_factor_7(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "7")
        assert code == 0
        assert out.splitlines() == ["(x+1)^1", "(x^3+x+1)^1", "(x^3+x^2+1)^1"]

    def test_factor_14(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "14")
        assert code == 0
        assert out.splitlines() == ["(x+1)^2", "(x^3+x+1)^2", "(x^3+x^2+1)^2"]

    def test_factor_15(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15")
        assert code == 0
        assert out.splitlines() == [
            "(x+1)^1",
            "(x^2+x+1)^1",
            "(x^4+x+1)^1",
            "(x^4+x^3+1)^1",
            "(x^4+x^3+x^2+x+1)^1",
        ]

    def test_factor_1(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "1")
        assert code == 0
        assert out.strip() == "(x+1)^1"

    def test_factor_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "factor", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", ["\uff17", "1_5", "+7"])
    def test_n_not_in_ascii_digits_is_a_usage_error(self, capsys, n):
        # argparse's type=int would read each of these
        with pytest.raises(SystemExit) as exc:
            main(["factor", n])
        assert exc.value.code == 2
        assert "not an ASCII decimal" in capsys.readouterr().err

    def test_factor_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "factor", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 7,
            "factors": [["x+1", 1], ["x^3+x+1", 1], ["x^3+x^2+1", 1]],
        }


class TestCodeInfoCommand:
    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "code-info", "7", "x^3+x+1")
        assert code == 0
        assert out.splitlines()[0] == "[7,4]"
        assert "1101000" in out

    def test_squared_cubic(self, capsys):
        code, out, _ = run_cli(capsys, "code-info", "14", "(x^3+x+1)^2")
        assert code == 0
        assert out.splitlines()[0] == "[14,8]"

    def test_non_divisor(self, capsys):
        code, _, err = run_cli(capsys, "code-info", "7", "x^2+x+1")
        assert code == 2
        assert "remainder" in err

    def test_oversized_generator_is_refused_unbuilt(self, capsys):
        # multiplied out, (x+1)^4194303 would take minutes and print megabytes
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "code-info", "7", "(x+1)^4194303")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == "error: generator degree 4194303 exceeds the length 7\n"
        assert len(err) < 200


class TestAutBruteCommand:
    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "aut-brute", "7", "x^3+x+1")
        assert code == 0
        assert out.splitlines()[0] == "168"

    def test_repetition(self, capsys):
        code, out, _ = run_cli(capsys, "aut-brute", "7", "(x^3+x+1)(x^3+x^2+1)")
        assert code == 0
        assert out.splitlines()[0] == "5040"

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "aut-brute", "14", "(x^3+x+1)^2")
        assert code == 2
        assert "cutoff" in err

    def test_emit_gens(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "aut-brute", "7", "x^3+x+1", "--emit-gens")
        payload = json.loads(out)
        assert payload["order"] == "168"
        assert payload["generators"]


class TestMultipliersCommand:
    def test_two_quintics(self, capsys):
        code, out, _ = run_cli(capsys, "multipliers", "31", "(x^5+x^2+1)(x^5+x^3+1)")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "count: 10"
        assert lines[2] == "order: 310"

    def test_three_quintics(self, capsys):
        code, out, _ = run_cli(
            capsys, "multipliers", "31", "(x^5+x^2+1)(x^5+x^3+1)(x^5+x^3+x^2+x+1)"
        )
        assert code == 0
        assert "count: 5" in out
        assert "order: 155" in out

    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "multipliers", "7", "x^3+x+1")
        assert code == 0
        assert "units: 1 2 4" in out
        assert "order: 21" in out


class TestAutConstructCommand:
    SPEC = json.dumps(
        [
            {"kind": "interleaved_lift", "rows": [1, 2],
             "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
            {"kind": "pair_swap"},
        ]
    )

    def test_computes_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", self.SPEC
        )
        assert code == 0
        assert out.splitlines()[0] == "56448"

    def test_expect_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "aut-construct", "14", "(x^3+x+1)^2",
            "--spec", self.SPEC, "--expect", "99",
        )
        assert code == 1
        assert "56448" in err

    def test_expect_zero_is_refused(self, capsys):
        # every order divides 0
        code, out, err = run_cli(
            capsys, "aut-construct", "62", "(x^5+x^2+1)^2",
            "--spec", '[{"kind": "pair_swap"}]', "--expect", "0",
        )
        assert code == 2 and out == ""
        assert "--expect must be positive" in err

    def test_generator_not_in_ascii_digits_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "aut-brute", "7", "x^\u0663+x+1")
        assert code == 2 and out == ""
        assert "bad polynomial term" in err

    def test_requires_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["aut-construct", "14", "(x^3+x+1)^2"])
        assert exc.value.code == 2
        assert "one of the arguments --spec --spec-file is required" in capsys.readouterr().err

    def test_spec_and_spec_file_together_are_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(self.SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["aut-construct", "14", "(x^3+x+1)^2",
                  "--spec", self.SPEC, "--spec-file", str(path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_empty_spec_is_read_not_missing(self, capsys):
        code, out, err = run_cli(capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", "")
        assert code == 2 and out == ""
        assert err.startswith("error: Expecting value")

    def test_duplicate_spec_keys_are_refused(self, tmp_path, capsys):
        # json keeps the last value of a key given twice
        spec = '[{"kind": "pair_swap", "kind": "shift"}]'
        code, out, err = run_cli(capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", spec)
        assert (code, out) == (2, "")
        assert err == "error: --spec: duplicate JSON object key 'kind'\n"
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out, err = run_cli(
            capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec-file", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: --spec-file: duplicate JSON object key 'kind'\n"

    def test_spec_typo_rejected(self, capsys):
        spec = self.SPEC.replace('"rows"', '"row"')
        code, _, err = run_cli(capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", spec)
        assert code == 2
        assert "unknown field 'row'" in err

    def test_block_system_order(self, capsys):
        spec = json.dumps(
            [{"kind": "block_rows", "k": 14},
             {"kind": "lifted_column", "k": 14,
              "inner": {"source": "brute", "n": 7, "generator": "(x^3+x+1)(x^3+x^2+1)"}}]
        )
        code, out, _ = run_cli(
            capsys, "--json", "aut-construct", "98", "(x^3+x+1)(x^3+x^2+1)", "--spec", spec
        )
        assert code == 0
        assert json.loads(out)["order"] == str(5040 * 87178291200**7)

    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(self.SPEC)
        code, out, _ = run_cli(
            capsys, "aut-construct", "14", "(x^3+x+1)^2",
            "--spec-file", str(path), "--expect", "56448",
        )
        assert code == 0
        assert out.splitlines()[0] == "56448"


class TestVerifyTable:
    def test_fast_entries_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len7")
        assert code == 0
        assert "2/2 entries passed" in out

    def test_len31_entries(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len31")
        assert code == 0
        assert "2/2 entries passed" in out

    def test_wrong_order_negative_control(self, tmp_path, capsys):
        manifest = [
            {
                "name": "hamming-wrong",
                "n": 7,
                "generator": "x^3+x+1",
                "expected_order": "169",
                "method": "brute",
            }
        ]
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(manifest))
        code, out, _ = run_cli(capsys, "verify-table", str(path))
        assert code == 1
        assert "168" in out and "169" in out

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_filter_that_matches_nothing_is_a_usage_error(self, capsys, mode):
        code, out, err = run_cli(capsys, *mode, "verify-table", "--filter", "nosuch")
        assert (code, out) == (2, "")
        assert err == "error: --filter 'nosuch' matches no entry\n"

    def test_empty_manifest(self, tmp_path, capsys):
        # no claim was proved, so an empty manifest cannot pass
        path = tmp_path / "empty.json"
        path.write_text("[]")
        message = f"error: manifest {path} must be a non-empty JSON list of entries\n"
        for flags in ([], ["--json"]):
            assert run_cli(capsys, *flags, "verify-table", str(path)) == (2, "", message)

    def test_manifest_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{np.whatever}")
        code, _, err = run_cli(capsys, "verify-table", str(path))
        assert code == 2

    def test_environment_does_not_replace_the_bundled_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CYCAUT_MANIFEST", str(tmp_path / "missing.json"))
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len7")
        assert code == 0
        assert "2/2 entries passed" in out

    def test_text_lines_are_the_report_summaries(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len14-squared")
        assert code == 0
        line, footer = out.splitlines()
        assert line.startswith(
            "PASS len14-squared-cubic: n=14 g=x^6+x^2+1 expected=56448 computed=56448 [construct, "
        )
        assert line.endswith(" ms, sampled 1000 outside (seed 0), 0 escapes]")
        assert footer == "1/1 entries passed"

    def test_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", "verify-table"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cycaut")

    @pytest.mark.parametrize("flag", ["--seed", "--max-n"])
    def test_no_run_level_override_of_the_manifest(self, capsys, flag):
        # the seed is the manifest's and the cutoff BRUTE_FORCE_MAX_N
        with pytest.raises(SystemExit) as exc:
            main([flag, "6", "verify-table"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cycaut")

    def test_json_output_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "--json", "verify-table", "--filter", "len7")
        code2, out2, _ = run_cli(capsys, "--json", "verify-table", "--filter", "len7")
        assert code1 == code2 == 0

        def strip_elapsed(text):
            rows = [json.loads(line) for line in text.splitlines()]
            for row in rows:
                row.pop("elapsed_ms")
            return rows

        assert strip_elapsed(out1) == strip_elapsed(out2)
        row = json.loads(out1.splitlines()[0])
        assert set(row) == {
            "name", "n", "generator", "expected_order",
            "computed_order", "pass", "elapsed_ms", "seed",
        }


class TestEntryIsolation:
    """A run-time error in one entry fails that entry only: every other
    entry still runs and prints its usual record, and the run exits 2.

    BAD loads, but its one construction, block_rows, is patched here to
    raise, as a fault inside a construction would; the good entries use
    no block_rows."""

    GOOD_A = {"name": "good-a", "n": 7, "generator": "x^3+x+1",
              "expected_order": "168", "method": "brute"}
    BAD = {"name": "bad-rows", "n": 49, "generator": "x^3+x+1",
           "expected_order": "1", "method": "construct",
           "construction": [{"kind": "block_rows", "k": 7}]}
    GOOD_B = {"name": "good-b", "n": 31, "generator": "(x^5+x^2+1)(x^5+x^3+1)",
              "expected_order": "310", "method": "construct",
              "construction": SHIFT_MULTIPLIERS}

    @pytest.fixture(autouse=True)
    def _faulty_block_rows(self, monkeypatch):
        def fault(k, cols):
            raise ValueError(f"block_rows fault at {k}x{cols}")

        monkeypatch.setattr(manifest_module, "block_row_generators", fault)

    @staticmethod
    def _records(text):
        rows = [json.loads(line) for line in text.splitlines()]
        for row in rows:
            row.pop("elapsed_ms")
        return rows

    def _run(self, tmp_path, capsys, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return run_cli(capsys, "--json", "verify-table", str(path))

    def test_bad_entry_between_two_good_ones(self, tmp_path, capsys):
        code, out, err = self._run(tmp_path, capsys, [self.GOOD_A, self.BAD, self.GOOD_B])
        assert code == 2
        assert err.strip() == "error: entry 'bad-rows': block_rows fault at 7x7"
        good_code, good_out, _ = self._run(tmp_path, capsys, [self.GOOD_A, self.GOOD_B])
        assert good_code == 0
        good = self._records(good_out)
        assert self._records(out) == [
            good[0],
            {"name": "bad-rows", "n": 49, "generator": "x^3+x+1",
             "expected_order": "1", "computed_order": None, "pass": False,
             "seed": None},
            good[1],
        ]

    def test_text_output_names_the_entry_and_counts_it(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([self.GOOD_A, self.BAD, self.GOOD_B]))
        code, out, _ = run_cli(capsys, "verify-table", str(path))
        assert code == 2
        lines = out.splitlines()
        assert lines[1].startswith("FAIL bad-rows:")
        assert lines[1].endswith("-- entry 'bad-rows': block_rows fault at 7x7")
        assert lines[0].startswith("PASS good-a") and lines[2].startswith("PASS good-b")
        assert lines[-1] == "2/3 entries passed"

    def test_a_failed_claim_alone_still_exits_1(self, tmp_path, capsys):
        wrong = dict(self.GOOD_A, expected_order="169")
        code, _, err = self._run(tmp_path, capsys, [wrong, self.GOOD_B])
        assert code == 1 and err == ""


class TestManifestSchema:
    def test_default_manifest_loads(self):
        entries = load_manifest(default_manifest_path())
        names = [e["name"] for e in entries]
        assert len(names) == len(set(names))
        assert {e["n"] for e in entries} == {7, 14, 31, 49, 62, 98}

    def test_extended_manifest_loads(self):
        entries = load_manifest(extended_manifest_path())
        assert {e["n"] for e in entries} == {961, 1922}

    def test_rejects_unknown_method(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([{"name": "x", "n": 7, "generator": "x^3+x+1",
                         "expected_order": "168", "method": "magic"}])
        )
        with pytest.raises(ValueError, match="method"):
            load_manifest(str(path))

    def test_rejects_non_divisor_generator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([{"name": "x", "n": 7, "generator": "x^2+x+1",
                         "expected_order": "1", "method": "brute"}])
        )
        with pytest.raises(ValueError, match="divide"):
            load_manifest(str(path))

    def test_rejects_inconsistent_factored_order(self, tmp_path, capsys):
        entry = {
            "name": "bad-factors",
            "n": 7,
            "generator": "x^3+x+1",
            "expected_order": "168",
            "expected_order_factors": [[2, 3], [20, 1]],
            "method": "brute",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        message = (
            "entry 'bad-factors': field 'expected_order_factors' multiplies to 160, "
            "not expected_order 168"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_manifest(str(path))
        assert run_cli(capsys, "--json", "verify-table", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("factors", [[[168, 1], [3, 10_000_000], [1, 1]], [[2, 8]]])
    def test_refuses_an_oversized_factor_list_unbuilt(self, tmp_path, factors):
        # 3**10_000_000 would take seconds to build; its size alone refuses it
        entry = {
            "name": "huge", "n": 7, "generator": "x^3+x+1", "expected_order": "168",
            "expected_order_factors": factors, "method": "brute",
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([entry]))
        message = "entry 'huge': field 'expected_order_factors' multiplies to more than expected_order 168"
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_manifest(str(path))
        assert time.perf_counter() - t0 < 1.0

    def test_refuses_an_oversized_generator_unbuilt(self, tmp_path):
        entry = {
            "name": "huge-g", "n": 7, "generator": "(x+1)^4194303",
            "expected_order": "168", "method": "brute",
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([entry]))
        t0 = time.perf_counter()
        with pytest.raises(ValueError) as info:
            load_manifest(str(path))
        assert time.perf_counter() - t0 < 1.0
        assert str(info.value) == "entry 'huge-g': generator degree 4194303 exceeds the length 7"
        assert len(str(info.value)) < 200

    @staticmethod
    def _load_one(tmp_path, change=None):
        """Load a one-entry manifest: a valid entry, edited by `change`."""
        entry = {
            "name": "typo", "n": 14, "generator": "(x^3+x+1)^2",
            "expected_order": "56448", "method": "construct",
            "construction": [
                {"kind": "interleaved_lift", "rows": [1, 2],
                 "inner": {"source": "brute", "n": 7, "generator": "x^3+x+1"}},
                {"kind": "pair_swap"},
            ],
        }
        if change is not None:
            change(entry)
        path = tmp_path / "entry.json"
        path.write_text(json.dumps([entry]))
        return load_manifest(str(path))

    def test_the_base_entry_loads(self, tmp_path):
        assert self._load_one(tmp_path)[0]["name"] == "typo"

    def test_rejects_full_width_digits(self, tmp_path):
        # "１６８".isdigit() is True and int() accepts it
        def full_width(e):
            e["expected_order"] = "\uff11\uff16\uff18"

        with pytest.raises(ValueError, match="entry 'typo'.*expected_order.*ASCII"):
            self._load_one(tmp_path, change=full_width)

    @pytest.mark.parametrize("factors", [None, [[0, 3]]], ids=["plain", "factored"])
    def test_rejects_zero_expected_order(self, tmp_path, factors):
        # an order is at least 1
        def zero(e):
            e.update(expected_order="0")
            if factors is not None:
                e["expected_order_factors"] = factors

        with pytest.raises(ValueError, match="entry 'typo': expected_order must be positive"):
            self._load_one(tmp_path, change=zero)

    def test_rejects_unknown_kind(self, tmp_path):
        def typo(e):
            e["construction"][1]["kind"] = "pair_swapp"

        with pytest.raises(ValueError, match=r"entry 'typo': construction\[1\]: unknown kind 'pair_swapp'"):
            self._load_one(tmp_path, change=typo)

    def test_rejects_unknown_source(self, tmp_path):
        def typo(e):
            e["construction"][0]["inner"]["source"] = "brutal"

        with pytest.raises(ValueError, match=r"construction\[0\]\.inner: unknown source 'brutal'"):
            self._load_one(tmp_path, change=typo)

    def test_rejects_unknown_construction_field(self, tmp_path):
        # "row" for "rows" used to fall back to the default rows silently
        def typo(e):
            e["construction"][0]["row"] = e["construction"][0].pop("rows")

        with pytest.raises(ValueError, match=r"entry 'typo': construction\[0\].*unknown field 'row'"):
            self._load_one(tmp_path, change=typo)

    def test_rejects_unknown_field_in_nested_specs(self, tmp_path):
        def nested(e):
            e["construction"][0]["inner"] = {
                "source": "construct", "n": 7, "generator": "x^3+x+1",
                "specs": [{"kind": "shift", "k": 2}],
            }

        with pytest.raises(ValueError, match=r"inner\.specs\[0\].*unknown field 'k'"):
            self._load_one(tmp_path, change=nested)

    def test_rejects_missing_construction_field(self, tmp_path):
        def missing(e):
            del e["construction"][0]["inner"]

        with pytest.raises(ValueError, match=r"construction\[0\].*missing field 'inner'"):
            self._load_one(tmp_path, change=missing)

    def test_rejects_unknown_entry_and_sampling_fields(self, tmp_path):
        def entry_typo(e):
            e["expected_orders"] = e["expected_order"]

        with pytest.raises(ValueError, match="entry 'typo': unknown field 'expected_orders'"):
            self._load_one(tmp_path, change=entry_typo)

        def sampling_typo(e):
            e["sampling"] = {"trials": 10, "seed": 3, "sed": 3}

        with pytest.raises(ValueError, match="entry 'typo': sampling: unknown field 'sed'"):
            self._load_one(tmp_path, change=sampling_typo)

    LEN7 = {"name": "len7", "n": 7, "generator": "x^3+x+1",
            "expected_order": "168", "method": "brute"}

    def test_rejects_duplicate_object_keys(self, tmp_path, capsys):
        # json keeps the last of two values of a key, so this loaded as 168
        # and passed
        path = tmp_path / "dup.json"
        path.write_text(
            '[{"name": "len7", "n": 7, "generator": "x^3+x+1", '
            '"expected_order": "999", "expected_order": "168", "method": "brute"}]'
        )
        message = f"manifest {path}: duplicate JSON object key 'expected_order'"
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_manifest(str(path))
        assert run_cli(capsys, "--json", "verify-table", str(path)) == (2, "", f"error: {message}\n")

    def test_rejects_duplicate_keys_in_a_nested_record(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '[{"name": "e", "n": 98, "generator": "x^3+x+1", "expected_order": "1", '
            '"method": "construct", "construction": [{"kind": "block_rows", "k": 14, "k": 7}]}]'
        )
        with pytest.raises(ValueError, match="duplicate JSON object key 'k'"):
            load_manifest(str(path))

    @pytest.mark.parametrize(
        ("second", "message"),
        [
            ({"name": "no-n", "generator": "x^3+x+1", "expected_order": "168", "method": "brute"},
             "manifest entry [1] 'no-n': missing field 'n'"),
            ({"n": 7, "generator": "x^3+x+1", "expected_order": "168", "method": "brute"},
             "manifest entry [1]: missing field 'name'"),
            ({"name": 7, "n": 7}, "manifest entry [1]: field 'name' must be a string: 7"),
            ([7], "manifest entry [1] must be an object: [7]"),
        ],
        ids=["missing-n", "missing-name", "name-not-a-string", "not-an-object"],
    )
    def test_names_a_malformed_entry(self, tmp_path, capsys, second, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([self.LEN7, second]))
        with pytest.raises(ValueError) as exc:
            load_manifest(str(path))
        assert str(exc.value) == message
        assert run_cli(capsys, "verify-table", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        ("factors", "message"),
        [
            ([[-168, 1], [-1, 1]], r"\[0\]\[0\] must be at least 1: -168"),
            ([[168, 1], [0, 5]], r"\[1\]\[0\] must be at least 1: 0"),
        ],
    )
    def test_rejects_factor_bases_below_1(self, tmp_path, factors, message):
        # (-168) * (-1) = 168, which the product check alone accepts
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([dict(self.LEN7, expected_order_factors=factors)]))
        with pytest.raises(ValueError, match=r"entry 'len7': field 'expected_order_factors'" + message):
            load_manifest(str(path))

    def test_expand_source_perms(self):
        gens = expand_source({"source": "perms", "degree": 5, "cycles": ["(1,2)", "(1,2,3,4,5)"]})
        assert len(gens) == 2 and gens[0].degree == 5


class TestBruteForceCutoffAtLoad:
    """A brute-force length beyond BRUTE_FORCE_MAX_N, of an entry or of an
    inner source alike, rejects the manifest when it is loaded, before
    anything runs."""

    LONG = {"name": "long", "n": 14, "generator": "(x^3+x+1)^2",
            "expected_order": "56448", "method": "brute"}

    @staticmethod
    def _write(tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    @staticmethod
    def _with_inner(source):
        return {
            "name": "inner", "n": 14, "generator": "(x^3+x+1)^2",
            "expected_order": "56448", "method": "construct",
            "construction": [{"kind": "interleaved_lift", "inner": source}],
        }

    def test_rejects_a_long_brute_entry(self, tmp_path):
        path = self._write(tmp_path, [self.LONG])
        with pytest.raises(ValueError, match=r"entry 'long': field 'n' = 14 exceeds the brute-force cutoff 10"):
            load_manifest(path)

    def test_rejects_a_long_inner_brute_source(self, tmp_path):
        source = {"source": "brute", "n": 14, "generator": "(x^3+x+1)^2"}
        path = self._write(tmp_path, [self._with_inner(source)])
        where = r"entry 'inner': construction\[0\]\.inner \(source 'brute'\)"
        with pytest.raises(ValueError, match=where + r": field 'n' = 14 exceeds the brute-force cutoff 10"):
            load_manifest(path)

    def test_rejects_a_long_brute_source_nested_deeper(self, tmp_path):
        source = {
            "source": "construct", "n": 7, "generator": "x^3+x+1",
            "specs": [{"kind": "lifted_column", "k": 1,
                       "inner": {"source": "brute", "n": 11, "generator": "x+1"}}],
        }
        path = self._write(tmp_path, [self._with_inner(source)])
        with pytest.raises(
            ValueError,
            match=r"entry 'inner': construction\[0\]\.inner\.specs\[0\]\.inner \(source 'brute'\): "
            r"field 'n' = 11 exceeds",
        ):
            load_manifest(path)

    def test_rejects_a_non_integer_length(self, tmp_path):
        source = {"source": "brute", "n": "seven", "generator": "x^3+x+1"}
        path = self._write(tmp_path, [self._with_inner(source)])
        with pytest.raises(ValueError, match=r"inner \(source 'brute'\): field 'n' must be an integer"):
            load_manifest(path)

    def test_verify_table_exits_2_with_no_records(self, tmp_path, capsys):
        short = dict(self.LONG, name="short", n=7, generator="x^3+x+1", expected_order="168")
        path = self._write(tmp_path, [short, self.LONG])
        code, out, err = run_cli(capsys, "--json", "verify-table", path)
        assert code == 2 and out == ""
        assert "entry 'long': field 'n'" in err

    def test_aut_construct_spec_is_checked(self, capsys):
        spec = json.dumps([{"kind": "lifted_column", "k": 1,
                            "inner": {"source": "brute", "n": 11, "generator": "x+1"}}])
        code, out, err = run_cli(capsys, "aut-construct", "11", "x+1", "--spec", spec)
        assert code == 2 and out == ""
        assert "--spec[0].inner (source 'brute'): field 'n' = 11 exceeds" in err


class TestRangesAtLoad:
    """A value that does not fit the length of its record rejects the
    manifest when it is loaded, naming the entry and the field path."""

    HAMMING_7 = {"source": "brute", "n": 7, "generator": "x^3+x+1"}

    CASES = {
        "block-rows-k1": (
            49, "x^3+x+1", [{"kind": "block_rows", "k": 1}],
            r"construction\[0\] \(kind 'block_rows'\): field 'k' must be at least 2: 1",
        ),
        "block-rows-k5": (
            49, "x^3+x+1", [{"kind": "block_rows", "k": 5}],
            r"construction\[0\] \(kind 'block_rows'\): field 'k' = 5 does not divide the length 49",
        ),
        "lifted-column-k": (
            14, "(x^3+x+1)^2", [{"kind": "lifted_column", "k": 4, "inner": HAMMING_7}],
            r"construction\[0\] \(kind 'lifted_column'\): field 'k' = 4 does not divide the length 14",
        ),
        "residue-rows": (
            14, "(x^3+x+1)^2", [{"kind": "residue_lift", "rows": 3, "inner": HAMMING_7}],
            r"construction\[0\] \(kind 'residue_lift'\): field 'rows' = 3 does not divide the length 14",
        ),
        "odd-pair-swap": (
            7, "x^3+x+1", [{"kind": "pair_swap"}],
            r"construction\[0\] \(kind 'pair_swap'\) needs an even length, not 7",
        ),
        "interleaved-row": (
            14, "(x^3+x+1)^2",
            [{"kind": "interleaved_lift", "rows": [1, 3], "inner": HAMMING_7}],
            r"construction\[0\] \(kind 'interleaved_lift'\): field 'rows'\[1\] must be 1 or 2: 3",
        ),
        "non-unit-multiplier": (
            14, "(x^3+x+1)^2", [{"kind": "multiplier", "a": 2}],
            r"construction\[0\] \(kind 'multiplier'\): field 'a' = 2 is not a unit mod 14",
        ),
        "residue-at": (
            14, "(x^3+x+1)^2",
            [{"kind": "residue_lift", "rows": 2, "at": [1, 3], "inner": HAMMING_7}],
            r"construction\[0\] \(kind 'residue_lift'\): field 'at'\[1\] = 3 is outside 1..2",
        ),
        "inner-degree": (
            14, "(x^3+x+1)^2",
            [{"kind": "lifted_column", "k": 2,
              "inner": {"source": "perms", "degree": 14, "cycles": ["(1,2)"]}}],
            r"construction\[0\]\.inner \(source 'perms'\): field 'degree' = 14 is not the inner degree 7",
        ),
        "inner-generator": (
            14, "(x^3+x+1)^2",
            [{"kind": "lifted_column", "k": 2,
              "inner": {"source": "shift_multipliers", "n": 7, "generator": "x^2+x+1"}}],
            r"construction\[0\]\.inner \(source 'shift_multipliers'\): .*does not divide x\^7\+1",
        ),
        "perms-point": (
            7, "x^3+x+1", [{"kind": "perms", "cycles": ["(1,2)", "(1,8)"]}],
            r"construction\[0\] \(kind 'perms'\): field 'cycles'\[1\]: point 8 out of range 1..7",
        ),
        "perms-not-text": (
            7, "x^3+x+1", [{"kind": "perms", "cycles": [[1, 2]]}],
            r"construction\[0\] \(kind 'perms'\): field 'cycles'\[0\] must be a cycle text",
        ),
        "row-permutation-point": (
            14, "(x^3+x+1)^2", [{"kind": "row_permutation", "rows": 2, "perms": ["(1,3)"]}],
            r"construction\[0\] \(kind 'row_permutation'\): field 'perms'\[0\]: point 3 out of range 1..2",
        ),
        "nested-specs": (
            14, "(x^3+x+1)^2",
            [{"kind": "interleaved_lift",
              "inner": {"source": "construct", "n": 7, "generator": "x^3+x+1",
                        "specs": [{"kind": "multiplier", "a": 7}]}}],
            r"construction\[0\]\.inner\.specs\[0\] \(kind 'multiplier'\): field 'a' = 7 is not a unit mod 7",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejects(self, tmp_path, case):
        n, generator, construction, message = self.CASES[case]
        entry = {"name": case, "n": n, "generator": generator, "expected_order": "1",
                 "method": "construct", "construction": construction}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match=rf"^entry '{case}': {message}"):
            load_manifest(str(path))

    def test_aut_construct_spec_is_checked_at_its_length(self, capsys):
        spec = json.dumps([{"kind": "multiplier", "a": 2}])
        code, out, err = run_cli(capsys, "aut-construct", "14", "(x^3+x+1)^2", "--spec", spec)
        assert code == 2 and out == ""
        assert err == "error: --spec[0] (kind 'multiplier'): field 'a' = 2 is not a unit mod 14\n"


class TestParserReuse:
    """One parser serves every `main` call of a process; no flag of one
    call may reach the next."""

    def test_built_once(self):
        assert cli_module._parser() is cli_module._parser()

    def test_global_flags_reset_between_calls(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "factor", "7")
        assert code == 0 and json.loads(out)["n"] == 7
        code, out, _ = run_cli(capsys, "factor", "7")
        assert code == 0 and out.splitlines()[0] == "(x+1)^1"

        code, out, _ = run_cli(capsys, "--json", "aut-brute", "7", "x^3+x+1")
        assert code == 0 and json.loads(out)["order"] == "168"
        code, out, _ = run_cli(capsys, "aut-brute", "7", "x^3+x+1")
        assert code == 0 and out == "168\n"

        code, out, _ = run_cli(capsys, "--json", "verify-table", "--filter", "len7")
        assert code == 0 and [json.loads(line)["pass"] for line in out.splitlines()] == [True, True]
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len7")
        assert code == 0 and "2/2 entries passed" in out

    def test_subcommand_flags_reset_between_calls(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "aut-brute", "7", "x^3+x+1", "--emit-gens")
        assert code == 0 and "generators" in json.loads(out)
        code, out, _ = run_cli(capsys, "--json", "aut-brute", "7", "x^3+x+1")
        assert code == 0 and "generators" not in json.loads(out)

        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len31")
        assert code == 0 and "2/2 entries passed" in out
        code, out, _ = run_cli(capsys, "verify-table", "--filter", "len7")
        assert code == 0 and "2/2 entries passed" in out and "len31" not in out


class TestModuleEntryPoint:
    def test_python_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "cycaut", "factor", "7"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "(x^3+x+1)^1" in result.stdout


class TestClosedOutputPipe:
    """A reader that closes stdout early ends the run quietly: exit 0 and
    nothing on stderr (no `error:` line, no "Exception ignored" at exit)."""

    @staticmethod
    def _env(unbuffered: bool) -> dict:
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    def test_reader_closes_after_one_line(self):
        # `cycaut verify-table | head -1`: each entry's line is written as
        # it finishes, so the later lines meet a closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "cycaut", "verify-table"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(unbuffered=True),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, err
        assert first.startswith(b"PASS len7-")
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_closed_before_the_first_line(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cycaut", "verify-table", "--filter", "len7"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=self._env(unbuffered),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""

    def test_other_os_errors_still_exit_2(self, capsys):
        code = main(["verify-table", "/nonexistent/manifest.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
