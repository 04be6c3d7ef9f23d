"""Command-line interface: subcommands, exit codes, round trips."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from superalg import FAMILY_IDS, build, family_info, parameter_names
from superalg import cli
from superalg.cli import main
from superalg.core import MAX_BOUND, MAX_SAMPLES, sdf_dumps, sdf_loads
from superalg.errors import shown
from superalg.families import MAX_SIZE

from oracles import smallest_instance


# Python 3.10 before 3.10.7 has no int-string digit limit, so no literal is over it.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
BIG = "1" * max(5000, DIGIT_LIMIT + 1)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamilyCommand:
    def test_emit_and_lie_check(self, tmp_path, capsys):
        out = tmp_path / "n23.json"
        code, _, _ = run(["family", "N2M", "--m", "3", "-o", str(out)], capsys)
        assert code == 0
        code, stdout, _ = run(["check", str(out), "--identity", "lie"], capsys)
        assert code == 0 and "ok" in stdout

    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code, _, _ = run(["family", "H", "--n", "5", "--param", "beta4=1",
                          "-o", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert sdf_dumps(sdf_loads(text)) == text

    def test_zeros_flag(self, tmp_path, capsys):
        out = tmp_path / "l.json"
        code, _, _ = run(["family", "L", "--n", "5", "--zeros", "-o", str(out)],
                         capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"] == []

    def test_zeros_flag_fills_every_unspecified_parameter_across_the_catalog(self, capsys):
        for fid in FAMILY_IDS:
            size, params = smallest_instance(fid)
            info = family_info(fid)
            given = {k: v for k, v in params.items() if v or k in info.structural}
            argv = ["family", fid, f"--{info.size_name}", str(size), "--zeros", "-o", "-"]
            for name, value in given.items():
                argv += ["--param", f"{name}={value}"]
            code, out, _ = run(argv, capsys)
            hand = {p: 0 for p in parameter_names(fid, size)}
            hand.update(given)
            assert code == 0 and out == sdf_dumps(build(fid, size, hand)), fid

    @pytest.mark.parametrize("raw", [pytest.param(BIG, marks=needs_digit_limit), "x" * 5000])
    def test_long_structural_t_is_named_by_its_length(self, raw, capsys):
        code, out, err = run(["family", "SH1", "--n", "5", "--param", f"t={raw}"], capsys)
        assert code == 2 and out == ""
        assert f"t must be an integer, got a {len(raw)}-character value" in err
        assert len(err) < 200

    def test_short_structural_t_is_shown(self, capsys):
        code, _, err = run(["family", "SH1", "--n", "5", "--param", "t=4.5"], capsys)
        assert code == 2 and "t must be an integer, got '4.5'" in err

    def test_wrong_size_flag(self, capsys):
        code, _, err = run(["family", "N2M", "--n", "3", "-o", "-"], capsys)
        assert code == 2 and "sized by --m" in err

    def test_domain_error_names_constraint(self, capsys):
        code, _, err = run(["family", "N2M", "--m", "4", "-o", "-"], capsys)
        assert code == 2 and "odd" in err

    def test_zeros_below_the_minimum_size_names_the_limit(self, capsys):
        code, _, err = run(["family", "M4", "--m", "2", "--zeros", "-o", "-"],
                           capsys)
        assert code == 2 and "M4: m must be >= 3 (got 2)" in err

    def test_unknown_family_id_exits_2(self, capsys):
        code, _, err = run(["family", "XYZ", "--n", "3"], capsys)
        assert code == 2 and "unknown family id 'XYZ'" in err

    def test_unknown_errata_mode_exits_2(self, capsys):
        code, _, err = run(["family", "L", "--n", "3", "--errata", "bogus"],
                           capsys)
        assert code == 2 and "unknown errata mode 'bogus'" in err

    def test_size_above_the_cap_exits_2_naming_the_limit(self, capsys):
        code, _, err = run(["family", "L", "--n", str(MAX_SIZE + 1), "--zeros",
                            "-o", "-"], capsys)
        assert code == 2
        assert f"L: n must be <= MAX_SIZE = {MAX_SIZE} (got {MAX_SIZE + 1})" in err

    @pytest.mark.parametrize("raw", ["1e3", "1.5"])
    def test_param_takes_only_rational_literals(self, raw, capsys):
        code, _, err = run(["family", "H", "--n", "5", "--param",
                            f"gamma={raw}", "-o", "-"], capsys)
        assert code == 2 and "parameter gamma" in err

    @needs_digit_limit
    def test_param_over_the_digit_limit_exits_2(self, capsys):
        code, out, err = run(["family", "L", "--n", "5", "--param",
                              f"alpha4={BIG}", "-o", "-"], capsys)
        assert code == 2 and out == ""
        assert f"parameter alpha4: rational literal with a {len(BIG)}-digit" in err
        assert BIG[:50] not in err

    @pytest.mark.parametrize("fid, name", [("L", "alpha4"), ("SH1", "t")])
    def test_repeated_param_exits_2_naming_it(self, fid, name, capsys):
        code, out, err = run(["family", fid, "--n", "5", "--param", f"{name}=4",
                              "--param", f"{name}=5"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --param '{name}' is given more than once\n"

    def test_param_fraction_literal_builds(self, capsys):
        code, out, _ = run(["family", "H", "--n", "5", "--param", "gamma=3/2",
                            "-o", "-"], capsys)
        assert code == 0 and json.loads(out)["name"] == "H(n=5, gamma=3/2)"

    def test_verbatim_mode(self, tmp_path, capsys):
        out = tmp_path / "m5.json"
        code, _, _ = run(["family", "M5", "--m", "5", "--errata", "verbatim",
                          "-o", str(out)], capsys)
        assert code == 0
        code, stdout, _ = run(["check", str(out)], capsys)
        assert code == 1 and "residual" in stdout


class TestAnalysisCommands:
    @pytest.fixture()
    def n23(self, tmp_path, capsys):
        out = tmp_path / "n23.json"
        assert main(["family", "N2M", "--m", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    def test_abelian_sdf_checks_clean(self, tmp_path, capsys):
        doc = {"name": "abelian", "even_basis": ["e1"], "odd_basis": ["y1"],
               "parameters": [], "products": []}
        path = tmp_path / "ab.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["check", str(path)], capsys)
        assert code == 0 and "ok" in stdout

    def test_series(self, n23, capsys):
        code, stdout, _ = run(["series", n23], capsys)
        assert code == 0 and "stabilizes at zero" in stdout
        code, stdout, _ = run(["series", n23, "--type", "derived"], capsys)
        assert code == 0

    def test_charseq(self, n23, capsys):
        code, stdout, _ = run(["charseq", n23], capsys)
        assert code == 0 and "(certified, seed=" in stdout
        assert stdout.rstrip().endswith(": (1, 1 | 3)")

    def test_charseq_seed_env(self, n23, capsys, monkeypatch):
        monkeypatch.setenv("SUPERALG_SEED", "2")
        code, stdout, _ = run(["charseq", n23], capsys)
        assert code == 0 and "seed=2" in stdout

    @pytest.mark.parametrize("raw", [pytest.param(BIG, marks=needs_digit_limit), "x" * 5000])
    def test_long_seed_env_is_named_by_its_length(self, raw, capsys, monkeypatch):
        monkeypatch.setenv("SUPERALG_SEED", raw)
        code, out, err = run(["verify", "--claims", "NILP-L"], capsys)
        assert code == 2 and out == ""
        assert f"SUPERALG_SEED must be an integer, got a {len(raw)}-character value" in err
        assert len(err) < 200

    def test_charseq_rejects_non_nilpotent(self, tmp_path, capsys):
        out = tmp_path / "sl.json"
        assert main(["family", "SL", "--n", "4", "-o", str(out)]) == 0
        capsys.readouterr()
        code, _, err = run(["charseq", str(out)], capsys)
        assert code == 2 and "nilpotent" in err

    @pytest.mark.parametrize("flag", ["--samples", "--bound"])
    def test_charseq_negative_flag_names_the_limit(self, n23, capsys, flag):
        code, stdout, err = run(["charseq", n23, flag, "-1"], capsys)
        assert code == 2 and stdout == ""
        assert f"{flag[2:]} must be >= 0 (got -1)" in err

    @pytest.mark.parametrize("flag, cap_name, cap", [
        ("--samples", "MAX_SAMPLES", MAX_SAMPLES), ("--bound", "MAX_BOUND", MAX_BOUND)])
    def test_charseq_flag_above_the_cap_exits_2(self, n23, capsys, flag,
                                                cap_name, cap):
        code, stdout, err = run(["charseq", n23, flag, str(cap + 1)], capsys)
        assert code == 2 and stdout == ""
        assert f"{flag[2:]} must be <= {cap_name} = {cap} (got {cap + 1})" in err

    def test_derivations(self, n23, capsys):
        code, stdout, _ = run(["derivations", n23], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["degree"] == "even" and payload["dim"] >= 1
        code, stdout, _ = run(["derivations", n23, "--degree", "odd"], capsys)
        assert code == 0

    def test_derivations_refuses_an_oversized_dense_print(self, tmp_path, capsys,
                                                          monkeypatch):
        # 40 even basis vectors, no products: every even map is a derivation,
        # 1600 basis elements of 40 x 40 entries each.
        doc = {"name": "abelian40", "even_basis": [f"e{i}" for i in range(1, 41)],
               "odd_basis": [], "parameters": [], "products": []}
        path = tmp_path / "ab40.json"
        path.write_text(json.dumps(doc))
        dumped = []
        monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: dumped.append(a))
        code, out, err = run(["derivations", str(path)], capsys)
        assert code == 2 and out == "" and dumped == []
        assert err == (f"error: the even derivation basis has {1600 * 40 * 40} matrix "
                       f"entries; at most MAX_PRINTED_ENTRIES = {cli.MAX_PRINTED_ENTRIES} "
                       f"are printed\n")

    def test_annihilator(self, n23, capsys):
        code, stdout, _ = run(["annihilator", n23], capsys)
        assert code == 0 and "dims 1|0" in stdout and "e2" in stdout

    def test_annihilator_rows_with_several_terms(self, tmp_path, capsys):
        products = [("e1", "e1", "e3", "1"), ("e1", "e2", "e3", "2"),
                    ("e1", "y1", "y2", "1"), ("e1", "y2", "y2", "3")]
        doc = {"name": "rows", "even_basis": ["e1", "e2", "e3"], "odd_basis": ["y1", "y2"],
               "parameters": [], "products": [{"left": x, "right": y, "value": [[z, c]]}
                                              for x, y, z, c in products]}
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["annihilator", str(path)], capsys)
        assert code == 0
        assert stdout == ("right annihilator dims 2|1\n"
                          "  even: 1*e1 + -1/2*e2\n"
                          "  even: 1*e3\n"
                          "  odd: 1*y1 + -1/3*y2\n")

    def test_invariants(self, n23, capsys):
        code, stdout, _ = run(["invariants", n23], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["nilindex"] == 5
        assert payload["charseq"] == [[1, 1], [3]]
        assert payload["charseq_note"] == "certified"

    def test_invariants_of_a_non_nilpotent_algebra_end_in_null_charseq(self, tmp_path,
                                                                       capsys):
        path = str(tmp_path / "sl5.json")
        assert main(["family", "SL", "--n", "5", "-o", path]) == 0
        code, stdout, _ = run(["invariants", path], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["solvable"] is True and payload["nilindex"] is None
        assert list(payload.items())[-2:] == [("charseq", None), ("charseq_note", None)]

    def test_malformed_sdf_names_the_product(self, tmp_path, capsys):
        doc = {"name": "bad", "even_basis": ["e1"], "odd_basis": ["y1"],
               "parameters": [], "products": [
                   {"left": "e1", "right": "y1", "value": [["e1", "1"]]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and "[e1, y1]" in err

    @pytest.mark.parametrize("value", [
        '5', '[["e1"]]', '[["e1", null]]', '[[["e1"], 1]]', '[["e1", [1]]]',
        '[["e1", 1e400]]', '[["e1", 1.5]]', '[["e1", true]]'])
    def test_malformed_value_exits_2_naming_the_product(self, tmp_path, capsys,
                                                        value):
        text = ('{"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [], '
                '"products": [{"left": "e1", "right": "e1", "value": %s}]}' % value)
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and err.startswith("error: ") and "[e1, e1]" in err

    @pytest.mark.parametrize("doc", [
        {"name": "bad", "even_basis": ["e1"], "odd_basis": [], "products": 5},
        {"name": "bad", "even_basis": [["e1"]], "odd_basis": [], "products": []}])
    def test_malformed_shape_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and err.startswith("error: malformed SDF")

    def test_duplicate_parameter_names_exit_2(self, tmp_path, capsys):
        doc = {"name": "twice", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": ["a", "a"], "products": [
                   {"left": "e1", "right": "e1", "value": [["e2", "a"]]}]}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2 and out == "" and "duplicate parameter names" in err

    def test_oversized_exponent_exits_2(self, tmp_path, capsys):
        doc = {"name": "hostile", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": ["a"], "products": [
                   {"left": "e1", "right": "e1", "value": [["e2", "(a+1)^1000"]]}]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and "limit of 64" in err

    @needs_digit_limit
    @pytest.mark.parametrize("coeff", [BIG, f"2*{BIG}", f"1/{BIG}"])
    def test_literal_over_the_digit_limit_exits_2(self, tmp_path, capsys, coeff):
        doc = {"name": "hostile", "even_basis": ["e1", "e2"], "odd_basis": [],
               "products": [{"left": "e1", "right": "e1", "value": [["e2", coeff]]}]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and err.startswith("error: ")
        assert f"{len(BIG)}-digit" in err and BIG[:50] not in err

    def test_coefficient_over_the_degree_cap_exits_2(self, tmp_path, capsys):
        doc = {"name": "hostile", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": ["a", "b"], "products": [
                   {"left": "e1", "right": "e1", "value": [["e2", "a^64*b"]]}]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["check", str(path)], capsys)
        assert code == 2 and "total degree 65, over the limit MAX_DEGREE = 64" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["check", "/nonexistent.json"], capsys)
        assert code == 2
        assert err == "error: cannot read '/nonexistent.json': No such file or directory\n"

    def test_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: cannot read {shown(str(path))}: not UTF-8 text at byte 0\n"
        assert len(err.encode()) < 200


class TestCatalogAndErrata:
    def test_catalog_json(self, capsys):
        code, stdout, _ = run(["catalog"], capsys)
        assert code == 0
        catalog = json.loads(stdout)
        assert len(catalog) == 34
        assert catalog[0]["id"] == "N2M"

    @pytest.mark.parametrize("argv, digest", [
        (["catalog"],
         "6645abdbe9b7e3808166f549c28b45d2381b6fdcc00e90ad5db8397568699db7"),
        (["errata"],
         "97f83e7da843d70c368794ad79b6f1d1674fbd86d952947de7a6a3f335c379ce"),
        (["errata", "--sizes", "3..12"],
         "022bd8ecada880023662380073fe0d97ca3a01c9dfb72137dc7e261d8e282c46"),
        # SDF coefficients with denominators and signs, in both table forms
        (["family", "L", "--n", "6", "--param", "alpha4=1/2", "--param", "alpha5=-3",
          "--param", "alpha6=0", "--param", "theta=2"],
         "109ff01363de349895bc5b80180dd3550cf2d2389d874c6ed38ba88163fea753"),
        (["family", "M1", "--m", "5"],
         "5a47f1749703f6c585f6e7aeff9a1f93865d0e5e0305f9e5983553ca041394e0"),
        (["family", "M2", "--m", "5"],
         "def17531a6932a19f193687f8374278de5d3861f3cf41a133a2fba8c4c1292c9"),
    ])
    def test_output_is_pinned(self, argv, digest, capsys):
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_errata_sizes_above_the_cap_exit_2(self, capsys):
        code, stdout, err = run(["errata", "--sizes", f"3..{MAX_SIZE + 1}"],
                                capsys)
        assert code == 2 and stdout == ""
        assert f"errata sizes must be <= MAX_SIZE = {MAX_SIZE}" in err

    def test_errata_unknown_family_exits_2(self, capsys):
        code, stdout, err = run(["errata", "--family", "XYZ"], capsys)
        assert code == 2 and stdout == ""
        assert "unknown family id 'XYZ'" in err

    def test_errata_filtered(self, capsys):
        code, stdout, _ = run(["errata", "--family", "H5", "--sizes", "4..5"],
                              capsys)
        assert code == 0
        entries = json.loads(stdout)
        assert entries and all(e["family"] == "H5" for e in entries)


class TestVerifyCommand:
    def test_corollary_sweep_json(self, capsys):
        code, stdout, _ = run(["verify", "--claims", "COR-H",
                               "--n-range", "5..7", "--json"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["all_ok"] is True
        assert payload["summary"]["fail"] == 0

    def test_unwritable_report_exits_2_before_any_claim_runs(self, capsys, monkeypatch):
        from superalg import verify
        monkeypatch.setattr(verify, "run_claims", lambda *args: pytest.fail("claims ran"))
        code, out, err = run(["verify", "--claims", "NILP-L",
                              "--report", "/nonexistent/dir/x.json"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: cannot write '/nonexistent/dir/x.json': "
                       "No such file or directory\n")

    def test_text_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code, stdout, _ = run(["verify", "--claims", "DIST-MH",
                               "--report", str(path)], capsys)
        assert code == 0 and "report written" in stdout
        assert "DIST-MH" in path.read_text()

    def test_unknown_claim(self, capsys):
        code, _, err = run(["verify", "--claims", "XYZ"], capsys)
        assert code == 2 and "no claims match" in err

    @pytest.mark.parametrize("claims", ["", " ", ","])
    def test_blank_claim_selection_exits_2(self, claims, capsys):
        code, out, err = run(["verify", "--claims", claims], capsys)
        assert code == 2 and out == ""
        assert err == f"error: no claims match {claims!r}\n"

    def test_range_without_instances_exits_2(self, capsys):
        code, stdout, err = run(["verify", "--claims", "NILP-L",
                                 "--n-range", "0..2"], capsys)
        assert code == 2 and stdout == ""
        assert "no selected claim has an instance with size in 0..2" in err

    def test_range_far_below_every_domain_runs_as_its_domain_part(self, capsys):
        # The sizes below each family's minimum are skipped, not counted
        # through, so a 4,000-digit negative start ends at once.
        claims = ["--claims", "NILP-L,P-H,COR-H,SOLV-SL,DIST-MH,AUDIT-N2M", "--json"]
        wide = run(["verify", *claims, f"--n-range=-{DIGITS}..5"], capsys)
        narrow = run(["verify", *claims, "--n-range", "3..5"], capsys)
        assert wide[0] == narrow[0] == 0
        untimed = [re.sub(r'"wall_time_s": [^,\n]+', "", out) for _, out, _ in (wide, narrow)]
        assert untimed[0] == untimed[1]

    def test_range_above_the_cap_exits_2(self, capsys):
        code, _, err = run(["verify", "--claims", "NILP-L",
                            "--n-range", f"3..{MAX_SIZE + 1}"], capsys)
        assert code == 2 and f"MAX_SIZE = {MAX_SIZE}" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2


SRC = Path(__file__).resolve().parents[1] / "src"

# Prints, on the last line of stderr, the superalg modules in sys.modules and
# those whose code has run (a module still pending a lazy load has a subclass
# of ModuleType as its type), after importing the CLI and running argv.
PROBE = """
import json, sys, types
import superalg.cli
code = superalg.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ours = {n: m for n, m in sys.modules.items() if n.startswith("superalg")}
print(json.dumps([sorted(ours), sorted(n for n, m in ours.items()
                                       if type(m) is types.ModuleType), code]),
      file=sys.stderr)
"""

BASE = ["superalg", "superalg.cli", "superalg.core", "superalg.errors",
        "superalg.exactmath"]


LONG = "x" * 5000     # never an int
DIGITS = "9" * 4000   # an int under every int-string digit limit


class TestLongValuesAreNamedByLength:
    """An error line names a value of over 40 characters by its length only."""

    @pytest.mark.parametrize("argv", [
        ["family", "L", "--n", LONG], ["family", "N2M", "--m", LONG],
        ["charseq", "a.json", "--seed", LONG], ["charseq", "a.json", "--samples", LONG],
        ["charseq", "a.json", "--bound", LONG], ["verify", "--seed", LONG],
        ["verify", "--n-range", f"{LONG}..3"], ["verify", "--n-range", f"{DIGITS}..3"],
        ["errata", "--sizes", f"{LONG}..3"]])
    def test_option_type_errors(self, argv, capsys):
        # argparse prints its usage, then one error line, and exits 2.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"a {len(argv[-1])}-character value" in err.splitlines()[-1]
        assert max(map(len, err.splitlines())) < 200

    def test_short_option_value_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["family", "L", "--n", "abc"])
        assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shown", [
        (["family", "SH1", "--n", "5", "--param", LONG],
         "--param expects name=value, got a 5000"),
        (["family", "SH1", "--n", "5", "--param", f"t={DIGITS}"], "got t=a 4000"),
        (["family", "SH1", "--n", "5", "--param", f"t=-{DIGITS}"], "got t=a 4001"),
        (["family", "L", "--n", DIGITS], "(got a 4000"),
        (["family", "L", "--n", f"-{DIGITS}"], "(got a 4001"),
        (["family", "L", "--n", "5", "--param", f"alpha4={LONG}"], "literal: a 5000"),
        (["family", "L", "--n", "5", "--param", f"{LONG}=1"], "parameter a 5000"),
        (["family", "L", "--n", "5", "--param", f"{LONG}=1", "--param", f"{LONG}=2"],
         "--param a 5000"),
        (["family", "L", "--n", "5", "--errata", LONG], "mode a 5000"),
        (["family", LONG, "--n", "5"], "family id a 5000"),
        (["errata", "--family", LONG], "family id a 5000"),
        (["verify", "--claims", LONG], "match a 5000"),
        (["verify", "--n-range", f"3..{DIGITS}"], "3..a 4000"),
        (["charseq", "N2M", "--samples", DIGITS], "(got a 4000"),
        (["charseq", "N2M", "--bound", f"-{DIGITS}"], "(got a 4001"),
        (["family", "L", "--n", "5", "-o", "o" * 300], "cannot write a 300"),
        (["verify", "--claims", "NILP-L", "--report", LONG], "cannot write a 5000"),
        (["check", LONG], "cannot read a 5000")])
    def test_input_errors(self, argv, shown, tmp_path, capsys):
        if argv[0] == "charseq":
            argv = ["charseq", str(tmp_path / "n2m.json"), *argv[2:]]
            assert main(["family", "N2M", "--m", "3", "-o", argv[1]]) == 0
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert f"{shown}-character value" in err and len(err) < 200

    @pytest.mark.parametrize("sizes", [f"3..{DIGITS}", "3..100000000", "-100000000..3"],
                             ids=["4000-digit-end", "1e8-end", "-1e8-start"])
    def test_errata_sizes_are_capped_before_the_range_is_built(self, sizes, capsys):
        code, out, err = run(["errata", f"--sizes={sizes}"], capsys)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: errata sizes must be <= MAX_SIZE = {MAX_SIZE}")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize("left, target, coeff, shown", [
        ("e1", "e2", "1+" * 2499 + "*", "unexpected token '*' in coefficient a 4999"),
        ("e1", "e2", "1" + " 1" * 2500, "trailing tokens in coefficient a 5001"),
        ("e1", "e2", "1+" + "#" * 4998, "bad coefficient syntax at a 4998"),
        ("e1", "e2", "a" * 5000, "undeclared parameter a 5000"),
        ("e" * 5000, "e2", "1", "unknown basis label in product [a 5000"),
        ("e1", "e" * 5000, "1", "unknown component a 5000")],
        ids=["unexpected-token", "trailing-tokens", "bad-syntax", "undeclared-parameter",
             "unknown-basis-label", "unknown-component"])
    def test_sdf_errors(self, left, target, coeff, shown, tmp_path, capsys):
        doc = {"name": "long", "even_basis": ["e1", "e2"], "odd_basis": [],
               "products": [{"left": left, "right": "e1", "value": [[target, coeff]]}]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"{shown}-character value" in err and len(err.encode()) < 200

    LONG = "e" * 5000

    @pytest.mark.parametrize("products, shown", [
        ([{"left": LONG, "right": "e1", "value": []}] * 2,
         "duplicate product [a 5000-character value, e1]"),
        ([{"left": LONG, "right": "e1", "value": [["e1", 1.5]]}],
         "coefficient 1.5 in product [a 5000-character value, e1] is a float"),
        ([{"left": "e1", "right": LONG, "value": "e1"}],
         "malformed SDF value in product [e1, a 5000-character value]"),
        ([{"left": "e1", "right": "e1", "value": [["e1", list(range(2000))]]}],
         "coefficient a 10890-character value in product [e1, e1] must be")],
        ids=["duplicate-product", "float-coefficient", "malformed-value", "list-coefficient"])
    def test_declared_long_label_and_list_coefficient(self, products, shown, tmp_path, capsys):
        doc = {"name": "long", "even_basis": ["e1", self.LONG], "odd_basis": [],
               "products": products}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2 and out == ""
        assert shown in err and len(err.encode()) < 200


def fresh_python(code: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SUPERALG_SEED", None)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestColdStart:
    """A fresh CLI process runs only the modules its subcommand calls."""

    def probe(self, tmp_path, *argv):
        proc = fresh_python(PROBE, *argv, cwd=tmp_path)
        return json.loads(proc.stderr.splitlines()[-1])

    def test_import_registers_the_deferred_modules_without_running_them(
            self, tmp_path):
        registered, executed, _ = self.probe(tmp_path)
        assert executed == BASE
        assert registered == sorted(BASE + ["superalg.derivations",
                                            "superalg.families",
                                            "superalg.verify"])

    @pytest.mark.parametrize("argv, extra", [
        (["family", "L", "--n", "4", "-o", "l4.json"], ["superalg.families"]),
        (["check", "h5.json"], []),
        (["series", "h5.json"], []),
        (["annihilator", "h5.json"], []),
        (["charseq", "h5.json"], []),
        (["derivations", "h5.json"], ["superalg.derivations"]),
        (["invariants", "h5.json"], ["superalg.derivations"]),
    ])
    def test_each_subcommand_runs_only_the_modules_it_calls(self, tmp_path,
                                                            argv, extra):
        assert main(["family", "H", "--n", "5", "--zeros",
                     "-o", str(tmp_path / "h5.json")]) == 0
        _, executed, code = self.probe(tmp_path, *argv)
        assert code == 0
        assert executed == sorted(BASE + extra)

    @pytest.mark.parametrize("module", ["superalg.cli", "superalg.verify"])
    def test_import_loads_no_code_introspection_module(self, tmp_path, module):
        # `dataclasses` alone would bring in `inspect`, `ast`, `dis` and
        # `tokenize`, about 13 ms of every cold start.
        proc = fresh_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}))\n",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_package_reexports_of_families_resolve_on_first_access(self,
                                                                   tmp_path):
        proc = fresh_python(
            "import sys, superalg\n"
            "assert 'superalg.families' not in sys.modules\n"
            "from superalg import FAMILY_IDS, build\n"
            "assert superalg.FAMILY_IDS is FAMILY_IDS and 'L' in FAMILY_IDS\n"
            "assert build('L', 3).name == 'L(n=3)'\n"
            "try:\n"
            "    superalg.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestClosedStdout:
    def test_reader_closing_the_pipe_ends_quietly_with_status_141(self, tmp_path):
        # `superalg derivations l30.json | head -c 20`: the 1.4 MB of output
        # overflows the pipe, so the write after the reader has gone fails.
        assert main(["family", "L", "--n", "30", "--zeros",
                     "-o", str(tmp_path / "l30.json")]) == 0
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "superalg.cli", "derivations", "l30.json"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = proc.stdout.read(20)
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert head.startswith(b"{")
        assert stderr == b""
        assert code == 141


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this platform")


@needs_dev_full
class TestWriteErrors:
    """A write that fails (here: to the always-full device) ends in one
    error line and status 2, whether it was to a file or to stdout."""

    @pytest.mark.parametrize("argv", [
        ["family", "L", "--n", "5", "-o", "/dev/full"],
        ["verify", "--claims", "NILP-L", "--report", "/dev/full"]], ids=["output", "report"])
    def test_full_output_file_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: cannot write output: No space left on device\n"

    # The catalog fills stdout's buffer, so a write fails inside `print`; the
    # small SDF fails only at the final flush and is still held after it.
    @pytest.mark.parametrize("argv", [["catalog"], ["family", "N2M", "--m", "3"]],
                             ids=["catalog", "small-sdf"])
    def test_full_stdout_exits_2_and_leaves_nothing_to_flush(self, argv, capsys,
                                                             monkeypatch):
        full = open("/dev/full", "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", full)
        code = main(argv)
        monkeypatch.undo()
        full.close()   # as the flush at exit: it must not fail
        assert code == 2
        assert capsys.readouterr().err == "error: cannot write output: No space left on device\n"
