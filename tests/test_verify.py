"""Claim pipeline: reports, determinism, and the audit guarantee."""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import superalg
from superalg import build, errata_ledger, families, family_info
from superalg.core import (EVEN, GradedVector, check_leibniz, fingerprint,
                           sdf_dumps)
from superalg.derivations import (derivation_space, extendability,
                                  max_nil_independent)
from superalg.errors import InputError, SuperalgError
from superalg.families import MAX_SIZE
from superalg.verify import (CheckResult, ClaimReport, audit_errata, claim_ids,
                             corollary_patterns, pairwise_distinguish, render_text, run_claims,
                             verify_corollary, verify_derivation_proposition,
                             verify_nilpotent_family, verify_solvable_family)

from oracles import identity


def failing(report):
    return [(c.name, c.detail) for c in report.checks if c.status != "pass"]


class TestRecords:
    def test_record_fields_are_read_only(self):
        space = derivation_space(build("L", 4, families.zero_filled("L", 4, {})), EVEN)
        # A symbolic table that fails the Leibniz identity gives a Residual.
        residual = check_leibniz(build("M", 4, mode=families.VERBATIM))[0]
        records = [GradedVector.from_coords([1, 0]), residual,
                   fingerprint(build("N2M", 3)), identity(2), space,
                   max_nil_independent(space), extendability("L", 4),
                   family_info("L"), errata_ledger([4])[0], CheckResult("x", "pass")]
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)

    def test_claim_report_checks_serialise_as_ordered_dicts(self):
        report = ClaimReport("X-1", "subject")
        report.ok("first", "fine")
        report.bad("second", "witness")
        checks = report.as_dict()["checks"]
        assert checks == [{"name": "first", "status": "pass", "detail": "fine"},
                          {"name": "second", "status": "fail", "detail": "witness"}]
        assert [list(c) for c in checks] == [["name", "status", "detail"]] * 2
        assert report.status == "fail"


class TestNilpotentClaims:
    def test_zero_instance_passes(self):
        report = verify_nilpotent_family("L", 6)
        assert report.status == "pass", failing(report)

    def test_filiform_odd_nilindex(self):
        report = verify_nilpotent_family("N2M", 5)
        assert report.status == "pass", failing(report)
        detail = next(c.detail for c in report.checks if c.name == "nilindex")
        assert "7" in detail

    def test_nonzero_instance(self):
        params = {p: 0 for p in
                  __import__("superalg").parameter_names("H", 5)}
        params["delta"] = 1
        report = verify_nilpotent_family("H", 5, params)
        assert report.status == "pass", failing(report)

    def test_every_default_charseq_is_certified(self):
        reports = run_claims([c for c in claim_ids() if c.startswith("NILP-")]).claims
        details = [c.detail for r in reports for c in r.checks if c.name == "charseq"]
        assert len(details) == 43
        assert all(d.endswith("(certified)") for d in details), details


class TestSolvableClaims:
    def test_split_alpha_extension(self):
        report = verify_solvable_family("SL", 5)
        assert report.status == "pass", failing(report)
        names = [c.name for c in report.checks]
        assert "nilradical-structure-match" in names
        assert "codimension" in names

    def test_codim_two_extension(self):
        report = verify_solvable_family("MH2", 5)
        assert report.status == "pass", failing(report)

    def test_filiform_odd_extension(self):
        report = verify_solvable_family("M1", 3)
        assert report.status == "pass", failing(report)

    def test_beta_instance_extensions(self):
        for fid, size, params in (("SH1", 6, {"t": 5}), ("SH3", 5, {"gamma": 1}),
                                  ("SG2", 5, {"gamma": 1}), ("SH4", 4, {}),
                                  ("G4", 5, {"gamma": 1, "b": 1})):
            report = verify_solvable_family(fid, size, params)
            assert report.status == "pass", (fid, failing(report))

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError):
            verify_solvable_family("L", 4)
        with pytest.raises(InputError):
            verify_nilpotent_family("SL", 4)


class TestPropositionClaims:
    @pytest.mark.parametrize("pid,n", [("P-L", 6), ("P-M", 5), ("P-H", 5),
                                       ("P-G", 6)])
    def test_default_samples(self, pid, n):
        report = verify_derivation_proposition(pid, n)
        assert report.status == "pass", failing(report)

    def test_beta_constraint_sample(self):
        report = verify_derivation_proposition("P-H", 5, [{"beta4": 1}])
        assert report.status == "pass", failing(report)

    def test_weight_kill_sample(self):
        report = verify_derivation_proposition("P-M", 5, [{"tau": 1}])
        assert report.status == "pass", failing(report)

    def test_unspecified_parameters_are_zero_whatever_the_value_type(self):
        report = verify_derivation_proposition("P-L", 5, [{}, {"alpha4": 1}, {"theta": 2}])
        assert [c.name for c in report.checks] == [
            "template-equality[zeros]", "template-equality[alpha4=1]",
            "template-equality[theta=2]"]
        as_text = verify_derivation_proposition(
            "P-L", 5, [{"alpha5": "0"}, {"alpha4": "1"}, {"theta": "4/2"}])
        assert as_text.checks == report.checks

    def test_template_correction_note_present(self):
        report = verify_derivation_proposition("P-M", 4)
        assert any("template correction" in n for n in report.notes)


class TestCorollaryClaims:
    @pytest.mark.parametrize("cid,n", [("COR-L", 6), ("COR-M", 5),
                                       ("COR-H", 7), ("COR-H", 6),
                                       ("COR-G", 7), ("COR-G", 6)])
    def test_sweeps(self, cid, n):
        report = verify_corollary(cid, n)
        assert report.status == "pass", failing(report)

    def test_ids_are_cor_prefixed_or_bare(self):
        with pytest.raises(InputError, match="unknown corollary id 'C-L'"):
            verify_corollary("C-L", 5)
        bare = verify_corollary("H", 5)
        assert bare.claim_id == "COR-H" and bare.status == "pass", failing(bare)
        assert bare.checks[0].detail == \
            f"all {len(corollary_patterns('H', 5))} pattern verdicts match the table"


class TestDistinguish:
    def test_codim_two_pair_distinguished(self):
        report = pairwise_distinguish([("MH1", 5, {}), ("MH2", 5, {})])
        assert "all pairs distinguished" in report.checks[0].detail

    def test_identical_members_not_distinguished(self):
        report = pairwise_distinguish([("H3", 5, {}), ("H3", 5, {})])
        assert "not distinguished" in report.checks[0].detail

    def test_single_beta_vs_weight_family(self):
        report = pairwise_distinguish([("H1", 5, {"b": 1}), ("H2", 5, {"b": 1})])
        assert "all pairs distinguished" in report.checks[0].detail


class TestAudit:
    def test_families_with_errata(self):
        for fid, size, params in (("M", 6, None), ("H", 5, None),
                                  ("M5", 5, None), ("G5", 5, None),
                                  ("SG1", 5, {"t": 4}), ("H5", 4, None)):
            report = audit_errata(fid, size, params)
            assert report.status == "pass", (fid, failing(report))

    def test_families_without_errata(self):
        for fid, size in (("N2M", 5), ("L", 6), ("SL", 4), ("G", 5)):
            report = audit_errata(fid, size)
            assert report.status == "pass", (fid, failing(report))

    @pytest.mark.parametrize("fid, size, params, calls", [
        ("N2M", 5, None, 1), ("L", 6, None, 1), ("SL", 4, None, 1),
        ("M", 6, None, 2), ("SG1", 5, {"t": 4}, 2), ("H5", 4, None, 2)])
    def test_identity_checked_once_when_tables_are_equal(
            self, monkeypatch, fid, size, params, calls):
        import superalg.verify as verify
        from superalg.core import SuperAlgebra, check_leibniz

        counted = []

        def counting(algebra):
            counted.append(algebra.name)
            return check_leibniz(algebra)

        def strip(report):
            data = report.as_dict()
            data.pop("wall_time_s")
            return data

        monkeypatch.setattr(verify, "check_leibniz", counting)
        reused = audit_errata(fid, size, params)
        assert len(counted) == calls
        # Without the reuse: no two tables compare equal, so both are checked.
        monkeypatch.setattr(SuperAlgebra, "__eq__", lambda self, other: False)
        counted.clear()
        separate = audit_errata(fid, size, params)
        assert len(counted) == 2
        assert strip(reused) == strip(separate)
        assert reused.status == "pass"


class TestRunner:
    def test_selected_claims_and_range(self):
        report = run_claims(["COR-H"], (5, 6))
        assert report.all_ok
        assert {c.claim_id for c in report.claims} == {"COR-H"}
        assert len(report.claims) == 2  # n = 5 and n = 6

    def test_unknown_claim_rejected(self):
        with pytest.raises(InputError):
            run_claims(["NOPE"])

    def test_range_without_instances_is_an_input_error(self):
        with pytest.raises(InputError, match=r"size in 0\.\.2"):
            run_claims(["NILP-L"], (0, 2))
        with pytest.raises(InputError, match=r"size in 4\.\.4"):
            run_claims(["NILP-N2M", "AUDIT-N2M"], (4, 4))
        with pytest.raises(InputError, match=r"size in a 4002-character value\.\.2$"):
            run_claims(["NILP-L"], (-10 ** 4000, 2))

    def test_range_above_the_size_cap_is_rejected_before_any_claim_runs(self):
        with pytest.raises(InputError, match=f"ends above MAX_SIZE = {MAX_SIZE}"):
            run_claims(["NILP-L"], (3, MAX_SIZE + 1))

    def test_report_is_deterministic_and_serializable(self):
        a = run_claims(["NILP-N2M"], (3, 5))
        b = run_claims(["NILP-N2M"], (3, 5))
        da, db = a.as_dict(), b.as_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        for claim in da["claims"] + db["claims"]:
            claim.pop("wall_time_s")
        assert json.dumps(da) == json.dumps(db)

    def test_text_rendering(self):
        report = run_claims(["DIST-MH"])
        text = render_text(report)
        assert "DIST-MH" in text and "pass" in text

    def test_claim_catalog_contains_every_kind(self):
        ids = claim_ids()
        for prefix in ("NILP-", "P-", "COR-", "SOLV-", "DIST-", "AUDIT-"):
            assert any(cid.startswith(prefix) for cid in ids)

    def test_engine_version_is_the_package_version(self):
        report = run_claims(["DIST-MH"])
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
        assert report.engine_version == superalg.__version__ == declared
        assert report.as_dict()["engine_version"] == declared
        with pytest.raises(AttributeError):
            report.seed = 1

    def test_runner_times_each_report_within_the_run(self):
        report = run_claims(["NILP-L", "AUDIT-G"])
        times = [c.wall_time_s for c in report.claims]
        assert len(times) == 16 and all(t > 0 for t in times)
        assert sum(times) <= report.wall_time_s
        # A claim function called directly is not timed.
        assert verify_nilpotent_family("L", 3).wall_time_s == 0.0

    def test_runner_calls_the_claim_functions_through_the_module(self, monkeypatch):
        # perfbench/worker.py times its ops by rebinding the claim functions
        # on the module, so the runner must look each one up as it calls it.
        import superalg.verify as verify

        calls = []

        def counting(*args):
            calls.append(args[:2])
            return audit_errata(*args)

        monkeypatch.setattr(verify, "audit_errata", counting)
        report = run_claims(["AUDIT-L"], (3, 5))
        assert calls == [("L", 3), ("L", 4), ("L", 5)]
        assert [c.subject for c in report.claims] == [f"L(size={n})" for n in (3, 4, 5)]

    def test_default_sizes_of_each_claim_kind(self):
        kind_ranges = {"NILP": range(3, 8), "P": range(4, 7), "COR": range(5, 8),
                       "SOLV": range(3, 7), "DIST": range(5, 6), "AUDIT": range(3, 9)}
        sizes: dict[str, set[int]] = {}
        for claim in run_claims().claims:
            found = re.findall(r"\((?:n|m|size)=(\d+)", claim.subject)
            assert found, claim.subject
            sizes.setdefault(claim.claim_id, set()).update(map(int, found))
        assert list(sizes) == claim_ids()
        for cid, found in sizes.items():
            kind = cid.partition("-")[0]
            expected = {3, 5, 7} if cid == "NILP-N2M" else set(kind_ranges[kind])
            if kind in ("SOLV", "AUDIT"):  # some families skip small or even sizes
                assert found <= expected, cid
            else:
                assert found == expected, cid
        for kind, expected in kind_ranges.items():
            of_kind = [s for cid, s in sizes.items() if cid.startswith(kind + "-")]
            assert set().union(*of_kind) == set(expected), kind


def _strip(report):
    data = report.as_dict()
    data.pop("wall_time_s")
    return data


class TestSharedClaimBuilds:
    def test_claims_report_as_direct_calls_outside_any_scope(self):
        import superalg.verify as verify

        selected = ["SOLV-M1", "SOLV-SH1", "AUDIT-M", "AUDIT-SH3", "DIST-M"]
        direct = []
        for fid in ("M1", "SH1"):
            for size in families.sizes(fid, 3, 6):
                for sample in families.family_info(fid).samples(size):
                    direct.append(verify_solvable_family(fid, size, sample))
        for fid in ("M", "SH3"):
            for size in families.sizes(fid, 3, 8):
                direct.append(audit_errata(fid, size))
        direct.append(pairwise_distinguish(verify._DIST_GROUPS["DIST-M"](5), "DIST-M"))
        report = run_claims(selected)
        assert [_strip(c) for c in report.claims] == [_strip(c) for c in direct]
        assert report.all_ok

    def test_shared_tables_are_left_as_built(self, monkeypatch):
        # Every table a SOLV and AUDIT pass shared, with its cached Leibniz
        # residuals, still equals a fresh build of its key afterwards.
        scopes = []
        original = families.shared_builds

        @contextmanager
        def recording():
            with original() as shared:
                scopes.append(shared)
                yield shared

        monkeypatch.setattr(families, "shared_builds", recording)
        report = run_claims(["SOLV-M5", "SOLV-SH1", "SOLV-H5", "AUDIT-M",
                             "AUDIT-SG1"], (3, 6))
        assert report.all_ok
        assert len(scopes) == 5
        shared = [(key, table) for scope in scopes for key, table in scope.items()]
        assert len(shared) >= 20
        for (fid, size, mode, structural), table in shared:
            fresh = families.build(fid, size, dict(structural), mode)
            assert fresh is not table
            assert sdf_dumps(table) == sdf_dumps(fresh)
            assert list(map(str, check_leibniz(table))) == \
                list(map(str, check_leibniz(fresh)))

    def _no_scope_is_open(self):
        return families.build("M1", 3) is not families.build("M1", 3)

    def test_no_scope_stays_open_after_a_run(self, monkeypatch):
        import superalg.verify as verify

        run_claims(["SOLV-M1"], (3, 3))
        assert self._no_scope_is_open()

        def broken(*args, **kwargs):
            raise SuperalgError("broken claim")

        monkeypatch.setattr(verify, "verify_solvable_family", broken)
        report = run_claims(["SOLV-M1", "AUDIT-M1"], (3, 3))
        assert [c.subject for c in report.claims][0] == "internal error"
        assert self._no_scope_is_open()

        def crashing(*args, **kwargs):
            raise RuntimeError("not a SuperalgError")

        monkeypatch.setattr(verify, "verify_solvable_family", crashing)
        with pytest.raises(RuntimeError):
            run_claims(["SOLV-M1"], (3, 3))
        assert self._no_scope_is_open()
