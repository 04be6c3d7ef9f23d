"""Catalog construction, domains, determinism, and the errata ledger."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

from superalg import (CORRECTED, FAMILY_IDS, VERBATIM, build, errata_for,
                      errata_ledger, families, family_info, list_families,
                      nilradical_spec, parameter_names)
from superalg.core import (GradedVector, check_leibniz, check_lie, nilindex,
                           sdf_dump, sdf_dumps)
from superalg.errors import InputError
from superalg.exactmath import Polynomial
from superalg.families import (_REGISTRY, MAX_SIZE, FamilyInfo, shared_builds, sizes,
                               zero_filled)

from oracles import product, valued_table_by_text


def zeros(fid: str, size: int) -> dict[str, int]:
    return {p: 0 for p in parameter_names(fid, size)}


class TestCatalog:
    def test_catalog_lists_every_family(self):
        catalog = list_families()
        assert [entry["id"] for entry in catalog] == list(FAMILY_IDS)
        # The id enumeration has 34 members (5 nilpotent + 29 solvable).
        assert len(catalog) == 34

    def test_structural_default_is_one_shared_immutable_empty_map(self):
        # A NamedTuple default is one object that every record shares.
        plain, other = family_info("L"), family_info("M")
        assert plain.structural == {} and plain.structural is other.structural
        with pytest.raises(TypeError):
            plain.structural["t"] = 4
        assert dict(family_info("SH1").structural) == {"t": 4}

    def test_odd_size_constraint_is_published(self):
        by_id = {e["id"]: e for e in list_families()}
        assert "n odd" in by_id["SH3"]["domain"]
        assert "m odd" in by_id["N2M"]["domain"]

    def test_restricted_parameter_of_the_square_carrier(self):
        by_id = {e["id"]: e for e in list_families()}
        assert any("{0, 1}" in p for p in by_id["H5"]["parameters"])

    def test_gamma_naming_mismatch_is_flagged(self):
        by_id = {e["id"]: e for e in list_families()}
        assert any("gamma" in note for note in by_id["G5"]["notes"])

    def test_nilradical_and_codimension_metadata(self):
        by_id = {e["id"]: e for e in list_families()}
        assert by_id["SH1"]["nilradical"] == "H"
        assert by_id["MH2"]["codimension"] == 2
        assert by_id["SL"]["codimension"] == 1


# Each restricted family: (size, [(values, exact InputError message)],
# [values that must build]).
_PAIR_RULE = "G4: (gamma, b) must be one of (0,1), (1,0), (1,1)"
_PAIR_TOGETHER = "G4: gamma and b must be instantiated together"
VALUE_DOMAINS = {
    "H1": (4, [({"b": 0}, "H1: b must be nonzero")], [{"b": 1}, {"b": -2}]),
    "G1": (4, [({"b": 0}, "G1: b must be nonzero")], [{"b": 1}, {"b": -2}]),
    "SH3": (5, [({"gamma": 0}, "SH3: gamma must be nonzero")],
            [{"gamma": 1}, {"gamma": Fraction(-1, 2)}]),
    "SG2": (5, [({"gamma": 0}, "SG2: gamma must be nonzero")],
            [{"gamma": 1}, {"gamma": Fraction(-1, 2)}]),
    "H5": (4, [({"gamma": v}, "H5: gamma must lie in {0, 1}")
               for v in (2, -1, Fraction(1, 2))],
           [{"gamma": 0}, {"gamma": 1}, {"a2": 1}, {"a2": 1, "gamma": 1}]),
    "G4": (4, [({"gamma": 0, "b": 0}, _PAIR_RULE), ({"gamma": 2, "b": 1}, _PAIR_RULE),
               ({"gamma": 1}, _PAIR_TOGETHER), ({"b": 1}, _PAIR_TOGETHER)],
           [{"gamma": 0, "b": 1}, {"gamma": 1, "b": 0}, {"gamma": 1, "b": 1}, {}]),
}


class TestDomains:
    def test_even_m_rejected(self):
        with pytest.raises(InputError, match="odd"):
            build("N2M", 4)

    def test_too_small_size_rejected(self):
        with pytest.raises(InputError):
            build("L", 2)

    def test_structural_t_required_and_bounded(self):
        with pytest.raises(InputError, match="t"):
            build("SH1", 5)
        with pytest.raises(InputError, match="t"):
            build("SH1", 5, {"t": 3})
        with pytest.raises(InputError, match="t"):
            build("SH1", 5, {"t": 6})

    def test_nonzero_constraints(self):
        with pytest.raises(InputError, match="b"):
            build("H1", 4, {"b": 0})
        with pytest.raises(InputError, match="gamma"):
            build("SH3", 5, {"gamma": 0})

    def test_square_parameter_domain(self):
        with pytest.raises(InputError, match="gamma"):
            build("H5", 4, {**{f"a{k}": 0 for k in range(2, 5)}, "gamma": 2})

    def test_pair_domain_of_the_gamma_b_family(self):
        with pytest.raises(InputError):
            build("G4", 4, {"gamma": 0, "b": 0})
        build("G4", 4, {"gamma": 1, "b": 1})

    @pytest.mark.parametrize("fid", sorted(VALUE_DOMAINS))
    def test_value_domain_rejects_with_its_message(self, fid):
        size, forbidden, allowed = VALUE_DOMAINS[fid]
        for values, message in forbidden:
            with pytest.raises(InputError) as exc:
                build(fid, size, values)
            assert str(exc.value) == message, values
        for values in allowed:
            build(fid, size, values)

    def test_every_value_domain_is_covered(self):
        assert set(VALUE_DOMAINS) == \
            {fid for fid in FAMILY_IDS if family_info(fid).value_domain}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InputError, match="unknown parameter"):
            build("L", 4, {"beta4": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            build("XX", 4)

    @pytest.mark.parametrize("raw, message", [
        ("abc", "parameter gamma: not a rational literal: 'abc'"),
        ("1/0", "parameter gamma: zero denominator in '1/0'"),
        (None, "parameter gamma: None is not exact"),
        (0.1, "parameter gamma: 0.1 is not exact"),
        (True, "parameter gamma: True is not exact")])
    def test_inexact_or_malformed_values_are_input_errors(self, raw, message):
        with pytest.raises(InputError, match=re.escape(message)):
            build("H", 5, {"gamma": raw})
        with pytest.raises(InputError, match=re.escape(message)):
            build("H", 5).instantiate({"gamma": raw})

    def test_equal_values_of_each_exact_type_build_equal_tables(self):
        values = (1, Fraction(1), "1", " 2/2 ")
        assert len({sdf_dumps(build("H", 5, {"gamma": v})) for v in values}) == 1
        assert len({sdf_dumps(build("H", 5).instantiate({"gamma": v}))
                    for v in values}) == 1

    def test_sizes_keeps_the_domain(self):
        assert sizes("N2M", 3, 9) == [3, 5, 7, 9]
        assert sizes("SH3", 3, 8) == [5, 7]
        assert sizes("SH1", 3, 5) == [4, 5]
        assert sizes("L", 3, 2) == []

    def test_sizes_start_at_the_family_minimum(self, monkeypatch):
        # A range that starts far below the domain costs nothing below it.
        tested = []
        admits = FamilyInfo.admits
        monkeypatch.setattr(FamilyInfo, "admits",
                            lambda info, size: tested.append(size) or admits(info, size))
        assert sizes("SH3", -10 ** 6, 8) == [5, 7]
        assert tested == [5, 6, 7, 8]
        assert sizes("L", -10 ** 4000, 5) == [3, 4, 5]

    def test_parameter_names_reject_out_of_domain_sizes(self):
        with pytest.raises(InputError, match="m must be >= 3"):
            parameter_names("M4", 2)
        with pytest.raises(InputError, match="odd"):
            parameter_names("SG2", 6)

    def test_size_cap_is_named_and_checked_before_any_table_is_built(self):
        over = MAX_SIZE + 1
        limit = re.escape(f"must be <= MAX_SIZE = {MAX_SIZE} (got {over})")
        with pytest.raises(InputError, match=rf"L: n {limit}"):
            build("L", over)
        with pytest.raises(InputError, match=rf"M4: m {limit}"):
            parameter_names("M4", over)
        with pytest.raises(InputError, match=rf"H: n {limit}"):
            errata_for("H", over)
        with pytest.raises(InputError, match=rf"errata sizes {limit}"):
            errata_ledger([3, over])


class TestConstructionFacts:
    def test_smallest_filiform_odd_instance(self):
        a = build("N2M", 3)
        assert (a.n_even, a.n_odd) == (2, 3)
        assert len(a.structure) == 7

    def test_extension_product_of_the_single_beta_family(self):
        a = build("SH1", 5, {"t": 4})
        assert (a.n_even, a.n_odd) == (6, 5)
        x, e2 = GradedVector.basis(a, "x"), GradedVector.basis(a, "e2")
        got = product(a, x, e2)
        expected = [0] * a.dim
        expected[a.index("e2")], expected[a.index("e3")] = -4, -2
        assert got == GradedVector.from_coords(expected)

    def test_generator_order_is_fixed(self):
        a = build("MH1", 4)
        assert a.even_basis == ("e1", "e2", "e3", "e4", "x1", "x2")
        a = build("M5", 3)
        assert a.even_basis == ("e1", "e2", "x1", "x2")

    def test_determinism_bit_identical(self):
        first = sdf_dumps(build("H", 5, {"beta4": 1, "delta": 0, "beta5": 0,
                                         "gamma": 0}))
        second = sdf_dumps(build("H", 5, {"gamma": 0, "beta5": 0, "delta": 0,
                                          "beta4": 1}))
        assert first == second

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_parameter_names_are_the_built_parameters(self, fid):
        # Sizes reach past 9 so that sorting puts a10 before a2 and b10 before b2.
        structural = {"t": 4} if family_info(fid).structural else None
        for size in sizes(fid, 3, 15):
            assert parameter_names(fid, size) == \
                build(fid, size, structural).parameters, f"{fid} at size {size}"

    def test_a_symbolic_cell_holds_a_polynomial_only_where_a_parameter_occurs(self):
        for fid in FAMILY_IDS:
            for size in sizes(fid, 3, 8):
                for mode in (CORRECTED, VERBATIM):
                    algebra = build(fid, size, _structural(fid), mode)
                    for terms in algebra.structure.values():
                        for _, c in terms:
                            assert type(c) in (int, Fraction) or (
                                isinstance(c, Polynomial) and c.used_variables()), \
                                f"{fid} at size {size} ({mode}): {c!r}"

    def test_partial_instantiation_keeps_other_parameters(self):
        a = build("H", 5, {"beta4": 1})
        assert "beta4" not in a.parameters
        assert "delta" in a.parameters

    def test_every_catalog_table_is_pinned(self):
        # Every family at sizes 3..12, every structural t, both modes: the
        # symbolic tables themselves, byte for byte.
        digest = hashlib.sha256()
        count = 0
        for fid in FAMILY_IDS:
            for size in sizes(fid, 3, 12):
                structurals = ([{"t": t} for t in range(4, size + 1)]
                               if "t" in family_info(fid).structural else [{}])
                for structural in structurals:
                    for mode in (CORRECTED, VERBATIM):
                        algebra = build(fid, size, structural, mode)
                        digest.update(sdf_dumps(algebra).encode())
                        count += 1
        assert count == 736
        assert digest.hexdigest() == \
            "80c553368c33cee92eb5e92c5b8bb26b55d902a6b075f74ed4350d8436dd968d"


def _valued_points(fid: str, size: int, rng: random.Random):
    """Full, domain-valid value sets: each `samples` entry over zeros, then
    one seeded point of non-integral rationals, with a sample's values for
    a value domain that no such point admits."""
    info = family_info(fid)
    for sample in info.samples(size):
        yield {**zeros(fid, size), **info.structural, **sample}
    point = {p: Fraction(3 * rng.randint(-4, 4) + 1, rng.choice((3, 6)))
             for p in parameter_names(fid, size)}
    if info.value_domain:
        names, admits, _ = info.value_domain
        if not admits(*(point[name] for name in names)):
            sample = next(s for s in info.samples(size) if set(names) <= set(s))
            point.update({name: sample[name] for name in names})
    yield {**point, **info.structural}


class TestValuedBuilds:
    """A fully valued `build` instantiates the symbolic table into constants;
    the text oracle evaluates the symbolic SDF on its own as the check."""

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_valued_tables_match_the_text_oracle_and_instantiate(self, fid):
        rng = random.Random(fid)
        info = family_info(fid)
        for size in sizes(fid, 3, 8):
            for values in _valued_points(fid, size, rng):
                structural = {k: values.pop(k) for k in info.structural}
                symbolic = build(fid, size, structural)
                valued = build(fid, size, {**structural, **values})
                lab = valued.labels
                assert not valued.parameters
                assert all(type(c) is int or c.denominator != 1
                           for terms in valued.structure.values() for _, c in terms)
                table = {(lab[i], lab[j]): {lab[k]: c for k, c in terms}
                         for (i, j), terms in valued.structure.items()}
                assert table == valued_table_by_text(sdf_dump(symbolic), values)
                instantiated = symbolic.instantiate(values)
                assert valued == instantiated
                # The names differ by design: a valued build names its values.
                assert ({**sdf_dump(valued), "name": None}
                        == {**sdf_dump(instantiated), "name": None})

    def test_the_text_oracle_reads_symbolic_coefficients(self):
        # Guards the oracle test above against a table with no parameter text.
        doc = sdf_dump(build("M2", 5))
        values = {"alpha": Fraction(2, 3)}
        assert any("alpha" in text for entry in doc["products"]
                   for _, text in entry["value"])
        assert valued_table_by_text(doc, values)[("y1", "x")] == {
            "y1": Fraction(1, 3) - 2}
        assert valued_table_by_text(
            {"products": [{"left": "a", "right": "b",
                           "value": [["c", "-1/2*p^2 + 3*p*q - 1"], ["d", "p - p"]]}]},
            {"p": Fraction(2), "q": Fraction(1, 3)}) == {("a", "b"): {"c": -1}}


class TestInstantiate:
    def test_each_shared_polynomial_is_evaluated_once(self, monkeypatch):
        """Every family at 3..6 in both modes, fully and partly valued with
        the first parameter 0: the table equals the cell-by-cell evaluation
        (or substitution) of the symbolic one, zero cells dropped, and each
        distinct Polynomial object of the table is evaluated exactly once."""
        calls = []
        for method in ("evaluate", "substitute"):
            def counted(self, values, _at=getattr(Polynomial, method)):
                calls.append(id(self))
                return _at(self, values)
            monkeypatch.setattr(Polynomial, method, counted)
        cells = distinct = emptied = 0
        for fid in FAMILY_IDS:
            info = family_info(fid)
            for size, mode in ((s, m) for s in sizes(fid, 3, 6) for m in (CORRECTED, VERBATIM)):
                symbolic = build(fid, size, dict(info.structural), mode)
                names = symbolic.parameters
                point = {p: Fraction(i, i + 2) for i, p in enumerate(names)}
                for values in (point, dict(list(point.items())[:len(names) // 2])):
                    polys = [c for terms in symbolic.structure.values() for _, c in terms
                             if isinstance(c, Polynomial)]
                    calls.clear()
                    table = symbolic.instantiate(values).structure
                    assert sorted(calls) == sorted({id(c) for c in polys}), (fid, size)
                    distinct += len(calls)
                    full = len(values) == len(names)
                    expected = {}
                    for key, terms in symbolic.structure.items():
                        cell = []
                        for k, c in terms:
                            if isinstance(c, Polynomial):
                                c = c.evaluate(values) if full else c.substitute(values)
                                if isinstance(c, Polynomial) and c.is_constant():
                                    c = c.as_constant()
                            if c:
                                cell.append((k, c))
                        if cell:
                            expected[key] = tuple(cell)
                    assert table == expected, (fid, size, mode, values)
                    assert all(isinstance(c, Polynomial) or type(c) is int
                               or c.denominator != 1 for terms in table.values()
                               for _, c in terms)
                    cells += len(polys)
                    emptied += len(symbolic.structure) - len(table)
        # The sharing is real, and some cell goes with the value 0.
        assert distinct < cells and emptied > 0, (distinct, cells, emptied)


class TestSharedBuilds:
    def test_value_free_builds_are_shared_only_inside_a_scope(self):
        with shared_builds() as shared:
            table = build("SH1", 5, {"t": 4})
            assert build("SH1", 5, {"t": 4}) is table
            assert build("SH1", 5, {"t": 5}) is not table
            assert build("SH1", 5, {"t": 4}, VERBATIM) is not table
            assert build("H", 5) is build("H", 5, {})
            # A build with values, even all of them zero, is never shared.
            valued = build("H", 5, {"gamma": 1})
            assert build("H", 5, {"gamma": 1}) is not valued
            assert build("H", 5, zeros("H", 5)) is not build("H", 5, zeros("H", 5))
            assert len(shared) == 4
        assert build("SH1", 5, {"t": 4}) is not table
        assert build("SH1", 5, {"t": 4}) is not build("SH1", 5, {"t": 4})
        assert build("SH1", 5, {"t": 4}) == table

    def test_one_table_call_per_key_however_many_valued_builds(self, monkeypatch):
        info = family_info("H")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return info.table(*args, **kwargs)

        monkeypatch.setitem(_REGISTRY, "H", info._replace(table=counted))
        with shared_builds():
            for values in ({"gamma": 1}, {"beta4": 1, "delta": 1}, zeros("H", 5),
                           {"gamma": Fraction(2, 3)}, {}):
                build("H", 5, values)
            assert calls == [(5, CORRECTED)]
            build("H", 5, {"gamma": 1}, VERBATIM)
            build("H", 6, {"gamma": 1})
            assert calls == [(5, CORRECTED), (5, VERBATIM), (6, CORRECTED)]
        build("H", 5, {"gamma": 1})
        build("H", 5, {"gamma": 1})
        assert len(calls) == 5

    def test_valued_builds_leave_the_shared_table_as_it_was(self):
        with shared_builds():
            table = build("G", 6)
            name, parameters = table.name, table.parameters
            structure = dict(table.structure)
            text = sdf_dumps(table)
            valued = build("G", 6, {"beta4": Fraction(1, 2), "gamma": 3})
            full = build("G", 6, {**zeros("G", 6), "beta5": Fraction(-2, 3)})
            assert build("G", 6) is table
        assert valued.name == "G(n=6, beta4=1/2, gamma=3)"
        assert full.name == "G(n=6, beta4=0, beta5=-2/3, beta6=0, gamma=0)"
        assert valued.parameters == ("beta5", "beta6") and not full.parameters
        assert (table.name, table.parameters) == (name, parameters) == \
            ("G(n=6)", ("beta4", "beta5", "beta6", "gamma"))
        assert table.structure == structure and sdf_dumps(table) == text

    @pytest.mark.parametrize("fid, size, values", [
        ("H", 5, {"beta4": 1}), ("H1", 5, {"b": Fraction(-1, 3)}),
        ("G", 6, {"beta4": Fraction(1, 2), "beta5": Fraction(-2, 3),
                  "beta6": Fraction(3, 7), "gamma": Fraction(5, 4)})])
    def test_valued_builds_inside_and_outside_a_scope_agree(self, fid, size, values):
        outside = sdf_dumps(build(fid, size, values))
        with shared_builds():
            build(fid, size)
            assert sdf_dumps(build(fid, size, values)) == outside

    def test_scopes_nest_and_close_on_error(self):
        with shared_builds():
            outer = build("L", 4)
            with shared_builds():
                assert build("L", 4) is not outer
            assert build("L", 4) is outer
        with pytest.raises(InputError):
            with shared_builds():
                build("L", 4)
                build("L", 2)
        assert build("L", 4) is not build("L", 4)

    @pytest.mark.parametrize("check", [check_leibniz, check_lie],
                             ids=["leibniz", "lie"])
    def test_leibniz_residuals_are_cached_and_handed_out_as_new_lists(self, check):
        verbatim = build("M", 5, None, VERBATIM)
        first = check(verbatim)
        assert first
        expected = list(first)
        first.clear()
        assert check(verbatim) == expected
        second = check(verbatim)
        second.append(second[0])
        second.reverse()
        assert check(verbatim) == expected
        assert check(verbatim) is not check(verbatim)


def _structural(fid):
    return {"t": 4} if "t" in family_info(fid).structural else None


class TestIdentities:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_corrected_mode_is_leibniz_symbolically(self, fid):
        for size in sizes(fid, 3, 6):
            algebra = build(fid, size, _structural(fid), CORRECTED)
            assert check_leibniz(algebra) == [], f"{fid} at size {size}"

    @pytest.mark.parametrize("fid", ["N2M", "M2", "M3", "M4", "M5"])
    def test_lie_members_satisfy_both_identities(self, fid):
        for size in (3, 5):
            algebra = build(fid, size)
            assert check_lie(algebra) == []

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_lie_flag_marks_exactly_the_lie_tables(self, fid):
        for size in sizes(fid, 3, 6):
            lie = check_lie(build(fid, size, _structural(fid)))
            assert (lie == []) == family_info(fid).lie, f"{fid} at size {size}"

    def test_the_non_lie_member_fails_only_on_its_square(self):
        # The first solvable extension is deliberately non-Lie: the square of
        # its extension generator is e2.  Exactly one antisymmetry residual.
        residuals = check_lie(build("M1", 5))
        assert [(r.identity, r.where) for r in residuals] == \
            [("antisymmetry", ("x", "x"))]

    def test_nilindex_equals_total_dimension_for_nilpotent_families(self):
        for fid in ("N2M", "L", "G", "M", "H"):
            for size in sizes(fid, 3, 5):
                a = build(fid, size, zeros(fid, size))
                assert nilindex(a) == a.dim


class TestErrata:
    def test_every_entry_reproduces_its_residual(self):
        for entry in errata_ledger(sizes=(3, 4, 5, 6)):
            params = {"t": 4} if entry.family in ("SG1",) else None
            verbatim = build(entry.family, entry.size, params, VERBATIM)
            corrected = build(entry.family, entry.size, params, CORRECTED)
            sites = {tuple(r.where) for r in check_leibniz(verbatim)}
            assert tuple(entry.residual_site) in sites, entry
            assert check_leibniz(corrected) == [], entry
            assert entry.verbatim != entry.corrected

    def test_families_without_entries_pass_verbatim(self):
        for fid in FAMILY_IDS:
            for size in sizes(fid, 3, 5):
                entries = errata_for(fid, size, _structural(fid))
                if not entries:
                    algebra = build(fid, size, _structural(fid), VERBATIM)
                    assert check_leibniz(algebra) == [], f"{fid} size {size}"

    def test_duplicate_subscript_row_entry(self):
        entries = {e.product: e for e in errata_for("M", 6)}
        entry = entries[("y2", "e2")]
        assert ("y4", "alpha4 + alpha5") in entry.verbatim
        assert ("y5", "alpha5") in entry.corrected
        assert entry.residual_site == ("y1", "e1", "e2")

    def test_top_coefficient_entry_of_the_n_n_alpha_family(self):
        entries = {e.product: e for e in errata_for("M", 5)}
        entry = entries[("e2", "e2")]
        assert ("e5", "alpha5") in entry.verbatim
        assert ("e5", "theta") in entry.corrected

    def test_square_of_the_extension_generator_entry(self):
        entries = {e.product: e for e in errata_for("H5", 4)}
        entry = entries[("x", "x")]
        assert entry.residual_site == ("x", "x", "x")
        assert entry.corrected == ()

    def test_gamma_product_entry_of_the_n_n_beta_family(self):
        entries = {e.product: e for e in errata_for("H", 5)}
        entry = entries[("e2", "e2")]
        assert entry.corrected == ()
        assert entry.residual_site == ("e2", "e2", "y1")

    def test_missing_odd_row_entries(self):
        entries = errata_for("G5", 5)
        cells = {e.product for e in entries}
        assert ("y1", "x") in cells and ("y2", "x") in cells
        sg1 = {e.product for e in errata_for("SG1", 5, {"t": 4})}
        assert ("y1", "e2") in sg1

    def test_weight_slope_entries_of_the_codim_two_extension(self):
        cells = {e.product for e in errata_for("M5", 5)}
        assert ("y2", "x1") in cells and ("x1", "y2") in cells
        assert ("y1", "x1") not in cells  # weight (1-i) and (i-1) agree at i=1

    def test_odd_symmetry_entries(self):
        cells = {e.product for e in errata_for("M1", 5)}
        assert ("y1", "y5") in cells and ("y2", "y4") in cells
        assert ("y3", "y3") not in cells  # diagonal: leading assignment wins


class TestEqualTables:
    """Corrected tables that equal another table of the catalog: the
    equalities that the DIST claims cannot tell apart."""

    @staticmethod
    def differing(a, b) -> set[tuple[str, str]]:
        assert a.labels == b.labels
        lab = a.labels
        return {(lab[i], lab[j]) for i, j in set(a.structure) | set(b.structure)
                if a.structure.get((i, j)) != b.structure.get((i, j))}

    def test_each_equality_holds(self):
        for n in (5, 7, 9, 11):
            t = {"t": (n + 3) // 2}
            assert self.differing(build("SH3", n, {"gamma": 1}), build("SH1", n, t)) == set()
            assert self.differing(build("SG2", n, {"gamma": 1}),
                                  build("SG1", n, t)) == {("e2", "e2")}
        for n in range(3, 9):
            assert self.differing(build("H5", n, {"gamma": 0}),
                                  build("H5", n, {"gamma": 1})) == set()
        assert self.differing(build("H1", 3, {"b": 2}), build("SH4", 3)) == set()


class TestNilradicalSpecs:
    def test_split_nilradicals(self):
        fid, values = nilradical_spec("SL", 5)
        assert fid == "L" and all(v == 0 for v in values.values())
        fid, _ = nilradical_spec("MH2", 4)
        assert fid == "H"

    def test_single_beta_nilradical(self):
        _, values = nilradical_spec("SH1", 6, {"t": 5})
        assert values["beta5"] == 1
        assert values["beta4"] == 0

    def test_middle_beta_with_gamma(self):
        _, values = nilradical_spec("SH3", 7, {"gamma": Fraction(2)})
        assert values["beta5"] == 1 and values["gamma"] == Fraction(2)

    def test_every_spec_is_the_hand_filled_nilradical(self):
        for fid in FAMILY_IDS:
            info = family_info(fid)
            if info.kind != "solvable":
                continue
            for size in sizes(fid, 3, 8):
                for sample in info.samples(size):
                    params = {**info.structural, **sample}
                    hand = zeros(info.nilradical, size)
                    hand.update(info.nilradical_params(size, params))
                    spec = nilradical_spec(fid, size, params)
                    assert spec == (info.nilradical, hand), (fid, size, sample)
                    assert list(spec[1]) == list(hand)


class TestZeroFilled:
    def test_given_values_over_zeros_in_declaration_order(self):
        names = parameter_names("H", 6)
        filled = zero_filled("H", 6, {"delta": Fraction(1, 2), "beta4": "3"})
        assert list(filled) == list(names)
        assert filled == {**zeros("H", 6), "delta": Fraction(1, 2), "beta4": "3"}

    def test_structural_t_passes_through(self):
        filled = zero_filled("SH1", 6, {"t": 5})
        assert filled == {**zeros("SH1", 6), "t": 5}
        assert "t" not in parameter_names("SH1", 6)

    def test_parameter_names_are_what_build_declares_at_every_t(self):
        for fid in FAMILY_IDS:
            structural = ([{"t": t} for t in range(4, 13)]
                          if "t" in family_info(fid).structural else [{}])
            for size in sizes(fid, 3, 12):
                for values in structural:
                    if values.get("t", 4) <= size:
                        assert parameter_names(fid, size) == \
                            build(fid, size, values).parameters, (fid, size, values)

    def test_parameter_names_make_no_algebra_and_fill_no_scope(self, monkeypatch):
        made = []
        monkeypatch.setattr(families, "make_superalgebra",
                            lambda *args: made.append(args))
        parameter_names.cache_clear()
        try:
            with shared_builds() as shared:
                for fid in FAMILY_IDS:
                    parameter_names(fid, sizes(fid, 3, 12)[-1])
            assert not made and not shared
        finally:
            parameter_names.cache_clear()

    def test_an_unknown_name_is_left_for_build_to_reject(self):
        filled = zero_filled("L", 5, {"x": 1})
        assert filled["x"] == 1
        with pytest.raises(InputError, match=r"unknown parameter 'x' \(expected one of: "):
            build("L", 5, filled)
