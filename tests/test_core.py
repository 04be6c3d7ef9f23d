"""Data model and invariant computations of the graded algebra core."""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import (CORRECTED, FAMILY_IDS, VERBATIM, build, family_info,
                      parameter_names)
from superalg.core import (EVEN, MAX_BASIS, MAX_BOUND, MAX_PARAMETERS, MAX_SAMPLES,
                           ODD, GradedSubspace, GradedVector, SuperAlgebra,
                           char_sequence, charseq_bound, charseq_note,
                           check_leibniz, check_lie, derived_series, fingerprint,
                           is_nilpotent, is_solvable, least_grading,
                           lower_central_series, make_superalgebra, nilindex,
                           right_annihilator, right_mul_cells, sdf_dump, sdf_dumps,
                           sdf_load, sdf_loads, subalgebra, subspace_product)
from superalg.errors import InputError, NotNilpotentError
from superalg.exactmath import MAX_DEGREE, Polynomial, RatMatrix, nilpotent_jordan_type
from superalg.families import MAX_SIZE, sizes, zero_filled

from oracles import (brute_leibniz_residuals, brute_lie_residuals, change_basis,
                     charseq_by_enumeration, contains_subspace, contains_vector,
                     dense_basis, dense_derivation_kernel, dense_derived_series,
                     dense_lower_central_series, dense_part, dense_right_annihilator,
                     dense_rref, dense_subspace_product, identity, instance, mat_apply,
                     polynomial_leibniz_residuals, polynomial_lie_residuals, product,
                     random_graded_algebra, random_parity_change, smallest_instance,
                     span_dim, subspace_from_vectors)


def abelian(n0: int, n1: int) -> SuperAlgebra:
    return make_superalgebra(
        f"abelian({n0}|{n1})",
        [f"e{i}" for i in range(1, n0 + 1)],
        [f"y{i}" for i in range(1, n1 + 1)], [], {})


def zeros(fid: str, size: int) -> dict[str, int]:
    return {p: 0 for p in parameter_names(fid, size)}


def vec(algebra: SuperAlgebra, **coeffs) -> GradedVector:
    coords = [Fraction(0)] * algebra.dim
    for label, value in coeffs.items():
        coords[algebra.index(label)] = Fraction(value)
    return GradedVector(tuple(coords))


class TestConstruction:
    def test_grading_violation_rejected_with_product_named(self):
        with pytest.raises(InputError, match=r"\[e1, e1\]"):
            make_superalgebra("bad", ["e1"], ["y1"], [],
                              {("e1", "e1"): [("y1", 1)]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            make_superalgebra("bad", ["e1", "e1"], [], [], {})

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(InputError, match="duplicate parameter names"):
            make_superalgebra("bad", ["e1", "e2"], [], ["a", "a"],
                              {("e1", "e1"): [("e2", "a^2")]})

    def test_empty_even_part_rejected(self):
        with pytest.raises(InputError):
            make_superalgebra("bad", [], ["y1"], [], {})

    def test_zero_coefficients_not_stored(self):
        a = make_superalgebra("a", ["e1", "e2"], [], [],
                              {("e1", "e1"): [("e2", 0)]})
        assert a.structure == {}

    # Cells [e1, e1] in (e1, e2 | y1) given as (target, coefficient) terms,
    # and the canonical cell stored: merged by target, zero sums dropped,
    # grading checked after the merge (the y1 pair cancels).
    @pytest.mark.parametrize("terms, cell", [
        ([(1, 1), (1, 1)], ((1, 2),)),
        ([(1, 1), (1, -1)], ()),
        ([(2, 1), (1, 1), (2, -1), (1, 1)], ((1, 2),)),
    ], ids=["merged", "cancelled", "wrong-parity-cancelled"])
    def test_cells_are_stored_canonically(self, terms, cell):
        def cells(pairs):
            return tuple((k, Polynomial.const(c)) for k, c in pairs)
        a = SuperAlgebra("a", ["e1", "e2"], ["y1"], [], {(0, 0): cells(terms)})
        assert a.structure == ({(0, 0): cells(cell)} if cell else {})
        assert a == make_superalgebra("a", ["e1", "e2"], ["y1"], [], {
            ("e1", "e1"): [(a.labels[k], c) for k, c in terms]})

    def test_coefficient_over_other_variables_rejected(self):
        with pytest.raises(InputError, match=r"\[e1, e1\].*variables \(\)"):
            SuperAlgebra("a", ["e1", "e2"], [], ["p"],
                         {(0, 0): [(1, Polynomial.const(1))]})

    # A float is never read as its binary value, a bool is not an int here
    # (as for parameter values), and no other type is cast.
    @pytest.mark.parametrize("coeff, kind", [(0.1, "float"), (0.5, "float"), (True, "bool"),
                                             (None, "NoneType"), ([1], "list")])
    def test_inexact_coefficients_rejected_with_the_cell_named(self, coeff, kind):
        message = rf"coefficient .* in product \[e1, e2\] is a {kind}, not an exact"
        with pytest.raises(InputError, match=message):
            make_superalgebra("f", ["e1", "e2"], [], [], {("e1", "e2"): [("e1", coeff)]})
        with pytest.raises(InputError, match=message):
            SuperAlgebra("g", ["e1", "e2"], [], [], {(0, 1): [(0, coeff)]})
        with pytest.raises(InputError, match=message):
            SuperAlgebra("h", ["e1", "e2"], [], ["p"],
                         {(0, 1): [(1, Polynomial.var("p", ["p"])), (0, coeff)]})

    def test_parametric_cells_are_narrowed_where_no_parameter_occurs(self):
        # Plain numbers, constant Polynomials and sums in which the parameter
        # cancels are stored as narrowed numbers, as in a parameter-free table.
        p = Polynomial.var("p", ["p"])
        a = SuperAlgebra("a", ["e1", "e2", "e3"], [], ["p"], {
            (0, 0): [(1, 1), (2, Polynomial.const(Fraction(4, 2), ["p"])), (0, p)],
            (1, 0): [(2, p + Fraction(1, 3)), (2, -p)],
            (2, 0): [(1, Polynomial.const(0, ["p"])), (2, Fraction(0))]})
        assert a.structure == {(0, 0): ((0, p), (1, 1), (2, 2)),
                               (1, 0): ((2, Fraction(1, 3)),)}
        assert [type(c) for terms in a.structure.values() for _, c in terms] == [
            Polynomial, int, int, Fraction]

    def test_parameter_free_cells_are_merged_sorted_and_narrowed(self):
        # Numbers and constant Polynomials mix; a sum that is integral is
        # stored as an int, any other as a Fraction, and a zero sum is gone.
        a = SuperAlgebra("a", ["e1", "e2", "e3"], ["y1"], [], {
            (0, 0): [(2, Fraction(1, 2)), (1, Polynomial.const(3)),
                     (2, Fraction(1, 2)), (1, Fraction(1, 3)), (0, 5), (0, -5)],
            (3, 3): [(1, Polynomial.const(Fraction(-2, 4)))],
            (1, 1): [(2, Polynomial.const(0))]})
        assert a.structure == {(0, 0): ((1, Fraction(10, 3)), (2, 1)),
                               (3, 3): ((1, Fraction(-1, 2)),)}
        assert [type(c) for terms in a.structure.values() for _, c in terms] == [
            Fraction, int, Fraction]
        assert all(type(c) in (int, Fraction) for terms in a.structure.values()
                   for _, c in terms)

    def test_instantiating_nothing_keeps_a_parameter_free_algebra(self):
        a = build("L", 5, zeros("L", 5))
        assert a.instantiate({}) == a
        with pytest.raises(InputError, match="unknown parameter 'theta'"):
            a.instantiate({"theta": 1})

    # A negative target would read as even to `parity` and pass the grading.
    @pytest.mark.parametrize("key, target", [((0, 3), 0), ((0, 0), 3), ((0, 0), -1)],
                             ids=["operand", "target", "negative-target"])
    def test_indices_out_of_range_rejected(self, key, target):
        with pytest.raises(InputError, match=r"out of range in product \(0,"):
            SuperAlgebra("a", ["e1", "e2"], ["y1"], [],
                         {key: [(target, Polynomial.const(1))]})


class TestProduct:
    def test_filiform_odd_chain(self):
        a = build("N2M", 3)
        y1 = GradedVector.basis(a, "y1")
        e1 = GradedVector.basis(a, "e1")
        assert product(a, y1, e1) == GradedVector.basis(a, "y2")

    def test_odd_pairings(self):
        a = build("N2M", 3)
        y1, y2, y3 = (GradedVector.basis(a, l) for l in ("y1", "y2", "y3"))
        e2 = GradedVector.basis(a, "e2")
        assert product(a, y3, y1) == e2
        assert product(a, y2, y2) == vec(a, e2=-1)

    def test_abelian_products_vanish(self):
        a = abelian(2, 2)
        for left in a.labels:
            for right in a.labels:
                assert not any(product(a, GradedVector.basis(a, left),
                                       GradedVector.basis(a, right)).coords)

    def test_symbolic_algebra_refuses_products(self):
        a = build("L", 5)
        with pytest.raises(InputError, match="free parameters"):
            product(a, GradedVector.basis(a, "e1"), GradedVector.basis(a, "e1"))

    def test_bilinearity(self):
        a = build("N2M", 5)
        x = vec(a, y1=2, y3=-1)
        y = vec(a, e1=3, y2=Fraction(1, 2))
        lhs = product(a, x, y)
        rhs = [Fraction(0)] * a.dim
        for label_x, cx in (("y1", 2), ("y3", -1)):
            for label_y, cy in (("e1", 3), ("y2", Fraction(1, 2))):
                term = product(a, GradedVector.basis(a, label_x),
                               GradedVector.basis(a, label_y))
                rhs = [r + cx * cy * t for r, t in zip(rhs, term.coords)]
        assert lhs.coords == tuple(rhs)


class TestRightMultiplication:
    def test_abelian_is_zero(self):
        a = abelian(2, 1)
        for label in a.labels:
            assert right_mul_cells(a, GradedVector.basis(a, label), range(a.dim)) == {}

    def test_odd_block_is_the_shift(self):
        a = build("N2M", 3)
        e1 = GradedVector.basis(a, "e1")
        assert nilpotent_jordan_type(3, right_mul_cells(a, e1, range(2, 5))) == (3,)
        assert nilpotent_jordan_type(2, right_mul_cells(a, e1, range(0, 2))) == (1, 1)

    def test_sign_convention_for_odd_elements(self):
        a = build("N2M", 3)
        ry1 = right_mul_cells(a, GradedVector.basis(a, "y1"), range(a.dim))
        # R_{y1}(y3) = (-1)^{1*1} [y3, y1] = -e2
        assert ry1[a.index("e2"), a.index("y3")] == -1
        # R_{y1}(e1) = (+1) [e1, y1] = -y2
        assert ry1[a.index("y2"), a.index("e1")] == -1

    def test_non_homogeneous_rejected(self):
        a = build("N2M", 3)
        with pytest.raises(InputError):
            right_mul_cells(a, vec(a, e1=1, y1=1), range(a.dim))

    def test_columns_match_the_product_oracle(self):
        # cell (l, k) is the coefficient of b_keep[l] in
        # R_x(b_keep[k]) = (-1)^{pq} [b_keep[k], x], read off `product`, on
        # the whole space, a parity block, and random blocks, closed under
        # R_x or not, for even and odd x
        rng = random.Random(41)
        closed_kinds = set()
        for trial in range(80):
            a = random_graded_algebra(rng, rng.randint(1, 4), rng.randint(0, 4), 0.5)
            parity = ODD if a.n_odd and trial % 2 else EVEN
            x = _random_homogeneous(rng, a, parity)
            block = (range(a.n_even), range(a.n_even, a.dim))[trial // 4 % 2]
            subset = rng.sample(range(a.dim), rng.randint(0, a.dim))
            keep = (range(a.dim), block, sorted(subset), subset)[trial % 4]
            got = right_mul_cells(a, x, keep)
            want, leaks = {}, False
            for k, j in enumerate(keep):
                sign = -1 if parity == ODD and a.parity(j) == ODD else 1
                image = [sign * c for c in
                         product(a, GradedVector.basis(a, a.label(j)), x).coords]
                want.update({(l, k): image[t] for l, t in enumerate(keep) if image[t]})
                leaks |= any(image[t] for t in range(a.dim) if t not in keep)
            assert got == want, (trial, keep)
            assert all(type(v) is Fraction for v in got.values())
            closed_kinds.add(not leaks)
        assert closed_kinds == {True, False}

    def test_even_elements_preserve_parity(self):
        # R_x for even x has zero off-diagonal parity blocks
        rng = random.Random(43)
        for fid, size in (("L", 5), ("M", 4), ("H", 5), ("G", 6), ("N2M", 5),
                          ("SH1", 5), ("M5", 5)):
            a = build(fid, size, instance(fid, size))
            for _ in range(5):
                rx = right_mul_cells(a, _random_homogeneous(rng, a, EVEN), range(a.dim))
                assert all(a.parity(l) == a.parity(k) for l, k in rx)


class TestIdentityChecks:
    def test_abelian_satisfies_everything(self):
        a = abelian(2, 2)
        assert check_leibniz(a) == []
        assert check_lie(a) == []

    def test_symbolic_family_passes(self):
        assert check_leibniz(build("L", 5)) == []

    def _perturbed_n23(self, extra):
        a = build("N2M", 3)
        products = {}
        for (i, j), terms in a.structure.items():
            products[(a.label(i), a.label(j))] = [(a.label(k), c) for k, c in terms]
        products.update(extra)
        return make_superalgebra("perturbed", a.even_basis, a.odd_basis, [],
                                 products)

    def test_injected_defect_is_localized(self):
        broken = self._perturbed_n23({("e1", "e1"): [("e1", 1)]})
        residuals = check_leibniz(broken)
        assert residuals
        assert all("e1" in r.where for r in residuals)
        assert brute_leibniz_residuals(broken) == [
            (r.where, r.component, r.value.as_constant()) for r in residuals]

    def test_central_square_injection_stays_leibniz_but_not_lie(self):
        # e2 is central and right-annihilating, so [e1,e1] = e2 is a legal
        # (non-Lie) perturbation: no Leibniz residual, one antisymmetry one.
        perturbed = self._perturbed_n23({("e1", "e1"): [("e2", 1)]})
        assert check_leibniz(perturbed) == []
        assert brute_leibniz_residuals(perturbed) == []
        assert any(r.identity == "antisymmetry" and r.where == ("e1", "e1")
                   for r in check_lie(perturbed))

    def test_agrees_with_brute_force_oracle(self):
        a = build("N2M", 5)
        assert brute_leibniz_residuals(a) == []
        rng = random.Random(3)
        algebra = random_graded_algebra(rng, 3, 3, density=0.4)
        got = [(r.where, r.component, r.value.as_constant())
               for r in check_leibniz(algebra)]
        assert got == brute_leibniz_residuals(algebra)

    def test_lie_check_flags_even_square(self):
        # the (n|n-1) family has [e1,e1] = e3, which violates antisymmetry
        a = build("L", 4, zeros("L", 4))
        residuals = check_lie(a)
        assert any(r.identity == "antisymmetry" and r.where == ("e1", "e1")
                   for r in residuals)

    def test_emptiness_invariant_under_basis_change(self):
        rng = random.Random(5)
        for fid, size in (("N2M", 5), ("L", 4), ("H", 4)):
            a = build(fid, size, zeros(fid, size))
            p_even, p_odd = random_parity_change(rng, a.n_even, a.n_odd)
            conjugated = change_basis(a, p_even, p_odd)
            assert check_leibniz(conjugated) == []

    def test_residuals_in_lexicographic_triple_order(self):
        rng = random.Random(9)
        algebra = random_graded_algebra(rng, 3, 2, density=0.5)
        residuals = check_leibniz(algebra)
        order = [tuple(algebra.index(l) for l in r.where) for r in residuals]
        assert order == sorted(order)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_symbolic_residuals_evaluate_to_the_oracles(self, fid):
        # Evaluated at a seeded point of non-integral rationals, the symbolic
        # residuals that do not vanish are the product-based oracles' residuals
        # of the table instantiated there, in the same order.  A verbatim
        # table equal to the corrected one would repeat the same check.
        rng = random.Random(fid)
        structural = dict(family_info(fid).structural)
        for size in sizes(fid, 3, 6):
            corrected = build(fid, size, structural, CORRECTED)
            verbatim = build(fid, size, structural, VERBATIM)
            for symbolic in [corrected] + [verbatim] * (verbatim != corrected):
                point = {p: Fraction(3 * rng.randint(-4, 4) + 1, rng.choice((3, 6)))
                         for p in symbolic.parameters}
                table = symbolic.instantiate(point)
                got = [(r.where, r.component, r.value.evaluate(point))
                       for r in check_leibniz(symbolic)]
                assert [t for t in got if t[2]] == brute_leibniz_residuals(table)
                got = [(r.identity, r.where, r.component, r.value.evaluate(point))
                       for r in check_lie(symbolic)]
                assert [t for t in got if t[3]] == brute_lie_residuals(table)

    def test_fraction_coefficients_agree_with_the_oracles(self):
        rng = random.Random(23)
        for _ in range(60):
            algebra = random_graded_algebra(
                rng, rng.randint(1, 4), rng.randint(0, 4), density=0.4,
                values=(Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), 1, -2))
            assert [(r.where, r.component, r.value.as_constant())
                    for r in check_leibniz(algebra)] == brute_leibniz_residuals(algebra)
            assert [(r.identity, r.where, r.component, r.value.as_constant())
                    for r in check_lie(algebra)] == brute_lie_residuals(algebra)

    def test_random_symbolic_coefficients_agree_with_the_oracles(self):
        # Products of two parameter-dependent coefficients (p*p, p*q, ...),
        # which no catalog identity leaves uncancelled, evaluated at a point.
        rng = random.Random(29)
        point = {"p": Fraction(-5, 3), "q": Fraction(7, 2)}
        values = ("p", "-q", "2*p - 1/2", "p*q", "q^2 + 1", Fraction(2, 3), -1)
        for _ in range(40):
            symbolic = random_graded_algebra(
                rng, rng.randint(1, 4), rng.randint(0, 4), density=0.4,
                values=values, parameters=("p", "q"))
            table = symbolic.instantiate(point)
            got = [(r.where, r.component, r.value.evaluate(point))
                   for r in check_leibniz(symbolic)]
            assert [t for t in got if t[2]] == brute_leibniz_residuals(table)
            got = [(r.identity, r.where, r.component, r.value.evaluate(point))
                   for r in check_lie(symbolic)]
            assert [t for t in got if t[3]] == brute_lie_residuals(table)

    def test_catalog_residuals_are_pinned(self):
        # Every residual string, in order, of both identity checks on the
        # symbolic corrected and verbatim builds of every family at sizes 3..8.
        digest = hashlib.sha256()
        count = 0
        for fid in FAMILY_IDS:
            info = family_info(fid)
            for size in sizes(fid, 3, 8):
                for mode in (CORRECTED, VERBATIM):
                    a = build(fid, size, dict(info.structural), mode)
                    for r in check_leibniz(a) + check_lie(a):
                        digest.update(f"{fid} {size} {mode} {r}\n".encode())
                        count += 1
        assert count == 35185
        assert digest.hexdigest() == (
            "862596df890b4b5775fe1140077d68df0946ac6c9a64dd059f68ab2534d4b5db")


class TestIntegralIdentityKernel:
    """The identity kernel scales a table by the lcm L of its denominators and
    packs each exponent tuple into one int; its residuals must still equal,
    coefficient for coefficient, those of Polynomial arithmetic on the raw
    table (and of the product-based oracles at a point)."""

    def assert_kernel_matches_the_oracles(self, algebra, point=None):
        leibniz = [(r.where, r.component, r.value) for r in check_leibniz(algebra)]
        lie = [(r.identity, r.where, r.component, r.value) for r in check_lie(algebra)]
        assert leibniz == polynomial_leibniz_residuals(algebra)
        assert lie == polynomial_lie_residuals(algebra)
        point = point or {}
        table = algebra.instantiate(point)
        at_point = [(w, c, v.evaluate(point)) for w, c, v in leibniz]
        assert [t for t in at_point if t[2]] == brute_leibniz_residuals(table)
        at_point = [(i, w, c, v.evaluate(point)) for i, w, c, v in lie]
        assert [t for t in at_point if t[3]] == brute_lie_residuals(table)
        return leibniz, lie

    def test_random_tables_with_denominators_3_5_7_and_6(self):
        rng = random.Random(31)
        constants = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(5, 6),
                     Fraction(-7, 6), 2)
        symbolic = ("1/3*p", "-2/5*q^2", "3/7*p*q + 1/6", "5/6*q - 1/7*p^3",
                    Fraction(-1, 5), 1)
        point = {"p": Fraction(-5, 3), "q": Fraction(7, 2)}
        counts = {"leibniz": 0, "antisymmetry": 0, "jacobi": 0}
        for values, parameters in ((constants, ()), (symbolic, ("p", "q"))):
            for _ in range(25):
                algebra = random_graded_algebra(
                    rng, rng.randint(1, 4), rng.randint(0, 3), density=0.4,
                    values=values, parameters=parameters)
                leibniz, lie = self.assert_kernel_matches_the_oracles(
                    algebra, point if parameters else None)
                counts["leibniz"] += len(leibniz)
                for identity, *_ in lie:
                    counts[identity] += 1
        # Not vacuous: every kind of residual occurs, on non-integral tables.
        assert min(counts.values()) > 20

    def test_residuals_reach_twice_max_degree_in_the_last_of_128_parameters(self):
        parameters = [f"p{i}" for i in range(1, MAX_PARAMETERS + 1)]
        last = parameters[-1]
        doc = {"name": "wide", "even_basis": ["e1", "e2"], "odd_basis": ["y1"],
               "parameters": parameters, "products": [
                   {"left": "e1", "right": "e1",
                    "value": [["e1", f"1/3*{last}^{MAX_DEGREE} + p1"]]},
                   {"left": "e1", "right": "y1", "value": [["y1", f"2/5*{last}"]]},
                   {"left": "y1", "right": "y1", "value": [["e2", f"-3/7*{last}^2"]]}]}
        algebra = sdf_loads(json.dumps(doc))
        point = {p: Fraction(i % 5 - 2, 3) for i, p in enumerate(parameters)}
        leibniz, lie = self.assert_kernel_matches_the_oracles(algebra, point)
        top = (0,) * (MAX_PARAMETERS - 1) + (2 * MAX_DEGREE,)
        value = dict(((w, c), v) for w, c, v in leibniz)[("e1", "e1", "e1"), "e1"]
        assert value.terms[top] == Fraction(1, 9)
        assert any(top in v.terms for *_, v in lie)

    def test_table_built_directly_above_max_degree(self):
        variables = ("a", "b")
        poly = lambda terms: Polynomial(variables, terms)
        degree = 3 * MAX_DEGREE + 7   # no parser cap applies to a direct build
        algebra = SuperAlgebra("direct", ["e1", "e2"], ["y1"], variables, {
            (0, 0): [(0, poly({(degree, 1): Fraction(1, 3)})),
                     (1, poly({(0, 0): Fraction(5, 6)}))],
            (0, 2): [(2, poly({(1, 2): Fraction(-2, 7)}))],
            (2, 2): [(1, poly({(0, MAX_DEGREE + 1): Fraction(3, 5)}))]})
        leibniz, lie = self.assert_kernel_matches_the_oracles(
            algebra, {"a": Fraction(-1, 2), "b": Fraction(4, 3)})
        assert any((2 * degree, 2) in v.terms for *_, v in leibniz)
        assert any((2 * degree, 2) in v.terms for *_, v in lie)


class TestSubspaces:
    def test_product_of_full_space_n23(self):
        a = build("N2M", 3)
        full = GradedSubspace.full(a)
        square = subspace_product(a, full, full)
        assert square.dims() == (1, 2)
        cube = subspace_product(a, square, full)
        assert cube.dims() == (1, 1)
        assert contains_vector(cube, a, GradedVector.basis(a, "e2"))
        assert contains_vector(cube, a, GradedVector.basis(a, "y3"))

    def test_abelian_square_is_zero(self):
        a = abelian(2, 2)
        full = GradedSubspace.full(a)
        assert subspace_product(a, full, full).is_zero()

    def test_span_dimension_matches_oracle(self):
        a = build("M", 4, zeros("M", 4))
        table = a.structure
        vectors = []
        for (i, j), terms in table.items():
            row = [Fraction(0)] * a.dim
            for k, c in terms:
                row[k] = c
            vectors.append(row)
        full = GradedSubspace.full(a)
        square = subspace_product(a, full, full)
        assert sum(square.dims()) == span_dim(vectors)

    def test_row_order_does_not_matter(self):
        rng = random.Random(23)
        for _ in range(50):
            a, even, odd = _random_spanning_sets(rng)
            shuffled_even, shuffled_odd = even[:], odd[:]
            rng.shuffle(shuffled_even)
            rng.shuffle(shuffled_odd)
            assert (subspace_from_vectors(a, even, odd)
                    == subspace_from_vectors(a, shuffled_even, shuffled_odd))

    def test_dense_views_are_the_oracle_rref(self):
        rng = random.Random(29)
        for _ in range(50):
            a, even, odd = _random_spanning_sets(rng)
            sub = subspace_from_vectors(a, even, odd)
            for view, rows, width in ((dense_part(sub, EVEN), even, a.n_even),
                                      (dense_part(sub, ODD), odd, a.n_odd)):
                reduced, pivots = dense_rref(rows, width)
                assert (view.rows, view.cols) == (len(pivots), width)
                assert [list(r) for r in view.entries] == reduced[:len(pivots)]
            assert sub.dims() == (span_dim(even), span_dim(odd))

    def test_containment_agrees_with_a_rank_test(self):
        # Membership reduces against a shallow copy of the stored rows: they
        # stay as they were, also after a query whose vector is a new pivot,
        # and the canonical form is never built.
        rng = random.Random(31)
        verdicts = set()
        for _ in range(50):
            a, even, odd = _random_spanning_sets(rng)
            sub = subspace_from_vectors(a, even, odd)
            stored = copy.deepcopy(sub._echelons)
            for parity, rows, width in ((EVEN, even, a.n_even), (ODD, odd, a.n_odd)):
                inside = [sum((Fraction(rng.randint(-3, 3)) * r[c] for r in rows),
                              Fraction(0)) for c in range(width)]
                nudged = inside[:]
                if width:
                    nudged[rng.randrange(width)] += Fraction(1, 1000)
                for v in (inside, nudged):
                    expected = span_dim(rows + [v]) == span_dim(rows)
                    assert sub.contains_part_vector(parity, v) == expected
                    other = subspace_from_vectors(
                        a, [v] if parity == EVEN else [], [v] if parity == ODD else [])
                    assert contains_subspace(sub, other) == expected
                    verdicts.add(expected)
            assert sub._echelons == stored and sub._parts is None
            assert contains_subspace(sub, sub)
        assert verdicts == {True, False}

    def test_product_matches_the_dense_oracle_on_general_rows(self):
        # Every catalog series term is a coordinate subspace; only random
        # rows reach the general case.
        rng = random.Random(43)
        seen = set()
        for _ in range(60):
            a = random_graded_algebra(rng, rng.randint(1, 4), rng.randint(0, 4),
                                      density=rng.choice([0.3, 0.6, 0.9]))
            full = [GradedVector.basis(a, lab) for lab in a.labels]
            u, v = _random_graded_vectors(rng, a), _random_graded_vectors(rng, a)
            if any(sum(1 for x in w.coords if x) > 1 for w in u + v):
                seen.add("non-coordinate")
            for case, left, right in (("u != v", u, v), ("u = v", u, u),
                                      ("v = full", u, full), ("both full", full, full)):
                got = subspace_product(a, _span(a, left), _span(a, right))
                basis, dims = dense_subspace_product(a, left, right)
                assert got.dims() == dims, case
                assert _rows_over_the_basis(got) == [w.coords for w in basis], case
                seen.add(case)
                if any(d and d == size for d, size in zip(dims, (a.n_even, a.n_odd))):
                    seen.add("a part at full rank")
        assert seen == {"non-coordinate", "u != v", "u = v", "v = full", "both full",
                        "a part at full rank"}

    def test_even_square_matches_the_dense_oracle(self):
        # [L0, L0] as char_sequence forms it: the product of the even
        # coordinate span with itself.
        rng = random.Random(59)
        algebras = [random_graded_algebra(rng, rng.randint(1, 5), rng.randint(0, 4),
                                          density=rng.choice([0.3, 0.6, 0.9]))
                    for _ in range(40)]
        algebras += [build(fid, *smallest_instance(fid)) for fid in FAMILY_IDS]
        algebras += _scaled_cases()
        ranks = set()
        for a in algebras:
            even = GradedSubspace(a, ({i: {i: 1} for i in range(a.n_even)}, {}))
            square = subspace_product(a, even, even)
            vectors = [GradedVector.basis(a, lab) for lab in a.even_basis]
            basis, dims = dense_subspace_product(a, vectors, vectors)
            assert square.dims() == dims, a.name
            assert _rows_over_the_basis(square) == [w.coords for w in basis], a.name
            ranks.add(min(dims[EVEN], 2))
        assert ranks == {0, 1, 2}

    def test_reading_the_canonical_form_leaves_the_stored_rows(self):
        rng = random.Random(47)
        reduced_some = False
        for _ in range(40):
            a, even, odd = _random_spanning_sets(rng)
            sub = subspace_from_vectors(a, even, odd)
            stored = [{c: dict(row) for c, row in part.items()} for part in sub._echelons]
            parts = sub.parts
            assert [{c: dict(row) for c, row in part.items()}
                    for part in sub._echelons] == stored
            assert sub.parts is parts
            reduced_some |= any(dict(row) != stored[p][c]
                                for p in (EVEN, ODD) for c, row in parts[p])
        assert reduced_some

    def test_stored_rows_are_primitive_int_rows_with_positive_leads(self):
        rng = random.Random(53)
        cleared = set()
        for _ in range(40):
            a = abelian(rng.randint(1, 5), rng.randint(0, 5))
            vectors = []
            for width in (a.n_even, a.n_odd):
                vectors.append([[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 7)))
                                 if rng.random() < 0.6 else Fraction(0)
                                 for _ in range(width)] for _ in range(rng.randint(0, 4))])
            vectors[EVEN] += vectors[EVEN][:1]   # a repeated row
            sub = subspace_from_vectors(a, *vectors)
            stored = [{c: dict(row) for c, row in part.items()} for part in sub._echelons]
            for part in stored:
                for c, row in part.items():
                    assert min(row) == c and row[c] > 0, row
                    assert all(type(x) is int for x in row.values()), row
                    assert math.gcd(*row.values()) == 1, row
                    cleared.add(row[c] != 1)
            for parity, (width, view) in enumerate(((a.n_even, dense_part(sub, EVEN)),
                                                    (a.n_odd, dense_part(sub, ODD)))):
                reduced, pivots = dense_rref(vectors[parity], width)
                assert [list(r) for r in view.entries] == reduced[:len(pivots)]
            assert [{c: dict(row) for c, row in part.items()}
                    for part in sub._echelons] == stored
        assert cleared == {True, False}


def _random_graded_vectors(rng, a):
    """One to four random homogeneous vectors, often with several nonzero
    entries, often dependent."""
    vectors = []
    for _ in range(rng.randint(1, 4)):
        lo, hi = rng.choice([(0, a.n_even), (a.n_even, a.dim)] if a.n_odd else [(0, a.n_even)])
        coords = [Fraction(0)] * a.dim
        for k in range(lo, hi):
            if rng.random() < 0.7:
                coords[k] = Fraction(rng.randint(-3, 3))
        vectors.append(GradedVector(tuple(coords)))
    return vectors


def _span(a, vectors):
    n0 = a.n_even
    return subspace_from_vectors(a, [w.coords[:n0] for w in vectors],
                                              [w.coords[n0:] for w in vectors])


def _rows_over_the_basis(sub):
    """The canonical rows of both parts, as dense vectors over the whole basis."""
    zero = Fraction(0)
    return ([tuple(row) + (zero,) * sub.n_odd for row in dense_part(sub, EVEN).entries]
            + [(zero,) * sub.n_even + tuple(row) for row in dense_part(sub, ODD).entries])


def _random_spanning_sets(rng):
    """An abelian algebra with random dims and random, often dependent,
    spanning rows for each part."""
    n0, n1 = rng.randint(1, 6), rng.randint(0, 6)

    def rows(width):
        base = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(width)] for _ in range(rng.randint(0, width))]
        mixes = [[sum((Fraction(rng.randint(-2, 2)) * r[c] for r in base), Fraction(0))
                  for c in range(width)] for _ in range(rng.randint(0, 3))]
        return base + mixes

    return abelian(n0, n1), rows(n0), rows(n1)


class TestSubalgebra:
    def test_matches_the_product_oracle_on_random_keeps(self):
        rng = random.Random(53)
        closed_seen = set()
        for _ in range(80):
            a = random_graded_algebra(rng, rng.randint(1, 4), rng.randint(0, 4),
                                      density=rng.choice([0.2, 0.5]))
            even = rng.sample(range(a.n_even), rng.randint(1, a.n_even))
            odd = rng.sample(range(a.n_even, a.dim), rng.randint(0, a.n_odd))
            keep = even + odd
            sub = subalgebra(a, keep, "sub")
            basis = [GradedVector.basis(a, a.label(i)) for i in keep]
            products = {(r, s): product(a, x, y).coords
                        for r, x in enumerate(basis) for s, y in enumerate(basis)}
            closed = all(not coords[k] for coords in products.values()
                         for k in range(a.dim) if k not in keep)
            closed_seen.add(closed)
            assert (sub is not None) == closed
            if sub is None:
                continue
            assert sub.name == "random|sub" and sub.parameters == a.parameters
            assert sub.labels == tuple(a.label(i) for i in keep)
            assert (sub.n_even, sub.n_odd) == (len(even), len(odd))
            for (r, s), coords in products.items():
                got = product(sub, GradedVector.basis(sub, sub.label(r)),
                              GradedVector.basis(sub, sub.label(s)))
                assert got.coords == tuple(coords[k] for k in keep)
        assert closed_seen == {True, False}

    def test_a_product_leaving_the_span_gives_none(self):
        a = make_superalgebra("a", ["e1", "e2"], ["y1"], [],
                              {("e1", "e1"): [("e2", 1)], ("y1", "y1"): [("e1", 1)]})
        assert subalgebra(a, [0], "s") is None      # [e1, e1] = e2
        assert subalgebra(a, [2], "s") is None      # [y1, y1] = e1
        assert subalgebra(a, [1, 2], "s") is None
        assert subalgebra(a, [0, 1], "s").structure == {(0, 0): ((1, 1),)}

    def test_even_part_is_the_hand_filtered_table_across_the_catalog(self):
        for fid in FAMILY_IDS:
            size, params = smallest_instance(fid)
            symbolic = build(fid, size, dict(family_info(fid).structural))
            for a in (build(fid, size, params), symbolic):
                n0 = a.n_even
                hand = SuperAlgebra(f"{a.name}|even", a.even_basis, (), a.parameters,
                                    {(i, j): terms for (i, j), terms in a.structure.items()
                                     if i < n0 and j < n0})
                even = subalgebra(a, range(n0), "even")
                assert even == hand and even.name == hand.name, a.name


class TestSeries:
    def test_series_match_the_dense_oracle(self):
        rng = random.Random(37)
        cases = [random_graded_algebra(rng, rng.randint(1, 4), rng.randint(0, 4),
                                       density=rng.choice([0.15, 0.3, 0.5]))
                 for _ in range(20)]
        from superalg import FAMILY_IDS, family_info
        from superalg.families import sizes
        for fid in FAMILY_IDS:
            info = family_info(fid)
            if info.kind == "solvable" or fid in ("N2M", "L", "M", "H", "G"):
                size = sizes(fid, 4, 6)[0]
                cases.append(build(fid, size, instance(fid, size)))
        nilindices = set()
        for a in cases:
            dense_lcs, dense_ds = dense_lower_central_series(a), dense_derived_series(a)
            lcs = [t.dims() for t in lower_central_series(a)]
            assert lcs == dense_lcs, a.name
            assert [t.dims() for t in derived_series(a)] == dense_ds, a.name
            # fingerprint's is_solvable cross-checks the even part, which
            # holds for Leibniz superalgebras: the catalog cases only.
            if a.name != "random":
                fp = fingerprint(a)
                assert list(fp.lower_central) == dense_lcs, a.name
                assert list(fp.derived) == dense_ds, a.name
            expected = len(lcs) if lcs[-1] == (0, 0) else None
            assert nilindex(a) == expected, a.name
            nilindices.add(expected is None)
        assert nilindices == {True, False}

    def test_abelian_stabilizes_at_two_terms(self):
        series = lower_central_series(abelian(2, 1))
        assert len(series) == 2 and series[-1].is_zero()
        assert nilindex(abelian(2, 1)) == 2

    def test_n23_reaches_zero_in_five(self):
        assert nilindex(build("N2M", 3)) == 5

    def test_h_family_zero_instance(self):
        assert nilindex(build("H", 4, zeros("H", 4))) == 8

    def test_m_family_zero_instance(self):
        assert nilindex(build("M", 5, zeros("M", 5))) == 10

    def test_series_are_monotone(self):
        for fid, size in (("N2M", 5), ("L", 5), ("SL", 4)):
            a = build(fid, size, zeros(fid, size))
            lcs = lower_central_series(a)
            for earlier, later in zip(lcs, lcs[1:]):
                assert contains_subspace(earlier, later)
            ds = derived_series(a)
            for earlier, later in zip(ds, ds[1:]):
                assert contains_subspace(earlier, later)

    def test_solvable_extension_is_not_nilpotent(self):
        a = build("SL", 5)
        assert not is_nilpotent(a)
        assert is_solvable(a)

    def test_solvability_matches_even_part_across_the_catalog(self):
        # is_solvable raises InternalInconsistencyError if the derived series
        # of the whole algebra disagrees with that of the even part.
        from superalg import FAMILY_IDS
        from oracles import smallest_instance
        for fid in FAMILY_IDS:
            size, params = smallest_instance(fid)
            assert is_solvable(build(fid, size, params)) is True

    def test_nilindex_via_right_multiplication_words(self):
        # independent series computation: V_{k+1} = sum of R_b(V_k)
        a = build("N2M", 5)
        mats = [RatMatrix.from_cells(a.dim, a.dim, right_mul_cells(
                    a, GradedVector.basis(a, lab), range(a.dim))) for lab in a.labels]
        current = [list(row) for row in identity(a.dim).entries]
        steps = 1
        while current:
            imaged = []
            for m in mats:
                for v in current:
                    w = mat_apply(m, v)
                    if any(w):
                        imaged.append(list(w))
            if not imaged:
                steps += 1
                break
            basis_dim = span_dim(imaged)
            keep = []
            for v in imaged:
                if span_dim(keep + [v]) > len(keep):
                    keep.append(v)
                if len(keep) == basis_dim:
                    break
            current = keep
            steps += 1
        assert steps == nilindex(a)


def _series_verdicts(a: SuperAlgebra) -> tuple[bool, bool]:
    return lower_central_series(a)[-1].is_zero(), derived_series(a)[-1].is_zero()


def _even_traces(a: SuperAlgebra) -> list:
    """tr R_{b_j} for each even b_j: the sum over i of the b_i component of [b_i, b_j]."""
    traces = [Fraction(0)] * a.n_even
    for (i, j), terms in a.structure.items():
        for k, c in terms:
            if j < a.n_even and k == i:
                traces[j] += c
    return traces


def _catalog_algebras(lo: int, hi: int):
    """Every NILP and SOLV claim instance at sizes lo..hi, each SOLV
    nilradical candidate, and each verbatim table that builds at the same
    values and differs from the corrected one."""
    for fid in FAMILY_IDS:
        info = family_info(fid)
        for size in sizes(fid, lo, hi):
            for sample in info.samples(size):
                values = zero_filled(fid, size, sample)
                a = build(fid, size, values)
                yield a
                if info.kind == "solvable":
                    base_even = a.n_even - info.codim
                    keep = list(range(base_even)) + list(range(a.n_even, a.dim))
                    yield subalgebra(a, keep, "nilradical-candidate")
                try:
                    verbatim = build(fid, size, values, VERBATIM)
                except InputError:
                    continue
                if verbatim != a:
                    yield verbatim


class TestCertificates:
    """`is_nilpotent` and `is_solvable` decide from a certificate in the
    table (a nonzero trace of an even R_{b_j}, or `least_grading`) and run
    a series only when there is none; either way the verdict is the series'."""

    def assert_grading(self, a: SuperAlgebra, g: list[int], depths: bool) -> None:
        assert len(g) == a.dim and min(g) >= (0 if depths else 1), a.name
        for (i, j), terms in a.structure.items():
            for k, c in terms:
                assert c and g[k] >= (min(g[i], g[j]) + 1 if depths else g[i] + g[j]), \
                    (a.name, i, j, k)

    def test_certificates_give_the_series_verdicts_across_the_catalog(self):
        counts = {"nilpotent": 0, "not nilpotent": 0, "dense": 0}
        for a in _catalog_algebras(3, 12):
            verdicts = (is_nilpotent(a), is_solvable(a))
            assert verdicts == _series_verdicts(a), a.name
            if a.dim <= 7:
                dense = (dense_lower_central_series(a)[-1] == (0, 0),
                         dense_derived_series(a)[-1] == (0, 0))
                assert verdicts == dense, a.name
                counts["dense"] += 1
            # The fast path covers the catalog: weights on every nilpotent
            # table, a nonzero trace on every other one, and depths on all.
            weights, depths = least_grading(a), least_grading(a, depths=True)
            if verdicts[0]:
                self.assert_grading(a, weights, depths=False)
                counts["nilpotent"] += 1
            else:
                assert weights is None and any(_even_traces(a)), a.name
                counts["not nilpotent"] += 1
            self.assert_grading(a, depths, depths=True)
        assert min(counts.values()) >= 100, counts

    @pytest.mark.parametrize("fid, size, expected", [
        ("L", 5, (True, True)), ("N2M", 5, (True, True)), ("SL", 5, (False, True))])
    def test_a_scrambled_basis_falls_back_to_the_series(self, fid, size, expected):
        table = build(fid, size, zeros(fid, size))
        rng = random.Random(f"scramble-{fid}")
        a = change_basis(table, *random_parity_change(rng, table.n_even, table.n_odd))
        assert least_grading(a) is None and least_grading(a, depths=True) is None
        assert (is_nilpotent(a), is_solvable(a)) == expected
        # The nilpotent ones have zero traces, so their verdict came from the series.
        assert ("lower_central_series" in a._memo) == expected[0]
        assert "derived_series" in a._memo
        assert _series_verdicts(a) == expected

    def test_sl2_has_no_certificate(self):
        a = make_superalgebra("sl2", ["e", "f", "h"], [], [], {
            ("h", "e"): [("e", 2)], ("e", "h"): [("e", -2)],
            ("h", "f"): [("f", -2)], ("f", "h"): [("f", 2)],
            ("e", "f"): [("h", 1)], ("f", "e"): [("h", -1)]})
        assert least_grading(a) is None and least_grading(a, depths=True) is None
        assert not any(_even_traces(a))
        assert not is_nilpotent(a) and not is_solvable(a)
        assert _series_verdicts(a) == (False, False)

    def test_a_parametric_algebra_is_an_input_error(self):
        a = build("L", 5)
        assert a.parameters
        for decide in (is_nilpotent, is_solvable, least_grading):
            with pytest.raises(InputError, match="free parameters"):
                decide(a)

    def test_a_long_cycle_stops_after_dim_plus_one_rounds(self):
        # [b_i, b_i] = b_{i+1 mod 256]: every grading rises round after
        # round, and [L, L] = L.
        labels = [f"e{i}" for i in range(MAX_BASIS)]
        a = make_superalgebra("cycle", labels, [], [], {
            (lab, lab): [(labels[(i + 1) % MAX_BASIS], 1)] for i, lab in enumerate(labels)})
        assert least_grading(a) is None and least_grading(a, depths=True) is None
        assert not any(_even_traces(a))
        assert (is_nilpotent(a), is_solvable(a)) == (False, False) == _series_verdicts(a)

    def test_solv_instances_and_candidates_run_no_series(self):
        for fid in FAMILY_IDS:
            info = family_info(fid)
            if info.kind != "solvable":
                continue
            size, params = smallest_instance(fid)
            a = build(fid, size, params)
            base_even = a.n_even - info.codim
            sub = subalgebra(a, list(range(base_even)) + list(range(a.n_even, a.dim)), "N")
            assert is_solvable(a) and not is_nilpotent(a) and is_nilpotent(sub), fid
            for algebra in (a, sub):
                assert not {"lower_central_series", "derived_series"} & set(algebra._memo), fid


class TestAnnihilator:
    def test_abelian_everything_annihilates(self):
        a = abelian(2, 2)
        assert right_annihilator(a).dims() == (2, 2)

    def test_n23_annihilator_is_the_socle(self):
        ann = right_annihilator(build("N2M", 3))
        assert ann.dims() == (1, 0)
        a = build("N2M", 3)
        assert contains_vector(ann, a, GradedVector.basis(a, "e2"))

    def test_post_hoc_stability(self):
        for fid, size in (("N2M", 5), ("SL", 4), ("H", 4)):
            a = build(fid, size, zeros(fid, size))
            ann = right_annihilator(a)
            n0 = a.n_even
            members = [GradedVector(tuple(list(row) + [Fraction(0)] * a.n_odd))
                       for row in dense_part(ann, EVEN).entries]
            members += [GradedVector(tuple([Fraction(0)] * n0 + list(row)))
                        for row in dense_part(ann, ODD).entries]
            for z in members:
                for label in a.labels:
                    assert not any(product(a, GradedVector.basis(a, label), z).coords)

    def test_symmetrized_products_annihilate(self):
        rng = random.Random(41)
        a = build("SL", 5)
        ann = right_annihilator(a)
        for _ in range(50):
            pa = rng.randint(0, 1)
            pb = rng.randint(0, 1)
            x = _random_homogeneous(rng, a, pa)
            y = _random_homogeneous(rng, a, pb)
            sign = -1 if (pa and pb) else 1
            v = [s + sign * t for s, t in zip(product(a, x, y).coords,
                                              product(a, y, x).coords)]
            assert contains_vector(ann, a, GradedVector(tuple(v)))


def _random_homogeneous(rng, algebra, parity):
    coords = [Fraction(0)] * algebra.dim
    indices = (range(algebra.n_even) if parity == EVEN
               else range(algebra.n_even, algebra.dim))
    for i in indices:
        coords[i] = Fraction(rng.randint(-4, 4))
    return GradedVector(tuple(coords))


class TestCharSequence:
    def test_zero_instance_of_the_n_n_minus_one_family(self):
        a = build("L", 5, zeros("L", 5))
        assert char_sequence(a) == ((4, 1), (4,))

    def test_abelian(self):
        assert char_sequence(abelian(2, 2)) == ((1, 1), (1, 1))

    def test_n23_matches_grid_oracle(self):
        a = build("N2M", 3)
        assert char_sequence(a) == ((1, 1), (3,))
        # dense grid over x = a*e1 + c*e2 (the even square is zero here)
        best = None
        for s in range(-5, 6):
            for c in range(-5, 6):
                if s == 0 and c == 0:
                    continue
                x = vec(a, e1=s, e2=c)
                pair = tuple(nilpotent_jordan_type(len(block), right_mul_cells(a, x, block))
                             for block in (range(a.n_even), range(a.n_even, a.dim)))
                cand = pair
                if best is None:
                    best = cand
                else:
                    best = (max(best[0], cand[0]), max(best[1], cand[1]))
        assert char_sequence(a) == best

    def test_partition_sums(self):
        for fid, size in (("L", 5), ("M", 4), ("H", 5), ("G", 6), ("N2M", 7)):
            a = build(fid, size, zeros(fid, size))
            even, odd = char_sequence(a)
            assert sum(even) == a.n_even and sum(odd) == a.n_odd

    def test_stable_across_seeds(self):
        a = build("M", 5, zeros("M", 5))
        results = {char_sequence(a, seed=s) for s in (0, 1, 2)}
        assert len(results) == 1

    def test_not_nilpotent_raises(self):
        with pytest.raises(NotNilpotentError):
            char_sequence(build("SL", 4))

    def test_samples_and_bound_just_over_their_caps_are_rejected(self):
        a = build("N2M", 3)
        with pytest.raises(InputError, match=f"samples must be <= MAX_SAMPLES = "
                                             f"{MAX_SAMPLES} "):
            char_sequence(a, samples=MAX_SAMPLES + 1)
        with pytest.raises(InputError, match=f"bound must be <= MAX_BOUND = "
                                             f"{MAX_BOUND} "):
            char_sequence(a, bound=MAX_BOUND + 1)

    def test_every_nilpotent_claim_instance_over_three_seeds(self):
        # the NILP claim instances (sizes 3..7, every sample): each reaches
        # ((n0 - 1, 1), (n1,)) for seeds 0, 1 and 2
        from superalg.families import FAMILY_IDS, family_info, sizes
        count = 0
        for fid in FAMILY_IDS:
            if family_info(fid).kind != "nilpotent":
                continue
            for size in sizes(fid, 3, 7):
                for sample in family_info(fid).samples(size):
                    a = build(fid, size, {**zeros(fid, size), **sample})
                    want = ((a.n_even - 1, 1), (a.n_odd,))
                    for seed in (0, 1, 2):
                        assert char_sequence(a, seed=seed) == want, (a.name, seed)
                    count += 1
        assert count == 43


def heisenberg_plus_line() -> SuperAlgebra:
    """h3 + C with one odd vector: [e1, e2] = e3 = -[e2, e1], y1 central.
    Every even R_x has rank at most 1, so its type is at most (2, 1, 1),
    while the word filtration only bounds the blocks by 2."""
    return make_superalgebra("h3+C", ["e1", "e2", "e3", "e4"], ["y1"], [],
                             {("e1", "e2"): [("e3", 1)], ("e2", "e1"): [("e3", -1)]})


class TestCharseqBound:
    @pytest.mark.parametrize("make", [
        lambda: build("N2M", 3), lambda: build("L", 4, zeros("L", 4)),
        lambda: build("M", 4, zeros("M", 4)), lambda: build("H", 4, zeros("H", 4)),
        lambda: build("G", 4, zeros("G", 4)), heisenberg_plus_line],
        ids=["N2M3", "L4", "M4", "H4", "G4", "h3+C"])
    def test_matches_exhaustive_enumeration(self, make):
        a = make()
        oracle = charseq_by_enumeration(a)
        assert char_sequence(a) == oracle
        bound = charseq_bound(a)
        assert bound[EVEN] >= oracle[EVEN] and bound[ODD] >= oracle[ODD]
        assert tuple(map(sum, bound)) == (a.n_even, a.n_odd)

    @pytest.fixture
    def jordan_calls(self, monkeypatch):
        import superalg.core as core
        calls = []

        def counted(size, cells):
            calls.append(cells)
            return nilpotent_jordan_type(size, cells)

        monkeypatch.setattr(core, "nilpotent_jordan_type", counted)
        return calls

    def test_certified_search_stops_at_the_first_candidate(self, jordan_calls):
        a = build("L", 5, zeros("L", 5))
        cs = char_sequence(a)
        assert cs == charseq_bound(a) == ((4, 1), (4,))
        assert charseq_note(a, cs) == "certified"
        assert len(jordan_calls) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unreached_bound_falls_back_to_the_whole_sample(self, seed, jordan_calls):
        a = heisenberg_plus_line()
        assert charseq_bound(a) == ((2, 2), (1,))
        cs = char_sequence(a, seed=seed)
        assert cs == ((2, 1, 1), (1,))
        # dim L0 + 64 candidates, two types each: the search never stopped
        assert len(jordan_calls) == 2 * (4 + 64)
        assert charseq_note(a, cs) == "sampled max (bound 2)"
        fp_cs = fingerprint(a, seed=seed).charseq
        assert fp_cs == cs and charseq_note(a, fp_cs) == "sampled max (bound 2)"

    def test_abelian_blocks_are_bounded_by_one(self):
        a = abelian(3, 0)
        assert charseq_bound(a) == ((1, 1, 1), ())
        assert char_sequence(a) == ((1, 1, 1), ())

    def test_not_nilpotent_raises(self):
        with pytest.raises(NotNilpotentError):
            charseq_bound(build("SL", 4))


class TestOncePerAlgebra:
    def test_lower_central_series_is_computed_once(self, monkeypatch):
        import superalg.core as core
        a = build("H", 5, zeros("H", 5))
        first = lower_central_series(a)
        monkeypatch.setattr(core, "subspace_product", None)  # any recompute fails
        assert nilindex(a) == a.dim and is_nilpotent(a)
        second = lower_central_series(a)
        assert second == first and second is not first
        second.clear()
        assert lower_central_series(a) == first

    def test_dims_only_callers_never_build_the_canonical_form(self, monkeypatch):
        import superalg.core as core

        def refuse(echelon):
            raise AssertionError("the canonical form was built")

        monkeypatch.setattr(core, "_back_substitute", refuse)
        a = build("H", 5, zeros("H", 5))
        assert nilindex(a) == a.dim and is_nilpotent(a) and is_solvable(a)
        assert charseq_bound(a) == ((4, 1), (5,))

    def test_each_algebra_has_its_own_memo(self):
        a, b = abelian(1, 0), build("N2M", 3)
        assert len(lower_central_series(a)) == 2
        assert len(lower_central_series(b)) == b.dim


class TestFingerprint:
    def test_deterministic(self):
        a = build("MH1", 4)
        assert fingerprint(a) == fingerprint(a)

    def test_distinguishes_the_codim_two_pair(self):
        assert fingerprint(build("MH1", 5)) != fingerprint(build("MH2", 5))

    def test_honest_tie_for_same_family_different_parameter(self):
        f1 = fingerprint(build("H2", 5, {"b": 1}))
        f2 = fingerprint(build("H2", 5, {"b": 2}))
        assert f1 == f2

    def test_engel_property_on_nilpotent_instances(self):
        a = build("H", 4, zeros("H", 4))
        for label in a.labels:
            rx = right_mul_cells(a, GradedVector.basis(a, label), range(a.dim))
            assert nilpotent_jordan_type(a.dim, rx) is not None


class TestSDF:
    def test_round_trip_is_bit_identical(self):
        for fid, size, params in (("N2M", 5, None), ("L", 5, None),
                                  ("SH1", 5, {"t": 4}), ("M2", 3, {"alpha": 1})):
            a = build(fid, size, params)
            text = sdf_dumps(a)
            b = sdf_loads(text)
            assert a == b
            assert sdf_dumps(b) == text

    def test_symbolic_coefficients_survive(self):
        a = build("H", 5)
        b = sdf_loads(sdf_dumps(a))
        assert b.parameters == a.parameters
        assert check_leibniz(b) == []

    def test_grading_violation_rejected_naming_product(self):
        doc = {"name": "bad", "even_basis": ["e1"], "odd_basis": ["y1"],
               "parameters": [], "products": [
                   {"left": "e1", "right": "y1", "value": [["e1", "1"]]}]}
        with pytest.raises(InputError, match=r"\[e1, y1\]"):
            sdf_load(doc)

    def test_duplicate_product_rejected(self):
        doc = {"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": [], "products": [
                   {"left": "e1", "right": "e1", "value": [["e2", "1"]]},
                   {"left": "e1", "right": "e1", "value": [["e2", "2"]]}]}
        with pytest.raises(InputError, match="duplicate"):
            sdf_load(doc)

    def test_plain_rational_strings_skip_the_coefficient_parser(self, monkeypatch):
        import superalg.core as core_module

        def refuse(text, variables):
            raise AssertionError(f"{text!r} went through parse_coefficient")

        monkeypatch.setattr(core_module, "parse_coefficient", refuse)
        a = make_superalgebra("q", ["e1", "e2"], [], ["a"], {
            ("e1", "e1"): [("e2", " -3/6 "), ("e2", "+2")],
            ("e2", "e1"): [("e2", "007")],
            ("e2", "e2"): [("e1", "a"), ("e2", " a ")]})
        var_a = Polynomial.var("a", ["a"])
        b = make_superalgebra("q", ["e1", "e2"], [], ["a"], {
            ("e1", "e1"): [("e2", Fraction(3, 2))], ("e2", "e1"): [("e2", 7)],
            ("e2", "e2"): [("e1", var_a), ("e2", var_a)]})
        assert a == b

    def test_a_declared_name_the_parser_cannot_read_is_not_read_bare(self):
        # "-a" is the negation of a, not the declared parameter "-a", as in
        # any longer coefficient, so no residual can print ambiguously.
        with pytest.raises(InputError, match="undeclared parameter 'a' in coefficient '-a'"):
            make_superalgebra("q", ["e1"], [], ["-a"], {("e1", "e1"): [("e1", "-a")]})

    def test_zero_denominator_is_input_error(self):
        doc = {"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [],
               "products": [{"left": "e1", "right": "e1", "value": [["e2", "1/0"]]}]}
        with pytest.raises(InputError, match=r"^zero denominator in '1/0'$"):
            sdf_load(doc)

    def test_basis_cap_names_the_limit(self):
        doc = {"name": "big", "even_basis": [f"e{i}" for i in range(MAX_BASIS)],
               "odd_basis": ["y1"], "products": []}
        with pytest.raises(InputError, match="257 basis vectors; at most MAX_BASIS = 256"):
            sdf_load(doc)
        doc["odd_basis"] = []
        assert sdf_load(doc).dim == MAX_BASIS

    def test_parameter_cap_names_the_limit(self):
        doc = {"name": "many", "even_basis": ["e1"], "odd_basis": [], "products": [],
               "parameters": [f"p{i}" for i in range(MAX_PARAMETERS + 1)]}
        with pytest.raises(InputError,
                           match="129 parameters; at most MAX_PARAMETERS = 128"):
            sdf_load(doc)
        doc["parameters"].pop()
        assert len(sdf_load(doc).parameters) == MAX_PARAMETERS

    def test_caps_admit_every_family_at_the_size_cap(self):
        largest_basis = largest_parameters = 0
        for fid in FAMILY_IDS:
            info = family_info(fid)
            size = sizes(fid, MAX_SIZE - 1, MAX_SIZE)[-1]
            names, _, n_even, n_odd = info.table(size, CORRECTED, **info.structural)
            largest_basis = max(largest_basis, n_even + n_odd)
            largest_parameters = max(largest_parameters, len(names))
        assert (largest_basis, largest_parameters) == (130, 64)
        assert largest_basis <= MAX_BASIS and largest_parameters <= MAX_PARAMETERS

    def test_undeclared_parameter_rejected(self):
        doc = {"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": [], "products": [
                   {"left": "e1", "right": "e1", "value": [["e2", "alpha4"]]}]}
        with pytest.raises(InputError, match="alpha4"):
            sdf_load(doc)

    @pytest.mark.parametrize("value", [
        5, [["e1"]], [["e1", None]], [[["e1"], 1]], [["e1", [1]]],
        [["e1", float("inf")]], [["e1", 1.5]], [["e1", True]], [5], "e1"])
    def test_malformed_value_rejected_naming_product(self, value):
        doc = {"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [],
               "products": [{"left": "e1", "right": "e1", "value": value}]}
        with pytest.raises(InputError, match=r"\[e1, e1\]"):
            sdf_load(doc)

    @pytest.mark.parametrize("field,value", [
        ("products", 5), ("products", {"left": "e1"}), ("even_basis", [["e1"]]),
        ("odd_basis", "y1"), ("parameters", [1]), ("name", 3)])
    def test_malformed_shape_rejected(self, field, value):
        doc = {"name": "bad", "even_basis": ["e1", "e2"], "odd_basis": [],
               "parameters": [], "products": []}
        doc[field] = value
        with pytest.raises(InputError, match=f"malformed SDF: {field}"):
            sdf_load(doc)

    def test_malformed_product_entry_rejected(self):
        for entry in (5, [], {"left": "e1", "right": "e1"},
                      {"left": ["e1"], "right": "e1", "value": []}):
            doc = {"name": "bad", "even_basis": ["e1"], "odd_basis": [],
                   "products": [entry]}
            with pytest.raises(InputError, match="malformed SDF product entry"):
                sdf_load(doc)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_fuzz_round_trip_of_random_graded_algebras(self, data):
        n0 = data.draw(st.integers(1, 3))
        n1 = data.draw(st.integers(0, 3))
        even = [f"e{i}" for i in range(1, n0 + 1)]
        odd = [f"y{i}" for i in range(1, n1 + 1)]
        parameters = data.draw(st.sampled_from([(), ("a",), ("a", "b")]))
        symbolic = {(): ["1"], ("a",): ["a", "-a^2 + 1/2"],
                    ("a", "b"): ["a", "2*a*b - b", "(a - b)^3"]}[parameters]
        coefficient = st.one_of(
            st.integers(-9, 9),
            st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
            st.sampled_from(symbolic))
        products = {}
        for i, left in enumerate(even + odd):
            for j, right in enumerate(even + odd):
                if not data.draw(st.booleans()):
                    continue
                parity = ((i >= n0) + (j >= n0)) % 2
                targets = odd if parity else even
                if targets:
                    products[(left, right)] = data.draw(st.lists(
                        st.tuples(st.sampled_from(targets), coefficient),
                        max_size=3))
        a = make_superalgebra("fuzz", even, odd, parameters, products)
        text = sdf_dumps(a)
        b = sdf_loads(text)
        assert b == a and sdf_dumps(b) == text

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=20)

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_fuzz_arbitrary_json_only_raises_input_error(self, doc):
        try:
            sdf_loads(json.dumps(doc))
        except InputError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzz_sdf_shaped_json_only_raises_input_error(self, data):
        labels = ["e1", "e2", "y1", "a", ""]
        names = st.lists(st.sampled_from(labels), max_size=3)
        anything = self.json_values
        term = st.one_of(
            st.tuples(st.sampled_from(labels),
                      st.one_of(st.integers(), st.text(max_size=6),
                                st.sampled_from(["1/0", "a^65", "((a", "e1"]),
                                anything)).map(list),
            anything)
        product = st.one_of(
            st.fixed_dictionaries({"left": st.sampled_from(labels),
                                   "right": st.sampled_from(labels),
                                   "value": st.one_of(st.lists(term, max_size=3),
                                                      anything)}),
            anything)
        doc = data.draw(st.fixed_dictionaries({
            "name": st.one_of(st.just("fuzz"), anything),
            "even_basis": st.one_of(names, anything),
            "odd_basis": st.one_of(names, anything),
            "parameters": st.one_of(st.sampled_from([[], ["a"]]), anything),
            "products": st.one_of(st.lists(product, max_size=4), anything)}))
        try:
            sdf_loads(json.dumps(doc))
        except InputError:
            pass

    def test_dump_is_json_serializable(self):
        json.dumps(sdf_dump(build("G", 4)))


def _thirds_and_sevenths(seed: int) -> SuperAlgebra:
    rng = random.Random(seed)
    return random_graded_algebra(
        rng, rng.randint(2, 4), rng.randint(1, 3), density=0.45,
        values=(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 21), 1, -2))


def _scaled_cases() -> list[SuperAlgebra]:
    """The half-integral catalog tables (L, M, H and G carry families.HALF)
    and random tables with thirds and sevenths."""
    return ([build(fid, size, instance(fid, size))
             for fid in ("L", "M", "H", "G") for size in (4, 5)]
            + [_thirds_and_sevenths(seed) for seed in range(8)])


class TestIntegralTable:
    def test_the_integral_table_is_the_constant_table_scaled_once(self):
        for a in _scaled_cases():
            table = a._integral_structure()
            scale = math.lcm(*[Fraction(c).denominator
                               for terms in a.structure.values() for _, c in terms])
            assert scale > 1, a.name
            assert table == {key: tuple((k, scale * c) for k, c in terms)
                             for key, terms in a.structure.items()}, a.name
            assert all(type(c) is int for terms in table.values() for _, c in terms)
            assert a._integral_structure() is table

    def test_scale_invariant_readers_match_the_unscaled_oracles(self):
        from superalg.derivations import derivation_space, is_derivation
        for a in _scaled_cases():
            for degree in (EVEN, ODD):
                space = derivation_space(a, degree)
                assert [tuple(x for row in m.entries for x in row)
                        for m in dense_basis(space, a.dim)] \
                    == dense_derivation_kernel(a, degree), (a.name, degree)
                for cells in space.cells:
                    assert is_derivation(a, {p: x / 7 for p, x in cells.items()}, degree)
            assert [t.dims() for t in lower_central_series(a)] \
                == dense_lower_central_series(a), a.name
            assert [t.dims() for t in derived_series(a)] == dense_derived_series(a), a.name
            ann = right_annihilator(a)
            for kernel, width, view in zip(dense_right_annihilator(a), (a.n_even, a.n_odd),
                                           (dense_part(ann, EVEN), dense_part(ann, ODD))):
                reduced, pivots = dense_rref([list(v) for v in kernel], width)
                assert [list(r) for r in view.entries] == reduced[:len(pivots)], a.name

    def test_public_values_keep_the_unscaled_constants(self):
        from superalg.derivations import derivation_space
        for a in _scaled_cases():
            twin = sdf_loads(sdf_dumps(a))   # never reads the integral table
            assert a._integral_structure() != a.structure
            derivation_space(a, EVEN)
            right_annihilator(a)
            lower_central_series(a)
            assert "_integral_structure" not in twin._memo
            assert sdf_dump(a) == sdf_dump(twin)
            assert a.structure == twin.structure
            for i, label in enumerate(a.labels):
                x = GradedVector.basis(a, label)
                cells = right_mul_cells(a, x, range(a.dim))
                assert cells == right_mul_cells(twin, x, range(a.dim))
                # Column j is R_{b_i}(b_j) = (-1)^{p_i p_j} [b_j, b_i], unscaled.
                for j in range(a.dim):
                    sign = -1 if a.parity(i) and a.parity(j) else 1
                    want = {k: sign * c for k, c in a.structure.get((j, i), ())}
                    assert {l: v for (l, k), v in cells.items() if k == j} == want
            assert any(c.denominator > 1 for terms in a.structure.values()
                       for _, c in terms), a.name


class TestOracleImports:
    """The oracles compute every value they check themselves.  From the
    package they import only the data model, the catalog lookups, and
    `_reduce_into`, with which `subspace_from_vectors` builds an engine input."""

    ALLOWED = {"EVEN", "ODD", "SuperAlgebra", "GradedSubspace", "GradedVector",
               "make_superalgebra", "Polynomial", "RatMatrix", "InputError",
               "family_info", "parameter_names", "sizes", "_reduce_into"}

    def test_oracles_import_no_engine_computation(self):
        tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("superalg") for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("superalg"):
                imported.update(alias.name for alias in node.names)
        assert "Polynomial" in imported and imported <= self.ALLOWED, imported - self.ALLOWED
        users = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for n in ast.walk(f) if isinstance(n, ast.Name) and n.id == "_reduce_into"}
        assert users == {"subspace_from_vectors"}
