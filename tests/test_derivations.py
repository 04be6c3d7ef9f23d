"""Derivation-space solving, nilpotency certification, extendability."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superalg import build, parameter_names
from superalg.core import (EVEN, ODD, GradedVector, change_basis,
                           make_superalgebra, right_mul_matrix)
from superalg.derivations import (derivation_space, extendability,
                                  is_derivation, max_nil_independent,
                                  space_all_nilpotent)
from superalg.errors import InputError, UnsupportedShapeError
from superalg.exactmath import RatMatrix

from oracles import (bareiss_rank, dense_derivation_kernel, dense_rref,
                     derivation_residuals, random_graded_algebra,
                     random_parity_change)


def zeros(fid: str, size: int) -> dict[str, int]:
    return {p: 0 for p in parameter_names(fid, size)}


def abelian(n0, n1):
    return make_superalgebra("abelian", [f"e{i}" for i in range(1, n0 + 1)],
                             [f"y{i}" for i in range(1, n1 + 1)], [], {})


class TestSolver:
    def test_abelian_dimensions(self):
        a = abelian(2, 3)
        assert derivation_space(a, EVEN).dim == 2 * 2 + 3 * 3
        assert derivation_space(a, ODD).dim == 2 * 2 * 3

    def test_zero_instance_of_the_n_n_minus_one_family(self):
        a = build("L", 6, zeros("L", 6))
        space = derivation_space(a, EVEN)
        assert space.dim == 6
        # the template weight direction: d(e1) = 2 e1, d(e_i) = 2(i-1) e_i,
        # d(y_i) = (2i-1) y_i is in the span
        diag = {("e1", 2), ("e2", 2)} | {(f"e{i}", 2 * (i - 1)) for i in range(3, 7)} \
            | {(f"y{i}", 2 * i - 1) for i in range(1, 6)}
        grid = [[Fraction(0)] * a.dim for _ in range(a.dim)]
        for label, w in diag:
            grid[a.index(label)][a.index(label)] = Fraction(w)
        weight = RatMatrix(a.dim, a.dim, tuple(tuple(r) for r in grid))
        assert is_derivation(a, weight, EVEN)

    def test_nonzero_parameter_kills_the_weight_direction(self):
        params = zeros("L", 6)
        params["alpha4"] = 1
        a = build("L", 6, params)
        space = derivation_space(a, EVEN)
        assert space.dim == 5
        for m in space.basis:
            assert not any(m.diagonal())

    def test_every_solution_satisfies_the_identity(self):
        for fid, size, degree in (("N2M", 5, EVEN), ("N2M", 5, ODD),
                                  ("H", 4, EVEN), ("SL", 4, EVEN),
                                  ("G", 5, ODD)):
            a = build(fid, size, zeros(fid, size))
            for m in derivation_space(a, degree).basis:
                assert is_derivation(a, m, degree)

    def test_dimension_invariant_under_basis_change(self):
        rng = random.Random(31)
        for fid, size in (("N2M", 3), ("L", 4), ("H", 4)):
            a = build(fid, size, zeros(fid, size))
            dim_before = derivation_space(a, EVEN).dim
            p_even, p_odd = random_parity_change(rng, a.n_even, a.n_odd)
            conjugated = change_basis(a, p_even, p_odd)
            assert derivation_space(conjugated, EVEN).dim == dim_before

    def test_right_multiplication_by_even_elements_is_a_derivation(self):
        from superalg import FAMILY_IDS
        from oracles import smallest_instance
        for fid in FAMILY_IDS:
            size, params = smallest_instance(fid)
            a = build(fid, size, params)
            for label in a.even_basis:
                rx = right_mul_matrix(a, GradedVector.basis(a, label))
                assert is_derivation(a, rx, EVEN), (fid, label)

    def test_right_multiplication_by_odd_elements_is_an_odd_derivation(self):
        a = build("N2M", 5)
        for label in a.odd_basis:
            rx = right_mul_matrix(a, GradedVector.basis(a, label))
            assert is_derivation(a, rx, ODD), label

    def test_bad_degree_rejected(self):
        with pytest.raises(InputError):
            derivation_space(abelian(1, 1), 2)


def random_algebras(seed: int):
    rng = random.Random(seed)
    return [random_graded_algebra(rng, n0, n1, density)
            for n0, n1 in ((2, 1), (1, 2), (2, 2), (3, 2), (2, 3))
            for density in (0.2, 0.4)]


def one_nonzero_instances(fid: str, size: int):
    """The zero instance, then one instance per parameter set to 1."""
    names = parameter_names(fid, size)
    for hot in (None,) + names:
        yield build(fid, size, {p: int(p == hot) for p in names})


class TestAgainstOracles:
    def test_recheck_agrees_with_the_product_oracle(self):
        """Every basis matrix, the zero map, and each of them perturbed in
        one grading-compatible entry: the re-check says yes exactly when
        the product-based evaluation finds no residual."""
        rng = random.Random(71)
        catalog = [build("N2M", 5), build("L", 5, zeros("L", 5)),
                   build("H", 5, {**zeros("H", 5), "delta": 1}),
                   build("G", 4, zeros("G", 4)),
                   build("M", 5, {**zeros("M", 5), "theta": 1})]
        verdicts = set()
        for a in random_algebras(53) + catalog:
            for degree in (EVEN, ODD):
                allowed = [(l, k) for l in range(a.dim) for k in range(a.dim)
                           if a.parity(l) == (a.parity(k) + degree) % 2]
                zero = RatMatrix.zeros(a.dim, a.dim)
                for m in (zero,) + derivation_space(a, degree).basis:
                    grid = [list(r) for r in m.entries]
                    l, k = rng.choice(allowed)
                    grid[l][k] += rng.choice((-2, -1, 1, Fraction(1, 2)))
                    for matrix in (m, RatMatrix.from_rows(grid)):
                        verdict = is_derivation(a, matrix, degree)
                        residuals = derivation_residuals(a, matrix, degree)
                        assert verdict == (not residuals), (a.name, degree, grid)
                        verdicts.add(verdict)
        assert verdicts == {True, False}

    @staticmethod
    def assert_spans_oracle_kernel(a, degree):
        width = a.dim * a.dim

        def canonical(vectors):
            reduced, _ = dense_rref([list(v) for v in vectors], width)
            return [row for row in reduced if any(row)]

        got = [[x for row in m.entries for x in row]
               for m in derivation_space(a, degree).basis]
        assert canonical(got) == canonical(dense_derivation_kernel(a, degree)), \
            (a.name, a.dim, degree)

    @pytest.mark.parametrize("fid", ["L", "M", "H", "G"])
    def test_assembly_spans_the_dense_oracle_kernel(self, fid):
        for size in (4, 5):
            for a in one_nonzero_instances(fid, size):
                for degree in (EVEN, ODD):
                    self.assert_spans_oracle_kernel(a, degree)

    def test_assembly_on_random_algebras(self):
        for a in random_algebras(59):
            for degree in (EVEN, ODD):
                self.assert_spans_oracle_kernel(a, degree)


class TestNilpotencyCertificates:
    def test_single_strictly_triangular_matrix(self):
        from superalg.derivations import DerivationSpace
        m = RatMatrix.from_rows([[0, 1], [0, 0]])
        space = DerivationSpace(EVEN, (m,), 2)
        cert = space_all_nilpotent(space)
        assert cert.all_nilpotent

    def test_nonzero_parameter_instance_is_all_nilpotent(self):
        params = zeros("L", 6)
        params["alpha4"] = 1
        space = derivation_space(build("L", 6, params), EVEN)
        assert space_all_nilpotent(space).all_nilpotent

    def test_split_beta_family_is_not_all_nilpotent(self):
        space = derivation_space(build("H", 5, zeros("H", 5)), EVEN)
        cert = space_all_nilpotent(space)
        assert not cert.all_nilpotent
        assert cert.witness is not None and any(cert.witness.diagonal())

    def test_non_triangular_closure_path(self):
        from superalg.derivations import DerivationSpace
        # nilpotent but not triangular: closure certifies it
        m = RatMatrix.from_rows([[1, -1], [1, -1]])
        cert = space_all_nilpotent(DerivationSpace(EVEN, (m,), 2))
        assert cert.all_nilpotent and cert.method == "associative-closure"


class TestNilIndependence:
    @pytest.mark.parametrize("fid,size,expected", [
        ("H", 4, 2), ("H", 5, 2), ("H", 6, 2),
        ("G", 4, 2), ("G", 5, 2), ("G", 6, 2),
        ("L", 4, 1), ("L", 5, 1), ("L", 6, 1),
        ("M", 4, 1), ("M", 5, 1), ("M", 6, 1),
    ])
    def test_zero_instances(self, fid, size, expected):
        space = derivation_space(build(fid, size, zeros(fid, size)), EVEN)
        report = max_nil_independent(space)
        assert report.max_count == expected
        assert len(report.witnesses) == expected
        diag_rows = [list(w.diagonal()) for w in report.witnesses]
        assert bareiss_rank(diag_rows) == expected

    @pytest.mark.parametrize("size", [4, 5, 6])
    @pytest.mark.parametrize("slot", ["alpha4", "theta"])
    def test_nonzero_alpha_family_instances_have_none(self, size, slot):
        params = zeros("L", size)
        params[slot] = 1
        space = derivation_space(build("L", size, params), EVEN)
        assert max_nil_independent(space).max_count == 0

    def test_adding_a_nilpotent_matrix_never_increases_the_count(self):
        from superalg.derivations import DerivationSpace
        space = derivation_space(build("H", 5, zeros("H", 5)), EVEN)
        base = max_nil_independent(space).max_count
        dim = space.basis[0].rows
        extra = [[Fraction(0)] * dim for _ in range(dim)]
        extra[3][1] = Fraction(7)  # strictly lower triangular, nilpotent
        bigger = DerivationSpace(EVEN, space.basis + (
            RatMatrix(dim, dim, tuple(tuple(r) for r in extra)),), dim)
        assert max_nil_independent(bigger).max_count == base

    def test_non_triangular_input_is_unsupported(self):
        from superalg.derivations import DerivationSpace
        m = RatMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(UnsupportedShapeError):
            max_nil_independent(DerivationSpace(EVEN, (m,), 2))


class TestExtendability:
    def test_published_examples(self):
        assert extendability("H", 6, {"delta": 1}).verdict == "extendable"
        r = extendability("H", 6, {"beta4": 1, "beta5": 1})
        assert r.verdict == "not-extendable"
        assert extendability("M", 5, {"theta": 1}).verdict == "not-extendable"

    def test_parity_gate_for_the_middle_beta_gamma_pattern(self):
        odd = extendability("H", 7, {"beta5": 1, "gamma": 1})
        even = extendability("H", 6, {"beta5": 1, "gamma": 1})
        assert odd.verdict == "extendable" and odd.matches_prediction
        assert even.verdict == "not-extendable" and even.matches_prediction

    def test_small_size_flagged_instead_of_matched(self):
        r = extendability("L", 3, {"theta": 1})
        assert "corollary-precondition-unclear" in r.flags
        assert r.matches_prediction is None

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            extendability("N2M", 5, {})

    def test_value_magnitude_is_irrelevant(self):
        a = extendability("H", 6, {"beta4": 1})
        b = extendability("H", 6, {"beta4": Fraction(-7, 3)})
        assert a.verdict == b.verdict == "extendable"
