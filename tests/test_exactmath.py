"""Exact arithmetic and linear algebra against independent oracles."""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.errors import InputError
from superalg.exactmath import (MAX_DEGREE, MAX_EXPONENT, MAX_TERMS, Polynomial,
                                RatMatrix, _back_substitute, _echelon,
                                _reduce_into, nilpotent_jordan_type,
                                parse_coefficient, parse_rational,
                                rref, sparse_kernel)

from oracles import (bareiss_rank, cells_of, dense_kernel, dense_rref, echelon_kernel,
                     from_rows, identity, jordan_type_by_powers, mat_add, mat_apply,
                     mat_mul, mat_scale, widen)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))

# Python 3.10 before 3.10.7 has no int-string digit limit, so no literal is over it.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")


class TestRationals:
    def test_parse_format_roundtrip(self):
        for text in ("3", "-7", "1/2", "-22/7", "0"):
            assert str(parse_rational(text)) == text

    def test_parse_rejects_noise(self):
        for bad in ("1.5", "a", "1/2/3", ""):
            with pytest.raises(InputError):
                parse_rational(bad)

    @needs_digit_limit
    def test_literal_over_the_digit_limit_is_an_input_error(self):
        digits = max(5000, DIGIT_LIMIT + 1)
        big = "1" * digits
        for parse in (parse_rational, lambda t: parse_coefficient(t, ["a"])):
            for text in (big, f"-{big}", f"2/{big}"):
                with pytest.raises(InputError, match=f"{digits}-digit") as exc:
                    parse(text)
                assert big[:50] not in str(exc.value)
        for text in (f"2*{big}", f"a + {big}"):
            with pytest.raises(InputError, match=f"{digits}-digit"):
                parse_coefficient(text, ["a"])

    @given(rationals, rationals)
    def test_exactness(self, a, b):
        assert (a + b) - b == a
        p, q = a.numerator, a.denominator
        assert str(a) == str(Fraction(a)) == (str(p) if q == 1 else f"{p}/{q}")


def poly_from(entries, variables=("u", "v", "w")):
    return Polynomial(variables, entries)


polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    rationals, max_size=5).map(poly_from)
assignments = st.tuples(rationals, rationals, rationals).map(
    lambda t: {"u": t[0], "v": t[1], "w": t[2]})


class TestPolynomial:
    def test_zero_evaluates_to_zero(self):
        assert Polynomial.const(0, ("x",)).evaluate({}) == 0

    def test_single_variable_identity(self):
        p = Polynomial.var("alpha4", ("alpha4",))
        assert p.evaluate({"alpha4": Fraction(1)}) == 1

    def test_weight_constraint_value(self):
        # 2(i-2)*a1 - b2 at i=4 vanishes for b2 = 2(t-2)a1 with t = 4.
        variables = ("a1", "b2")
        p = (Polynomial.var("a1", variables) * Fraction(2 * (4 - 2))
             - Polynomial.var("b2", variables))
        assert p.evaluate({"a1": Fraction(1), "b2": Fraction(4)}) == 0
        assert p.evaluate({"a1": Fraction(1), "b2": Fraction(3)}) == 1

    def test_missing_variable_is_input_error(self):
        p = Polynomial.var("theta", ("theta",))
        with pytest.raises(InputError):
            p.evaluate({})

    def test_missing_variables_are_all_named(self):
        p = parse_coefficient("a*b^2 + d - 3", ("a", "b", "c", "d"))
        with pytest.raises(InputError) as err:
            p.evaluate({"b": Fraction(1), "c": Fraction(2)})
        assert str(err.value) == "assignment missing variables: a, d"

    def test_evaluate_matches_a_term_by_term_oracle(self):
        rng = random.Random(41)
        variables = ("a", "b", "c", "d")
        for _ in range(300):
            terms = {tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in variables):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 4))}
            point = {v: rng.choice((Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                    rng.randint(-3, 3))) for v in variables}
            want = Fraction(0)
            for exp, coeff in terms.items():
                for name, e in zip(variables, exp):
                    for _ in range(e):
                        coeff *= point[name]
                want += coeff
            got = Polynomial(variables, terms).evaluate(point)
            assert type(got) is Fraction and got == want

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, assignments)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, point):
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    def test_parser_round_trips_rendering(self):
        variables = ("alpha4", "theta")
        p = (Polynomial.var("alpha4", variables) * 2
             - Polynomial.const(Fraction(1, 2), variables)
             + Polynomial.var("theta", variables) * Polynomial.var("alpha4", variables))
        assert parse_coefficient(str(p), variables) == p

    def test_parser_examples(self):
        variables = ("alpha4", "beta5")
        p = parse_coefficient("2*alpha4 - 1/2", variables)
        assert p.evaluate({"alpha4": Fraction(1)}) == Fraction(3, 2)
        assert parse_coefficient("-beta5^2", variables) == \
            -(Polynomial.var("beta5", variables) * Polynomial.var("beta5", variables))

    def test_parser_rejects_undeclared_names(self):
        with pytest.raises(InputError):
            parse_coefficient("delta", ("alpha4",))

    def test_power_is_repeated_product(self):
        variables = ("a",)
        base = Polynomial.var("a", variables) + 1
        want = Polynomial.const(1, variables)
        for _ in range(5):
            want = want * base
        assert parse_coefficient("(a+1)^5", variables) == want
        assert parse_coefficient("(a+1)^0", variables) == 1
        assert parse_coefficient(f"a^{MAX_EXPONENT}", variables) == Polynomial(
            variables, {(MAX_EXPONENT,): Fraction(1)})

    def test_oversized_exponent_is_input_error_without_expanding(self):
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"limit of {MAX_EXPONENT}"):
            parse_coefficient("(a+1)^1000", ("a",))
        with pytest.raises(InputError, match=f"limit of {MAX_EXPONENT}"):
            parse_coefficient(f"2^{MAX_EXPONENT + 1}", ())
        assert time.perf_counter() - start < 1.0

    def test_total_degree_just_over_the_cap_is_input_error(self):
        variables = ("a", "b")
        at_cap = parse_coefficient(f"a^{MAX_DEGREE - 1}*b", variables)
        assert at_cap == Polynomial(variables, {(MAX_DEGREE - 1, 1): Fraction(1)})
        assert parse_coefficient("(a^5*b^7)^5 + 1", variables).terms[(25, 35)] == 1
        for text in (f"a^{MAX_DEGREE}*b", "(a^5*b^8)^5", f"b*(1 + a^{MAX_DEGREE})"):
            with pytest.raises(InputError, match=f"total degree {MAX_DEGREE + 1}, "
                                                 f"over the limit MAX_DEGREE = {MAX_DEGREE}"):
                parse_coefficient(text, variables)

    def test_expansion_just_over_the_term_cap_is_input_error_without_expanding(self):
        four = ("a", "b", "c", "d")
        at_cap = parse_coefficient("(a+b+c+d)^23", four)   # C(26, 3) terms
        assert len(at_cap.terms) == MAX_TERMS
        start = time.perf_counter()
        # C(27, 3) = 2,925 terms; the product's bound is C(28, 4) = 20,475
        for text in ("(a+b+c+d)^24", "(a+b+c+d)^12*(a+b+c+d)^12",
                     "2*(a+b+c+d+a*b)^24 - 1"):
            with pytest.raises(InputError, match=f"over the limit MAX_TERMS = {MAX_TERMS}"):
                parse_coefficient(text, four)
        assert time.perf_counter() - start < 0.5
        # 91 x 91 products of terms, but at most C(26, 2) = 325 monomials of
        # degree <= 24 in a and b: the smaller bound admits it
        assert len(parse_coefficient("(a+b+1)^12*(a+b+1)^12", four).terms) == 325
        assert parse_coefficient("0^0", four) == 1

    def test_every_catalog_coefficient_is_far_under_the_term_cap(self):
        from superalg import CORRECTED, FAMILY_IDS, VERBATIM, build, family_info
        from superalg.families import sizes
        widest = 0
        for fid in FAMILY_IDS:
            structural = dict(family_info(fid).structural) or None
            for size in sizes(fid, 3, 9):
                for mode in (CORRECTED, VERBATIM):
                    for terms in build(fid, size, structural, mode).structure.values():
                        widest = max([widest] + [len(c.terms) for _, c in terms
                                                 if isinstance(c, Polynomial)])
        assert 1 <= widest <= MAX_TERMS // 1000

    def test_every_catalog_sdf_reparses_under_the_exponent_cap(self):
        from superalg import CORRECTED, FAMILY_IDS, VERBATIM, build, family_info
        from superalg.core import sdf_dumps, sdf_loads
        from superalg.families import sizes
        checked = 0
        for fid in FAMILY_IDS:
            info = family_info(fid)
            for size in sizes(fid, 3, 7):
                variants = ([{"t": t} for t in range(4, size + 1)]
                            if "t" in info.structural else [None])
                for params in variants:
                    for mode in (CORRECTED, VERBATIM):
                        algebra = build(fid, size, params, mode)
                        text = sdf_dumps(algebra)
                        assert sdf_loads(text) == algebra, (fid, size, params, mode)
                        checked += 1
        assert checked > 2 * len(FAMILY_IDS)

    def test_substitute_partial(self):
        variables = ("a", "b")
        p = Polynomial.var("a", variables) * Polynomial.var("b", variables) + 3
        q = p.substitute({"a": Fraction(2)})
        assert q.variables == ("b",)
        assert q.evaluate({"b": Fraction(5)}) == 13


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


def sparse_rows(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m.entries]


def rank_and_kernel(m):
    """Rank as the number of rref pivots, kernel from the sparse engine."""
    return len(rref(m)[1]), widen(sparse_kernel(sparse_rows(m), m.cols), m.cols)


class TestRref:
    def test_from_rows_keeps_fractions_and_converts_the_rest(self):
        half = Fraction(1, 2)
        m = from_rows([[half, 3], [-1, 0]])
        assert m.entries[0][0] is half
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m.entries == ((half, Fraction(3)), (Fraction(-1), Fraction(0)))

    def test_from_cells_widens_and_fills_zeros(self):
        half = Fraction(1, 2)
        m = RatMatrix.from_cells(2, 3, {(0, 2): 3, (1, 0): half})
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m.entries == ((0, 0, 3), (half, 0, 0))
        assert m.entries[1][0] is half
        assert RatMatrix.from_cells(2, 3, {}).entries == ((0, 0, 0), (0, 0, 0))

    def test_zero_matrix(self):
        r, kernel = rank_and_kernel(RatMatrix.from_cells(3, 3, {}))
        assert r == 0 and len(kernel) == 3

    def test_identity(self):
        r, kernel = rank_and_kernel(identity(2))
        assert r == 2 and kernel == []

    def test_pivot_columns_strictly_increase(self):
        rng = random.Random(7)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            _, pivots = rref(m)
            assert list(pivots) == sorted(set(pivots))

    def test_rank_matches_fraction_free_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            m = random_matrix(rng, rows, cols)
            assert len(rref(m)[1]) == bareiss_rank([list(r) for r in m.entries])

    def test_kernel_is_a_kernel_and_dimensions_add_up(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            r, kernel = rank_and_kernel(m)
            assert r + len(kernel) == m.cols
            for vec in kernel:
                assert not any(mat_apply(m, vec))

    def test_kernel_agrees_with_echelon_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            _, kernel = rank_and_kernel(m)
            oracle = echelon_kernel([list(row) for row in m.entries], m.cols)
            assert len(kernel) == len(oracle)
            combined = [list(v) for v in kernel] + oracle
            assert bareiss_rank(combined) == len(kernel) if kernel else True

    def test_sparse_kernel_matches_dense(self):
        rng = random.Random(19)
        for _ in range(40):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_matrix(rng, rows, cols, -3, 3)
            got = sparse_kernel(sparse_rows(m), cols)
            assert widen(got, cols) == dense_kernel([list(r) for r in m.entries], cols)
            # the rref keeps the row space, so its kernel is the same
            assert got == sparse_kernel(sparse_rows(rref(m)[0]), cols)

    def test_sparse_kernel_ignores_row_order(self):
        rng = random.Random(23)
        for _ in range(60):
            cols = rng.randint(1, 10)
            grid = []
            for _ in range(rng.randint(1, 14)):
                density = rng.choice((0.1, 0.3, 1.0))
                grid.append([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             if rng.random() < density else Fraction(0)
                             for _ in range(cols)])
            rows = [{j: v for j, v in enumerate(row) if v} for row in grid]
            want = sparse_kernel(rows, cols)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert sparse_kernel(shuffled, cols) == want
            assert widen(want, cols) == dense_kernel(grid, cols)

    def test_rref_matches_dense_oracle(self):
        rng = random.Random(37)
        for trial in range(150):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            density = 1.0 if trial % 2 else 0.3
            grid = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     if rng.random() < density else Fraction(0)
                     for _ in range(cols)] for _ in range(rows)]
            if trial % 3 == 0:
                grid[rng.randrange(rows)] = [Fraction(0)] * cols
            if trial % 5 == 0:
                zero_col = rng.randrange(cols)
                for row in grid:
                    row[zero_col] = Fraction(0)
            m = from_rows(grid)
            want_rows, want_pivots = dense_rref(grid, cols)
            reduced, pivots = rref(m)
            assert pivots == want_pivots
            assert [list(r) for r in reduced.entries] == want_rows
            assert len(pivots) == bareiss_rank(grid)

    def test_stacked_right_annihilator_system_of_the_2_3_algebra(self):
        # rows of the linear system [b_i, z] = 0 over z, stacked over all i
        from superalg import build
        a = build("N2M", 3)
        table = a.structure
        rows = []
        for i in range(a.dim):
            for component in range(a.dim):
                row = [Fraction(0)] * a.dim
                hit = False
                for j in range(a.dim):
                    for k, c in table.get((i, j), ()):
                        if k == component:
                            row[j] = c
                            hit = True
                if hit:
                    rows.append(row)
        system = from_rows(rows)
        r, kernel = rank_and_kernel(system)
        assert len(kernel) == 1
        assert r == system.cols - 1
        assert bareiss_rank([list(x) for x in system.entries]) == r
        # the kernel line is the e2 coordinate axis
        vec = kernel[0]
        assert vec[1] != 0 and all(not v for idx, v in enumerate(vec) if idx != 1)


class TestJordanType:
    def test_zero_matrix(self):
        assert nilpotent_jordan_type(3, {}) == (1, 1, 1)

    def test_single_block(self):
        shift = {(i, i + 1): 1 for i in range(3)}
        assert nilpotent_jordan_type(4, shift) == (4,)

    def test_shift_on_the_odd_block_of_the_2_5_algebra(self):
        from superalg import build
        from superalg.core import GradedVector, right_mul_cells
        algebra = build("N2M", 5)
        block = right_mul_cells(algebra, GradedVector.basis(algebra, "e1"), range(2, 7))
        assert nilpotent_jordan_type(5, block) == (5,)
        assert jordan_type_by_powers(RatMatrix.from_cells(5, 5, block)) == (5,)

    def test_not_nilpotent_returns_none(self):
        assert nilpotent_jordan_type(3, {(i, i): 1 for i in range(3)}) is None

    def test_empty_and_one_by_one(self):
        assert nilpotent_jordan_type(0, {}) == ()
        assert nilpotent_jordan_type(1, {}) == (1,)
        for value in (1, -2, Fraction(1, 3)):
            assert nilpotent_jordan_type(1, {(0, 0): value}) is None
            assert jordan_type_by_powers(from_rows([[value]])) is None

    def test_rank_stalls_late_on_a_nilpotent_block_plus_a_unit(self):
        # J_k with some superdiagonal ones dropped, plus a 1x1 block (lam),
        # conjugated by a random unipotent P: the rank falls for as long as
        # the nilpotent part lasts, then stalls at 1.
        rng = random.Random(31)
        for trial in range(60):
            k = rng.randint(1, 7)
            lam = (Fraction(1), Fraction(-2), Fraction(1, 3))[trial % 3]
            dim = k + 1
            grid = [[Fraction(0)] * dim for _ in range(dim)]
            for i in range(k - 1):
                if rng.random() < 0.7:
                    grid[i][i + 1] = Fraction(1)
            grid[k][k] = lam
            lower = [[Fraction(rng.randint(-2, 2)) if j < i else Fraction(0)
                      for j in range(dim)] for i in range(dim)]
            # P = 1 + N with N strictly lower, so P^-1 = sum of (-N)^i.
            n = from_rows(lower)
            p = mat_add(identity(dim), n)
            p_inv, term = identity(dim), identity(dim)
            for _ in range(dim):
                term = mat_mul(term, mat_scale(n, -1))
                p_inv = mat_add(p_inv, term)
            assert mat_mul(p_inv, p) == identity(dim)
            m = mat_mul(mat_mul(p_inv, from_rows(grid)), p)
            assert nilpotent_jordan_type(dim, cells_of(m)) is None
            assert jordan_type_by_powers(m) is None

    def test_cell_outside_the_space_is_input_error(self):
        for size, cells in ((2, {(0, 2): 1}), (2, {(2, 0): 1}), (3, {(-1, 0): 1}),
                            (0, {(0, 0): 1}), (2, {(0, 5): 0})):
            with pytest.raises(InputError, match="whole space"):
                nilpotent_jordan_type(size, cells)

    def test_zero_columns_the_image_chain_reaches(self):
        # b_0 -> b_1 -> 0 with column 1 empty: the chain applies m to b_1
        assert nilpotent_jordan_type(2, {(1, 0): 1}) == (2,)
        assert nilpotent_jordan_type(3, {(1, 0): 1, (2, 0): 0}) == (2, 1)
        # sparse maps, permuted strictly triangular (so nilpotent) or not:
        # most have empty columns, and every type agrees with the oracle
        rng = random.Random(37)
        reached = 0
        for trial in range(120):
            size = rng.randint(0, 7)
            order = rng.sample(range(size), size)
            cells = {}
            for _ in range(rng.randint(0, size + 2)):
                l, k = rng.randrange(size or 1), rng.randrange(size or 1)
                if size and (l > k or trial % 4 == 0):
                    cells[order[l], order[k]] = rng.choice((1, -2, Fraction(1, 2)))
            empty = set(range(size)) - {k for _, k in cells}
            reached += any(l in empty for l, _ in cells)
            got = nilpotent_jordan_type(size, cells)
            assert got == jordan_type_by_powers(RatMatrix.from_cells(size, size, cells))
            assert got is not None or trial % 4 == 0
        assert reached > 20

    def test_matches_power_enumeration_oracle(self):
        from oracles import random_nilpotent_matrix
        rng = random.Random(29)
        for _ in range(60):
            dim = rng.randint(1, 8)
            m = random_nilpotent_matrix(rng, dim)
            got = nilpotent_jordan_type(dim, cells_of(m))
            want = jordan_type_by_powers(m)
            assert got == want
            assert got is not None
            assert sum(got) == dim
            assert list(got) == sorted(got, reverse=True)
            # the largest part is the nilpotency index
            power = identity(dim)
            for _ in range(got[0] - 1):
                power = mat_mul(power, m)
            zero = RatMatrix.from_cells(dim, dim, {})
            assert power != zero
            assert mat_mul(power, m) == zero


# -- the narrowed engine -------------------------------------------------------
#
# Inside the echelon engine integral values are ints; every public value is a
# Fraction.  The oracles below are fed Fractions only.

def fractions_only(values) -> bool:
    return all(type(x) is Fraction for x in values)


class TestFractionBoundary:
    # L(5) has half-integral constants, H(5) and G(5) a non-integral
    # parameter value, N2M(5) integral constants only.
    CASES = [("L", 5, {}), ("H", 5, {"gamma": Fraction(1, 3)}),
             ("G", 5, {"gamma": Fraction(-2, 5)}), ("N2M", 5, {})]

    @pytest.mark.parametrize("fid,size,extra", CASES)
    def test_no_int_leaves_the_engine(self, fid, size, extra):
        from superalg import build
        from superalg.core import (EVEN, ODD, GradedVector, derived_series,
                                   lower_central_series, right_annihilator,
                                   right_mul_cells)
        from superalg.derivations import (CLASSIFIER_FAMILIES, derivation_space,
                                          max_nil_independent)
        from superalg.verify import proposition_template_space
        from oracles import instance
        algebra = build(fid, size, {**instance(fid, size), **extra})

        # a system whose integral entries reach the engine as ints
        system = [dict(terms) for terms in algebra.structure.values()]
        assert any(type(x) is int for row in system for x in row.values())
        for vec in sparse_kernel(system, algebra.dim):
            assert fractions_only(vec.values())

        x = GradedVector.basis(algebra, algebra.labels[0])
        cells = right_mul_cells(algebra, x, range(algebra.dim))
        assert cells and fractions_only(cells.values())
        assert fractions_only(right_mul_cells(algebra, x, range(1, algebra.dim, 2)).values())
        rx = RatMatrix.from_cells(algebra.dim, algebra.dim, cells)
        reduced, _ = rref(rx)
        assert fractions_only(x for row in reduced.entries for x in row)

        for degree in (EVEN, ODD):
            space = derivation_space(algebra, degree)
            assert space.basis
            for m in space.basis:
                assert fractions_only(x for row in m.entries for x in row)
            # the cell basis: nonzero Fractions at grading-compatible
            # positions only, and the dense basis is built from it
            for cells in space.cells:
                assert cells and fractions_only(cells.values())
                assert all(cells.values())
                assert all(algebra.parity(l) == (algebra.parity(k) + degree) % 2
                           for l, k in cells)
            assert space.basis == tuple(RatMatrix.from_cells(algebra.dim, algebra.dim, c)
                                        for c in space.cells)
        for cells in max_nil_independent(derivation_space(algebra, EVEN)).witnesses:
            assert fractions_only(cells.values())

        subspaces = (lower_central_series(algebra) + derived_series(algebra)
                     + [right_annihilator(algebra)])
        for s in subspaces:
            for part in s.parts:
                assert fractions_only(x for _, row in part for _, x in row)
            assert fractions_only(x for view in (s.even, s.odd)
                                  for row in view.entries for x in row)

        if fid in CLASSIFIER_FAMILIES:
            templates = proposition_template_space(
                fid, size, {**instance(fid, size), **extra})
            assert templates
            for cells in templates:
                assert fractions_only(cells.values())

    @pytest.mark.parametrize("fid,size,mode", [
        ("M", 3, "verbatim"), ("SH4", 3, "verbatim"), ("M1", 3, "corrected")])
    def test_residual_values_hold_fractions(self, fid, size, mode):
        from superalg import build, family_info
        from superalg.core import check_leibniz, check_lie
        from oracles import instance
        structural = {k: v for k, v in instance(fid, size).items()
                      if k in family_info(fid).structural}
        algebra = build(fid, size, structural, mode)
        residuals = check_leibniz(algebra) + check_lie(algebra)
        assert residuals
        for r in residuals:
            assert fractions_only(r.value.terms.values())


# Integer-heavy entries, as the catalog's systems have them: ±1, other
# integers (negative and non-unit leads), integral Fractions such as
# Fraction(2, 1), which the engine clears like any other Fraction, and
# proper fractions over 2, 3, 4, 5 and 7, mixed in one row.
nonzero_ints = st.integers(-6, 6).filter(bool)
engine_entries = st.one_of(
    st.sampled_from([1, -1]), nonzero_ints, nonzero_ints.map(Fraction),
    st.builds(Fraction, nonzero_ints, st.sampled_from([2, 3, 4, 5, 7])))


@st.composite
def integer_heavy_systems(draw):
    """Sparse rows (col -> nonzero entry) over ncols columns; some rows repeat
    earlier ones exactly or as a multiple, as rows in derivation systems do."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), engine_entries,
                                         max_size=ncols), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.sampled_from([1, 1, -1, 2, -3, Fraction(-5, 7)]))
        rows.append({c: k * v for c, v in draw(st.sampled_from(rows)).items()})
    return rows, ncols


def as_fraction_grid(rows, ncols):
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


@st.composite
def integer_heavy_square_matrices(draw):
    """P^-1 (N + D) P with N strictly upper triangular, D zero or one nonzero
    diagonal entry, and P = 1 + L unipotent; integral entries alternate
    between int and Fraction.  Returns (mixed entries, Fraction matrix)."""
    dim = draw(st.integers(1, 6))
    zero_or_entry = st.one_of(st.just(0), st.just(0), engine_entries)
    grid = [[draw(zero_or_entry) if j > i else 0 for j in range(dim)] for i in range(dim)]
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        grid[i][i] = draw(engine_entries)
    lower = from_rows(
        [[draw(st.integers(-2, 2)) if j < i else 0 for j in range(dim)] for i in range(dim)])
    p = mat_add(identity(dim), lower)
    p_inv, term = identity(dim), identity(dim)
    for _ in range(dim):  # (1 + L)^-1 = sum of (-L)^i
        term = mat_mul(term, mat_scale(lower, -1))
        p_inv = mat_add(p_inv, term)
    m = mat_mul(mat_mul(p_inv, from_rows(grid)), p)
    mixed = tuple(tuple(x.numerator if x.denominator == 1 and (i + j) % 2 else x
                        for j, x in enumerate(row)) for i, row in enumerate(m.entries))
    return mixed, m


class TestNarrowedEngine:
    @settings(max_examples=200, deadline=None)
    @given(integer_heavy_systems())
    def test_sparse_kernel_matches_the_fraction_oracle(self, system):
        rows, ncols = system
        before = [dict(row) for row in rows]
        got = sparse_kernel(rows, ncols)
        assert rows == before  # the input is not consumed
        assert widen(got, ncols) == dense_kernel(as_fraction_grid(rows, ncols), ncols)
        assert all(fractions_only(vec.values()) for vec in got)

    @settings(max_examples=200, deadline=None)
    @given(integer_heavy_systems())
    def test_rref_of_mixed_entries_matches_the_fraction_oracle(self, system):
        rows, ncols = system
        grid = as_fraction_grid(rows, ncols)
        mixed = tuple(tuple(row.get(j, 0) for j in range(ncols)) for row in rows)
        reduced, pivots = rref(RatMatrix(len(rows), ncols, mixed))
        want_rows, want_pivots = dense_rref(grid, ncols)
        assert pivots == want_pivots
        assert [list(r) for r in reduced.entries] == want_rows
        assert all(fractions_only(r) for r in reduced.entries)

    @settings(max_examples=150, deadline=None)
    @given(integer_heavy_square_matrices())
    def test_jordan_type_of_mixed_entries_matches_the_power_oracle(self, pair):
        mixed, m = pair
        cells = {(i, j): x for i, row in enumerate(mixed) for j, x in enumerate(row) if x}
        assert nilpotent_jordan_type(m.rows, cells) == jordan_type_by_powers(m)


def assert_primitive_echelon(echelon):
    """Every stored row: keyed by its leading column, ints only, content 1,
    positive lead."""
    for c, row in echelon.items():
        assert min(row) == c
        assert all(type(x) is int for x in row.values()), row
        assert gcd(*row.values()) == 1 and row[c] > 0, row


class TestIntegerEngine:
    @settings(max_examples=200, deadline=None)
    @given(integer_heavy_systems())
    def test_forward_rows_are_primitive_and_monic_only_when_back_substituted(self, system):
        rows, ncols = system
        echelon = _echelon(dict(row) for row in rows)
        assert_primitive_echelon(echelon)
        pivots, reduced = _back_substitute(echelon)
        want_rows, want_pivots = dense_rref(as_fraction_grid(rows, ncols), ncols)
        assert pivots == want_pivots
        assert [[row.get(j, 0) for j in range(ncols)] for row in reduced] \
            == want_rows[:len(pivots)]

    def test_an_integral_fraction_row_is_cleared_like_an_int_row(self):
        # Fraction(2, 1) is integral but not an int: clearing it on entry
        # hands ints, never a Fraction, to gcd.
        echelon = _echelon([{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(-6), 2: 3}])
        assert echelon == {0: {0: 1, 1: 2}, 1: {1: 4, 2: 1}}
        assert_primitive_echelon(echelon)
        rows = [{0: Fraction(2)}, {0: Fraction(2), 1: Fraction(-4, 1)}]
        assert widen(sparse_kernel(rows, 3), 3) == dense_kernel(as_fraction_grid(rows, 3), 3)

    def test_negative_non_unit_leads_and_denominators_are_stored_primitive(self):
        echelon = _echelon([{1: -4, 2: 6}, {0: Fraction(-3, 5), 2: Fraction(6, 7)},
                            {1: Fraction(2, 3), 2: -1}, {1: -4, 2: 6}])
        # -4, 6 -> 2, -3; -3/5, 6/7 -> -21, 30 -> 7, -10; the repeat reduces to zero
        assert echelon == {0: {0: 7, 2: -10}, 1: {1: 2, 2: -3}}
        pivots, reduced = _back_substitute(echelon)
        assert pivots == (0, 1)
        assert reduced == [{0: 1, 2: Fraction(-10, 7)}, {1: 1, 2: Fraction(-3, 2)}]


def hard_kernel_system(rng):
    """Sparse rows over ncols columns with Fraction and non-unit integer
    entries, exact repeats, rows in the span of earlier ones (which reduce
    to zero) and columns that no row touches; sometimes no rows at all."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.choice((0, rng.randint(1, 7)))):
        cols = rng.sample(range(ncols), rng.randint(1, ncols))
        rows.append({c: rng.choice((Fraction(rng.choice((-9, -4, 2, 3, 6)), rng.randint(1, 5)),
                                    rng.choice((-3, -1, 1, 2, 5, 12))))
                     for c in sorted(cols, reverse=rng.random() < 0.5)})
    for _ in range(rng.randint(0, 3) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append(dict(a))
        combo = {c: 3 * a.get(c, 0) - Fraction(2, 7) * b.get(c, 0) for c in {*a, *b}}
        rows.append({c: x for c, x in combo.items() if x})
    rng.shuffle(rows)
    return rows, ncols


class TestKernelBackSolve:
    def test_matches_the_dense_oracle_entry_for_entry_in_key_order(self):
        rng = random.Random(2026)
        for _ in range(400):
            rows, ncols = hard_kernel_system(rng)
            got = sparse_kernel([dict(row) for row in rows], ncols)
            want = [[(c, x) for c, x in enumerate(vec) if x]
                    for vec in dense_kernel(as_fraction_grid(rows, ncols), ncols)]
            assert [list(vec.items()) for vec in got] == want
            assert all(fractions_only(vec.values()) for vec in got)

    def test_no_rows_gives_the_unit_vectors(self):
        assert sparse_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
        assert sparse_kernel([{1: Fraction(2, 3)}, {}], 3) == [{0: 1}, {2: 1}]

    def test_kernels_never_build_the_canonical_form(self, monkeypatch):
        import superalg.core as core
        import superalg.exactmath as exactmath
        from superalg.core import right_annihilator
        from superalg.derivations import EVEN, derivation_space, extendability
        from superalg.families import build

        def refuse(echelon):
            raise AssertionError("the canonical form was built")

        monkeypatch.setattr(exactmath, "_back_substitute", refuse)
        monkeypatch.setattr(core, "_back_substitute", refuse)
        assert sparse_kernel([{0: 2, 1: -3}], 2) == [{0: Fraction(3, 2), 1: 1}]
        a = build("N2M", 3)
        assert derivation_space(a, EVEN).dim > 0
        assert right_annihilator(a).dims() == (1, 0)
        assert extendability("H", 6, {"delta": 1}).verdict == "extendable"


def presolve_system(rng):
    """Rows over ncols columns built to exercise the kernel presolve: a chain
    of rows {c0}, {c0, c1}, {c1, c2}, ... whose pins cascade over one round
    per link, exact and scaled repeats, rows that empty out once their
    columns are pinned, and free rows on the rest; entries mix int,
    integral Fraction and Fraction.  Returns (rows, ncols, chain length)."""
    def entry():
        return rng.choice((rng.choice((-3, -1, 1, 2, 7)), Fraction(rng.choice((-4, 2, 6)), 1),
                           Fraction(rng.choice((-5, 1, 3)), rng.randint(2, 6))))

    ncols = rng.randint(4, 12)
    cols = rng.sample(range(ncols), ncols)
    chain = rng.randint(3, min(ncols, 6)) if rng.random() < 0.9 else ncols
    rows = [{cols[0]: entry()}]
    rows += [{cols[i - 1]: entry(), cols[i]: entry()} for i in range(1, chain)]
    pinned = cols[:chain]
    for _ in range(rng.randint(0, 3)):   # empties out: only pinned columns
        rows.append({c: entry() for c in rng.sample(pinned, rng.randint(1, 3))})
    for _ in range(rng.randint(0, 4)):   # free rows, touching pins or not
        support = rng.sample(range(ncols), rng.randint(2, min(ncols, 4)))
        rows.append({c: entry() for c in support})
    for _ in range(rng.randint(1, 4)):   # exact and scaled repeats
        row = rng.choice(rows)
        k = rng.choice((1, 1, -2, Fraction(3, 5)))
        rows.append({c: x * k for c, x in row.items()})
    rows.append({})
    rng.shuffle(rows)
    return rows, ncols, chain


class TestKernelPresolve:
    def test_matches_the_dense_oracle_entry_for_entry_in_key_order(self):
        rng = random.Random(27)
        every_column_pinned = 0
        for _ in range(400):
            rows, ncols, chain = presolve_system(rng)
            assert chain >= 3
            copies = [dict(row) for row in rows]
            got = sparse_kernel(copies, ncols)
            assert copies == rows   # the caller's rows are not consumed
            want = [[(c, x) for c, x in enumerate(vec) if x]
                    for vec in dense_kernel(as_fraction_grid(rows, ncols), ncols)]
            assert [list(vec.items()) for vec in got] == want
            assert all(fractions_only(vec.values()) for vec in got)
            every_column_pinned += chain == ncols
        assert every_column_pinned > 10

    def test_pins_cascade_before_the_forward_pass(self, monkeypatch):
        import superalg.exactmath as exactmath
        reduced = []

        def counting(pivots, row):
            reduced.append(dict(row))
            return _reduce_into(pivots, row)

        monkeypatch.setattr(exactmath, "_reduce_into", counting)
        chain = [{0: 2}, {0: 1, 1: Fraction(1, 3)}, {1: -1, 2: 5}, {2: 3, 3: 1}]
        assert sparse_kernel(chain, 4) == [] and reduced == []
        assert sparse_kernel(chain[1:], 4) == [
            {0: Fraction(5, 9), 1: Fraction(-5, 3), 2: Fraction(-1, 3), 3: 1}]
        reduced.clear()
        repeats = [{0: 1, 1: 2}, {0: 1, 1: 2}, {0: Fraction(3), 1: 6}, {2: 4}, {2: 1, 3: 1}]
        assert sparse_kernel(repeats, 4) == [{0: -2, 1: 1}]
        assert reduced == [{0: 1, 1: 2}, {0: 1, 1: 2}, {0: 3, 1: 6}]


class TestIntegralPivots:
    def test_stored_pivots_are_ints_after_mixed_rows(self):
        rng = random.Random(41)
        for _ in range(200):
            ncols, pivots = rng.randint(1, 8), {}
            for _ in range(rng.randint(1, 10)):
                support = rng.sample(range(ncols), rng.randint(1, ncols))
                _reduce_into(pivots, {c: rng.choice((rng.choice((-6, -2, 1, 3, 4)), Fraction(
                    rng.choice((-5, 1, 2, 6)), rng.randint(1, 4)))) for c in support})
                assert all(type(x) is int for row in pivots.values() for x in row.values())
                assert all(row[c] > 0 and min(row) == c for c, row in pivots.items())
