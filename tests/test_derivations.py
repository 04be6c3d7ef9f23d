"""Derivation-space solving, nil-independence, extendability."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superalg import (FAMILY_IDS, build, check_leibniz, derivations, family_info,
                      nilradical_spec, parameter_names)
from superalg.core import (EVEN, ODD, GradedVector, _integral_structure,
                           make_superalgebra, right_mul_cells)
from superalg.derivations import (_generating_set, _positions, derivation_space,
                                  is_derivation, max_nil_independent, same_span,
                                  space_all_nilpotent)
from superalg.families import CORRECTED, VERBATIM, sizes
from superalg.errors import InputError, UnsupportedShapeError
from superalg.exactmath import RatMatrix, sparse_kernel
from superalg.verify import (EXTENDABLE, corollary_patterns, extendability,
                             predicted_extendable)

from oracles import (bareiss_rank, cells_of, change_basis, dense_basis,
                     dense_derivation_kernel, dense_rref, derivation_residuals, diagonal,
                     from_rows, generated_dim, identity, instance, mat_add, mat_scale,
                     random_graded_algebra, random_parity_change, support_torus_dim)


def zeros(fid: str, size: int) -> dict[str, int]:
    return {p: 0 for p in parameter_names(fid, size)}


def abelian(n0, n1):
    return make_superalgebra("abelian", [f"e{i}" for i in range(1, n0 + 1)],
                             [f"y{i}" for i in range(1, n1 + 1)], [], {})


class TestSolver:
    def test_positions_follow_the_parity_rule(self):
        rng = random.Random(16)
        for _ in range(100):
            a = abelian(rng.randint(1, 5), rng.randint(0, 5))
            degree = rng.choice((EVEN, ODD))
            assert _positions(a, degree) == [
                (l, k) for l in range(a.dim) for k in range(a.dim)
                if a.parity(l) == (a.parity(k) + degree) % 2]

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
        assert is_derivation(a, cells_of(weight), EVEN)

    def test_nonzero_parameter_kills_the_weight_direction(self):
        params = zeros("L", 6)
        params["alpha4"] = 1
        a = build("L", 6, params)
        space = derivation_space(a, EVEN)
        assert space.dim == 5
        for m in dense_basis(space, a.dim):
            assert not any(diagonal(m))

    def test_every_solution_satisfies_the_identity(self):
        for fid, size, degree in (("N2M", 5, EVEN), ("N2M", 5, ODD),
                                  ("H", 4, EVEN), ("SL", 4, EVEN),
                                  ("G", 5, ODD)):
            a = build(fid, size, zeros(fid, size))
            for cells in derivation_space(a, degree).cells:
                assert is_derivation(a, cells, degree)

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
                rx = right_mul_cells(a, GradedVector.basis(a, label), range(a.dim))
                assert is_derivation(a, rx, EVEN), (fid, label)

    def test_right_multiplication_by_odd_elements_is_an_odd_derivation(self):
        a = build("N2M", 5)
        for label in a.odd_basis:
            rx = right_mul_cells(a, GradedVector.basis(a, label), range(a.dim))
            assert is_derivation(a, rx, ODD), label

    def test_bad_degree_rejected(self):
        with pytest.raises(InputError):
            derivation_space(abelian(1, 1), 2)

    def test_cells_outside_the_basis_are_input_errors(self):
        a = build("N2M", 3)
        for cell in ((-1, 0), (0, -1), (a.dim, 0), (0, a.dim), (a.dim, a.dim)):
            for degree in (EVEN, ODD):
                with pytest.raises(InputError, match="whole space"):
                    is_derivation(a, {(0, 0): 1, cell: 1}, degree)


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
                zero = RatMatrix.from_cells(a.dim, a.dim, {})
                for m in (zero,) + dense_basis(derivation_space(a, degree), a.dim):
                    grid = [list(r) for r in m.entries]
                    l, k = rng.choice(allowed)
                    grid[l][k] += rng.choice((-2, -1, 1, Fraction(1, 2)))
                    for matrix in (m, from_rows(grid)):
                        verdict = is_derivation(a, cells_of(matrix), degree)
                        residuals = derivation_residuals(a, matrix, degree)
                        assert verdict == (not residuals), (a.name, degree, grid)
                        verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_cell_recheck_agrees_with_the_product_oracle_where_a_scatter_can_miss(self):
        """Perturbations placed (a) in a column whose basis vector no product
        cell produces, so D([b_i, b_j]) never reads it, (b) in an odd basis
        column at degree 1, where the sign of [b_i, D b_j] acts, and (c)
        anywhere on the random tables: the cell re-check says yes exactly
        when the product-based evaluation finds no residual."""
        rng = random.Random(83)
        catalog = [build("N2M", 5), build("L", 5, zeros("L", 5)),
                   build("H", 5, {**zeros("H", 5), "delta": 1}),
                   build("G", 4, zeros("G", 4))]
        randoms = random_algebras(61)
        verdicts = set()
        placed = {"a": 0, "b": 0, "c": 0}
        for a in catalog + randoms:
            produced = {k for terms in a.structure.values() for k, _ in terms}
            for degree in (EVEN, ODD):
                allowed = [(l, k) for l in range(a.dim) for k in range(a.dim)
                           if a.parity(l) == (a.parity(k) + degree) % 2]
                sites = {"a": [p for p in allowed if p[1] not in produced],
                         "b": [p for p in allowed if degree and a.parity(p[1]) == ODD],
                         "c": allowed if a in randoms else []}
                for base in ({},) + derivation_space(a, degree).cells[:3]:
                    assert is_derivation(a, base, degree)
                    for kind, positions in sites.items():
                        for p in rng.sample(positions, min(2, len(positions))):
                            d = dict(base)
                            d[p] = d.get(p, 0) + rng.choice((-2, -1, 1, Fraction(1, 3)))
                            d = {q: x for q, x in d.items() if x}
                            verdict = is_derivation(a, d, degree)
                            residuals = derivation_residuals(
                                a, RatMatrix.from_cells(a.dim, a.dim, d), degree)
                            assert verdict == (not residuals), (a.name, degree, kind, d)
                            verdicts.add(verdict)
                            placed[kind] += 1
        assert verdicts == {True, False}
        assert all(placed.values()), placed

    @staticmethod
    def assert_spans_oracle_kernel(a, degree):
        width = a.dim * a.dim

        def canonical(vectors):
            reduced, _ = dense_rref([list(v) for v in vectors], width)
            return [row for row in reduced if any(row)]

        got = [[x for row in m.entries for x in row]
               for m in dense_basis(derivation_space(a, degree), a.dim)]
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

    @staticmethod
    def cancelling_entries(a, degree) -> int:
        """How many (equation, unknown) entries of the identity receive two
        or more nonzero terms that sum to 0, counted from the products of
        basis vectors: the entries an assembler must delete, not keep."""
        terms: dict[tuple, list] = {}
        sign = [(-1) ** (degree * a.parity(i)) for i in range(a.dim)]

        def add(entry, value):
            if a.parity(entry[3]) == (a.parity(entry[4]) + degree) % 2:
                terms.setdefault(entry, []).append(value)

        for (i, j), cell in a.structure.items():
            for k, c in cell:
                for l in range(a.dim):   # D([b_i, b_j]) ∋ c D[l, k] b_l
                    add((i, j, l, l, k), c)
                for p in range(a.dim):   # [D b_p, b_j] ∋ D[i, p] c b_k
                    add((p, j, k, i, p), -c)
                for p in range(a.dim):   # ±[b_i, D b_p] ∋ ±D[j, p] c b_k
                    add((i, p, k, j, p), -sign[i] * c)
        return sum(1 for values in terms.values() if len(values) > 1 and not sum(values))

    def test_assembly_deletes_cancelled_entries(self, monkeypatch):
        """On random tables with entries of ±1, where terms of the identity
        cancel on one (equation, unknown) entry: every row the kernel
        receives is nonempty with no zero entry, and the space is the dense
        oracle's kernel in both degrees."""
        received = []

        def recording_kernel(rows, width):
            rows = list(rows)
            received.extend(rows)
            return sparse_kernel(rows, width)

        monkeypatch.setattr(derivations, "sparse_kernel", recording_kernel)
        rng = random.Random(97)
        cancelling = {EVEN: 0, ODD: 0}
        for n0, n1 in ((2, 1), (1, 2), (2, 2), (3, 2), (2, 3)) * 4:
            a = random_graded_algebra(rng, n0, n1, 0.5, values=(1, -1))
            for degree in (EVEN, ODD):
                cancelling[degree] += bool(self.cancelling_entries(a, degree))
                received.clear()
                self.assert_spans_oracle_kernel(a, degree)
                assert received and all(row and all(row.values()) for row in received)
        assert min(cancelling.values()) >= 10, cancelling


def catalog_tables(fid: str, lo: int, hi: int):
    """Each distinct table of `fid` at the legal sizes in lo..hi, in both
    modes, at `instance` (domain-valid values, zero but for the few a
    domain forbids to be 0; t at its default) and at all ones."""
    seen = set()
    for size in sizes(fid, lo, hi):
        zero = instance(fid, size)
        for values in (zero, {**zero, **dict.fromkeys(parameter_names(fid, size), 1)}):
            for mode in (CORRECTED, VERBATIM):
                a = build(fid, size, values, mode)
                key = (a.n_even, a.n_odd, tuple(sorted(a.structure.items())))
                if key not in seen:
                    seen.add(key)
                    yield a


def flat_basis(space, n: int) -> list[tuple]:
    return [tuple(x for row in m.entries for x in row) for m in dense_basis(space, n)]


class TestGeneratorSubsystem:
    """`derivation_space` solves the rows whose right operand is in
    `_generating_set` first, and the whole system only when the recheck
    refutes that kernel."""

    @staticmethod
    def recording_kernels(monkeypatch) -> list:
        kernels = []

        def recording(rows, width):
            kernels.append(sparse_kernel(rows, width))
            return kernels[-1]

        monkeypatch.setattr(derivations, "sparse_kernel", recording)
        return kernels

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_catalog_spaces_are_the_dense_kernel_solved_once_under_leibniz(
            self, fid, monkeypatch):
        kernels = self.recording_kernels(monkeypatch)
        leibniz = 0
        for a in catalog_tables(fid, 3, 7):
            holds = not check_leibniz(a)
            leibniz += holds
            for degree in (EVEN, ODD):
                kernels.clear()
                assert flat_basis(derivation_space(a, degree), a.dim) == \
                    dense_derivation_kernel(a, degree), (a.name, degree)
                assert len(kernels) == 1 or not holds, (a.name, degree)
        assert leibniz

    def test_verbatim_m1_falls_back_to_the_whole_system(self, monkeypatch):
        a = build("M1", 5, None, VERBATIM)
        assert len(check_leibniz(a)) == 8
        kernels = self.recording_kernels(monkeypatch)
        for degree in (EVEN, ODD):
            kernels.clear()
            space = derivation_space(a, degree)
            assert len(kernels) == 2, degree
            assert flat_basis(space, a.dim) == dense_derivation_kernel(a, degree), degree

    def test_a_subsystem_kernel_larger_than_the_space_is_not_returned(self, monkeypatch):
        """On this random non-Leibniz table the generator rows leave a larger
        kernel in both degrees; the space returned is the whole system's."""
        a = random_graded_algebra(random.Random(2), 3, 2, 0.3)
        assert check_leibniz(a)
        kernels = self.recording_kernels(monkeypatch)
        for degree, first, last in ((EVEN, 8, 0), (ODD, 6, 1)):
            kernels.clear()
            space = derivation_space(a, degree)
            assert [len(k) for k in kernels] == [first, last], degree
            assert flat_basis(space, a.dim) == dense_derivation_kernel(a, degree), degree

    def test_the_generating_set_generates_the_algebra(self):
        rng = random.Random(7)
        tables = [a for fid in FAMILY_IDS for a in catalog_tables(fid, 3, 8)]
        tables += [random_graded_algebra(rng, n0, n1, density)
                   for n0, n1 in ((2, 1), (1, 2), (3, 2), (2, 3)) * 5
                   for density in (0.2, 0.5)]
        # e1 and e4 generate only e2 + e3 besides: [e2 + e3, e4] = 0
        tables.append(make_superalgebra(
            "two terms", ["e1", "e2", "e3", "e4"], [], [],
            {("e1", "e1"): [("e2", 1), ("e3", 1)], ("e2", "e4"): [("e3", 1)],
             ("e3", "e4"): [("e3", -1)]}))
        for a in tables:
            generators = _generating_set(_integral_structure(a), a.dim)
            assert generated_dim(a, [i for i, g in enumerate(generators) if g]) == a.dim, \
                (a.name, generators)


class TestNilpotencyCertificates:
    def test_single_strictly_triangular_matrix(self):
        from superalg.derivations import DerivationSpace
        m = from_rows([[0, 1], [0, 0]])
        assert space_all_nilpotent(DerivationSpace(EVEN, (cells_of(m),)))

    def test_nonzero_parameter_instance_is_all_nilpotent(self):
        params = zeros("L", 6)
        params["alpha4"] = 1
        space = derivation_space(build("L", 6, params), EVEN)
        assert space_all_nilpotent(space)

    def test_split_beta_family_is_not_all_nilpotent(self):
        space = derivation_space(build("H", 5, zeros("H", 5)), EVEN)
        assert not space_all_nilpotent(space)


class TestNilIndependence:
    @pytest.mark.parametrize("fid,size,expected", [
        ("H", 4, 2), ("H", 5, 2), ("H", 6, 2),
        ("G", 4, 2), ("G", 5, 2), ("G", 6, 2),
        ("L", 4, 1), ("L", 5, 1), ("L", 6, 1),
        ("M", 4, 1), ("M", 5, 1), ("M", 6, 1),
    ])
    def test_zero_instances(self, fid, size, expected):
        a = build(fid, size, zeros(fid, size))
        space = derivation_space(a, EVEN)
        report = max_nil_independent(space)
        assert report.max_count == expected
        assert len(report.witnesses) == expected
        n = a.dim
        diag_rows = [list(diagonal(RatMatrix.from_cells(n, n, w))) for w in report.witnesses]
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
        extra = {(3, 1): Fraction(7)}  # strictly lower, nilpotent
        bigger = DerivationSpace(EVEN, space.cells + (extra,))
        assert max_nil_independent(bigger).max_count == base

    # [[1, -1], [1, -1]] is nilpotent but not triangular.
    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[1, -1], [1, -1]]])
    @pytest.mark.parametrize("decide", [max_nil_independent, space_all_nilpotent])
    def test_non_triangular_input_is_unsupported(self, decide, rows):
        from superalg.derivations import DerivationSpace
        m = from_rows(rows)
        with pytest.raises(UnsupportedShapeError):
            decide(DerivationSpace(EVEN, (cells_of(m),)))


def _nilpotent_targets() -> dict[str, object]:
    """Every catalog family whose zero build is legal, at sizes 3..6: the
    algebra itself if nilpotent, else its nilradical (deduplicated)."""
    targets = {}
    for fid in FAMILY_IDS:
        info = family_info(fid)
        for size in sizes(fid, 3, 6):
            params = {**zeros(fid, size), **info.structural}
            try:
                algebra = build(fid, size, params)
            except InputError:
                continue   # H1, G1, G4, SH3 and SG2 need nonzero values
            if info.kind == "solvable":
                nil_id, values = nilradical_spec(fid, size, params)
                algebra = build(nil_id, size, values)
            targets.setdefault(algebra.name, algebra)
    return targets


_NIL_TARGETS = _nilpotent_targets()


class TestNilIndependenceOracle:
    @pytest.mark.parametrize("name", sorted(_NIL_TARGETS))
    def test_count_and_witnesses_match_the_dense_diagonal_rank(self, name):
        algebra = _NIL_TARGETS[name]
        dim = algebra.dim
        report = max_nil_independent(derivation_space(algebra, EVEN))
        # oracle count: diagonals of the dense kernel basis, by dense_rref
        kernel = dense_derivation_kernel(algebra, EVEN)
        diagonals = [[vec[p * dim + p] for p in range(dim)] for vec in kernel]
        assert report.max_count == len(dense_rref(diagonals, dim)[1])
        # oracle witnesses: the basis elements whose diagonal raises the
        # dense rank of the ones picked before, in basis order
        picked: list[list[Fraction]] = []
        witnesses = []
        for m in dense_basis(derivation_space(algebra, EVEN), dim):
            trial = picked + [list(diagonal(m))]
            if len(dense_rref(trial, dim)[1]) > len(picked):
                picked = trial
                witnesses.append(m)
        assert tuple(RatMatrix.from_cells(dim, dim, w)
                     for w in report.witnesses) == tuple(witnesses)
        assert report.max_count == len(witnesses)
        assert report.max_count == support_torus_dim(algebra)


def _dense_span(algebra, matrices) -> tuple:
    """Nonzero dense_rref rows of the flattened matrices, with the pivots."""
    dim = algebra.dim
    rows = [[m.entries[i][j] for i in range(dim) for j in range(dim)]
            for m in matrices]
    reduced, pivots = dense_rref(rows, dim * dim)
    return reduced[:len(pivots)], pivots


def _same_span(algebra, degree, left, right) -> bool:
    """`same_span` of two families of dense matrices, handed over as cells."""
    return same_span(algebra, degree, [cells_of(m) for m in left],
                     [cells_of(m) for m in right])


def _random_graded_matrix(rng, algebra, degree) -> RatMatrix:
    dim = algebra.dim
    return from_rows([
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
         if algebra.parity(l) == (algebra.parity(k) + degree) % 2
         and rng.random() < 0.5 else 0 for k in range(dim)]
        for l in range(dim)])


class TestSameSpanOracle:
    def test_random_families_agree_with_dense_rref(self):
        rng = random.Random(53)
        outcomes = set()
        for trial in range(80):
            algebra = abelian(rng.randint(1, 3), rng.randint(0, 3))
            degree = ODD if algebra.n_odd and trial % 2 else EVEN
            left = [_random_graded_matrix(rng, algebra, degree)
                    for _ in range(rng.randint(0, 4))]
            right = [_random_graded_matrix(rng, algebra, degree)
                     for _ in range(rng.randint(0, 4))]
            if trial % 3 == 0:   # equal spans, listed the other way round
                right = left[::-1]
            elif trial % 3 == 1:   # the left span, maybe enlarged
                right = left + right[:1]
            elif left:   # most often the same pivots but another span
                dim = algebra.dim
                last = max((l, k) for l in range(dim) for k in range(dim)
                           if algebra.parity(l) == (algebra.parity(k) + degree) % 2)
                right = left[:-1] + [mat_add(left[-1], _unit(dim, {last: 1}))]
            want = _dense_span(algebra, left) == _dense_span(algebra, right)
            assert _same_span(algebra, degree, left, right) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_reordered_rescaled_and_recombined_bases_span_the_same(self):
        rng = random.Random(59)
        for trial in range(40):
            algebra = abelian(rng.randint(1, 3), rng.randint(1, 3))
            degree = trial % 2
            left = [_random_graded_matrix(rng, algebra, degree)
                    for _ in range(rng.randint(1, 4))]
            right = [mat_scale(m, Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)))
                     for m in left]
            rng.shuffle(right)
            right.append(mat_add(left[0], mat_scale(left[-1], rng.randint(-2, 2))))
            assert _dense_span(algebra, left) == _dense_span(algebra, right)
            assert _same_span(algebra, degree, left, right)
            # adding a matrix changes the span unless it already lies in it
            extra = _random_graded_matrix(rng, algebra, degree)
            want = _dense_span(algebra, left) == _dense_span(algebra, left + [extra])
            assert _same_span(algebra, degree, left, left + [extra]) == want

    def test_unequal_spans(self):
        algebra = abelian(2, 1)
        a = _unit(algebra.dim, {(0, 0): 1})
        b = _unit(algebra.dim, {(1, 0): 1})
        assert not _same_span(algebra, EVEN, [a], [b])
        assert not _same_span(algebra, EVEN, [a], [a, b])
        # one pivot each, in the same column, but different lines
        c = _unit(algebra.dim, {(1, 1): 1})
        assert not _same_span(algebra, EVEN, [mat_add(a, c)], [mat_add(a, mat_scale(c, 2))])
        assert _same_span(algebra, EVEN, [a, b], [b, mat_add(a, b)])

    def test_empty_families(self):
        algebra = abelian(2, 1)
        zero = RatMatrix.from_cells(algebra.dim, algebra.dim, {})
        assert _same_span(algebra, EVEN, [], [])
        assert _same_span(algebra, EVEN, [], [zero, zero])
        assert not _same_span(algebra, EVEN, [], [_unit(algebra.dim, {(2, 2): 1})])

    def test_grading_incompatible_matrix_rejected(self):
        algebra = abelian(2, 1)
        even_map = _unit(algebra.dim, {(0, 0): 1})
        odd_map = _unit(algebra.dim, {(2, 0): 1})
        with pytest.raises(InputError, match="grading-compatible"):
            _same_span(algebra, EVEN, [even_map], [odd_map])
        with pytest.raises(InputError, match="grading-compatible"):
            _same_span(algebra, ODD, [odd_map], [even_map])
        with pytest.raises(InputError, match="whole space"):
            _same_span(algebra, EVEN, [even_map], [identity(4)])


def _unit(dim: int, entries: dict) -> RatMatrix:
    return from_rows([[entries.get((i, j), 0) for j in range(dim)]
                      for i in range(dim)])


class TestExtendability:
    def test_published_examples(self):
        assert extendability("H", 6, {"delta": 1}) == "extendable"
        assert extendability("H", 6, {"beta4": 1, "beta5": 1}) == "not-extendable"
        assert extendability("M", 5, {"theta": 1}) == "not-extendable"

    def test_parity_gate_for_the_middle_beta_gamma_pattern(self):
        pattern = {"beta5": 1, "gamma": 1}
        assert extendability("H", 7, pattern) == "extendable"
        assert predicted_extendable("H", 7, pattern)
        assert extendability("H", 6, pattern) == "not-extendable"
        assert not predicted_extendable("H", 6, pattern)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            extendability("N2M", 5, {})

    @pytest.mark.parametrize("raw", ["abc", "1/0", None, 0.1])
    def test_inexact_or_malformed_values_are_input_errors(self, raw):
        with pytest.raises(InputError, match="parameter delta: "):
            extendability("H", 6, {"delta": raw})

    def test_unspecified_parameters_are_zero(self):
        for fid in ("L", "M", "H", "G"):
            for pattern in corollary_patterns(fid, 5):
                assert extendability(fid, 5, pattern) \
                    == extendability(fid, 5, {**zeros(fid, 5), **pattern})
        assert extendability("H", 6, {"beta4": "2", "gamma": "0"}) \
            == extendability("H", 6, {"beta4": 2}) == "extendable"

    def test_unknown_parameter_is_rejected_by_build(self):
        with pytest.raises(InputError, match=r"unknown parameter 'x' \(expected one of: "):
            extendability("H", 6, {"x": 1})

    def test_value_magnitude_is_irrelevant(self):
        a = extendability("H", 6, {"beta4": 1})
        b = extendability("H", 6, {"beta4": Fraction(-7, 3)})
        assert a == b == "extendable"

    def test_non_triangular_corrected_space_is_unsupported(self):
        with pytest.raises(UnsupportedShapeError):
            max_nil_independent(derivation_space(
                build("M", 3, {"tau": 0, "theta": 1}, CORRECTED), EVEN))

    def test_verdict_matches_the_support_torus_on_the_pattern_lattice(self):
        """Every zero/nonzero pattern of L, M, H and G at sizes 4..6:
        extendable exactly when the diagonal torus read from the nonzero
        cells is not zero."""
        checked = 0
        for fid in ("L", "M", "H", "G"):
            for size in sizes(fid, 4, 6):
                names = parameter_names(fid, size)
                for mask in range(2 ** len(names)):
                    values = {p: (mask >> i) & 1 for i, p in enumerate(names)}
                    torus = support_torus_dim(
                        build(fid, size, values, VERBATIM))
                    verdict = extendability(fid, size, values)
                    assert (verdict == EXTENDABLE) == (torus > 0), (fid, size, values)
                    checked += 1
        assert checked == 168
