"""Superderivation spaces, nil-independence, and the extendability classifier.

A degree-s derivation is a linear map D with
``D([x,y]) = [D x, y] + (-1)^{s p} [x, D y]`` for x of parity p; even
derivations (s = 0) preserve parity, odd ones (s = 1) swap it.  The space is
computed as the exact kernel of the linear system over the grading-compatible
matrix entries, scattered from the nonzero constants of the algebra's integral
table (the kernel does not change when the bracket is scaled).  Each basis
element is held, from the kernel to the verdict, as its nonzero (l, k) cells;
a dense `RatMatrix` is built only where one is printed or returned
(`.basis`).  Every basis element is re-verified by
`is_derivation`, which scatters the identity over the nonzero product cells
and the nonzero entries of D, so its work grows with them rather than with
the basis pairs, and shares no code with the assembler (the two are separate
code paths on purpose).

That recheck also certifies a smaller system.  Only the equations whose right
operand lies in a generating set G of basis vectors are solved first.  Under
the Leibniz identity that `check_leibniz` tests, the right operands z on which
D satisfies the identity for every x are closed under the bracket, so G's
equations already cut out the whole space.  Their kernel contains the true
one in any case, since its equations are a subset, and the recheck proves the
converse; equal kernels give `sparse_kernel` the same pivot and free columns,
so the basis is the same cell for cell.  When the recheck fails (possible
only on a table that breaks the identity), the whole system is solved and
rechecked.

Nil-independence counting is implemented for simultaneously triangular
families only, where "some combination is nilpotent" is equivalent to "its
diagonal vanishes"; every derivation space produced by the built-in catalog is
triangular in the standard basis order.  Anything else raises
UnsupportedShapeError rather than approximating.

A nilpotent algebra is extendable (has a non-nilpotent solvable extension,
by Mubarakzjanov's method) exactly when the nil-independence count of its even
derivations is at least 1.  The classifier evaluates the family **as
tabulated** (verbatim mode): the derivation identity is well-defined for any
bilinear product, and the tabulated tables are the ones whose top-coefficient
parameters (alpha_n for the (n|n) alpha-family, gamma for the (n|n)
beta-family) act at all; see the errata ledger.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .core import EVEN, ODD, SuperAlgebra, _cells_by_operand
from .errors import InputError, InternalInconsistencyError, UnsupportedShapeError
from .exactmath import (Cells, RatMatrix, SparseRow, _reduce_into, _rref_rows,
                        check_cells, parameter_value, sparse_kernel)


def _positions(algebra: SuperAlgebra, degree: int) -> list[tuple[int, int]]:
    """Allowed matrix positions (l, k): parity(l) = parity(k) + degree mod 2,
    where b_i is odd exactly when i >= n_even."""
    n_even, dim, flip = algebra.n_even, algebra.dim, degree % 2
    return [(l, k) for l in range(dim) for k in range(dim)
            if ((l >= n_even) ^ (k >= n_even)) == flip]


class DerivationSpace(NamedTuple):
    """Exact basis of the degree-s derivation space of an algebra of
    dimension `algebra_dim`, each element held as its nonzero Fraction cells."""

    degree: int
    algebra_dim: int
    cells: tuple[dict[tuple[int, int], Fraction], ...]

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def basis(self) -> tuple[RatMatrix, ...]:
        """The basis elements as dense matrices, built on each read."""
        n = self.algebra_dim
        return tuple(RatMatrix.from_cells(n, n, c) for c in self.cells)


def is_derivation(algebra: SuperAlgebra, cells: Cells, degree: int) -> bool:
    """Direct check of D([b_i,b_j]) - [D b_i, b_j] - (-1)^{s p_i} [b_i, D b_j]
    = 0 for the map D given by its cells, scattered so that only terms that
    can be nonzero are formed: each nonzero product cell meets the nonzero
    entries of D's columns, and each nonzero entry D[m, i] meets the cells
    with b_m as left or as right operand; the residuals accumulate by
    (i, j, l), with no loop over the basis pairs.  In ints: the identity is
    linear in the bracket and in D, so it holds for them iff it holds for the
    integral table and for D times the lcm of its denominators.  A cell
    outside the basis is an InputError."""
    check_cells(algebra.dim, cells)
    scale = lcm(*[x.denominator for x in cells.values()])
    entries = [(l, k, x.numerator * (scale // x.denominator))
               for (l, k), x in cells.items() if x]
    columns: dict[int, list[tuple[int, int]]] = {}
    for l, k, d in entries:
        columns.setdefault(k, []).append((l, d))
    by_left, by_right = _cells_by_operand(algebra)
    odd_sign = degree == ODD
    n_even = algebra.n_even
    residual: defaultdict[tuple[int, int, int], int] = defaultdict(int)
    for (i, j), terms in algebra._integral_structure().items():
        for k, c in terms:   # D([b_i, b_j]) ∋ c D b_k
            for l, d in columns.get(k, ()):
                residual[i, j, l] += c * d
    for m, i, d in entries:
        for j, terms in by_left[m]:   # [D b_i, b_j] ∋ d [b_m, b_j]
            for l, c in terms:
                residual[i, j, l] -= d * c
        for a, terms in by_right[m]:   # (-1)^{s p_a} [b_a, D b_i] ∋ ±d [b_a, b_m]
            f = -d if odd_sign and a >= n_even else d
            for l, c in terms:
                residual[a, i, l] -= f * c
    return not any(residual.values())


def _generating_set(table: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
                    dim: int) -> list[bool]:
    """A set G of basis vectors that generates the algebra, as a mask: the
    vectors that are no component of any product, closed under the one-term
    products [b_i, b_j] = c b_k (then b_k = [b_i, b_j] / c is generated);
    while some vector is unreached, the first unreached one joins G and the
    closure runs again."""
    generators = [True] * dim
    one_term = []
    for (i, j), terms in table.items():
        for k, _ in terms:
            generators[k] = False
        if len(terms) == 1:
            one_term.append((i, j, terms[0][0]))
    reached = list(generators)
    while True:
        grew = True
        while grew:
            grew = False
            for i, j, k in one_term:
                if reached[i] and reached[j] and not reached[k]:
                    reached[k] = grew = True
        if all(reached):
            return generators
        first = reached.index(False)
        generators[first] = reached[first] = True


def derivation_space(algebra: SuperAlgebra, degree: int) -> DerivationSpace:
    """Exact kernel of the derivation conditions over grading-compatible
    maps, assembled from the integral table (scaling the bracket by a
    nonzero constant scales every condition, so the kernel is the same).
    The rows whose right operand is in `_generating_set` are solved first,
    the whole system only when the recheck refutes their kernel."""
    if degree not in (EVEN, ODD):
        raise InputError("degree must be 0 (even) or 1 (odd)")
    table = algebra._integral_structure()
    dim = algebra.dim
    parity = [algebra.parity(i) for i in range(dim)]
    of_parity = [[i for i in range(dim) if parity[i] == p] for p in (EVEN, ODD)]
    positions = _positions(algebra, degree)
    col = [[-1] * dim for _ in range(dim)]   # col[l][k]: the column of unknown D[l, k]
    for idx, (l, k) in enumerate(positions):
        col[l][k] = idx

    # Under the Leibniz identity [x,[y,z]] = [[x,y],z] - (-1)^{pq}[[x,z],y]
    # (`check_leibniz`), the right operands z on which D satisfies the
    # derivation identity for every x are closed under the bracket: expand
    # D([x,[y,z]]) through the identity and each term has y or z on the
    # right.  So the rows whose right operand is a generator already have
    # the derivation space as their kernel; each such row is built complete,
    # and the recheck below certifies the kernel.
    for right in (_generating_set(table, dim), [True] * dim):
        right_of_parity = [[j for j in part if right[j]] for part in of_parity]
        # Each product [b_a, b_b] ∋ c b_k enters three terms of the identity.
        # Row (i, j, l), component l on the pair (b_i, b_j), is keyed
        # (i * dim + j) * dim + l; terms are added inline (no call per term),
        # and an entry that cancels is deleted.
        rows: dict[int, SparseRow] = {}
        get = rows.get
        for (a, b), terms in table.items():
            sign = -1 if (degree and parity[a]) else 1
            col_a, col_b, pair, on_right = col[a], col[b], (a * dim + b) * dim, right[b]
            for k, c in terms:
                if on_right:
                    # D([b_a, b_b]): unknown D[l, k] on component l.
                    for l in of_parity[(parity[k] + degree) % 2]:
                        x, key = col[l][k], pair + l
                        r = get(key)
                        if r is None:
                            rows[key] = {x: c}
                        elif new := r.get(x, 0) + c:
                            r[x] = new
                        else:
                            del r[x]
                    # [D b_i, b_b] with D b_i ∋ D[a, i] b_a: on pair (i, b).
                    for i in of_parity[(parity[a] + degree) % 2]:
                        x, key = col_a[i], (i * dim + b) * dim + k
                        r = get(key)
                        if r is None:
                            rows[key] = {x: -c}
                        elif new := r.get(x, 0) - c:
                            r[x] = new
                        else:
                            del r[x]
                # (-1)^{s p_a} [b_a, D b_j] with D b_j ∋ D[b, j] b_b: on pair (a, j).
                f = -sign * c
                for j in right_of_parity[(parity[b] + degree) % 2]:
                    x, key = col_b[j], (a * dim + j) * dim + k
                    r = get(key)
                    if r is None:
                        rows[key] = {x: f}
                    elif new := r.get(x, 0) + f:
                        r[x] = new
                    else:
                        del r[x]

        kernel = sparse_kernel((r for r in rows.values() if r), len(positions))
        space = DerivationSpace(degree, dim, tuple(
            {positions[column]: x for column, x in vec.items()} for vec in kernel))
        if all(is_derivation(algebra, cells, degree) for cells in space.cells):
            return space
    raise InternalInconsistencyError(
        f"solver output fails the degree-{degree} derivation identity "
        f"on {algebra.name!r}")


def same_span(algebra: SuperAlgebra, degree: int,
              left: Sequence[Cells], right: Sequence[Cells]) -> bool:
    """Exact subspace equality of two families of maps, given by their cells:
    their canonical reduced rows over the grading-compatible entries agree.
    A cell outside the basis, or a nonzero one anywhere the grading forbids,
    is an InputError."""
    index = {p: idx for idx, p in enumerate(_positions(algebra, degree))}

    def vectorize(family: Sequence[Cells]) -> list[SparseRow]:
        rows = []
        for cells in family:
            check_cells(algebra.dim, cells)
            if any(x and p not in index for p, x in cells.items()):
                raise InputError("matrix is not grading-compatible")
            rows.append({index[p]: x for p, x in cells.items() if x})
        return rows

    return _rref_rows(vectorize(left)) == _rref_rows(vectorize(right))


# ---------------------------------------------------------------------------
# Nil-independence
# ---------------------------------------------------------------------------

class NilIndependenceReport(NamedTuple):
    """Maximal number of nil-independent elements of a derivation space;
    the witnesses are basis elements of the space, as their cells."""

    max_count: int
    witnesses: tuple[Cells, ...]


def _simultaneously_triangular(family: Sequence[Cells]) -> bool:
    # One shared orientation; raising operators in the standard basis order
    # sit below the diagonal, so catalog spaces are lower triangular.
    nonzero = [p for cells in family for p, x in cells.items() if x]
    return all(l >= k for l, k in nonzero) or all(l <= k for l, k in nonzero)


def max_nil_independent(space: DerivationSpace) -> NilIndependenceReport:
    """Diagonal rank of a simultaneously triangular derivation family.

    For triangular matrices a combination is nilpotent exactly when its
    diagonal vanishes, so the maximal nil-independent count is the rank of
    the stacked diagonals.  The witnesses are the basis elements whose
    diagonal is independent of the earlier ones, in basis order; there are
    exactly that rank of them.  Non-triangular input raises
    UnsupportedShapeError (never approximated).
    """
    if not _simultaneously_triangular(space.cells):
        raise UnsupportedShapeError(
            "nil-independence is only decided for simultaneously triangular "
            "derivation families")
    echelon: dict[int, SparseRow] = {}
    witnesses = tuple(
        cells for cells in space.cells
        if _reduce_into(echelon, {l: x for (l, k), x in cells.items() if l == k and x}))
    return NilIndependenceReport(len(witnesses), witnesses)


# Kept by name: perfbench's tracer times the classifier's decision through it.
def space_all_nilpotent(space: DerivationSpace) -> bool:
    """Whether every element of the span is nilpotent, i.e. the space has no
    nil-independent element.  A non-triangular space raises
    UnsupportedShapeError, as in `max_nil_independent`."""
    return max_nil_independent(space).max_count == 0


# ---------------------------------------------------------------------------
# Extendability classifier
# ---------------------------------------------------------------------------

EXTENDABLE = "extendable"
NOT_EXTENDABLE = "not-extendable"

# The nilpotent families with a derivation proposition and an extendability
# table, in claim order.
CLASSIFIER_FAMILIES = ("L", "M", "H", "G")


def predicted_extendable(family_id: str, n: int,
                         values: Mapping[str, Fraction]) -> bool:
    """The zero/nonzero-pattern table of admissible nilradical parameters.

    For the two beta-families the single-nonzero-gamma pattern is admissible
    (the corresponding one-dimensional extensions exist); the displayed
    tables subsume it under their last row.
    """
    if family_id not in CLASSIFIER_FAMILIES:
        raise InputError(f"no extendability table for family {family_id!r}")
    nonzero = {name for name, v in values.items() if v != 0}
    if family_id in ("L", "M"):
        return not nonzero
    betas = sorted(int(name[4:]) for name in nonzero if name.startswith("beta"))
    rest = {name for name in nonzero if not name.startswith("beta")}
    if not nonzero:
        return True
    if len(betas) >= 2:
        return False
    if len(betas) == 1:
        t = betas[0]
        if not rest:
            return True
        if rest == {"gamma"}:
            return n % 2 == 1 and t == (n + 3) // 2
        return False
    if rest == {"delta"} and family_id == "H":
        return True
    if rest == {"gamma"}:
        return True
    return False


class ExtendabilityResult(NamedTuple):
    family_id: str
    size: int
    values: tuple[tuple[str, str], ...]
    verdict: str
    predicted: bool | None
    matches_prediction: bool | None
    flags: tuple[str, ...]


def extendability(family_id: str, n: int,
                  params: Mapping[str, object] | None = None) -> ExtendabilityResult:
    """Classify whether a nilpotent family instance admits a non-nilpotent
    solvable extension: extendable iff the even derivations' nil-independence
    count is >= 1.  A non-triangular space raises UnsupportedShapeError.

    Unspecified parameters default to zero.  The verdict is compared against
    the zero/nonzero-pattern prediction table; for the (n|n-1) alpha-family
    at n = 3 the prediction's derivation constraint degenerates, so the
    result is flagged instead of matched.  The table is built verbatim.
    """
    from . import families  # only the classifier builds catalog tables

    if family_id not in CLASSIFIER_FAMILIES:
        raise InputError(
            f"extendability is defined for the nilpotent families "
            f"{', '.join(CLASSIFIER_FAMILIES)}; got {family_id!r}")
    values = {name: parameter_value(name, raw)
              for name, raw in families.zero_filled(family_id, n, params or {}).items()}
    algebra = families.build(family_id, n, values, families.VERBATIM)
    all_nilpotent = space_all_nilpotent(derivation_space(algebra, EVEN))
    verdict = NOT_EXTENDABLE if all_nilpotent else EXTENDABLE

    flags: tuple[str, ...] = ()
    predicted: bool | None = predicted_extendable(family_id, n, values)
    matches: bool | None = (verdict == EXTENDABLE) == predicted
    if family_id == "L" and n == 3:
        flags = ("corollary-precondition-unclear",)
        predicted = None
        matches = None
    return ExtendabilityResult(
        family_id=family_id,
        size=n,
        values=tuple((k, str(v)) for k, v in sorted(values.items()) if v != 0),
        verdict=verdict,
        predicted=predicted,
        matches_prediction=matches,
        flags=flags,
    )
