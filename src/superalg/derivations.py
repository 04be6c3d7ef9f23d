"""Superderivation spaces, nil-independence, and the extendability classifier.

A degree-s derivation is a linear map D with
``D([x,y]) = [D x, y] + (-1)^{s p} [x, D y]`` for x of parity p; even
derivations (s = 0) preserve parity, odd ones (s = 1) swap it.  The space is
computed as the exact kernel of the linear system over the grading-compatible
matrix entries, scattered from the nonzero constants of the algebra's integral
table (the kernel does not change when the bracket is scaled).  Every
returned basis matrix is re-verified by `is_derivation`, a sparse evaluation
of the identity on every ordered basis pair that shares no code with the
assembler (the two are separate code paths on purpose).

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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .core import EVEN, ODD, SuperAlgebra
from .errors import InputError, InternalInconsistencyError, UnsupportedShapeError
from .exactmath import (RatMatrix, SparseRow, _reduce_into, _rref_rows,
                        parameter_value, sparse_kernel)


def _positions(algebra: SuperAlgebra, degree: int) -> list[tuple[int, int]]:
    """Allowed matrix positions (l, k): parity(l) = parity(k) + degree mod 2."""
    return [(l, k)
            for l in range(algebra.dim)
            for k in range(algebra.dim)
            if algebra.parity(l) == (algebra.parity(k) + degree) % 2]


@dataclass(frozen=True)
class DerivationSpace:
    """Exact basis of the degree-s derivation space of an algebra."""

    degree: int
    basis: tuple[RatMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def is_derivation(algebra: SuperAlgebra, matrix: RatMatrix, degree: int) -> bool:
    """Direct check of the degree-s identity on every ordered basis pair, over
    the nonzero products and the nonzero entries of D's columns only, in
    ints: the identity is linear in the bracket and in D, so it holds for
    them iff it holds for the integral table and for D times the lcm of its
    denominators."""
    if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
        raise InputError("derivation matrix must act on the whole space")
    table = algebra._integral_structure()
    dim = algebra.dim
    # columns[k] = D b_k as its nonzero (l, D[l, k]) pairs, then scaled to ints.
    columns = [[(l, row[k]) for l, row in enumerate(matrix.entries) if row[k]]
               for k in range(dim)]
    scale = lcm(*[x.denominator for column in columns for _, x in column])
    columns = [[(l, x.numerator * (scale // x.denominator)) for l, x in column]
               for column in columns]
    for i in range(dim):
        sign = -1 if (degree and algebra.parity(i)) else 1
        for j in range(dim):
            # D([b_i,b_j]) - [D b_i, b_j] - (-1)^{s p_i} [b_i, D b_j]
            residual: dict[int, int] = {}
            for k, c in table.get((i, j), ()):
                for l, d in columns[k]:
                    residual[l] = residual.get(l, 0) + c * d
            for k, d in columns[i]:
                for l, c in table.get((k, j), ()):
                    residual[l] = residual.get(l, 0) - d * c
            for k, d in columns[j]:
                for l, c in table.get((i, k), ()):
                    residual[l] = residual.get(l, 0) - sign * d * c
            if any(residual.values()):
                return False
    return True


def derivation_space(algebra: SuperAlgebra, degree: int) -> DerivationSpace:
    """Exact kernel of the derivation conditions over grading-compatible
    maps, assembled from the integral table (scaling the bracket by a
    nonzero constant scales every condition, so the kernel is the same)."""
    if degree not in (EVEN, ODD):
        raise InputError("degree must be 0 (even) or 1 (odd)")
    table = algebra._integral_structure()
    dim = algebra.dim
    parity = [algebra.parity(i) for i in range(dim)]
    of_parity = [[i for i in range(dim) if parity[i] == p] for p in (EVEN, ODD)]
    positions = _positions(algebra, degree)
    pos_index = {p: idx for idx, p in enumerate(positions)}

    # Row (i, j, l) is component l of the identity on the pair (b_i, b_j).
    rows: dict[tuple[int, int, int], SparseRow] = {}

    def bump(i: int, j: int, l: int, col: int, value: int) -> None:
        r = rows.setdefault((i, j, l), {})
        new = r.get(col, 0) + value
        if new:
            r[col] = new
        else:
            r.pop(col, None)

    # Each product [b_a, b_b] ∋ c b_k enters three terms of the identity.
    for (a, b), terms in table.items():
        sign = -1 if (degree and parity[a]) else 1
        for k, c in terms:
            # D([b_a, b_b]): unknown D[l, k] on component l.
            for l in of_parity[(parity[k] + degree) % 2]:
                bump(a, b, l, pos_index[(l, k)], c)
            # [D b_i, b_b] with D b_i ∋ D[a, i] b_a: on pair (i, b).
            for i in of_parity[(parity[a] + degree) % 2]:
                bump(i, b, k, pos_index[(a, i)], -c)
            # (-1)^{s p_a} [b_a, D b_j] with D b_j ∋ D[b, j] b_b: on pair (a, j).
            for j in of_parity[(parity[b] + degree) % 2]:
                bump(a, j, k, pos_index[(b, j)], -sign * c)

    kernel = sparse_kernel((r for r in rows.values() if r), len(positions))
    space = DerivationSpace(degree, tuple(
        RatMatrix.from_cells(dim, dim, {p: x for p, x in zip(positions, vec) if x})
        for vec in kernel))
    for matrix in space.basis:
        if not is_derivation(algebra, matrix, degree):
            raise InternalInconsistencyError(
                f"solver output fails the degree-{degree} derivation identity "
                f"on {algebra.name!r}")
    return space


def vectorize_matrices(algebra: SuperAlgebra, degree: int,
                       matrices: Sequence[RatMatrix]) -> list[SparseRow]:
    """Each matrix as a sparse row over the grading-compatible entries, in
    solver order; a matrix of another size, or with a nonzero entry
    anywhere else, is an InputError."""
    index = {p: idx for idx, p in enumerate(_positions(algebra, degree))}
    rows = []
    for m in matrices:
        if m.rows != algebra.dim or m.cols != algebra.dim:
            raise InputError("matrix must act on the whole space")
        row: SparseRow = {}
        for l, entries in enumerate(m.entries):
            for k, x in enumerate(entries):
                if x:
                    if (l, k) not in index:
                        raise InputError("matrix is not grading-compatible")
                    row[index[(l, k)]] = x
        rows.append(row)
    return rows


def same_span(algebra: SuperAlgebra, degree: int,
              left: Sequence[RatMatrix], right: Sequence[RatMatrix]) -> bool:
    """Exact subspace equality of two matrix families: their canonical
    reduced rows agree."""
    return (_rref_rows(vectorize_matrices(algebra, degree, left))
            == _rref_rows(vectorize_matrices(algebra, degree, right)))


# ---------------------------------------------------------------------------
# Nil-independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilIndependenceReport:
    """Maximal number of nil-independent elements of a derivation space."""

    max_count: int
    witnesses: tuple[RatMatrix, ...]
    method: str


def _simultaneously_triangular(matrices: Sequence[RatMatrix]) -> bool:
    # One shared orientation; raising operators in the standard basis order
    # sit below the diagonal, so catalog spaces are lower triangular.
    return (all(m.is_lower_triangular() for m in matrices)
            or all(m.is_upper_triangular() for m in matrices))


def max_nil_independent(space: DerivationSpace) -> NilIndependenceReport:
    """Diagonal rank of a simultaneously triangular derivation family.

    For triangular matrices a combination is nilpotent exactly when its
    diagonal vanishes, so the maximal nil-independent count is the rank of
    the stacked diagonals.  The witnesses are the basis elements whose
    diagonal is independent of the earlier ones, in basis order; there are
    exactly that rank of them.  Non-triangular input raises
    UnsupportedShapeError (never approximated).
    """
    if not _simultaneously_triangular(space.basis):
        raise UnsupportedShapeError(
            "nil-independence is only decided for simultaneously triangular "
            "derivation families")
    echelon: dict[int, SparseRow] = {}
    witnesses = tuple(m for m in space.basis if _reduce_into(
        echelon, {i: x for i, x in enumerate(m.diagonal()) if x}))
    if not witnesses:
        return NilIndependenceReport(0, (), "all-nilpotent")
    return NilIndependenceReport(len(witnesses), witnesses, "triangular-diagonal-rank")


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


@dataclass(frozen=True)
class ExtendabilityResult:
    family_id: str
    size: int
    values: tuple[tuple[str, str], ...]
    verdict: str
    reason: str
    predicted: bool | None
    matches_prediction: bool | None
    flags: tuple[str, ...]


def extendability(family_id: str, n: int,
                  params: Mapping[str, object] | None = None,
                  mode: str | None = None) -> ExtendabilityResult:
    """Classify whether a nilpotent family instance admits a non-nilpotent
    solvable extension: extendable iff the even derivations' nil-independence
    count is >= 1.  A non-triangular space raises UnsupportedShapeError.

    Unspecified parameters default to zero.  The verdict is compared against
    the zero/nonzero-pattern prediction table; for the (n|n-1) alpha-family
    at n = 3 the prediction's derivation constraint degenerates, so the
    result is flagged instead of matched.  `mode` defaults to verbatim.
    """
    from . import families  # only the classifier builds catalog tables

    if family_id not in CLASSIFIER_FAMILIES:
        raise InputError(
            f"extendability is defined for the nilpotent families "
            f"{', '.join(CLASSIFIER_FAMILIES)}; got {family_id!r}")
    values = {name: Fraction(0) for name in families.parameter_names(family_id, n)}
    for name, raw in (params or {}).items():
        if name not in values:
            raise InputError(f"{family_id}: unknown parameter {name!r}")
        values[name] = parameter_value(name, raw)

    if mode is None:
        mode = families.VERBATIM
    algebra = families.build(family_id, n, values, mode)
    all_nilpotent = space_all_nilpotent(derivation_space(algebra, EVEN))
    verdict = NOT_EXTENDABLE if all_nilpotent else EXTENDABLE
    reason = ("every even derivation is nilpotent" if all_nilpotent
              else "the even derivation space contains a non-nilpotent element")

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
        reason=reason,
        predicted=predicted,
        matches_prediction=matches,
        flags=flags,
    )
