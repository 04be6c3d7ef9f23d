"""Graded algebra data model and invariant computations.

A `SuperAlgebra` is a Z2-graded vector space with an ordered homogeneous basis
(even labels first, then odd) and a sparse structure-constant table
``[b_i, b_j] = sum_k c_ij^k b_k`` whose coefficients are polynomials in the
algebra's free parameters.  Grading is validated at construction: a product of
parities (p, q) may only produce components of parity p+q mod 2.

Identity checking (`check_leibniz`, `check_lie`) runs symbolically over the
parameters, on one kernel that scatters each nonzero product pair into the
triples it feeds, so its cost grows with the number of nonzero product pairs,
not with dim³.  Every rank-based computation (series, annihilators, Jordan
data) requires an instantiated algebra, i.e. one whose parameter list is empty.

Products are right-normed throughout: the lower central series is
``L^1 = L, L^{k+1} = [L^k, L]`` and the right multiplication operator is
``R_x(y) = (-1)^{pq} [y, x]`` for x of parity p and y of parity q.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (DegenerateSamplingError, InputError,
                     InternalInconsistencyError, NotNilpotentError)
from .exactmath import (RATIONAL_LITERAL, Polynomial, RatMatrix, SparseRow,
                        _back_substitute, _in_row_space, _narrow, _reduce_into,
                        _subtract, _widen, format_rational, invert,
                        nilpotent_jordan_type, parse_coefficient, parse_rational,
                        sparse_kernel)

EVEN = 0
ODD = 1

Coefficient = Polynomial
StructureMap = dict[tuple[int, int], tuple[tuple[int, Polynomial], ...]]
ConstantMap = dict[tuple[int, int], tuple[tuple[int, int | Fraction], ...]]


class SuperAlgebra:
    """Immutable graded algebra given by basis labels and structure constants."""

    def __init__(self, name: str, even_basis: Sequence[str], odd_basis: Sequence[str],
                 parameters: Sequence[str],
                 structure: Mapping[tuple[int, int], Iterable[tuple[int, Polynomial]]]):
        self.name = name
        self.even_basis = tuple(even_basis)
        self.odd_basis = tuple(odd_basis)
        self.parameters = tuple(parameters)
        if not self.even_basis:
            raise InputError("the even part must contain at least one basis vector")
        labels = self.even_basis + self.odd_basis
        if len(set(labels)) != len(labels):
            raise InputError("duplicate basis labels")
        self.labels = labels
        self.n_even = len(self.even_basis)
        self.n_odd = len(self.odd_basis)
        self.dim = self.n_even + self.n_odd
        self._index = {lab: i for i, lab in enumerate(labels)}

        table: StructureMap = {}
        for (i, j), terms in structure.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise InputError(f"basis index out of range in product ({i},{j})")
            clean = []
            expected = (self.parity(i) + self.parity(j)) % 2
            for k, coeff in terms:
                if coeff.variables != self.parameters:
                    coeff = coeff.rebase(self.parameters)
                if coeff.is_zero():
                    continue
                if self.parity(k) != expected:
                    raise InputError(
                        f"grading violation in product [{labels[i]}, {labels[j]}]: "
                        f"component {labels[k]} has parity {self.parity(k)}, "
                        f"expected {expected}")
                clean.append((k, coeff))
            if clean:
                clean.sort(key=lambda t: t[0])
                table[(i, j)] = tuple(clean)
        self.structure = table
        self._constant: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] | None = None
        self._narrowed: ConstantMap | None = None

    # -- basic queries -------------------------------------------------------

    def parity(self, i: int) -> int:
        return EVEN if i < self.n_even else ODD

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def product_terms(self, i: int, j: int) -> tuple[tuple[int, Polynomial], ...]:
        return self.structure.get((i, j), ())

    def constant_structure(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """Structure constants as plain rationals; requires instantiation."""
        if self.parameters:
            raise InputError(
                f"algebra {self.name!r} has free parameters "
                f"({', '.join(self.parameters)}); instantiate them first")
        if self._constant is None:
            self._constant = {
                key: tuple((k, c.as_constant()) for k, c in terms)
                for key, terms in self.structure.items()
            }
        return self._constant

    def _narrowed_structure(self) -> ConstantMap:
        """`constant_structure` with each integral constant held as an int,
        the form the elimination engine works on fastest."""
        if self._narrowed is None:
            self._narrowed = {
                key: tuple((k, _narrow(c)) for k, c in terms)
                for key, terms in self.constant_structure().items()
            }
        return self._narrowed

    def instantiate(self, values: Mapping[str, Fraction | int | str]) -> SuperAlgebra:
        """Substitute parameter values; unlisted parameters stay free."""
        assignment: dict[str, Fraction] = {}
        for name, raw in values.items():
            if name not in self.parameters:
                raise InputError(f"unknown parameter {name!r} for {self.name!r}")
            assignment[name] = Fraction(raw)
        structure = {
            key: tuple((k, c.substitute(assignment)) for k, c in terms)
            for key, terms in self.structure.items()
        }
        remaining = tuple(p for p in self.parameters if p not in assignment)
        return SuperAlgebra(self.name, self.even_basis, self.odd_basis, remaining, structure)

    def even_part(self) -> SuperAlgebra:
        """The even component as a stand-alone (purely even) algebra."""
        structure = {
            (i, j): terms for (i, j), terms in self.structure.items()
            if i < self.n_even and j < self.n_even
        }
        return SuperAlgebra(f"{self.name}|even", self.even_basis, (),
                            self.parameters, structure)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperAlgebra):
            return NotImplemented
        return (self.even_basis == other.even_basis
                and self.odd_basis == other.odd_basis
                and self.parameters == other.parameters
                and self.structure == other.structure)

    def __repr__(self) -> str:
        return (f"SuperAlgebra({self.name!r}, dims=({self.n_even}|{self.n_odd}), "
                f"parameters={list(self.parameters)})")


def make_superalgebra(name: str, even_basis: Sequence[str], odd_basis: Sequence[str],
                      parameters: Sequence[str],
                      products: Mapping[tuple[str, str], Iterable[tuple[str, object]]],
                      ) -> SuperAlgebra:
    """Build a SuperAlgebra from label-keyed products with mixed coefficient types."""
    parameters = tuple(parameters)
    labels = tuple(even_basis) + tuple(odd_basis)
    index = {lab: i for i, lab in enumerate(labels)}
    structure: dict[tuple[int, int], list[tuple[int, Polynomial]]] = {}
    for (left, right), terms in products.items():
        if left not in index or right not in index:
            raise InputError(f"unknown basis label in product [{left}, {right}]")
        cell = structure.setdefault((index[left], index[right]), [])
        for target, coeff in terms:
            if target not in index:
                raise InputError(
                    f"unknown component {target!r} in product [{left}, {right}]")
            if isinstance(coeff, Polynomial):
                poly = coeff
            elif isinstance(coeff, str):
                # Most SDF coefficients are plain rationals: skip the parser.
                text = coeff.strip()
                poly = (Polynomial.const(parse_rational(text), parameters)
                        if RATIONAL_LITERAL.fullmatch(text)
                        else parse_coefficient(coeff, parameters))
            else:
                poly = Polynomial.const(Fraction(coeff), parameters)
            cell.append((index[target], poly))
    merged: dict[tuple[int, int], list[tuple[int, Polynomial]]] = {}
    for key, cell in structure.items():
        acc: dict[int, Polynomial] = {}
        for k, poly in cell:
            acc[k] = acc[k] + poly if k in acc else poly
        merged[key] = [(k, p) for k, p in sorted(acc.items()) if not p.is_zero()]
    return SuperAlgebra(name, even_basis, odd_basis, parameters, merged)


# ---------------------------------------------------------------------------
# Vectors and products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedVector:
    """Coordinates of an element in basis order (even block then odd block)."""

    coords: tuple[Fraction, ...]

    @classmethod
    def from_coords(cls, coords: Sequence[Fraction | int]) -> GradedVector:
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def basis(cls, algebra: SuperAlgebra, label: str) -> GradedVector:
        coords = [Fraction(0)] * algebra.dim
        coords[algebra.index(label)] = Fraction(1)
        return cls(tuple(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def parity_of(self, algebra: SuperAlgebra) -> int | None:
        """Parity if homogeneous (zero counts as even), else None."""
        even = any(self.coords[:algebra.n_even])
        odd = any(self.coords[algebra.n_even:])
        if even and odd:
            return None
        return ODD if odd else EVEN

    def add(self, other: GradedVector) -> GradedVector:
        return GradedVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: Fraction | int) -> GradedVector:
        c = Fraction(c)
        return GradedVector(tuple(c * x for x in self.coords))


def product(algebra: SuperAlgebra, x: GradedVector, y: GradedVector) -> GradedVector:
    """Bilinear extension of the structure constants (instantiated algebras only)."""
    table = algebra.constant_structure()
    out = [Fraction(0)] * algebra.dim
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            terms = table.get((i, j))
            if terms:
                f = xi * yj
                for k, c in terms:
                    out[k] += f * c
    return GradedVector(tuple(out))


def right_mul_matrix(algebra: SuperAlgebra, x: GradedVector) -> RatMatrix:
    """Matrix of R_x(y) = (-1)^{pq} [y, x] on the whole space, x homogeneous."""
    px = x.parity_of(algebra)
    if px is None:
        raise InputError("right multiplication needs a homogeneous element")
    table = algebra.constant_structure()
    dim, n0 = algebra.dim, algebra.n_even
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        # Column j holds R_x(b_j); the sign (-1)^{pq} rides on the factor.
        for j in range(dim):
            f = -xi if px and j >= n0 else xi
            for k, c in table.get((j, i), ()):
                rows[k][j] += f * c
    return RatMatrix(dim, dim, tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Residual:
    """A nonzero deviation from an identity, localized to basis elements.

    `identity` is one of "leibniz", "antisymmetry", "jacobi"; `where` holds
    the offending basis labels (a pair for antisymmetry, a triple otherwise),
    `component` the basis label whose coefficient fails, and `value` the
    nonzero polynomial deviation.
    """

    identity: str
    where: tuple[str, ...]
    component: str
    value: Polynomial

    def __str__(self) -> str:
        spot = ", ".join(self.where)
        return f"{self.identity} residual at ({spot}) on {self.component}: {self.value}"


def _narrowed_cells(algebra: SuperAlgebra) -> tuple[dict[tuple[int, int], tuple], tuple]:
    """Each nonzero cell as ((k, ((exponent, coeff), ...)), ...), and the zero exponent.

    Integral coefficients become ints and every constant term carries the one
    returned zero exponent, so the kernel multiplies ints where it can and
    spots a constant factor by identity.
    """
    zero = (0,) * len(algebra.parameters)
    cells = {
        key: tuple((k, tuple((e if any(e) else zero, _narrow(c))
                             for e, c in poly.terms.items()))
                   for k, poly in terms)
        for key, terms in algebra.structure.items()
    }
    return cells, zero


def _emit(algebra: SuperAlgebra, identity: str,
          acc: dict[tuple[int, ...], dict]) -> list[Residual]:
    """The nonzero buckets, keyed (basis indices..., component), in key order."""
    labels = algebra.labels
    # Most buckets cancel; only the rest are sorted and made Polynomials.
    nonzero = {key: terms for key, bucket in acc.items()
               if (terms := {e: c for e, c in bucket.items() if c})}
    return [Residual(identity, tuple(labels[i] for i in key[:-1]), labels[key[-1]],
                     Polynomial(algebra.parameters, nonzero[key]))
            for key in sorted(nonzero)]


def _scatter(algebra: SuperAlgebra, identity: str, via_right, via_left) -> list[Residual]:
    """Residuals of a signed sum of double products, from the nonzero pairs only.

    Each product [b_p, b_q] ∋ c1·b_t meets every nonzero cell that has b_t as
    its right operand, [b_r, b_t] (routed by `via_right`), or as its left
    operand, [b_t, b_r] (routed by `via_left`).  A route maps (p, q, r) to
    the ((i, j, k), sign) pairs of the triples whose identity that double
    product enters.
    """
    cells, zero = _narrowed_cells(algebra)
    by_left: dict[int, list] = {}
    by_right: dict[int, list] = {}
    for (p, q), cell in cells.items():
        by_left.setdefault(p, []).append((q, cell))
        by_right.setdefault(q, []).append((p, cell))
    routes = [(route, partners) for route, partners in
              ((via_right, by_right), (via_left, by_left)) if route]
    acc: dict[tuple[int, ...], dict] = {}
    for (p, q), inner in cells.items():
        for t, c1 in inner:
            for route, partners in routes:
                for r, outer in partners.get(t, ()):
                    for where, sign in route(p, q, r):
                        for l, c2 in outer:
                            bucket = acc.setdefault(where + (l,), {})
                            for e1, a in c1:
                                for e2, b in c2:
                                    e = e2 if e1 is zero else (
                                        e1 if e2 is zero else tuple(map(add, e1, e2)))
                                    v = a * b
                                    bucket[e] = bucket.get(e, 0) + (v if sign > 0 else -v)
    return _emit(algebra, identity, acc)


def check_leibniz(algebra: SuperAlgebra) -> list[Residual]:
    """All residuals of [x,[y,z]] - [[x,y],z] + (-1)^{pq}[[x,z],y] on basis triples.

    Works symbolically: the list is empty iff the identity holds identically
    in the parameters.  Residuals appear in lexicographic basis order of the
    triple (x, y, z), then of the component.
    """
    n0 = algebra.n_even
    return _scatter(
        algebra, "leibniz",
        # [b_r, [b_p, b_q]] is [x,[y,z]] at (r, p, q)
        lambda p, q, r: (((r, p, q), 1),),
        # [[b_p, b_q], b_r] is -[[x,y],z] at (p, q, r) and, with y = b_r and
        # z = b_q, (-1)^{pq}[[x,z],y] at (p, r, q)
        lambda p, q, r: (((p, q, r), -1),
                         ((p, r, q), -1 if r >= n0 and q >= n0 else 1)))


def check_lie(algebra: SuperAlgebra) -> list[Residual]:
    """Residuals of graded antisymmetry and of the graded Jacobi identity.

    Antisymmetry residuals come first, by pair (i <= j), then the Jacobi
    residuals in lexicographic order of the triple; each by component.
    """
    n0 = algebra.n_even
    acc: dict[tuple[int, ...], dict] = {}
    for (i, j), terms in algebra.structure.items():
        # [b_i, b_j] enters pair (i, j) with sign 1 and pair (j, i) with
        # (-1)^{pq}; only pairs with i <= j are checked, so [b_i, b_i] twice.
        for (a, b), sign in (((i, j), 1), ((j, i), -1 if i >= n0 and j >= n0 else 1)):
            if a <= b:
                for l, poly in terms:
                    bucket = acc.setdefault((a, b, l), {})
                    for e, c in poly.terms.items():
                        bucket[e] = bucket.get(e, 0) + sign * c
    # The Jacobi sum over the three cyclic slots of (-1)^{..}[b_i, [b_j, b_k]]:
    # each [b_a, [b_p, b_q]] enters (a, p, q), (q, a, p) and (p, q, a), every
    # time with the sign -1 iff b_a and b_q are both odd.
    return _emit(algebra, "antisymmetry", acc) + _scatter(
        algebra, "jacobi",
        lambda p, q, a: ((w, -1 if a >= n0 and q >= n0 else 1)
                         for w in ((a, p, q), (q, a, p), (p, q, a))),
        None)


# ---------------------------------------------------------------------------
# Graded subspaces, series, annihilator
# ---------------------------------------------------------------------------

Echelon = tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]


@dataclass(frozen=True)
class GradedSubspace:
    """A graded subspace: the canonical reduced echelon basis of each part.

    `parts[p]` holds the rows of parity p as sorted ``(pivot, ((col, coeff),
    ...))`` pairs, sparse over the whole basis (odd columns start at n_even),
    each monic at its pivot and zero in every other row's pivot column.  The
    form is canonical, so equality of subspaces is literal equality.  Every
    constructor reduces its vectors into the parts with the `exactmath`
    engine; `even` and `odd` are dense read-only views in part coordinates.
    """

    n_even: int
    n_odd: int
    parts: tuple[Echelon, Echelon]

    @classmethod
    def _from_echelons(cls, algebra: SuperAlgebra,
                       echelons: Sequence[dict[int, SparseRow]]) -> GradedSubspace:
        parts = []
        for echelon in echelons:
            pivots, rows = _back_substitute(echelon)
            parts.append(tuple(
                (c, tuple((col, _widen(x)) for col, x in sorted(row.items())))
                for c, row in zip(pivots, rows)))
        return cls(algebra.n_even, algebra.n_odd, (parts[EVEN], parts[ODD]))

    @classmethod
    def from_parity_vectors(cls, algebra: SuperAlgebra,
                            even_vectors: Iterable[Sequence[Fraction]],
                            odd_vectors: Iterable[Sequence[Fraction]]) -> GradedSubspace:
        echelons: tuple[dict, dict] = ({}, {})
        for parity, offset, vectors in ((EVEN, 0, even_vectors),
                                        (ODD, algebra.n_even, odd_vectors)):
            for vec in vectors:
                _reduce_into(echelons[parity],
                             {offset + j: Fraction(x) for j, x in enumerate(vec) if x})
        return cls._from_echelons(algebra, echelons)

    @classmethod
    def full(cls, algebra: SuperAlgebra) -> GradedSubspace:
        n0, one = algebra.n_even, Fraction(1)
        return cls._from_echelons(algebra, ({i: {i: one} for i in range(n0)},
                                            {i: {i: one} for i in range(n0, algebra.dim)}))

    def dims(self) -> tuple[int, int]:
        return (len(self.parts[EVEN]), len(self.parts[ODD]))

    def is_zero(self) -> bool:
        return not self.parts[EVEN] and not self.parts[ODD]

    def _dense(self, parity: int) -> RatMatrix:
        offset, width = (0, self.n_even) if parity == EVEN else (self.n_even, self.n_odd)
        rows = []
        for _, row in self.parts[parity]:
            dense = [Fraction(0)] * width
            for c, x in row:
                dense[c - offset] = x
            rows.append(tuple(dense))
        return RatMatrix(len(rows), width, tuple(rows))

    even = property(lambda self: self._dense(EVEN))
    odd = property(lambda self: self._dense(ODD))

    def contains_part_vector(self, parity: int, coords: Sequence[Fraction]) -> bool:
        offset = 0 if parity == EVEN else self.n_even
        return _in_row_space(self.parts[parity],
                             {offset + j: x for j, x in enumerate(coords) if x})

    def contains_vector(self, algebra: SuperAlgebra, v: GradedVector) -> bool:
        n0 = algebra.n_even
        return (self.contains_part_vector(EVEN, v.coords[:n0])
                and self.contains_part_vector(ODD, v.coords[n0:]))

    def contains_subspace(self, other: GradedSubspace) -> bool:
        return all(_in_row_space(self.parts[p], dict(row))
                   for p in (EVEN, ODD) for _, row in other.parts[p])


def subspace_product(algebra: SuperAlgebra, u: GradedSubspace,
                     v: GradedSubspace) -> GradedSubspace:
    """Span of [a, b] over basis vectors a of u and b of v, in canonical form.

    Each product is reduced into its parity's echelon as soon as it is
    formed; products whose target part already has full rank are skipped.
    """
    table = algebra._narrowed_structure()
    sizes = (algebra.n_even, algebra.n_odd)
    # The parts' integral entries, as ints, multiply without a Fraction.
    rows_u, rows_v = ([[[(i, _narrow(a)) for i, a in row] for _, row in part]
                       for part in s.parts] for s in (u, v))
    echelons: tuple[dict, dict] = ({}, {})
    for pu in (EVEN, ODD):
        for pv in (EVEN, ODD):
            target = pu ^ pv
            echelon = echelons[target]
            for row_u in rows_u[pu]:
                for row_v in rows_v[pv]:
                    if len(echelon) == sizes[target]:
                        break
                    out: SparseRow = {}
                    for i, a in row_u:
                        for j, b in row_v:
                            terms = table.get((i, j))
                            if terms:
                                _subtract(out, -a * b, terms)  # out += a*b*[b_i, b_j]
                    if out:
                        _reduce_into(echelon, out)
    return GradedSubspace._from_echelons(algebra, echelons)


def _series(full: GradedSubspace, step) -> list[GradedSubspace]:
    """full, step(full), step(step(full)), ... until the first repeat or zero."""
    series = [full]
    while True:
        nxt = step(series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.is_zero():
            break
    return series


def lower_central_series(algebra: SuperAlgebra) -> list[GradedSubspace]:
    """L^1 = L, L^{k+1} = [L^k, L], computed until the first repeat or zero."""
    full = GradedSubspace.full(algebra)
    return _series(full, lambda s: subspace_product(algebra, s, full))


def derived_series(algebra: SuperAlgebra) -> list[GradedSubspace]:
    """L^(1) = L, L^(k+1) = [L^(k), L^(k)], until the first repeat or zero."""
    return _series(GradedSubspace.full(algebra),
                   lambda s: subspace_product(algebra, s, s))


def is_nilpotent(algebra: SuperAlgebra) -> bool:
    return lower_central_series(algebra)[-1].is_zero()


def nilindex(algebra: SuperAlgebra) -> int | None:
    """Smallest s with L^s = 0, or None when the algebra is not nilpotent."""
    series = lower_central_series(algebra)
    return len(series) if series[-1].is_zero() else None


def is_solvable(algebra: SuperAlgebra) -> bool:
    """Termination of the derived series, cross-checked against the even part."""
    whole = derived_series(algebra)[-1].is_zero()
    even_only = derived_series(algebra.even_part())[-1].is_zero()
    if whole != even_only:
        raise InternalInconsistencyError(
            f"solvability of {algebra.name!r} disagrees with its even part "
            f"(full: {whole}, even: {even_only})")
    return whole


def right_annihilator(algebra: SuperAlgebra) -> GradedSubspace:
    """Exact solution set of [b_i, z] = 0 for every basis vector b_i."""
    table = algebra._narrowed_structure()
    n0, n1 = algebra.n_even, algebra.n_odd
    parts: list[list[tuple[Fraction, ...]]] = []
    for size, offset in ((n0, 0), (n1, n0)):
        rows: dict[tuple[int, int], SparseRow] = {}
        for i in range(algebra.dim):
            for j in range(size):
                for k, c in table.get((i, offset + j), ()):
                    rows.setdefault((i, k), {})[j] = c
        parts.append(sparse_kernel(rows.values(), size))
    return GradedSubspace.from_parity_vectors(algebra, parts[0], parts[1])


# ---------------------------------------------------------------------------
# Characteristic sequence
# ---------------------------------------------------------------------------

def even_square(algebra: SuperAlgebra) -> GradedSubspace:
    """[L0, L0]: the span of the products of even basis vectors."""
    table = algebra._narrowed_structure()
    square: dict[int, SparseRow] = {}
    for i in range(algebra.n_even):
        for j in range(algebra.n_even):
            _reduce_into(square, dict(table.get((i, j), ())))
    return GradedSubspace._from_echelons(algebra, (square, {}))


# Caps on char_sequence's arguments.  Each candidate costs two Jordan types,
# so `samples` bounds the run time; `bound` only widens the box of integer
# coordinates, which is never needed beyond a few units.
MAX_SAMPLES = 1024
MAX_BOUND = 1000


def char_sequence(algebra: SuperAlgebra, samples: int = 64, seed: int = 0,
                  bound: int = 5) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Characteristic sequence: componentwise maxima of Jordan types of R_x.

    x ranges over a sample of L0 \\ L0^2: every even basis vector outside
    L0^2, then seeded integer-coordinate vectors with entries in
    [-bound, bound], drawn (those in L0^2 rejected) until there are
    dim L0 + `samples` candidates in all or 50 * (`samples` + 1) draws have
    been made.  So when k even basis vectors lie in L0^2, up to `samples` + k
    random vectors are used, and `samples` = 0 still uses up to k.  The even
    and odd maxima are taken independently (each in lexicographic partition
    order).  The result is a sampled maximum, not a certified one.  A
    negative `samples` or `bound`, or one above MAX_SAMPLES or MAX_BOUND, is
    an InputError.
    """
    for name, value, cap_name, cap in (("samples", samples, "MAX_SAMPLES", MAX_SAMPLES),
                                       ("bound", bound, "MAX_BOUND", MAX_BOUND)):
        if value < 0:
            raise InputError(f"char_sequence: {name} must be >= 0 (got {value})")
        if value > cap:
            raise InputError(f"char_sequence: {name} must be <= {cap_name} = "
                             f"{cap} (got {value})")
    if not is_nilpotent(algebra):
        raise NotNilpotentError(
            f"characteristic sequence needs a nilpotent algebra, got {algebra.name!r}")
    n0 = algebra.n_even
    square = even_square(algebra)

    def admissible(coords: Sequence[Fraction]) -> bool:
        return any(coords) and not square.contains_part_vector(EVEN, coords)

    candidates: list[tuple[Fraction, ...]] = []
    for i in range(n0):
        coords = tuple(Fraction(1 if j == i else 0) for j in range(n0))
        if admissible(coords):
            candidates.append(coords)
    if not candidates:
        raise DegenerateSamplingError(
            f"every even basis vector of {algebra.name!r} lies in L0^2")
    rng = random.Random(seed)
    attempts = 0
    while len(candidates) < n0 + samples and attempts < 50 * (samples + 1):
        attempts += 1
        coords = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n0))
        if admissible(coords):
            candidates.append(coords)

    best_even: tuple[int, ...] | None = None
    best_odd: tuple[int, ...] | None = None
    odd_zeros = (Fraction(0),) * algebra.n_odd
    for coords in candidates:
        rx = right_mul_matrix(algebra, GradedVector(coords + odd_zeros))
        jt_even = nilpotent_jordan_type(rx.principal(range(n0)))
        jt_odd = nilpotent_jordan_type(rx.principal(range(n0, algebra.dim)))
        if jt_even is None or jt_odd is None:
            raise InternalInconsistencyError(
                "right multiplication non-nilpotent on a nilpotent algebra")
        if best_even is None or jt_even > best_even:
            best_even = jt_even
        if best_odd is None or jt_odd > best_odd:
            best_odd = jt_odd
    assert best_even is not None and best_odd is not None
    return best_even, best_odd


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary used to tell algebras apart.

    charseq is None for non-nilpotent algebras; when present it is a sampled
    maximum (see char_sequence).  Equality of fingerprints never proves
    isomorphism; inequality disproves it.
    """

    dims: tuple[int, int]
    lower_central: tuple[tuple[int, int], ...]
    derived: tuple[tuple[int, int], ...]
    nilindex: int | None
    solvable: bool
    annihilator: tuple[int, int]
    derivation_dims: tuple[int, int]
    charseq: tuple[tuple[int, ...], tuple[int, ...]] | None

    def as_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "lower_central": [list(t) for t in self.lower_central],
            "derived": [list(t) for t in self.derived],
            "nilindex": self.nilindex,
            "solvable": self.solvable,
            "annihilator": list(self.annihilator),
            "derivation_dims": list(self.derivation_dims),
            "charseq": None if self.charseq is None
            else [list(self.charseq[0]), list(self.charseq[1])],
            "charseq_note": None if self.charseq is None else "sampled max",
        }


def fingerprint(algebra: SuperAlgebra, samples: int = 64, seed: int = 0,
                bound: int = 5) -> Fingerprint:
    from .derivations import derivation_space  # local import to avoid a cycle

    lcs = lower_central_series(algebra)
    ds = derived_series(algebra)
    nil = len(lcs) if lcs[-1].is_zero() else None
    ann = right_annihilator(algebra)
    even_dim = derivation_space(algebra, EVEN).dim
    odd_dim = derivation_space(algebra, ODD).dim
    cs = char_sequence(algebra, samples, seed, bound) if nil is not None else None
    return Fingerprint(
        dims=(algebra.n_even, algebra.n_odd),
        lower_central=tuple(t.dims() for t in lcs),
        derived=tuple(t.dims() for t in ds),
        nilindex=nil,
        solvable=is_solvable(algebra),
        annihilator=ann.dims(),
        derivation_dims=(even_dim, odd_dim),
        charseq=cs,
    )


# ---------------------------------------------------------------------------
# Change of basis
# ---------------------------------------------------------------------------

def change_basis(algebra: SuperAlgebra, p_even: RatMatrix, p_odd: RatMatrix) -> SuperAlgebra:
    """Structure constants in the basis f_a = sum_i P[i,a] b_i (parity-preserving)."""
    if p_even.rows != algebra.n_even or p_odd.rows != algebra.n_odd:
        raise InputError("change-of-basis blocks must match the part dimensions")
    q_even = invert(p_even)
    q_odd = invert(p_odd)
    n0 = algebra.n_even

    def col(parity_matrix: RatMatrix, offset: int, a: int) -> list[tuple[int, Fraction]]:
        return [(offset + i, parity_matrix.entries[i][a])
                for i in range(parity_matrix.rows) if parity_matrix.entries[i][a]]

    new_cols = [col(p_even, 0, a) for a in range(algebra.n_even)] + \
               [col(p_odd, n0, a) for a in range(algebra.n_odd)]
    structure: dict[tuple[int, int], list[tuple[int, Polynomial]]] = {}
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            acc: dict[int, Polynomial] = {}
            for i, pi in new_cols[a]:
                for j, pj in new_cols[b]:
                    for k, c in algebra.product_terms(i, j):
                        scaled = c * (pi * pj)
                        acc[k] = acc[k] + scaled if k in acc else scaled
            if not acc:
                continue
            out: dict[int, Polynomial] = {}
            for k, coeff in acc.items():
                if coeff.is_zero():
                    continue
                if k < n0:
                    back, offset = q_even, 0
                    krel = k
                else:
                    back, offset = q_odd, n0
                    krel = k - n0
                for t in range(back.rows):
                    w = back.entries[t][krel]
                    if w:
                        scaled = coeff * w
                        key = offset + t
                        out[key] = out[key] + scaled if key in out else scaled
            cell = [(k, p) for k, p in sorted(out.items()) if not p.is_zero()]
            if cell:
                structure[(a, b)] = cell
    return SuperAlgebra(f"{algebra.name}~", algebra.even_basis, algebra.odd_basis,
                        algebra.parameters, structure)


# ---------------------------------------------------------------------------
# Superalgebra Description File (SDF)
# ---------------------------------------------------------------------------

def sdf_dump(algebra: SuperAlgebra) -> dict:
    """Canonical JSON-ready form; omitted products are zero."""
    products = []
    for (i, j) in sorted(algebra.structure):
        terms = algebra.structure[(i, j)]
        products.append({
            "left": algebra.label(i),
            "right": algebra.label(j),
            "value": [[algebra.label(k), str(c) if not c.is_constant()
                       else format_rational(c.as_constant())] for k, c in terms],
        })
    return {
        "name": algebra.name,
        "even_basis": list(algebra.even_basis),
        "odd_basis": list(algebra.odd_basis),
        "parameters": list(algebra.parameters),
        "products": products,
    }


def sdf_dumps(algebra: SuperAlgebra) -> str:
    return json.dumps(sdf_dump(algebra), indent=2) + "\n"


def _sdf_term(where: str, term) -> tuple[str, str | int]:
    """One [label, coefficient] pair of an SDF product value, shape-checked."""
    if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], str)):
        raise InputError(f"malformed SDF value in product {where}: expected "
                         f"[label, coefficient] pairs, got {term!r}")
    coeff = term[1]
    if isinstance(coeff, float):
        raise InputError(f"coefficient {coeff!r} in product {where} is a float; "
                         f"write it exactly as a string such as \"3/2\"")
    if not isinstance(coeff, (str, int)) or isinstance(coeff, bool):
        raise InputError(f"coefficient {coeff!r} in product {where} must be "
                         f"a string or an integer")
    return term[0], coeff


def sdf_load(data: dict) -> SuperAlgebra:
    """Parse an SDF dict.  Malformed shapes, float coefficients and grading
    violations are rejected as InputError naming the product."""
    if not isinstance(data, dict):
        raise InputError("malformed SDF: expected a JSON object")
    try:
        name = data["name"]
        even = data["even_basis"]
        odd = data["odd_basis"]
        raw_products = data["products"]
    except KeyError as exc:
        raise InputError(f"malformed SDF: missing field {exc}") from None
    parameters = data.get("parameters", [])
    if not isinstance(name, str):
        raise InputError("malformed SDF: name must be a string")
    for field, names in (("even_basis", even), ("odd_basis", odd),
                         ("parameters", parameters)):
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise InputError(f"malformed SDF: {field} must be a list of strings")
    if not isinstance(raw_products, list):
        raise InputError("malformed SDF: products must be a list of objects")
    products: dict[tuple[str, str], list[tuple[str, object]]] = {}
    for entry in raw_products:
        if not (isinstance(entry, dict) and "value" in entry
                and isinstance(entry.get("left"), str)
                and isinstance(entry.get("right"), str)):
            raise InputError(f"malformed SDF product entry: {entry!r}")
        left, right, value = entry["left"], entry["right"], entry["value"]
        where = f"[{left}, {right}]"
        if (left, right) in products:
            raise InputError(f"duplicate product {where} in SDF")
        if not isinstance(value, list):
            raise InputError(f"malformed SDF value in product {where}: expected "
                             f"a list of [label, coefficient] pairs")
        products[(left, right)] = [_sdf_term(where, term) for term in value]
    return make_superalgebra(name, even, odd, parameters, products)


def sdf_loads(text: str) -> SuperAlgebra:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    return sdf_load(data)
