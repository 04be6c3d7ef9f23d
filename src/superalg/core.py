"""Graded algebra data model and invariant computations.

A `SuperAlgebra` is a Z2-graded vector space with an ordered homogeneous basis
(even labels first, then odd) and a sparse structure-constant table
``[b_i, b_j] = sum_k c_ij^k b_k``.  A coefficient in which one of the
algebra's free parameters occurs is a polynomial in them; every other one is
a narrowed rational (an int when integral, else a Fraction).  A
parameter-free table is the one R_x and the SDF writer read, and the
engine's scale-invariant readers (kernels and spans) read it times the lcm
of its denominators, `SuperAlgebra._integral_structure`.  Grading is
validated at construction: a product of parities (p, q) may only produce
components of parity p+q mod 2.

Identity checking (`check_leibniz`, `check_lie`) runs symbolically over the
parameters, on one kernel that scatters each nonzero product pair into the
triples it feeds, so its cost grows with the number of nonzero product pairs,
not with dim³, in ints: coefficients times L, the lcm of the table's
denominators, and exponent tuples packed w bits per variable into one int,
with 2·m < 2^w for the table's own largest exponent m.  Only the nonzero sums
are unpacked and divided by L² (L for antisymmetry).  Every rank-based
computation (series, annihilators, Jordan data) requires an instantiated
algebra, i.e. one whose parameter list is empty.

Products are right-normed throughout: the lower central series is
``L^1 = L, L^{k+1} = [L^k, L]`` and the right multiplication operator is
``R_x(y) = (-1)^{pq} [y, x]`` for x of parity p and y of parity q.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import wraps
from itertools import chain
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import (DegenerateSamplingError, InputError,
                     InternalInconsistencyError, NotNilpotentError, SHOWN_LENGTH,
                     shown)
from .exactmath import (NAME, RATIONAL_LITERAL, Polynomial, SparseRow,
                        _back_substitute, _narrow, _reduce_into, _subtract,
                        _widen, nilpotent_jordan_type, parameter_value,
                        parse_coefficient, parse_rational, sparse_kernel)

EVEN = 0
ODD = 1

Coefficient = Polynomial | int | Fraction   # Polynomial only where a parameter occurs
StructureMap = dict[tuple[int, int], tuple[tuple[int, Coefficient], ...]]
T = TypeVar("T")


class SuperAlgebra:
    """Immutable graded algebra given by basis labels and structure constants.

    `structure` maps each nonzero product (i, j) to its canonical terms
    ((k, c), ...): c is a Polynomial over `parameters` when a parameter
    occurs in it, else a narrowed rational (constant Polynomials given are
    unwrapped)."""

    def __init__(self, name: str, even_basis: Sequence[str], odd_basis: Sequence[str],
                 parameters: Sequence[str],
                 structure: Mapping[tuple[int, int], Iterable[tuple[int, Coefficient]]]):
        self.name = name
        self.even_basis = tuple(even_basis)
        self.odd_basis = tuple(odd_basis)
        self.parameters = tuple(parameters)
        if not self.even_basis:
            raise InputError("the even part must contain at least one basis vector")
        labels = self.even_basis + self.odd_basis
        if len(set(labels)) != len(labels):
            raise InputError("duplicate basis labels")
        if len(set(self.parameters)) != len(self.parameters):
            raise InputError("duplicate parameter names")
        self.labels = labels
        self.n_even = len(self.even_basis)
        self.n_odd = len(self.odd_basis)
        self.dim = self.n_even + self.n_odd
        self._index = {lab: i for i, lab in enumerate(labels)}

        # The one place cells are made canonical: terms with one target are
        # merged, each sum in which no parameter occurs narrowed, zero sums
        # dropped and targets sorted; grading is checked on the merged cell,
        # so a wrong-parity pair that cancels is accepted.
        n0, dim = self.n_even, self.dim
        table: StructureMap = {}
        for (i, j), terms in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"basis index out of range in product ({i},{j})")
            acc: dict[int, Coefficient] = {}
            for k, coeff in terms:
                if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction, Polynomial)):
                    raise InputError(
                        f"coefficient {shown(coeff)} in product [{labels[i]}, {labels[j]}] "
                        f"is a {type(coeff).__name__}, not an exact coefficient")
                if isinstance(coeff, Polynomial) and coeff.variables != self.parameters:
                    raise InputError(
                        f"coefficient {coeff} in product [{labels[i]}, {labels[j]}] is "
                        f"over the variables {coeff.variables}, not {self.parameters}")
                acc[k] = acc[k] + coeff if k in acc else coeff
            cell = []
            for k, c in sorted(acc.items()):
                c = c.as_constant() if isinstance(c, Polynomial) and c.is_constant() else c
                if c:   # a Polynomial left here has a term with a parameter
                    cell.append((k, c if isinstance(c, Polynomial) else _narrow(c)))
            expected = (i >= n0) != (j >= n0)
            for k, _ in cell:
                if not 0 <= k < dim:
                    raise InputError(f"basis index out of range in product ({i},{j})")
                if (k >= n0) != expected:
                    raise InputError(
                        f"grading violation in product [{labels[i]}, {labels[j]}]: "
                        f"component {labels[k]} has parity {self.parity(k)}, "
                        f"expected {int(expected)}")
            if cell:
                table[(i, j)] = tuple(cell)
        self.structure = table
        # Results of functions of the algebra, by function name (`_once_per_algebra`).
        self._memo: dict[str, object] = {}

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

    def _narrowed_structure(self) -> StructureMap:
        """A guard that returns `structure` itself (whose cells, with no
        parameter, hold integral constants as ints, the engine's fastest form)
        and raises InputError while any parameter is free."""
        if self.parameters:
            raise InputError(
                f"algebra {self.name!r} has free parameters "
                f"({', '.join(self.parameters)}); instantiate them first")
        return self.structure

    def _integral_structure(self) -> StructureMap:
        """The constant table times the lcm of its denominators, so every
        coefficient is an int; computed once per algebra (the table itself
        when it is integral already).  Kernels, spans and derivation spaces
        do not change when the bracket is scaled by a nonzero constant, so
        the engine's readers of those use this table; every public value
        (`structure` itself, `right_mul_cells`, `sdf_dump`) keeps the
        unscaled constants.  Requires instantiation."""
        memo = self._memo
        if "_integral_structure" not in memo:
            table = self._narrowed_structure()
            scale = lcm(*[c.denominator for terms in table.values() for _, c in terms])
            memo["_integral_structure"] = table if scale == 1 else {
                key: tuple((k, c.numerator * (scale // c.denominator)) for k, c in terms)
                for key, terms in table.items()}
        return memo["_integral_structure"]

    def instantiate(self, values: Mapping[str, Fraction | int | str]) -> SuperAlgebra:
        """Substitute parameter values; unlisted parameters stay free."""
        assignment: dict[str, Fraction] = {}
        for name, raw in values.items():
            if name not in self.parameters:
                raise InputError(f"unknown parameter {name!r} for {self.name!r}")
            assignment[name] = parameter_value(name, raw)
        if not self.parameters:
            return self
        remaining = tuple(p for p in self.parameters if p not in assignment)
        at = Polynomial.substitute if remaining else Polynomial.evaluate
        # Cells share Polynomial objects (one `var` per name in `make_superalgebra`):
        # each is evaluated once, keyed by id, as the table holds them all meanwhile.
        done = {id(c): c for terms in self.structure.values() for _, c in terms
                if isinstance(c, Polynomial)}
        done = {key: at(c, assignment) for key, c in done.items()}
        structure = {key: tuple((k, done[id(c)] if isinstance(c, Polynomial) else c)
                                for k, c in terms) for key, terms in self.structure.items()}
        return SuperAlgebra(self.name, self.even_basis, self.odd_basis, remaining, structure)

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


def subalgebra(algebra: SuperAlgebra, keep: Sequence[int], name: str) -> SuperAlgebra | None:
    """The table on the basis vectors `keep` (even ones first, each part in
    the given order), named "<algebra>|<name>", or None when a product of
    two of them leaves their span."""
    remap = {old: new for new, old in enumerate(keep)}
    structure = {}
    for (i, j), terms in algebra.structure.items():
        if i in remap and j in remap:
            if any(k not in remap for k, _ in terms):
                return None
            structure[(remap[i], remap[j])] = tuple((remap[k], c) for k, c in terms)
    labels = [algebra.label(i) for i in keep]
    even_count = sum(1 for i in keep if i < algebra.n_even)
    return SuperAlgebra(f"{algebra.name}|{name}", labels[:even_count],
                        labels[even_count:], algebra.parameters, structure)


def make_superalgebra(name: str, even_basis: Sequence[str], odd_basis: Sequence[str],
                      parameters: Sequence[str],
                      products: Mapping[tuple[str, str], Iterable[tuple[str, object]]],
                      ) -> SuperAlgebra:
    """Build a SuperAlgebra from label-keyed products.  The one reader of coefficient
    text: a rational literal, a declared parameter name, else `parse_coefficient`."""
    parameters = tuple(parameters)
    labels = tuple(even_basis) + tuple(odd_basis)
    index = {lab: i for i, lab in enumerate(labels)}
    structure: dict[tuple[int, int], list[tuple[int, Coefficient]]] = {}
    names = {p: Polynomial.var(p, parameters) for p in parameters if NAME.fullmatch(p)}
    for (left, right), terms in products.items():
        if left not in index or right not in index:
            raise InputError(
                f"unknown basis label in product [{shown(left)}, {shown(right)}]")
        cell = structure.setdefault((index[left], index[right]), [])
        for target, coeff in terms:
            if target not in index:
                raise InputError(
                    f"unknown component {shown(target)} in product "
                    f"[{shown(left)}, {shown(right)}]")
            if isinstance(coeff, str):
                # Most coefficients are plain rationals or names: skip the parser.
                text = coeff.strip()
                coeff = (parse_rational(text) if RATIONAL_LITERAL.fullmatch(text)
                         else names[text] if text in names
                         else parse_coefficient(coeff, parameters))
            cell.append((index[target], coeff))
    return SuperAlgebra(name, even_basis, odd_basis, parameters, structure)


# ---------------------------------------------------------------------------
# Vectors and right multiplication
# ---------------------------------------------------------------------------

class GradedVector(NamedTuple):
    """Coordinates of an element in basis order (even block then odd block)."""

    coords: tuple[Fraction, ...]

    @classmethod
    def from_coords(cls, coords: Sequence[Fraction | int]) -> GradedVector:
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def basis(cls, algebra: SuperAlgebra, label: str) -> GradedVector:
        k = algebra.index(label)
        return cls.from_coords([int(i == k) for i in range(algebra.dim)])

    def parity_of(self, algebra: SuperAlgebra) -> int | None:
        """Parity if homogeneous (zero counts as even), else None."""
        even = any(self.coords[:algebra.n_even])
        odd = any(self.coords[algebra.n_even:])
        if even and odd:
            return None
        return ODD if odd else EVEN


def right_mul_cells(algebra: SuperAlgebra, x: GradedVector,
                    keep: Sequence[int]) -> dict[tuple[int, int], Fraction]:
    """The nonzero cells of R_x(y) = (-1)^{pq} [y, x], x homogeneous, on its
    principal block on the basis vectors `keep`, indexed by position in
    `keep`: cell (l, k) is the coefficient of b_keep[l] in R_x(b_keep[k])."""
    px = x.parity_of(algebra)
    if px is None:
        raise InputError("right multiplication needs a homogeneous element")
    table = algebra._narrowed_structure()
    n0 = algebra.n_even
    at = {b: pos for pos, b in enumerate(keep)}
    cells: dict[tuple[int, int], Fraction] = {}
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        # Column k holds R_x(b_j), j = keep[k]; the sign (-1)^{pq} rides on the factor.
        for k, j in enumerate(keep):
            f = -xi if px and j >= n0 else xi
            for t, c in table.get((j, i), ()):
                if t in at:
                    cells[at[t], k] = cells.get((at[t], k), 0) + f * c
    return {lk: v for lk, v in cells.items() if v}


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------

class Residual(NamedTuple):
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


def _integral_cells(algebra: SuperAlgebra) -> tuple[dict[tuple[int, int], tuple], int, int]:
    """The structure table in ints, as `_scatter` reads it: each nonzero cell as
    ((k, ((packed exponent, coeff), ...)), ...), then the width w and scale L."""
    raw = {key: [(k, c.terms.items() if isinstance(c, Polynomial) else [((), c)]) for k, c in cell]
           for key, cell in algebra.structure.items()}
    flat = [term for cell in raw.values() for _, terms in cell for term in terms]
    scale = lcm(*[c.denominator for _, c in flat])
    width = (2 * max((x for e, _ in flat for x in e), default=0)).bit_length()
    packed = {e: sum(x << v * width for v, x in enumerate(e)) for e, _ in flat}
    cells = {key: tuple((k, tuple((packed[e], c.numerator * (scale // c.denominator))
                                  for e, c in terms)) for k, terms in cell)
             for key, cell in raw.items()}
    return cells, width, scale


def _emit(algebra: SuperAlgebra, identity: str, acc: dict[tuple[int, ...], dict],
          width: int, divisor: int) -> list[Residual]:
    """The nonzero buckets, keyed (basis indices..., component), in key order,
    exponents unpacked and int sums divided by `divisor`, the L-power they carry."""
    labels, variables = algebra.labels, algebra.parameters
    mask, shifts = (1 << width) - 1, [v * width for v in range(len(variables))]
    exponents = {e: tuple(e >> s & mask for s in shifts) for e in set().union(*acc.values())}
    # Most buckets cancel; only the rest are sorted and made Polynomials.
    nonzero = {key: terms for key, bucket in acc.items()
               if (terms := {exponents[e]: Fraction(c, divisor)
                             for e, c in bucket.items() if c})}
    return [Residual(identity, tuple(labels[i] for i in key[:-1]), labels[key[-1]],
                     Polynomial(variables, nonzero[key]))
            for key in sorted(nonzero)]


def _scatter(algebra: SuperAlgebra, cells: dict[tuple[int, int], tuple], width: int,
             scale: int, identity: str, via_right, via_left) -> list[Residual]:
    """Residuals of a signed sum of double products, from the nonzero pairs only.

    Each product [b_p, b_q] ∋ c1·b_t meets every nonzero cell that has b_t as
    its right operand, [b_r, b_t] (routed by `via_right`), or as its left
    operand, [b_t, b_r] (routed by `via_left`).  A route maps (p, q, r) to
    the ((i, j, k), sign) pairs of the triples whose identity that double
    product enters.  `cells`, `width` and `scale` are `_integral_cells(algebra)`:
    coefficients times L (the lcm of the denominators), exponent tuples packed
    w bits per variable, first lowest, with 2·m < 2^w for the largest exponent
    m, so a monomial product is one int add with no carry.  Each sum carries
    L², being quadratic in the bracket; `_emit` divides it out of nonzero ones.
    """
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
            signed = {1: c1, -1: tuple((e, -a) for e, a in c1)}
            for route, partners in routes:
                for r, outer in partners.get(t, ()):
                    for where, sign in route(p, q, r):
                        for l, c2 in outer:
                            bucket = acc.setdefault(where + (l,), {})
                            for e1, a in signed[sign]:
                                for e2, b in c2:
                                    e = e1 + e2
                                    bucket[e] = bucket.get(e, 0) + a * b
    return _emit(algebra, identity, acc, width, scale * scale)


def _once_per_algebra(compute: Callable[[SuperAlgebra], T]) -> Callable[[SuperAlgebra], T]:
    """Compute a function of an algebra once, memoised on the algebra by the
    function's name.  A list result is handed out as a new list on every
    call, so no caller can change the memo; any other result is immutable."""
    @wraps(compute)
    def cached(algebra: SuperAlgebra) -> T:
        memo = algebra._memo
        if compute.__name__ not in memo:
            memo[compute.__name__] = compute(algebra)
        found = memo[compute.__name__]
        return list(found) if isinstance(found, list) else found
    return cached


@_once_per_algebra
def check_leibniz(algebra: SuperAlgebra) -> list[Residual]:
    """All residuals of [x,[y,z]] - [[x,y],z] + (-1)^{pq}[[x,z],y] on basis triples.

    Works symbolically: the list is empty iff the identity holds identically
    in the parameters.  Residuals appear in lexicographic basis order of the
    triple (x, y, z), then of the component.  The residuals are computed once
    per algebra; each call returns a new list of them.
    """
    n0 = algebra.n_even
    return _scatter(
        algebra, *_integral_cells(algebra), "leibniz",
        # [b_r, [b_p, b_q]] is [x,[y,z]] at (r, p, q)
        lambda p, q, r: (((r, p, q), 1),),
        # [[b_p, b_q], b_r] is -[[x,y],z] at (p, q, r) and, with y = b_r
        # and z = b_q, (-1)^{pq}[[x,z],y] at (p, r, q)
        lambda p, q, r: (((p, q, r), -1),
                         ((p, r, q), -1 if r >= n0 and q >= n0 else 1)))


@_once_per_algebra
def check_lie(algebra: SuperAlgebra) -> list[Residual]:
    """Residuals of graded antisymmetry and of the graded Jacobi identity.

    Antisymmetry residuals come first, by pair (i <= j), then the Jacobi
    residuals in lexicographic order of the triple; each by component.  Like
    `check_leibniz`, computed once per algebra, a new list per call.
    """
    n0 = algebra.n_even
    cells, width, scale = _integral_cells(algebra)
    acc: dict[tuple[int, ...], dict] = {}
    for (i, j), terms in cells.items():
        # [b_i, b_j] enters pair (i, j) with sign 1 and pair (j, i) with (-1)^{pq}
        # (linear sums: they carry L once); pairs i <= j only, so [b_i, b_i] twice.
        for (a, b), sign in (((i, j), 1), ((j, i), -1 if i >= n0 and j >= n0 else 1)):
            if a <= b:
                for l, monomials in terms:
                    bucket = acc.setdefault((a, b, l), {})
                    for e, c in monomials:
                        bucket[e] = bucket.get(e, 0) + sign * c
    # The Jacobi sum over the three cyclic slots of (-1)^{..}[b_i, [b_j, b_k]]:
    # each [b_a, [b_p, b_q]] enters (a, p, q), (q, a, p) and (p, q, a), every
    # time with the sign -1 iff b_a and b_q are both odd.
    return _emit(algebra, "antisymmetry", acc, width, scale) + _scatter(
        algebra, cells, width, scale, "jacobi",
        lambda p, q, a: ((w, -1 if a >= n0 and q >= n0 else 1)
                         for w in ((a, p, q), (q, a, p), (p, q, a))),
        None)


# ---------------------------------------------------------------------------
# Graded subspaces, series, annihilator
# ---------------------------------------------------------------------------

Echelon = tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]


class GradedSubspace:
    """A graded subspace: one echelon basis per part, held in engine form.

    Each part is stored as the `exactmath` engine leaves it: a dict from
    pivot column to sparse row (over the whole basis, odd columns from
    n_even on), zero to the left of its pivot, a primitive row of ints with
    a positive lead.  `dims()` and `is_zero()` read that stored form
    directly.  The canonical form, `parts[p]`, holds the rows of parity p as
    sorted ``(pivot, ((col, coeff), ...))`` pairs of Fractions, each monic
    at its pivot and zero in every other row's pivot column; it is made
    monic and back-substituted from a copy of the stored rows on first read
    and cached, so the stored rows never change.  Equality is literal
    equality of the canonical forms; `contains_part_vector` reduces against
    the stored rows.
    """

    def __init__(self, algebra: SuperAlgebra,
                 echelons: tuple[dict[int, SparseRow], dict[int, SparseRow]]):
        self.n_even, self.n_odd = algebra.n_even, algebra.n_odd
        self._echelons = echelons
        self._parts: tuple[Echelon, Echelon] | None = None

    @classmethod
    def full(cls, algebra: SuperAlgebra) -> GradedSubspace:
        n0 = algebra.n_even
        return cls(algebra, ({i: {i: 1} for i in range(n0)},
                             {i: {i: 1} for i in range(n0, algebra.dim)}))

    @property
    def parts(self) -> tuple[Echelon, Echelon]:
        if self._parts is None:
            parts = []
            for echelon in self._echelons:
                pivots, rows = _back_substitute({c: dict(row) for c, row in echelon.items()})
                parts.append(tuple(
                    (c, tuple((col, _widen(x)) for col, x in sorted(row.items())))
                    for c, row in zip(pivots, rows)))
            self._parts = (parts[EVEN], parts[ODD])
        return self._parts

    def dims(self) -> tuple[int, int]:
        return (len(self._echelons[EVEN]), len(self._echelons[ODD]))

    def is_zero(self) -> bool:
        return not self._echelons[EVEN] and not self._echelons[ODD]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        return ((self.n_even, self.n_odd, self.parts)
                == (other.n_even, other.n_odd, other.parts))

    def __hash__(self) -> int:
        return hash((self.n_even, self.n_odd, self.parts))

    def __repr__(self) -> str:
        return (f"GradedSubspace(n_even={self.n_even}, n_odd={self.n_odd}, "
                f"parts={self.parts!r})")

    def contains_part_vector(self, parity: int, coords: Sequence[Fraction]) -> bool:
        # A shallow copy: `_reduce_into` changes only the row and that dict.
        offset = 0 if parity == EVEN else self.n_even
        return not _reduce_into(dict(self._echelons[parity]),
                                {offset + j: x for j, x in enumerate(coords) if x})


@_once_per_algebra
def _cells_by_operand(algebra: SuperAlgebra) -> tuple[tuple[tuple[tuple[int, tuple], ...], ...], ...]:
    """The nonzero cells [b_i, b_j] of the integral table, once per algebra,
    indexed two ways: by i as (j, terms) pairs, and by j as (i, terms)."""
    by_left: list[list] = [[] for _ in range(algebra.dim)]
    by_right: list[list] = [[] for _ in range(algebra.dim)]
    for (i, j), terms in algebra._integral_structure().items():
        by_left[i].append((j, terms))
        by_right[j].append((i, terms))
    return tuple(map(tuple, by_left)), tuple(map(tuple, by_right))


def subspace_product(algebra: SuperAlgebra, u: GradedSubspace,
                     v: GradedSubspace) -> GradedSubspace:
    """Span of [a, b] over basis vectors a of u and b of v.

    Reads the stored echelon rows of u and v and the integral table (the
    span does not change when the bracket is scaled).  The entries of v's
    rows are indexed by column, so each row a of u meets, through the
    nonzero cells [b_i, b_j] of its columns i, only the rows b of v with an
    entry at j.
    The products [a, b] so formed are reduced into their parity's echelon;
    products whose target part already has full rank are skipped.
    """
    by_left = _cells_by_operand(algebra)[0]
    sizes = (algebra.n_even, algebra.n_odd)
    # v's rows are numbered even part first: row r is odd iff r >= n_v_even.
    n_v_even = len(v._echelons[EVEN])
    v_by_col: dict[int, list[tuple[int, int | Fraction]]] = {}
    for r, row in enumerate(chain(v._echelons[EVEN].values(), v._echelons[ODD].values())):
        for j, b in row.items():
            v_by_col.setdefault(j, []).append((r, b))
    echelons: tuple[dict, dict] = ({}, {})
    for pu in (EVEN, ODD):
        for row_u in u._echelons[pu].values():
            products: dict[int, SparseRow] = {}   # r -> [row_u, row r of v]
            for i, a in row_u.items():
                for j, terms in by_left[i]:
                    for r, b in v_by_col.get(j, ()):
                        _subtract(products.setdefault(r, {}), -a * b, terms)
            for r, out in products.items():
                target = pu ^ (r >= n_v_even)
                if out and len(echelons[target]) < sizes[target]:
                    _reduce_into(echelons[target], out)
    return GradedSubspace(algebra, echelons)


def _series(full: GradedSubspace, step) -> list[GradedSubspace]:
    """full, step(full), step(step(full)), ... until a term keeps the dims
    of the one before it, or is zero.

    Every series here is nested, T_{k+1} ⊆ T_k, for any bilinear product:
    [L, L] ⊆ L starts it, and then L^{k+1} = [L^k, L] ⊆ [L^{k-1}, L] = L^k,
    L^(k+1) = [L^(k), L^(k)] ⊆ [L^(k-1), L^(k-1)] = L^(k) and F_{j+1} =
    [F_j, L0] ⊆ [F_{j-1}, L0] = F_j by induction.  So equal dims mean equal
    terms, and the series has reached its last one.
    """
    series = [full]
    while True:
        nxt = step(series[-1])
        if nxt.dims() == series[-1].dims():
            break
        series.append(nxt)
        if nxt.is_zero():
            break
    return series


@_once_per_algebra
def lower_central_series(algebra: SuperAlgebra) -> list[GradedSubspace]:
    """L^1 = L, L^{k+1} = [L^k, L], computed until the first repeat or zero,
    once per algebra; each call returns a new list of the terms."""
    full = GradedSubspace.full(algebra)
    return _series(full, lambda s: subspace_product(algebra, s, full))


@_once_per_algebra
def derived_series(algebra: SuperAlgebra) -> list[GradedSubspace]:
    """L^(1) = L, L^(k+1) = [L^(k), L^(k)], until the first repeat or zero,
    once per algebra; each call returns a new list of the terms."""
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
    even = subalgebra(algebra, range(algebra.n_even), "even")
    even_only = derived_series(even)[-1].is_zero()
    if whole != even_only:
        raise InternalInconsistencyError(
            f"solvability of {algebra.name!r} disagrees with its even part "
            f"(full: {whole}, even: {even_only})")
    return whole


def right_annihilator(algebra: SuperAlgebra) -> GradedSubspace:
    """Exact solution set of [b_i, z] = 0 for every basis vector b_i, read
    off the integral table (a scaled bracket has the same kernel)."""
    table = algebra._integral_structure()
    n0, n1 = algebra.n_even, algebra.n_odd
    echelons: tuple[dict, dict] = ({}, {})
    for echelon, size, offset in zip(echelons, (n0, n1), (0, n0)):
        rows: dict[tuple[int, int], SparseRow] = {}
        for i in range(algebra.dim):
            for j in range(size):
                for k, c in table.get((i, offset + j), ()):
                    rows.setdefault((i, k), {})[j] = c
        for vec in sparse_kernel(rows.values(), size):
            _reduce_into(echelon, {offset + j: x for j, x in vec.items()})
    return GradedSubspace(algebra, echelons)


# ---------------------------------------------------------------------------
# Characteristic sequence
# ---------------------------------------------------------------------------

@_once_per_algebra
def charseq_bound(algebra: SuperAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lex-largest Jordan types that any even R_x can have, per parity block.

    The word filtration F_0 = L, F_{j+1} = [F_j, L0] is the span of the
    right-normed products with j even factors, and R_x maps F_j into
    F_{j+1} for every even x.  F_j lies in L^{j+1}, so on a nilpotent
    algebra it reaches zero.  If the parity-p part of F_j is zero from
    j = s_p on, then R_x^{s_p} = 0 on that block for every even x: each
    Jordan block has size at most s_p, and the lex-largest partition of the
    block's dimension allowed is (s_p, ..., s_p, r).  Computed once per
    algebra; a non-nilpotent algebra is a NotNilpotentError.
    """
    if not is_nilpotent(algebra):
        raise NotNilpotentError(
            f"characteristic sequence needs a nilpotent algebra, got {algebra.name!r}")
    full = GradedSubspace.full(algebra)
    even = GradedSubspace(algebra, (full._echelons[EVEN], {}))
    words = _series(full, lambda term: subspace_product(algebra, term, even))
    bounds = []
    for parity, size in ((EVEN, algebra.n_even), (ODD, algebra.n_odd)):
        s = sum(1 for term in words if term.dims()[parity])
        q, r = divmod(size, s) if s else (0, 0)
        bounds.append((s,) * q + ((r,) if r else ()))
    return bounds[EVEN], bounds[ODD]


def charseq_note(algebra: SuperAlgebra,
                 charseq: tuple[tuple[int, ...], tuple[int, ...]]) -> str:
    """"certified" when a characteristic sequence equals `charseq_bound` in
    both blocks, else "sampled max (bound s)", s the bound's largest part:
    R_x^s = 0 for every even x."""
    bound = charseq_bound(algebra)
    if charseq == bound:
        return "certified"
    return f"sampled max (bound {max(bound[EVEN] + bound[ODD])})"


# Caps on char_sequence's arguments.  Each candidate costs two Jordan types,
# so `samples` bounds the run time of a search that never reaches
# `charseq_bound`; `bound` only widens the box of integer coordinates, which
# is never needed beyond a few units.
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
    order).  Candidates are taken in that order, and the search stops as
    soon as both maxima equal `charseq_bound`, which no R_x can exceed: the
    result is then the exact maximum over L0 \\ L0^2, and the same as with
    the whole sample.  Otherwise it is a sampled maximum; `charseq_note`
    tells the two apart.  A negative `samples` or `bound`, or one above
    MAX_SAMPLES or MAX_BOUND, is an InputError.
    """
    for name, value, cap_name, cap in (("samples", samples, "MAX_SAMPLES", MAX_SAMPLES),
                                       ("bound", bound, "MAX_BOUND", MAX_BOUND)):
        if value < 0:
            raise InputError(f"char_sequence: {name} must be >= 0 (got {shown(value)})")
        if value > cap:
            raise InputError(f"char_sequence: {name} must be <= {cap_name} = "
                             f"{cap} (got {shown(value)})")
    ceiling = charseq_bound(algebra)
    n0 = algebra.n_even
    even = GradedSubspace(algebra, ({i: {i: 1} for i in range(n0)}, {}))
    square = subspace_product(algebra, even, even)   # [L0, L0]

    def admissible(coords: Sequence[Fraction]) -> bool:
        return any(coords) and not square.contains_part_vector(EVEN, coords)

    basis: list[tuple[Fraction, ...]] = []
    for i in range(n0):
        coords = tuple(Fraction(1 if j == i else 0) for j in range(n0))
        if admissible(coords):
            basis.append(coords)
    if not basis:
        raise DegenerateSamplingError(
            f"every even basis vector of {algebra.name!r} lies in L0^2")

    def drawn() -> Iterator[tuple[Fraction, ...]]:
        rng = random.Random(seed)
        kept = len(basis)
        for _ in range(50 * (samples + 1)):
            if kept >= n0 + samples:
                return
            coords = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n0))
            if admissible(coords):
                kept += 1
                yield coords

    best: tuple[tuple[int, ...], ...] = ()
    odd_zeros = (Fraction(0),) * algebra.n_odd
    blocks = (range(n0), range(n0, algebra.dim))
    for coords in chain(basis, drawn()):
        x = GradedVector(coords + odd_zeros)
        types = tuple(nilpotent_jordan_type(len(block), right_mul_cells(algebra, x, block))
                      for block in blocks)
        if None in types:
            raise InternalInconsistencyError(
                "right multiplication non-nilpotent on a nilpotent algebra")
        if any(t > top for t, top in zip(types, ceiling)):
            raise InternalInconsistencyError(
                f"a Jordan type of R_x in {algebra.name!r} exceeds the "
                f"word-filtration bound {ceiling}")
        best = tuple(map(max, best, types)) if best else types
        if best == ceiling:
            break
    return best[EVEN], best[ODD]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class Fingerprint(NamedTuple):
    """Isomorphism-invariant summary used to tell algebras apart.

    charseq is None for non-nilpotent algebras; when present, it may be a
    sampled maximum (`charseq_note` says which).  Fingerprints compare as
    plain tuples.  Equality of fingerprints never proves isomorphism;
    inequality disproves it.
    """

    dims: tuple[int, int]
    lower_central: tuple[tuple[int, int], ...]
    derived: tuple[tuple[int, int], ...]
    nilindex: int | None
    solvable: bool
    annihilator: tuple[int, int]
    derivation_dims: tuple[int, int]
    charseq: tuple[tuple[int, ...], tuple[int, ...]] | None


def fingerprint(algebra: SuperAlgebra, seed: int = 0) -> Fingerprint:
    from .derivations import derivation_space  # local import to avoid a cycle

    lcs = lower_central_series(algebra)
    ds = derived_series(algebra)
    nil = nilindex(algebra)
    ann = right_annihilator(algebra)
    even_dim = derivation_space(algebra, EVEN).dim
    odd_dim = derivation_space(algebra, ODD).dim
    cs = char_sequence(algebra, seed=seed) if nil is not None else None
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
            "value": [[algebra.label(k), str(c)] for k, c in terms],
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
                         f"[label, coefficient] pairs, got {shown(term)}")
    coeff = term[1]
    if isinstance(coeff, float):
        raise InputError(f"coefficient {shown(coeff)} in product {where} is a float; "
                         f"write it exactly as a string such as \"3/2\"")
    if not isinstance(coeff, (str, int)) or isinstance(coeff, bool):
        raise InputError(f"coefficient {shown(coeff)} in product {where} must be "
                         f"a string or an integer")
    return term[0], coeff


# Caps on an SDF's size.  `superalg family` emits at most 130 basis vectors
# and 64 parameters at MAX_SIZE (MH1 and H5 at n = 64); every invariant costs
# at least dim^3 and each parameter widens every symbolic coefficient.
MAX_BASIS = 256
MAX_PARAMETERS = 128


def sdf_load(data: dict) -> SuperAlgebra:
    """Parse an SDF dict.  Malformed shapes, float coefficients, grading
    violations and a basis or parameter list over MAX_BASIS or
    MAX_PARAMETERS are rejected as InputError naming the product or cap."""
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
    for what, count, cap_name, cap in (
            ("basis vectors", len(even) + len(odd), "MAX_BASIS", MAX_BASIS),
            ("parameters", len(parameters), "MAX_PARAMETERS", MAX_PARAMETERS)):
        if count > cap:
            raise InputError(f"SDF has {count} {what}; at most {cap_name} = {cap} "
                             f"are allowed")
    if not isinstance(raw_products, list):
        raise InputError("malformed SDF: products must be a list of objects")
    products: dict[tuple[str, str], list[tuple[str, object]]] = {}
    for entry in raw_products:
        if not (isinstance(entry, dict) and "value" in entry
                and isinstance(entry.get("left"), str)
                and isinstance(entry.get("right"), str)):
            raise InputError(f"malformed SDF product entry: {shown(entry)}")
        left, right, value = entry["left"], entry["right"], entry["value"]
        where = "[{}, {}]".format(*(label if len(label) <= SHOWN_LENGTH else shown(label)
                                    for label in (left, right)))
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
