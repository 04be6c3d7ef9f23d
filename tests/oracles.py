"""Independent oracles used to cross-check the engine.

Everything here is deliberately written against the raw definitions with its
own elimination code, so that agreement with the package is evidence rather
than tautology.  From the package it imports only the data model (algebras,
vectors, subspaces, polynomials, dense matrices, errors), the catalog lookups,
and `_reduce_into` to build a subspace; products, inverses and changes of
basis are computed here from `SuperAlgebra.structure`.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

from superalg.core import (EVEN, ODD, GradedSubspace, GradedVector, SuperAlgebra,
                           make_superalgebra)
from superalg.errors import InputError
from superalg.exactmath import Polynomial, RatMatrix, _reduce_into


# -- dense matrix arithmetic, entry by entry ----------------------------------

def mat_add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("matrix shape mismatch in addition")
    return RatMatrix(a.rows, a.cols, tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries)))


def mat_scale(m: RatMatrix, c: Fraction | int) -> RatMatrix:
    c = Fraction(c)
    return RatMatrix(m.rows, m.cols, tuple(tuple(c * x for x in row) for row in m.entries))


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ValueError("matrix shape mismatch in product")
    cols = list(zip(*b.entries))
    return RatMatrix(a.rows, b.cols, tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
        for row in a.entries))


def mat_apply(m: RatMatrix, vec) -> tuple[Fraction, ...]:
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in m.entries)


def from_rows(rows) -> RatMatrix:
    """A dense matrix from its rows; Fraction entries are kept as they are,
    the rest converted.  Ragged rows are an InputError."""
    data = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                 for row in rows)
    if not data:
        return RatMatrix(0, 0, ())
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise InputError("ragged rows in matrix literal")
    return RatMatrix(len(data), width, data)


def identity(n: int) -> RatMatrix:
    return from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def invert(m: RatMatrix) -> RatMatrix:
    """P^{-1}, read off `dense_rref` of [P | I]; a singular P is an InputError."""
    n = m.rows
    reduced, pivots = dense_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(m.entries)], 2 * n)
    if pivots != tuple(range(n)):
        raise InputError("matrix is singular")
    return from_rows(row[n:] for row in reduced)


def dense_part(sub: GradedSubspace, parity: int) -> RatMatrix:
    """The rows of sub's part of the given parity as a dense matrix over that
    part's basis, read from its public `parts`; zeros are Fraction(0)."""
    offset, width = (0, sub.n_even) if parity == EVEN else (sub.n_even, sub.n_odd)
    rows = []
    for _, row in sub.parts[parity]:
        dense = [Fraction(0)] * width
        for c, x in row:
            dense[c - offset] = x
        rows.append(tuple(dense))
    return RatMatrix(len(rows), width, tuple(rows))


def dense_basis(space, n: int) -> tuple[RatMatrix, ...]:
    """The basis of a derivation space as dense n x n matrices, read from its
    public `cells`; zeros are Fraction(0)."""
    return tuple(RatMatrix(n, n, tuple(tuple(cells.get((l, k), Fraction(0)) for k in range(n))
                                       for l in range(n)))
                 for cells in space.cells)


def cells_of(m: RatMatrix) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of m as {(i, j): value}."""
    return {(i, j): x for i, row in enumerate(m.entries) for j, x in enumerate(row) if x}


def diagonal(m: RatMatrix) -> tuple[Fraction, ...]:
    return tuple(m.entries[i][i] for i in range(min(m.rows, m.cols)))


def widen(vectors, ncols: int) -> list[tuple[Fraction, ...]]:
    """Sparse {column: value} vectors as dense tuples of length ncols."""
    return [tuple(vec.get(j, Fraction(0)) for j in range(ncols)) for vec in vectors]


def subspace_from_vectors(algebra: SuperAlgebra, even_vectors,
                          odd_vectors) -> GradedSubspace:
    """The graded subspace spanned by coordinate vectors of each part.  It
    builds an engine input, in the engine's stored form, and computes no
    value that a test checks; `_reduce_into` is used for that alone."""
    echelons: tuple[dict, dict] = ({}, {})
    for parity, offset, vectors in ((EVEN, 0, even_vectors),
                                    (ODD, algebra.n_even, odd_vectors)):
        for vec in vectors:
            _reduce_into(echelons[parity],
                         {offset + j: Fraction(x) for j, x in enumerate(vec) if x})
    return GradedSubspace(algebra, echelons)


# -- products and changes of basis, read off `structure` ------------------------

def product(algebra: SuperAlgebra, x: GradedVector, y: GradedVector) -> GradedVector:
    """[x, y]: the bilinear extension of the structure constants, term by
    term over the nonzero coordinates (parameter-free algebras only)."""
    if algebra.parameters:
        raise InputError(f"algebra {algebra.name!r} has free parameters")
    out = [Fraction(0)] * algebra.dim
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if yj:
                for k, c in algebra.structure.get((i, j), ()):
                    out[k] += xi * yj * c
    return GradedVector(tuple(out))


def generated_dim(algebra: SuperAlgebra, generators) -> int:
    """Dimension of the subalgebra generated by the basis vectors with the
    given indices: a product (`product`) of two kept vectors, in either
    order, is kept when it raises the rank (`bareiss_rank`) of those kept,
    until every pair has been multiplied or the whole space is spanned."""
    kept: list[GradedVector] = []

    def keep(v: GradedVector) -> None:
        if any(v.coords) and bareiss_rank([list(u.coords) for u in kept + [v]]) > len(kept):
            kept.append(v)

    for i in generators:
        keep(GradedVector.basis(algebra, algebra.labels[i]))
    done = 0
    while done < len(kept) < algebra.dim:
        x = kept[done]
        for y in kept[:done + 1]:
            keep(product(algebra, x, y))
            keep(product(algebra, y, x))
        done += 1
    return len(kept)


def change_basis(algebra: SuperAlgebra, p_even: RatMatrix, p_odd: RatMatrix) -> SuperAlgebra:
    """The table in the basis f_a = sum_i P[i,a] b_i, P = diag(p_even, p_odd):
    [f_a, f_b] = sum P[i,a] P[j,b] c_ij^k Q[t,k] f_t with Q = P^{-1}.  The
    constructor merges the terms by target and drops zero sums."""
    n0, dim = algebra.n_even, algebra.dim
    p = [[Fraction(0)] * dim for _ in range(dim)]
    for offset, block in ((0, p_even), (n0, p_odd)):
        for i, row in enumerate(block.entries):
            p[offset + i][offset:offset + len(row)] = row
    q = invert(from_rows(p)).entries
    structure = {(a, b): [(t, p[i][a] * p[j][b] * c * q[t][k])
                          for (i, j), terms in algebra.structure.items()
                          if p[i][a] and p[j][b]
                          for k, c in terms for t in range(dim) if q[t][k]]
                 for a in range(dim) for b in range(dim)}
    return SuperAlgebra(f"{algebra.name}~", algebra.even_basis, algebra.odd_basis,
                        algebra.parameters, structure)


def _stored_rows(sub: GradedSubspace, parity: int) -> list[list]:
    """The stored basis rows of one part of sub, dense over that part."""
    offset, width = (0, sub.n_even) if parity == EVEN else (sub.n_even, sub.n_odd)
    return [[row.get(offset + j, 0) for j in range(width)]
            for row in sub._echelons[parity].values()]


def _spans(rows: list[list], more: list[list]) -> bool:
    """Whether every row of `more` lies in the span of `rows`, by rank."""
    return bareiss_rank(rows + more) == bareiss_rank(rows)


def contains_vector(sub: GradedSubspace, algebra: SuperAlgebra, v: GradedVector) -> bool:
    """Whether v lies in the graded subspace, one parity part at a time."""
    n0 = algebra.n_even
    return (_spans(_stored_rows(sub, EVEN), [list(v.coords[:n0])])
            and _spans(_stored_rows(sub, ODD), [list(v.coords[n0:])]))


def contains_subspace(sub: GradedSubspace, other: GradedSubspace) -> bool:
    """Whether each part of other lies in sub's matching part."""
    return all(_spans(_stored_rows(sub, parity), _stored_rows(other, parity))
               for parity in (EVEN, ODD))


def bareiss_rank(rows: list[list[Fraction]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on a scaled integer copy."""
    if not rows or not rows[0]:
        return 0
    m = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * Fraction(x).denominator // _gcd(denom, Fraction(x).denominator)
        m.append([int(Fraction(x) * denom) for x in row])
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a) or 1


def echelon_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis via forward elimination + back substitution (no rref)."""
    work = [list(map(Fraction, row)) for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        sol = [Fraction(0)] * ncols
        sol[fc] = Fraction(1)
        for row_idx in range(len(pivots) - 1, -1, -1):
            pc = pivots[row_idx]
            s = sum((work[row_idx][c] * sol[c] for c in range(pc + 1, ncols)),
                    Fraction(0))
            sol[pc] = -s / work[row_idx][pc]
        basis.append(sol)
    return basis


def dense_rref(rows: list[list[Fraction]],
               ncols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form by plain dense Gauss-Jordan, row by row over
    the whole matrix, with its pivot columns."""
    work = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        support = [(j, x) for j, x in enumerate(work[r]) if x]
        for i in range(len(work)):
            if i != r and work[i][c]:
                row, f = work[i], work[i][c]
                for j, x in support:   # the other columns of row i stay as they are
                    row[j] -= f * x
        pivots.append(c)
        r += 1
    return work, tuple(pivots)


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis read off `dense_rref`: one vector per free column, with a
    1 there and minus the free column's entries at the pivot positions."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(tuple(vec))
    return basis


def jordan_type_by_powers(m: RatMatrix) -> tuple[int, ...] | None:
    """Jordan type from kernel dimensions of powers, or None if not nilpotent."""
    dim = m.rows
    kernel_dims = [0]
    power = identity(dim)
    for _ in range(dim):
        power = mat_mul(power, m)
        kernel_dims.append(dim - bareiss_rank([list(r) for r in power.entries]))
        if kernel_dims[-1] == dim:
            break
    if kernel_dims[-1] != dim:
        return None
    # kernel_dims[k] - kernel_dims[k-1] counts the blocks of size >= k.
    sizes: list[int] = []
    for k in range(len(kernel_dims) - 1, 0, -1):
        ge_k = kernel_dims[k] - kernel_dims[k - 1]
        ge_k1 = (kernel_dims[k + 1] - kernel_dims[k]
                 if k + 1 < len(kernel_dims) else 0)
        sizes.extend([k] * (ge_k - ge_k1))
    return tuple(sorted(sizes, reverse=True))


def charseq_by_enumeration(algebra: SuperAlgebra, box: int = 2
                           ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Componentwise lex maxima of the Jordan types of R_x on each parity
    block, over every x in {-box..box}^n0 outside L0^2.

    R_x(b_j) = [b_j, x] for even x is computed by `product`, membership of
    L0^2 by `bareiss_rank`, and the types by `jordan_type_by_powers`.
    """
    n0 = algebra.n_even
    basis = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    square = [list(product(algebra, x, y).coords[:n0])
              for x in basis[:n0] for y in basis[:n0]]
    square_rank = span_dim(square)
    best: list = [(), ()]
    for coords in itertools.product(range(-box, box + 1), repeat=n0):
        # R_{-x} = -R_x has the type of R_x: keep x leading with a positive entry.
        if not any(coords) or next(c for c in coords if c) < 0:
            continue
        if span_dim(square + [list(coords)]) == square_rank:
            continue  # in L0^2
        x = GradedVector.from_coords(list(coords) + [0] * algebra.n_odd)
        images = [product(algebra, b, x).coords for b in basis]
        for parity, (lo, hi) in enumerate(((0, n0), (n0, algebra.dim))):
            block = from_rows([[images[j][i] for j in range(lo, hi)]
                               for i in range(lo, hi)])
            best[parity] = max(best[parity], jordan_type_by_powers(block))
    return best[0], best[1]


def _basis_products(algebra: SuperAlgebra):
    """The basis vectors and every product [b_i, b_j], computed by `product`."""
    basis = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    return basis, {(i, j): product(algebra, x, y)
                   for i, x in enumerate(basis) for j, y in enumerate(basis)}


def brute_leibniz_residuals(algebra: SuperAlgebra):
    """Evaluate the graded Leibniz identity triple by triple via products.

    A triple whose three inner products [y,z], [x,y], [x,z] all vanish has
    all three terms zero by bilinearity, so it is skipped.
    """
    out = []
    basis, prod = _basis_products(algebra)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                yz, xy, xz = prod[j, k], prod[i, j], prod[i, k]
                if not any(yz.coords + xy.coords + xz.coords):
                    continue
                sign = -1 if (algebra.parity(j) and algebra.parity(k)) else 1
                lhs = product(algebra, x, yz)
                r1 = product(algebra, xy, z)
                r2 = product(algebra, xz, y)
                coords = [a - b + sign * c if a or b or c else 0
                          for a, b, c in zip(lhs.coords, r1.coords, r2.coords)]
                for comp, value in enumerate(coords):
                    if value:
                        out.append(((algebra.labels[i], algebra.labels[j],
                                     algebra.labels[k]), algebra.labels[comp],
                                    value))
    return out


def brute_lie_residuals(algebra: SuperAlgebra):
    """Evaluate graded antisymmetry (pairs i <= j), then the graded Jacobi
    identity (all triples), via products of basis vectors.  A triple whose
    inner products [y,z], [z,x], [x,y] all vanish is skipped."""
    out = []
    labels = algebra.labels
    basis, prod = _basis_products(algebra)
    parity = algebra.parity

    def record(identity, where, coords):
        for comp, value in enumerate(coords):
            if value:
                out.append((identity, where, labels[comp], value))

    for i in range(len(basis)):
        for j in range(i, len(basis)):
            sign = -1 if (parity(i) and parity(j)) else 1
            record("antisymmetry", (labels[i], labels[j]),
                   [a + sign * b for a, b in zip(prod[i, j].coords,
                                                 prod[j, i].coords)])
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            for k, z in enumerate(basis):
                yz, zx, xy = prod[j, k], prod[k, i], prod[i, j]
                if not any(yz.coords + zx.coords + xy.coords):
                    continue
                s1 = -1 if (parity(i) and parity(k)) else 1
                s2 = -1 if (parity(j) and parity(i)) else 1
                s3 = -1 if (parity(k) and parity(j)) else 1
                t1 = product(algebra, x, yz)
                t2 = product(algebra, y, zx)
                t3 = product(algebra, z, xy)
                record("jacobi", (labels[i], labels[j], labels[k]),
                       [s1 * a + s2 * b + s3 * c if a or b or c else 0
                        for a, b, c in zip(t1.coords, t2.coords, t3.coords)])
    return out


def _polynomial_bracket(algebra: SuperAlgebra):
    """[x, y] of vectors held as {basis index: Polynomial}, from the raw
    structure table with every coefficient made a Polynomial (no scaling,
    no exponent packing); components that sum to zero are dropped."""
    variables = algebra.parameters
    table = {key: [(k, c if isinstance(c, Polynomial) else Polynomial.const(c, variables))
                   for k, c in terms] for key, terms in algebra.structure.items()}

    def bracket(x: dict, y: dict) -> dict:
        out: dict[int, Polynomial] = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in table.get((i, j), ()):
                    out[k] = out.get(k, zero) + xi * yj * c
        return {k: v for k, v in out.items() if v.terms}

    one, zero = Polynomial.const(1, variables), Polynomial(variables)
    return bracket, [{i: one} for i in range(algebra.dim)], zero


def polynomial_leibniz_residuals(algebra: SuperAlgebra):
    """The graded Leibniz identity evaluated triple by triple in `Polynomial`
    arithmetic over the algebra's parameters: every residual as (where,
    component, Polynomial), in the order of `check_leibniz`."""
    out = []
    labels, parity = algebra.labels, algebra.parity
    bracket, basis, zero = _polynomial_bracket(algebra)
    for i, j, k in itertools.product(range(algebra.dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        sign = -1 if (parity(j) and parity(k)) else 1
        lhs = bracket(x, bracket(y, z))
        r1 = bracket(bracket(x, y), z)
        r2 = bracket(bracket(x, z), y)
        for comp in range(algebra.dim):
            value = lhs.get(comp, zero) - r1.get(comp, zero) + r2.get(comp, zero) * sign
            if value.terms:
                out.append(((labels[i], labels[j], labels[k]), labels[comp], value))
    return out


def polynomial_lie_residuals(algebra: SuperAlgebra):
    """Graded antisymmetry (pairs i <= j), then the graded Jacobi identity
    (all triples), in `Polynomial` arithmetic like
    `polynomial_leibniz_residuals`: (identity, where, component, Polynomial)
    in the order of `check_lie`."""
    out = []
    labels, parity, dim = algebra.labels, algebra.parity, algebra.dim
    bracket, basis, zero = _polynomial_bracket(algebra)

    def record(identity, where, terms):
        for comp in range(dim):
            value = sum((s * t.get(comp, zero) for s, t in terms), zero)
            if value.terms:
                out.append((identity, tuple(labels[w] for w in where), labels[comp], value))

    for i in range(dim):
        for j in range(i, dim):
            record("antisymmetry", (i, j),
                   [(1, bracket(basis[i], basis[j])),
                    (-1 if (parity(i) and parity(j)) else 1, bracket(basis[j], basis[i]))])
    for i, j, k in itertools.product(range(dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        record("jacobi", (i, j, k),
               [(-1 if (parity(i) and parity(k)) else 1, bracket(x, bracket(y, z))),
                (-1 if (parity(j) and parity(i)) else 1, bracket(y, bracket(z, x))),
                (-1 if (parity(k) and parity(j)) else 1, bracket(z, bracket(x, y)))])
    return out


def derivation_residuals(algebra: SuperAlgebra, matrix: RatMatrix, degree: int):
    """Evaluate D([x,y]) - [D x, y] - (-1)^{s p_x} [x, D y] on every ordered
    pair of basis vectors via products and `mat_apply`, listing the
    nonzero components."""
    out = []
    labels = algebra.labels
    basis = [GradedVector.basis(algebra, lab) for lab in labels]
    images = [GradedVector(mat_apply(matrix, x.coords)) for x in basis]
    for i, x in enumerate(basis):
        sign = (-1) ** (degree * algebra.parity(i))
        for j, y in enumerate(basis):
            lhs = mat_apply(matrix, product(algebra, x, y).coords)
            first = product(algebra, images[i], y).coords
            second = product(algebra, x, images[j]).coords
            for comp, (a, b, c) in enumerate(zip(lhs, first, second)):
                value = a - b - sign * c
                if value:
                    out.append(((labels[i], labels[j]), labels[comp], value))
    return out


def dense_derivation_kernel(algebra: SuperAlgebra,
                            degree: int) -> list[tuple[Fraction, ...]]:
    """The degree-s derivation space as flattened dim x dim matrices (entry
    D[p, q] at p * dim + q): `dense_kernel` of the identity written out
    densely over the entries the grading allows, one row per pair
    (b_i, b_j) and component l, with coefficients from the nonzero
    components of products of basis vectors."""
    dim = algebra.dim
    parity = [algebra.parity(i) for i in range(dim)]
    unknowns = [(p, q) for p in range(dim) for q in range(dim)
                if parity[p] == (parity[q] + degree) % 2]
    column = {pq: idx for idx, pq in enumerate(unknowns)}
    basis = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    # prods[x][y]: the nonzero components of [b_x, b_y] as (index, value)
    prods = [[[(q, v) for q, v in enumerate(product(algebra, x, y).coords) if v]
              for y in basis] for x in basis]

    rows: dict[tuple, None] = {}   # distinct rows as (column, value) pairs, first seen first
    for i in range(dim):
        sign = (-1) ** (degree * parity[i])
        for j in range(dim):
            # component l of [b_p, b_j] and of [b_i, b_p], as (p, value) by l
            left: list[list] = [[] for _ in range(dim)]
            right: list[list] = [[] for _ in range(dim)]
            for p in range(dim):
                for l, v in prods[p][j]:
                    left[l].append((p, v))
                for l, v in prods[i][p]:
                    right[l].append((p, v))
            for l in range(dim):
                terms = ([((l, q), v) for q, v in prods[i][j]]   # D([b_i, b_j])
                         + [((p, i), -v) for p, v in left[l]]   # [D b_i, b_j]
                         + [((p, j), -sign * v) for p, v in right[l]])   # [b_i, D b_j]
                row: dict[int, Fraction] = {}
                for entry, value in terms:
                    if entry in column:   # entries the grading forbids are 0
                        row[column[entry]] = row.get(column[entry], 0) + value
                if any(row.values()):
                    rows[tuple(sorted((c, v) for c, v in row.items() if v))] = None
    dense = [[Fraction(0)] * len(unknowns) for _ in rows]
    for vec, row in zip(dense, rows):
        for c, v in row:
            vec[c] = v
    kernel = []
    for vec in dense_kernel(dense, len(unknowns)):
        flat = [Fraction(0)] * (dim * dim)
        for (p, q), value in zip(unknowns, vec):
            flat[p * dim + q] = value
        kernel.append(tuple(flat))
    return kernel


def dense_right_annihilator(algebra: SuperAlgebra,
                            ) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]]]:
    """Kernel bases over the even and the odd part of [b_i, z] = 0 for every
    basis vector b_i: `dense_kernel` of the system written out densely, one
    row per (b_i, component l), with coefficients from products of basis
    vectors."""
    n0 = algebra.n_even
    basis = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    prods = [[product(algebra, x, y).coords for y in basis] for x in basis]
    kernels = []
    for lo, hi in ((0, n0), (n0, algebra.dim)):
        rows = [[prods[i][j][l] for j in range(lo, hi)]
                for i in range(algebra.dim) for l in range(algebra.dim)]
        kernels.append(dense_kernel([row for row in rows if any(row)], hi - lo))
    return kernels[0], kernels[1]


def _dense_graded_basis(algebra: SuperAlgebra, spanning: list[GradedVector],
                        ) -> tuple[list[GradedVector], tuple[int, int]]:
    """Basis of the graded span of `spanning`: the even and the odd
    components are each reduced by `dense_rref`; the ranks are the dims."""
    n0 = algebra.n_even
    basis: list[GradedVector] = []
    dims = []
    for lo, hi in ((0, n0), (n0, algebra.dim)):
        rows = [list(v.coords[lo:hi]) for v in spanning if any(v.coords[lo:hi])]
        reduced, pivots = dense_rref(rows, hi - lo)
        for row in reduced[:len(pivots)]:
            coords = [Fraction(0)] * algebra.dim
            coords[lo:hi] = row
            basis.append(GradedVector(tuple(coords)))
        dims.append(len(pivots))
    return basis, (dims[0], dims[1])


def dense_subspace_product(algebra: SuperAlgebra, u: list[GradedVector],
                           v: list[GradedVector],
                           ) -> tuple[list[GradedVector], tuple[int, int]]:
    """The graded span of [a, b] over the spanning vectors a of u and b of
    v: every `product` of the two, reduced per parity by `dense_rref`, as
    the reduced rows over the whole basis (even part first) and the dims."""
    return _dense_graded_basis(algebra, [product(algebra, a, b) for a in u for b in v])


def _dense_series(algebra: SuperAlgebra, step) -> list[tuple[int, int]]:
    """Dims of T_1 = L, T_{k+1} = span step(T_k), until a term keeps the
    previous dims (the terms only shrink) or is zero."""
    full = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    term, dims = _dense_graded_basis(algebra, full)
    series = [dims]
    while True:
        term, dims = _dense_graded_basis(algebra, step(term, full))
        if dims == series[-1]:
            return series
        series.append(dims)
        if dims == (0, 0):
            return series


def dense_lower_central_series(algebra: SuperAlgebra) -> list[tuple[int, int]]:
    """Per-parity dims of L^1 = L, L^{k+1} = [L^k, L], each term spanned by
    `product` of the previous term's basis with the basis of L."""
    return _dense_series(algebra, lambda term, full: [
        product(algebra, x, y) for x in term for y in full])


def dense_derived_series(algebra: SuperAlgebra) -> list[tuple[int, int]]:
    """Per-parity dims of L^(1) = L, L^(k+1) = [L^(k), L^(k)], each term
    spanned by `product` of the previous term's basis with itself."""
    return _dense_series(algebra, lambda term, full: [
        product(algebra, x, y) for x in term for y in term])


def random_graded_algebra(rng: random.Random, n0: int, n1: int,
                          density: float = 0.3, values: tuple | None = None,
                          parameters: tuple[str, ...] = ()) -> SuperAlgebra:
    """Random sparse structure constants respecting the grading (rarely Leibniz).

    Each product has one term; its coefficient is drawn from `values` (numbers
    or coefficient strings over `parameters`), or is an integer in [-3, 3]
    (zero drops the product) when `values` is None.
    """
    even = [f"a{i}" for i in range(1, n0 + 1)]
    odd = [f"b{i}" for i in range(1, n1 + 1)]
    labels = even + odd
    parity = lambda idx: EVEN if idx < n0 else ODD
    products = {}
    for i in range(n0 + n1):
        for j in range(n0 + n1):
            if rng.random() >= density:
                continue
            target_parity = (parity(i) + parity(j)) % 2
            targets = [k for k in range(n0 + n1) if parity(k) == target_parity]
            if not targets:
                continue
            k = rng.choice(targets)
            value = rng.choice(values) if values else Fraction(rng.randint(-3, 3))
            if value:
                products[(labels[i], labels[j])] = [(labels[k], value)]
    return make_superalgebra("random", even, odd, parameters, products)


def random_nilpotent_matrix(rng: random.Random, dim: int) -> RatMatrix:
    """Strictly triangular seed conjugated by a unimodular integer matrix."""
    strict = [[Fraction(rng.randint(-4, 4)) if j > i else Fraction(0)
               for j in range(dim)] for i in range(dim)]
    lower = [[Fraction(1) if i == j
              else (Fraction(rng.randint(-2, 2)) if j < i else Fraction(0))
              for j in range(dim)] for i in range(dim)]
    n = from_rows(strict)
    p = from_rows(lower)
    return mat_mul(mat_mul(invert(p), n), p)


def random_parity_change(rng: random.Random, n0: int, n1: int):
    """A random invertible parity-preserving change of basis (two blocks)."""

    def block(size: int) -> RatMatrix:
        while True:
            grid = [[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                    for _ in range(size)]
            for i in range(size):
                grid[i][i] += 1
            if bareiss_rank(grid) == size:
                return from_rows(grid)

    return block(n0), block(n1)


def support_torus_dim(algebra: SuperAlgebra) -> int:
    """Dimension of the diagonal derivations d(b_i) = d_i b_i, read from the
    nonzero structure cells only: each [b_i, b_j] with a nonzero b_k
    coefficient forces d_k - d_i - d_j = 0; the torus is the solution space,
    ranked by `dense_rref`."""
    rows = []
    for (i, j), terms in algebra.structure.items():
        for k, c in terms:
            if c:
                row = [Fraction(0)] * algebra.dim
                row[k] += 1
                row[i] -= 1
                row[j] -= 1
                rows.append(row)
    return algebra.dim - len(dense_rref(rows, algebra.dim)[1])


def _value_of_text(text: str, values: dict) -> Fraction:
    """A coefficient as `sdf_dump` writes it: signed terms, each a product of
    rationals p or p/q and names with an optional ^k, evaluated at `values`."""
    total = Fraction(0)
    for sign, term in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        value = Fraction(-1 if sign == "-" else 1)
        for factor in term.split("*"):
            base, _, power = factor.partition("^")
            x = Fraction(base) if base[0].isdigit() else Fraction(values[base])
            value *= x ** int(power or 1)
        total += value
    return total


def valued_table_by_text(doc: dict, values: dict) -> dict:
    """The table of a symbolic SDF document at `values`, read off its
    coefficient text: {(left, right): {target: Fraction}}, zeros dropped."""
    table = {}
    for entry in doc["products"]:
        cell = {target: x for target, text in entry["value"]
                if (x := _value_of_text(text, values))}
        if cell:
            table[(entry["left"], entry["right"])] = cell
    return table


def span_dim(vectors: list[list[Fraction]]) -> int:
    if not vectors:
        return 0
    return bareiss_rank(vectors)


def smallest_instance(fid: str) -> tuple[int, dict]:
    """A domain-valid fully-instantiated sample at the family's smallest size."""
    from superalg import family_info
    from superalg.families import sizes
    info = family_info(fid)
    size = sizes(fid, info.min_size, info.min_size + 1)[0]
    return size, instance(fid, size)


def instance(fid: str, size: int) -> dict:
    """Domain-valid values for every parameter of a family at a legal size."""
    from superalg import family_info, parameter_names
    info = family_info(fid)
    params: dict = {p: 0 for p in parameter_names(fid, size)}
    params.update(info.structural)
    if fid in ("H1", "G1"):
        params["b"] = 1
    if fid in ("SH3", "SG2"):
        params["gamma"] = 1
    if fid == "G4":
        params = {"gamma": 1, "b": 1}
    return params
