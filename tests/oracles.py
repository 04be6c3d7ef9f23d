"""Independent oracles used to cross-check the engine.

Everything here is deliberately written against the raw definitions with its
own elimination code, so that agreement with the package is evidence rather
than tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction

from superalg.core import (EVEN, ODD, GradedVector, SuperAlgebra,
                           make_superalgebra, product)
from superalg.exactmath import RatMatrix


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
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
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
    power = RatMatrix.identity(dim)
    for _ in range(dim):
        power = power @ m
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
                if yz.is_zero() and xy.is_zero() and xz.is_zero():
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
                if yz.is_zero() and zx.is_zero() and xy.is_zero():
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


def derivation_residuals(algebra: SuperAlgebra, matrix: RatMatrix, degree: int):
    """Evaluate D([x,y]) - [D x, y] - (-1)^{s p_x} [x, D y] on every ordered
    pair of basis vectors via products and `RatMatrix.apply`, listing the
    nonzero components."""
    out = []
    labels = algebra.labels
    basis = [GradedVector.basis(algebra, lab) for lab in labels]
    images = [GradedVector(matrix.apply(x.coords)) for x in basis]
    for i, x in enumerate(basis):
        sign = (-1) ** (degree * algebra.parity(i))
        for j, y in enumerate(basis):
            lhs = matrix.apply(product(algebra, x, y).coords)
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
    (b_i, b_j) and component l, with coefficients from products of basis
    vectors."""
    dim = algebra.dim
    parity = [algebra.parity(i) for i in range(dim)]
    unknowns = [(p, q) for p in range(dim) for q in range(dim)
                if parity[p] == (parity[q] + degree) % 2]
    column = {pq: idx for idx, pq in enumerate(unknowns)}
    basis = [GradedVector.basis(algebra, lab) for lab in algebra.labels]
    prods = [[product(algebra, x, y).coords for y in basis] for x in basis]

    def add(row: list[Fraction], entry: tuple[int, int], value: Fraction) -> None:
        if value and entry in column:   # entries the grading forbids are 0
            row[column[entry]] += value

    rows = set()
    for i in range(dim):
        sign = (-1) ** (degree * parity[i])
        for j in range(dim):
            for l in range(dim):
                row = [Fraction(0)] * len(unknowns)
                for q in range(dim):
                    add(row, (l, q), prods[i][j][q])   # D([b_i, b_j])
                for p in range(dim):
                    add(row, (p, i), -prods[p][j][l])   # [D b_i, b_j]
                    add(row, (p, j), -sign * prods[i][p][l])   # [b_i, D b_j]
                if any(row):
                    rows.add(tuple(row))
    kernel = []
    for vec in dense_kernel(sorted(rows), len(unknowns)):
        flat = [Fraction(0)] * (dim * dim)
        for (p, q), value in zip(unknowns, vec):
            flat[p * dim + q] = value
        kernel.append(tuple(flat))
    return kernel


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
    n = RatMatrix.from_rows(strict)
    p = RatMatrix.from_rows(lower)
    from superalg.exactmath import invert
    return invert(p) @ n @ p


def random_parity_change(rng: random.Random, n0: int, n1: int):
    """A random invertible parity-preserving change of basis (two blocks)."""
    from superalg.exactmath import invert

    def block(size: int) -> RatMatrix:
        while True:
            grid = [[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                    for _ in range(size)]
            for i in range(size):
                grid[i][i] += 1
            m = RatMatrix.from_rows(grid)
            try:
                invert(m)
                return m
            except Exception:
                continue

    return block(n0), block(n1)


def support_torus_dim(algebra: SuperAlgebra) -> int:
    """Dimension of the diagonal derivations d(b_i) = d_i b_i, read from the
    nonzero structure cells only: each [b_i, b_j] with a nonzero b_k
    coefficient forces d_k - d_i - d_j = 0; the torus is the solution space,
    ranked by `dense_rref`."""
    rows = []
    for (i, j), terms in algebra.constant_structure().items():
        for k, c in terms:
            if c:
                row = [Fraction(0)] * algebra.dim
                row[k] += 1
                row[i] -= 1
                row[j] -= 1
                rows.append(row)
    return algebra.dim - len(dense_rref(rows, algebra.dim)[1])


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
