"""Exact rational arithmetic, sparse multivariate polynomials, exact linear algebra.

Every result in this package is exact; there is no floating-point mode.  Every
computed value is a `fractions.Fraction`: polynomial coefficients, matrix
entries, the entries of sparse kernel vectors.  Inside the echelon engine the
rows are plain `int` rows (a row's denominators are cleared once, as it
enters, and `int` arithmetic is far cheaper than `Fraction`'s); the engine
converts values back to `Fraction` wherever they leave it, as
`RatMatrix.from_cells` does for the cells it is given.  The one public table
that keeps such narrowed values is a `SuperAlgebra`'s structure table, for
each coefficient in which no parameter occurs.  A polynomial is a sparse map
from exponent tuples to rational coefficients over a fixed, ordered tuple of
variable names (the canonical order is fixed by whoever constructs the
polynomial; algebras use lexicographic parameter order).

The linear algebra is deliberately small and dependency-free, and all of it
runs on one sparse echelon engine: reduced row echelon form with strictly
increasing pivot columns (a canonical form, so row spaces compare by
equality), kernel bases back-solved from the forward echelon of a presolved
system, and the Jordan type of a nilpotent map, given by its cells, from the
ranks along its image chain Im(m) ⊇ Im(m^2) ⊇ ..., which stops with None as
soon as a rank stalls.
A linear map travels as its nonzero cells, `Cells`; a dense `RatMatrix` is
built only where one is printed or returned.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError, shown

Exponent = tuple[int, ...]
Terms = dict[Exponent, Fraction]

# The text `parse_rational` accepts, once stripped: an optionally signed p or p/q.
RATIONAL_LITERAL = re.compile(r"[+-]?\d+(/\d+)?")
# A variable name, as `parse_coefficient` reads one.
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    s = text.strip()
    if not RATIONAL_LITERAL.fullmatch(s):
        raise InputError(f"not a rational literal: {shown(text)}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {shown(text)}") from None
    except ValueError:   # an integer over the interpreter's int-string digit limit
        digits = max(len(part.lstrip("+-")) for part in s.split("/"))
        raise InputError(f"rational literal with a {digits}-digit integer is over "
                         f"the integer-string digit limit") from None


def parameter_value(name: str, raw: object) -> Fraction:
    """An exact value for parameter `name`: an int, a Fraction or a
    `parse_rational` literal.  Anything else (a float, None, a bool, a
    malformed string) is an InputError naming the parameter."""
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return parse_rational(raw)
        except InputError as exc:
            raise InputError(f"parameter {name}: {exc}") from None
    raise InputError(f"parameter {name}: {raw!r} is not exact; give an int, a "
                     f"Fraction or a string such as \"3/2\"")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    `variables` is the fixed, ordered tuple of names; `terms` maps exponent
    tuples (one entry per variable) to nonzero coefficients.  Zero is the
    empty term map.  Instances are immutable; all operators return new
    polynomials in canonical form (no stored zero coefficients).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: Terms = {}
        if terms:
            nvars = len(self.variables)
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise InputError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}")
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value: Fraction | int, variables: Sequence[str] = ()) -> Polynomial:
        variables = tuple(variables)   # the constructor drops a zero value
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def var(cls, name: str, variables: Sequence[str]) -> Polynomial:
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- queries ------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError(f"polynomial {self} is not constant")
        return next(iter(self.terms.values()))

    def used_variables(self) -> tuple[str, ...]:
        used = set()
        for exp in self.terms:
            for name, e in zip(self.variables, exp):
                if e:
                    used.add(name)
        return tuple(n for n in self.variables if n in used)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise InputError("polynomials over different variable tuples")
            return other
        return Polynomial.const(Fraction(other), self.variables)

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> Polynomial:
        other = self._coerce(other)
        out: Terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.as_constant() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a full assignment; every variable must be covered."""
        total = 0   # a Fraction from the first term on: every coefficient is one
        try:
            for exp, coeff in self.terms.items():
                term = coeff
                for name, e in zip(self.variables, exp):
                    if e:
                        x = assignment[name]
                        term = term * x if e == 1 else term * Fraction(x) ** e
                total = total + term if total else term
        except KeyError:
            missing = [v for v in self.used_variables() if v not in assignment]
            raise InputError(f"assignment missing variables: {', '.join(missing)}") from None
        return total if self.terms else Fraction(0)

    def substitute(self, values: Mapping[str, Fraction]) -> Polynomial:
        """Substitute some variables; the result ranges over the remaining ones."""
        remaining = tuple(v for v in self.variables if v not in values)
        keep_idx = [i for i, v in enumerate(self.variables) if v not in values]
        out: Terms = {}
        for exp, coeff in self.terms.items():
            c = coeff
            for i, v in enumerate(self.variables):
                if v in values and exp[i]:
                    c *= Fraction(values[v]) ** exp[i]
            new_exp = tuple(exp[i] for i in keep_idx)
            if c:
                out[new_exp] = out.get(new_exp, Fraction(0)) + c
        return Polynomial(remaining, out)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exp]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exp) if e
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


# Largest exponent after "^": no short coefficient can take long to expand.
MAX_EXPONENT = 64
# Largest total degree of a coefficient.  The catalog's coefficients have
# degree at most 1; each product and power is checked before it is expanded.
MAX_DEGREE = 64
# Largest number of terms a product or power may expand to, checked before
# it is expanded against an upper bound on the result's term count (no more
# products of terms, or multisets of the base's terms, than monomials of its
# degree in the variables it uses).  (a+b+c+d)^23 has 2,600 terms and takes
# about 0.8 s on a 2-vCPU guest; the catalog's coefficients have at most 2.
MAX_TERMS = 2600

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\))")


def parse_coefficient(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse a coefficient expression such as "2*alpha4 - 1/2" or "-beta5^2".

    Grammar: sums/differences of products of rational literals and declared
    variable names with optional integer powers (at most MAX_EXPONENT);
    parentheses allowed.  Names outside `variables` are rejected, and so is
    a product or power of total degree above MAX_DEGREE or one that may
    expand to more than MAX_TERMS terms.
    """
    variables = tuple(variables)
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad coefficient syntax at {shown(text[pos:])}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take() -> str:
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_expr() -> Polynomial:
        node = parse_term()
        while peek() in "+-":
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def degree(node: Polynomial) -> int:
        return max(map(sum, node.terms), default=0)

    def check_degree(d: int) -> None:
        if d > MAX_DEGREE:
            raise InputError(f"coefficient {shown(text)} has total degree {d}, over "
                             f"the limit MAX_DEGREE = {MAX_DEGREE}")

    def check_terms(products: int, d: int, *nodes: Polynomial) -> None:
        """`products` bounds the result's terms, and so does the number of
        monomials of degree at most d in the variables the nodes use."""
        used = sum(1 for column in zip(*(e for node in nodes for e in node.terms))
                   if any(column))
        bound = min(products, comb(used + d, d))
        if bound > MAX_TERMS:
            raise InputError(f"coefficient {shown(text)} may expand to {bound} terms, "
                             f"over the limit MAX_TERMS = {MAX_TERMS}")

    def parse_term() -> Polynomial:
        node = parse_factor()
        while peek() == "*":
            take()
            rhs = parse_factor()
            d = degree(node) + degree(rhs)
            check_degree(d)
            check_terms(len(node.terms) * len(rhs.terms), d, node, rhs)
            node = node * rhs
        return node

    def parse_factor() -> Polynomial:
        tok = take()
        if tok == "-":
            return -parse_factor()
        if tok == "+":
            return parse_factor()
        if tok == "(":
            node = parse_expr()
            if take() != ")":
                raise InputError(f"unbalanced parentheses in {shown(text)}")
            return parse_power_suffix(node)
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return parse_power_suffix(Polynomial.const(parse_rational(tok), variables))
        if NAME.fullmatch(tok):
            if tok not in variables:
                raise InputError(f"undeclared parameter {shown(tok)} in coefficient {shown(text)}")
            return parse_power_suffix(Polynomial.var(tok, variables))
        raise InputError(f"unexpected token {shown(tok)} in coefficient {shown(text)}")

    def parse_power_suffix(base: Polynomial) -> Polynomial:
        if peek() == "^":
            take()
            etok = take()
            if not re.fullmatch(r"\d+", etok):
                raise InputError(f"bad exponent {shown(etok)} in coefficient {shown(text)}")
            e = int(etok)
            if e > MAX_EXPONENT:
                raise InputError(f"exponent {e} in coefficient {shown(text)} exceeds "
                                 f"the limit of {MAX_EXPONENT}")
            d = degree(base) * e
            check_degree(d)
            m = len(base.terms)
            check_terms(comb(m + e - 1, e) if m else 1, d, base)
            out = Polynomial.const(1, variables)
            while e:  # square-and-multiply
                if e & 1:
                    out = out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        return base

    try:
        result = parse_expr()
    except RecursionError:
        raise InputError(f"coefficient nested too deeply: {text[:40]!r}...") from None
    if take() != "$":
        raise InputError(f"trailing tokens in coefficient {shown(text)}")
    return result


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)

# A linear map as its nonzero cells: (l, k) -> m[l, k], so m b_k ∋ m[l, k] b_l.
Cells = Mapping[tuple[int, int], Fraction | int]


def check_cells(size: int, cells: Cells) -> None:
    """A cell outside the size x size space is an InputError."""
    for l, k in cells:
        if not (0 <= l < size and 0 <= k < size):
            raise InputError(f"matrix must act on the whole space: cell {(l, k)} "
                             f"is outside the basis of dimension {size}")


def _widen(x: int | Fraction) -> Fraction:
    """x as a Fraction, for a value leaving the engine."""
    return Fraction(x) if type(x) is int else x


class RatMatrix(NamedTuple):
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_cells(cls, rows: int, cols: int, cells: Cells) -> RatMatrix:
        """The rows x cols matrix with the given (i, j) entries, each widened
        to a Fraction, and zero everywhere else."""
        grid = [[_ZERO] * cols for _ in range(rows)]
        for (i, j), x in cells.items():
            grid[i][j] = _widen(x)
        return cls(rows, cols, tuple(map(tuple, grid)))


# -- exact elimination: one sparse echelon engine ----------------------------
#
# Every routine below, the graded subspaces in `core` and the spans and
# nil-independence counts in `derivations` run on one reduction step.  Rows
# are dicts col -> coeff without zeros (the derivation and annihilator
# systems and the R_x blocks are very sparse).  An echelon basis keeps one
# row per pivot column, keyed by it, zero to its left: primitive integer
# rows, monic only when back-substituted.  A row entering `_reduce_into`
# has its denominators cleared once (int or Fraction entries in, ints
# after); it is then reduced fraction-free and, if it is new, stored with
# its content removed and a positive lead, so the forward pass never builds
# a Fraction.  Before a kernel's forward pass its system is presolved, as
# most derivation rows have one entry: a one-entry row pins its column to
# 0, pinned columns are deleted from the other rows until no new one-entry
# row appears, rows left empty are dropped, and each pin joins the echelon
# as the unit row {c: 1} (pivot columns depend only on the row space, so
# none moves).  Kernels are back-solved from the forward echelon, for all
# free columns at once, and leave sparse, as their nonzero {column:
# Fraction} entries, so a sparse system's kernel reaches its readers
# without a dense round trip.  `_back_substitute` serves only the canonical
# forms (`rref`, `same_span`, `GradedSubspace.parts`): it makes the rows
# monic, then clears every pivot column above its pivot.  Every value the
# engine returns is widened back to a Fraction.

SparseRow = dict[int, int | Fraction]


def _narrow(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _subtract(row: SparseRow, f: int | Fraction,
              other: Iterable[tuple[int, int | Fraction]]) -> None:
    """row -= f * other (given as (col, coeff) pairs), in place, narrowing
    each new entry and dropping entries that cancel."""
    for c, v in other:
        new = row.get(c, 0) - f * v
        if new:
            row[c] = _narrow(new)
        else:
            del row[c]


def _reduce_into(pivots: dict[int, SparseRow], row: SparseRow) -> bool:
    """Reduce row (consumed) against the primitive pivot rows by its leading
    entry, fraction-free; keep a nonzero remainder, primitive with a positive
    lead, as a new pivot row.  True iff it was new."""
    if not {int}.issuperset(map(type, row.values())):   # a Fraction, even 2/1
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    while row:
        c = min(row)
        a = row[c]
        prow = pivots.get(c)
        if prow is None:
            if a != 1:   # a lead of 1 is primitive already
                g = gcd(*row.values()) if a > 0 else -gcd(*row.values())
                if g != 1:
                    row = {cc: v // g for cc, v in row.items()}
            pivots[c] = row
            return True
        b = prow[c]
        if b != 1:   # row = (b/g)·row − (a/g)·prow, with g = gcd(a, b)
            g = gcd(a, b)
            if g != b:
                s = b // g
                for cc in row:
                    row[cc] *= s
            a //= g
        for cc, v in prow.items():   # all ints: nothing to narrow
            new = row.get(cc, 0) - a * v
            if new:
                row[cc] = new
            else:
                del row[cc]
    return False


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Forward pass: reduce each row (consumed) into the pivot rows so far."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        _reduce_into(pivots, row)
    return pivots


def _back_substitute(echelon: dict[int, SparseRow]) -> tuple[tuple[int, ...], list[SparseRow]]:
    """Make every row monic at its pivot, then clear every pivot column above
    its pivot, from the right (so each pivot row is already reduced when
    used): pivot columns and canonical rows.  The rows of `echelon` are
    replaced or changed in place."""
    pivots = tuple(sorted(echelon))
    for c in pivots:
        row = echelon[c]
        lead = row[c]
        if lead != 1:
            echelon[c] = {cc: _narrow(Fraction(v, lead)) for cc, v in row.items()}
    for i in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[i], echelon[pivots[i]].items()
        for c2 in pivots[:i]:
            f = echelon[c2].get(c)
            if f:
                _subtract(echelon[c2], f, prow)
    return pivots, [echelon[c] for c in pivots]


def _rref_rows(rows: Iterable[SparseRow]) -> tuple[tuple[int, ...], list[SparseRow]]:
    """Forward pass, then back-substitution: the canonical reduced rows."""
    return _back_substitute(_echelon(rows))


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its (strictly increasing) pivot columns."""
    pivots, rows = _rref_rows({j: _narrow(x) for j, x in enumerate(row) if x}
                              for row in m.entries)
    return RatMatrix.from_cells(m.rows, m.cols, {
        (i, j): x for i, row in enumerate(rows) for j, x in row.items()}), pivots


def sparse_kernel(rows: Iterable[SparseRow], ncols: int) -> list[dict[int, Fraction]]:
    """Kernel basis of a sparse linear system: per free column f, the vector
    with 1 at f and 0 at the other free columns, as its nonzero {column:
    Fraction} entries in column order.  The presolved rows are reduced
    shortest first; one back-solve of their echelon, pivots from the right,
    serves every f: x[c] is column c of the basis as {f: value}.  The rows
    given are not changed."""
    live: list[SparseRow] = []
    new: set[int] = set()
    for row in rows:
        if len(row) == 1:
            new.update(row)
        elif row:
            live.append(row)
    pinned: set[int] = set()
    while new:
        pinned |= new
        hit, rest, live, new = new, live, [], set()
        for row in rest:
            if not hit.isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in hit}
                if len(row) <= 1:
                    new.update(row)
                    continue
            live.append(row)
    echelon = _echelon(sorted((dict(row) for row in live), key=len))
    echelon.update((c, {c: 1}) for c in pinned)   # no row left has a pinned column
    x: dict[int, SparseRow] = {f: {f: 1} for f in range(ncols) if f not in echelon}
    basis: dict[int, dict[int, Fraction]] = {f: {} for f in x}
    for p in sorted(echelon, reverse=True):
        row, acc = echelon[p], {}
        for c, v in row.items():
            if c != p:
                _subtract(acc, v, x[c].items())   # acc = -sum of row[c] x[c]
        lead = row[p]
        x[p] = acc if lead == 1 else {f: _narrow(Fraction(a, lead)) for f, a in acc.items()}
    for c in sorted(x):
        for f, a in x[c].items():
            basis[f][c] = Fraction(a)
    return list(basis.values())


# ---------------------------------------------------------------------------
# Nilpotent Jordan type
# ---------------------------------------------------------------------------

def nilpotent_jordan_type(size: int, cells: Cells) -> tuple[int, ...] | None:
    """Descending Jordan block sizes of a nilpotent map on a size-dimensional
    space, given by its cells, else None.

    Walks the image chain Im(m) ⊇ Im(m^2) ⊇ ... without forming a power of m:
    the echelon basis of Im(m^k) is the reduction of m applied to the basis
    of Im(m^(k-1)), starting from the columns of m, and rank(m^k) is its
    size.  The number of blocks of size >= k is rank(m^(k-1)) - rank(m^k).
    The chain ends at rank 0, where m is nilpotent, or as soon as a rank
    repeats: then Im(m^(k+1)) = Im(m^k) is a nonzero stationary image, so m
    is not nilpotent and the result is None.  A cell outside the space is an
    InputError.
    """
    check_cells(size, cells)
    columns: dict[int, list[tuple[int, int | Fraction]]] = {}
    for (l, k), x in cells.items():
        if x:
            columns.setdefault(k, []).append((l, _narrow(x)))
    ranks = [size]
    image = _echelon(dict(col) for col in columns.values())
    while image:
        if len(image) == ranks[-1]:
            return None
        ranks.append(len(image))
        images = []
        for vec in image.values():
            out: SparseRow = {}
            for j, x in vec.items():   # a column with no cell maps to zero
                _subtract(out, -x, columns.get(j, ()))
            images.append(out)
        image = _echelon(images)
    ranks.append(0)
    # blocks_ge[k - 1] counts the blocks of size >= k: the conjugate partition.
    blocks_ge = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for b in blocks_ge if b >= i) for i in range(1, blocks_ge[0] + 1))
