"""Exact rational arithmetic, sparse multivariate polynomials, exact linear algebra.

Every result in this package is exact; there is no floating-point mode.  Every
public value is a `fractions.Fraction`: polynomial coefficients, matrix
entries, kernel vectors.  Inside the echelon engine integral values are held
as plain `int` (most pivots are ±1 and most coefficients integers, and `int`
arithmetic is far cheaper than `Fraction`'s); the engine converts them back
to `Fraction` wherever a value leaves it.  A polynomial is a sparse map from
exponent tuples to rational coefficients over a fixed, ordered tuple of
variable names (the canonical order is fixed by whoever constructs the
polynomial; algebras use lexicographic parameter order).

The linear algebra is deliberately small and dependency-free, and all of it
runs on one sparse echelon engine: reduced row echelon form with strictly
increasing pivot columns (a canonical form, so row spaces compare by
equality), inverses and kernel bases read off it, and the Jordan type
of a nilpotent matrix from the ranks along its image chain
Im(m) ⊇ Im(m^2) ⊇ ..., which stops with None as soon as a rank stalls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Exponent = tuple[int, ...]
Terms = dict[Exponent, Fraction]

# The text `parse_rational` accepts, once stripped: an optionally signed p or p/q.
RATIONAL_LITERAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    s = text.strip()
    if not RATIONAL_LITERAL.fullmatch(s):
        raise InputError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render a rational as "p" (q = 1) or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
                c = Fraction(coeff)
                if c:
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> Polynomial:
        return cls(variables, {})

    @classmethod
    def const(cls, value: Fraction | int, variables: Sequence[str] = ()) -> Polynomial:
        c = Fraction(value)
        if not c:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, name: str, variables: Sequence[str]) -> Polynomial:
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def __rsub__(self, other) -> Polynomial:
        return self._coerce(other) - self

    def __mul__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if not c:
                return Polynomial(self.variables, {})
            return Polynomial(self.variables, {e: k * c for e, k in self.terms.items()})
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
        missing = [v for v in self.used_variables() if v not in assignment]
        if missing:
            raise InputError(f"assignment missing variables: {', '.join(missing)}")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for name, e in zip(self.variables, exp):
                if e:
                    term *= Fraction(assignment[name]) ** e
            total += term
        return total

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

    def rebase(self, variables: Sequence[str]) -> Polynomial:
        """Re-express over a superset variable tuple (used when merging tables)."""
        variables = tuple(variables)
        pos = {v: i for i, v in enumerate(variables)}
        for v in self.used_variables():
            if v not in pos:
                raise InputError(f"variable {v!r} absent from target tuple")
        out: Terms = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(variables)
            for name, e in zip(self.variables, exp):
                if e:
                    new[pos[name]] = e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
        return Polynomial(variables, out)

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
                body = format_rational(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([format_rational(abs(coeff))] + factors)
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

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\))")


def parse_coefficient(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse a coefficient expression such as "2*alpha4 - 1/2" or "-beta5^2".

    Grammar: sums/differences of products of rational literals and declared
    variable names with optional integer powers (at most MAX_EXPONENT);
    parentheses allowed.  Names outside `variables` are rejected.
    """
    variables = tuple(variables)
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad coefficient syntax at {text[pos:]!r}")
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

    def parse_term() -> Polynomial:
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
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
                raise InputError(f"unbalanced parentheses in {text!r}")
            return parse_power_suffix(node)
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return parse_power_suffix(Polynomial.const(parse_rational(tok), variables))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            if tok not in variables:
                raise InputError(f"undeclared parameter {tok!r} in coefficient {text!r}")
            return parse_power_suffix(Polynomial.var(tok, variables))
        raise InputError(f"unexpected token {tok!r} in coefficient {text!r}")

    def parse_power_suffix(base: Polynomial) -> Polynomial:
        if peek() == "^":
            take()
            etok = take()
            if not re.fullmatch(r"\d+", etok):
                raise InputError(f"bad exponent {etok!r} in coefficient {text!r}")
            e = int(etok)
            if e > MAX_EXPONENT:
                raise InputError(f"exponent {e} in coefficient {text!r} exceeds "
                                 f"the limit of {MAX_EXPONENT}")
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
        raise InputError(f"trailing tokens in coefficient {text!r}")
    return result


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction | int]]) -> RatMatrix:
        data = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                     for row in rows)
        if not data:
            return cls(0, 0, ())
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise InputError("ragged rows in matrix literal")
        return cls(len(data), width, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RatMatrix:
        zero = Fraction(0)
        return cls(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def principal(self, indices: Iterable[int]) -> RatMatrix:
        """The submatrix on the given rows and the same columns, in that order."""
        keep = tuple(indices)
        if len(keep) < 2:  # itemgetter returns a bare item for one index
            return RatMatrix(len(keep), len(keep), tuple((self.entries[i][i],) for i in keep))
        pick = itemgetter(*keep)
        return RatMatrix(len(keep), len(keep), tuple(map(pick, pick(self.entries))))

    def transpose(self) -> RatMatrix:
        return RatMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.entries else ())

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch in addition")
        return RatMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction | int) -> RatMatrix:
        c = Fraction(c)
        return RatMatrix(self.rows, self.cols,
                         tuple(tuple(c * x for x in row) for row in self.entries))

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        cols = other.transpose().entries
        return RatMatrix(self.rows, other.cols, tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
            for row in self.entries))

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0))
                     for row in self.entries)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def is_upper_triangular(self) -> bool:
        return all(not self.entries[i][j]
                   for i in range(self.rows) for j in range(min(i, self.cols)))

    def is_lower_triangular(self) -> bool:
        return all(not self.entries[i][j]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(format_rational(x) for x in row) + "]"
                         for row in self.entries)


# -- exact elimination: one sparse echelon engine ----------------------------
#
# Every routine below, the graded subspaces in `core` and the spans and
# nil-independence counts in `derivations` run on one reduction step.  Rows
# are dicts col -> coeff without zeros (the derivation and annihilator
# systems and the R_x blocks are very sparse).  An echelon basis keeps one
# row per pivot column, keyed by it, monic there and zero to its left.
# Entries may be int or Fraction; every entry the engine computes is
# narrowed, so integer systems with ±1 pivots never build a Fraction, and
# every value it returns is widened back to a Fraction.

SparseRow = dict[int, int | Fraction]
_ZERO = Fraction(0)


def _narrow(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _widen(x: int | Fraction) -> Fraction:
    """x as a Fraction, for a value leaving the engine."""
    return Fraction(x) if type(x) is int else x


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
    """Reduce row (consumed) against the pivot rows by its leading entry; keep
    a nonzero remainder, made monic, as a new pivot row.  True iff it was new."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            lead = row[c]
            if lead == 1:
                pivots[c] = row
            elif lead == -1:
                pivots[c] = {cc: -v for cc, v in row.items()}
            else:
                inv = Fraction(1, lead)  # never 1 / lead: for an int that is a float
                pivots[c] = {cc: _narrow(v * inv) for cc, v in row.items()}
            return True
        _subtract(row, row[c], prow.items())
    return False


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Forward pass: reduce each row (consumed) into the pivot rows so far."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        _reduce_into(pivots, row)
    return pivots


def _back_substitute(echelon: dict[int, SparseRow]) -> tuple[tuple[int, ...], list[SparseRow]]:
    """Clear every pivot column above its pivot, from the right (so each pivot
    row is already reduced when used): pivot columns and canonical rows."""
    pivots = tuple(sorted(echelon))
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


def _in_row_space(reduced: Iterable[tuple[int, Iterable[tuple[int, int | Fraction]]]],
                  row: SparseRow) -> bool:
    """Whether row (consumed) lies in the span of fully reduced rows, given
    as (pivot, pairs): it does iff subtracting row[pivot] times each pivot
    row leaves zero (no pivot row touches another's pivot column)."""
    for c, prow in reduced:
        f = row.get(c)
        if f:
            _subtract(row, f, prow)
    return not row


def _kernel(pivots: tuple[int, ...], rows: Sequence[SparseRow],
            ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis read off reduced rows: one vector per free column, of
    Fractions."""
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [_ZERO] * ncols
        vec[free] = Fraction(1)
        for pc, row in zip(pivots, rows):
            if free in row:
                vec[pc] = _widen(-row[free])
        basis.append(tuple(vec))
    return basis


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its (strictly increasing) pivot columns."""
    pivots, rows = _rref_rows({j: _narrow(x) for j, x in enumerate(row) if x}
                              for row in m.entries)
    dense = [tuple(_widen(row.get(j, _ZERO)) for j in range(m.cols)) for row in rows]
    dense += [(_ZERO,) * m.cols] * (m.rows - len(rows))
    return RatMatrix(m.rows, m.cols, tuple(dense)), pivots


def sparse_kernel(rows: Iterable[SparseRow], ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of a sparse linear system, identical to the dense result.
    Shortest rows pivot first; the rref, hence the kernel, is order-free."""
    pivots, reduced = _rref_rows(sorted((dict(row) for row in rows), key=len))
    return _kernel(pivots, reduced, ncols)


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; raises InputError when singular."""
    if m.rows != m.cols:
        raise InputError("only square matrices can be inverted")
    n = m.rows
    augmented = RatMatrix(n, 2 * n, tuple(
        row + tuple(Fraction(1 if i == j else 0) for j in range(n))
        for i, row in enumerate(m.entries)))
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        raise InputError("matrix is singular")
    return RatMatrix(n, n, tuple(row[n:] for row in reduced.entries))


# ---------------------------------------------------------------------------
# Nilpotent Jordan type
# ---------------------------------------------------------------------------

def nilpotent_jordan_type(m: RatMatrix) -> tuple[int, ...] | None:
    """Descending Jordan block sizes of a nilpotent matrix, else None.

    Walks the image chain Im(m) ⊇ Im(m^2) ⊇ ... without forming a power of m:
    the echelon basis of Im(m^k) is the reduction of m applied to the basis
    of Im(m^(k-1)), starting from the columns of m, and rank(m^k) is its
    size.  The number of blocks of size >= k is rank(m^(k-1)) - rank(m^k).
    The chain ends at rank 0, where m is nilpotent, or as soon as a rank
    repeats: then Im(m^(k+1)) = Im(m^k) is a nonzero stationary image, so m
    is not nilpotent and the result is None.
    """
    if m.rows != m.cols:
        raise InputError("Jordan type needs a square matrix")
    columns = [{i: _narrow(row[j]) for i, row in enumerate(m.entries) if row[j]}
               for j in range(m.cols)]
    ranks = [m.rows]
    image = _echelon(dict(col) for col in columns)
    while image:
        if len(image) == ranks[-1]:
            return None
        ranks.append(len(image))
        images = []
        for vec in image.values():
            out: SparseRow = {}
            for j, x in vec.items():
                _subtract(out, -x, columns[j].items())
            images.append(out)
        image = _echelon(images)
    ranks.append(0)
    # blocks_ge[k - 1] counts the blocks of size >= k: the conjugate partition.
    blocks_ge = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for b in blocks_ge if b >= i) for i in range(1, blocks_ge[0] + 1))
