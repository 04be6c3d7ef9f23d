"""Generator registry for the built-in catalog of graded algebra families.

Each family id names a parametric multiplication table.  A table states its
coefficients as an SDF file does: numbers, parameter names and coefficient
text, all read by `core.make_superalgebra`.  Tables ship in two transcription
modes:

* ``verbatim``  - the table exactly as originally tabulated, including its
  misprints;
* ``corrected`` - with the shipped corrections applied.  Every correction is
  recorded as an `ErrataEntry` whose justification cites a basis triple where
  the verbatim table fails the Leibniz identity (machine-reproducible: the
  verbatim build must produce that residual and the corrected build must
  produce none).

Transcription conventions, applied uniformly:

* a displayed sum contributes exactly the terms of its index progression;
  a progression whose lower bound exceeds its upper bound is empty;
* any generated term whose basis subscript falls outside the basis is zero;
* a table presented as a Lie superalgebra (N2M only) is completed by graded
  antisymmetry, which is how such tables enumerate their products;
* chains "A = -B = v" assign A := v and B := -v; when A and B are the same
  cell (odd diagonal), the leading assignment wins.

Basis naming is fixed: even part e1..en followed by the extension generators
(x, or x1 then x2), odd part y1..ym.  The triangularity assumptions of the
derivation-space analysis rely on this order.

The four nilradicals L, M, H and G share their zero-parameter products: one
builder, `_zero_rows`, keyed by `(n, n_odd, first)`, where `first` is the
index at which the e1 chain starts.  Each H/G pair of extensions is one table
body parameterised by `n_odd`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import SuperAlgebra, make_superalgebra
from .errors import InputError, shown
from .exactmath import parameter_value

VERBATIM = "verbatim"
CORRECTED = "corrected"

# The largest size (n or m) that `build` accepts, and so the largest size the
# errata ledger and the claim ranges may reach.  The claims use sizes up to 8;
# tables grow with the square of the size, and an uncapped size from the
# command line would only run on until killed.
MAX_SIZE = 64

HALF = Fraction(1, 2)

Products = dict[tuple[str, str], list[tuple[str, object]]]


def _e(i: int) -> str:
    return f"e{i}"


def _y(i: int) -> str:
    return f"y{i}"


def _add(prod: Products, left: str, right: str, target: str, coeff) -> None:
    prod.setdefault((left, right), []).append((target, coeff))


def _add_both(prod: Products, left: str, right: str, target: str, coeff) -> None:
    """[left,right] ∋ coeff·target, then [right,left] ∋ −coeff·target."""
    _add(prod, left, right, target, coeff)
    _add(prod, right, left, target, f"-({coeff})" if isinstance(coeff, str) else -coeff)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class FamilyInfo(NamedTuple):
    """Catalog record: every per-family fact, stated once.

    Besides the table, domain, schema prose and structural metadata:

    * `value_domain` - `(names, admits, rule)`: once any of `names` is given,
      all must be, and `admits(*values)` must hold, else `build` raises
      "<fid>: <rule>";
    * `nilradical_params` - `(size, params) -> values` overriding the zeros
      of the claimed nilradical's parameters (see `nilradical_spec`);
    * `samples` - `size -> [params, ...]`, the instances the NILP or SOLV
      claims check at that size;
    * `lie` - whether the corrected table is a Lie superalgebra, which the
      claims then also check.
    * `structural` - structural parameter name -> the default that the
      catalog-wide reads (`parameter_names`, the ledger, AUDIT) build at.
    """

    family_id: str
    # (size, mode, **structural) -> (parameter names, products, n_even, n_odd)
    table: Callable
    size_name: str                  # "n" or "m"
    kind: str                       # "nilpotent" or "solvable"
    min_size: int
    size_parity: int | None         # required size mod 2, or None
    dims: str                       # e.g. "(n|n-1)"
    parameter_schema: tuple[str, ...] = ()
    structural: Mapping[str, int] = MappingProxyType({})  # name -> default; shared
    nilradical: str | None = None
    codim: int | None = None
    notes: tuple[str, ...] = ()
    value_domain: tuple[tuple[str, ...], Callable[..., bool], str] | None = None
    nilradical_params: Callable[[int, Mapping], dict] = lambda size, params: {}
    samples: Callable[[int], list[dict]] = lambda size: [{}]
    lie: bool = False

    def admits(self, size: int) -> bool:
        return size >= self.min_size and (
            self.size_parity is None or size % 2 == self.size_parity)

    def describe_domain(self) -> str:
        s = self.size_name
        parts = [f"{s} >= {self.min_size}"]
        if self.size_parity is not None:
            parts.append(f"{s} odd")
        if "t" in self.structural:
            parts.append(f"4 <= t <= {s}")
        return ", ".join(parts)


_REGISTRY: dict[str, FamilyInfo] = {}


def _family(fid: str, *fields, **named) -> Callable:
    """Register the decorated table function as catalog family `fid`.

    `fields` and `named` are the `FamilyInfo` fields after `table`.
    """
    def register(table: Callable) -> Callable:
        _REGISTRY[fid] = FamilyInfo(fid, table, *fields, **named)
        return table
    return register


_B_NONZERO = (("b",), lambda b: b != 0, "b must be nonzero")
_GAMMA_NONZERO = (("gamma",), lambda gamma: gamma != 0, "gamma must be nonzero")


# ---------------------------------------------------------------------------
# Shared table fragments
# ---------------------------------------------------------------------------

def _n2m_rows(m: int, mode: str, lie_complete: bool) -> Products:
    """The (2|m) filiform-odd table; `lie_complete` emits all ordered pairs."""
    prod: Products = {}
    for i in range(1, m):
        _add_both(prod, _y(i), _e(1), _y(i + 1), 1)
    mid = (m + 1) // 2
    if lie_complete or mode == CORRECTED:
        for b in range(1, m + 1):
            _add(prod, _y(m + 1 - b), _y(b), _e(2), (-1) ** (b + 1))
    else:
        for i in range(1, mid + 1):
            _add(prod, _y(m + 1 - i), _y(i), _e(2), (-1) ** (i + 1))
            if m + 1 - i != i:
                _add(prod, _y(i), _y(m + 1 - i), _e(2), -((-1) ** (i + 1)))
    return prod


def _zero_rows(n: int, n_odd: int, first: int) -> Products:
    """The zero-parameter products of the (n|n_odd) nilradicals L, M, H and G,
    whose e1 chain [e_i,e1] = e_{i+1} starts at e_first (2 for L and M, 3 for
    H and G)."""
    prod: Products = {}
    _add(prod, _e(1), _e(1), _e(3), 1)
    for i in range(first, n):
        _add(prod, _e(i), _e(1), _e(i + 1), 1)
    for j in range(1, n_odd):
        _add(prod, _y(j), _e(1), _y(j + 1), 1)
    _add(prod, _e(1), _y(1), _y(2), HALF)
    for i in range(first, n_odd + 1):
        _add(prod, _e(i), _y(1), _y(i), HALF)
    _add(prod, _y(1), _y(1), _e(1), 1)
    for j in range(2, n):
        _add(prod, _y(j), _y(1), _e(j + 1), 1)
    return prod


def _chain_rows(prod: Products, v: Callable[[int], str], top: int, first: int,
                coeff: Callable[[int], object]) -> None:
    """[v_j,e2] = sum of coeff(k) v_{j+k-2} over k >= 4, for j >= first and
    every target up to v_top: the alpha/beta series of L, M, H and G."""
    for j in range(first, top - 1):
        for k in range(4, top + 3 - j):
            _add(prod, v(j), _e(2), v(j + k - 2), coeff(k))


def _weight_rows(prod: Products, n: int, n_odd: int, x: str) -> None:
    """The diagonal action of x on the L, M, H and G nilradicals, except on
    e2: weight 2 on e1, 2(i-1) on e_i for i >= 3 and 2j-1 on y_j."""
    for i in range(1, n_odd + 1):
        _add(prod, _y(i), x, _y(i), 2 * i - 1)
    _add(prod, _e(1), x, _e(1), 2)
    for i in range(3, n + 1):
        _add(prod, _e(i), x, _e(i), 2 * (i - 1))
    _add(prod, x, _e(1), _e(1), -2)
    _add(prod, x, _y(1), _y(1), -1)


# ---------------------------------------------------------------------------
# Nilpotent families
# ---------------------------------------------------------------------------

@_family("N2M", "m", "nilpotent", 3, 1, "(2|m)", lie=True)
def _table_N2M(m: int, mode: str):
    return [], _n2m_rows(m, mode, lie_complete=True), 2, m


@_family("L", "n", "nilpotent", 3, None, "(n|n-1)",
         ("alpha4..alphan (rational)", "theta (rational)"),
         samples=lambda n: [{}, {"theta": 1}])
def _table_L(n: int, mode: str):
    params = [f"alpha{k}" for k in range(4, n + 1)] + ["theta"]
    prod = _zero_rows(n, n - 1, 2)
    alpha = lambda k: f"alpha{k}"
    for k in range(4, n):
        _add(prod, _e(1), _e(2), _e(k), alpha(k))
    _add(prod, _e(1), _e(2), _e(n), "theta")
    _chain_rows(prod, _e, n, 2, alpha)
    for k in range(4, n):
        _add(prod, _y(1), _e(2), _y(k - 1), alpha(k))
    _add(prod, _y(1), _e(2), _y(n - 1), "theta")
    _chain_rows(prod, _y, n - 1, 2, alpha)
    return params, prod, n, n - 1


@_family("G", "n", "nilpotent", 3, None, "(n|n-1)",
         ("beta4..betan (rational)", "gamma (rational)"),
         samples=lambda n: [{}, {"gamma": 1}])
def _table_G(n: int, mode: str):
    params = [f"beta{k}" for k in range(4, n + 1)] + ["gamma"]
    prod = _zero_rows(n, n - 1, 3)
    beta = lambda k: f"beta{k}"
    for k in range(4, n + 1):
        _add(prod, _e(1), _e(2), _e(k), beta(k))
    _chain_rows(prod, _e, n, 3, beta)
    _add(prod, _e(2), _e(2), _e(n), "gamma")
    _chain_rows(prod, _y, n - 1, 1, beta)
    return params, prod, n, n - 1


@_family("M", "n", "nilpotent", 3, None, "(n|n)",
         ("alpha4..alphan (rational)", "theta (rational)", "tau (rational)"),
         samples=lambda n: [{}, {"tau": 1}])
def _table_M(n: int, mode: str):
    params = [f"alpha{k}" for k in range(4, n + 1)] + ["theta", "tau"]
    prod = _zero_rows(n, n, 2)
    alpha = lambda k: f"alpha{k}"
    for k in range(4, n):
        _add(prod, _e(1), _e(2), _e(k), alpha(k))
    _add(prod, _e(1), _e(2), _e(n), "theta")
    # Row [e2, e2]: the verbatim table runs the alpha series to alpha_n e_n,
    # but the identity on (e2, e2, y1) forces the top coefficient to theta
    # (alpha_n is inert in corrected mode; it only ever acted here).
    if mode == VERBATIM:
        for k in range(4, n + 1):
            _add(prod, _e(2), _e(2), _e(k), alpha(k))
    else:
        for k in range(4, n):
            _add(prod, _e(2), _e(2), _e(k), alpha(k))
        _add(prod, _e(2), _e(2), _e(n), "theta")
    _chain_rows(prod, _e, n, 3, alpha)
    for k in range(4, n):
        _add(prod, _y(1), _e(2), _y(k - 1), alpha(k))
    _add(prod, _y(1), _e(2), _y(n - 1), "theta")
    _add(prod, _y(1), _e(2), _y(n), "tau")
    # Row [y2, e2]: the verbatim table repeats the y4 component for alpha5
    # where the identity requires the y5 component.
    for k in range(4, n):
        if k == 5 and mode == VERBATIM:
            _add(prod, _y(2), _e(2), _y(4), alpha(5))
        else:
            _add(prod, _y(2), _e(2), _y(k), alpha(k))
    _add(prod, _y(2), _e(2), _y(n), "theta")
    _chain_rows(prod, _y, n, 3, alpha)
    return params, prod, n, n


@_family("H", "n", "nilpotent", 3, None, "(n|n)",
         ("beta4..betan (rational)", "delta (rational)", "gamma (rational)"),
         samples=lambda n: [{}, {"delta": 1}])
def _table_H(n: int, mode: str):
    params = [f"beta{k}" for k in range(4, n + 1)] + ["delta", "gamma"]
    prod = _zero_rows(n, n, 3)
    beta = lambda k: f"beta{k}"
    for k in range(4, n + 1):
        _add(prod, _e(1), _e(2), _e(k), beta(k))
    _chain_rows(prod, _e, n, 3, beta)
    # Row [e2, e2] = gamma e_n is incompatible with the identity: the odd
    # chain forces [e_n, y1] = 1/2 y_n, so (e2, e2, y1) requires gamma = 0.
    # It stays in verbatim mode; gamma is inert in corrected mode.
    if mode == VERBATIM:
        _add(prod, _e(2), _e(2), _e(n), "gamma")
    for k in range(4, n + 1):
        _add(prod, _y(1), _e(2), _y(k - 1), beta(k))
    _add(prod, _y(1), _e(2), _y(n), "delta")
    _chain_rows(prod, _y, n, 2, beta)
    return params, prod, n, n


# ---------------------------------------------------------------------------
# Solvable extensions of the (2|m) nilradical
# ---------------------------------------------------------------------------

@_family("M1", "m", "solvable", 3, 1, "(3|m)", nilradical="N2M", codim=1,
         notes=("not a Lie superalgebra: the square of the extension "
                "generator is e2",))
def _table_M1(m: int, mode: str):
    prod = _n2m_rows(m, mode, lie_complete=False)
    _add_both(prod, _e(1), "x", _e(1), 1)
    _add(prod, "x", "x", _e(2), 1)
    mid = Fraction(m + 1, 2)
    for i in range(1, m + 1):
        w = Fraction(i) - mid
        if w:
            _add_both(prod, _y(i), "x", _y(i), w)
    return [], prod, 3, m


@_family("M2", "m", "solvable", 3, 1, "(3|m)", ("alpha (rational)",),
         nilradical="N2M", codim=1, lie=True,
         samples=lambda m: [{"alpha": 0}, {"alpha": 1}])
def _table_M2(m: int, mode: str):
    prod = _n2m_rows(m, mode, lie_complete=False)
    _add_both(prod, _e(1), "x", _e(1), 1)
    _add_both(prod, _e(2), "x", _e(2), "alpha")
    for i in range(1, m + 1):
        w = f"1/2*alpha + {Fraction(2 * i - m - 1, 2)}"
        _add_both(prod, _y(i), "x", _y(i), w)
    return ["alpha"], prod, 3, m


@_family("M3", "m", "solvable", 3, 1, "(3|m)", nilradical="N2M", codim=1,
         lie=True)
def _table_M3(m: int, mode: str):
    prod = _n2m_rows(m, mode, lie_complete=False)
    _add_both(prod, _e(1), "x", _e(1), 1)
    _add_both(prod, _e(1), "x", _e(2), 1)
    _add_both(prod, _e(2), "x", _e(2), 1)
    for i in range(1, m + 1):
        w = Fraction(2 * i - m, 2)
        if w:
            _add_both(prod, _y(i), "x", _y(i), w)
    return [], prod, 3, m


@_family("M4", "m", "solvable", 3, 1, "(3|m)",
         ("b2, b4, .., b(m-1) (rational)",), nilradical="N2M", codim=1,
         lie=True, samples=lambda m: [{}, {"b2": 1}])
def _table_M4(m: int, mode: str):
    params = [f"b{2 * k}" for k in range(1, (m - 1) // 2 + 1)]
    prod = _n2m_rows(m, mode, lie_complete=False)
    _add_both(prod, _e(2), "x", _e(2), 2)
    for i in range(1, m + 1):
        _add_both(prod, _y(i), "x", _y(i), 1)
        for k in range(1, (m - i + 1) // 2 + 1):
            _add_both(prod, _y(i), "x", _y(i + 2 * k - 1), f"b{2 * k}")
    return params, prod, 3, m


@_family("M5", "m", "solvable", 3, 1, "(4|m)", nilradical="N2M", codim=2,
         lie=True)
def _table_M5(m: int, mode: str):
    prod = _n2m_rows(m, mode, lie_complete=False)
    _add_both(prod, _e(1), "x1", _e(1), 1)
    _add_both(prod, _e(2), "x1", _e(2), m - 1)
    _add_both(prod, _e(2), "x2", _e(2), 2)
    for i in range(1, m + 1):
        # The verbatim row carries weight (1 - i); consistency forces (i - 1).
        w = (1 - i) if mode == VERBATIM else (i - 1)
        if w:
            _add_both(prod, _y(i), "x1", _y(i), w)
        _add_both(prod, _y(i), "x2", _y(i), 1)
    return [], prod, 4, m


# ---------------------------------------------------------------------------
# Solvable extensions, split nilradicals
# ---------------------------------------------------------------------------

def _split_table(n: int, n_odd: int):
    """SL over L and SM over M: x acts by the weights of `_weight_rows` and
    [e2,x] = 2 e2, so with weight 2(i-1) on every e_i, i >= 2."""
    prod = _zero_rows(n, n_odd, 2)
    _weight_rows(prod, n, n_odd, "x")
    _add(prod, _e(2), "x", _e(2), 2)
    return [], prod, n + 1, n_odd


@_family("SL", "n", "solvable", 3, None, "(n+1|n-1)", nilradical="L", codim=1)
def _table_SL(n: int, mode: str):
    return _split_table(n, n - 1)


@_family("SM", "n", "solvable", 3, None, "(n+1|n)", nilradical="M", codim=1)
def _table_SM(n: int, mode: str):
    return _split_table(n, n)


def _codim_two_table(n: int, n_odd: int, antisymmetric: bool):
    """MH1/MH2 over H and MG1/MG2 over G: x1 acts by weights and
    [e2,x2] = e2; the second of each pair also has [x2,e2] = -e2."""
    prod = _zero_rows(n, n_odd, 3)
    _weight_rows(prod, n, n_odd, "x1")
    _add(prod, _e(2), "x2", _e(2), 1)
    if antisymmetric:
        _add(prod, "x2", _e(2), _e(2), -1)
    return [], prod, n + 2, n_odd


@_family("MH1", "n", "solvable", 3, None, "(n+2|n)", nilradical="H", codim=2)
def _table_MH1(n: int, mode: str):
    return _codim_two_table(n, n, antisymmetric=False)


@_family("MH2", "n", "solvable", 3, None, "(n+2|n)", nilradical="H", codim=2)
def _table_MH2(n: int, mode: str):
    return _codim_two_table(n, n, antisymmetric=True)


def _b_table(n: int, n_odd: int, antisymmetric: bool):
    """H1/H2 over H and G1/G2 over G: x acts by weights and [e2,x] = b e2;
    H1 and G1 also have [x,e2] = -b e2."""
    prod = _zero_rows(n, n_odd, 3)
    _weight_rows(prod, n, n_odd, "x")
    _add(prod, _e(2), "x", _e(2), "b")
    if antisymmetric:
        _add(prod, "x", _e(2), _e(2), "-b")
    return ["b"], prod, n + 1, n_odd


@_family("H1", "n", "solvable", 3, None, "(n+1|n)", ("b (rational, b != 0)",),
         nilradical="H", codim=1, value_domain=_B_NONZERO,
         samples=lambda n: [{"b": 1}, {"b": 2}])
def _table_H1(n: int, mode: str):
    return _b_table(n, n, antisymmetric=True)


@_family("H2", "n", "solvable", 3, None, "(n+1|n)", ("b (rational)",),
         nilradical="H", codim=1, samples=lambda n: [{"b": 0}, {"b": 1}])
def _table_H2(n: int, mode: str):
    return _b_table(n, n, antisymmetric=False)


@_family("H3", "n", "solvable", 3, None, "(n+1|n)", nilradical="H", codim=1)
def _table_H3(n: int, mode: str):
    prod = _zero_rows(n, n, 3)
    _weight_rows(prod, n, n, "x")
    _add(prod, "x", "x", _e(2), 1)
    return [], prod, n + 1, n


def _nil_rows(n: int, n_odd: int, odd_rows: bool) -> Products:
    """The (n|n_odd) nilradical with [e2,x] = e2 and the rows
    [e_i,x] = sum a_{k+1-i} e_k and, if `odd_rows`, [y_i,x] = sum a_{k+1-i} y_k
    shared by H4, H5, G5 and G6."""
    prod = _zero_rows(n, n_odd, 3)
    for k in range(3, n + 1):
        _add(prod, _e(1), "x", _e(k), f"a{k - 1}")
    _add(prod, _e(2), "x", _e(2), 1)
    for i in range(3, n + 1):
        for k in range(i + 1, n + 1):
            _add(prod, _e(i), "x", _e(k), f"a{k + 1 - i}")
    if odd_rows:
        for i in range(1, n_odd):
            for k in range(i + 1, n_odd + 1):
                _add(prod, _y(i), "x", _y(k), f"a{k + 1 - i}")
    return prod


@_family("H4", "n", "solvable", 3, None, "(n+1|n)", ("a2..an (rational)",),
         nilradical="H", codim=1, samples=lambda n: [{}, {"a2": 1}])
def _table_H4(n: int, mode: str):
    params = [f"a{k}" for k in range(2, n + 1)]
    return params, _nil_rows(n, n, odd_rows=True), n + 1, n


@_family("H5", "n", "solvable", 3, None, "(n+1|n)",
         ("a2..an (rational)", "gamma (in {0, 1})"), nilradical="H", codim=1,
         notes=("the gamma term of [x,x] is inconsistent with the identity "
                "and is dropped in corrected mode (see errata)",),
         value_domain=(("gamma",), lambda gamma: gamma in (0, 1),
                       "gamma must lie in {0, 1}"),
         samples=lambda n: [{"gamma": 0}, {"gamma": 1}, {"a2": 1, "gamma": 0}])
def _table_H5(n: int, mode: str):
    params = [f"a{k}" for k in range(2, n + 1)] + ["gamma"]
    prod = _nil_rows(n, n, odd_rows=True)
    _add(prod, "x", _e(2), _e(2), -1)
    if mode == VERBATIM:
        # Fails the Leibniz identity on (x, x, x) whenever gamma != 0:
        # squares lie in the right annihilator, but [x, e2] = -e2 != 0.
        _add(prod, "x", "x", _e(2), "gamma")
    return params, prod, n + 1, n


def _single_beta_table(n: int, n_odd: int, t: int, y1_row: bool):
    """SH1 over H and SG1 over G: the nilradical with beta_t = 1 and x acting
    by weights; `y1_row` keeps [y1,e2] = y_{t-1}."""
    prod = _zero_rows(n, n_odd, 3)
    _add(prod, _e(1), _e(2), _e(t), 1)
    for j in range(3, n - 1):
        if j + t - 2 <= n:
            _add(prod, _e(j), _e(2), _e(j + t - 2), 1)
    for j in range(1 if y1_row else 2, n_odd - 1):
        if j + t - 2 <= n_odd:
            _add(prod, _y(j), _e(2), _y(j + t - 2), 1)
    _weight_rows(prod, n, n_odd, "x")
    _add_both(prod, _e(2), "x", _e(2), 2 * (t - 2))
    _add(prod, "x", _e(2), _e(t - 1), -2)
    return [], prod, n + 1, n_odd


@_family("SH1", "n", "solvable", 4, None, "(n+1|n)", structural={"t": 4},
         nilradical="H", codim=1,
         nilradical_params=lambda n, params: {f"beta{params['t']}": 1},
         samples=lambda n: [{"t": t} for t in range(4, n + 1)])
def _table_SH1(n: int, mode: str, *, t: int):
    return _single_beta_table(n, n, t, y1_row=True)


@_family("SH2", "n", "solvable", 3, None, "(n+1|n)", nilradical="H", codim=1,
         nilradical_params=lambda n, params: {"delta": 1})
def _table_SH2(n: int, mode: str):
    prod = _zero_rows(n, n, 3)
    _add(prod, _y(1), _e(2), _y(n), 1)
    _weight_rows(prod, n, n, "x")
    _add_both(prod, _e(2), "x", _e(2), 2 * (n - 1))
    _add(prod, "x", _e(2), _e(n), -2)
    return [], prod, n + 1, n


def _middle_beta_table(n: int, n_odd: int, gamma_row: bool):
    """SH3 over H and SG2 over G (n odd): `_single_beta_table` at
    t = (n+3)/2, and [e2,e2] = gamma e_n where `gamma_row`."""
    prod = _single_beta_table(n, n_odd, (n + 3) // 2, y1_row=True)[1]
    if gamma_row:
        _add(prod, _e(2), _e(2), _e(n), "gamma")
    return ["gamma"], prod, n + 1, n_odd


@_family("SH3", "n", "solvable", 5, 1, "(n+1|n)", ("gamma (rational, != 0)",),
         nilradical="H", codim=1, value_domain=_GAMMA_NONZERO,
         samples=lambda n: [{"gamma": 1}],
         nilradical_params=lambda n, params: {f"beta{(n + 3) // 2}": 1,
                                              "gamma": params.get("gamma", 1)})
def _table_SH3(n: int, mode: str):
    # Same inconsistency as the base (n|n) family: gamma e_n fails the
    # identity on (e2, e2, y1) and is dropped in corrected mode.
    return _middle_beta_table(n, n, gamma_row=mode == VERBATIM)


def _top_square_table(n: int, n_odd: int, top_row: bool):
    """SH4 over H and SG3 over G: x acts by weights and [e2,x] = (n-1) e2,
    with [e2,e2] = e_n where `top_row`."""
    prod = _zero_rows(n, n_odd, 3)
    if top_row:
        _add(prod, _e(2), _e(2), _e(n), 1)
    _weight_rows(prod, n, n_odd, "x")
    _add_both(prod, _e(2), "x", _e(2), n - 1)
    return [], prod, n + 1, n_odd


@_family("SH4", "n", "solvable", 3, None, "(n+1|n)", nilradical="H", codim=1,
         nilradical_params=lambda n, params: {"gamma": 1})
def _table_SH4(n: int, mode: str):
    # Dropped in corrected mode for the same reason as in SH3.
    return _top_square_table(n, n, top_row=mode == VERBATIM)


# ---------------------------------------------------------------------------
# Solvable extensions of the (n|n-1) split and non-split nilradicals
# ---------------------------------------------------------------------------

@_family("MG1", "n", "solvable", 3, None, "(n+2|n-1)", nilradical="G", codim=2)
def _table_MG1(n: int, mode: str):
    return _codim_two_table(n, n - 1, antisymmetric=False)


@_family("MG2", "n", "solvable", 3, None, "(n+2|n-1)", nilradical="G", codim=2)
def _table_MG2(n: int, mode: str):
    return _codim_two_table(n, n - 1, antisymmetric=True)


@_family("G1", "n", "solvable", 3, None, "(n+1|n-1)", ("b (rational, b != 0)",),
         nilradical="G", codim=1, value_domain=_B_NONZERO,
         samples=lambda n: [{"b": 1}])
def _table_G1(n: int, mode: str):
    return _b_table(n, n - 1, antisymmetric=True)


@_family("G2", "n", "solvable", 3, None, "(n+1|n-1)", ("b (rational)",),
         nilradical="G", codim=1, samples=lambda n: [{"b": 0}, {"b": 1}])
def _table_G2(n: int, mode: str):
    return _b_table(n, n - 1, antisymmetric=False)


@_family("G3", "n", "solvable", 3, None, "(n+1|n-1)", nilradical="G", codim=1)
def _table_G3(n: int, mode: str):
    prod = _zero_rows(n, n - 1, 3)
    _weight_rows(prod, n, n - 1, "x")
    _add(prod, _e(2), "x", _e(2), 2 * (n - 1))
    _add(prod, _e(2), "x", _e(n), 1)
    return [], prod, n + 1, n - 1


@_family("G4", "n", "solvable", 3, None, "(n+1|n-1)",
         ("(gamma, b) in {(0,1), (1,0), (1,1)}",), nilradical="G", codim=1,
         value_domain=(("gamma", "b"),
                       lambda gamma, b: (gamma, b) in ((0, 1), (1, 0), (1, 1)),
                       "(gamma, b) must be one of (0,1), (1,0), (1,1)"),
         samples=lambda n: [{"gamma": 0, "b": 1}, {"gamma": 1, "b": 0},
                            {"gamma": 1, "b": 1}])
def _table_G4(n: int, mode: str):
    prod = _zero_rows(n, n - 1, 3)
    _weight_rows(prod, n, n - 1, "x")
    _add(prod, _e(2), "x", _e(n), "b")
    _add(prod, "x", "x", _e(2), "gamma")
    return ["b", "gamma"], prod, n + 1, n - 1


@_family("G5", "n", "solvable", 3, None, "(n+1|n-1)",
         ("a2..a(n-1) (rational)", "gamma (rational)"), nilradical="G", codim=1,
         notes=("gamma multiplies [x,x] but is absent from the family's "
                "displayed name; it is exposed as an explicit parameter",),
         samples=lambda n: [{}, {"a2": 1}, {"gamma": 1}])
def _table_G5(n: int, mode: str):
    params = [f"a{k}" for k in range(2, n)] + ["gamma"]
    # The odd rows' image components carry no subscript in the source
    # table; the identity on (y_i, y1, x) forces the diagonal reading.
    prod = _nil_rows(n, n - 1, odd_rows=mode == CORRECTED)
    _add(prod, "x", "x", _e(n), "gamma")
    return params, prod, n + 1, n - 1


@_family("G6", "n", "solvable", 3, None, "(n+1|n-1)",
         ("a2..a(n-1) (rational)", "gamma (rational)"), nilradical="G", codim=1,
         notes=("gamma exposed as an explicit parameter (as for G5)",),
         samples=lambda n: [{}, {"a2": 1}, {"gamma": 1}])
def _table_G6(n: int, mode: str):
    params, prod, n0, n1 = _table_G5(n, mode)
    _add(prod, "x", _e(2), _e(2), -1)
    return params, prod, n0, n1


@_family("SG1", "n", "solvable", 4, None, "(n+1|n-1)", structural={"t": 4},
         nilradical="G", codim=1,
         nilradical_params=lambda n, params: {f"beta{params['t']}": 1},
         samples=lambda n: [{"t": t} for t in range(4, n + 1)])
def _table_SG1(n: int, mode: str, *, t: int):
    # Omitted row: the identity on (y1, y1, e2) forces [y1,e2] = y_{t-1}.
    return _single_beta_table(n, n - 1, t, y1_row=mode == CORRECTED)


@_family("SG2", "n", "solvable", 5, 1, "(n+1|n-1)", ("gamma (rational, != 0)",),
         nilradical="G", codim=1, value_domain=_GAMMA_NONZERO,
         samples=lambda n: [{"gamma": 1}],
         nilradical_params=lambda n, params: {f"beta{(n + 3) // 2}": 1,
                                              "gamma": params.get("gamma", 1)})
def _table_SG2(n: int, mode: str):
    return _middle_beta_table(n, n - 1, gamma_row=True)


@_family("SG3", "n", "solvable", 3, None, "(n+1|n-1)", nilradical="G", codim=1,
         nilradical_params=lambda n, params: {"gamma": 1})
def _table_SG3(n: int, mode: str):
    return _top_square_table(n, n - 1, top_row=True)


FAMILY_IDS: tuple[str, ...] = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def _validate_domain(info: FamilyInfo, size: int, params: Mapping[str, object]) -> None:
    s = info.size_name
    if size < info.min_size:
        raise InputError(
            f"{info.family_id}: {s} must be >= {info.min_size} (got {shown(size)})")
    if size > MAX_SIZE:
        raise InputError(f"{info.family_id}: {s} must be <= MAX_SIZE = "
                         f"{MAX_SIZE} (got {shown(size)})")
    if info.size_parity is not None and size % 2 != info.size_parity:
        raise InputError(f"{info.family_id}: {s} must be odd (got {size})")
    if "t" in info.structural:
        if "t" not in params:
            raise InputError(f"{info.family_id}: structural parameter t is required")
        t = params["t"]
        if not isinstance(t, int) or isinstance(t, bool):
            raise InputError(f"{info.family_id}: t must be an integer")
        if not 4 <= t <= size:
            raise InputError(f"{info.family_id}: t must satisfy 4 <= t <= {s} "
                             f"(got t={shown(t)}, {s}={size})")


def _validate_values(info: FamilyInfo, values: Mapping[str, Fraction]) -> None:
    if info.value_domain is None:
        return
    names, admits, rule = info.value_domain
    given = [values[name] for name in names if name in values]
    if not given:
        return
    if len(given) < len(names):
        raise InputError(f"{info.family_id}: {' and '.join(names)} must be "
                         f"instantiated together")
    if not admits(*given):
        raise InputError(f"{info.family_id}: {rule}")


# The symbolic tables of the open `shared_builds` scope, keyed by
# (family, size, mode, structural values); None when no scope is open.
_SHARED: ContextVar[dict | None] = ContextVar("superalg_shared_builds", default=None)


@contextmanager
def shared_builds() -> Iterator[dict]:
    """A scope in which `build` makes one symbolic table per key and shares it.

    The key is (family, size, mode, structural values).  Inside the scope a
    value-free build returns the key's table itself (which the package never
    mutates), and a valued build instantiates it, so the table function runs
    once per key; a valued result is a new algebra each time.  Outside a
    scope every build makes its table afresh.  Yields the shared table map.
    """
    shared: dict = {}
    token = _SHARED.set(shared)
    try:
        yield shared
    finally:
        _SHARED.reset(token)


def build(family_id: str, size: int, params: Mapping[str, object] | None = None,
          mode: str = CORRECTED) -> SuperAlgebra:
    """Construct a catalog family, instantiating any given parameter values.

    Parameters not supplied stay symbolic.  Passing an unknown parameter, an
    out-of-domain size, an inexact value (see `exactmath.parameter_value`) or
    a forbidden value raises InputError naming the violated constraint.
    The symbolic table comes from the open `shared_builds` scope, or is made
    on a miss; given values are substituted into a new instance of it
    (`SuperAlgebra.instantiate`), named with its values.
    """
    info = family_info(family_id)
    if mode not in (VERBATIM, CORRECTED):
        raise InputError(f"unknown errata mode {shown(mode)}")
    params = dict(params or {})
    _validate_domain(info, size, params)

    structural = {k: params.pop(k) for k in info.structural}
    bits = [f"{info.size_name}={size}"]
    if "t" in structural:
        bits.append(f"t={structural['t']}")
    shared = _SHARED.get()
    request = (family_id, size, mode, tuple(structural.items()))
    symbolic = shared.get(request) if shared is not None else None
    if symbolic is None:
        names, prod, n_even, n_odd = info.table(size, mode, **structural)
        even = [_e(i) for i in range(1, n_even + 1)]
        if info.kind == "solvable":
            base = n_even - info.codim
            even = [_e(i) for i in range(1, base + 1)]
            even += ["x"] if info.codim == 1 else ["x1", "x2"]
        odd = [_y(i) for i in range(1, n_odd + 1)]
        symbolic = make_superalgebra(f"{family_id}({', '.join(bits)})", even, odd,
                                     sorted(names), prod)
        if shared is not None:
            shared[request] = symbolic
    declared = symbolic.parameters
    values: dict[str, Fraction] = {}
    for key, raw in params.items():
        if key not in declared:
            raise InputError(f"{family_id}: unknown parameter {shown(key)} "
                             f"(expected one of: {', '.join(declared) or 'none'})")
        values[key] = parameter_value(key, raw)
    _validate_values(info, values)
    if not values:
        return symbolic
    algebra = symbolic.instantiate(values)
    bits += [f"{k}={values[k]}" for k in sorted(values)]
    algebra.name = f"{family_id}({', '.join(bits)})"
    return algebra


def list_families() -> list[dict]:
    """Deterministic catalog of every family id with domains and schemas."""
    catalog = []
    for fid, info in _REGISTRY.items():
        catalog.append({
            "id": fid,
            "size_parameter": info.size_name,
            "domain": info.describe_domain(),
            "dims": info.dims,
            "kind": info.kind,
            "parameters": list(info.parameter_schema),
            "structural_parameters": list(info.structural),
            "nilradical": info.nilradical,
            "codimension": info.codim,
            "notes": list(info.notes),
        })
    return catalog


def family_info(fid: str) -> FamilyInfo:
    if fid not in _REGISTRY:
        raise InputError(f"unknown family id {shown(fid)}")
    return _REGISTRY[fid]


def sizes(fid: str, lo: int, hi: int) -> list[int]:
    """The sizes in lo..hi that lie in the family's domain."""
    info = family_info(fid)
    return [s for s in range(max(lo, info.min_size), hi + 1) if info.admits(s)]


@cache
def parameter_names(fid: str, size: int) -> tuple[str, ...]:
    """Sorted rational parameter names at one size, as the built table declares
    them.

    No family declares a parameter that depends on its structural t, so the
    names are read off the table function at the structural defaults, once
    per (fid, size), after `build`'s domain check; no algebra is made.
    """
    info = family_info(fid)
    structural = dict(info.structural)
    _validate_domain(info, size, structural)
    return tuple(sorted(info.table(size, CORRECTED, **structural)[0]))


def zero_filled(fid: str, size: int, params: Mapping[str, object]) -> dict[str, object]:
    """`params` over a 0 for every rational parameter of `fid` at `size`: the
    one statement that unspecified parameters are 0.  Structural values in
    `params` pass through."""
    return {**dict.fromkeys(parameter_names(fid, size), 0), **params}


def nilradical_spec(fid: str, size: int, params: Mapping[str, object] | None = None,
                    ) -> tuple[str, dict[str, object]]:
    """The claimed nilradical of a solvable family as `(family_id, values)`,
    ready for `build(family_id, size, values)`."""
    info = family_info(fid)
    if info.kind != "solvable":
        raise InputError(f"{fid} is not a solvable-extension family")
    return info.nilradical, zero_filled(info.nilradical, size,
                                        info.nilradical_params(size, params or {}))


# ---------------------------------------------------------------------------
# Errata ledger
# ---------------------------------------------------------------------------

class ErrataEntry(NamedTuple):
    """One shipped correction, justified by a reproducible identity residual.

    The fields are named and ordered as the keys of `superalg errata`'s JSON,
    which prints `_asdict()` (tuples as arrays).
    """

    family: str
    size: int
    product: tuple[str, str]
    verbatim: tuple[tuple[str, str], ...]
    corrected: tuple[tuple[str, str], ...]
    residual_site: tuple[str, ...]
    justification: str


def _site_for(fid: str, cell: tuple[str, str], size: int) -> tuple[tuple[str, ...], str]:
    left, right = cell
    if fid == "M" and cell == ("y2", "e2"):
        return (("y1", "e1", "e2"),
                "the identity forces [y2,e2] = [[y1,e2],e1]; the transcribed "
                "row repeats the y4 component where y5 is required")
    if fid == "M" and cell == ("e2", "e2"):
        return (("e2", "e2", "y1"),
                "the identity forces [[e2,e2],y1] = [[e2,y1],e2]; with "
                "[e2,y1] = 1/2 y2 this pins the top coefficient of [e2,e2] "
                "to theta, the transcribed alpha_n is inconsistent")
    if fid in ("H", "SH3", "SH4") and cell == ("e2", "e2"):
        return (("e2", "e2", "y1"),
                "squares act trivially on the right; with [e2,y1] = 0 the "
                "identity gives [[e2,e2],y1] = 0, but the odd chain forces "
                "[e_n,y1] = 1/2 y_n, so the gamma term of [e2,e2] must "
                "vanish and no other product can absorb it")
    if fid in ("M1", "M2", "M3", "M4") and left.startswith("y") and right.startswith("y"):
        return (("x", left, right),
                "odd products in this table must be symmetric; the "
                "antisymmetric transcription fails the identity against the "
                "diagonal action of x")
    if fid == "M5" and left.startswith("y") and right.startswith("y"):
        return (("x2", left, right),
                "odd products in this table must be symmetric; the "
                "antisymmetric transcription fails the identity against the "
                "diagonal action of x2")
    if fid == "M5":
        i = int((left if left.startswith("y") else right)[1:])
        probe = min(i, size - 1)
        return ((_y(probe), "e1", "x1"),
                "the y-weights under x1 must increase by 1 along the e1 "
                "chain and sum correctly against [e2,x1]; the transcribed "
                "weight (1-i) has the opposite slope, (i-1) is forced")
    if fid == "H5" and cell == ("x", "x"):
        return (("x", "x", "x"),
                "squares lie in the right annihilator, so [x,[x,x]] must "
                "vanish; with [x,e2] = -e2 this forces the gamma term to zero")
    if fid in ("G5", "G6") and left.startswith("y") and right == "x":
        return ((left, "y1", "x"),
                "the image components of the odd rows under x carry no "
                "subscript in the source table; the identity forces the "
                "diagonal reading [y_i,x] = sum a_{k+1-i} y_k")
    if fid == "SG1" and cell == ("y1", "e2"):
        return (("y1", "y1", "e2"),
                "the omitted row is forced: [[y1,y1],e2] = e_t requires "
                "[y1,e2] = y_{t-1}")
    raise InputError(f"no justification curated for {fid} at {cell}")


def errata_for(family_id: str, size: int, params: Mapping[str, object] | None = None,
               ) -> list[ErrataEntry]:
    """Concrete errata entries for one family at one size (symbolic values):
    the cells where the corrected and verbatim builds differ."""
    info = family_info(family_id)
    params = params or {}
    structural = {k: params[k] for k in info.structural if k in params}
    corrected, verbatim = (build(family_id, size, structural, mode)
                           for mode in (CORRECTED, VERBATIM))
    lab = corrected.labels

    def named(terms) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((lab[k], str(p)) for k, p in terms))

    # Both builds keep each cell's terms merged, zero-free and sorted.
    changed = {(lab[i], lab[j]): (i, j)
               for i, j in set(corrected.structure) | set(verbatim.structure)
               if corrected.structure.get((i, j)) != verbatim.structure.get((i, j))}
    entries: list[ErrataEntry] = []
    for cell in sorted(changed):
        site, why = _site_for(family_id, cell, size)
        entries.append(ErrataEntry(
            family=family_id,
            size=size,
            product=cell,
            verbatim=named(verbatim.structure.get(changed[cell], ())),
            corrected=named(corrected.structure.get(changed[cell], ())),
            residual_site=site,
            justification=why,
        ))
    return entries


def errata_ledger(sizes: Sequence[int] = (3, 4, 5, 6, 7, 8)) -> list[ErrataEntry]:
    """All shipped corrections over a size grid, in deterministic order."""
    top = max(sizes, default=0)
    if top > MAX_SIZE:
        raise InputError(f"errata sizes must be <= MAX_SIZE = {MAX_SIZE} "
                         f"(got {shown(top)})")
    entries: list[ErrataEntry] = []
    for fid, info in _REGISTRY.items():
        structural = dict(info.structural)
        for size in sizes:
            if info.admits(size):
                entries.extend(errata_for(fid, size, structural))
    return entries
