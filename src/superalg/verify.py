"""Claim-level verification pipeline with machine-readable reports.

Each claim bundles named checks against one catalog family (or a group of
them) at one size.  A check either passes, fails with a witness, or is
reported as unsupported.  Claims are independent and deterministic given the
engine version and the sampling seed.

Two transcription modes are used deliberately:

* identity, series, solvability, nilradical and fingerprint checks run on
  **corrected** tables (the identity-satisfying members);
* derivation-space propositions and extendability sweeps run on **verbatim**
  tables, where every displayed parameter genuinely acts (the corrected
  tables drop the inconsistent top-coefficient products, see the errata
  ledger).

The errata audit ties the two together: wherever a verbatim table fails the
graded Leibniz identity, the failure must be reproduced by a ledger entry at
the cited basis triple, and the corrected table must pass.

The corollary's classifier lives here too: a nilpotent algebra is extendable
(has a non-nilpotent solvable extension, by Mubarakzjanov's method) exactly
when the nil-independence count of its even derivations is at least 1.
`extendability` returns that verdict, read off the verbatim table (where
alpha_n of M and gamma of H act at all), and COR compares it with the table.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import __version__, families
from .core import (EVEN, GradedVector, SuperAlgebra, char_sequence, charseq_note,
                   check_leibniz, check_lie, fingerprint, is_nilpotent,
                   is_solvable, nilindex, right_mul_cells, subalgebra)
# space_all_nilpotent is imported by name: perfbench's tracer rebinds it here.
from .derivations import (derivation_space, is_derivation, same_span,
                          space_all_nilpotent)
from .errors import InputError, SuperalgError, UnsupportedShapeError, shown
from .exactmath import Cells, nilpotent_jordan_type, parameter_value, sparse_kernel

PASS = "pass"
FAIL = "fail"
UNSUPPORTED = "unsupported"

EXTENDABLE = "extendable"
NOT_EXTENDABLE = "not-extendable"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str = ""


class ClaimReport:
    def __init__(self, claim_id: str, subject: str) -> None:
        self.claim_id = claim_id
        self.subject = subject
        self.checks: list[CheckResult] = []
        self.notes: list[str] = []
        self.wall_time_s = 0.0

    @property
    def status(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return FAIL
        if any(c.status == UNSUPPORTED for c in self.checks):
            return UNSUPPORTED
        return PASS

    def ok(self, name: str, detail: str = "") -> None:
        self.checks.append(CheckResult(name, PASS, detail))

    def bad(self, name: str, detail: str) -> None:
        self.checks.append(CheckResult(name, FAIL, detail))

    def ensure(self, name: str, condition: bool, detail: str, witness: str = "") -> None:
        if condition:
            self.ok(name, detail)
        else:
            self.bad(name, witness or f"expected: {detail}")

    def as_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "subject": self.subject,
            "status": self.status,
            "checks": [c._asdict() for c in self.checks],
            "notes": list(self.notes),
            "wall_time_s": round(self.wall_time_s, 4),
        }


class RunReport(NamedTuple):
    engine_version: str
    seed: int
    claims: list[ClaimReport]
    wall_time_s: float

    @property
    def all_ok(self) -> bool:
        return all(c.status == PASS for c in self.claims)

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, UNSUPPORTED: 0}
        for claim in self.claims:
            counts[claim.status] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "engine_version": self.engine_version,
            "seed": self.seed,
            "summary": self.summary(),
            "all_ok": self.all_ok,
            "wall_time_s": round(self.wall_time_s, 3),
            "claims": [c.as_dict() for c in self.claims],
        }


def render_text(report: RunReport) -> str:
    lines = [f"engine {report.engine_version}, seed {report.seed}"]
    for claim in report.claims:
        lines.append(f"[{claim.status.upper():11}] {claim.claim_id}  {claim.subject}")
        for check in claim.checks:
            if check.status != PASS:
                lines.append(f"    - {check.name}: {check.status} ({check.detail})")
        for note in claim.notes:
            lines.append(f"    note: {note}")
    s = report.summary()
    lines.append(f"{s[PASS]} pass, {s[FAIL]} fail, {s[UNSUPPORTED]} unsupported "
                 f"in {report.wall_time_s:.1f}s")
    return "\n".join(lines)


def _residuals(found: list) -> str:
    return f"{len(found)} residuals; first: {found[0]}" if found else ""


def _check_identities(report: ClaimReport, info: families.FamilyInfo,
                      symbolic: SuperAlgebra) -> None:
    """The Leibniz identity in all parameters, and the Lie identities if claimed."""
    residuals = check_leibniz(symbolic)
    report.ensure("leibniz-symbolic", not residuals,
                  "identity holds in all parameters", _residuals(residuals))
    if info.lie:
        lie = check_lie(symbolic)
        report.ensure("lie-identity", not lie, "graded antisymmetry and Jacobi hold",
                      _residuals(lie))


def _fmt_params(params: Mapping[str, object]) -> str:
    nonzero = {k: v for k, v in params.items() if v not in (0, Fraction(0))}
    if not nonzero:
        return "zeros"
    return ", ".join(f"{k}={v}" for k, v in sorted(nonzero.items()))


# ---------------------------------------------------------------------------
# Nilpotent family claims
# ---------------------------------------------------------------------------

def verify_nilpotent_family(fid: str, size: int,
                            params: Mapping[str, object] | None = None,
                            seed: int = 0) -> ClaimReport:
    """Superidentity, nilindex = dim, and the characteristic sequence."""
    info = families.family_info(fid)
    if info.kind != "nilpotent":
        raise InputError(f"{fid} is not a nilpotent family")
    params = families.zero_filled(fid, size, params or {})
    report = ClaimReport(f"NILP-{fid}",
                         f"{fid}({info.size_name}={size}; {_fmt_params(params)})")

    _check_identities(report, info, families.build(fid, size))

    algebra = families.build(fid, size, params)
    ni = nilindex(algebra)
    report.ensure("nilindex", ni == algebra.dim,
                  f"nilindex {ni} equals dim {algebra.dim}",
                  f"nilindex {ni}, expected {algebra.dim}")

    expected = ((algebra.n_even - 1, 1), (algebra.n_odd,))
    cs = char_sequence(algebra, seed=seed)
    report.ensure("charseq", cs == expected,
                  f"characteristic sequence {cs} ({charseq_note(algebra, cs)})",
                  f"got {cs}, expected {expected}")
    return report


# ---------------------------------------------------------------------------
# Solvable family claims
# ---------------------------------------------------------------------------

def verify_solvable_family(fid: str, size: int,
                           params: Mapping[str, object] | None = None) -> ClaimReport:
    """Identity, solvability, and the nilradical-candidate checks."""
    info = families.family_info(fid)
    if info.kind != "solvable":
        raise InputError(f"{fid} is not a solvable-extension family")
    params = dict(params or {})
    report = ClaimReport(f"SOLV-{fid}",
                         f"{fid}({info.size_name}={size}; {_fmt_params(params)})")

    structural = {k: v for k, v in params.items() if k in info.structural}
    _check_identities(report, info, families.build(fid, size, structural or None))

    full_params = families.zero_filled(fid, size, params)
    algebra = families.build(fid, size, full_params)

    solvable, nilpotent = is_solvable(algebra), is_nilpotent(algebra)
    report.ensure("solvable-not-nilpotent", solvable and not nilpotent,
                  "solvable and not nilpotent",
                  f"solvable={solvable}, nilpotent={nilpotent}")

    base_even = algebra.n_even - info.codim
    n_even = algebra.n_even
    # The candidate N is spanned by all basis vectors but the extension
    # generators b_k, base_even <= k < n_even, so the canonical table shows
    # ideal and [L, L] directly: the cells with a component on a generator.
    leaks = [(i, j) for (i, j), terms in algebra.structure.items()
             if any(base_even <= k < n_even for k, _ in terms)]
    is_ideal = all(base_even <= i < n_even and base_even <= j < n_even for i, j in leaks)
    report.ensure("nilradical-candidate-ideal", is_ideal,
                  "the non-extension span is a two-sided ideal",
                  "the span of the non-extension basis vectors is not an ideal")
    report.ensure("nilradical-candidate-contains-square", not leaks,
                  "[L, L] lies in the candidate",
                  "[L, L] is not contained in the candidate")

    keep = list(range(base_even)) + list(range(n_even, algebra.dim))
    sub = subalgebra(algebra, keep, "nilradical-candidate")
    if sub is None:
        report.bad("nilradical-candidate-closed",
                   "internal products leave the candidate span")
    else:
        report.ensure("nilradical-candidate-nilpotent", is_nilpotent(sub),
                      "the candidate is nilpotent", "the candidate is not nilpotent")
        nil_id, nil_values = families.nilradical_spec(fid, size, full_params)
        claimed = families.build(nil_id, size, nil_values)
        report.ensure(
            "nilradical-structure-match", sub == claimed,
            f"structure constants equal {claimed.name}",
            f"candidate structure differs from {claimed.name}")
        report.ensure("codimension", algebra.dim - sub.dim == info.codim,
                      f"codimension {info.codim}",
                      f"codimension {algebra.dim - sub.dim}, expected {info.codim}")
        for x_label in algebra.even_basis[base_even:]:
            cells = right_mul_cells(algebra, GradedVector.basis(algebra, x_label), keep)
            ok_der = is_derivation(sub, cells, EVEN)
            report.ensure(f"right-mul-{x_label}-derivation", ok_der,
                          f"R_{x_label} restricted to the candidate is an even "
                          f"derivation", f"R_{x_label}|N fails the derivation identity")
            jt = nilpotent_jordan_type(sub.dim, cells)
            report.ensure(f"right-mul-{x_label}-non-nilpotent", jt is None,
                          f"R_{x_label}|N is non-nilpotent",
                          f"R_{x_label}|N is nilpotent with Jordan type {jt}")
    report.notes.extend(
        f"errata: {e.family} {e.product} ({e.justification.split(';')[0]})"
        for e in families.errata_for(fid, size, structural or None))
    return report


# ---------------------------------------------------------------------------
# Derivation proposition claims
# ---------------------------------------------------------------------------

def proposition_directions(fid: str, n: int) -> dict[str, Cells]:
    """Template directions for the even-derivation propositions: per symbol
    in template order, the nonzero (l, k) cells of its direction matrix.

    Symbols follow the displayed templates (a-series plus the e2 weights),
    except that for the (n|n) alpha-family the displayed free top coefficient
    of d(e2) is forced to a_{n-1} by the identity pair (e2, y1); the shipped
    template carries that tie.
    """
    n_even = n
    n_odd = n - 1 if fid in ("L", "G") else n
    e = lambda i: i - 1
    y = lambda i: n_even + i - 1

    diag = {(e(1), e(1)): 2}
    if fid in ("L", "M"):
        diag[(e(2), e(2))] = 2
    for i in range(3, n + 1):
        diag[(e(i), e(i))] = 2 * (i - 1)
    for i in range(1, n_odd + 1):
        diag[(y(i), y(i))] = 2 * i - 1
    directions = {"a1": diag}

    a_top = n if fid in ("M", "H") else n - 1
    for k in range(2, a_top + 1):
        cells: dict[tuple[int, int], int] = {}
        if k + 1 <= n:
            cells[(e(k + 1), e(1))] = 1
        if fid in ("L", "M"):
            # d(e2) continues the a-run; for the (n|n) family it runs to
            # a_{n-1} e_n (the tie), for the (n|n-1) family it stops at e_{n-1}.
            stop = n - 1 if fid == "M" else n - 2
            if 2 <= k <= stop and k + 1 <= n:
                cells[(e(k + 1), e(2))] = 1
        for i in range(3, n + 1):
            if i + k - 1 <= n:
                cells[(e(i + k - 1), e(i))] = 1
        for i in range(1, n_odd + 1):
            if i + k - 1 <= n_odd:
                cells[(y(i + k - 1), y(i))] = 1
        if cells:
            directions[f"a{k}"] = cells
    if fid in ("H", "G"):
        directions["b2"] = {(e(2), e(2)): 1}
    if fid in ("L", "G"):
        directions[f"b{n}"] = {(e(n), e(2)): 1}
    return directions


def proposition_constraints(fid: str, n: int, values: Mapping[str, Fraction],
                            ) -> list[dict[str, Fraction]]:
    """The linear relations the proposition imposes on the template symbols."""
    rows: list[dict[str, Fraction]] = []
    if fid == "L":
        for i in range(4, n + 1):
            rows.append({"a1": values[f"alpha{i}"]})
        rows.append({"a1": (n - 3) * values["theta"]})
    elif fid == "M":
        for i in range(4, n + 1):
            rows.append({"a1": values[f"alpha{i}"]})
        rows.append({"a1": values["theta"]})
        rows.append({"a1": values["tau"]})
    elif fid in ("H", "G"):
        for i in range(4, n + 1):
            b = values[f"beta{i}"]
            rows.append({"a1": 2 * (i - 2) * b, "b2": -b})
        if fid == "H":
            d = values["delta"]
            rows.append({"a1": 2 * (n - 1) * d, "b2": -d})
        g = values["gamma"]
        rows.append({"a1": (n - 1) * g, "b2": -g})
    return [r for r in rows if any(r.values())]


def proposition_template_space(fid: str, n: int, values: Mapping[str, Fraction],
                               ) -> list[dict[tuple[int, int], Fraction]]:
    """Span of the proposition's template maps at instantiated parameters,
    each map as its (l, k) cells."""
    directions = proposition_directions(fid, n)
    index = {s: i for i, s in enumerate(directions)}
    rows = [{index[s]: c for s, c in row.items() if c}
            for row in proposition_constraints(fid, n, values)]
    cells_of = list(directions.values())
    templates = []
    for vec in sparse_kernel(rows, len(directions)):
        total: dict[tuple[int, int], Fraction] = {}
        for s, coeff in vec.items():
            for p, x in cells_of[s].items():
                total[p] = total.get(p, 0) + coeff * x
        templates.append(total)
    return templates


# Each proposition's samples at every n: zeros, then two constrained parameters at 1.
_PROPOSITION_SAMPLES = {
    "L": ({}, {"alpha4": 1}, {"theta": 1}), "M": ({}, {"alpha4": 1}, {"tau": 1}),
    "H": ({}, {"beta4": 1}, {"delta": 1}), "G": ({}, {"beta4": 1}, {"gamma": 1})}
# The families with a derivation proposition and an extendability table, and
# the least n of both: below it the alpha and beta series are empty and L's
# theta constraint (n - 3) theta vanishes.
CLASSIFIER_FAMILIES = tuple(_PROPOSITION_SAMPLES)
CLASSIFIER_MIN_SIZE = 4


def _classifier_family(cid: str, prefix: str, claim: str, n: int) -> str:
    """The family of a P or COR claim id (or bare id) in the claims' domain."""
    fid = cid.removeprefix(prefix)
    if fid not in CLASSIFIER_FAMILIES:
        raise InputError(f"unknown {claim} id {cid!r}")
    if n < CLASSIFIER_MIN_SIZE:
        raise InputError(f"{prefix}{fid}: the {claim} is stated for "
                         f"n >= {CLASSIFIER_MIN_SIZE} (got n={shown(n)})")
    return fid


def verify_derivation_proposition(pid: str, n: int,
                                  samples: Sequence[Mapping[str, object]] | None = None,
                                  ) -> ClaimReport:
    """Solver-computed even derivation space == proposition template space."""
    fid = _classifier_family(pid, "P-", "proposition", n)
    if samples is None:
        samples = _PROPOSITION_SAMPLES[fid]
    report = ClaimReport(f"P-{fid}", f"{fid}(n={n}), {len(samples)} samples")
    if fid == "M":
        report.notes.append(
            "template correction: the displayed free top coefficient of d(e2) "
            "is tied to a_{n-1} by the identity pair (e2, y1)")
    for sample in samples:
        values = {k: parameter_value(k, v)
                  for k, v in families.zero_filled(fid, n, sample).items()}
        label = _fmt_params(values)
        algebra = families.build(fid, n, values, families.VERBATIM)
        space = derivation_space(algebra, EVEN)
        template = proposition_template_space(fid, n, values)
        equal = same_span(algebra, EVEN, space.cells, template)
        report.ensure(
            f"template-equality[{label}]",
            equal and len(template) == space.dim,
            f"solver dim {space.dim} equals template dim {len(template)}",
            f"solver dim {space.dim}, template dim {len(template)}, "
            f"subspace equality: {equal}")
    return report


# ---------------------------------------------------------------------------
# Extendability classifier and corollary sweeps
# ---------------------------------------------------------------------------

def predicted_extendable(family_id: str, n: int,
                         values: Mapping[str, object]) -> bool:
    """The zero/nonzero-pattern table of admissible nilradical parameters.

    For the two beta-families the single-nonzero-gamma pattern is admissible
    (the corresponding one-dimensional extensions exist); the displayed
    tables subsume it under their last row.
    """
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


def extendability(family_id: str, n: int,
                  params: Mapping[str, object] | None = None) -> str:
    """`EXTENDABLE` iff the even derivations' nil-independence count of the
    verbatim instance (unspecified parameters 0) is >= 1, else
    `NOT_EXTENDABLE`.  A non-triangular space raises UnsupportedShapeError."""
    if family_id not in CLASSIFIER_FAMILIES:
        raise InputError(
            f"extendability is defined for the nilpotent families "
            f"{', '.join(CLASSIFIER_FAMILIES)}; got {family_id!r}")
    algebra = families.build(family_id, n, families.zero_filled(family_id, n, params or {}),
                             families.VERBATIM)
    all_nilpotent = space_all_nilpotent(derivation_space(algebra, EVEN))
    return NOT_EXTENDABLE if all_nilpotent else EXTENDABLE


def corollary_patterns(fid: str, n: int) -> list[dict[str, int]]:
    """All-zero, every single-nonzero slot, and every pair of nonzero slots."""
    slots = list(families.parameter_names(fid, n))
    patterns: list[dict[str, int]] = [{}]
    patterns += [{s: 1} for s in slots]
    patterns += [{a: 1, b: 1} for i, a in enumerate(slots) for b in slots[i + 1:]]
    return patterns


def verify_corollary(cid: str, n: int) -> ClaimReport:
    """Extendability verdicts over the pattern grid match the prediction table."""
    fid = _classifier_family(cid, "COR-", "corollary", n)
    report = ClaimReport(f"COR-{fid}", f"{fid}(n={n}) pattern sweep")
    mismatches = []
    patterns = corollary_patterns(fid, n)
    for pattern in patterns:
        verdict = extendability(fid, n, pattern)
        predicted = predicted_extendable(fid, n, pattern)
        if (verdict == EXTENDABLE) != predicted:
            mismatches.append(
                f"{_fmt_params(pattern)}: computed {verdict}, "
                f"predicted {EXTENDABLE if predicted else NOT_EXTENDABLE}")
    report.ensure("pattern-grid", not mismatches,
                  f"all {len(patterns)} pattern verdicts match the table",
                  "; ".join(mismatches))
    return report


# ---------------------------------------------------------------------------
# Pairwise distinction
# ---------------------------------------------------------------------------

def pairwise_distinguish(members: Sequence[tuple[str, int, Mapping[str, object]]],
                         claim_id: str = "DIST", seed: int = 0) -> ClaimReport:
    """Fingerprint matrix; reports which pairs the invariants distinguish.

    "not distinguished" is an honest outcome, never an isomorphism claim.
    """
    built = []
    for fid, size, params in members:
        algebra = families.build(fid, size, families.zero_filled(fid, size, params))
        built.append((algebra.name, fingerprint(algebra, seed=seed)))
    report = ClaimReport(claim_id, ", ".join(name for name, _ in built))
    undistinguished = []
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            if built[i][1] == built[j][1]:
                undistinguished.append(f"{built[i][0]} ~ {built[j][0]}")
    detail = ("all pairs distinguished by invariants" if not undistinguished
              else "not distinguished (no isomorphism claim): "
                   + "; ".join(undistinguished))
    report.ok("fingerprint-matrix", detail)
    if undistinguished:
        report.notes.append(detail)
    return report


# ---------------------------------------------------------------------------
# Errata audit
# ---------------------------------------------------------------------------

def audit_errata(fid: str, size: int,
                 params: Mapping[str, object] | None = None) -> ClaimReport:
    """Verbatim failures must be exactly the ledgered ones; corrected passes."""
    report = ClaimReport(f"AUDIT-{fid}",
                         f"{fid}(size={size}"
                         + (f", {_fmt_params(params)}" if params else "") + ")")
    corrected = families.build(fid, size, params, families.CORRECTED)
    res_corr = check_leibniz(corrected)
    report.ensure("corrected-passes", not res_corr,
                  "corrected table satisfies the identity", _residuals(res_corr))
    verbatim = families.build(fid, size, params, families.VERBATIM)
    res_verb = res_corr if verbatim == corrected else check_leibniz(verbatim)
    entries = families.errata_for(fid, size, params)
    if res_verb and not entries:
        report.bad("ledger-coverage",
                   f"verbatim table fails ({len(res_verb)} residuals, first "
                   f"{res_verb[0]}) but the ledger has no entry: unledgered "
                   f"discrepancy")
    elif entries and not res_verb:
        report.bad("ledger-coverage",
                   "ledger entries exist but the verbatim table passes")
    else:
        report.ok("ledger-coverage",
                  f"{len(entries)} ledger entries, verbatim residuals "
                  f"{'present' if res_verb else 'absent'} accordingly")
    sites = {tuple(r.where) for r in res_verb}
    for entry in entries:
        report.ensure(
            f"entry-{entry.product[0]},{entry.product[1]}",
            tuple(entry.residual_site) in sites,
            f"cited residual at {entry.residual_site} reproduced",
            f"cited residual site {entry.residual_site} not produced by the "
            f"verbatim build")
    return report


# ---------------------------------------------------------------------------
# Claim registry and runner
# ---------------------------------------------------------------------------

_DIST_GROUPS: dict[str, Callable[[int], list[tuple[str, int, dict]]]] = {
    "DIST-M": lambda s: [("M1", s, {}), ("M2", s, {"alpha": 1}), ("M3", s, {}),
                         ("M4", s, {"b2": 1})],
    "DIST-MH": lambda s: [("MH1", s, {}), ("MH2", s, {})],
    "DIST-H": lambda s: [("H1", s, {"b": 1}), ("H2", s, {"b": 1}),
                         ("H2", s, {"b": 2}), ("H3", s, {}), ("H4", s, {}),
                         ("H5", s, {"gamma": 0})],
    "DIST-SH": lambda s: [("SH1", s, {"t": 4}), ("SH2", s, {}),
                          ("SH3", s, {"gamma": 1}), ("SH4", s, {})],
    "DIST-MG": lambda s: [("MG1", s, {}), ("MG2", s, {})],
    "DIST-G": lambda s: [("G1", s, {"b": 1}), ("G2", s, {"b": 1}), ("G3", s, {}),
                         ("G4", s, {"gamma": 0, "b": 1}),
                         ("G4", s, {"gamma": 1, "b": 0}), ("G5", s, {}),
                         ("G6", s, {})],
    "DIST-SG": lambda s: [("SG1", s, {"t": 4}), ("SG2", s, {"gamma": 1}),
                          ("SG3", s, {})],
}


def claim_ids() -> list[str]:
    kinds = {f: families.family_info(f).kind for f in families.FAMILY_IDS}
    ids = [f"NILP-{f}" for f, kind in kinds.items() if kind == "nilpotent"]
    ids += [f"P-{f}" for f in CLASSIFIER_FAMILIES]
    ids += [f"COR-{f}" for f in CLASSIFIER_FAMILIES]
    ids += [f"SOLV-{f}" for f, kind in kinds.items() if kind == "solvable"]
    ids += list(_DIST_GROUPS)
    ids += [f"AUDIT-{f}" for f in families.FAMILY_IDS]
    return ids


# The default size range of each claim kind (the (2|m) family takes its odd sizes).
_DEFAULT_SIZES = {"NILP": (3, 7), "P": (4, 6), "COR": (5, 7), "SOLV": (3, 6),
                  "DIST": (5, 5), "AUDIT": (3, 8)}


def _claim_calls(cid: str, n_range: tuple[int, int] | None, seed: int,
                 ) -> Iterator[tuple[Callable[..., ClaimReport], tuple]]:
    """The (claim function, args) calls of one claim id, one per instance.  Each
    function is read off the module as it is yielded, so a rebound one is called."""
    kind, _, fid = cid.partition("-")
    lo, hi = n_range or _DEFAULT_SIZES[kind]
    if kind == "NILP":
        for size in families.sizes(fid, lo, hi):
            for sample in families.family_info(fid).samples(size):
                yield verify_nilpotent_family, (fid, size, sample, seed)
    elif kind in ("P", "COR"):
        for size in families.sizes(fid, max(lo, CLASSIFIER_MIN_SIZE), hi):
            yield (verify_derivation_proposition if kind == "P" else verify_corollary,
                   (cid, size))
    elif kind == "SOLV":
        for size in families.sizes(fid, lo, hi):
            for sample in families.family_info(fid).samples(size):
                yield verify_solvable_family, (fid, size, sample)
    elif kind == "DIST":
        size = max(lo, 5) if hi >= 5 else lo
        members = [(f, s, p) for f, s, p in _DIST_GROUPS[cid](size)
                   if s in families.sizes(f, s, s)]
        if len(members) >= 2:
            yield pairwise_distinguish, (members, cid, seed)
    elif kind == "AUDIT":
        params = dict(families.family_info(fid).structural) or None
        for size in families.sizes(fid, lo, hi):
            yield audit_errata, (fid, size, params)


def run_claims(selected: Sequence[str] | None = None,
               n_range: tuple[int, int] | None = None,
               seed: int = 0) -> RunReport:
    """Evaluate claims (all by default) over a size range, sequentially.

    Without a range each claim kind runs over its `_DEFAULT_SIZES` entry.
    A range that ends above `families.MAX_SIZE`, or in which no selected
    claim has an instance, is an InputError; sizes below a family's minimum
    are skipped.  The claims of one family (the id after the dash: NILP-X,
    P-X, COR-X, SOLV-X, AUDIT-X and a DIST-X group) run together in one
    `families.shared_builds` scope, so each symbolic table is built once per
    family, and its samples, patterns, errata notes and audits instantiate or
    read that one table and its memoised Leibniz residuals.  Reports come
    back in the order of `selected`.  Each report's `wall_time_s` is timed
    here, around its claim function.
    """
    start = time.perf_counter()
    if n_range and n_range[1] > families.MAX_SIZE:
        raise InputError(f"size range {shown(n_range[0])}..{shown(n_range[1])} "
                         f"ends above MAX_SIZE = {families.MAX_SIZE}")
    wanted = list(selected) if selected else claim_ids()
    known = set(claim_ids())
    for cid in wanted:
        if cid not in known:
            raise InputError(f"unknown claim id {shown(cid)}")
    by_family: dict[str, list[int]] = {}
    for at, cid in enumerate(wanted):
        by_family.setdefault(cid.partition("-")[2], []).append(at)
    found: list[list[ClaimReport]] = [[] for _ in wanted]
    for positions in by_family.values():
        # One scope per family, not per run: a run-wide scope kept every
        # table of the run alive at once.
        with families.shared_builds():
            for at in positions:
                cid = wanted[at]
                try:
                    for claim, args in _claim_calls(cid, n_range, seed):
                        claim_start = time.perf_counter()
                        report = claim(*args)
                        report.wall_time_s = time.perf_counter() - claim_start
                        found[at].append(report)
                except UnsupportedShapeError as exc:
                    partial = ClaimReport(cid, "unsupported computation")
                    partial.checks.append(CheckResult("execution", UNSUPPORTED, str(exc)))
                    found[at].append(partial)
                except SuperalgError as exc:
                    broken = ClaimReport(cid, "internal error")
                    broken.bad("execution", str(exc))
                    found[at].append(broken)
    reports = [report for each in found for report in each]
    if not reports:  # the default ranges give every claim an instance
        raise InputError(f"no selected claim has an instance with size in "
                         f"{shown(n_range[0])}..{shown(n_range[1])}")
    return RunReport(__version__, seed, reports, time.perf_counter() - start)
