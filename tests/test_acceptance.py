"""Acceptance suite: one test (and one printed verdict line) per criterion.

Arithmetic is exact everywhere, so every comparison below is equality; there
are no tolerances.  Criterion 1b checks the Lie status of the N2M-branch
families against the catalog.  M1 is non-Lie by construction (the square of
its extension generator is e2, a legal central square for a graded Leibniz
product but a violation of graded antisymmetry), so criterion 1b asserts that
its only Lie residual is that single antisymmetry residual.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from superalg import (CORRECTED, FAMILY_IDS, build, family_info,
                      parameter_names)
from superalg.core import (EVEN, GradedVector, char_sequence, check_leibniz,
                           check_lie, nilindex, right_annihilator)
from superalg.derivations import derivation_space, max_nil_independent
from superalg.exactmath import nilpotent_jordan_type
from superalg.families import sizes
from superalg.verify import (audit_errata, corollary_patterns,
                             verify_corollary, verify_derivation_proposition,
                             verify_solvable_family)

from oracles import (brute_leibniz_residuals, brute_lie_residuals, cells_of,
                     contains_vector, jordan_type_by_powers, product,
                     random_graded_algebra, random_nilpotent_matrix)


def zeros(fid: str, size: int) -> dict[str, int]:
    return {p: 0 for p in parameter_names(fid, size)}


def structural_variants(fid: str, size: int) -> list[dict]:
    if "t" in family_info(fid).structural:
        return [{"t": t} for t in range(4, size + 1)]
    return [{}]


def verdict(name: str, failures: list[str], extra: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {name}" + (f" ({extra})" if extra else ""))
    assert not failures, f"{name}: " + "; ".join(failures)


# -- criterion 1: identity suite ---------------------------------------------

def test_criterion_1_leibniz_identity_suite():
    """Corrected mode passes the graded Leibniz identity symbolically,
    for every family and every size in 3..8 within its domain, in < 60 s."""
    start = time.perf_counter()
    failures = []
    for fid in FAMILY_IDS:
        for size in sizes(fid, 3, 8):
            for structural in structural_variants(fid, size):
                algebra = build(fid, size, structural or None, CORRECTED)
                residuals = check_leibniz(algebra)
                if residuals:
                    failures.append(f"{algebra.name}: {residuals[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    verdict("criterion 1a: Leibniz identity suite", failures,
            f"all families, sizes 3..8, {elapsed:.1f}s")


# Expected check_lie residuals (identity, where, component, value) of the
# corrected build at every size: M1's table sets [x,x] = e2, so graded
# antisymmetry leaves [x,x] + [x,x] = 2 e2; the other families are Lie.
EXPECTED_LIE_RESIDUALS = {
    "N2M": [], "M1": [("antisymmetry", ("x", "x"), "e2", 2)],
    "M2": [], "M3": [], "M4": [], "M5": [],
}


@pytest.mark.parametrize("fid", ["N2M", "M1", "M2", "M3", "M4", "M5"])
def test_criterion_1_lie_identity(fid):
    """The Lie check (graded antisymmetry plus the graded Jacobi identity)
    of every N2M-branch family gives exactly the catalogued residuals, at
    every size in 3..8 within its domain: none for the Lie families, and for
    M1 the single antisymmetry residual of [x,x] = e2.  Every family stays
    graded Leibniz, and on a seeded integer instance check_lie agrees exactly
    with the product-based oracle."""
    expected = EXPECTED_LIE_RESIDUALS[fid]
    rng = random.Random(1)
    failures = []
    for size in sizes(fid, 3, 8):
        algebra = build(fid, size, None, CORRECTED)
        residuals = check_lie(algebra)
        if [(r.identity, r.where, r.component, r.value)
                for r in residuals] != expected:
            failures.append(f"{fid}(m={size}): residuals "
                            f"{[str(r) for r in residuals]}, "
                            f"expected {expected}")
        leibniz = check_leibniz(algebra)
        if leibniz:
            failures.append(f"{fid}(m={size}): {leibniz[0]}")
        params = {p: rng.choice((-3, -2, -1, 1, 2, 3))
                  for p in parameter_names(fid, size)}
        instance = build(fid, size, params, CORRECTED)
        engine = [(r.identity, r.where, r.component, r.value.as_constant())
                  for r in check_lie(instance)]
        if engine != brute_lie_residuals(instance):
            failures.append(f"{fid}(m={size}, {params}): check_lie differs "
                            f"from the oracle")
    extra = (f"non-Lie as catalogued, only residual {expected}" if expected
             else "Lie")
    verdict(f"criterion 1b: Lie identity [{fid}]", failures, extra)


# -- criterion 2: nilindex ---------------------------------------------------

def test_criterion_2_nilindex():
    failures = []
    nonzero_sample = {"L": {"theta": 1}, "G": {"gamma": 1},
                      "M": {"tau": 1}, "H": {"delta": 1}}
    for m in (3, 5, 7):
        got = nilindex(build("N2M", m))
        if got != m + 2:
            failures.append(f"N2M(m={m}): nilindex {got}, expected {m + 2}")
    for fid in ("L", "G", "M", "H"):
        expected = (lambda n: 2 * n - 1) if fid in ("L", "G") else (lambda n: 2 * n)
        for n in range(3, 8):
            for extra in ({}, nonzero_sample[fid]):
                params = zeros(fid, n)
                params.update(extra)
                got = nilindex(build(fid, n, params))
                if got != expected(n):
                    failures.append(f"{fid}(n={n}, {extra}): nilindex {got}, "
                                    f"expected {expected(n)}")
    verdict("criterion 2: nilindex", failures,
            "N2M m in {3,5,7}; L/G/M/H n in 3..7, zero and nonzero instances")


# -- criterion 3: characteristic sequence ------------------------------------

def test_criterion_3_characteristic_sequence():
    failures = []
    for n in range(4, 8):
        for fid, expected in (("L", ((n - 1, 1), (n - 1,))),
                              ("M", ((n - 1, 1), (n,)))):
            algebra = build(fid, n, zeros(fid, n))
            results = {char_sequence(algebra, samples=64, seed=s)
                       for s in (0, 1, 2)}
            if results != {expected}:
                failures.append(f"{fid}(n={n}): got {results}, expected "
                                f"{expected} at every seed")
    verdict("criterion 3: characteristic sequence", failures,
            "L and M zero instances, n in 4..7, seeds 0..2")


# -- criterion 4: derivation propositions ------------------------------------

def test_criterion_4_derivation_propositions():
    failures = []
    for fid in ("L", "M", "H", "G"):
        for n in (4, 5, 6):
            report = verify_derivation_proposition(f"P-{fid}", n)
            for check in report.checks:
                if check.status != "pass":
                    failures.append(f"P-{fid}(n={n}) {check.name}: {check.detail}")
    verdict("criterion 4: derivation propositions", failures,
            "n in 4..6, three samples per family incl. the weight-tie for H")


# -- criterion 5: nil-independence -------------------------------------------

def test_criterion_5_nil_independence():
    failures = []
    expected_counts = {"H": 2, "G": 2, "L": 1, "M": 1}
    for n in (4, 5, 6):
        for fid, expected in expected_counts.items():
            space = derivation_space(build(fid, n, zeros(fid, n)), EVEN)
            got = max_nil_independent(space).max_count
            if got != expected:
                failures.append(f"{fid}(n={n}) zeros: {got}, expected {expected}")
        for slot in (f"alpha{min(4, n)}", "theta"):
            params = zeros("L", n)
            params[slot] = 1
            space = derivation_space(build("L", n, params), EVEN)
            got = max_nil_independent(space).max_count
            if got != 0:
                failures.append(f"L(n={n}, {slot}=1): {got}, expected 0")
    verdict("criterion 5: nil-independence counts", failures, "n in 4..6")


# -- criterion 6: corollary sweeps -------------------------------------------

def test_criterion_6_corollary_sweeps():
    failures = []
    for fid in ("L", "M", "H", "G"):
        for n in (5, 6, 7):
            if n % 2 == 1 and fid in ("H", "G"):
                mid = f"beta{(n + 3) // 2}"
                grid = corollary_patterns(fid, n)
                if {mid: 1, "gamma": 1} not in grid:
                    failures.append(f"{fid}(n={n}): odd-size pattern "
                                    f"{mid}+gamma missing from the grid")
            report = verify_corollary(f"COR-{fid}", n)
            for check in report.checks:
                if check.status != "pass":
                    failures.append(f"COR-{fid}(n={n}): {check.detail}")
    verdict("criterion 6: extendability sweeps", failures,
            "pattern grids at n in 5..7, zero mismatches required")


# -- criterion 7: solvable-extension suite ------------------------------------

SOLVABLE_SAMPLES = {
    "M1": [{}], "M2": [{"alpha": 1}], "M3": [{}], "M4": [{"b2": 1}],
    "M5": [{}], "SL": [{}], "SM": [{}], "MH1": [{}], "MH2": [{}],
    "H1": [{"b": 1}], "H2": [{"b": 0}, {"b": 1}], "H3": [{}],
    "H4": [{"a2": 1}], "H5": [{"gamma": 0}, {"gamma": 1}],
    "SH2": [{}], "SH3": [{"gamma": 1}], "SH4": [{}],
    "MG1": [{}], "MG2": [{}], "G1": [{"b": 1}], "G2": [{"b": 1}],
    "G3": [{}], "G4": [{"gamma": 0, "b": 1}, {"gamma": 1, "b": 0},
                       {"gamma": 1, "b": 1}],
    "G5": [{"a2": 1}], "G6": [{"gamma": 1}], "SG2": [{"gamma": 1}],
    "SG3": [{}],
}


def test_criterion_7_solvable_suite():
    failures = []
    for fid in FAMILY_IDS:
        info = family_info(fid)
        if info.kind != "solvable":
            continue
        grid = sizes(fid, 3, 5) if info.size_name == "m" \
            else sizes(fid, 4, 6)
        if info.size_name == "m":
            grid = [m for m in grid if m in (3, 5)]
        for size in grid:
            if "t" in info.structural:
                samples = [{"t": t} for t in range(4, size + 1)]
            else:
                samples = SOLVABLE_SAMPLES[fid]
            for sample in samples:
                report = verify_solvable_family(fid, size, sample)
                for check in report.checks:
                    if check.status != "pass":
                        failures.append(
                            f"{fid}(size={size}, {sample}) {check.name}: "
                            f"{check.detail}")
    verdict("criterion 7a: solvable-extension suite", failures,
            "M-branch at m in {3,5}; extensions at n in 4..6")


def test_criterion_7_verbatim_failures_all_ledgered():
    failures = []
    for fid in FAMILY_IDS:
        for size in sizes(fid, 3, 8):
            for structural in structural_variants(fid, size):
                report = audit_errata(fid, size, structural or None)
                for check in report.checks:
                    if check.status != "pass":
                        failures.append(f"{fid}(size={size}, {structural}) "
                                        f"{check.name}: {check.detail}")
    verdict("criterion 7b: errata audit", failures,
            "all families, sizes 3..8: verbatim failures exactly the "
            "ledgered ones")


# -- criterion 8: annihilator property ----------------------------------------

def test_criterion_8_annihilator_property():
    failures = []
    sampled = (("N2M", 5, {}), ("L", 5, {"theta": 1}), ("M", 4, {}),
               ("SH1", 5, {"t": 4}), ("MH2", 5, {}))
    for fid, size, extra in sampled:
        params = zeros(fid, size)
        params.update(extra)
        algebra = build(fid, size, params)
        ann = right_annihilator(algebra)
        rng = random.Random(8)
        bad = 0
        for _ in range(200):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = _random_homogeneous(rng, algebra, pa)
            b = _random_homogeneous(rng, algebra, pb)
            sign = -1 if (pa and pb) else 1
            v = [s + sign * t for s, t in zip(product(algebra, a, b).coords,
                                              product(algebra, b, a).coords)]
            if not contains_vector(ann, algebra, GradedVector(tuple(v))):
                bad += 1
        if bad:
            failures.append(f"{algebra.name}: {bad}/200 symmetrized products "
                            f"escape the right annihilator")
    verdict("criterion 8: annihilator property", failures,
            "200 seeded homogeneous pairs in each of 5 families")


def _random_homogeneous(rng, algebra, parity):
    coords = [Fraction(0)] * algebra.dim
    indices = (range(algebra.n_even) if parity == EVEN
               else range(algebra.n_even, algebra.dim))
    for i in indices:
        coords[i] = Fraction(rng.randint(-5, 5))
    return GradedVector(tuple(coords))


# -- criterion 9: oracle equivalence ------------------------------------------

def test_criterion_9_oracle_equivalence():
    failures = []
    rng = random.Random(9)
    for trial in range(50):
        n0 = rng.randint(1, 4)
        n1 = rng.randint(0, 4)
        algebra = random_graded_algebra(rng, n0, n1, density=0.35)
        engine = [(r.where, r.component, r.value.as_constant())
                  for r in check_leibniz(algebra)]
        oracle = brute_leibniz_residuals(algebra)
        if engine != oracle:
            failures.append(f"trial {trial}: residual lists differ "
                            f"({len(engine)} vs {len(oracle)})")
    rng = random.Random(10)
    for trial in range(100):
        dim = rng.randint(1, 10)
        matrix = random_nilpotent_matrix(rng, dim)
        got = nilpotent_jordan_type(dim, cells_of(matrix))
        want = jordan_type_by_powers(matrix)
        if got != want:
            failures.append(f"matrix trial {trial}: {got} vs oracle {want}")
    verdict("criterion 9: oracle equivalence", failures,
            "50 random graded algebras; 100 random nilpotent matrices")
