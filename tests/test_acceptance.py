"""End-to-end acceptance checks: one timed pass/fail line per criterion.

Run with -s to see the lines; each test also asserts its criterion and
its runtime budget.
"""

import random
import time
from fractions import Fraction

from flagcert.certificates import (
    _largest_root,
    certificate_expansion,
    compare_with_golden,
    load_certificate,
    load_golden,
    verify_certificate,
)
from flagcert.constructions import (
    BlowupModel,
    blowup_density,
    conjecture_value,
    piece_model,
    profile_table,
    turan_bound,
)
from flagcert.exactmath import KPolynomial, SymMatrix, nonneg_on_ray, psd_check
from flagcert.graphs import complete, enumerate_graphs, parse_paircode, turan
from flagcert.oracle import counting_identity_check, want_inequality_scan
from flagcert.verdict import full_matrix

K221 = parse_paircode("2 2 2 1 1 2 2 2 2 2")


def _check(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {num:2d}: {status} - {detail} "
        f"({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_01_enumeration_counts():
    start = time.perf_counter()
    counts = [len(enumerate_graphs(l)) for l in range(1, 7)]
    elapsed = time.perf_counter() - start
    ok = counts == [1, 2, 4, 11, 34, 156]
    _check(1, ok, f"class counts {counts}", elapsed, 10)


def test_criterion_02_lemma074_certificate():
    start = time.perf_counter()
    report = verify_certificate(load_certificate("lemma074.cert"))
    mismatches = compare_with_golden(report, load_golden("appendixB.golden"))
    max_c = report.max_coefficient
    ok = (
        report.passed
        and not mismatches
        and max_c < Fraction(4495, 100)
        and abs(max_c - Fraction(44947, 1000)) <= Fraction(1, 1000)
    )
    elapsed = time.perf_counter() - start
    _check(
        2,
        ok,
        f"PASS with max {float(max_c):.6f} < 44.95, "
        f"{len(mismatches)} golden mismatches",
        elapsed,
        120,
    )


def test_criterion_03_k3_certificate():
    start = time.perf_counter()
    cert = load_certificate("k3.cert")
    report = verify_certificate(cert)
    all_below = all(c <= 10 for c in report.coefficients.values())
    big = next(
        st for st in cert.square_terms
        if st.matrix is not None and len(full_matrix(st)) == 6
    )
    m = SymMatrix.from_rows(full_matrix(big))
    res = psd_check(m)
    witness_ok = res.psd and res.verify(m)
    ok = report.passed and all_below and witness_ok
    elapsed = time.perf_counter() - start
    _check(
        3,
        ok,
        f"PASS, 27-scaled max {report.max_coefficient} <= 10, "
        "6x6 LDL witness verified",
        elapsed,
        60,
    )


def test_criterion_04_k4_certificate():
    start = time.perf_counter()
    cert = load_certificate("k4.cert")
    report = verify_certificate(cert)
    all_below = all(c <= 45 for c in report.coefficients.values())
    (square,) = cert.square_terms
    expected = ((91, 12, -115), (12, 41, -94), (-115, -94, 303))
    rows = full_matrix(square)
    matrix_ok = all(
        rows[i][j] == expected[i][j] for i in range(3) for j in range(3)
    )
    res = psd_check(SymMatrix.from_rows(rows))
    ok = report.passed and all_below and matrix_ok and res.psd
    elapsed = time.perf_counter() - start
    _check(
        4,
        ok,
        f"PASS, 128-scaled max {report.max_coefficient} <= 45, 3x3 PSD",
        elapsed,
        60,
    )


def test_criterion_05_parametric_certificate():
    start = time.perf_counter()
    cert = load_certificate("appendixA.cert")
    report = verify_certificate(cert)  # declared base k0 = 5
    golden = load_golden("appendixC.golden")
    mismatches = compare_with_golden(report, golden)

    golden_roots = {root: code for _, code, root in golden.polynomial_rows}
    quoted = (Fraction("3.67637881255240"), Fraction("3.74585343172358"))
    roots_ok = all(q in golden_roots for q in quoted) and all(
        abs(_largest_root(report.coefficients[golden_roots[q]]) - q)
        <= Fraction(1, 10**6)
        for q in quoted
    )

    at_four_ok = all(
        nonneg_on_ray(poly, 4) for poly in report.coefficients.values()
    )
    psd_poly = KPolynomial([-36, -324, 603, -522, 585, -378, 63])
    declared = next(
        st.psd_condition
        for st in cert.square_terms
        if st.psd_condition is not None
    )
    psd_root_ok = (
        declared == psd_poly
        and abs(report.psd_condition_root - Fraction(4113060, 10**6))
        <= Fraction(1, 10**6)
    )
    fail_at_four = verify_certificate(cert, k0=4)
    gate_ok = report.passed and not fail_at_four.passed

    ok = (
        not mismatches
        and len(golden.polynomial_rows) == 26
        and roots_ok
        and at_four_ok
        and psd_root_ok
        and gate_ok
        and len(report.zero_set) == 8
        and set(report.zero_set) == set(golden.zero_codes)
    )
    elapsed = time.perf_counter() - start
    _check(
        5,
        ok,
        "26 polynomials exact, roots within 1e-6, nonneg on [4,oo), "
        "PASS at 5 / FAIL at 4, 8 zero graphs",
        elapsed,
        120,
    )


def test_criterion_06_counting_identity():
    start = time.perf_counter()
    report = counting_identity_check(7)
    ok = (
        report.passed
        and report.graphs_checked == 1252
        and len(enumerate_graphs(7)) == 1044
    )
    elapsed = time.perf_counter() - start
    _check(
        6,
        ok,
        f"identity on all {report.graphs_checked} graphs through order 7, "
        f"{len(report.exceptions)} exceptions",
        elapsed,
        60,
    )


def test_criterion_07_inequality_scan():
    start = time.perf_counter()
    ks = [3, Fraction(7, 2), 4, 5, 10]
    report = want_inequality_scan(ks, 60)
    tight_ks = {t.k for t in report.turan_equalities}
    tight_ok = tight_ks == {Fraction(k) for k in ks}
    values_ok = all(
        t.value == Fraction(t.n) ** 3 / t.k**3 for t in report.turan_equalities
    )
    ok = report.passed and tight_ok and values_ok
    elapsed = time.perf_counter() - start
    _check(
        7,
        ok,
        f"{report.triples_checked} triples, {len(report.violations)} "
        f"violations, equality at the complete-multipartite point for all k",
        elapsed,
        300,
    )


def test_criterion_08_construction_values():
    start = time.perf_counter()
    anchors_ok = (
        turan_bound(3) == Fraction(10, 27)
        and turan_bound(4) == Fraction(45, 128)
        and turan_bound(5) == Fraction(36, 125)
    )
    blowups_ok = all(
        blowup_density(BlowupModel(complete(k), (Fraction(1, k),) * k), K221)
        == turan_bound(k)
        for k in (3, 4, 5)
    )

    tol = Fraction(1, 10**12)
    rng = random.Random(30)
    cross_ok = True
    for k in range(3, 9):
        lo, hi = Fraction(k - 1, k), Fraction(k, k + 1)
        for _ in range(5):
            e = lo + (hi - lo) * Fraction(rng.randrange(1, 128), 128)
            diff = conjecture_value(e) - blowup_density(piece_model(k, e), K221)
            cross_ok = cross_ok and abs(diff.approx(tol / 10)) <= tol

    knots_ok = abs(
        (conjecture_value(Fraction(2, 3)) - Fraction(10, 27)).approx(tol / 10)
    ) <= tol
    for k in range(3, 9):
        e = Fraction(k, k + 1)
        left = blowup_density(piece_model(k, e), K221)
        right = conjecture_value(e)
        knots_ok = knots_ok and abs((left - right).approx(tol / 10)) <= tol

    ok = anchors_ok and blowups_ok and cross_ok and knots_ok
    elapsed = time.perf_counter() - start
    _check(
        8,
        ok,
        "exact anchors, 30 cross-validation points and 7 knots within 1e-12",
        elapsed,
        60,
    )


def test_criterion_09_figure_reproduction():
    start = time.perf_counter()
    points = profile_table(0, 1, Fraction(1, 300))
    by_abscissa = {f"{float(p.e):.6f}": p.value for p in points}
    golden = load_golden("profile_curve.golden")
    tol = Fraction(1, 10**5)
    matched = 0
    worst = Fraction(0)
    for e_str, v_str in golden.profile_rows:
        key = f"{float(Fraction(e_str)):.6f}"
        assert key in by_abscissa, f"abscissa {e_str} not on the 1/300 grid"
        diff = abs(
            by_abscissa[key].approx(Fraction(1, 10**12)) - Fraction(v_str)
        )
        worst = max(worst, diff)
        matched += 1
    spots = {
        ("0.666667", "0.370370"),
        ("0.740000", "0.344944"),
        ("0.750000", "0.351562"),
        ("0.800000", "0.288000"),
    }
    spots_ok = spots <= set(golden.profile_rows)
    ok = matched == 201 and worst <= tol and spots_ok
    elapsed = time.perf_counter() - start
    _check(
        9,
        ok,
        f"{matched} figure coordinates matched, worst gap {float(worst):.2e}",
        elapsed,
        30,
    )


def test_criterion_10_conclusion_arithmetic():
    start = time.perf_counter()
    threshold = Fraction(4495, 100) / 128
    first_max = Fraction(10, 27)
    second_max = conjecture_value(Fraction(3, 4)).as_fraction()
    ok = (
        first_max > threshold
        and second_max == Fraction(45, 128)
        and second_max > threshold
    )
    elapsed = time.perf_counter() - start
    _check(
        10,
        ok,
        "10/27 and 45/128 both exceed the certified ceiling 44.95/128",
        elapsed,
        5,
    )
