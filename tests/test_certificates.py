"""Certificate parsing, verification, goldens, and soundness checks."""

import hashlib
import importlib
import io
import pkgutil
import random
import sys
import zlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import flagcert
from flagcert import certificates, flags, graphs
from flagcert.certificates import (
    _largest_root,
    _psd_failure,
    _ray_problem,
    certificate_expansion,
    compare_with_golden,
    load_certificate,
    load_golden,
    parse_certificate,
    parse_golden,
    verify_certificate,
    verify_density_certificate,
    verify_parametric_certificate,
)
from flagcert.constructions import BlowupModel, blowup_density, model_value
from flagcert.cli import main
from flagcert.exactmath import KPolynomial, RationalFunction
from flagcert.flags import Flag, lift
from flagcert.graphs import (
    SmallGraph,
    _reversed,
    complete,
    emit_paircode,
    enumerate_graphs,
    parse_paircode,
    turan,
)

K221 = turan(3, 5)


def _bundled_text(name: str) -> str:
    from importlib import resources

    return (
        resources.files("flagcert").joinpath("certs").joinpath(name).read_text()
    )


# ---------------------------------------------------------------------------
# parsing and loading


def test_load_bundled_by_basename_and_text():
    a = load_certificate("k3.cert")
    b = parse_certificate(_bundled_text("k3.cert"))
    assert a == b
    assert a.kind == "numeric"
    assert a.scale == 27 and a.bound == 10 and not a.strict


def test_load_missing_certificate():
    with pytest.raises(FileNotFoundError):
        load_certificate("no-such-file.cert")


@pytest.mark.parametrize(
    "source",
    [
        _bundled_text("k3.cert"),  # document text is not a source
        "k3",
        "/no-such-dir/k3.cert",  # a directory part makes it a path
        "no-such-dir/k3.cert",
        "",
    ],
)
def test_load_reads_only_a_path_or_a_bare_bundled_name(source):
    with pytest.raises(FileNotFoundError, match="not a bundled name"):
        load_certificate(source)
    with pytest.raises(FileNotFoundError, match="not a bundled name"):
        load_golden(source.replace("k3.cert", "appendixC.golden"))


def test_load_reads_an_existing_path_first(tmp_path):
    path = tmp_path / "k3.cert"  # shadows the bundled name only as a path
    path.write_text(_bundled_text("k4.cert"))
    assert load_certificate(path) == load_certificate(str(path))
    assert load_certificate(path).name == "k4"
    assert load_certificate("k3.cert").name == "k3"


def test_bundled_certificates_parse():
    k3 = load_certificate("k3.cert")
    assert k3.expansion_order == 6
    assert len(k3.square_terms) == 2
    assert k3.square_terms[0].labels == 0 and k3.square_terms[1].labels == 2

    k4 = load_certificate("k4.cert")
    assert k4.scale == 128 and k4.bound == 45 and not k4.strict
    assert k4.target.canonical_form() == K221.canonical_form()
    assert len(k4.linear_terms) == 1 and len(k4.square_terms) == 1

    lem = load_certificate("lemma074.cert")
    assert lem.scale == 128 and lem.bound == Fraction(4495, 100)
    assert lem.strict
    assert lem.alt_bound == Fraction(4494, 100)
    assert len(lem.square_terms) == 3

    par = load_certificate("appendixA.cert")
    assert par.parametric and par.k0 == 5
    assert par.expansion_order == 5
    assert len(par.square_terms) == 2


def test_decimal_coefficients_parse_exactly():
    lem = load_certificate("lemma074.cert")
    # the linear factor carries the edge-density pin as an exact rational
    (term,) = lem.linear_terms
    consts = [c for c, g in term.factor if g is None]
    assert consts == [Fraction(-37, 50)]
    multipliers = [st.multiplier for st in lem.square_terms]
    assert multipliers == [
        Fraction(14509, 1000),
        Fraction(6822, 1000),
        Fraction(444, 1000),
    ]


def test_parse_rejects_malformed():
    good = _bundled_text("k4.cert")
    with pytest.raises(ValueError):
        parse_certificate(good.replace("kind: numeric", "kind: mystery"))
    with pytest.raises(ValueError):
        parse_certificate(good + "\nbogus-key: 1\n")
    # drop the target line entirely
    broken = "\n".join(
        l for l in good.splitlines() if not l.startswith("target:")
    )
    with pytest.raises(ValueError, match="^missing header key 'target'$"):
        parse_certificate(broken)  # a missing header key names no line
    # asymmetric matrix
    with pytest.raises(ValueError):
        parse_certificate(good.replace("row: 12 ; 41 ; -94", "row: 13 ; 41 ; -94"))


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("kind: numeric", "kind: mystery", 6, "kind must be numeric or parametric"),
        ("expansion-order: 5", "expansion-order: five", 7, "invalid literal"),
        ("bound: 45", "bound: 1/0", 11, ""),
        ("strict: no", "strict: no\nbogus: 1", 13, "unknown key 'bogus' in header"),
        ("strict: no", "strict: no\nscale: 1", 13, "duplicate key 'scale'"),
        ("strict: no", "strict: no\nend", 13, "end without begin"),
        ("strict: no", "strict: no\nno colon here", 13, "expected 'key: value'"),
        ("begin linear", "begin cubic", 15, "unknown block kind 'cubic'"),
        ("factor: 1 * 2 ;", "factor: 1 * 2 ; 1 * 2 2 2 ;", 15, "one order per side"),
        ("factor: 1 * 2 ;", "factor: 1 * 2 2 2 2 2 2 ;", 15, "exceeds the expansion order"),
        ("begin square", "begin square\nbegin square", 23, "nested begin"),
        ("labels: 3", "labels: three", 23, "invalid literal"),
        ("type: 1 2 2", "type: 1 2 2 2 2 2", 24, "type order does not match labels"),
        ("type: 1 2 2", "type: 2 2 2", 24, "does not carry the declared type"),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41 ; x", 28, "x"),
        (
            "flags: 1 2 1 2 1 2 ; 1 2 2 2 2 2 ; 1 2 2 2 2 1",
            "flags: 1 2 1 2 1 2 ; 1 2 2 2 2 2 ; 1 2 1 2 1 2",
            22,
            "square flags are not pairwise distinct",
        ),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41", 22, "matrix is not square"),
        ("row: 12 ; 41 ; -94", "row: 13 ; 41 ; -94", 22, "matrix is not symmetric"),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41 ; -94\npsd-condition: [1]", 29, "parametric kind"),
        ("row: -115 ; -94 ; 303\nend", "row: -115 ; -94 ; 303", 22, "unterminated block"),
        ("strict: no", "strict: no\nk0: 3", 13, "k0 only applies to parametric kind"),
    ],
)
def test_parse_errors_name_their_line(old, new, line, message):
    # line numbers are those of k4.cert
    good = _bundled_text("k4.cert")
    assert good.count(old) == 1
    with pytest.raises(ValueError, match=f"^certificate line {line}: ") as info:
        parse_certificate(good.replace(old, new))
    assert message in str(info.value)


def test_parametric_literals_rejected_in_numeric_kind():
    good = _bundled_text("k4.cert")
    with pytest.raises(ValueError):
        parse_certificate(good.replace("multiplier: 15/256", "multiplier: [0, 1]"))


# ---------------------------------------------------------------------------
# numeric verification


def test_k3_verifies():
    report = verify_certificate(load_certificate("k3.cert"))
    assert report.passed
    assert report.max_coefficient == 10
    assert all(c <= 10 for c in report.coefficients.values())
    assert emit_paircode(complete(3).canonical_form()) not in report.zero_set
    assert len(report.coefficients) == 156


def test_k4_verifies():
    report = verify_certificate(load_certificate("k4.cert"))
    assert report.passed
    assert report.max_coefficient == 45
    assert all(c <= 45 for c in report.coefficients.values())
    k221_code = emit_paircode(K221.canonical_form())
    assert k221_code in report.zero_set
    assert len(report.coefficients) == 34


def test_lemma074_verifies_strictly():
    report = verify_certificate(load_certificate("lemma074.cert"))
    assert report.passed
    assert report.max_coefficient == Fraction(13167847077677, 292968750000)
    assert report.max_coefficient < Fraction(4495, 100)
    assert abs(report.max_coefficient - Fraction(44947, 1000)) <= Fraction(1, 1000)
    # strict bound: nothing attains it
    assert report.zero_set == ()
    assert any("44.94" in n for n in report.notes)


def test_strictness_enforced():
    text = _bundled_text("k4.cert")
    # same data but strict: the tight graphs now fail
    strict = parse_certificate(text.replace("strict: no", "strict: yes"))
    report = verify_density_certificate(strict)
    assert not report.passed


def test_broken_multiplier_fails():
    text = _bundled_text("lemma074.cert").replace(
        "multiplier: 14.509", "multiplier: 0"
    )
    report = verify_density_certificate(parse_certificate(text))
    assert not report.passed
    assert report.max_coefficient > Fraction(4495, 100)



# Soundness mutants: one coefficient without slack, nudged.  k3 and k4
# meet their bounds exactly (max scaled coefficient 10 and 45), so moving
# a square multiplier by about one part in a million either way pushes
# some coefficient over.  lemma074 clears its strict bound 44.95 by about
# 0.0037, which one unit in the last printed digit of a multiplier uses up.
SOUNDNESS_MUTANTS = [
    ("k3.cert", "multiplier: 20/9", "multiplier: 2000001/900000"),
    ("k3.cert", "multiplier: 20/9", "multiplier: 1999999/900000"),
    ("k4.cert", "multiplier: 15/256", "multiplier: 15000001/256000000"),
    ("k4.cert", "multiplier: 15/256", "multiplier: 14999999/256000000"),
    ("lemma074.cert", "multiplier: 14.509", "multiplier: 14.510"),
    ("lemma074.cert", "multiplier: 0.444", "multiplier: 0.445"),
    ("lemma074.cert", "multiplier: 0.444", "multiplier: 0.443"),
]


@pytest.mark.parametrize("name,old,new", SOUNDNESS_MUTANTS)
def test_nudged_coefficient_fails(name, old, new, capsys, monkeypatch):
    text = _bundled_text(name)
    assert text.count(old) == 1
    mutant = text.replace(old, new)
    report = verify_density_certificate(parse_certificate(mutant))
    assert report.verdict == "FAIL"
    assert any("violates" in f for f in report.failures)
    monkeypatch.setattr(sys, "stdin", io.StringIO(mutant))
    assert main(["verify", "--cert", "-"]) == 1
    assert "\nverdict=FAIL\n" in capsys.readouterr().out

def test_negative_multiplier_refutes():
    # a FAIL line of the verdict path, as in a parametric certificate,
    text = _bundled_text("k3.cert").replace(
        "multiplier: 20/9", "multiplier: -20/9"
    )
    report = verify_certificate(parse_certificate(text))
    assert "square term 1 multiplier: -20/9 is negative" in report.failures
    # also if a Certificate is doctored after loading
    cert = load_certificate("k3.cert")
    doctored = cert._replace(
        square_terms=(
            cert.square_terms[0]._replace(multiplier=Fraction(-1)),
        ) + cert.square_terms[1:],
    )
    report = verify_density_certificate(doctored)
    assert not report.passed
    assert any("multiplier" in f for f in report.failures)


# A numeric block B M B^T is PSD when its declared M is, and M is what the
# verifier decides.  Each case appends one multiplier-0 block to k4, so the
# verdict turns on M alone.  The last M is indefinite although B M B^T
# (B's first two rows equal, its third zero) is PSD: it fails all the same.
@pytest.mark.parametrize(
    "rows, congruence, failures",
    [
        ("1 ; 0|0 ; 1", "1 ; 0|0 ; 1|1 ; 1", ()),
        ("1 ; 0|0 ; -1", "1 ; 0|0 ; 1|1 ; 1", ("square term 1: matrix is not PSD",)),
        ("1 ; 0|0 ; -1", "1 ; 0|1 ; 0|0 ; 0", ("square term 1: matrix is not PSD",)),
    ],
)
def test_numeric_congruence_block_checks_the_declared_matrix(rows, congruence, failures):
    body = "".join(f"row: {r}\n" for r in rows.split("|")) + "".join(
        f"congruence-row: {r}\n" for r in congruence.split("|")
    )
    text = _bundled_text("k4.cert") + (
        "begin square\nlabels: 3\ntype: 1 2 2\nmultiplier: 0\n"
        f"flags: 1 2 1 2 1 2 ; 1 2 2 2 2 2 ; 1 2 2 2 2 1\n{body}end\n"
    )
    report = verify_density_certificate(parse_certificate(text))
    assert report.failures == failures


# ---------------------------------------------------------------------------
# parametric verification


def test_parametric_passes_at_declared_base():
    cert = load_certificate("appendixA.cert")
    report = verify_certificate(cert)  # defaults to the declared k0 = 5
    assert report.passed and report.k0 == 5
    assert len(report.zero_set) == 8
    assert len(report.coefficients) == 34
    assert report.psd_condition_root is not None
    assert abs(report.psd_condition_root - Fraction(4113060, 10**6)) < Fraction(
        2, 10**6
    )


def test_parametric_fails_below_psd_root():
    report = verify_certificate(load_certificate("appendixA.cert"), k0=4)
    assert not report.passed
    assert len(report.failures) == 1
    assert "psd condition polynomial" in report.failures[0]
    assert "63*k^6" in report.failures[0]


def test_parametric_rational_base_points():
    cert = load_certificate("appendixA.cert")
    assert verify_certificate(cert, k0=Fraction(9, 2)).passed
    assert not verify_certificate(cert, k0=Fraction(41, 10)).passed


def test_parametric_fails_far_below_base():
    # no special-casing of small rays: everything negative gets reported
    cert = load_certificate("appendixA.cert")
    report = verify_parametric_certificate(cert, k0=2)
    assert not report.passed
    assert len(report.failures) > 1


def test_kind_dispatch_guards():
    with pytest.raises(ValueError):
        verify_parametric_certificate(load_certificate("k3.cert"))
    with pytest.raises(ValueError):
        verify_density_certificate(load_certificate("appendixA.cert"))
    with pytest.raises(ValueError, match="parametric"):
        verify_certificate(load_certificate("k4.cert"), k0=100)


# ---------------------------------------------------------------------------
# parametric matrix blocks: one pivoted LDL^T over Q(k)
#
# Each test appends one square block with multiplier 0 to appendixA: the
# expansion is unchanged, so the verdict turns on the block's PSD check.

THREE_FLAGS = "1 1 2 1 2 2 ; 1 1 1 1 1 1 ; 1 1 2 1 1 1"


def _lit(p) -> str:
    """A KPolynomial as an ascending coefficient-list literal."""
    return "[" + ",".join(str(c) for c in p.coeffs) + "]" if p else "0"


def _appendix_with_block(flags: str, body: str) -> str:
    return _bundled_text("appendixA.cert") + (
        f"begin square\nlabels: 3\ntype: 1 1 1\nmultiplier: 0\nflags: {flags}\n"
        f"{body}end\n"
    )


def _matrix_body(rows) -> str:
    return "".join("row: " + " ; ".join(map(str, r)) + "\n" for r in rows)


@pytest.mark.parametrize(
    "row, failures",
    [("1", ()), ("-1", ("square term 2: matrix is not PSD on [5, oo)",))],
)
def test_parametric_1x1_block(row, failures):
    text = _appendix_with_block("1 1 2 1 2 2", f"row: {row}\n")
    report = verify_certificate(parse_certificate(text))
    assert report.failures == failures


def test_parametric_3x3_gram_block_passes():
    # the Gram matrix of (k, 1), (1, 0), (0, 1): PSD of rank 2 for every k
    rows = [["[1,0,1]", "[0,1]", 1], ["[0,1]", 1, 0], [1, 0, 1]]
    text = _appendix_with_block(THREE_FLAGS, _matrix_body(rows))
    assert verify_certificate(parse_certificate(text)).passed


def _ldlt_rows(pivots):
    """L diag(pivots) L^T for a fixed unit lower-triangular L over Z[k]."""
    k = KPolynomial([0, 1])
    one, zero = KPolynomial([1]), KPolynomial([])
    lower = [[one, zero, zero], [k, one, zero], [one, KPolynomial([2]), one]]
    return [
        [
            sum((lower[i][t] * pivots[t] * lower[j][t] for t in range(3)), zero)
            for j in range(3)
        ]
        for i in range(3)
    ]


# (10k - 51)(5k - 26): positive at k0 = 5 and from 26/5 on, negative between
DIP = KPolynomial([-51, 10]) * KPolynomial([-26, 5])


@pytest.mark.parametrize("slot", [1, 2])
def test_parametric_3x3_pivot_dipping_below_zero_fails(slot):
    sp = pytest.importorskip("sympy")
    pivots = [KPolynomial([1])] * 3
    pivots[slot] = DIP
    rows = _ldlt_rows(pivots)
    # the mutant really is indefinite just beyond k0
    at = Fraction(103, 20)
    assert not sp.Matrix(
        [[sp.Rational(str(p(at))) for p in r] for r in rows]
    ).is_positive_semidefinite
    text = _appendix_with_block(
        THREE_FLAGS, _matrix_body([[_lit(p) for p in r] for r in rows])
    )
    report = verify_certificate(parse_certificate(text))
    assert report.failures == ("square term 2: matrix is not PSD on [5, oo)",)
    # the same block is PSD once the ray starts past the dip
    assert verify_certificate(parse_certificate(text), k0=Fraction(26, 5)).passed


def test_parametric_matrix_entry_pole_fails():
    rows = [[1, "[1]/[-6,1]"], ["[1]/[-6,1]", 1]]
    text = _appendix_with_block("1 1 2 1 2 2 ; 1 1 1 1 1 1", _matrix_body(rows))
    report = verify_certificate(parse_certificate(text))
    assert report.failures == ("square term 2: matrix entry has a pole on [5, oo)",)


def test_psd_condition_on_vector_block_fails():
    text = _appendix_with_block(
        "1 1 2 1 2 2 ; 1 1 1 1 1 1",
        "vector: 1 ; 2\npsd-condition: [1]\npsd-condition-factor: 1\n",
    )
    report = verify_certificate(parse_certificate(text))
    assert report.failures == ("square term 2: psd-condition requires a 2x2 matrix",)


@pytest.mark.parametrize(
    "condition, rows, root",
    [
        # a root-free condition after block 1 must not hide block 1's root
        ("[1]", [[1, 0], [0, 1]], Fraction(4113060, 10**6)),
        ("[-9/2,1]", [["[-9/2,1]", 0], [0, 1]], Fraction(9, 2)),
    ],
)
def test_psd_condition_root_is_the_largest_over_blocks(condition, rows, root):
    text = _appendix_with_block(
        "1 1 2 1 2 2 ; 1 1 1 1 1 1",
        _matrix_body(rows) + f"psd-condition: {condition}\npsd-condition-factor: 1\n",
    )
    report = verify_certificate(parse_certificate(text))
    assert report.passed
    assert abs(report.psd_condition_root - root) < Fraction(2, 10**6)
    assert f"psd condition largest root: ~{float(report.psd_condition_root):.9f}" in (
        report.lines()
    )


def test_psd_condition_failure_is_the_only_line_for_its_block():
    # below the condition's largest root the P line names the failure
    report = verify_certificate(load_certificate("appendixA.cert"), k0=3)
    square_1 = [f for f in report.failures if f.startswith("square term 1")]
    assert len(square_1) == 1 and "psd condition polynomial" in square_1[0]


int_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(KPolynomial)
linear_int_polys = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(
    KPolynomial
)


@st.composite
def polynomial_matrices(draw):
    """Symmetric 2x2 and 3x3 matrices over Z[k] with entries of degree <= 2.

    A Gram matrix B B^T with B over Z[k] of degree <= 1 is PSD at every k;
    shifting one of its diagonal entries may leave the cone; a plain
    symmetric matrix is either.
    """
    n = draw(st.integers(2, 3))
    zero = KPolynomial([])
    if draw(st.booleans()):
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(int_polys)
        return rows
    r = draw(st.integers(1, n))
    b = [[draw(linear_int_polys) for _ in range(r)] for _ in range(n)]
    rows = [
        [sum((b[i][t] * b[j][t] for t in range(r)), zero) for j in range(n)]
        for i in range(n)
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i][i] = rows[i][i] + draw(int_polys)
    return rows


@given(
    polynomial_matrices(),
    st.fractions(min_value=-4, max_value=8, max_denominator=4),
    st.lists(
        st.fractions(min_value=0, max_value=20, max_denominator=10),
        min_size=5,
        max_size=5,
    ),
)
def test_parametric_psd_verdict_matches_sympy_on_the_ray(rows, k0, offsets):
    sp = pytest.importorskip("sympy")
    entries = [[RationalFunction(p) for p in r] for r in rows]
    if _psd_failure(entries, lambda d: _ray_problem(d, k0) is None, "") is not None:
        return
    for dk in offsets:
        at = k0 + dk
        m = sp.Matrix([[sp.Rational(str(p(at))) for p in r] for r in rows])
        assert m.is_positive_semidefinite, (rows, k0, at)


# ---------------------------------------------------------------------------
# goldens


def test_deficit_roots_are_isolated_only_when_read(monkeypatch):
    calls = []
    isolate = certificates._largest_root
    monkeypatch.setattr(
        certificates, "_largest_root", lambda p: calls.append(p) or isolate(p)
    )
    cert = load_certificate("appendixA.cert")
    report = verify_certificate(cert)
    assert calls == [t.psd_condition for t in cert.square_terms if t.psd_condition]
    del calls[:]
    golden = load_golden("appendixC.golden")
    assert compare_with_golden(report, golden) == []
    assert calls == [poly for poly, _, _ in golden.polynomial_rows]
    assert len(calls) == 26
    del calls[:]
    numeric = verify_certificate(load_certificate("lemma074.cert"))
    assert compare_with_golden(numeric, load_golden("appendixB.golden")) == []
    assert calls == []


def test_goldens_load():
    b = load_golden("appendixB.golden")
    assert b.label == "lemma074" and len(b.coefficient_rows) == 155
    c = load_golden("appendixC.golden")
    assert c.label == "appendixA"
    assert len(c.polynomial_rows) == 26 and len(c.zero_codes) == 8
    p = load_golden("profile_curve.golden")
    assert p.label == "profile" and len(p.profile_rows) == 201


def test_lemma074_matches_golden():
    report = verify_certificate(load_certificate("lemma074.cert"))
    golden = load_golden("appendixB.golden")
    assert compare_with_golden(report, golden) == []


def test_parametric_matches_golden():
    report = verify_certificate(load_certificate("appendixA.cert"))
    golden = load_golden("appendixC.golden")
    assert compare_with_golden(report, golden) == []


def test_golden_detects_coefficient_drift():
    report = verify_certificate(load_certificate("lemma074.cert"))
    golden = load_golden("appendixB.golden")
    value, code = golden.coefficient_rows[0]
    doctored = golden._replace(
        coefficient_rows=((value + Fraction(3, 1000), code),)
        + golden.coefficient_rows[1:],
    )
    mismatches = compare_with_golden(report, doctored)
    assert len(mismatches) == 1 and code in mismatches[0]


def test_golden_detects_zero_set_drift():
    report = verify_certificate(load_certificate("appendixA.cert"))
    golden = load_golden("appendixC.golden")
    doctored = golden._replace(zero_codes=golden.zero_codes[:-1])
    assert compare_with_golden(report, doctored)
    doctored2 = golden._replace(zero_codes=golden.zero_codes + ("2 2 2",))
    assert compare_with_golden(report, doctored2)


def test_golden_detects_root_drift():
    report = verify_certificate(load_certificate("appendixA.cert"))
    golden = load_golden("appendixC.golden")
    poly, code, root = golden.polynomial_rows[0]
    doctored = golden._replace(
        polynomial_rows=((poly, code, root + Fraction(1, 10**4)),)
        + golden.polynomial_rows[1:],
    )
    assert compare_with_golden(report, doctored)


def test_golden_requires_label():
    with pytest.raises(ValueError):
        parse_golden("1 | 2 2 2\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("golden: x\n1/2\n", 2),
        ("golden: x\n\n# c\nzero\n", 4),
        ("golden: x\n1 | 2 2 2\n[1,2] | 2 2 2\n", 3),
        ("golden: x\n[1,2] | 2 2 | 1/2\n", 2),
        ("golden: x\nabc | 2 2 2\n", 2),
        ("golden: profile\n0.5\n", 2),
    ],
)
def test_golden_row_errors_name_their_line(text, line):
    with pytest.raises(ValueError, match=f"^golden line {line}: "):
        parse_golden(text)


def test_golden_must_fit_the_report_kind():
    numeric = verify_certificate(load_certificate("k4.cert"))
    parametric = verify_certificate(load_certificate("appendixA.cert"))
    b = load_golden("appendixB.golden")
    c = load_golden("appendixC.golden")
    p = load_golden("profile_curve.golden")
    for report, golden in ((numeric, c), (numeric, p), (parametric, b), (parametric, p)):
        with pytest.raises(ValueError, match="is not a table of"):
            compare_with_golden(report, golden)
    mixed = c._replace(coefficient_rows=b.coefficient_rows)
    with pytest.raises(ValueError):
        compare_with_golden(parametric, mixed)


# ---------------------------------------------------------------------------
# structural invariants


def _random_models(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 5)
        base = SmallGraph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        raw = [rng.randint(1, 9) for _ in range(n)]
        out.append(BlowupModel(base, tuple(Fraction(x, sum(raw)) for x in raw)))
    return out


@pytest.mark.parametrize("name", ["k3.cert", "k4.cert", "lemma074.cert"])
def test_soundness_on_random_models(name):
    cert = load_certificate(name)
    report = verify_density_certificate(cert)
    assert report.passed
    expansion = certificate_expansion(cert)
    limit = Fraction(cert.bound, 1) / cert.scale
    # a fixed seed per certificate: str hashes change from process to process
    for model in _random_models(zlib.crc32(name.encode()), 10):
        assert model_value(model, expansion) <= limit


def test_parametric_soundness_on_random_models():
    # coefficients obey c_F <= bound on the ray, so any convex combination
    # of them does too; the linear terms themselves may go negative away
    # from their pinned density, so only the full combination is capped.
    cert = load_certificate("appendixA.cert")
    expansion = certificate_expansion(cert)
    for k in (Fraction(5), Fraction(7), Fraction(13, 2)):
        bound = cert.bound(k)
        for model in _random_models(23, 6):
            value = sum(
                (
                    c(k) * blowup_density(model, f.graph)
                    for f, c in expansion.items()
                ),
                Fraction(0),
            )
            assert value <= bound


def test_zeroed_certificate_is_lift_of_target():
    cert = load_certificate("k4.cert")
    gutted = cert._replace(
        linear_terms=(),
        square_terms=tuple(
            st._replace(multiplier=Fraction(0))
            for st in cert.square_terms
        ),
    )
    expansion = certificate_expansion(gutted)
    target = lift(
        _vector_of(cert.target, cert.target_coefficient), cert.expansion_order
    )
    emap = {f.canonical_bits(): c for f, c in expansion.items() if c}
    tmap = {f.canonical_bits(): c for f, c in target.items() if c}
    assert emap == tmap


def _vector_of(graph, coeff):
    from flagcert.flags import FlagVector

    v = FlagVector(0, graph.n)
    v.add(Flag(graph.canonical_form(), 0), coeff)
    return v


def test_lemma074_linear_term_vanishes_at_pinned_density():
    # weighted clique blowup with edge density exactly 0.74
    model = BlowupModel(
        complete(5),
        (
            Fraction(2, 5),
            Fraction(1, 5),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
        ),
    )
    edge_density = blowup_density(model, complete(2))
    assert edge_density == Fraction(37, 50)

    cert = load_certificate("lemma074.cert")
    linear_only = cert._replace(
        target_coefficient=Fraction(0),
        square_terms=tuple(
            st._replace(multiplier=Fraction(0))
            for st in cert.square_terms
        ),
    )
    assert model_value(model, certificate_expansion(linear_only)) == 0

    # at any other density the term is generically nonzero
    uniform = BlowupModel(complete(5), (Fraction(1, 5),) * 5)
    assert model_value(uniform, certificate_expansion(linear_only)) != 0


_K4_FACTOR = "factor: 1 * 2 ; -3/4 * const"
_SECOND_LINEAR = _K4_FACTOR + "\nend\nbegin linear\nvector: 1 * 2\n"


@pytest.mark.parametrize(
    "name, old, new, lines",
    [
        (  # c = 0: the term is -3/4 * vector on every graph
            "k4.cert",
            _K4_FACTOR,
            "factor: 0 * 2 ; -3/4 * const",
            [
                "linear term 0: factor does not depend on the edge density "
                "(coefficient -3/4 at the empty and the complete graph)",
            ],
        ),
        (  # c = -k: the term is nonpositive above e, not nonnegative
            "appendixA.cert",
            "[0,-1] * 1",
            "[0,1] * 1",
            ["linear term 0: factor slope RF(-k) is not positive on [5, oo)"],
        ),
        (  # an order-3 factor that only reads the triangle
            "k4.cert",
            _K4_FACTOR,
            _SECOND_LINEAR + "factor: 1 * 2 2 2 ; -1/2 * const",
            [
                "linear term 1: factor coefficient -1/2 at 1 1 2 is not -1/6, "
                "so the factor is not affine in the edge density",
                "linear term 1: factor coefficient -1/2 at 1 2 2 is not 1/6, "
                "so the factor is not affine in the edge density",
                "linear term 1: factor assumes edge density 1/2, linear term 0 assumes 3/4",
            ],
        ),
        (  # the same edge density at order 3 anchors
            "k4.cert",
            _K4_FACTOR,
            _SECOND_LINEAR + "factor: 1 * 2 2 2 ; 2/3 * 1 2 2 ; 1/3 * 1 1 2 ; -3/4 * const",
            [],
        ),
        (
            "appendixA.cert",
            "[0,-1] * 1",
            "[0,-1] * 1\nend\nbegin linear\nvector: 1 * 2 2 2\n"
            "factor: 1 * 2 ; [-3,2]/[0,1] * const",
            [
                "linear term 1: factor assumes edge density RF((-2*k + 3) / (k)), "
                "linear term 0 assumes RF((k - 1) / (k))",
            ],
        ),
    ],
)
def test_linear_factors_must_anchor_one_edge_density(name, old, new, lines):
    text = _bundled_text(name)
    assert text.count(old) == 1
    report = verify_certificate(parse_certificate(text.replace(old, new)))
    assert [f for f in report.failures if f.startswith("linear term")] == lines
    assert not lines or report.verdict == "FAIL"


# the one linear factor of each bundled certificate that has one, as
# (coefficient, code) entries; a coefficient is an ascending list of
# polynomial coefficients in k, of length 1 for the numeric kind
_LINEAR_FACTORS = {
    "k4": ("factor: 1 * 2 ; -3/4 * const", [([1], "2"), ([Fraction(-3, 4)], "const")]),
    "lemma074": (
        "factor: 1 * 2 ; -0.74 * const", [([1], "2"), ([Fraction(-37, 50)], "const")]
    ),
    "appendixA": ("factor: 1 * const ; [0,-1] * 1", [([1], "const"), ([0, -1], "1")]),
}
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def factor_mutants(draw):
    """(name, mutated entries): one coefficient perturbed or one entry added."""
    name = draw(st.sampled_from(sorted(_LINEAR_FACTORS)))
    entries = [(list(c), code) for c, code in _LINEAR_FACTORS[name][1]]
    width = 2 if name == "appendixA" else 1
    delta = draw(st.lists(_SMALL, min_size=width, max_size=width).filter(any))
    if draw(st.booleans()):
        coeff, _ = entries[draw(st.integers(0, len(entries) - 1))]
        coeff += [0] * (width - len(coeff))
        coeff[:] = [a + b for a, b in zip(coeff, delta)]
    else:
        entries.append((delta, draw(st.sampled_from(["1", "2"]))))
    return name, entries


def _literal(coeff, parametric):
    if parametric:
        return "[" + ",".join(str(Fraction(a)) for a in coeff) + "]"
    return str(Fraction(coeff[0]))


def _anchored_reference(entries, fo, parametric, k0):
    """Whether the factor is c * (edge density - e) with c > 0 (on the ray).

    Reads the factor's coefficient at every class H of order fo straight
    from the entries and checks f_H = f_empty + c * (edge density of H).
    """
    width = max(len(c) for c, _ in entries)

    def at(h):
        total = [Fraction(0)] * width
        for coeff, code in entries:
            g = None if code == "const" else parse_paircode(code)
            if g is None or g.canonical_form().mask == h.canonical_form().mask:
                total = [t + a for t, a in zip(total, coeff + [0] * width)]
        return total

    pairs = fo * (fo - 1) // 2
    values = {h.edge_count: at(h) for h in enumerate_graphs(fo)}
    f_empty = values[0]
    c = [a - b for a, b in zip(values[pairs], f_empty)]
    assert all(
        [(a - b) * pairs for a, b in zip(at(h), f_empty)]
        == [x * h.edge_count for x in c]
        for h in enumerate_graphs(fo)
    )  # at order 2 every factor is affine in the edge density
    if not any(c):
        return False
    if not parametric:
        return True
    c0, c1 = c  # a linear slope c0 + c1 k, positive on [k0, oo) or not
    return c1 > 0 and c0 + c1 * k0 > 0 or c1 == 0 and c0 > 0


@given(factor_mutants())
@example(("k4", [([1], "2"), ([Fraction(-3, 4)], "const"), ([-1], "2")]))
@example(("appendixA", [([1], "const"), ([0, 1], "1")]))
@example(("appendixA", [([1], "const"), ([0, -1], "1"), ([-1, 1], "2")]))
def test_linear_factor_mutants_fail_on_their_term_or_stay_anchored(mutant):
    name, entries = mutant
    line, _ = _LINEAR_FACTORS[name]
    text = _bundled_text(name + ".cert")
    assert text.count(line) == 1
    parametric = name == "appendixA"
    factor = "factor: " + " ; ".join(
        f"{_literal(coeff, parametric)} * {code}" for coeff, code in entries
    )
    cert = parse_certificate(text.replace(line, factor))
    report = verify_certificate(cert)
    linear = [f for f in report.failures if f.startswith("linear term")]
    (term,) = cert.linear_terms
    if _anchored_reference(entries, term.factor_order, parametric, cert.k0):
        assert linear == []
    else:
        assert linear and all(f.startswith("linear term 0: ") for f in linear)
        assert f"FAIL: {linear[0]}" in report.lines()



# ---------------------------------------------------------------------------
# frozen expansions

# sha256 of the full expansion of each bundled certificate, recorded before
# lift, unlabel and the pair expansions moved to one count table.  The text
# hashed is one line per isomorphism class of the expansion order, in
# canonical-code order:
#     "<canonical code> <coefficient>\n"
# where <canonical code> is the class's packed canonical code as a decimal
# integer (the canonical form's mask read backwards, graphs._reversed) and
# <coefficient> is str() of expansion.coefficient(...): "0" when the class
# is absent, a Fraction as "p/q", a RationalFunction as "RF(...)".
EXPANSION_DIGESTS = {
    "k3": "d8d21dbba45753caab3be6eebe0fda66186b6bfb3d900e0b70ac216e51503f51",
    "k4": "f4c909e96a84a48decb612bc8138a0fed4e05f21510441da8b6ce2efab271a53",
    "lemma074": "59c7cba112460879aca2494b2bf7001587bd89edaf8efdf7fe873dbf71a4c0e0",
    "appendixA": "0824f45277c21bdc6eebff3a29444cf289bb9d2c947220b20f4f6e18ce1cd1ac",
}


@pytest.mark.parametrize("name", sorted(EXPANSION_DIGESTS))
def test_certificate_expansions_are_frozen(name):
    cert = load_certificate(name + ".cert")
    expansion = certificate_expansion(cert)
    l = cert.expansion_order
    text = "".join(
        f"{_reversed(g.mask, g.pair_count)} {expansion.coefficient(Flag(g, 0))}\n"
        for g in enumerate_graphs(l)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == EXPANSION_DIGESTS[name]


# ---------------------------------------------------------------------------
# frozen reports over a mutant corpus

# Each case is (bundled certificate, text replacements, k0 or None).  The
# corpus covers both kinds on their passing and failing branches: the
# bundle, each with its strictness flipped, appendixA on rays from 1/2 to
# 10 (poles, negative multipliers, the psd-condition root near 4.1131),
# the three k4 diagonal sign flips, and one nudge each of scale,
# target-coefficient, multiplier, bound and alt-bound.  appendixA with
# scale [4,-8,5] has deficits that are not polynomials; with square
# multiplier [-30,15]/[-6,1] it has a pole on the ray as well.
_FLIP_STRICT = {
    "k3": ("strict: no", "strict: yes"),
    "k4": ("strict: no", "strict: yes"),
    "lemma074": ("strict: yes", "strict: no"),
    "appendixA": ("strict: no", "strict: yes"),
}
_NUDGES = [
    ("k4", "scale: 128", "scale: 129"),
    ("k4", "target-coefficient: 1", "target-coefficient: 1.001"),
    ("k4", "multiplier: 15/256", "multiplier: 15000001/256000000"),
    ("k4", "bound: 45", "bound: 44.999"),
    ("lemma074", "alt-bound: 44.94", "alt-bound: 44.95"),
    ("lemma074", "alt-bound: 44.94", "alt-bound: 44.948"),
    ("appendixA", "scale: [4,-8,4]", "scale: [4,-8,5]"),
    ("appendixA", "target-coefficient: [0,0,0,0,1]", "target-coefficient: [0,0,0,1,1]"),
    ("appendixA", "bound: [30,-45,15]", "bound: [30,-45,14]"),
    ("appendixA", "multiplier: [-30,15]/[-1,1]", "multiplier: [-30,15]/[-6,1]"),
    ("appendixA", "multiplier: [-30,15]/[-1,1]", "multiplier: [-30,15]/[-2,1]"),
    ("appendixA", "vector: [30,-45,15] * 2 2 2", "vector: [30,-45,16] * 2 2 2"),
]
REPORT_CORPUS = {
    **{name: (name, (), None) for name in _FLIP_STRICT},
    **{name + "-strict-flipped": (name, (flip,), None) for name, flip in _FLIP_STRICT.items()},
    **{
        "appendixA-k0-" + k0: ("appendixA", (), k0)
        for k0 in ("1/2", "1", "2", "3", "4", "81/20", "41/10", "4111/1000", "9/2", "5", "10")
    },
    **{
        "k4-diag " + new: ("k4", ((old, new),), None)
        for old, new in (
            ("row: 91 ;", "row: -91 ;"),
            ("row: 12 ; 41 ;", "row: 12 ; -41 ;"),
            ("; -94 ; 303", "; -94 ; -303"),
        )
    },
    **{f"{name} {new}": (name, ((old, new),), None) for name, old, new in _NUDGES},
}

# sha256 of each case's report, recorded before the numeric and parametric
# verifiers became one path.  The text hashed is four sections, each
# followed by "--\n" except the last:
#     report.lines(), one per line;
#     "<code> <repr of coefficient>\n" per entry of report.coefficients;
#     "<code> <root>\n" per nonzero deficit of a parametric report that has
#     a real root, its largest to within 10^-9;
#     "; ".join(report.zero_set) + "\n".
REPORT_DIGESTS = {
    "k3": "ab3f318079a7868ff4c9f2682f060f82eaba6e8f1c166f401cfaed845715af12",
    "k3-strict-flipped": "fbcc2f0606eef0c4def4c70cd2bd4e2b96fe7581c22a102a8079fde16945090c",
    "k4": "08a0e549da9c3a53283a6e56f971511e3f765c0820793f6021789b10b5100107",
    "k4-strict-flipped": "e7e728c516bc7ac2449c5eda2b6111739fb51aa9164e57199d84aaa981438cc0",
    "lemma074": "2758adb4e8a530d488be3abb5cd4d3d147e55eb95a54f1b6d9ee90d6263e49b1",
    "lemma074-strict-flipped": "2758adb4e8a530d488be3abb5cd4d3d147e55eb95a54f1b6d9ee90d6263e49b1",
    "appendixA": "10ac0f9608cb4660de004d54d87709804a9db8bb6d3552a4e24fa28ba4405c9b",
    "appendixA-strict-flipped": "e065a11fb06a3a34b3726c0adf6f6e7a7936b66491547a9b98467734ecfe032c",
    "appendixA-k0-1/2": "760224fede44e45f71937c5f6f22805ad6467b9451c645207deff11daa62229b",
    "appendixA-k0-1": "1e2dfe1318822cf97473927a480836e3c17700921d1142643d13ec3038c4bcdd",
    "appendixA-k0-2": "3ed597469ab44bc1e02951b4ac170b32d7b2c48f06a56e08486c05199abe2a47",
    "appendixA-k0-3": "6171986304935fc9361f3a94f02143fa512834e10cf2edd1ca7e3e4ff57cc5ec",
    "appendixA-k0-4": "8d77cea7d6c9a3cfcd0895e7ec870cf6945b5d65c48b6c8f95759fe2680b9458",
    "appendixA-k0-81/20": "0650f5eb819108b870a47edae2fd14a68708cec1f91ae8d2818ddc4912b2d923",
    "appendixA-k0-41/10": "1551b71dce54ac3e4d8dca004f2dec5f38dafb46a40ba2455151ed57a2137a40",
    "appendixA-k0-4111/1000": "f45c4e6d3895a101e3ba01184a59a0d067c2b2747654cba1eb1a66a5c22b6269",
    "appendixA-k0-9/2": "b0adedb22b4a07fdfa7c65bde5240033e7a7cdde34f55d7cf9344a2ac0db7634",
    "appendixA-k0-5": "10ac0f9608cb4660de004d54d87709804a9db8bb6d3552a4e24fa28ba4405c9b",
    "appendixA-k0-10": "cd5a866f5418cb86182951c34f3878149abdd1d64f39369ebe15557b52d5e169",
    "k4-diag row: -91 ;": "7a9f71f296f3749d773920e71e8c03f3222d4ad06ecebfc5b318382f30b7f6ce",
    "k4-diag row: 12 ; -41 ;": "30bac7a0fb431f5828f1ab99bd2eafa9dfbc43ce518961a7dd415016dcf82205",
    "k4-diag ; -94 ; -303": "9325528a40986aef11395abd38a04ea68cb6930d53899317b3b17865af74e4e4",
    "k4 scale: 129": "d8b046d0ce77a57b70f291be0e9e188f6058ef6c8fce8e50473b285c61b48184",
    "k4 target-coefficient: 1.001": "bbd1b2600750f676fa8ec20b7f55e29b32c53a72577b2fa59f2bf9dd5314d349",
    "k4 multiplier: 15000001/256000000": "df2c4a133f5cdc591a3230828a05fb10df8ab18e9837c60a86d38baae6a3f2bc",
    "k4 bound: 44.999": "2936a9f41942293a752d09533fb3b2ccbcd36654623446072ab3db3e76a3fc42",
    "lemma074 alt-bound: 44.95": "38742b86301a48fe4ceb75b09478c9b5619508655fb23fe67b9acebb076516ef",
    "lemma074 alt-bound: 44.948": "fc9d01ec22524cbb31d951e813b953e822d65acd1283a7b6fcc238b6adebb960",
    "appendixA scale: [4,-8,5]": "fa1146c62d01cc65dc50a61d761b1bb1e835ceb31f12d0957fe8310ca6c043fb",
    "appendixA target-coefficient: [0,0,0,1,1]": "996ffc2526c57350afb62bed6d01f0b62fbecb0aba7283438696a3c1a072071f",
    "appendixA bound: [30,-45,14]": "281a477f86bad7c8e97c7fc9ded64c56a98302f7e41517b002493f6f38302f33",
    "appendixA multiplier: [-30,15]/[-6,1]": "caf5f734f9d152c5d1514f0c1d911985de89a6cf2d7787830e044f1599789d76",
    "appendixA multiplier: [-30,15]/[-2,1]": "78f2e712f7d602c1e937cc4f361ae3c86071d7232583060595f23bb5ab8d03f4",
    "appendixA vector: [30,-45,16] * 2 2 2": "72c264b2ff16ae4f5302315f76ef9502b5c00c0ce921619caadca72c4e1f0b1c",
}


def _report_text(report) -> str:
    deficits = report.coefficients.items() if report.k0 is not None else ()
    roots = ((c, _largest_root(p)) for c, p in deficits if p)
    return (
        "\n".join(report.lines()) + "\n--\n"
        + "".join(f"{c} {v!r}\n" for c, v in report.coefficients.items()) + "--\n"
        + "".join(f"{c} {r}\n" for c, r in roots if r is not None)
        + "--\n" + "; ".join(report.zero_set) + "\n"
    )


def test_report_corpus_is_complete():
    assert sorted(REPORT_CORPUS) == sorted(REPORT_DIGESTS)


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_reports_are_frozen(case):
    name, replacements, k0 = REPORT_CORPUS[case]
    text = _bundled_text(name + ".cert")
    for old, new in replacements:
        assert text.count(old) == 1
        text = text.replace(old, new)
    report = verify_certificate(
        parse_certificate(text), k0=Fraction(k0) if k0 is not None else None
    )
    digest = hashlib.sha256(_report_text(report).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[case]


def test_count_table_cache_is_bounded_and_holds_the_bundle():
    table = flags._count_table
    assert table.cache_info().maxsize == flags.TABLE_CACHE_SIZE
    listing_caches = (graphs._min_code_cached, graphs._enumerate)
    for cache in (table,) + listing_caches:
        cache.cache_clear()
    for name, golden in (
        ("k3", None), ("k4", None), ("lemma074", "appendixB"), ("appendixA", "appendixC")
    ):
        report = verify_certificate(load_certificate(name + ".cert"))
        assert report.passed
        if golden:
            assert compare_with_golden(report, load_golden(golden + ".golden")) == []
    # every table, code and listing the bundle needs stays
    # cached: none is computed twice
    for cache in (table,) + listing_caches:
        info = cache.cache_info()
        assert info.currsize == info.misses <= info.maxsize
        assert info.hits > 0


@pytest.mark.parametrize("name", ["k3", "k4"])
def test_verify_searches_no_listed_class(name, monkeypatch):
    # a listed class is named by its mask, so verifying looks its
    # coefficient up by that mask: from cold caches, the only label-free
    # canonical search at the expansion order is of a parsed graph, which
    # may come in any labelling: k4's target, whose order is its expansion
    # order (k3's target is of lower order)
    for cache in (flags._count_table, graphs._min_code_cached, graphs._enumerate):
        cache.cache_clear()
    searched = []
    search = graphs._search

    def recorded(rows, fixed, best):
        searched.append((len(rows), fixed, graphs._induced_mask(rows, range(len(rows)))))
        search(rows, fixed, best)

    monkeypatch.setattr(graphs, "_search", recorded)
    cert = load_certificate(name + ".cert")
    assert verify_certificate(cert).passed
    order = cert.expansion_order
    at_order = [mask for n, fixed, mask in searched if (n, fixed) == (order, 0)]
    assert at_order == ([cert.target.mask] if cert.target.n == order else [])


def _package_caches():
    """Every lru_cache defined at module level in the package."""
    names = [m.name for m in pkgutil.iter_modules(flagcert.__path__)]
    modules = [importlib.import_module(f"flagcert.{name}") for name in names]
    return {
        f"{mod.__name__}.{attr}": value
        for mod in modules
        for attr, value in vars(mod).items()
        if hasattr(value, "cache_parameters") and value.__module__ == mod.__name__
    }


def test_every_cache_in_the_package_is_bounded():
    caches = _package_caches()
    assert {"flagcert.graphs._min_code_cached", "flagcert.flags._count_table"} <= set(caches)
    unbounded = [name for name, c in caches.items() if c.cache_parameters()["maxsize"] is None]
    assert unbounded == []
