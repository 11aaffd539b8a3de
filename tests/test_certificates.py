"""Certificate parsing, verification, goldens, and soundness checks."""

import dataclasses
import hashlib
import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcert import flags
from flagcert.certificates import (
    _psd_failure,
    _ray_problem,
    certificate_expansion,
    compare_with_golden,
    load_certificate,
    load_golden,
    parse_certificate,
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
    _enumerate_unchecked,
    complete,
    emit_paircode,
    mask_to_code_bits,
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
    b = load_certificate(_bundled_text("k3.cert"))
    assert a == b
    assert a.kind == "numeric"
    assert a.scale == 27 and a.bound == 10 and not a.strict


def test_load_missing_certificate():
    with pytest.raises(FileNotFoundError):
        load_certificate("no-such-file.cert")


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
        ("multiplier: 15/256", "multiplier: -15/256", 25, "negative square multiplier"),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41 ; x", 28, "x"),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41", 22, "matrix is not square"),
        ("row: 12 ; 41 ; -94", "row: 13 ; 41 ; -94", 22, "matrix is not symmetric"),
        ("row: 12 ; 41 ; -94", "row: 12 ; 41 ; -94\npsd-condition: [1]", 29, "parametric kind"),
        ("row: -115 ; -94 ; 303\nend", "row: -115 ; -94 ; 303", 22, "unterminated block"),
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

def test_negative_multiplier_rejected():
    # rejected at load time,
    text = _bundled_text("k3.cert").replace(
        "multiplier: 20/9", "multiplier: -20/9"
    )
    with pytest.raises(ValueError):
        parse_certificate(text)
    # and reported if a Certificate is doctored after loading
    cert = load_certificate("k3.cert")
    doctored = dataclasses.replace(
        cert,
        square_terms=(
            dataclasses.replace(cert.square_terms[0], multiplier=Fraction(-1)),
        ) + cert.square_terms[1:],
    )
    report = verify_density_certificate(doctored)
    assert not report.passed
    assert any("multiplier" in f for f in report.failures)


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
    doctored = dataclasses.replace(
        golden,
        coefficient_rows=((value + Fraction(3, 1000), code),)
        + golden.coefficient_rows[1:],
    )
    mismatches = compare_with_golden(report, doctored)
    assert len(mismatches) == 1 and code in mismatches[0]


def test_golden_detects_zero_set_drift():
    report = verify_certificate(load_certificate("appendixA.cert"))
    golden = load_golden("appendixC.golden")
    doctored = dataclasses.replace(golden, zero_codes=golden.zero_codes[:-1])
    assert compare_with_golden(report, doctored)
    doctored2 = dataclasses.replace(
        golden, zero_codes=golden.zero_codes + ("2 2 2",)
    )
    assert compare_with_golden(report, doctored2)


def test_golden_detects_root_drift():
    report = verify_certificate(load_certificate("appendixA.cert"))
    golden = load_golden("appendixC.golden")
    poly, code, root = golden.polynomial_rows[0]
    doctored = dataclasses.replace(
        golden,
        polynomial_rows=((poly, code, root + Fraction(1, 10**4)),)
        + golden.polynomial_rows[1:],
    )
    assert compare_with_golden(report, doctored)


def test_golden_requires_label():
    with pytest.raises(ValueError):
        load_golden("1 | 2 2 2\n")


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
        load_golden(text)


def test_golden_must_fit_the_report_kind():
    numeric = verify_certificate(load_certificate("k4.cert"))
    parametric = verify_certificate(load_certificate("appendixA.cert"))
    b = load_golden("appendixB.golden")
    c = load_golden("appendixC.golden")
    p = load_golden("profile_curve.golden")
    for report, golden in ((numeric, c), (numeric, p), (parametric, b), (parametric, p)):
        with pytest.raises(ValueError, match="is not a table of"):
            compare_with_golden(report, golden)
    mixed = dataclasses.replace(c, coefficient_rows=b.coefficient_rows)
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
    for model in _random_models(hash(name) % 10**6, 10):
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
    gutted = dataclasses.replace(
        cert,
        linear_terms=(),
        square_terms=tuple(
            dataclasses.replace(st, multiplier=Fraction(0))
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
    linear_only = dataclasses.replace(
        cert,
        target_coefficient=Fraction(0),
        square_terms=tuple(
            dataclasses.replace(st, multiplier=Fraction(0))
            for st in cert.square_terms
        ),
    )
    assert model_value(model, certificate_expansion(linear_only)) == 0

    # at any other density the term is generically nonzero
    uniform = BlowupModel(complete(5), (Fraction(1, 5),) * 5)
    assert model_value(uniform, certificate_expansion(linear_only)) != 0


# ---------------------------------------------------------------------------
# frozen expansions

# sha256 of the full expansion of each bundled certificate, recorded before
# lift, unlabel and the pair expansions moved to one count table.  The text
# hashed is one line per isomorphism class of the expansion order, in
# canonical-code order:
#     "<canonical code> <coefficient>\n"
# where <canonical code> is the class's packed canonical code as a decimal
# integer (graphs.mask_to_code_bits of the canonical form) and
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
        f"{mask_to_code_bits(l, g.mask)} {expansion.coefficient(Flag(g, 0))}\n"
        for g in _enumerate_unchecked(l)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == EXPANSION_DIGESTS[name]


def test_count_table_cache_is_bounded_and_holds_the_bundle():
    table = flags._count_table
    assert table.cache_info().maxsize == flags.TABLE_CACHE_SIZE
    table.cache_clear()
    for name in ("k3", "k4", "lemma074", "appendixA"):
        assert verify_certificate(load_certificate(name + ".cert")).passed
    info = table.cache_info()
    # every table the bundle needs stays cached: none is built twice
    assert info.currsize == info.misses <= info.maxsize
    assert info.hits > 0
