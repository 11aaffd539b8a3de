"""Certificate parsing, verification, goldens, and soundness checks."""

import dataclasses
import hashlib
import io
import random
import sys
from fractions import Fraction

import pytest

from flagcert import flags
from flagcert.certificates import (
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
    with pytest.raises(ValueError):
        parse_certificate(broken)
    # asymmetric matrix
    with pytest.raises(ValueError):
        parse_certificate(good.replace("row: 12 ; 41 ; -94", "row: 13 ; 41 ; -94"))


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
