"""Contracts of the package's value types: how they are built, compared,
hashed and ordered, that they cannot be assigned to, and the messages
their validations raise."""

import copy
import functools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagcert.certificates import (
    Certificate,
    Golden,
    LinearTerm,
    SquareTerm,
    VerificationReport,
    load_certificate,
    verify_certificate,
)
from flagcert.constructions import BlowupModel, ProfilePoint, QuadExt
from flagcert.exactmath import KPolynomial, PSDResult, RationalFunction, RootBracket, SymMatrix
from flagcert.flags import Flag
from flagcert.graphs import SmallGraph, complete, empty
from flagcert.oracle import (
    DegreeLocalData,
    IdentityCheckReport,
    ScanReport,
    ScanViolation,
    SearchResult,
    TuranEquality,
)

HALF = Fraction(1, 2)

# (class, keyword arguments of one valid instance), one row per value type
VALUES = [
    (SmallGraph, dict(n=3, mask=5)),
    (RootBracket, dict(lower=Fraction(1), upper=Fraction(2))),
    (SymMatrix, dict(entries=((Fraction(1),),))),
    (PSDResult, dict(psd=False, perm=None, lower=None, diag=None, witness=(1,))),
    (Flag, dict(graph=complete(3), labels=2)),
    (LinearTerm, dict(vector=(), factor=(), vector_order=2, factor_order=2)),
    (
        SquareTerm,
        dict(
            labels=1, multiplier=Fraction(1), flags=(), vector=(1,), matrix=None,
            congruence=None, psd_condition=None, psd_condition_factor=None,
        ),
    ),
    (
        Certificate,
        dict(
            name="c", kind="numeric", expansion_order=5, target=complete(3),
            target_coefficient=1, scale=1, bound=1, strict=False, k0=None,
            alt_bound=None, note=None, linear_terms=(), square_terms=(),
        ),
    ),
    (
        VerificationReport,
        dict(
            name="c", kind="numeric", verdict="PASS", k0=None, coefficients={},
            max_coefficient=None, argmax=None, zero_set=(), psd_condition_root=None,
            failures=(), notes=(),
        ),
    ),
    (
        Golden,
        dict(
            label="g", coefficient_rows=(), polynomial_rows=(), zero_codes=(),
            profile_rows=(),
        ),
    ),
    (BlowupModel, dict(base=complete(2), weights=(HALF, HALF))),
    (ProfilePoint, dict(e=HALF, value=QuadExt(1))),
    (DegreeLocalData, dict(n=5, d_u=3, d_v=3, d_uv=1, i_uv=1)),
    (IdentityCheckReport, dict(max_order=3, graphs_checked=7, exceptions=())),
    (ScanViolation, dict(k=Fraction(3), n=4, d_u=1, d_v=2, d_uv=0, inequality="want")),
    (TuranEquality, dict(k=Fraction(3), n=3, d=Fraction(2), d_uv=Fraction(1), value=Fraction(1))),
    (
        ScanReport,
        dict(
            k_values=(Fraction(3),), n_max=4, triples_checked=1, violations=(),
            turan_equalities=(), substitution_disagreements=(),
        ),
    ),
    (
        SearchResult,
        dict(n=3, edge_count=None, max_count=1, density=Fraction(1), maximizers=("a",)),
    ),
]
IDS = [cls.__name__ for cls, _ in VALUES]


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_keyword_and_positional_constructors_agree(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_name, name) is value
        assert getattr(by_position, name) is value
    assert by_name == by_position


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields):
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is fields[name]


def test_defaults():
    assert Golden("g") == Golden("g", (), (), (), ())
    g = Golden(label="g")
    assert (g.coefficient_rows, g.polynomial_rows, g.zero_codes, g.profile_rows) == ((),) * 4
    p = PSDResult(True)
    assert (p.psd, p.perm, p.lower, p.diag, p.witness) == (True, None, None, None, None)
    assert PSDResult(psd=False) == PSDResult(False, None, None, None, None)


# ---------------------------------------------------------------------------
# the validated value types


def test_graph_values_equal_only_their_own_class():
    g, flag = SmallGraph(3, 5), Flag(SmallGraph(3, 5), 0)
    assert g == SmallGraph(3, 5) and hash(g) == hash(SmallGraph(3, 5))
    assert flag == Flag(SmallGraph(3, 5), 0) and hash(flag) == hash(Flag(SmallGraph(3, 5), 0))
    assert g != SmallGraph(3, 6) and g != SmallGraph(4, 5)
    assert flag != Flag(SmallGraph(3, 5), 1) and flag != Flag(SmallGraph(3, 6), 0)
    assert g != (3, 5) and flag != (g, 0)
    assert len({g, flag, (3, 5)}) == 3
    assert {SmallGraph(3, m) for m in (5, 5, 6)} == {SmallGraph(3, 5), SmallGraph(3, 6)}


def test_graphs_and_codes_order_by_their_fields():
    graphs = [SmallGraph(4, 1), SmallGraph(3, 7), SmallGraph(3, 0), SmallGraph(4, 0)]
    assert [(g.n, g.mask) for g in sorted(graphs)] == [(3, 0), (3, 7), (4, 0), (4, 1)]
    a, b = SmallGraph(3, 1), SmallGraph(3, 2)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or a > b)
    with pytest.raises(TypeError):
        SmallGraph(3, 1) < (3, 2)
    with pytest.raises(TypeError):
        Flag(a, 0) < Flag(b, 0)


COPIED = {
    **{
        cls.__name__: functools.partial(cls, **dict(VALUES)[cls])
        for cls in (SmallGraph, Flag, BlowupModel, DegreeLocalData)
    },
    "KPolynomial": lambda: KPolynomial([1, Fraction(-1, 2), 3]),
    "RationalFunction": lambda: RationalFunction(KPolynomial([1, 1]), KPolynomial([0, 2])),
    "QuadExt": lambda: QuadExt(HALF, 3, 8),
    "appendixA": lambda: load_certificate("appendixA.cert"),
    "appendixA-report": lambda: verify_certificate(load_certificate("appendixA.cert")),
}


@pytest.mark.parametrize("name", COPIED)
def test_validated_values_copy_and_pickle(name):
    value = COPIED[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
        if not isinstance(value, VerificationReport):  # its coefficients are a dict
            assert hash(twin) == hash(value)


def test_number_types_equal_to_a_rational_hash_as_it():
    k = KPolynomial([0, 1])
    assert QuadExt(1) == 1 and len({QuadExt(1), 1}) == 1
    assert KPolynomial([HALF]) == HALF and hash(KPolynomial([HALF])) == hash(HALF)
    assert RationalFunction(k) == k and hash(RationalFunction(k)) == hash(k)
    assert RationalFunction(0) == 0 and hash(RationalFunction(0)) == hash(0)
    assert len({KPolynomial([]), RationalFunction(0), Fraction(0), 0}) == 1
    # the two families meet at their constants, whatever the insertion order
    assert KPolynomial([]) == QuadExt(0) and QuadExt(HALF) == RationalFunction(HALF)
    assert len({KPolynomial([]), QuadExt(0), 0}) == len({0, KPolynomial([]), QuadExt(0)}) == 1
    assert QuadExt(0) != KPolynomial([0, 1]) and QuadExt(1, 1, 2) != KPolynomial([1])
    # no string equals a number, as no hash can match both
    for number in (KPolynomial([1]), QuadExt(1), RationalFunction(1)):
        assert number != "1" and "1" != number and len({number, "1"}) == 2


@pytest.mark.parametrize(
    "number",
    [KPolynomial([1]), QuadExt(1), RationalFunction(1)],
    ids=["KPolynomial", "QuadExt", "RationalFunction"],
)
def test_number_types_do_no_arithmetic_with_strings(number):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(number, "1")
        with pytest.raises(TypeError):
            op("1", number)


@pytest.mark.parametrize(
    "other", [KPolynomial([1]), RationalFunction(1)], ids=["KPolynomial", "RationalFunction"]
)
def test_quadext_does_no_arithmetic_with_polynomials(other):
    # equal constants compare equal, but the two families never mix in arithmetic
    assert QuadExt(1) == other
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(QuadExt(1), other)
        with pytest.raises(TypeError):
            op(other, QuadExt(1))


# small pools, so that values of different types often coincide
SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
POLYS = st.lists(SMALL, max_size=3).map(KPolynomial)
NUMBERS = st.one_of(
    st.integers(-2, 2),
    SMALL,
    POLYS,
    st.builds(RationalFunction, POLYS, POLYS.filter(bool)),
    st.builds(QuadExt, SMALL, SMALL, st.sampled_from([0, 2, 3, 4, HALF])),
    st.sampled_from(["0", "1", "1/2", "-2"]),
)


@given(st.lists(NUMBERS, min_size=2, max_size=6))
@example([KPolynomial([]), QuadExt(0), 0])  # the families meet only at constants
def test_equal_numbers_hash_equal_across_types(values):
    for a in values:
        for b in values:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
                for c in values:
                    assert b != c or a == c, (a, b, c)
    # so a set's size does not depend on the insertion order
    assert len(set(values)) == len(set(reversed(values)))


@pytest.mark.parametrize(
    "name, field", [("KPolynomial", "coeffs"), ("RationalFunction", "num"), ("QuadExt", "a")]
)
def test_arithmetic_values_refuse_assignment_and_deletion(name, field):
    value = COPIED[name]()
    kept = getattr(value, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, kept)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert getattr(value, field) is kept


def test_graph_values_repr_names_their_fields():
    assert repr(SmallGraph(3, 5)) == "SmallGraph(n=3, mask=5)"
    assert repr(Flag(SmallGraph(2, 1), 1)) == "Flag(graph=SmallGraph(n=2, mask=1), labels=1)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SmallGraph(3, 8), "edge mask has bits outside the upper triangle"),
        (lambda: SmallGraph(3, -1), "edge mask has bits outside the upper triangle"),
        (lambda: SmallGraph(10, 0), "order 10 outside 1..9"),
        (lambda: SmallGraph(0, 0), "order 0 outside 1..9"),
        (lambda: Flag(complete(3), 4), "label count 4 outside 0..3"),
        (lambda: Flag(complete(3), -1), "label count -1 outside 0..3"),
        (lambda: BlowupModel(complete(3), (HALF, HALF)), "one weight per base vertex required"),
        (lambda: BlowupModel(complete(2), (Fraction(3, 2), -HALF)), "negative weight"),
        (lambda: BlowupModel(complete(2), (QuadExt(0, -1, 2), QuadExt(1))), "negative weight"),
        (
            lambda: BlowupModel(complete(2), (HALF, Fraction(1, 3))),
            "weights sum to 5/6, not 1",
        ),
        (
            lambda: DegreeLocalData(n=5, d_u=0, d_v=3, d_uv=0, i_uv=0),
            "endpoint degrees must lie in 1..n-1",
        ),
        (
            lambda: DegreeLocalData(n=5, d_u=3, d_v=5, d_uv=0, i_uv=0),
            "endpoint degrees must lie in 1..n-1",
        ),
        (
            lambda: DegreeLocalData(n=5, d_u=4, d_v=4, d_uv=2, i_uv=0),
            "common-neighbour count out of range",
        ),
        (
            lambda: DegreeLocalData(n=5, d_u=3, d_v=3, d_uv=1, i_uv=-1),
            "edge-local count cannot be negative",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_blowup_models_and_degree_data_equal_only_their_own_class():
    model = BlowupModel(complete(2), (HALF, HALF))
    assert model == BlowupModel(complete(2), (HALF, HALF))
    assert hash(model) == hash(BlowupModel(complete(2), (HALF, HALF)))
    assert model != BlowupModel(empty(2), (HALF, HALF))
    assert model != (complete(2), (HALF, HALF))
    data = DegreeLocalData(5, 3, 3, 1, 1)
    assert data == DegreeLocalData(5, 3, 3, 1, 1) and hash(data) == hash(DegreeLocalData(5, 3, 3, 1, 1))
    assert data != DegreeLocalData(5, 3, 3, 1, 2) and data != (5, 3, 3, 1, 1)


def test_report_stays_frozen_without_a_dict():
    report = verify_certificate(load_certificate("appendixA.cert"))
    assert VerificationReport.__slots__ == () and not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.verdict = "FAIL"
    with pytest.raises(AttributeError):
        report.largest_roots = {}
    with pytest.raises(AttributeError):
        del report.verdict
    assert report.verdict == "PASS"
