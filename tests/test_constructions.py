"""Weighted-blowup densities, the quadratic-extension ring, and the profile curve."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcert.constructions import (
    BlowupModel,
    ProfilePoint,
    QuadExt,
    blowup_density,
    conjecture_value,
    model_value,
    piece_model,
    profile_csv,
    profile_table,
    rational_sqrt_bounds,
    turan_bound,
)
from flagcert.exactmath import KPolynomial
from flagcert.flags import Flag, FlagVector
from flagcert.graphs import (
    complete,
    count_induced,
    empty,
    parse_paircode,
    turan,
    union,
)

K221 = parse_paircode("2 2 2 1 1 2 2 2 2 2")

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10])


# ---------------------------------------------------------------------------
# the quadratic extension ring


def test_sqrt_bounds_bracket():
    for x in (Fraction(2), Fraction(6, 5), Fraction(1, 3), Fraction(49)):
        lo, hi = rational_sqrt_bounds(x, Fraction(1, 10**12))
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 10**12)
    assert rational_sqrt_bounds(Fraction(0), Fraction(1)) == (0, 0)
    with pytest.raises(ValueError):
        rational_sqrt_bounds(Fraction(-1), Fraction(1))


@pytest.mark.parametrize("err", [Fraction(0), Fraction(-1, 10**6)])
def test_sqrt_bounds_and_approx_refuse_a_nonpositive_error(err):
    # neither may loop: no finite scale reaches a bound <= 0
    with pytest.raises(ValueError, match="is not positive"):
        rational_sqrt_bounds(Fraction(2), err)
    with pytest.raises(ValueError, match="is not positive"):
        QuadExt(0, 1, 2).approx(err)
    with pytest.raises(ValueError, match="is not positive"):
        QuadExt(Fraction(1, 3)).approx(err)


def test_quadext_perfect_squares_fold():
    assert QuadExt(0, 1, 4) == QuadExt(2)
    assert QuadExt(1, 3, Fraction(9, 4)) == QuadExt(Fraction(11, 2))
    assert QuadExt(0, 2, 18) == QuadExt(0, 6, 2)  # 2*sqrt(18) = 6*sqrt(2)
    assert QuadExt(5, 0, 7).is_rational
    assert QuadExt(5, 2, 0).is_rational


def test_quadext_mixed_extensions_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) * QuadExt(1, 1, 6)
    # rational elements mix with anything
    assert QuadExt(2, 0, 5) + QuadExt(1, 1, 6) == QuadExt(3, 1, 6)


def test_quadext_as_fraction():
    assert QuadExt(Fraction(3, 7)).as_fraction() == Fraction(3, 7)
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2).as_fraction()


def test_quadext_immutable_hashable():
    x = QuadExt(1, 1, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(2)
    assert hash(QuadExt(1, 1, 8)) == hash(QuadExt(1, 2, 2))


@given(rationals, rationals, rationals, rationals, radicands)
def test_quadext_ring_laws(a1, b1, a2, b2, s):
    x = QuadExt(a1, b1, s)
    y = QuadExt(a2, b2, s)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert x - x == QuadExt(0)
    assert (x + y) - y == x
    assert x**2 == x * x
    assert x**0 == QuadExt(1)


def test_quadext_negative_power_raises():
    # as KPolynomial does; the power loop would otherwise return 1
    for x in (QuadExt(2), QuadExt(1, 1, 2), QuadExt(0)):
        with pytest.raises(ValueError, match="^negative power$"):
            x ** -1
    with pytest.raises(ValueError, match="^negative power$"):
        KPolynomial([2]) ** -1


@given(rationals, rationals, radicands)
def test_quadext_sign_and_approx_agree(a, b, s):
    x = QuadExt(a, b, s)
    approx = x.approx(Fraction(1, 10**24))
    # the approximation is closer than any cancellation can hide
    if approx > Fraction(1, 10**20):
        assert x.is_nonnegative()
    elif approx < -Fraction(1, 10**20):
        assert not x.is_nonnegative()
    else:
        assert x == QuadExt(0) and x.is_nonnegative()


@given(rationals, rationals, radicands)
def test_quadext_square_nonnegative(a, b, s):
    assert (QuadExt(a, b, s) ** 2).is_nonnegative()


def test_quadext_float_matches():
    x = QuadExt(1, 2, 3)
    assert abs(float(x) - (1 + 2 * math.sqrt(3))) < 1e-12


# ---------------------------------------------------------------------------
# blowup models


def test_model_validation():
    with pytest.raises(ValueError):
        BlowupModel(complete(3), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        BlowupModel(complete(2), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        BlowupModel(complete(2), (Fraction(1, 2), Fraction(1, 3)))
    BlowupModel(complete(2), (QuadExt(-1, 1, 2), QuadExt(2, -1, 2)))


def test_blowup_density_anchors():
    uniform4 = BlowupModel(complete(4), (Fraction(1, 4),) * 4)
    assert blowup_density(uniform4, K221) == Fraction(45, 128)

    tri = BlowupModel(
        union(complete(3), empty(1)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0)),
    )
    assert blowup_density(tri, K221) == Fraction(10, 27)

    point = BlowupModel(complete(1), (Fraction(1),))
    assert blowup_density(point, K221) == 0

    uniform5 = BlowupModel(complete(5), (Fraction(1, 5),) * 5)
    assert blowup_density(uniform5, K221) == Fraction(36, 125)


def test_blowup_edge_densities():
    edge = parse_paircode("2")
    uniform4 = BlowupModel(complete(4), (Fraction(1, 4),) * 4)
    assert blowup_density(uniform4, edge) == Fraction(3, 4)
    skew = BlowupModel(
        complete(5),
        (
            Fraction(2, 5),
            Fraction(1, 5),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1, 10),
        ),
    )
    assert blowup_density(skew, edge) == Fraction(37, 50)


def test_blowup_density_sums_to_one():
    model = BlowupModel(
        turan(3, 4), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    )
    from flagcert.graphs import enumerate_graphs

    total = sum(blowup_density(model, g) for g in enumerate_graphs(4))
    assert total == 1


def test_blowup_permutation_invariance():
    rng = random.Random(20260815)
    base = turan(3, 5)
    weights = (
        Fraction(3, 10),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 10),
    )
    model = BlowupModel(base, weights)
    want = blowup_density(model, K221)
    rows = base.rows()
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        mask = 0
        for i in range(5):
            for j in range(i):
                if rows[perm[i]] >> perm[j] & 1:
                    mask |= 1 << (i * (i - 1) // 2 + j)
        permuted = BlowupModel(
            type(base)(5, mask), tuple(weights[p] for p in perm)
        )
        assert blowup_density(permuted, K221) == want


def test_blowup_order_cap():
    model = BlowupModel(complete(1), (Fraction(1),))
    with pytest.raises(ValueError):
        blowup_density(model, empty(8))


def test_model_value_is_linear():
    model = BlowupModel(
        complete(4), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    )
    v1 = FlagVector(0, 3)
    v1.add(Flag(complete(3), 0), Fraction(2))
    v1.add(Flag(empty(3), 0), Fraction(-1, 3))
    v2 = FlagVector(0, 3)
    v2.add(Flag(parse_paircode("2 1 1"), 0), Fraction(5, 7))
    assert model_value(model, v1 + v2) == model_value(model, v1) + model_value(
        model, v2
    )
    assert model_value(model, v1.scaled(Fraction(3))) == 3 * model_value(model, v1)


# ---------------------------------------------------------------------------
# the bound at the Turan densities


def test_turan_bound_anchors():
    assert turan_bound(3) == Fraction(10, 27)
    assert turan_bound(4) == Fraction(45, 128)
    assert turan_bound(5) == Fraction(36, 125)
    assert turan_bound(Fraction(7, 2)) == Fraction(
        15 * Fraction(5, 2) * Fraction(3, 2), Fraction(7, 2) ** 4
    )
    with pytest.raises(ValueError):
        turan_bound(2)


def test_turan_bound_matches_uniform_blowup():
    for k in range(3, 8):
        model = BlowupModel(complete(k), (Fraction(1, k),) * k)
        assert blowup_density(model, K221) == turan_bound(k)


# ---------------------------------------------------------------------------
# the conjectured profile


def test_conjecture_anchor_values():
    assert conjecture_value(Fraction(2, 3)) == QuadExt(Fraction(10, 27))
    assert conjecture_value(0) == QuadExt(0)
    assert conjecture_value(1) == QuadExt(0)
    assert conjecture_value(Fraction(3, 4)) == QuadExt(Fraction(45, 128))
    v = conjecture_value(Fraction(74, 100)).approx(Fraction(1, 10**12))
    assert abs(v - Fraction(344944, 10**6)) < Fraction(1, 10**6)
    with pytest.raises(ValueError):
        conjecture_value(Fraction(-1, 10))
    with pytest.raises(ValueError):
        conjecture_value(Fraction(11, 10))


def test_conjecture_sqrt_piece():
    # below 2/3 the curve is sqrt(25/24) * e^(5/2) = (5 e^2 / 12) sqrt(6e)
    for e in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 5)):
        got = conjecture_value(e)
        assert got == QuadExt(0, 5 * e * e / 12, 6 * e)
        assert abs(float(got) - math.sqrt(25 / 24) * float(e) ** 2.5) < 1e-12


def test_conjecture_turan_points():
    for k in range(3, 11):
        e = Fraction(k - 1, k)
        assert conjecture_value(e) == QuadExt(turan_bound(k))


def test_cross_validation_against_piece_models():
    rng = random.Random(7)
    for k in range(3, 9):
        lo, hi = Fraction(k - 1, k), Fraction(k, k + 1)
        for _ in range(5):
            t = Fraction(rng.randrange(1, 64), 64)
            e = lo + (hi - lo) * t
            want = conjecture_value(e)
            model = piece_model(k, e)
            assert blowup_density(model, K221) == want
            # the model really has edge density e
            assert blowup_density(model, parse_paircode("2")) == QuadExt(e)


def test_knot_continuity():
    # sqrt piece meets the k=3 piece at 2/3
    assert conjecture_value(Fraction(2, 3)) == QuadExt(Fraction(10, 27))
    # piece k meets piece k+1 at e = k/(k+1): evaluate the k-piece at its
    # right endpoint directly through its extremal model
    for k in range(3, 9):
        e = Fraction(k, k + 1)
        left_limit = blowup_density(piece_model(k, e), K221)
        assert left_limit == QuadExt(turan_bound(k + 1))
        assert conjecture_value(e) == QuadExt(turan_bound(k + 1))


def test_finite_blowups_converge():
    # T_3(3m) holds 3 * C(m,2)^2 * m copies: the closed form matches a
    # direct count while graphs are small, then carries the convergence
    assert count_induced(K221, turan(3, 9)) == 3 * math.comb(3, 2) ** 2 * 3
    gap = []
    for m in (10, 100):
        copies = 3 * math.comb(m, 2) ** 2 * m
        density = Fraction(copies, math.comb(3 * m, 5))
        gap.append(abs(density - Fraction(10, 27)))
        assert gap[-1] < Fraction(4, m)
    assert 5 * gap[1] < gap[0]  # O(1/m) shrinkage


def test_piece_coverage_no_gaps():
    # every rational in (2/3, 1) lands in exactly one piece without error
    rng = random.Random(11)
    for _ in range(40):
        e = Fraction(2, 3) + Fraction(1, 3) * Fraction(rng.randrange(1, 720), 720)
        value = conjecture_value(e)
        assert value.is_nonnegative()
        assert (QuadExt(1) - value).is_nonnegative()


# ---------------------------------------------------------------------------
# profile table


def test_profile_grid_and_breakpoint():
    pts = profile_table(0, 1, Fraction(1, 200))
    es = [p.e for p in pts]
    assert es == sorted(es)
    assert Fraction(2, 3) in es  # inserted despite being off-grid
    assert len(pts) == 202
    assert pts[0].e == 0 and pts[-1].e == 1


def test_profile_figure_coordinates():
    pts = profile_table(0, 1, Fraction(1, 100))
    rows = {p.csv_row() for p in pts}
    assert "0.666667,0.370370" in rows
    assert "0.740000,0.344944" in rows
    assert "0.750000,0.351562" in rows
    assert "0.800000,0.288000" in rows


def test_profile_csv_shape():
    pts = profile_table(Fraction(1, 2), Fraction(3, 5), Fraction(1, 10))
    text = profile_csv(pts)
    lines = text.splitlines()
    assert lines[0] == "e,value"
    assert len(lines) == len(pts) + 1
    assert text.endswith("\n")


def test_profile_step_validation():
    with pytest.raises(ValueError):
        profile_table(0, 1, 0)


def test_profile_point_rounding():
    p = ProfilePoint(Fraction(1, 3), QuadExt(Fraction(1, 3)))
    assert p.csv_row() == "0.333333,0.333333"
    assert p.csv_row(decimals=2) == "0.33,0.33"
