"""Polynomials, root isolation, rational functions, exact PSD checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagcert.exactmath import (
    KPolynomial,
    RationalFunction,
    RootBracket,
    SymMatrix,
    _int_gcd,
    _int_odd_part,
    _int_poly,
    _int_squarefree,
    cauchy_bound,
    count_real_roots,
    isolate_largest_real_root,
    nonneg_on_ray,
    positive_on_ray,
    psd_check,
    rf_nonneg_on_ray,
    sturm_chain,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def polys(max_degree: int = 4):
    return st.lists(rationals, min_size=1, max_size=max_degree + 1).map(KPolynomial)


PSD_CONDITION = KPolynomial([-36, -324, 603, -522, 585, -378, 63])
DEFICIT_ROW_1 = KPolynomial([24, -168, 210, -66, 42, -54, 12])


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_degree_and_leading():
    p = KPolynomial([1, 0, 3])
    assert p.degree == 2 and p.leading == 3
    assert KPolynomial([0, 0]).is_zero
    assert KPolynomial([5]).degree == 0
    assert KPolynomial().is_zero


def test_evaluation():
    p = KPolynomial([1, -2, 1])  # (k-1)^2
    assert p(1) == 0 and p(3) == 4 and p(Fraction(1, 2)) == Fraction(1, 4)


@given(polys(), polys(), polys())
def test_ring_identities(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == KPolynomial()
    assert (p + q)(2) == p(2) + q(2)
    assert (p * q)(Fraction(3, 2)) == p(Fraction(3, 2)) * q(Fraction(3, 2))


def test_zero_values_are_falsy():
    k = KPolynomial.variable()
    assert not KPolynomial() and not KPolynomial([0, 0])
    r = RationalFunction(1, k)
    assert not RationalFunction(0) and not r - r
    assert KPolynomial([Fraction(1, 2)]) and k and r


def test_scalar_promotion():
    p = KPolynomial([0, 1])
    assert (1 + p)(4) == 5
    assert (2 - p)(1) == 1
    assert (p * Fraction(1, 2))(6) == 3


def test_gcd_and_squarefree():
    k = KPolynomial([0, 1])
    p = _int_poly((k - 1) ** 2 * (k + 2))
    q = _int_poly((k - 1) * (k - 3))
    assert _int_gcd(p, q) == [-1, 1]  # k - 1, leading coefficient positive
    assert _int_gcd(q, p) == [-1, 1]
    assert _int_squarefree(p) == _int_poly((k - 1) * (k + 2))
    assert _int_squarefree(_int_poly(3 * (k - 2) ** 3)) == [-2, 1]


# ---------------------------------------------------------------------------
# sturm sequences and root isolation


def test_sturm_root_counts():
    k = KPolynomial([0, 1])
    cubic = (k - 1) * (k - 2) * (k - 3)
    assert count_real_roots(cubic) == 3
    assert count_real_roots(cubic, 0, None) == 3
    assert count_real_roots(cubic, Fraction(3, 2), None) == 2
    assert count_real_roots(k * k + 1) == 0
    # repeated roots counted once
    assert count_real_roots((k - 5) ** 3) == 1


def test_sturm_chain_shape():
    chain = sturm_chain(_int_squarefree(_int_poly(PSD_CONDITION)))
    # the condition polynomial is squarefree, so the kernel leaves it alone
    assert chain[0] == _int_poly(PSD_CONDITION)
    assert _int_gcd(chain[0], chain[1]) == [1]
    # primitive integer polynomials, degrees falling to a nonzero constant
    for q in chain:
        assert all(type(c) is int for c in q)
        assert math.gcd(*q) == 1
    assert [len(q) - 1 for q in chain] == list(range(6, -1, -1))
    assert chain[0][-1] > 0 and chain[1][-1] > 0


def test_count_excludes_root_endpoints():
    k = KPolynomial([0, 1])
    cubic = (k - 1) * (k - 2) ** 2 * (k - 3)
    assert count_real_roots(cubic, 1, 3) == 1
    assert count_real_roots(cubic, 2, None) == 1
    assert count_real_roots(cubic, None, 2) == 1
    assert count_real_roots(cubic, 1, 2) == 0
    assert count_real_roots(cubic, 3, 1) == 0  # empty interval
    assert count_real_roots(cubic, 2, 2) == 0


def test_cauchy_bound_contains_roots():
    b = cauchy_bound(PSD_CONDITION)
    assert count_real_roots(PSD_CONDITION, -b, b) == count_real_roots(PSD_CONDITION)


def test_isolate_largest_root_anchors():
    br = isolate_largest_real_root(PSD_CONDITION, Fraction(1, 10**6))
    assert br.width <= Fraction(1, 10**6)
    assert abs(br.midpoint - Fraction(4113060, 10**6)) < Fraction(2, 10**6)

    br = isolate_largest_real_root(DEFICIT_ROW_1, Fraction(1, 10**10))
    target = Fraction(367637881255240, 10**14)
    assert abs(br.midpoint - target) < Fraction(2, 10**10)

    k = KPolynomial([0, 1])
    br = isolate_largest_real_root(k * k - 4, Fraction(1, 1000))
    assert br.lower < 2 <= br.upper


def test_isolated_bracket_is_sound():
    for p in (PSD_CONDITION, DEFICIT_ROW_1, KPolynomial([-6, 11, -6, 1])):
        br = isolate_largest_real_root(p, Fraction(1, 10**4))
        # bracket is (lower, upper]: the root is inside or exactly at upper
        assert count_real_roots(p, br.lower, br.upper) >= 1 or p(br.upper) == 0
        assert count_real_roots(p, br.upper, None) == 0


def test_isolate_rejects_rootless_or_zero():
    k = KPolynomial([0, 1])
    with pytest.raises(ValueError):
        isolate_largest_real_root(k * k + 1, Fraction(1, 100))
    with pytest.raises(ValueError):
        isolate_largest_real_root(KPolynomial(), Fraction(1, 100))


# ---------------------------------------------------------------------------
# ray nonnegativity


def test_nonneg_on_ray():
    k = KPolynomial([0, 1])
    assert nonneg_on_ray((k - 3) ** 2, 0)
    assert nonneg_on_ray(k - 3, 3)
    assert not nonneg_on_ray(k - 3, 2)
    assert nonneg_on_ray(PSD_CONDITION, 5)
    assert not nonneg_on_ray(PSD_CONDITION, 4)
    assert nonneg_on_ray(KPolynomial(), 0)  # zero polynomial
    assert not nonneg_on_ray(-(k**2), 1)


def test_positive_on_ray():
    k = KPolynomial([0, 1])
    assert positive_on_ray(k - 3, 4)
    assert not positive_on_ray(k - 3, 3)  # zero at the base point
    assert positive_on_ray(KPolynomial([2]), 0)
    assert not positive_on_ray(KPolynomial(), 0)


@given(polys(3), st.integers(0, 6))
def test_nonneg_on_ray_agrees_with_sampling(p, k0):
    claim = nonneg_on_ray(p, k0)
    samples = [p(k0 + Fraction(t, 7)) for t in range(0, 50)]
    if claim:
        assert all(v >= 0 for v in samples)
    else:
        # a violation exists somewhere on the ray, though maybe not sampled;
        # verify via exact root data: not nonneg means some value < 0
        assert min(samples) < 0 or count_real_roots(p, k0, None) > 0 or p.leading < 0


# ---------------------------------------------------------------------------
# rational functions


def test_rational_function_basics():
    k = KPolynomial([0, 1])
    r = RationalFunction(k * k - 1, k - 1)
    assert r.is_polynomial
    assert r.as_polynomial() == k + 1
    s = RationalFunction(1, k)
    assert not s.is_polynomial
    assert (s + s)(2) == 1
    assert (s * k).as_polynomial() == KPolynomial([1])
    with pytest.raises(ZeroDivisionError):
        RationalFunction(k, KPolynomial())


def test_rf_nonneg_on_ray():
    k = KPolynomial([0, 1])
    assert rf_nonneg_on_ray(RationalFunction(k - 3, k - 1), 3)
    assert not rf_nonneg_on_ray(RationalFunction(3 - k, k - 1), 4)


def test_rf_nonneg_on_ray_pole_rule():
    # a pole is a root of the monic denominator in [k0, oo), endpoint included
    k = KPolynomial([0, 1])
    with pytest.raises(ValueError):
        rf_nonneg_on_ray(RationalFunction(1, k - 5), 5)  # root at k0
    with pytest.raises(ValueError):
        rf_nonneg_on_ray(RationalFunction(1, (k - 7) ** 2), 5)  # double root beyond
    # a root below k0 is no pole; the sign is the numerator's
    assert rf_nonneg_on_ray(RationalFunction(k - 5, k - 3), 5)
    assert not rf_nonneg_on_ray(RationalFunction(k - 6, (k - 3) ** 2), 5)
    # a constant denominator never has a pole
    assert rf_nonneg_on_ray(RationalFunction(k - 5, 3), 5)
    assert not rf_nonneg_on_ray(RationalFunction(-1), 5)
    assert rf_nonneg_on_ray(Fraction(0), 5)


@given(polys(2), polys(2))
def test_rf_mixed_arithmetic(p, q):
    if q.is_zero:
        return
    r = RationalFunction(p, q)
    assert (r - r).is_zero
    assert (r + 1 - 1)(5) == r(5) if not q(5) == 0 else True


# ---------------------------------------------------------------------------
# exact PSD checks


def test_psd_anchor_matrix():
    m = SymMatrix.from_rows([[91, 12, -115], [12, 41, -94], [-115, -94, 303]])
    res = psd_check(m)
    assert res.psd and res.verify(m)
    assert all(d >= 0 for d in res.diag)


def test_psd_identity():
    m = SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = psd_check(m)
    assert res.psd and res.verify(m)
    assert res.diag == (1, 1, 1)


def test_not_psd_witness():
    m = SymMatrix.from_rows([[1, 2], [2, 1]])
    res = psd_check(m)
    assert not res.psd
    assert res.verify(m)
    assert m.quadratic_form(res.witness) < 0
    assert m.quadratic_form((1, -1)) == -2


def test_singular_psd():
    m = SymMatrix.from_rows([[1, 1], [1, 1]])
    res = psd_check(m)
    assert res.psd and res.verify(m)
    m0 = SymMatrix.from_rows([[0, 0], [0, 0]])
    res0 = psd_check(m0)
    assert res0.psd and res0.verify(m0)
    # zero diagonal with nonzero off-diagonal cannot be PSD
    m1 = SymMatrix.from_rows([[0, 1], [1, 0]])
    res1 = psd_check(m1)
    assert not res1.psd and res1.verify(m1)


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_psd_fuzz_witnesses_always_verify(rows):
    # build A^T A (always PSD) and a symmetrized random matrix (either way)
    a = rows
    gram = [
        [sum(a[t][i] * a[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]
    m = SymMatrix.from_rows(gram)
    res = psd_check(m)
    assert res.psd and res.verify(m)

    sym = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    m2 = SymMatrix.from_rows(sym)
    res2 = psd_check(m2)
    assert res2.verify(m2)
    if not res2.psd:
        assert m2.quadratic_form(res2.witness) < 0


def test_psd_check_over_rational_functions():
    k = RationalFunction(KPolynomial([0, 1]))

    def on_ray(d):
        return d == 0 or rf_nonneg_on_ray(d, 5)

    m = SymMatrix.from_rows([[k, 1], [1, 1 / k]])  # rank one
    res = psd_check(m, on_ray)
    assert res.psd and res.verify(m, on_ray) and res.diag == (k, 0)
    m = SymMatrix.from_rows([[1, 0], [0, k - 6]])  # negative on [5, 6)
    res = psd_check(m, on_ray)
    assert not res.psd and res.verify(m, on_ray)
    assert m.quadratic_form(res.witness) == k - 6


def test_symmatrix_validation():
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        SymMatrix.from_rows([[1, 2, 3], [2, 1, 3]])  # ragged


# ---------------------------------------------------------------------------
# differential checks against sympy (a test-only dependency)

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def factored_polys(draw):
    """A scaled product of (k - r)^m, maybe times a random integer factor.

    Returns the polynomial and its rational roots, so endpoints and
    bisection midpoints can be made to land on roots.
    """
    k = KPolynomial.variable()
    p = KPolynomial.constant(draw(st.sampled_from([1, -1, 3, Fraction(-2, 3)])))
    roots = draw(st.lists(small_rationals, max_size=3))
    for r in roots:
        p = p * (k - r) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        extra = KPolynomial(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)))
        if not extra.is_zero:
            p = p * extra
    return p, roots


def _sympy_poly(p: KPolynomial):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    return sp.Poly(
        [sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x
    )


def _sympy_open_count(p: KPolynomial, lower, upper) -> int:
    sp = pytest.importorskip("sympy")
    if lower is not None and upper is not None and lower >= upper:
        return 0
    poly = _sympy_poly(p)
    ends = [None if e is None else sp.Rational(e.numerator, e.denominator)
            for e in (lower, upper)]
    n = poly.count_roots(*ends)  # closed interval, distinct roots
    return n - sum(e is not None and poly.eval(e) == 0 for e in ends)


@st.composite
def factor_products(draw):
    """A random sign times f_1^m_1 ... f_r^m_r, integer f_i, m_i in 1..4."""
    p = KPolynomial.constant(draw(st.sampled_from([1, -1])))
    for _ in range(draw(st.integers(0, 3))):
        f = KPolynomial(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=3)))
        if f.degree > 0:
            p = p * f ** draw(st.integers(1, 4))
    return p


@given(factor_products(), rationals)
def test_odd_part_and_nonneg_on_ray_match_sympy_sqf_list(p, k0):
    _, factors = _sympy_poly(p).sqf_list()
    odd = KPolynomial([1])
    for f, m in factors:
        if m % 2:
            cs = reversed(f.all_coeffs())
            odd = odd * KPolynomial([Fraction(int(c.p), int(c.q)) for c in cs])
    assert KPolynomial(_int_odd_part(_int_poly(p))).monic() == odd.monic()
    want = p(k0) >= 0 and (
        p.degree == 0
        or p.leading > 0 and (odd.degree == 0 or _sympy_open_count(odd, k0, None) == 0)
    )
    assert nonneg_on_ray(p, k0) == want


def _reference_bracket(p: KPolynomial, precision: Fraction) -> RootBracket:
    """Plain bisection that re-counts the roots above each midpoint."""
    bound = cauchy_bound(p)
    lo, hi = -bound, bound
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if count_real_roots(p, lower=mid) >= 1:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


endpoint = st.one_of(st.none(), small_rationals)


@given(factored_polys(), st.data())
def test_count_real_roots_matches_sympy(case, data):
    p, roots = case
    if p.degree <= 0:
        return
    ends = st.one_of(endpoint, st.sampled_from(roots)) if roots else endpoint
    lower, upper = data.draw(ends), data.draw(ends)
    assert count_real_roots(p, lower, upper) == _sympy_open_count(p, lower, upper)


@given(polys(5), endpoint, endpoint)
def test_count_real_roots_matches_sympy_on_rational_polys(p, lower, upper):
    if p.degree <= 0:
        return
    assert count_real_roots(p, lower, upper) == _sympy_open_count(p, lower, upper)


@given(factored_polys(), st.integers(1, 40))
@example((KPolynomial([0, 1, 1]), [0, -1]), 10)  # k(k+1): first midpoint 0 is a root
@example((KPolynomial([0, 3, 1]), [0, -3]), 20)  # k(k+3): also bracketed at 0
def test_largest_root_bracket_matches_sympy_and_reference(case, bits):
    sp = pytest.importorskip("sympy")
    p, _ = case
    precision = Fraction(1, 2**bits)
    real = _sympy_poly(p).real_roots() if p.degree > 0 else []
    if not real:
        with pytest.raises(ValueError):
            isolate_largest_real_root(p, precision)
        return
    br = isolate_largest_real_root(p, precision)
    assert br == _reference_bracket(p, precision)
    assert br.width <= precision
    root = max(real)
    assert bool(sp.Rational(br.lower.numerator, br.lower.denominator) < root)
    assert bool(root <= sp.Rational(br.upper.numerator, br.upper.denominator))


def _sympy_normal_form(expr):
    """(numerator, denominator) coefficients of expr with a monic denominator."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    num, den = sp.fraction(sp.cancel(expr))
    num, den = sp.Poly(num, x), sp.Poly(den, x)
    lc = den.LC()
    out = []
    for poly in (num, den):
        cs = [c / lc for c in reversed(poly.all_coeffs())]
        cs = [Fraction(int(c.p), int(c.q)) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        out.append(tuple(cs))
    return tuple(out)


@st.composite
def rational_functions(draw):
    num = draw(polys(3))
    den = draw(polys(2).filter(lambda q: not q.is_zero))
    common = draw(polys(1).filter(lambda q: not q.is_zero))
    return RationalFunction(num * common, den * common)


@given(rational_functions(), rational_functions())
def test_rational_function_ops_match_sympy_cancel(r, s):
    def expr(f):
        return _sympy_poly(f.num).as_expr() / _sympy_poly(f.den).as_expr()

    results = [(r + s, expr(r) + expr(s)), (r * s, expr(r) * expr(s))]
    if not s.is_zero:
        results.append((r / s, expr(r) / expr(s)))
    for got, want in results:
        assert (got.num.coeffs, got.den.coeffs) == _sympy_normal_form(want)


@st.composite
def exact_symmetric_matrices(draw):
    """Small symmetric rational matrices, many of them singular.

    A Gram matrix A^T A of a random r x n matrix A is PSD of rank <= r, so
    r < n gives singular and rank-deficient PSD matrices; shifting one of
    its diagonal entries by a small rational either way lands just inside
    or just outside the PSD cone; a plain symmetric matrix, often with zeros
    on its diagonal, is either.
    """
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["gram", "shifted", "symmetric"]))
    if kind == "symmetric":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(st.just(Fraction(0)) | small_rationals)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(small_rationals)
        return rows
    r = draw(st.integers(0, n))
    a = [[draw(small_rationals) for _ in range(n)] for _ in range(r)]
    rows = [
        [sum((a[t][i] * a[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    if kind == "shifted":
        i = draw(st.integers(0, n - 1))
        rows[i][i] += draw(st.sampled_from([Fraction(-1, 50), Fraction(1, 50), Fraction(-1)]))
    return rows


@given(exact_symmetric_matrices())
def test_psd_check_matches_sympy(rows):
    sp = pytest.importorskip("sympy")
    m = SymMatrix.from_rows(rows)
    expected = sp.Matrix(
        [[sp.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).is_positive_semidefinite
    res = psd_check(m)
    assert res.psd == expected
    assert res.verify(m)
    if not res.psd:
        assert m.quadratic_form(res.witness) < 0


@st.composite
def monic_denominators_and_bases(draw):
    """A monic polynomial of degree <= 3 and a rational k0.

    The polynomial is an integer one, or a product of (k - r)^m with
    rational r and m >= 1; then k0 may be drawn at a root or just below.
    """
    base = st.fractions(min_value=-4, max_value=8, max_denominator=4)
    if draw(st.booleans()):
        cs = draw(st.lists(st.integers(-6, 6), max_size=3))
        return KPolynomial(cs + [1]), draw(base)
    k = KPolynomial.variable()
    den = KPolynomial([1])
    roots = draw(st.lists(small_rationals, max_size=3, unique=True))
    for r in roots:
        if den.degree < 3:
            den = den * (k - r) ** draw(st.integers(1, 3 - den.degree))
    if roots:
        base |= st.sampled_from(roots + [r - Fraction(1, 2) for r in roots])
    return den, draw(base)


@given(polys(3), monic_denominators_and_bases())
@example(KPolynomial([1]), (KPolynomial([49, -14, 1]), Fraction(5)))  # (k-7)^2
@example(KPolynomial([1]), (KPolynomial([-5, 1]), Fraction(5)))  # root at k0
def test_rf_nonneg_on_ray_matches_sympy(num, case):
    sp = pytest.importorskip("sympy")
    den, k0 = case
    x = sp.Symbol("x")
    expr = sp.cancel(_sympy_poly(num).as_expr() / _sympy_poly(den).as_expr())
    at = sp.Rational(k0.numerator, k0.denominator)
    pole = any(
        bool(r >= at) for r in sp.Poly(sp.fraction(expr)[1], x).real_roots()
    )
    r = RationalFunction(num, den)
    if pole:
        with pytest.raises(ValueError):
            rf_nonneg_on_ray(r, k0)
        return
    # off the poles expr has the sign of num * den: sample it at k0, between
    # isolating intervals of its real roots, refined until none touch, and
    # beyond the last one
    n, d = sp.fraction(expr)
    q = sp.Poly(n * d, x)
    eps = sp.Rational(1)
    ends = [iv for iv, _ in q.intervals(eps=eps)]
    while any(b >= c for (_, b), (c, _) in zip(ends, ends[1:])):
        eps /= 16
        ends = [iv for iv, _ in q.intervals(eps=eps)]
    points = [at] + [(b + c) / 2 for (_, b), (c, _) in zip(ends, ends[1:])]
    if ends:
        points.append(ends[-1][1] + 1)
    want = all(q.eval(pt) >= 0 for pt in points if pt >= at)
    assert rf_nonneg_on_ray(r, k0) == want
