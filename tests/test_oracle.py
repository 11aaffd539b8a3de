"""Edge-local counting, the degree-triple scan, and the exhaustive search."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagcert import graphs
from flagcert.graphs import (
    complete,
    count_induced,
    empty,
    enumerate_graphs,
    parse_paircode,
    to_graph6,
    turan,
)
from flagcert.oracle import (
    SEARCH_CSV_HEADER,
    DegreeLocalData,
    ScanViolation,
    _column_counts,
    _extended,
    _row_maxima,
    _scan_cell,
    counting_identity_check,
    degree_local_data,
    edge_local_count,
    max_density_search,
    max_density_table,
    target_graph,
    want_inequality_scan,
)

K221 = parse_paircode("2 2 2 1 1 2 2 2 2 2")
K221_CANON = K221.canonical_form()


def test_target_graph_identity():
    t = target_graph()
    assert t.n == 5 and t.edge_count == 8
    assert t.canonical_form().mask == K221_CANON.mask


# ---------------------------------------------------------------------------
# edge-local counts


def ref_edge_local(g, u, v):
    # independent reference: 5-subsets through uv inducing the pattern
    # with u, v both of degree 3 inside the copy (the two 2-classes)
    total = 0
    rows = g.rows()
    rest = [w for w in range(g.n) if w not in (u, v)]
    for extra in itertools.combinations(rest, 3):
        sub = tuple(sorted((u, v) + extra))
        ind = g.induced(sub)
        if ind.canonical_form().mask != K221_CANON.mask:
            continue
        du = sum(1 for w in sub if w != u and rows[u] >> w & 1)
        dv = sum(1 for w in sub if w != v and rows[v] >> w & 1)
        if du == 3 and dv == 3:
            total += 1
    return total


def test_edge_local_count_on_the_pattern():
    # of the 8 edges, the 4 between the 2-classes each carry one copy
    values = sorted(edge_local_count(K221, u, v) for u, v in K221.edges())
    assert values == [0, 0, 0, 0, 1, 1, 1, 1]


def test_edge_local_count_on_k5():
    g = complete(5)
    assert all(edge_local_count(g, u, v) == 0 for u, v in g.edges())


def test_edge_local_count_on_turan36():
    g = turan(3, 6)
    per_edge = [edge_local_count(g, u, v) for u, v in g.edges()]
    assert per_edge == [2] * 12
    assert sum(per_edge) == 4 * count_induced(K221, g)


def test_edge_local_count_requires_an_edge():
    with pytest.raises(ValueError):
        edge_local_count(empty(5), 0, 1)
    with pytest.raises(ValueError):
        edge_local_count(K221, 0, 0)


def test_edge_local_count_matches_reference():
    hosts = [g for g in enumerate_graphs(6) if g.edge_count > 6][::7]
    assert len(hosts) >= 10
    for g in hosts:
        for u, v in g.edges():
            assert edge_local_count(g, u, v) == ref_edge_local(g, u, v)


def test_degree_local_data_on_the_pattern():
    stats = sorted(
        (
            min(d.d_u, d.d_v),
            max(d.d_u, d.d_v),
            d.d_uv,
            d.i_uv,
        )
        for d in (degree_local_data(K221, u, v) for u, v in K221.edges())
    )
    assert stats == [(3, 3, 1, 1)] * 4 + [(3, 4, 2, 0)] * 4


def test_degree_local_data_validation():
    with pytest.raises(ValueError):
        DegreeLocalData(n=5, d_u=0, d_v=3, d_uv=0, i_uv=0)
    with pytest.raises(ValueError):
        DegreeLocalData(n=5, d_u=3, d_v=3, d_uv=4, i_uv=0)
    with pytest.raises(ValueError):
        DegreeLocalData(n=5, d_u=4, d_v=4, d_uv=2, i_uv=0)  # below d_u+d_v-n
    with pytest.raises(ValueError):
        DegreeLocalData(n=5, d_u=3, d_v=3, d_uv=1, i_uv=-1)
    with pytest.raises(ValueError):
        degree_local_data(empty(4), 0, 1)


# ---------------------------------------------------------------------------
# the counting identity


def test_identity_check_through_order_six():
    report = counting_identity_check(6)
    assert report.passed
    assert report.graphs_checked == 1 + 2 + 4 + 11 + 34 + 156
    assert report.exceptions == ()
    text = "\n".join(report.lines())
    assert "exceptions: 0" in text


def test_identity_trivial_cases():
    assert sum(edge_local_count(K221, u, v) for u, v in K221.edges()) == 4
    assert list(empty(5).edges()) == []


def test_identity_check_order_guard():
    with pytest.raises(ValueError):
        counting_identity_check(8)
    with pytest.raises(ValueError):
        counting_identity_check(0)


# ---------------------------------------------------------------------------
# the degree-triple inequality scan


def brute_scan(k: Fraction, n_max: int):
    # slow reference in raw Fractions, no denominator clearing
    checked = 0
    violations = []
    for n in range(1, n_max + 1):
        rhs = Fraction(n**3) / k**3
        for du in range(1, n):
            for dv in range(du, n):
                for duv in range(max(0, du + dv - n), min(du, dv) + 1):
                    checked += 1
                    cubic = (du - duv) * (dv - duv) * duv
                    lhs = cubic - Fraction(k - 3, k) * n * (n - du) * (n - dv)
                    if lhs > rhs:
                        violations.append((n, du, dv, duv, "want"))
                    if 3 * du >= 2 * n and cubic > (n - du) * (n - dv) * (
                        du + dv - n
                    ):
                        violations.append((n, du, dv, duv, "case-i"))
    return checked, violations


def test_scan_matches_fraction_reference():
    k = Fraction(10, 3)
    report = want_inequality_scan([k], 8)
    checked, violations = brute_scan(k, 8)
    assert report.triples_checked == checked
    assert report.violations == () and violations == []


def test_scan_small_integers_clean():
    report = want_inequality_scan([3, 4, Fraction(7, 2)], 12)
    assert report.passed
    assert report.k_values == (3, Fraction(7, 2), 4)
    eq_by_k = {}
    for t in report.turan_equalities:
        eq_by_k.setdefault(t.k, []).append(t.n)
    assert eq_by_k[Fraction(3)] == [3, 6, 9, 12]
    assert eq_by_k[Fraction(4)] == [4, 8, 12]
    assert eq_by_k[Fraction(7, 2)] == [7]
    for t in report.turan_equalities:
        assert t.value == Fraction(t.n) ** 3 / t.k**3
        assert t.d == (t.k - 1) * t.n / t.k
        assert t.d_uv == (t.k - 2) * t.n / t.k
    text = "\n".join(report.lines())
    assert "violations: 0" in text and "tight points" in text


def test_scan_detector_fires_below_three():
    # the guard exists because k < 3 genuinely breaks the inequality
    checked, [violations] = _scan_cell(((5, 2),), 12)
    assert checked and violations
    with pytest.raises(ValueError):
        want_inequality_scan([Fraction(5, 2)], 12)


BELOW_THREE = (Fraction(5, 2), Fraction(8, 3), Fraction(11, 4))


def _cell_violations(pqs, n_max):
    # (n, d_u, d_v, d_uv, which) per k, in report order, from the per-n cells
    out = [[] for _ in pqs]
    checked = 0
    for n in range(1, n_max + 1):
        cell_checked, per_k = _scan_cell(pqs, n)
        checked += cell_checked
        for found, violations in zip(out, per_k):
            found.extend((n, a, b, c, which) for a, b, c, which in violations)
    return checked, out


def test_scan_cell_violations_match_fraction_reference():
    # below k = 3 the scan must report exactly the reference's violations
    # in the same order; case-i is a true bound, so its lists stay empty
    pqs = tuple((k.numerator, k.denominator) for k in BELOW_THREE)
    checked, found = _cell_violations(pqs, 10)
    for k, cell in zip(BELOW_THREE, found):
        ref_checked, ref = brute_scan(k, 10)
        assert checked == ref_checked
        assert any(v[-1] == "want" for v in ref)
        assert cell == ref
        # a cell for this k alone gives the same lists
        assert _cell_violations(((k.numerator, k.denominator),), 10) == (checked, [ref])


def _reference_cell(pqs, n):
    # _scan_cell's result from every triple under every k: no row maximum
    checked = 0
    per_k = [[] for _ in pqs]
    for a in range(1, n):
        for b in range(a, n):
            lo = max(0, a + b - n)
            checked += a - lo + 1
            prod = (n - a) * (n - b)
            for (p, q), violations in zip(pqs, per_k):
                base = p * p * (p - 3 * q) * n * prod
                rhs = q**3 * n**3
                for c in range(lo, a + 1):
                    cubic = (a - c) * (b - c) * c
                    if p**3 * cubic - base > rhs:
                        violations.append((a, b, c, "want"))
                    if 3 * a >= 2 * n and cubic > prod * (a + b - n):
                        violations.append((a, b, c, "case-i"))
    return checked, per_k


SCANNED_PQS = ((3, 1), (7, 2), (4, 1), (5, 1), (10, 1))


# k = 5/2 and k = 2 fail the want test, so their rows are walked; k = 29/10
# passes it up to n = 40.  Case-i is a true bound, so it adds nothing at
# any k.
@pytest.mark.parametrize(
    "pqs, fails",
    [(SCANNED_PQS, False), (((5, 2),), True), (((2, 1),), True), (((29, 10),), False)],
)
def test_scan_cell_matches_the_every_triple_reference(pqs, fails):
    found = 0
    for n in range(1, 41):
        got = _scan_cell(pqs, n)
        assert got == _reference_cell(pqs, n), n
        found += sum(map(len, got[1]))
    assert (found > 0) == fails


def test_slice_forms_are_one_polynomial_and_the_case_i_bound():
    # a = d_u, b = d_v, lo = a + b - n.  On the slice d_uv = lo the cleared
    # inequality's direct form and its rearranged form are the same
    # polynomial, so a check comparing them could never disagree; and f(lo)
    # is the case-i bound on every row with a + b >= n
    sp = pytest.importorskip("sympy")
    a, b, n, p, q = sp.symbols("a b n p q")
    lo = a + b - n
    f_lo = (a - lo) * (b - lo) * lo
    prod = (n - a) * (n - b)
    direct = p**3 * f_lo - p**2 * (p - 3 * q) * n * prod
    rearranged = p**2 * (n * (3 * q - 2 * p) + p * (a + b)) * prod
    assert sp.expand(direct - rearranged) == 0
    assert sp.expand(f_lo - prod * (a + b - n)) == 0


@st.composite
def _scan_rows(draw):
    n = draw(st.integers(2, 200))
    a = draw(st.integers(1, n - 1))
    return n, a, draw(st.integers(a, n - 1))


@given(_scan_rows())
@example((200, 1, 199))
@example((200, 133, 199))
@example((200, 199, 199))
def test_hill_climbed_row_maximum_is_the_largest_cubic(row):
    n, a, b = row
    lo = max(0, a + b - n)
    top = max((a - c) * (b - c) * c for c in range(lo, a + 1))
    rows = {(r[0], r[1]): r for r in _row_maxima(n)}
    assert len(rows) == n * (n - 1) // 2
    assert rows[a, b] == (a, b, lo, top)


def test_scan_input_validation():
    with pytest.raises(ValueError):
        want_inequality_scan([], 10)
    with pytest.raises(ValueError):
        want_inequality_scan([3], 0)


def test_scan_dedupes_and_sorts_k():
    report = want_inequality_scan([5, 3, Fraction(5), 3], 4)
    assert report.k_values == (3, 5)


def test_scan_integer_tight_point():
    # the degrees of T_4(4), d = 3 and d_uv = 2, are the one tight point
    report = want_inequality_scan([4], 4)
    assert report.passed
    assert [(t.n, t.d, t.d_uv) for t in report.turan_equalities] == [
        (4, Fraction(3), Fraction(2)),
    ]


def test_clique_degree_point():
    # d_u = d_v = n-1, d_uv = n-2: slack everywhere except n = k exactly
    for k in (Fraction(3), Fraction(4), Fraction(7, 2), Fraction(10)):
        for n in range(3, 21):
            lhs = Fraction((n - 2)) - Fraction(k - 3, k) * n
            rhs = Fraction(n**3) / k**3
            assert lhs <= rhs
            assert (lhs == rhs) == (k == n)


def test_scan_violation_record_shape():
    v = ScanViolation(
        Fraction(3), 6, Fraction(4), Fraction(4), Fraction(2), "want"
    )
    assert v.inequality == "want"


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_at_order_five():
    hit = max_density_search(K221, 5, 8)
    assert hit.max_count == 1
    assert hit.maximizers == (to_graph6(K221_CANON),)
    assert hit.density == 1

    miss = max_density_search(K221, 5, 10)
    assert miss.max_count == 0
    assert miss.maximizers == (to_graph6(complete(5)),)

    free = max_density_search(K221, 5)
    assert free.max_count == 1 and free.edge_count is None
    assert to_graph6(K221_CANON) in free.maximizers


def test_search_table_order_six():
    table = max_density_table(K221, 6)
    assert len(table) == 16  # edge counts 0..15 all realized
    assert [r.edge_count for r in table] == list(range(16))
    row12 = table[12]
    assert row12.max_count == 6
    assert row12.maximizers == (to_graph6(turan(3, 6).canonical_form()),)
    assert row12.density == Fraction(6, math.comb(6, 5))
    # the triangle blowup attains the order-6 maximum at its own edge count
    assert max(r.max_count for r in table) == 6


def test_search_guards():
    # each guard also fails the inputs of every guard after it
    with pytest.raises(ValueError, match="^order 10 outside 1..9$"):
        max_density_search(complete(6), 10, 99)
    with pytest.raises(ValueError, match="^pattern has more vertices"):
        max_density_search(turan(3, 6), 5, 99)
    with pytest.raises(ValueError, match="^edge count 11 impossible at order 5$"):
        max_density_search(K221, 5, 11)
    # refused before the 274668 order-9 classes are listed
    with pytest.raises(ValueError, match="^edge count 37 impossible at order 9$"):
        max_density_search(K221, 9, 37)


def test_oracle_counts_without_canonical_codes(monkeypatch):
    # the oracle must not share the canonical-code search with the flag
    # tables: with that search and its cache cut off, the counts, pass 1's
    # maxima per edge count and the whole table are unchanged (the listing
    # and pass 2 test canonicity by their own walk of each parent)
    graphs._enumerate.cache_clear()
    graphs.automorphism_count.cache_clear()

    def cut(*args):
        raise AssertionError("the oracle reached the canonical-code search")

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_min_code_cached", cut)
        patch.setattr(graphs, "_search", cut)
        t36 = turan(3, 6)
        assert count_induced(K221, t36) == 6
        assert graphs.automorphism_count(t36) == 48
        assert graphs.induced_density(complete(2), t36) == Fraction(4, 5)
        best, _ = _column_counts(K221, 6, None)
        assert best == [0] * 8 + [1, 1, 1, 3, 6, 2, 0, 0]
        rows = "\n".join(r.csv_row() for r in max_density_table(K221, 6))
    assert (
        hashlib.sha256(rows.encode()).hexdigest()
        == "5312f0d73036a2662b178f2e213c96164cffd84a250c8acd9781ef3fe5273dc7"
    )


def test_extension_counts_every_class():
    # each class's count is its canonical parent's plus the parent's new
    # copies at the class's last column: against count_induced per class
    for k in range(1, 5):
        for h in enumerate_graphs(k):
            for m in range(1, 8):
                counts = [c for _, c in _extended(h, m, {})]
                assert counts == [count_induced(h, g) for g in enumerate_graphs(m)]
    # K221 at orders 1..8: the digest test_counts_are_frozen records
    lines = "\n".join(
        f"{to_graph6(g)} {c}"
        for m in range(1, 9)
        for g, (_, c) in zip(enumerate_graphs(m), _extended(K221, m, {}))
    )
    assert (
        hashlib.sha256(lines.encode()).hexdigest()
        == "981694e298f4b092f6049ec189059d92e8a6894bdd5a30b8ec9c527eed26f29d"
    )


def listing_reference(h, n):
    # the reference: h's count in every order-n class, in listing order
    return [(g.edge_count, count_induced(h, g), to_graph6(g)) for g in enumerate_graphs(n)]


def reference_result(n, edge_count, listed):
    counted = [(c, name) for e, c, name in listed if edge_count in (None, e)]
    best = max(c for c, _ in counted)
    return (n, edge_count, best, tuple(name for c, name in counted if c == best))


def result_tuple(r):
    return (r.n, r.edge_count, r.max_count, r.maximizers)


@st.composite
def patterns_and_orders(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(n, 5)))
    h = graphs.SmallGraph(k, draw(st.integers(0, (1 << k * (k - 1) // 2) - 1)))
    return h, n, draw(st.integers(0, n * (n - 1) // 2))


@given(patterns_and_orders())
@example((complete(1), 1, 0))
@example((empty(1), 6, 4))
@example((K221, 5, 8))
@example((turan(2, 4), 4, 3))
def test_search_matches_listing_reference(case):
    h, n, edge_count = case
    listed = listing_reference(h, n)
    table = max_density_table(h, n)
    assert [result_tuple(r) for r in table] == [
        reference_result(n, e, listed) for e in sorted({e for e, _, _ in listed})
    ]
    assert all(r.density == Fraction(r.max_count, math.comb(n, h.n)) for r in table)
    one = max_density_search(h, n, edge_count)
    assert result_tuple(one) == reference_result(n, edge_count, listed)
    assert result_tuple(max_density_search(h, n)) == reference_result(n, None, listed)


def test_search_csv_shape():
    assert SEARCH_CSV_HEADER == "n,edges,max_count,density,maximizers"
    row = max_density_search(K221, 5, 8).csv_row()
    assert row.split(",")[:4] == ["5", "8", "1", "1"]
    any_row = max_density_search(K221, 5).csv_row()
    assert any_row.split(",")[1] == "any"


# ---------------------------------------------------------------------------
# side lemmas used by the counting argument


def test_am_gm_on_random_rational_triples():
    rng = random.Random(20260815)
    for _ in range(1000):
        x = [
            Fraction(rng.randrange(0, 400), rng.randrange(1, 40))
            for _ in range(3)
        ]
        assert x[0] * x[1] * x[2] <= (sum(x) / 3) ** 3
