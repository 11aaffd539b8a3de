"""Edge-local counting, the degree-triple scan, and the exhaustive search."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

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
    _scan_cell,
    counting_identity_check,
    degree_local_data,
    edge_local_count,
    max_density_search,
    max_density_table,
    nonneighbor_product_sum,
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
    assert report.substitution_disagreements == ()


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
    pqs, n, checked, [(violations, disagreements)] = _scan_cell((((5, 2),), 12, 1))
    assert (pqs, n) == (((5, 2),), 12)
    assert violations
    assert disagreements == []
    with pytest.raises(ValueError):
        want_inequality_scan([Fraction(5, 2)], 12)


BELOW_THREE = (Fraction(5, 2), Fraction(8, 3), Fraction(11, 4))


def _cell_violations(pqs, n_max):
    # (n, d_u, d_v, d_uv, which) per k, in report order, from the per-n cells
    out = [[] for _ in pqs]
    checked = 0
    for n in range(1, n_max + 1):
        _, _, cell_checked, per_k = _scan_cell((pqs, n, 1))
        checked += cell_checked
        for found, (violations, disagreements) in zip(out, per_k):
            assert disagreements == []
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


def test_scan_input_validation():
    with pytest.raises(ValueError):
        want_inequality_scan([], 10)
    with pytest.raises(ValueError):
        want_inequality_scan([3], 0)
    with pytest.raises(ValueError):
        want_inequality_scan([3], 10, grid_denominator=0)


def test_scan_dedupes_and_sorts_k():
    report = want_inequality_scan([5, 3, Fraction(5), 3], 4)
    assert report.k_values == (3, 5)


def test_scan_refined_grid():
    coarse = want_inequality_scan([4], 4)
    fine = want_inequality_scan([4], 4, grid_denominator=2)
    assert fine.passed
    assert fine.triples_checked > coarse.triples_checked
    # half-integer grid points hit the tight complete-multipartite degrees
    # already at n = 2: d = 3/2, d_uv = 1
    assert [(t.n, t.d, t.d_uv) for t in fine.turan_equalities] == [
        (2, Fraction(3, 2), Fraction(1)),
        (4, Fraction(3), Fraction(2)),
    ]


def test_scan_workers_agree():
    solo = want_inequality_scan([3, 4], 10)
    multi = want_inequality_scan([3, 4], 10, workers=2)
    assert solo == multi


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
    # tables: with it cut off, counts and the order-6 table are unchanged
    graphs.enumerate_graphs(6)  # the host listing does use it
    graphs.automorphism_count.cache_clear()

    def cut(*args):
        raise AssertionError("the oracle reached the canonical-code search")

    monkeypatch.setattr(graphs, "_min_code_cached", cut)
    monkeypatch.setattr(graphs, "_search", cut)
    t36 = turan(3, 6)
    assert count_induced(K221, t36) == 6
    assert graphs.automorphism_count(t36) == 48
    assert graphs.induced_density(complete(2), t36) == Fraction(4, 5)
    rows = "\n".join(r.csv_row() for r in max_density_table(K221, 6))
    assert (
        hashlib.sha256(rows.encode()).hexdigest()
        == "5312f0d73036a2662b178f2e213c96164cffd84a250c8acd9781ef3fe5273dc7"
    )


def test_search_workers_agree():
    solo = max_density_search(K221, 6)
    multi = max_density_search(K221, 6, workers=2)
    assert solo == multi


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


def test_regular_hosts_maximize_nonneighbor_sum():
    # reported, not asserted: the maximizer of sum (n-d_u)(n-d_v) per edge
    # count tends to minimize degree spread, matching the regularity
    # heuristic the counting argument leans on externally
    spread_gap = []
    for m in range(1, 16):
        hosts = [g for g in enumerate_graphs(6) if g.edge_count == m]
        best = max(nonneighbor_product_sum(g) for g in hosts)

        def spread(g):
            degs = [r.bit_count() for r in g.rows()]
            return max(degs) - min(degs)

        arg_spreads = {
            spread(g) for g in hosts if nonneighbor_product_sum(g) == best
        }
        min_spread = min(spread(g) for g in hosts)
        spread_gap.append((m, min(arg_spreads) - min_spread))
    report = ", ".join(f"m={m}: +{gap}" for m, gap in spread_gap)
    print(f"nonneighbor-sum maximizer spread above minimum: {report}")
    assert nonneighbor_product_sum(complete(5)) == 10  # (5-4)^2 per edge
    assert nonneighbor_product_sum(turan(3, 6)) == 12 * 4  # (6-4)^2 per edge
