"""Graph layer: encodings, canonical forms, counting, compositions."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcert import graphs
from flagcert.flags import MAX_BASIS_ORDER
from flagcert.graphs import (
    SmallGraph,
    _is_canonical,
    _min_code,
    _reversed,
    _rows,
    automorphism_count,
    blowup_graph,
    complete,
    count_induced,
    empty,
    emit_paircode,
    enumerate_graphs,
    from_graph6,
    induced_density,
    join,
    mask_to_code_bits,
    parse_graph,
    parse_paircode,
    to_graph6,
    turan,
    union,
)

K221 = turan(3, 5)


def small_graphs(max_n: int = 6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda m: SmallGraph(n, m)
        )
    )


# ---------------------------------------------------------------------------
# construction and encodings


def test_order_bounds():
    with pytest.raises(ValueError):
        SmallGraph(0, 0)
    with pytest.raises(ValueError):
        SmallGraph(10, 0)
    with pytest.raises(ValueError):
        SmallGraph(3, 1 << 3)  # only 3 pair bits at order 3


def test_paircode_round_trip():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert parse_paircode(emit_paircode(g)) == g


def test_paircode_rejects_garbage():
    with pytest.raises(ValueError):
        parse_paircode("2 0 2")
    with pytest.raises(ValueError):
        parse_paircode("2 2")  # 2 pairs is not a triangular count


def test_k221_pair_codes_decode_to_one_class():
    a = parse_paircode("2 2 2 1 1 2 2 2 2 2")
    b = parse_paircode("1 2 2 2 2 2 2 1 2 2")
    assert a.canonical_form() == b.canonical_form() == K221.canonical_form()
    assert a.edge_count == 8
    assert a.degree_sequence() == (3, 3, 3, 3, 4)


def test_graph6_k5():
    assert to_graph6(complete(5)) == "D~{"
    assert from_graph6("D~{") == complete(5)


def test_graph6_round_trip():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_parse_graph_accepts_both():
    assert parse_graph("D~{") == complete(5)
    assert parse_graph("2 2 2") == complete(3)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert [len(enumerate_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_enumeration_order8_count():
    assert len(enumerate_graphs(8)) == 12346  # OEIS A000088


def test_enumeration_keeps_candidates_out_of_caches():
    # order 7 tests 156 * 2**6 = 9984 candidates; none of them, and none of
    # the parents, may stay in the code cache
    for cache in (graphs._enumerate, graphs._min_code_cached):
        cache.cache_clear()
    assert len(enumerate_graphs(7)) == 1044
    assert graphs._min_code_cached.cache_info().currsize == 0


def test_column_bound_skips_only_non_canonical_children():
    # a child whose new column is below twice the identity column of vertex
    # m-1 gets a smaller code by swapping the two, so every such candidate
    # must fail the canonicity test the generator no longer runs on it
    checked = 0
    for fixed in range(4):
        for type_mask in range(1 << fixed * (fixed - 1) // 2):
            for m in range(fixed + 1, 7):  # vertex m-1 is not pinned
                # the column lists vertex 0 first, the mask has it lowest
                nbrs_of = [
                    sum(1 << i for i in range(m) if col >> (m - 1 - i) & 1)
                    for col in range(1 << m)
                ]
                for g in graphs._enumerate(m, fixed, type_mask):
                    prev_col = mask_to_code_bits(m, g.mask) & (1 << m - 1) - 1
                    prows = g.rows()
                    for col in range(prev_col << 1):
                        nbrs = nbrs_of[col]
                        rows = tuple(r | (nbrs >> u & 1) << m for u, r in enumerate(prows))
                        assert not _is_canonical(rows + (nbrs,), fixed)
                        checked += 1
    assert checked == 450650


def test_enumeration_is_canonical_and_sorted():
    # certificates name listed classes by their own pair codes: every
    # listing up to the largest basis order yields canonical forms
    for n in range(1, MAX_BASIS_ORDER + 1):
        graphs = enumerate_graphs(n)
        assert all(g == g.canonical_form() for g in graphs)
        bits = [mask_to_code_bits(g.n, g.mask) for g in graphs]
        assert bits == sorted(bits)


def test_enumeration_order_cap():
    # one guard for every listing: the orders the representation holds
    with pytest.raises(ValueError, match="^order 10 outside 1..9$"):
        enumerate_graphs(10)
    with pytest.raises(ValueError, match="^order 0 outside 1..9$"):
        enumerate_graphs(0)


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(20260815)
    for g in enumerate_graphs(5):
        canon = g.canonical_form()
        for _ in range(50):
            perm = tuple(rng.sample(range(5), 5))
            assert g.relabelled(perm).canonical_form() == canon


@given(small_graphs(7), st.integers(0, 7), st.booleans())
def test_canonicity_test_matches_minimisation(g, fixed, canonize):
    fixed = min(fixed, g.n)
    mask = g.mask
    if canonize:  # canonical forms are rare among random masks
        mask = _reversed(_min_code(g.n, mask, fixed), g.pair_count)
    expect = _min_code(g.n, mask, fixed) == mask_to_code_bits(g.n, mask)
    assert _is_canonical(_rows(g.n, mask), fixed) == expect


def _brute_min_code(n: int, mask: int, fixed: int) -> int:
    """Least identity-order code over all relabellings fixing 0..fixed-1."""
    g = SmallGraph(n, mask)
    return min(
        mask_to_code_bits(n, g.relabelled(tuple(range(fixed)) + tail).mask)
        for tail in itertools.permutations(range(fixed, n))
    )


def test_min_code_matches_brute_force_up_to_order_5():
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            for fixed in range(n + 1):
                assert _min_code(n, mask, fixed) == _brute_min_code(n, mask, fixed)


@given(st.integers(6, 7).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1), st.integers(0, n)
    )
))
def test_min_code_matches_brute_force_at_orders_6_and_7(case):
    n, mask, fixed = case
    assert _min_code(n, mask, fixed) == _brute_min_code(n, mask, fixed)


@given(small_graphs(5))
def test_canonical_form_idempotent(g):
    assert g.canonical_form().canonical_form() == g.canonical_form()


@given(small_graphs(5))
def test_complement_involution(g):
    assert g.complement().complement() == g


# ---------------------------------------------------------------------------
# induced counting


def test_counting_anchors():
    t36 = turan(3, 6)
    assert count_induced(K221, t36) == 6
    assert induced_density(complete(2), t36) == Fraction(4, 5)
    assert induced_density(K221, t36) == 1
    assert count_induced(K221, complete(5)) == 0
    assert count_induced(K221, union(complete(4), empty(3))) == 0
    assert induced_density(complete(2), empty(6)) == 0


def test_density_requires_small_pattern():
    with pytest.raises(ValueError):
        induced_density(complete(4), complete(3))
    assert count_induced(complete(4), complete(3)) == 0


def test_same_order_density_is_isomorphism_indicator():
    for n in (4, 5):
        basis = enumerate_graphs(n)
        for f in basis:
            for g in basis:
                assert count_induced(f, g) == (1 if f == g else 0)


def test_chain_rule():
    rng = random.Random(7)
    hosts = rng.sample(enumerate_graphs(6), 12)
    mids = enumerate_graphs(4)
    for h in (complete(2), parse_paircode("2 2 1")):
        for g in hosts:
            direct = induced_density(h, g)
            via = sum(
                (induced_density(h, f) * induced_density(f, g) for f in mids),
                Fraction(0),
            )
            assert direct == via


@given(small_graphs(3), small_graphs(6))
def test_complement_duality(h, g):
    assert count_induced(h, g) == count_induced(h.complement(), g.complement())


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _classes(orders):
    return [g for n in orders for g in enumerate_graphs(n)]


def test_counts_are_frozen():
    # digests recorded before the embedding backtracker replaced the
    # subset-by-canonical-code count and the degree-filtered automorphism count
    small = _digest(
        f"{to_graph6(h)} {to_graph6(g)} {count_induced(h, g)}"
        for h in _classes(range(1, 6))
        for g in _classes(range(1, 7))
    )
    assert small == "b5041a2b75204ef28f28df8e519ee79399867ab4988e968d16c33cebafc5b01a"
    target = _digest(f"{to_graph6(g)} {count_induced(K221, g)}" for g in _classes(range(1, 9)))
    assert target == "981694e298f4b092f6049ec189059d92e8a6894bdd5a30b8ec9c527eed26f29d"
    aut = _digest(f"{to_graph6(g)} {automorphism_count(g)}" for g in _classes(range(1, 8)))
    assert aut == "dbd5cc3eed3adac2fd51cf2a19a95e9d7169579752132cd2d03a531ad40a4699"


@given(small_graphs(5), small_graphs(7))
def test_counts_match_permutation_reference(h, g):
    # a permutation p puts a copy of h on g's vertices 0..|h|-1 exactly when
    # the first C(|h|, 2) bits of g.relabelled(p) are h's mask; each
    # embedding of h extends to (|g|-|h|)! permutations
    low = (1 << h.pair_count) - 1
    hits = aut_g = 0
    for p in itertools.permutations(range(g.n)):
        image = g.relabelled(p)
        aut_g += image == g
        hits += h.n <= g.n and image.mask & low == h.mask
    aut_h = sum(h.relabelled(p) == h for p in itertools.permutations(range(h.n)))
    embeddings = hits // math.factorial(max(g.n - h.n, 0))
    assert automorphism_count(g) == aut_g
    assert automorphism_count(h) == aut_h
    assert count_induced(h, g) == embeddings // aut_h


# ---------------------------------------------------------------------------
# compositions and automorphisms


def test_turan_part_sizes():
    g = turan(3, 7)
    # parts (3,2,2): non-edges are the within-part pairs, 3 + 1 + 1
    assert g.edge_count == 7 * 6 // 2 - (3 + 1 + 1)
    assert turan(3, 5).canonical_form() == K221.canonical_form()


def test_join_and_union():
    g = join(empty(2), empty(3))  # K_{2,3}
    assert g.edge_count == 6
    assert union(complete(3), complete(2)).edge_count == 4
    assert join(complete(2), complete(3)) == complete(5)


def test_blowup_graph():
    assert blowup_graph(complete(2), (2, 3)).canonical_form() == join(
        empty(2), empty(3)
    ).canonical_form()
    assert blowup_graph(complete(3), (2, 2, 2)).canonical_form() == turan(3, 6).canonical_form()


def _labelled_graphs(max_n: int):
    """Every labelled graph of order 1..max_n."""
    return [
        SmallGraph(n, mask)
        for n in range(1, max_n + 1)
        for mask in range(1 << n * (n - 1) // 2)
    ]


def _adjacency(g: SmallGraph) -> dict[tuple[int, int], bool]:
    """Each pair i < j of g, read through ``adjacent`` only."""
    return {(i, j): g.adjacent(i, j) for j in range(g.n) for i in range(j)}


@given(small_graphs(7), st.data())
def test_relabelled_and_edges_follow_adjacent(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    image = g.relabelled(perm)
    assert image.n == g.n
    assert all(
        image.adjacent(perm[i], perm[j]) == edge for (i, j), edge in _adjacency(g).items()
    )
    assert g.edges() == [(i, j) for j in range(g.n) for i in range(j) if g.adjacent(i, j)]


def test_builders_follow_their_pairwise_definitions():
    # every builder against its definition, read through ``adjacent`` only;
    # ``relabelled`` is the reference of ``_brute_min_code``
    small = _labelled_graphs(4)
    for g in small:
        for h in small:
            n = g.n + h.n
            for build, across in ((union, False), (join, True)):
                out = build(g, h)
                assert out.n == n
                for (i, j), edge in _adjacency(out).items():
                    if j < g.n:
                        assert edge == g.adjacent(i, j)
                    elif i >= g.n:
                        assert edge == h.adjacent(i - g.n, j - g.n)
                    else:
                        assert edge == across
    for k in range(1, 11):
        for n in range(1, graphs.MAX_ORDER + 1):
            t = turan(k, n)
            assert _adjacency(t) == {pair: pair[0] % k != pair[1] % k for pair in _adjacency(t)}
    for base in _labelled_graphs(4):
        for sizes in itertools.product(range(3), repeat=base.n):
            if not 1 <= sum(sizes) <= graphs.MAX_ORDER:
                continue
            owner = [v for v, s in enumerate(sizes) for _ in range(s)]
            out = blowup_graph(base, sizes)
            assert out.n == len(owner)
            assert all(
                edge == (owner[i] != owner[j] and base.adjacent(owner[i], owner[j]))
                for (i, j), edge in _adjacency(out).items()
            )


def test_compositions_refuse_orders_through_the_one_guard():
    # turan and blowup_graph refuse before building: the mask loop would
    # take minutes at order 3000 before SmallGraph saw the order
    for build in (
        lambda: union(complete(5), empty(5)),
        lambda: join(empty(9), empty(1)),
        lambda: turan(3, 10),
        lambda: turan(3, 10**6),
        lambda: turan(3, 0),
        lambda: blowup_graph(complete(2), (5, 5)),
        lambda: blowup_graph(complete(2), (10**6, 10**6)),
        lambda: blowup_graph(complete(2), (0, 0)),
    ):
        with pytest.raises(ValueError, match="^order [0-9]+ outside 1..9$"):
            build()
    assert union(complete(4), empty(5)).n == graphs.MAX_ORDER


def test_automorphism_counts():
    assert automorphism_count(complete(5)) == 120
    assert automorphism_count(parse_paircode("2 1 1 2 1 2")) == 2  # 4-vertex path
    assert automorphism_count(turan(3, 6)) == 48
    assert automorphism_count(K221) == 8


def test_degree_and_edges():
    g = parse_paircode("2 1 2 1 2 2")
    assert sorted(g.degree(v) for v in range(4)) == sorted(g.degree_sequence())
    assert len(g.edges()) == g.edge_count
