"""Typed flags: bases, products, unlabelling, lifting, quadratic forms."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcert import flags
from flagcert.constructions import BlowupModel, model_value
from flagcert.exactmath import KPolynomial, RationalFunction, SymMatrix, psd_check
from flagcert.flags import (
    Flag,
    FlagVector,
    bilinear_expansion,
    expand_quadratic_form,
    flag_basis,
    flag_product,
    lift,
    unlabel,
)
from flagcert.graphs import (
    SmallGraph,
    _enumerate,
    _induced_mask,
    _min_code_cached,
    complete,
    empty,
    enumerate_graphs,
    induced_density,
    parse_paircode,
)

EDGE0 = Flag(complete(2), 0)
EDGE1 = Flag(complete(2), 1)
ROOTED_TRIANGLE = Flag(complete(3), 1)
CHERRY_AT_CENTER = Flag(parse_paircode("2 2 1"), 1)
C4 = parse_paircode("2 1 2 2 1 2")


# ---------------------------------------------------------------------------
# reference implementations (independent of the engine)


def ref_product(f1: Flag, f2: Flag) -> dict[int, Fraction]:
    """Product coefficients by direct subset enumeration, keyed by flag bits."""
    s = f1.labels
    l = f1.order + f2.order - s
    out = {}
    for target in flag_basis(f1.type_graph(), l):
        free = list(range(s, l))
        hits, total = 0, 0
        for sub1 in itertools.combinations(free, f1.order - s):
            sub2 = tuple(v for v in free if v not in sub1)
            total += 1
            g1 = Flag(target.graph.induced(tuple(range(s)) + sub1), s)
            g2 = Flag(target.graph.induced(tuple(range(s)) + sub2), s)
            if g1.isomorphic(f1) and g2.isomorphic(f2):
                hits += 1
        if hits:
            out[target.canonical_bits()] = Fraction(hits, total)
    return out


def flag_fits(host: SmallGraph, theta: tuple[int, ...], type_graph) -> bool:
    if not theta:
        return True
    ind = host.induced(theta)
    return ind.mask == type_graph.mask


def direct_square_density(matrix, flags, host: SmallGraph) -> Fraction:
    """Density of [[ sum_ij M_ij F_i F_j ]] in host by full enumeration."""
    s = flags[0].labels
    tg = flags[0].type_graph()
    n = host.n
    free_size = sum(f.order - s for f in flags[:1]) * 2  # both factors same order
    thetas = list(itertools.permutations(range(n), s)) if s else [()]
    total = Fraction(0)
    for theta in thetas:
        if s and not flag_fits(host, theta, tg):
            continue
        free = [v for v in range(n) if v not in theta]
        n1 = flags[0].order - s
        part_total, acc = 0, Fraction(0)
        for sub1 in itertools.combinations(free, n1):
            sub2 = tuple(v for v in free if v not in sub1)
            if len(sub2) != n1:
                raise AssertionError("host order must match expansion order")
            part_total += 1
            g1 = Flag(host.induced(theta + tuple(sub1)), s)
            g2 = Flag(host.induced(theta + sub2), s)
            i_hits = [i for i, f in enumerate(flags) if g1.isomorphic(f)]
            j_hits = [j for j, f in enumerate(flags) if g2.isomorphic(f)]
            for i in i_hits:
                for j in j_hits:
                    acc += matrix[i][j]
        total += acc / part_total
    return total / len(thetas)


# ---------------------------------------------------------------------------
# bases


def test_flag_basis_counts_label_free():
    assert [len(flag_basis(None, l)) for l in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_flag_basis_edge_type_order4_matches_independent_dedup():
    # all 4-vertex graphs with vertices 0,1 adjacent, up to isomorphisms
    # fixing 0 and 1 pointwise or swapping them (the type is symmetric,
    # but flags pin labels in order, so only label-preserving maps count)
    seen = set()
    for mask in range(1 << 6):
        g = SmallGraph(4, mask)
        if not g.adjacent(0, 1):
            continue
        best = None
        for perm_rest in itertools.permutations((2, 3)):
            perm = (0, 1) + perm_rest
            relabeled = g.relabelled(perm).mask
            best = relabeled if best is None else min(best, relabeled)
        seen.add(best)
    assert len(flag_basis(complete(2), 4)) == len(seen)


def test_flag_bases_are_frozen():
    # every basis over a type of order <= 5 up to order 6, as recorded
    # before the bases came from orderly generation: same flags, same order
    types = [None] + [g for s in range(1, 6) for g in enumerate_graphs(s)]
    lines = []
    for t in types:
        s, tm = (0, 0) if t is None else (t.n, t.mask)
        for l in range(max(s, 1), 7):
            for f in flag_basis(t, l):
                lines.append(f"{s} {tm} {l} {f.graph.n} {f.graph.mask}\n")
    assert len(lines) == 11042
    assert (
        hashlib.sha256("".join(lines).encode()).hexdigest()
        == "270d5ff2bd83bda46caa299fe1769889a309b2ab71795807fc23abb4e21a1e3a"
    )


def test_flag_basis_type_embedding():
    for f in flag_basis(complete(2), 4):
        assert f.labels == 2
        assert f.graph.adjacent(0, 1)


# ---------------------------------------------------------------------------
# products


def test_edge_times_edge_label_free():
    prod = flag_product(EDGE0, EDGE0)
    assert prod.coefficient(Flag(C4, 0)) == Fraction(2, 3)


def test_rooted_edge_squared():
    prod = flag_product(EDGE1, EDGE1)
    hits = {str(f): c for f, c in prod.items() if c}
    assert prod.coefficient(ROOTED_TRIANGLE) == 1
    assert prod.coefficient(CHERRY_AT_CENTER) == 1
    assert len(hits) == 2


def test_product_matches_reference_and_commutes():
    types = [None, empty(1), complete(2), empty(2)]
    for tg in types:
        s = 0 if tg is None else tg.n
        flags = [f for l in range(max(s, 1), 4) for f in flag_basis(tg, l)]
        for f1 in flags:
            for f2 in flags:
                if f1.order + f2.order - s > 6:
                    continue
                left = flag_product(f1, f2)
                right = flag_product(f2, f1)
                ref = ref_product(f1, f2)
                got = {
                    f.canonical_bits(): c for f, c in left.items() if c
                }
                assert got == ref, (str(f1), str(f2))
                assert {f.canonical_bits(): c for f, c in right.items() if c} == ref


# ---------------------------------------------------------------------------
# unlabelling


def test_unlabel_anchors():
    v = FlagVector(1, 3)
    v.add(ROOTED_TRIANGLE, Fraction(1))
    u = unlabel(v)
    assert u.coefficient(Flag(complete(3), 0)) == 1

    w = FlagVector(1, 3)
    w.add(CHERRY_AT_CENTER, Fraction(1))
    uw = unlabel(w)
    assert uw.coefficient(Flag(parse_paircode("2 2 1"), 0)) == Fraction(1, 3)


def test_unlabel_is_identity_on_label_free():
    v = FlagVector(0, 3)
    v.add(Flag(complete(3), 0), Fraction(2))
    v.add(Flag(parse_paircode("2 2 1"), 0), Fraction(-1, 2))
    u = unlabel(v)
    assert {f.canonical_bits() for f, _ in u.items()} == {
        f.canonical_bits() for f, _ in v.items()
    }
    # and it commutes with lifting
    left = unlabel(lift(v, 5))
    right = lift(unlabel(v), 5)
    assert {(f.canonical_bits(), c) for f, c in left.items()} == {
        (f.canonical_bits(), c) for f, c in right.items()
    }


def test_unlabel_preserves_total_density_weight():
    # sum over F_l of p(random placement yields F) is 1, so unlabelling the
    # all-ones labeled vector gives the all-ones label-free vector
    ones = FlagVector(1, 3)
    for f in flag_basis(empty(1), 3):
        ones.add(f, Fraction(1))
    u = unlabel(ones)
    assert all(c == 1 for _, c in u.items())
    assert len(list(u.items())) == 4


def test_unlabel_rejects_mixed_types():
    # labels adjacent and labels apart: two types can no longer share one
    # vector, so unlabel never sees them together
    adjacent, apart = Flag(parse_paircode("2 1 1"), 2), Flag(parse_paircode("1 1 1"), 2)
    assert (adjacent.type_mask, apart.type_mask) == (1, 0)
    v = FlagVector(2, 3)
    v.add(adjacent, Fraction(1))
    with pytest.raises(ValueError, match="another type"):
        v.add(apart, Fraction(1))
    w = FlagVector(2, 3, [(apart, Fraction(1))])
    with pytest.raises(ValueError, match="different types"):
        v + w
    # each type alone unlabels: s=2;2 1 1 is the edge uv with a third
    # vertex apart, s=2;1 1 1 the empty triangle
    assert [(str(f), c) for f, c in unlabel(v).items()] == [("s=0;1 1 2", Fraction(1, 3))]
    assert [(str(f), c) for f, c in unlabel(w).items()] == [("s=0;1 1 1", Fraction(1))]


# ---------------------------------------------------------------------------
# lifting


def test_lift_coefficients_are_densities():
    v = FlagVector(0, 3)
    tri = Flag(complete(3), 0)
    v.add(tri, Fraction(3))
    lifted = lift(v, 5)
    for g in enumerate_graphs(5):
        assert lifted.coefficient(Flag(g, 0)) == 3 * induced_density(complete(3), g)


def test_lift_same_order_is_identity():
    v = FlagVector(0, 4)
    v.add(Flag(C4, 0), Fraction(7, 2))
    v.add(Flag(complete(4), 0), Fraction(0))
    same = lift(v, 4)
    assert same.coefficient(Flag(C4, 0)) == Fraction(7, 2)
    # a fresh vector without the zero coefficient, over the enumerated
    # canonical forms; changing it leaves the input alone
    assert same is not v
    assert [(f.canonical_bits(), c) for f, c in same.items()] == [
        (Flag(C4, 0).canonical_bits(), Fraction(7, 2))
    ]
    assert all(f.graph in enumerate_graphs(4) for f, _ in same.items())
    before = sorted(v.coeffs.items())
    same.add(Flag(C4, 0), Fraction(1))
    same.add(Flag(empty(4), 0), Fraction(1))
    assert sorted(v.coeffs.items()) == before


_K = KPolynomial([0, 1])
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
rf_coefficients = st.tuples(small_fractions, small_fractions, small_fractions).map(
    lambda t: RationalFunction(t[0] + t[1] * _K, _K + t[2])
)


@st.composite
def label_free_vectors(draw):
    m = draw(st.integers(1, 6))
    l = draw(st.integers(m, 6))
    basis = flag_basis(None, m)
    picks = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=4))
    coeffs = small_fractions if draw(st.booleans()) else rf_coefficients
    v = FlagVector(0, m)
    for i in picks:
        v.add(basis[i], draw(coeffs | st.just(Fraction(0))))
    return v, l


@settings(max_examples=40, deadline=None)
@given(label_free_vectors())
def test_lift_matches_density_definition(case):
    v, l = case
    expected = {}
    for g in enumerate_graphs(l):
        acc = 0
        for f, c in v.items():
            acc = acc + c * induced_density(f.graph, g)
        if acc != 0:  # a RationalFunction is truthy even when zero
            expected[Flag(g, 0).canonical_bits()] = acc
    before = sorted(v.coeffs.items())
    lifted = lift(v, l)
    assert lifted is not v and lifted.order == l and lifted.labels == 0
    assert {f.canonical_bits(): c for f, c in lifted.items()} == expected
    assert sorted(v.coeffs.items()) == before


def test_lift_preserves_model_value():
    rng = random.Random(99)
    v = FlagVector(0, 3)
    for f in flag_basis(None, 3):
        v.add(f, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    for _ in range(5):
        base_n = rng.randint(2, 4)
        base = SmallGraph(
            base_n, rng.randrange(1 << (base_n * (base_n - 1) // 2))
        )
        raw = [rng.randint(1, 6) for _ in range(base_n)]
        weights = tuple(Fraction(x, sum(raw)) for x in raw)
        model = BlowupModel(base, weights)
        assert model_value(model, v) == model_value(model, lift(v, 6))


# ---------------------------------------------------------------------------
# quadratic forms


def _k3_square_data():
    rows = [
        "4/3 ; 2/5 ; -629/3000 ; -441/1000 ; -512/375 ; 2/3",
        "2/5 ; 3/10 ; -33/200 ; -3/8 ; -31/50 ; 1/5",
        "-629/3000 ; -33/200 ; 5243/15000 ; 531/2500 ; -709/3750 ; -349/750",
        "-441/1000 ; -3/8 ; 531/2500 ; 2863/5000 ; 867/1250 ; -284/625",
        "-512/375 ; -31/50 ; -709/3750 ; 867/1250 ; 3734/1875 ; -92/375",
        "2/3 ; 1/5 ; -349/750 ; -284/625 ; -92/375 ; 278/375",
    ]
    matrix = [[Fraction(tok.strip()) for tok in row.split(";")] for row in rows]
    flags = [
        Flag(g, 2)
        for g in (
            parse_paircode("2 1 1 2 2 1"),
            parse_paircode("2 2 2 2 2 2"),
            parse_paircode("2 1 2 2 2 2"),
            parse_paircode("2 2 2 1 2 2"),
            parse_paircode("2 2 2 2 2 1"),
            parse_paircode("2 1 2 2 1 2"),
        )
    ]
    return matrix, flags


def test_quadratic_form_matches_direct_enumeration():
    matrix, flags = _k3_square_data()
    expansion = expand_quadratic_form(matrix, flags)
    rng = random.Random(4)
    hosts = rng.sample(enumerate_graphs(6), 20)
    for host in hosts:
        got = expansion.coefficient(Flag(host, 0))
        want = direct_square_density(matrix, flags, host)
        assert got == want, str(host)


def test_quadratic_form_order5_matches_direct_enumeration():
    flags = [
        Flag(parse_paircode("1 2 1 2 1 2"), 3),
        Flag(parse_paircode("1 2 2 2 2 2"), 3),
        Flag(parse_paircode("1 2 2 2 2 1"), 3),
    ]
    matrix = [
        [Fraction(91), Fraction(12), Fraction(-115)],
        [Fraction(12), Fraction(41), Fraction(-94)],
        [Fraction(-115), Fraction(-94), Fraction(303)],
    ]
    expansion = expand_quadratic_form(matrix, flags)
    for host in enumerate_graphs(5)[::3]:
        assert expansion.coefficient(Flag(host, 0)) == direct_square_density(
            matrix, flags, host
        )


def test_psd_quadratic_form_nonnegative_on_models():
    matrix = [
        [Fraction(91), Fraction(12), Fraction(-115)],
        [Fraction(12), Fraction(41), Fraction(-94)],
        [Fraction(-115), Fraction(-94), Fraction(303)],
    ]
    assert psd_check(SymMatrix.from_rows(matrix)).psd
    flags = [
        Flag(parse_paircode("1 2 1 2 1 2"), 3),
        Flag(parse_paircode("1 2 2 2 2 2"), 3),
        Flag(parse_paircode("1 2 2 2 2 1"), 3),
    ]
    expansion = expand_quadratic_form(matrix, flags)
    rng = random.Random(11)
    for _ in range(10):
        base_n = rng.randint(2, 5)
        base = SmallGraph(
            base_n, rng.randrange(1 << (base_n * (base_n - 1) // 2))
        )
        raw = [rng.randint(1, 9) for _ in range(base_n)]
        weights = tuple(Fraction(x, sum(raw)) for x in raw)
        value = model_value(BlowupModel(base, weights), expansion)
        assert value >= 0


def test_bilinear_expansion_matches_product():
    v = FlagVector(0, 2)
    v.add(EDGE0, Fraction(1))
    expansion = bilinear_expansion(v, v)
    direct = flag_product(EDGE0, EDGE0)
    assert expansion.coefficient(Flag(C4, 0)) == Fraction(2, 3)
    for f, c in direct.items():
        assert expansion.coefficient(f) == c


def test_bilinear_expansion_is_bilinear():
    a = FlagVector(0, 2)
    a.add(EDGE0, Fraction(2))
    b = FlagVector(0, 2)
    b.add(Flag(empty(2), 0), Fraction(1, 3))
    c = FlagVector(0, 3)
    c.add(Flag(complete(3), 0), Fraction(1))
    left = bilinear_expansion(a + b, c)
    expected = bilinear_expansion(a, c) + bilinear_expansion(b, c)
    keys = {f.canonical_bits() for f, _ in left.items()} | {
        f.canonical_bits() for f, _ in expected.items()
    }
    lmap = {f.canonical_bits(): c2 for f, c2 in left.items()}
    emap = {f.canonical_bits(): c2 for f, c2 in expected.items()}
    for kb in keys:
        assert lmap.get(kb, 0) == emap.get(kb, 0)


def test_flag_vector_validation():
    v = FlagVector(1, 3)
    with pytest.raises(ValueError):
        v.add(Flag(complete(2), 1), Fraction(1))  # wrong order
    with pytest.raises(ValueError):
        v.add(Flag(complete(3), 2), Fraction(1))  # wrong label count


def test_label_free_key_is_the_canonical_form_mask():
    # one key per class: a flag with no labels is keyed by its graph's
    # canonical form, every edge mask of order <= 5
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            g = SmallGraph(n, mask)
            assert Flag(g, 0).canonical_bits() == g.canonical_form().mask


def test_vector_type_mask_is_its_flags_type_mask():
    # the vector reads the type off a key's low bits, over every type of
    # order <= 3; the unlabelled vertices of each flag come in reversed
    for s in range(1, 4):
        for t in enumerate_graphs(s):
            for l in range(s + 1, 6):
                v = FlagVector(s, l)
                assert v._type_mask() is None
                for f in flag_basis(t, l):
                    perm = tuple(range(s)) + tuple(range(l - 1, s - 1, -1))
                    v.add(Flag(f.graph.relabelled(perm), s), Fraction(1))
                    assert v._type_mask() == f.type_mask == t.mask
                assert {f.type_mask for f, _ in v.items()} == {t.mask}


# ---------------------------------------------------------------------------
# the count table against the direct loop


def ref_count_table(s, type_mask, l, parts, pinned=False):
    """The count table by permutations, induced masks and canonical forms."""
    sizes = tuple(p - s for p in parts)
    free = tuple(range(l - s))
    splits = flags._splits(free, sizes)
    subsets = [u for k in set(sizes) for u in itertools.combinations(free, k)]
    hosts = _enumerate(l, s, type_mask) if pinned else _enumerate(l, 0, 0)
    rows = []
    for host in hosts:
        grows = SmallGraph(l, host).rows()
        counts = {}
        thetas = [tuple(range(s))] if pinned else [
            theta
            for theta in itertools.permutations(range(l), s)
            if _induced_mask(grows, theta) == type_mask
        ]
        for theta in thetas:
            rest = [v for v in range(l) if v not in theta]
            code = {
                u: _min_code_cached(
                    s + len(u), _induced_mask(grows, theta + tuple(rest[i] for i in u)), s
                )
                for u in subsets
            }
            for split in splits:
                key = tuple(code[u] for u in split)
                counts[key] = counts.get(key, 0) + 1
        rows.append((host, counts))
    return rows, len(splits) * (1 if pinned else math.perm(l, s))


# the tables behind the four bundled certificates
BUNDLED_TABLE_KEYS = [
    (0, 0, 5, (3, 2)), (0, 0, 6, (3, 3)), (0, 0, 6, (4, 2)), (0, 0, 6, (5,)),
    (2, 1, 6, (4, 4)), (3, 0, 5, (4, 4)), (3, 3, 5, (4, 4)), (3, 6, 5, (4, 4)),
]


def _table_keys():
    """Every table an operation asks for, over labelled types of order <= 3.

    Hosts have order l <= 6.  ``unlabel`` reads one part of order l, a lift
    (type order 0) one part of any order, and the product and the pair
    expansions two parts that share out all l - s unlabelled vertices.
    """
    for s in range(4):
        for type_mask in range(1 << s * (s - 1) // 2):
            for l in range(max(s, 1), 7):
                for p in range(s + 1, l + 1):
                    if s == 0 or p == l:
                        yield s, type_mask, l, (p,)
                    if p < l:
                        yield s, type_mask, l, (p, l - p + s)


def test_count_table_keys_cover_the_bundle():
    keys = set(_table_keys())
    assert set(BUNDLED_TABLE_KEYS) <= keys and len(keys) == 119


@pytest.mark.parametrize("pinned", [False, True])
def test_count_table_matches_direct_loop(pinned):
    table = flags._count_table.__wrapped__  # the cache stays as it was
    for key in BUNDLED_TABLE_KEYS + list(_table_keys()):
        assert table(*key, pinned) == ref_count_table(*key, pinned), key
