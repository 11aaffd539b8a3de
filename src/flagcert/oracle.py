"""Brute-force ground truth for the counting argument.

Three independent checks live here:

* ``edge_local_count`` / ``counting_identity_check``: the edge-local count
  I(u, v) of induced K_{2,2,1} copies that use uv as an edge between the two
  2-classes, and the exhaustive identity  sum_{uv in E} I(u, v) = 4 * count.
* ``want_inequality_scan``: exact verification of the degree-triple
  inequality  (d_u-d_uv)(d_v-d_uv)d_uv - ((k-3)/k) n (n-d_u)(n-d_v) <= n^3/k^3
  over every admissible integer triple, for rational k >= 3.
* ``max_density_search``: exhaustive maximum of an induced-subgraph count
  over all isomorphism classes of one order, up to ``graphs.MAX_ORDER``
  (12346 classes at order 8, 274668 at the largest order).  Each class is
  counted from its canonical parent, up from the order-0 graph, and order
  n is never listed: pass 1 takes the maximum over every candidate child
  of the order-(n-1) classes, with no canonicity test, and pass 2 runs the
  listing's child step only on the candidates at the maximum.

Everything is exact: the scan clears denominators and works in (unbounded)
Python integers, so a reported pass is a proof for the scanned range.  The
scan runs one cell per n that tests every k on each row's largest cubic and
walks a row triple by triple only where that test fails.  Both the scan and
the search run in the calling process.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from ._frozen import _Frozen
from .graphs import (
    SmallGraph,
    _canonical_children,
    _enumerate,
    _start_column,
    check_order,
    count_induced,
    enumerate_graphs,
    to_graph6,
    turan,
)

# K_{2,2,1} = T_3(5): the pattern every check in this module is about.
_TARGET = turan(3, 5)


def target_graph() -> SmallGraph:
    """The K_{2,2,1} pattern used by the counting checks."""
    return _TARGET


# ---------------------------------------------------------------------------
# edge-local counting


def edge_local_count(g: SmallGraph, u: int, v: int) -> int:
    """Induced K_{2,2,1} copies of g using uv as an edge between the 2-classes.

    Each such copy arises from exactly one completion (x, u', v') with
    x a common neighbour, u' a neighbour of u only, v' a neighbour of v
    only, and all of xu', xv', u'v' edges.
    """
    if not g.adjacent(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = g.rows()
    full = (1 << g.n) - 1
    nu, nv = rows[u], rows[v]
    common = nu & nv
    only_u = nu & ~nv & ~(1 << v) & full
    only_v = nv & ~nu & ~(1 << u) & full
    total = 0
    cm = common
    while cm:
        x_bit = cm & -cm
        cm ^= x_bit
        rx = rows[x_bit.bit_length() - 1]
        um = only_u & rx
        vm = only_v & rx
        while um:
            u_bit = um & -um
            um ^= u_bit
            total += (vm & rows[u_bit.bit_length() - 1]).bit_count()
    return total


class DegreeLocalData(_Frozen):
    """Degree statistics of one edge uv in an n-vertex graph."""

    __slots__ = ("n", "d_u", "d_v", "d_uv", "i_uv")

    def __init__(self, n: int, d_u: int, d_v: int, d_uv: int, i_uv: int):
        if not (1 <= d_u <= n - 1 and 1 <= d_v <= n - 1):
            raise ValueError("endpoint degrees must lie in 1..n-1")
        if not max(0, d_u + d_v - n) <= d_uv <= min(d_u, d_v):
            raise ValueError("common-neighbour count out of range")
        if i_uv < 0:
            raise ValueError("edge-local count cannot be negative")
        self._fill(n, d_u, d_v, d_uv, i_uv)


def degree_local_data(g: SmallGraph, u: int, v: int) -> DegreeLocalData:
    """Collect (d_u, d_v, d_uv, I(u,v)) for an edge of g."""
    if not g.adjacent(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = g.rows()
    return DegreeLocalData(
        n=g.n,
        d_u=rows[u].bit_count(),
        d_v=rows[v].bit_count(),
        d_uv=(rows[u] & rows[v]).bit_count(),
        i_uv=edge_local_count(g, u, v),
    )


class IdentityCheckReport(
    namedtuple("IdentityCheckReport", "max_order graphs_checked exceptions")
):
    """Outcome of the exhaustive edge-local counting identity check."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.exceptions

    def lines(self) -> list[str]:
        out = [
            "identity: sum of edge-local counts = 4 * induced-copy count",
            f"orders checked: 1..{self.max_order}",
            f"graphs checked: {self.graphs_checked}",
            f"exceptions: {len(self.exceptions)}",
        ]
        out.extend(f"  counterexample {code}" for code in self.exceptions)
        return out


def counting_identity_check(max_n: int) -> IdentityCheckReport:
    """Check sum_{uv in E} I(u,v) == 4 * count(K_{2,2,1}) on every graph.

    Runs over all isomorphism classes of order <= max_n.  A copy has exactly
    four edges between its two 2-classes, so each side counts (copy, edge)
    incidences.  max_n is capped at 7 (1044 classes).
    """
    if not 1 <= max_n <= 7:
        raise ValueError("identity check supports orders 1..7")
    checked = 0
    bad: list[str] = []
    for n in range(1, max_n + 1):
        hosts = enumerate_graphs(n)
        for g, count in zip(hosts, _induced_counts(_TARGET, n, hosts)):
            checked += 1
            lhs = sum(edge_local_count(g, u, v) for u, v in g.edges())
            if lhs != 4 * count:
                bad.append(to_graph6(g))
    return IdentityCheckReport(max_n, checked, tuple(bad))


# ---------------------------------------------------------------------------
# degree-triple inequality scan

# The inequality, for k = p/q >= 3 and integer degrees a = d_u, b = d_v,
# c = d_uv, clears to integers:
#
#     p^3 (a-c)(b-c) c  -  p^2 (p-3q) n (n-a)(n-b)  <=  q^3 n^3.
#
# Multiplying by p^3 > 0 preserves the inequality, so the integer check is
# equivalent to the rational one.


class ScanViolation(namedtuple("ScanViolation", "k n d_u d_v d_uv inequality")):
    """A degree triple (d_u, d_v, d_uv) at order n and parameter k that
    breaks one inequality; ``inequality`` is "want" or "case-i"."""

    __slots__ = ()


class TuranEquality(namedtuple("TuranEquality", "k n d d_uv value")):
    """A scanned point where the inequality is exactly tight; ``value`` is
    both sides, n^3 / k^3."""

    __slots__ = ()


class ScanReport(
    namedtuple(
        "ScanReport",
        "k_values n_max triples_checked violations turan_equalities"
        " substitution_disagreements",
    )
):
    """Outcome of the degree-triple scan; each substitution disagreement is
    a (k, n, d_u, d_v) tuple."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations and not self.substitution_disagreements

    def lines(self) -> list[str]:
        ks = ", ".join(str(k) for k in self.k_values)
        out = [
            f"degree-triple inequality scan: k in {{{ks}}}, n <= {self.n_max}",
            "grid denominator: 1",
            f"triples checked: {self.triples_checked}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations:
            out.append(
                f"  {v.inequality} fails at k={v.k} n={v.n}"
                f" d_u={v.d_u} d_v={v.d_v} d_uv={v.d_uv}"
            )
        out.append(f"substitution disagreements: {len(self.substitution_disagreements)}")
        out.append(f"tight points (complete-multipartite degrees): {len(self.turan_equalities)}")
        for t in self.turan_equalities:
            out.append(
                f"  equality at k={t.k} n={t.n} d_u=d_v={t.d} d_uv={t.d_uv}"
                f" value={t.value}"
            )
        return out


def _row_maxima(n: int) -> list[tuple[int, int, int, int]]:
    """(a, b, lo, largest (a-c)(b-c)c over lo <= c <= a) per scan row at order n.

    A row is 1 <= a <= b < n with lo = max(0, a+b-n), in (a, b) order.  On
    0..a the cubic rises strictly up to one critical point in (0, a) and
    falls after it, and that point moves right as b grows, so each row's
    argmax is hill-climbed from the previous row's: O(1) amortized.
    """
    out = []
    for a in range(1, n):
        c = 0
        for b in range(a, n):
            lo = a + b - n if a + b > n else 0
            if c < lo:
                c = lo
            top = (a - c) * (b - c) * c
            while c < a:
                up = (a - c - 1) * (b - c - 1) * (c + 1)
                if up <= top:
                    break
                c, top = c + 1, up
            out.append((a, b, lo, top))
    return out


def _scan_cell(pqs: tuple[tuple[int, int], ...], n: int) -> tuple:
    """Exhaust one n for every k = p/q in ``pqs``; pure-integer arithmetic.

    Since p^3 > 0, a row (a, b) holds for one k once its largest cubic
    (``_row_maxima``) passes the cleared test; only a row that fails it, or
    fails the k-free case-i bound, is walked triple by triple, and case-i
    violations are reported under each k.  Returns ``(checked, per_k)``
    where ``checked`` counts the triples (each checked once per k) and
    ``per_k`` lists (violations, disagreements) per k.
    """
    rows = []  # (a, b, lo, largest cubic, (n-a)(n-b)), in (a, b) order
    case_i_rows = []  # rows with 2n/3 <= a whose largest cubic beats the bound
    slices = []  # (a, b, lo, f(lo), (n-a)(n-b)) of the rows with a + b >= n
    checked = 0
    for a, b, lo, top in _row_maxima(n):
        checked += a - lo + 1
        prod = (n - a) * (n - b)
        row = (a, b, lo, top, prod)
        rows.append(row)
        if 3 * a >= 2 * n and top > prod * (a + b - n):
            case_i_rows.append(row)
        if a + b >= n:
            slices.append((a, b, lo, lo * (a - lo) * (b - lo), prod))
    per_k = []
    for p, q in pqs:
        p2, p3, rhs = p * p, p**3, q**3 * n**3
        slack = p2 * (p - 3 * q) * n
        walk = [row for row in rows if p3 * row[3] - slack * row[4] > rhs]
        if case_i_rows:
            walk = sorted(set(walk).union(case_i_rows))
        violations = []
        for a, b, lo, _, prod in walk:
            base, bound_i = slack * prod, prod * (a + b - n)
            for c in range(lo, a + 1):
                cubic = (a - c) * (b - c) * c
                if p3 * cubic - base > rhs:
                    violations.append((a, b, c, "want"))
                if 3 * a >= 2 * n and cubic > bound_i:
                    violations.append((a, b, c, "case-i"))
        # on the slice d_uv = d_u + d_v - n the rearranged form must agree
        # with the direct one
        m = n * (3 * q - 2 * p)
        disagreements = [
            (a, b, lo)
            for a, b, lo, f_lo, prod in slices
            if (p3 * f_lo - slack * prod <= rhs) != (p2 * (m + p * (a + b)) * prod <= rhs)
        ]
        per_k.append((violations, disagreements))
    return checked, per_k


def want_inequality_scan(k_set: Sequence[Fraction | int], n_max: int) -> ScanReport:
    """Exhaustively verify the degree-triple inequality for each k in k_set.

    Scans every triple (d_u, d_v, d_uv) with 1 <= d_u <= d_v <= n-1 and
    max(0, d_u+d_v-n) <= d_uv <= min(d_u, d_v), for every n <= n_max, in
    exact cleared-integer arithmetic.  Also checks, under the hypotheses
    2n/3 <= d_u <= d_v, the intermediate bound
    (d_u-d_uv)(d_v-d_uv)d_uv <= (n-d_u)(n-d_v)(d_u+d_v-n), and that the
    rearranged form of the inequality on the slice d_uv = d_u+d_v-n agrees
    with the direct one.

    Returns a report carrying violations (expected empty) and the points
    where equality holds exactly, ordered by k, then n, then triple.  The
    work is one cell per n covering every k.
    """
    ks = sorted({Fraction(k) for k in k_set})
    if not ks:
        raise ValueError("need at least one k")
    if any(k < 3 for k in ks):
        raise ValueError("every k must be >= 3")
    if n_max < 1:
        raise ValueError("n_max must be positive")

    pqs = tuple((k.numerator, k.denominator) for k in ks)
    results = [_scan_cell(pqs, n) for n in range(1, n_max + 1)]

    checked = 0
    violations: list[ScanViolation] = []
    disagreements: list[tuple[Fraction, int, int, int]] = []
    equalities: list[TuranEquality] = []
    for j, k in enumerate(ks):
        p, q = k.numerator, k.denominator
        for n, (cell_checked, per_k) in enumerate(results, 1):
            cell_viol, cell_dis = per_k[j]
            checked += cell_checked
            for a, b, c, which in cell_viol:
                violations.append(ScanViolation(k, n, a, b, c, which))
            disagreements.extend((k, n, a, b) for a, b, _ in cell_dis)
            # degrees of T_k(n) are integers whenever p divides n
            if n % p == 0:
                d = Fraction((p - q) * n, p)
                d_uv = Fraction((p - 2 * q) * n, p)
                lhs = (d - d_uv) ** 2 * d_uv - (k - 3) / k * n * (n - d) ** 2
                value = Fraction(n, 1) ** 3 / k**3
                if lhs == value:
                    equalities.append(TuranEquality(k, n, d, d_uv, value))
    return ScanReport(
        tuple(ks),
        n_max,
        checked,
        tuple(violations),
        tuple(equalities),
        tuple(disagreements),
    )


# ---------------------------------------------------------------------------
# exhaustive small-order search


class SearchResult(
    namedtuple("SearchResult", "n edge_count max_count density maximizers")
):
    """Maximum induced-copy count over all order-n classes (one edge count)."""

    __slots__ = ()

    def csv_row(self) -> str:
        edges = "any" if self.edge_count is None else str(self.edge_count)
        return ",".join(
            (str(self.n), edges, str(self.max_count), str(self.density), ";".join(self.maximizers))
        )


SEARCH_CSV_HEADER = "n,edges,max_count,density,maximizers"


def max_density_search(h: SmallGraph, n: int, edge_count: int | None = None) -> SearchResult:
    """Exhaustive maximum of count_induced(h, .) over order-n classes.

    Restricts to a fixed edge count when one is given.  Pass 1 takes the
    maximum over every candidate child of every order-(n-1) class; pass 2
    tests for canonicity only the candidates at that maximum, so every
    class at the maximum is named once, in code order.
    """
    best, parents = _column_counts(h, n, edge_count)
    if edge_count is None:
        top = max(best)
        target = [top if b == top else -1 for b in best]
    else:
        top = best[edge_count]
        target = [top if e == edge_count else -1 for e in range(len(best))]
    names = [name for _, name in _maximizers(n, parents, target)]
    return _result(h, n, edge_count, top, names)


def max_density_table(h: SmallGraph, n: int) -> tuple[SearchResult, ...]:
    """One SearchResult per edge count 0..C(n,2): the feasible-region scan.

    The same two passes as ``max_density_search``, with each edge count's
    own maximum as the target of pass 2.
    """
    best, parents = _column_counts(h, n, None)
    names: list[list[str]] = [[] for _ in best]
    for e, name in _maximizers(n, parents, best):
        names[e].append(name)
    return tuple(_result(h, n, e, b, names[e]) for e, b in enumerate(best))


def _result(
    h: SmallGraph, n: int, edge_count: int | None, best: int, names: list[str]
) -> SearchResult:
    return SearchResult(n, edge_count, best, Fraction(best, math.comb(n, h.n)), tuple(names))


def _column_counts(
    h: SmallGraph, n: int, edge_count: int | None
) -> tuple[list[int], list[tuple]]:
    """Pass 1: the maximum of h's count per edge count over every candidate child.

    A candidate is an order-(n-1) class P plus a new vertex whose column is
    at least P's start column (``graphs._start_column``).  Its count is P's
    count plus P's new copies at that column, both from ``_new_copies``.
    Every class's canonical form is a candidate, so the maximum over
    candidates is the maximum over classes.  No canonical code is computed
    here.  Returns the maxima (index = edge count) and the parents.
    """
    check_order(n)  # the listing's own guard, run before the cheaper ones
    if h.n > n:
        raise ValueError("pattern has more vertices than the host order")
    if edge_count is not None and not 0 <= edge_count <= n * (n - 1) // 2:
        raise ValueError(f"edge count {edge_count} impossible at order {n}")
    m = n - 1
    parents = _new_copies(h, m, {})
    weights = [col.bit_count() for col in range(1 << m)]
    best = [-1] * (n * (n - 1) // 2 + 1)
    for mask, count, start, new in parents:
        edges = mask.bit_count()
        for col in range(start, 1 << m):
            e = edges + weights[col]
            if count + new[col] > best[e]:
                best[e] = count + new[col]
    return best, parents


def _extended(h: SmallGraph, m: int, completing: dict[str, list[int]]):
    """Yield (mask, h's count) for each order-m class, in listing order.

    A count is the canonical parent's (the first m-1 vertices: the mask's
    low C(m-1, 2) bits) plus its new copies at the class's last column,
    ``_start_column(m, mask) >> 1``, down to the order-0 graph.
    """
    if not m:
        yield 0, 0  # the order-0 graph
        return
    parents = {p[0]: p for p in _new_copies(h, m - 1, completing)}
    low = (1 << (m - 1) * (m - 2) // 2) - 1
    for mask in _enumerate(m, 0, 0):
        _, count, _, new = parents[mask & low]
        yield mask, count + new[_start_column(m, mask) >> 1]


def _new_copies(h: SmallGraph, m: int, completing: dict[str, list[int]]) -> list[tuple]:
    """Per order-m class: mask, h's count, start column and new copies per column.

    The new copies at a column (index = column, vertex 0 highest) are the
    (|h|-1)-subsets S that a new vertex with that column completes to h,
    decided once per induced mask of S into ``completing`` for every order.
    """
    index, subsets = _subset_columns(m, h.n - 1)
    width = m * (m - 1) // 2
    out = []
    for mask, count in _extended(h, m, completing):
        bits = f"{mask:0{width}b}"
        keys = "".join(map(bits.__getitem__, index))
        # one byte per column; none overflows, as at most C(8, 4) = 70 copies are new
        lanes = 0
        for key, per_t in subsets:
            sub = keys[key]
            ts = completing.get(sub)
            if ts is None:
                ts = completing[sub] = _completions(h, int(sub or "0", 2))
            for t in ts:
                lanes += per_t[t]
        out.append((mask, count, _start_column(m, mask), lanes.to_bytes(1 << m, "little")))
    return out


def _completions(h: SmallGraph, sub: int) -> list[int]:
    """The columns t over |h|-1 vertices inducing ``sub`` that complete them to h."""
    j = h.n - 1
    need = h.edge_count - sub.bit_count()
    return [
        t
        for t in range(1 << j)
        if t.bit_count() == need and count_induced(h, SmallGraph(h.n, sub | t << j * (j - 1) // 2))
    ]


def _subset_columns(m: int, j: int) -> tuple[tuple[int, ...], tuple[tuple[slice, tuple], ...]]:
    """Per j-subset S of range(m): where its induced mask lies, and its columns.

    The first tuple indexes an order-m mask's bit string (pair 0 last) so
    that each S's induced mask reads off as a binary numeral at S's slice.
    For each t (bit i is S[i]), S's integer has a 1 in byte N for every
    column N (vertex 0 highest) that meets S in t.
    """
    index: list[int] = []
    subsets = []
    for s in itertools.combinations(range(m), j):
        pairs = [(u, v) for b, v in enumerate(s) for u in s[:b]]  # S's mask bits, lowest first
        key = slice(len(index), len(index) + len(pairs))
        index.extend(m * (m - 1) // 2 - 1 - v * (v - 1) // 2 - u for u, v in reversed(pairs))
        bits = [1 << m - 1 - v for v in s]
        among = sum(bits)
        outside = [col for col in range(1 << m) if not col & among]
        per_t = []
        for t in range(1 << j):
            inside = sum(b for i, b in enumerate(bits) if t >> i & 1)
            per_t.append(sum(1 << 8 * (inside | col) for col in outside))
        subsets.append((key, tuple(per_t)))
    return tuple(index), tuple(subsets)


def _maximizers(n: int, parents: list[tuple], target: list[int]) -> list[tuple[int, str]]:
    """Pass 2: (edge count, graph6) of each canonical candidate at its target count.

    Visits parents in code order and hands the columns whose candidate's
    count equals the target of its edge count to the listing's child step,
    ``graphs._canonical_children``, which keeps them in increasing order.
    """
    m = n - 1
    found = []
    for mask, count, start, new in parents:
        goal = target[mask.bit_count() :]  # index = the new column's weight
        columns = [col for col in range(start, 1 << m) if count + new[col] == goal[col.bit_count()]]
        if columns:
            for child in _canonical_children(m, mask, columns):
                found.append((child.bit_count(), to_graph6(SmallGraph(n, child))))
    return found


def _induced_counts(h: SmallGraph, n: int, hosts: list[SmallGraph]) -> list[int]:
    """h's induced-copy count in each order-n host, in the hosts' order."""
    return [count_induced(h, g) for g in hosts]


# ---------------------------------------------------------------------------
# regularity spot-check data


def nonneighbor_product_sum(g: SmallGraph) -> int:
    """sum over edges uv of (n - d_u)(n - d_v); the scan's correction term."""
    rows = g.rows()
    n = g.n
    degs = [r.bit_count() for r in rows]
    return sum((n - degs[u]) * (n - degs[v]) for u, v in g.edges())
