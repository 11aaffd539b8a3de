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
  (12346 classes at order 8, 274668 at the largest order).

Everything is exact: the scan clears denominators and works in (unbounded)
Python integers, so a reported pass is a proof for the scanned range.  The
scan runs one cell per n that tests every k on each triple, and its
parallel path hands whole n cells to the workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import (
    SmallGraph,
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


@dataclass(frozen=True)
class DegreeLocalData:
    """Degree statistics of one edge uv in an n-vertex graph."""

    n: int
    d_u: int
    d_v: int
    d_uv: int
    i_uv: int

    def __post_init__(self):
        if not (1 <= self.d_u <= self.n - 1 and 1 <= self.d_v <= self.n - 1):
            raise ValueError("endpoint degrees must lie in 1..n-1")
        lo = max(0, self.d_u + self.d_v - self.n)
        if not lo <= self.d_uv <= min(self.d_u, self.d_v):
            raise ValueError("common-neighbour count out of range")
        if self.i_uv < 0:
            raise ValueError("edge-local count cannot be negative")


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


@dataclass(frozen=True)
class IdentityCheckReport:
    """Outcome of the exhaustive edge-local counting identity check."""

    max_order: int
    graphs_checked: int
    exceptions: tuple[str, ...]

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
        for g in enumerate_graphs(n):
            checked += 1
            lhs = sum(edge_local_count(g, u, v) for u, v in g.edges())
            if lhs != 4 * count_induced(_TARGET, g):
                bad.append(to_graph6(g))
    return IdentityCheckReport(max_n, checked, tuple(bad))


# ---------------------------------------------------------------------------
# worker processes (the scan and the search)


def _map_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], split among ``workers`` processes if > 1."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    # imported here: at the top it would slow the start-up of every command
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# degree-triple inequality scan

# The inequality, for k = p/q >= 3 and degrees scanned at resolution 1/r,
# clears to integers with N = n*r, a = r*d_u, b = r*d_v, c = r*d_uv:
#
#     p^3 (a-c)(b-c) c  -  p^2 (p-3q) N (N-a)(N-b)  <=  q^3 N^3.
#
# Multiplying by r^3 p^3 > 0 preserves the inequality, so the integer check
# is equivalent to the rational one.


@dataclass(frozen=True)
class ScanViolation:
    k: Fraction
    n: int
    d_u: Fraction
    d_v: Fraction
    d_uv: Fraction
    inequality: str  # "want" or "case-i"


@dataclass(frozen=True)
class TuranEquality:
    """A scanned point where the inequality is exactly tight."""

    k: Fraction
    n: int
    d: Fraction
    d_uv: Fraction
    value: Fraction  # both sides, = n^3 / k^3


@dataclass(frozen=True)
class ScanReport:
    k_values: tuple[Fraction, ...]
    n_max: int
    grid_denominator: int
    triples_checked: int
    violations: tuple[ScanViolation, ...]
    turan_equalities: tuple[TuranEquality, ...]
    substitution_disagreements: tuple[tuple[Fraction, int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.substitution_disagreements

    def lines(self) -> list[str]:
        ks = ", ".join(str(k) for k in self.k_values)
        out = [
            f"degree-triple inequality scan: k in {{{ks}}}, n <= {self.n_max}",
            f"grid denominator: {self.grid_denominator}",
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


def _scan_cell(args: tuple[tuple[tuple[int, int], ...], int, int]) -> tuple:
    """Exhaust one n for every k = p/q in ``pqs``; pure-integer inner loop.

    Each triple's cubic (a-c)(b-c)c is evaluated once and shared by every
    k.  Since p^3 > 0, a row (a, b) holds for one k once its largest cubic
    passes the cleared test, and only a failing row is walked triple by
    triple.  The case-i bound does not involve k, so it is tested once per
    row and its violations are reported under each k.  Returns ``(pqs, n,
    checked, per_k)`` where ``checked`` counts the triples (each checked
    once per k) and ``per_k`` lists (violations, disagreements) per k.
    """
    pqs, n, r = args
    big_n = n * r
    consts = [(p * p, p**3, p * p * (p - 3 * q), q**3 * big_n**3, p, q) for p, q in pqs]
    checked = 0
    per_k: list[tuple[list, list]] = [([], []) for _ in pqs]
    for a in range(1, big_n):
        case_i = 3 * a >= 2 * big_n  # 2n/3 <= d_u <= d_v
        for b in range(a, big_n):
            prod_nn = (big_n - a) * (big_n - b)
            lo = max(0, a + b - big_n)
            # c runs over lo..a (a = min(a, b))
            cubics = [(a - c) * (b - c) * c for c in range(lo, a + 1)]
            checked += len(cubics)
            top = max(cubics)
            bound_i = prod_nn * (a + b - big_n)
            row_case_i = case_i and top > bound_i
            for (p2, p3, slack, rhs, p, q), (violations, disagreements) in zip(consts, per_k):
                base = slack * big_n * prod_nn
                if row_case_i or p3 * top - base > rhs:
                    for c, cubic in enumerate(cubics, lo):
                        if p3 * cubic - base > rhs:
                            violations.append((a, b, c, "want"))
                        if case_i and cubic > bound_i:
                            violations.append((a, b, c, "case-i"))
                # on the subdomain d_uv = d_u + d_v - n the rearranged form
                # must agree with the direct one
                if a + b >= big_n:
                    direct = p3 * cubics[0] - base <= rhs
                    rearranged = (
                        p2 * (big_n * (3 * q - 2 * p) + p * (a + b)) * prod_nn <= rhs
                    )
                    if direct != rearranged:
                        disagreements.append((a, b, lo))
    return pqs, n, checked, per_k


def want_inequality_scan(
    k_set: Sequence[Fraction | int],
    n_max: int,
    *,
    grid_denominator: int = 1,
    workers: int = 1,
) -> ScanReport:
    """Exhaustively verify the degree-triple inequality for each k in k_set.

    Scans every triple (d_u, d_v, d_uv) with 1 <= d_u <= d_v <= n-1 and
    max(0, d_u+d_v-n) <= d_uv <= min(d_u, d_v), for every n <= n_max, in
    exact cleared-integer arithmetic.  Also checks, under the hypotheses
    2n/3 <= d_u <= d_v, the intermediate bound
    (d_u-d_uv)(d_v-d_uv)d_uv <= (n-d_u)(n-d_v)(d_u+d_v-n), and that the
    rearranged form of the inequality on the slice d_uv = d_u+d_v-n agrees
    with the direct one.

    grid_denominator = r scans degrees on the grid (1/r)Z instead of Z
    (an exploration mode; r = 1 is the domain the proof consumes).
    Returns a report carrying violations (expected empty) and the points
    where equality holds exactly, ordered by k, then n, then triple.

    The work is one cell per n covering every k; with ``workers`` > 1 the
    cells are split among worker processes, and the report is the same.
    """
    ks = sorted({Fraction(k) for k in k_set})
    if not ks:
        raise ValueError("need at least one k")
    if any(k < 3 for k in ks):
        raise ValueError("every k must be >= 3")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if grid_denominator < 1:
        raise ValueError("grid denominator must be a positive integer")
    r = grid_denominator

    pqs = tuple((k.numerator, k.denominator) for k in ks)
    jobs = [(pqs, n, r) for n in range(1, n_max + 1)]
    results = _map_jobs(_scan_cell, jobs, workers)

    checked = 0
    violations: list[ScanViolation] = []
    disagreements: list[tuple[Fraction, int, int, int]] = []
    equalities: list[TuranEquality] = []
    for j, k in enumerate(ks):
        p, q = k.numerator, k.denominator
        for _, n, cell_checked, per_k in results:
            cell_viol, cell_dis = per_k[j]
            checked += cell_checked
            for a, b, c, which in cell_viol:
                violations.append(
                    ScanViolation(k, n, Fraction(a, r), Fraction(b, r), Fraction(c, r), which)
                )
            disagreements.extend((k, n, a, b) for a, b, _ in cell_dis)
            # degrees of T_k(n) land on the grid whenever p divides n*r
            if (n * r) % p == 0:
                d = Fraction((p - q) * n, p)
                d_uv = Fraction((p - 2 * q) * n, p)
                lhs = (d - d_uv) ** 2 * d_uv - (k - 3) / k * n * (n - d) ** 2
                value = Fraction(n, 1) ** 3 / k**3
                if lhs == value:
                    equalities.append(TuranEquality(k, n, d, d_uv, value))
    return ScanReport(
        tuple(ks),
        n_max,
        r,
        checked,
        tuple(violations),
        tuple(equalities),
        tuple(disagreements),
    )


# ---------------------------------------------------------------------------
# exhaustive small-order search


@dataclass(frozen=True)
class SearchResult:
    """Maximum induced-copy count over all order-n classes (one edge count)."""

    n: int
    edge_count: int | None
    max_count: int
    density: Fraction
    maximizers: tuple[str, ...]

    def csv_row(self) -> str:
        edges = "any" if self.edge_count is None else str(self.edge_count)
        return ",".join(
            (str(self.n), edges, str(self.max_count), str(self.density), ";".join(self.maximizers))
        )


SEARCH_CSV_HEADER = "n,edges,max_count,density,maximizers"


def _count_chunk(args: tuple[int, int, int, list[int]]) -> list[int]:
    h_mask, h_n, masks_n, masks = args
    h = SmallGraph(h_n, h_mask)
    return [count_induced(h, SmallGraph(masks_n, m)) for m in masks]


def max_density_search(
    h: SmallGraph, n: int, edge_count: int | None = None, *, workers: int = 1
) -> SearchResult:
    """Exhaustive maximum of count_induced(h, .) over order-n classes.

    Restricts to a fixed edge count when one is given.  Exact and complete:
    iterates every isomorphism class once.
    """
    hosts, counts = _counted_hosts(h, n, edge_count, workers)
    return _maximum(h, n, edge_count, list(zip(hosts, counts)))


def max_density_table(
    h: SmallGraph, n: int, *, workers: int = 1
) -> tuple[SearchResult, ...]:
    """One SearchResult per edge count 0..C(n,2): the feasible-region scan."""
    hosts, counts = _counted_hosts(h, n, None, workers)
    by_edges: dict[int, list[tuple[SmallGraph, int]]] = {}
    for g, c in zip(hosts, counts):
        by_edges.setdefault(g.edge_count, []).append((g, c))
    return tuple(_maximum(h, n, m, by_edges[m]) for m in sorted(by_edges))


def _maximum(
    h: SmallGraph, n: int, edge_count: int | None, counted: list[tuple[SmallGraph, int]]
) -> SearchResult:
    """The largest count over ``counted`` (host, count) pairs and its hosts."""
    best = max((c for _, c in counted), default=0)
    names = tuple(to_graph6(g) for g, c in counted if c == best)
    return SearchResult(n, edge_count, best, Fraction(best, math.comb(n, h.n)), names)


def _counted_hosts(
    h: SmallGraph, n: int, edge_count: int | None, workers: int
) -> tuple[list[SmallGraph], list[int]]:
    """The order-n classes (with ``edge_count`` edges, if given) and h's counts."""
    check_order(n)  # the listing's own guard, run before the cheaper ones
    if h.n > n:
        raise ValueError("pattern has more vertices than the host order")
    if edge_count is not None and not 0 <= edge_count <= n * (n - 1) // 2:
        raise ValueError(f"edge count {edge_count} impossible at order {n}")
    hosts = [g for g in enumerate_graphs(n) if edge_count in (None, g.edge_count)]
    return hosts, _induced_counts(h, n, hosts, workers)


def _induced_counts(
    h: SmallGraph, n: int, hosts: list[SmallGraph], workers: int
) -> list[int]:
    if workers > 1 and len(hosts) > 64:
        step = (len(hosts) + workers - 1) // workers
        jobs = [
            (h.mask, h.n, n, [g.mask for g in hosts[i : i + step]])
            for i in range(0, len(hosts), step)
        ]
        return [c for part in _map_jobs(_count_chunk, jobs, workers) for c in part]
    return [count_induced(h, g) for g in hosts]


# ---------------------------------------------------------------------------
# regularity spot-check data


def nonneighbor_product_sum(g: SmallGraph) -> int:
    """sum over edges uv of (n - d_u)(n - d_v); the scan's correction term."""
    rows = g.rows()
    n = g.n
    degs = [r.bit_count() for r in rows]
    return sum((n - degs[u]) * (n - degs[v]) for u, v in g.edges())
