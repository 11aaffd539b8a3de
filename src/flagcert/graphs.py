"""Small simple graphs with exact isomorphism-class machinery.

Graphs are stored as an order ``n`` (1..9) plus an edge bitmask over the
upper triangle.  Bit ``j*(j-1)//2 + i`` holds the pair ``(i, j)`` with
``i < j``, i.e. pairs are indexed column by column: (0,1), (0,2), (1,2),
(0,3), ...  A graph grows by one vertex by appending a column of bits.
Codes compare pair (0,1) first.  Graph6 and the listing's new columns
put it in the highest bit, and ``_reversed`` converts where that order
is the format.  The pair code reads pairs row by row through one cached
table of mask bits per order, ``_row_major``.
Adjacency rows (bit v of row u: u and v are adjacent) are the other view,
and two helpers convert: ``_rows`` (mask to rows) and ``_induced_mask``
(rows and a vertex list to mask).  The builders ``induced``,
``relabelled``, ``union``, ``turan`` and ``blowup_graph`` pack rows
through ``_induced_mask``, and ``join`` is the complement of the union of
the complements.  Two kernels pack masks their own way for speed: the
type columns of ``flags._count_table`` and the bit-string slices of
``oracle._new_copies``.

The canonical code is the lexicographically minimal column-major bit
string over all vertex orderings (a flag's labelled vertices pinned).
One bitset branch and bound, ``_search``, computes it: it follows only
placements whose columns equal a list of best columns, which it lowers
as it goes.  Twins (swapping them is an automorphism) are explored once,
which keeps highly symmetric graphs cheap.  One cache, keyed by edge
mask, holds the minimal codes as the masks of the graphs they describe:
``_min_code_cached(n, mask, fixed)``.  Every cache here is bounded.  A
class is named by one graph, its ``canonical_form()``, and one key, that
graph's mask; there is no separate code type.

Isomorphism classes are listed by orderly generation (Read 1978; Faradzev
1978).  A prefix of a minimal code is the minimal code of the subgraph it
describes, so the classes of order l are the canonical forms of order
l-1 plus one new column, kept when the identity order is already
minimal.  The one child step, ``_canonical_children`` (the oracle calls
it too), tests all candidate columns of a parent in one walk of the
parent's tie tree, carrying the undecided columns as one integer (bit c:
the child with column c) and splitting it with ``_column_sets``, the
columns that contain each parent vertex; it computes no minimal code.
The column loop starts at twice the identity column of the parent's last
vertex (when that vertex is not pinned): swapping the new vertex with
it turns the new column c into c >> 1, so every lower column is
non-canonical.  Flag bases (labelled vertices pinned) come from the
same generator, ``_level``, which yields one order's masks from the
cached masks of the order below.  ``_enumerate`` caches them as ints,
and graphs are built only for a caller that asks for them.  One order
guard, ``check_order``, serves the graphs and every listing: 1..MAX_ORDER.

Induced copies and automorphisms are counted by one bitset backtracker,
``_embedding_count``, which computes no canonical code, so a fault in
``_search`` cannot reach the oracle's counts; ``count_induced`` divides by
|Aut(h)| (Lovász 2012).  ``flags._placements`` grows tuples the same way
but must list them, and listing would hold all 9! automorphisms of an
empty graph, so it stays separate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering

from ._frozen import _Frozen

MAX_ORDER = 9


def check_order(n: int) -> None:
    """The one order guard: refuse an order the representation cannot hold."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} outside 1..{MAX_ORDER}")


def _pair_index(i: int, j: int) -> int:
    """Column-major index of pair (i, j), i < j."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@total_ordering
class SmallGraph(_Frozen):
    """Immutable simple graph on ``n`` labelled vertices (1 <= n <= 9).

    Graphs order by ``(n, mask)``, and only against graphs.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        check_order(n)
        if mask < 0 or mask >> (n * (n - 1) // 2):
            raise ValueError("edge mask has bits outside the upper triangle")
        self._fill(n, mask)

    def __lt__(self, other):
        return self._key() < other._key() if other.__class__ is SmallGraph else NotImplemented

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def adjacent(self, i: int, j: int) -> bool:
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"bad vertex pair ({i}, {j})")
        return bool(self.mask >> _pair_index(i, j) & 1)

    def rows(self) -> tuple[int, ...]:
        """Adjacency rows as bitmasks (row v = neighbours of v)."""
        return _rows(self.n, self.mask)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for j, row in enumerate(self.rows()) for i in range(j) if row >> i & 1]

    def degree(self, v: int) -> int:
        return self.rows()[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows()))

    def induced(self, vertices: tuple[int, ...]) -> "SmallGraph":
        """Subgraph induced on the given distinct vertices, relabelled 0.."""
        return SmallGraph(len(vertices), _induced_mask(self.rows(), vertices))

    def relabelled(self, perm: tuple[int, ...]) -> "SmallGraph":
        """Image under the permutation sending vertex v to perm[v]."""
        inverse = sorted(range(self.n), key=perm.__getitem__)  # vertex perm[v] was v
        return SmallGraph(self.n, _induced_mask(self.rows(), inverse))

    def canonical_form(self) -> "SmallGraph":
        return SmallGraph(self.n, _min_code(self.n, self.mask))

    def complement(self) -> "SmallGraph":
        full = (1 << self.pair_count) - 1
        return SmallGraph(self.n, self.mask ^ full)

    def __str__(self) -> str:
        return emit_paircode(self)


# Cache bounds, each at least twice what the four bundled certificates use
# together (487 codes and 6 listings, goldens included).
CODE_CACHE_SIZE = 1024
LISTING_CACHE_SIZE = 16


def _rows(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency rows of a mask: bit j of row i is the pair (i, j)."""
    rows = [0] * n
    for j in range(n):
        for i in range(j):
            if mask >> _pair_index(i, j) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def _induced_mask(rows, vertices) -> int:
    """The mask whose vertex b is ``vertices[b]`` of the graph with ``rows``.

    Distinct vertices give an induced subgraph or a relabelling; a vertex
    listed more than once gives a blowup, its copies pairwise non-adjacent.
    """
    mask = 0
    for b in range(1, len(vertices)):
        base = b * (b - 1) // 2
        rv = rows[vertices[b]]
        for a in range(b):
            if rv >> vertices[a] & 1:
                mask |= 1 << base + a
    return mask


def _min_code(n: int, mask: int, fixed: int = 0) -> int:
    """The minimal code, vertices 0..fixed-1 pinned (flags pin labels), as
    the canonical form's mask."""
    return _min_code_cached(n, mask, fixed)


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _min_code_cached(n: int, mask: int, fixed: int) -> int:
    """The minimal code as the canonical form's mask; see ``_min_code``."""
    rows = _rows(n, mask)
    best = list(rows[:fixed]) + [-1] * (n - fixed)
    _search(rows, fixed, best)
    # column d of the minimal order is the mask's column d (-1: all ones)
    return sum((col & (1 << d) - 1) << d * (d - 1) // 2 for d, col in enumerate(best))


def _search(rows: tuple[int, ...], fixed: int, best: list[int]) -> None:
    """Branch and bound that lowers ``best`` in place to the minimal code's columns.

    ``best[d]`` is the column of depth d as a mask over placement slots:
    bit i is adjacency to the i-th placed vertex, and -1 stands for the
    largest column.  Vertices 0..fixed-1 are placed first, in order.  At
    depth d, O(d) mask operations split the free vertices into those whose
    column still equals ``best[d]`` and those already smaller, which lower
    it; only placements whose columns so far equal ``best`` are followed.
    """
    n = len(rows)
    placed = [rows[u] for u in range(fixed)]  # rows of the placed vertices, in order

    def descend(free: int, d: int) -> None:
        target = best[d]
        eq = free
        for nbrs in placed:
            if target & 1:
                if eq & ~nbrs:
                    eq = _lower(best, d, free, placed)
                    break
            else:
                eq &= ~nbrs
                if not eq:
                    return
            target >>= 1
        if d + 1 == n:
            return
        chosen: list[int] = []
        while eq:
            bit = eq & -eq
            eq ^= bit
            v = bit.bit_length() - 1
            rv = rows[v]
            # swapping twins is an automorphism: explore one representative
            for u in chosen:
                if not (rows[u] ^ rv) & ~(1 << u | bit):
                    break
            else:
                chosen.append(v)
                placed.append(rv)
                descend(free ^ bit, d + 1)
                placed.pop()

    if fixed < n:
        descend((1 << n) - (1 << fixed), fixed)


def _lower(best: list[int], d: int, free: int, placed: list[int]) -> int:
    """Set ``best[d]`` to the least column of the free vertices; return them."""
    col = 0
    for i, nbrs in enumerate(placed):
        if free & ~nbrs:
            free &= ~nbrs
        else:
            col |= 1 << i
    best[d] = col
    best[d + 1 :] = [-1] * (len(best) - d - 1)
    return free


def _reversed(bits: int, width: int) -> int:
    """``bits`` read backwards over ``width`` places: bit i becomes bit width-1-i."""
    return int(f"{bits:b}".zfill(width)[::-1], 2)


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=LISTING_CACHE_SIZE)
def _enumerate(l: int, fixed: int, fixed_mask: int) -> tuple[int, ...]:
    """The masks of the canonical forms of order l in code order; see ``_level``."""
    return tuple(_level(l, fixed, fixed_mask))


def _level(l: int, fixed: int, fixed_mask: int):
    """Yield the masks of the canonical forms of order l in code order.

    With ``fixed`` > 0 these are the flags whose pinned vertices
    0..fixed-1 induce ``fixed_mask``.  A child's code is its parent's code
    followed by the new column, so parents in code order and columns in
    increasing order give children in code order.
    """
    if l == max(fixed, 1):
        yield fixed_mask
        return
    m = l - 1
    for mask in _enumerate(m, fixed, fixed_mask):
        start = _start_column(m, mask) if m - 1 >= fixed else 0
        yield from _canonical_children(m, mask, range(start, 1 << m), fixed)


@lru_cache(maxsize=MAX_ORDER)
def _column_sets(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per parent vertex v < m, the set of new columns containing v; per column, its neighbours.

    A set of columns is an integer whose bit c stands for the column c
    (vertex 0 highest); a neighbour mask has vertex 0 lowest.
    """
    nbrs = tuple(_reversed(col, m) for col in range(1 << m))
    sets = tuple(sum(1 << c for c, row in enumerate(nbrs) if row >> v & 1) for v in range(m))
    return sets, nbrs


def _canonical_children(m: int, mask: int, columns, fixed: int = 0):
    """Yield the masks of the canonical children of the order-m canonical form ``mask``.

    The one child step of orderly generation: a child adds vertex m with
    one of ``columns`` (vertex 0 highest), and is kept when the identity
    order gives its minimal code, vertices 0..fixed-1 pinned.  Kept
    children come in increasing column order.

    One walk of the parent's tie tree tests every column: the columns still
    undecided travel down it as one set.  While only parent vertices are
    placed, a parent vertex ties or loses the same way in every child (the
    parent is canonical), so vertex bitsets filter them, and vertex m's
    column is split per column set into smaller (rejected) and tied (a
    branch with m placed).  With m at slot j, only bit j of a parent
    vertex v's column depends on the child: it is ``sets[v]``.  At depth m
    the last column is compared with the child's own, on column sets.  An
    explored twin u prunes v only for the columns that put u and v on the
    same side.
    """
    sets, nbrs_of = _column_sets(m)
    prows = _rows(m, mask)
    alive = sum(map((1).__lshift__, columns))
    order = list(range(fixed))  # the placed vertices by slot; m is the new vertex

    def close(cols: int, cands: list[int]) -> None:
        # depth m, slot i: the columns where the last free vertex is adjacent
        # to order[i], against those where vertex m is adjacent to vertex i
        nonlocal alive
        for target, cand in zip(sets, cands):
            alive &= ~(cols & target & ~cand)
            cols &= ~(target ^ cand)
            if not cols:
                return

    def explore(free: int, eq: int, cols: int, side: int | None, d: int, j: int) -> None:
        # place each tied parent vertex v at slot d, for its columns: all of
        # them (side None), or those with v (side 0) or without it (side -1)
        chosen: list[tuple[int, int]] = []
        while eq:
            bit = eq & -eq
            eq ^= bit
            v = bit.bit_length() - 1
            vcols = cols & alive if side is None else cols & alive & (sets[v] ^ side)
            rv = prows[v]
            for u, ucols in chosen:
                if not (prows[u] ^ rv) & ~(1 << u | bit):
                    vcols &= ~ucols | sets[u] ^ sets[v]
            if vcols:
                chosen.append((v, vcols))
                order.append(v)
                if j < 0:
                    parents_only(free ^ bit, d + 1, vcols)
                else:
                    with_new(free ^ bit, d + 1, vcols, j)
                order.pop()

    def parents_only(free: int, d: int, cols: int) -> None:
        # slots 0..d-1 hold parent vertices; ``free`` holds the other parent
        # vertices, and vertex m is free too
        nonlocal alive
        if d == m:
            close(cols, [sets[p] for p in order])
            return
        target = prows[d]
        eq, tie = free, cols
        for p in order:
            if target & 1:
                eq &= prows[p]
                alive &= ~(tie & ~sets[p])  # vertex m's column is smaller
                tie &= sets[p]
            else:
                eq &= ~prows[p]
                tie &= ~sets[p]
            target >>= 1
        if eq:
            explore(free, eq, cols, None, d, -1)
        tie &= alive
        if tie:
            order.append(m)
            with_new(free, d + 1, tie, d)
            order.pop()

    def with_new(free: int, d: int, cols: int, j: int) -> None:
        # vertex m sits at slot j < d; ``free`` holds parent vertices only
        nonlocal alive
        if d == m:
            v = free.bit_length() - 1
            rv = prows[v]
            close(cols, [sets[v] if p == m else -(rv >> p & 1) for p in order])
            return
        target = prows[d]
        eq = free
        for i in range(j):
            nbrs = prows[order[i]]
            if target >> i & 1:
                if eq & ~nbrs:
                    alive &= ~cols  # a parent vertex's column is smaller
                    return
            else:
                eq &= ~nbrs
                if not eq:
                    return
        # after slot j, vertex bitsets split the ties from the smaller ones
        tie, less = eq, 0
        for i in range(j + 1, d):
            nbrs = prows[order[i]]
            if target >> i & 1:
                less |= tie & ~nbrs
                tie &= nbrs
            else:
                tie &= ~nbrs
        if target >> j & 1:
            if less:  # smaller at slot j outside the column, and after it inside
                alive &= ~cols
                return
            while eq:  # a vertex outside the column is smaller at slot j
                bit = eq & -eq
                eq ^= bit
                alive &= ~(cols & ~sets[bit.bit_length() - 1])
            side = 0
        else:
            while less:  # outside the column, ties at slot j and is smaller after it
                bit = less & -less
                less ^= bit
                alive &= ~(cols & ~sets[bit.bit_length() - 1])
            side = -1
        if tie:
            explore(free, tie, cols, side, d, j)

    parents_only((1 << m) - (1 << fixed), fixed, alive)
    shift = m * (m - 1) // 2
    while alive:
        bit = alive & -alive
        alive ^= bit
        yield mask | nbrs_of[bit.bit_length() - 1] << shift


def _start_column(m: int, mask: int) -> int:
    """The least new column a canonical child of an order-m canonical form can have.

    Swapping the new vertex with vertex m-1 turns its column into col >> 1,
    so a child is canonical only if col >> 1 is at least the parent's last
    column.  Columns are read with vertex 0 as the highest bit; the order-0
    graph has no last column and starts at 0.
    """
    last = mask >> (m - 1) * (m - 2) // 2  # vertex m-1's neighbours, vertex 0 lowest
    return _reversed(last, m - 1) << 1


def enumerate_graphs(l: int) -> tuple[SmallGraph, ...]:
    """All isomorphism classes of order ``l`` (1..9), sorted by canonical code.

    Counts for l = 1..9: 1, 2, 4, 11, 34, 156, 1044, 12346, 274668 (OEIS
    A000088).  The masks are listed once and cached (order 8 in 0.2 s,
    order 9 in about 4 s); the graphs are built from them on each call.
    """
    check_order(l)
    return tuple(SmallGraph(l, mask) for mask in _enumerate(l, 0, 0))


# perfbench/shim.py pins this name
_enumerate_unchecked = enumerate_graphs


# ---------------------------------------------------------------------------
# induced counting


def _embedding_count(h: SmallGraph, rows: tuple[int, ...]) -> int:
    """Induced embeddings of h into the graph with adjacency ``rows``.

    Slot a takes the free vertices in the AND of the placed vertices' rows,
    or of their complements, as h's column a says; the last slot's
    candidates are counted with ``bit_count()``, not descended into.
    """
    columns = h.rows()  # bit b of columns[a]: slots a and b are adjacent
    last = h.n - 1
    placed: list[int] = []  # rows of the vertices in slots 0..a-1

    def descend(free: int, a: int) -> int:
        fits = free
        column = columns[a]
        for nbrs in placed:
            fits &= nbrs if column & 1 else ~nbrs
            column >>= 1
        if a == last:
            return fits.bit_count()
        total = 0
        while fits:
            bit = fits & -fits
            fits ^= bit
            placed.append(rows[bit.bit_length() - 1])
            total += descend(free ^ bit, a + 1)
            placed.pop()
        return total

    return descend((1 << len(rows)) - 1, 0)


def count_induced(h: SmallGraph, g: SmallGraph) -> int:
    """Number of |h|-subsets of V(g) inducing a copy of h.

    Returns 0 when |h| > |g|.
    """
    return _embedding_count(h, g.rows()) // automorphism_count(h)


def induced_density(h: SmallGraph, g: SmallGraph) -> Fraction:
    """p(h, g): probability a random |h|-subset of g induces h."""
    if h.n > g.n:
        raise ValueError("density needs |h| <= |g|")
    return Fraction(count_induced(h, g), math.comb(g.n, h.n))


@lru_cache(maxsize=64)
def automorphism_count(g: SmallGraph) -> int:
    """Order of the automorphism group: the embeddings of g into itself."""
    return _embedding_count(g, g.rows())


# ---------------------------------------------------------------------------
# composition


def union(g: SmallGraph, h: SmallGraph) -> SmallGraph:
    """Disjoint union."""
    rows = g.rows() + tuple(r << g.n for r in h.rows())
    return SmallGraph(len(rows), _induced_mask(rows, range(len(rows))))


def join(g: SmallGraph, h: SmallGraph) -> SmallGraph:
    """Disjoint union plus all edges across."""
    # the complement of a join is the disjoint union of the complements
    return union(g.complement(), h.complement()).complement()


def complete(n: int) -> SmallGraph:
    return SmallGraph(n, (1 << n * (n - 1) // 2) - 1)


def empty(n: int) -> SmallGraph:
    return SmallGraph(n, 0)


def turan(k: int, n: int) -> SmallGraph:
    """Complete k-partite graph on n vertices: vertex i lies in part i % k."""
    if k < 1:
        raise ValueError("turan needs k >= 1")
    check_order(n)  # before building, whose work grows as n^2
    # vertex i is a copy of vertex i % k of the complete graph on the parts used
    return SmallGraph(n, _induced_mask(complete(min(k, n)).rows(), [i % k for i in range(n)]))


def blowup_graph(base: SmallGraph, sizes: tuple[int, ...]) -> SmallGraph:
    """Replace base vertex v by an independent set of sizes[v] vertices."""
    if len(sizes) != base.n or any(s < 0 for s in sizes):
        raise ValueError("sizes must list one nonnegative count per base vertex")
    n = sum(sizes)
    check_order(n)  # before building, whose work grows as n^2
    owner = [v for v, s in enumerate(sizes) for _ in range(s)]
    return SmallGraph(n, _induced_mask(base.rows(), owner))


# ---------------------------------------------------------------------------
# serialization


# mask bits to pair-code digits: 0 (no edge) is 1, 1 (edge) is 2
_DIGITS = str.maketrans("01", "12")


@lru_cache(maxsize=MAX_ORDER)
def _row_major(n: int) -> tuple[int, ...]:
    """The mask bit of each pair in pair-code order (0,1), (0,2), ..., (n-2,n-1)."""
    return tuple(_pair_index(i, j) for i in range(n - 1) for j in range(i + 1, n))


def parse_paircode(text: str) -> SmallGraph:
    """Parse a pair-digit code: one digit per pair, 2 = edge, 1 = non-edge.

    Pairs run in lexicographic order (1,2), (1,3), ..., (n-1,n).  Digits
    may be separated by spaces or commas.  A single vertex is "-".
    """
    cleaned = text.replace(",", " ").strip()
    if cleaned == "-":
        return SmallGraph(1, 0)
    digits = cleaned.split() if " " in cleaned else list(cleaned)
    if not digits or any(d not in ("1", "2") for d in digits):
        raise ValueError(f"pair code must be digits 1/2, got {text!r}")
    m = len(digits)
    n = int((1 + math.isqrt(1 + 8 * m)) // 2)
    if n * (n - 1) // 2 != m:
        raise ValueError(f"pair code length {m} is not a triangular number")
    check_order(n)
    return SmallGraph(n, sum(1 << b for b, d in zip(_row_major(n), digits) if d == "2"))


def emit_paircode(g: SmallGraph) -> str:
    if g.n == 1:
        return "-"
    bits = format(g.mask | 1 << g.pair_count, "b")[:0:-1]  # bits[b] is mask bit b
    return " ".join([bits[b] for b in _row_major(g.n)]).translate(_DIGITS)


def to_graph6(g: SmallGraph) -> str:
    """Encode in graph6 (column-major upper-triangle bits, 6 per byte)."""
    out = [chr(g.n + 63)]
    bits = _reversed(g.mask, g.pair_count)
    m = g.pair_count
    pad = -m % 6
    bits <<= pad
    for chunk in range((m + pad) // 6 - 1, -1, -1):
        out.append(chr((bits >> 6 * chunk & 63) + 63))
    return "".join(out)


def from_graph6(text: str) -> SmallGraph:
    text = text.strip()
    if not text:
        raise ValueError("empty graph6 string")
    if any(not 63 <= ord(c) <= 126 for c in text):
        raise ValueError(f"graph6 bytes outside printable range in {text!r}")
    n = ord(text[0]) - 63
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"graph6 order {n} outside 1..{MAX_ORDER}")
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = 0
    for c in body:
        bits = bits << 6 | ord(c) - 63
    pad = -m % 6
    if bits & (1 << pad) - 1:
        raise ValueError("nonzero padding bits in graph6 string")
    return SmallGraph(n, _reversed(bits >> pad, m))


def parse_graph(text: str) -> SmallGraph:
    """Parse either serialization: pair digits or graph6."""
    s = text.strip()
    if s == "-" or (s and set(s) <= set("12 ,")):
        return parse_paircode(s)
    return from_graph6(s)
