"""Typed graph flags and their algebra over exact rationals.

A flag is a graph whose first ``labels`` vertices are distinguished and
ordered; the induced graph on those vertices is the flag's type.  Two
flags are isomorphic only via bijections fixing every labelled vertex.

The product of two flags of orders l1, l2 over a type of size s is the
vector over flags of order l1+l2-s whose coefficient at H is the
probability that a uniformly random split of H's unlabelled vertices
into disjoint parts of sizes l1-s and l2-s induces the two factors.
Unlabelling averages over all injective placements of the labels.

Lift, unlabel, the product and the pair expansions all read one cached
integer table, ``_count_table(type order, type mask, l, part orders)``.
For every host of order l it counts, over each label placement and each
ordered split of the remaining vertices into the parts, the tuple of the
parts' canonical masks.  Each operation weights those counts sparsely by
its coefficients and scales each host once by 1/(placements * splits).  A
lift from order m to l is the type-0 table with one part of order m; a
lift to the same order needs no table.  Coefficients may be Fractions or
RationalFunctions; the arithmetic only assumes ring operations against
ints.

The table assembles each sub-flag mask instead of reading it off the
host.  For each placement it computes every unlabelled vertex's type
column once: its adjacency to the labels, as an s-bit mask.  A part's
sub-flag mask is the type mask, the type columns of the part's vertices
shifted to bit offsets fixed by the part's shape, and the pairs inside
the part.  Placements grow slot by slot, each slot matching the type's
own column.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from ._frozen import _Frozen
from .graphs import (
    SmallGraph,
    _enumerate,
    _min_code_cached,
    _rows,
    parse_paircode,
    emit_paircode,
)

MAX_BASIS_ORDER = 6


class Flag(_Frozen):
    """Graph with the first ``labels`` vertices pinned (in order)."""

    __slots__ = ("graph", "labels")

    def __init__(self, graph: SmallGraph, labels: int):
        if not 0 <= labels <= graph.n:
            raise ValueError(f"label count {labels} outside 0..{graph.n}")
        self._fill(graph, labels)

    @property
    def order(self) -> int:
        return self.graph.n

    def type_graph(self) -> SmallGraph | None:
        """Induced graph on the labelled vertices; None for no labels."""
        if self.labels == 0:
            return None
        return self.graph.induced(tuple(range(self.labels)))

    @property
    def type_mask(self) -> int:
        """Edge mask of the type: the pairs among the labelled vertices."""
        s = self.labels
        return self.graph.mask & (1 << s * (s - 1) // 2) - 1

    def canonical_bits(self) -> int:
        """The key of the flag's class: its canonical form's mask, labels pinned."""
        return _min_code_cached(self.graph.n, self.graph.mask, self.labels)

    def isomorphic(self, other: "Flag") -> bool:
        return (
            self.labels == other.labels
            and self.order == other.order
            and self.canonical_bits() == other.canonical_bits()
        )

    def __str__(self) -> str:
        return f"s={self.labels};{emit_paircode(self.graph)}"


def parse_flag(text: str) -> Flag:
    """Parse "s=2;2 1 1 2 2 1" (sigma accepted for s); bare codes mean s=0."""
    s = text.strip()
    if ";" in s:
        head, _, body = s.partition(";")
        head = head.strip().replace("σ", "s")
        if not head.startswith("s="):
            raise ValueError(f"bad flag prefix in {text!r}")
        labels = int(head[2:])
        return Flag(parse_paircode(body), labels)
    return Flag(parse_paircode(s), 0)


def flag_basis(type_graph: SmallGraph | None, l: int) -> tuple[Flag, ...]:
    """All flags of order l over the given type, sorted by canonical code.

    The labelled vertices of every returned flag are 0..s-1 and induce
    exactly the type graph (same adjacency, same vertex order).
    """
    s, type_mask = (0, 0) if type_graph is None else (type_graph.n, type_graph.mask)
    if not s <= l <= MAX_BASIS_ORDER or l < 1:
        raise ValueError(f"basis order {l} outside {max(s,1)}..{MAX_BASIS_ORDER}")
    return tuple(Flag(SmallGraph(l, mask), s) for mask in _enumerate(l, s, type_mask))


class FlagVector:
    """Sparse linear combination of flags sharing one type and order.

    Coefficients are any exact ring elements (Fraction, RationalFunction).
    Keys are the masks of the flags' canonical forms, the only record of
    the flags: ``items`` rebuilds each flag from its mask, so it returns
    canonical forms, in graph order.  ``add`` and ``+`` reject a flag whose
    labelled vertices induce a different type from the flags already held.
    """

    __slots__ = ("labels", "order", "coeffs")

    def __init__(self, labels: int, order: int, items=()):
        self.labels = labels
        self.order = order
        self.coeffs: dict[int, object] = {}
        for flag, c in items:
            self.add(flag, c)

    def add(self, flag: Flag, c) -> None:
        if flag.labels != self.labels or flag.order != self.order:
            raise ValueError(
                f"flag {flag} does not live in (labels={self.labels}, "
                f"order={self.order})"
            )
        held = self._type_mask()
        if held is not None and flag.type_mask != held:
            raise ValueError(f"flag {flag} has another type than the vector's flags")
        bits = flag.canonical_bits()
        cur = self.coeffs.get(bits, 0) + c
        self.coeffs[bits] = cur

    def _type_mask(self) -> int | None:
        """Type mask shared by the held flags; None while there are none."""
        s = self.labels
        for bits in self.coeffs:
            return bits & (1 << s * (s - 1) // 2) - 1
        return None

    def items(self):
        n, s = self.order, self.labels
        return [(Flag(SmallGraph(n, b), s), c) for b, c in sorted(self.coeffs.items())]

    def coefficient(self, flag: Flag):
        return self.coeffs.get(flag.canonical_bits(), 0)

    def scaled(self, factor) -> "FlagVector":
        out = FlagVector(self.labels, self.order)
        out.coeffs = {b: c * factor for b, c in self.coeffs.items()}
        return out

    def __add__(self, other: "FlagVector") -> "FlagVector":
        if (self.labels, self.order) != (other.labels, other.order):
            raise ValueError("adding vectors of different shape")
        mine, theirs = self._type_mask(), other._type_mask()
        if mine is not None and theirs is not None and mine != theirs:
            raise ValueError("adding vectors of different types")
        out = FlagVector(self.labels, self.order)
        out.coeffs = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out.coeffs[b] = out.coeffs.get(b, 0) + c
        return out


# ---------------------------------------------------------------------------
# the shared count table

# The four bundled certificates use eight tables together (pair tables and
# lifts); the bound keeps all of them with room to spare.
TABLE_CACHE_SIZE = 16


def _placements(rows: tuple[int, ...], s: int, type_mask: int):
    """Injective s-tuples theta inducing the type, in lexicographic order.

    Theta grows slot by slot: slot a takes each free vertex whose
    adjacency to theta[:a] is the type's column a.
    """
    n = len(rows)
    out = [()]
    for a in range(s):
        column = type_mask >> a * (a - 1) // 2
        grown = []
        for theta in out:
            fits = (1 << n) - 1
            for b, t in enumerate(theta):
                fits &= rows[t] if column >> b & 1 else ~rows[t] & ~(1 << t)
            grown += [theta + (v,) for v in range(n) if fits >> v & 1]
        out = grown
    return out


def _splits(rest: tuple[int, ...], sizes: tuple[int, ...]) -> list:
    """Ordered tuples of disjoint subsets of ``rest`` with the given sizes."""
    if not sizes:
        return [()]
    return [
        (u,) + tail
        for u in itertools.combinations(rest, sizes[0])
        for tail in _splits(tuple(v for v in rest if v not in u), sizes[1:])
    ]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _count_table(
    type_n: int, type_mask: int, l: int, parts: tuple[int, ...], pinned: bool = False
):
    """Integer sub-flag counts for every host of order l.

    Hosts are the label-free classes of order l, or with ``pinned`` the
    flags of order l over the type.  Each label placement (every injective
    tuple inducing the type; only 0..s-1 when pinned) and each ordered
    split of the other vertices into disjoint parts of p - s vertices,
    p in ``parts``, yields the tuple of the parts' canonical masks.
    Returns (rows, total): rows is [(host mask, {mask tuple: count})] in
    listing order, and count/total is the probability of that tuple.

    A part's sub-flag mask has three pieces.  The type mask fills the
    first C(s, 2) bits.  The part's j-th vertex has its column at bit
    C(s+j, 2): its type column in the low s bits, then its pairs with the
    part's earlier vertices.
    """
    s = type_n
    sizes = tuple(p - s for p in parts)
    # subsets as positions in the list of unlabelled vertices; a split is
    # the tuple of its parts' subset indices
    free = tuple(range(l - s))
    subsets = [u for k in set(sizes) for u in itertools.combinations(free, k)]
    index = {u: x for x, u in enumerate(subsets)}
    splits = [tuple(map(index.__getitem__, split)) for split in _splits(free, sizes)]
    offsets = [(s + j) * (s + j - 1) // 2 for j in free]
    # with no labels every type column is 0
    columns_at = [tuple(zip(offsets, u)) if s else () for u in subsets]
    pairs_at = [
        tuple((u[a], u[j], 1 << offsets[j] + s + a) for j in range(len(u)) for a in range(j))
        for u in subsets
    ]
    orders = [s + len(u) for u in subsets]
    hosts = _enumerate(l, s, type_mask) if pinned else _enumerate(l, 0, 0)
    rows = []
    for host in hosts:
        grows = _rows(l, host)
        counts: dict[tuple[int, ...], int] = {}
        for theta in [tuple(range(s))] if pinned else _placements(grows, s, type_mask):
            rest = [v for v in range(l) if v not in theta]
            adj = [grows[v] for v in rest]
            # bit a of a vertex's type column is its adjacency to theta[a]
            cols = [0] * len(rest)
            for a, t in enumerate(theta):
                for i, v in enumerate(rest):
                    cols[i] |= (grows[t] >> v & 1) << a
            code = []
            for at, pairs, n in zip(columns_at, pairs_at, orders):
                mask = type_mask
                for off, i in at:
                    mask |= cols[i] << off
                for a, b, bit in pairs:
                    if adj[b] >> rest[a] & 1:
                        mask |= bit
                code.append(_min_code_cached(n, mask, s))
            for split in splits:
                key = tuple(map(code.__getitem__, split))
                counts[key] = counts.get(key, 0) + 1
        rows.append((host, counts))
    return rows, len(splits) * (1 if pinned else math.perm(l, s))


def _expand(table, labels: int, order: int, weights: dict) -> FlagVector:
    """Per host, the sum of weight * count over its mask tuples, over total."""
    rows, total = table
    scale = Fraction(1, total)
    out = FlagVector(labels, order)
    for bits, counts in rows:
        acc = 0
        for key, cnt in counts.items():
            w = weights.get(key)
            if w is not None:
                acc = acc + w * cnt
        if acc != 0:
            out.coeffs[bits] = acc * scale
    return out


# ---------------------------------------------------------------------------
# public operations


def flag_product(f1: Flag, f2: Flag) -> FlagVector:
    """Razborov product, expanded exactly over the common-order basis."""
    if f1.labels != f2.labels or f1.type_mask != f2.type_mask:
        raise ValueError("factors must share a type")
    s = f1.labels
    l = f1.order + f2.order - s
    if l > MAX_BASIS_ORDER:
        raise ValueError(f"product order {l} exceeds {MAX_BASIS_ORDER}")
    table = _count_table(s, f1.type_mask, l, (f1.order, f2.order), True)
    return _expand(table, s, l, {(f1.canonical_bits(), f2.canonical_bits()): 1})


def unlabel(vec: FlagVector) -> FlagVector:
    """Average over label placements; lands in the label-free algebra."""
    s, l = vec.labels, vec.order
    if s == 0:
        return vec
    if not vec.coeffs:
        return FlagVector(0, l)
    weights = {(b,): c for b, c in vec.coeffs.items()}
    return _expand(_count_table(s, vec._type_mask(), l, (l,)), 0, l, weights)


def lift(vec: FlagVector, l: int) -> FlagVector:
    """Express a label-free vector in the order-l basis via densities."""
    if vec.labels != 0:
        raise ValueError("lift expects a label-free vector")
    if l < vec.order:
        raise ValueError(f"cannot lift order {vec.order} down to {l}")
    if l > vec.order:
        weights = {(b,): c for b, c in vec.coeffs.items()}
        return _expand(_count_table(0, 0, l, (vec.order,)), 0, l, weights)
    out = FlagVector(0, l)  # p(f, g) is 1 when f and g are isomorphic, else 0
    out.coeffs = {b: c for b, c in sorted(vec.coeffs.items()) if c != 0}
    return out


def expand_quadratic_form(matrix, flags: list[Flag]) -> FlagVector:
    """Label-free expansion of sum_ij M[i][j] <<f_i . f_j>>.

    ``matrix`` is a square nested sequence whose entries multiply
    exactly (Fraction / RationalFunction / int).  All flags must share
    one type and order.
    """
    if not flags:
        raise ValueError("no flags given")
    s, lf, tm = flags[0].labels, flags[0].order, flags[0].type_mask
    for f in flags[1:]:
        if (f.labels, f.order, f.type_mask) != (s, lf, tm):
            raise ValueError("flags must share type and order")
    m = len(flags)
    if any(len(row) != m for row in matrix) or len(matrix) != m:
        raise ValueError("matrix shape does not match flag count")
    bits = [f.canonical_bits() for f in flags]
    if len(set(bits)) != m:
        raise ValueError("flags are not pairwise distinct")
    weights = {
        (bi, bj): matrix[i][j] for i, bi in enumerate(bits) for j, bj in enumerate(bits)
    }
    l = 2 * lf - s
    return _expand(_count_table(s, tm, l, (lf, lf)), 0, l, weights)


def bilinear_expansion(v1: FlagVector, v2: FlagVector) -> FlagVector:
    """Label-free expansion of the product of two label-free vectors."""
    if v1.labels or v2.labels:
        raise ValueError("bilinear expansion expects label-free vectors")
    l = v1.order + v2.order
    weights = {
        (b1, b2): c1 * c2
        for b1, c1 in v1.coeffs.items()
        for b2, c2 in v2.coeffs.items()
    }
    return _expand(_count_table(0, 0, l, (v1.order, v2.order)), 0, l, weights)
