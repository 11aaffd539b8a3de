"""Typed graph flags and their algebra over exact rationals.

A flag is a graph whose first ``labels`` vertices are distinguished and
ordered; the induced graph on those vertices is the flag's type.  Two
flags are isomorphic only via bijections fixing every labelled vertex.

The product of two flags of orders l1, l2 over a type of size s is the
vector over flags of order l1+l2-s whose coefficient at H is the
probability that a uniformly random split of H's unlabelled vertices
into disjoint parts of sizes l1-s and l2-s induces the two factors.
Unlabelling averages over all injective placements of the labels.

All expansions used by certificate checking reduce to one memoized
table: for a host graph G, how often does (random label placement,
random split) induce a given ordered pair of flags.  Coefficients may
be Fractions or RationalFunctions; the arithmetic only assumes ring
operations against ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import (
    SmallGraph,
    _enumerate,
    _enumerate_unchecked,
    _flag_bits,
    _induced_mask,
    induced_density,
    mask_to_code_bits,
    parse_paircode,
    emit_paircode,
)

MAX_BASIS_ORDER = 6


@dataclass(frozen=True)
class Flag:
    """Graph with the first ``labels`` vertices pinned (in order)."""

    graph: SmallGraph
    labels: int

    def __post_init__(self):
        if not 0 <= self.labels <= self.graph.n:
            raise ValueError(f"label count {self.labels} outside 0..{self.graph.n}")

    @property
    def order(self) -> int:
        return self.graph.n

    def type_graph(self) -> SmallGraph | None:
        """Induced graph on the labelled vertices; None for no labels."""
        if self.labels == 0:
            return None
        return self.graph.induced(tuple(range(self.labels)))

    def canonical_bits(self) -> int:
        return _flag_bits(self.graph.n, self.graph.mask, self.labels)

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


def _type_key(type_graph: SmallGraph | None) -> tuple[int, int]:
    if type_graph is None:
        return (0, 0)
    return (type_graph.n, type_graph.mask)


def flag_basis(type_graph: SmallGraph | None, l: int) -> tuple[Flag, ...]:
    """All flags of order l over the given type, sorted by canonical code.

    The labelled vertices of every returned flag are 0..s-1 and induce
    exactly the type graph (same adjacency, same vertex order).
    """
    s, mask = _type_key(type_graph)
    if not s <= l <= MAX_BASIS_ORDER or l < 1:
        raise ValueError(f"basis order {l} outside {max(s,1)}..{MAX_BASIS_ORDER}")
    return tuple(Flag(g, s) for g in _enumerate(l, s, mask))


class FlagVector:
    """Sparse linear combination of flags sharing one type and order.

    Coefficients are any exact ring elements (Fraction, RationalFunction).
    Keys are flag canonical codes; ``support`` recovers Flag objects.
    """

    __slots__ = ("labels", "order", "coeffs", "_flags")

    def __init__(self, labels: int, order: int, items=()):
        self.labels = labels
        self.order = order
        self.coeffs: dict[int, object] = {}
        self._flags: dict[int, Flag] = {}
        for flag, c in items:
            self.add(flag, c)

    def add(self, flag: Flag, c) -> None:
        if flag.labels != self.labels or flag.order != self.order:
            raise ValueError(
                f"flag {flag} does not live in (labels={self.labels}, "
                f"order={self.order})"
            )
        bits = flag.canonical_bits()
        self._flags.setdefault(bits, flag)
        cur = self.coeffs.get(bits, 0) + c
        self.coeffs[bits] = cur

    def items(self):
        return [(self._flags[b], c) for b, c in sorted(self.coeffs.items())]

    def coefficient(self, flag: Flag):
        return self.coeffs.get(flag.canonical_bits(), 0)

    def scaled(self, factor) -> "FlagVector":
        out = FlagVector(self.labels, self.order)
        for f, c in self.items():
            out.add(f, c * factor)
        return out

    def __add__(self, other: "FlagVector") -> "FlagVector":
        if (self.labels, self.order) != (other.labels, other.order):
            raise ValueError("adding vectors of different shape")
        out = FlagVector(self.labels, self.order)
        for f, c in self.items():
            out.add(f, c)
        for f, c in other.items():
            out.add(f, c)
        return out


# ---------------------------------------------------------------------------
# the shared enumeration table


def _sub_flag_bits(rows, vertices: tuple[int, ...], labels: int) -> int:
    return _flag_bits(len(vertices), _induced_mask(rows, vertices), labels)


def _placements(g: SmallGraph, type_n: int, type_mask: int):
    """Injective type_n-tuples of V(g) inducing exactly the type graph."""
    rows = g.rows()
    return [
        theta
        for theta in itertools.permutations(range(g.n), type_n)
        if _induced_mask(rows, theta) == type_mask
    ]


@lru_cache(maxsize=None)
def _pair_table(type_n: int, type_mask: int, l1: int, l2: int):
    """Joint split counts for every host graph of order l1+l2-type_n.

    Returns (per_host, total): per_host maps a host's canonical code to
    a dict {(flag1_bits, flag2_bits): count}; count/total is the
    probability that a random injective label placement plus a random
    ordered split induces that flag pair.
    """
    s = type_n
    l = l1 + l2 - s
    hosts = _enumerate_unchecked(l)
    per_host: dict[int, dict[tuple[int, int], int]] = {}
    for g in hosts:
        rows = g.rows()
        counts: dict[tuple[int, int], int] = {}
        for theta in _placements(g, type_n, type_mask):
            rest = [v for v in range(l) if v not in theta]
            for u1 in itertools.combinations(rest, l1 - s):
                in_u1 = set(u1)
                u2 = tuple(v for v in rest if v not in in_u1)
                key = (
                    _sub_flag_bits(rows, theta + u1, s),
                    _sub_flag_bits(rows, theta + u2, s),
                )
                counts[key] = counts.get(key, 0) + 1
        per_host[mask_to_code_bits(l, g.mask)] = counts
    total = math.perm(l, s) * math.comb(l - s, l1 - s)
    return per_host, total


@lru_cache(maxsize=None)
def _unlabel_table(type_n: int, type_mask: int, l: int):
    """Counts of label placements per host: {host: {flag_bits: count}}."""
    hosts = _enumerate_unchecked(l)
    per_host: dict[int, dict[int, int]] = {}
    for g in hosts:
        rows = g.rows()
        counts: dict[int, int] = {}
        for theta in _placements(g, type_n, type_mask):
            rest = tuple(v for v in range(l) if v not in theta)
            bits = _sub_flag_bits(rows, theta + rest, type_n)
            counts[bits] = counts.get(bits, 0) + 1
        per_host[mask_to_code_bits(l, g.mask)] = counts
    return per_host, math.perm(l, type_n)


# ---------------------------------------------------------------------------
# public operations


def flag_product(f1: Flag, f2: Flag) -> FlagVector:
    """Razborov product, expanded exactly over the common-order basis."""
    if f1.labels != f2.labels:
        raise ValueError("factors must share a type")
    s = f1.labels
    t1, t2 = f1.type_graph(), f2.type_graph()
    if (t1 is None) != (t2 is None) or (
        t1 is not None and (t1.n, t1.mask) != (t2.n, t2.mask)
    ):
        raise ValueError("factors must share a type")
    l = f1.order + f2.order - s
    if l > MAX_BASIS_ORDER:
        raise ValueError(f"product order {l} exceeds {MAX_BASIS_ORDER}")
    bits1, bits2 = f1.canonical_bits(), f2.canonical_bits()
    denom = math.comb(l - s, f1.order - s)
    pre = tuple(range(s))
    out = FlagVector(s, l)
    for h in flag_basis(t1, l):
        rows = h.graph.rows()
        fav = 0
        for u1 in itertools.combinations(range(s, l), f1.order - s):
            in_u1 = set(u1)
            u2 = tuple(v for v in range(s, l) if v not in in_u1)
            if (
                _sub_flag_bits(rows, pre + u1, s) == bits1
                and _sub_flag_bits(rows, pre + u2, s) == bits2
            ):
                fav += 1
        if fav:
            out.add(h, Fraction(fav, denom))
    return out


def unlabel(vec: FlagVector) -> FlagVector:
    """Average over label placements; lands in the label-free algebra."""
    s, l = vec.labels, vec.order
    if s == 0:
        return vec
    sample = next(iter(vec.items()))[0] if vec.coeffs else None
    if sample is None:
        return FlagVector(0, l)
    tg = sample.type_graph()
    tn, tm = _type_key(tg)
    table, total = _unlabel_table(tn, tm, l)
    hosts = {mask_to_code_bits(l, g.mask): g for g in _enumerate_unchecked(l)}
    out = FlagVector(0, l)
    for host_bits, counts in table.items():
        acc = 0
        for fbits, cnt in counts.items():
            c = vec.coeffs.get(fbits)
            if c is not None:
                acc = acc + c * cnt
        if acc:
            out.add(Flag(hosts[host_bits], 0), acc * Fraction(1, total))
    return out


def lift(vec: FlagVector, l: int) -> FlagVector:
    """Express a label-free vector in the order-l basis via densities."""
    if vec.labels != 0:
        raise ValueError("lift expects a label-free vector")
    if l < vec.order:
        raise ValueError(f"cannot lift order {vec.order} down to {l}")
    out = FlagVector(0, l)
    items = vec.items()
    for g in _enumerate_unchecked(l):
        acc = 0
        for f, c in items:
            acc = acc + c * induced_density(f.graph, g)
        if acc:
            out.add(Flag(g, 0), acc)
    return out


def expand_quadratic_form(matrix, flags: list[Flag]) -> FlagVector:
    """Label-free expansion of sum_ij M[i][j] <<f_i . f_j>>.

    ``matrix`` is a square nested sequence whose entries multiply
    exactly (Fraction / RationalFunction / int).  All flags must share
    one type and order.
    """
    if not flags:
        raise ValueError("no flags given")
    s = flags[0].labels
    lf = flags[0].order
    tg = flags[0].type_graph()
    tn, tm = _type_key(tg)
    for f in flags[1:]:
        if f.labels != s or f.order != lf:
            raise ValueError("flags must share type and order")
        og = f.type_graph()
        if _type_key(og) != (tn, tm):
            raise ValueError("flags must share type and order")
    m = len(flags)
    if any(len(row) != m for row in matrix) or len(matrix) != m:
        raise ValueError("matrix shape does not match flag count")
    bits = [f.canonical_bits() for f in flags]
    if len(set(bits)) != m:
        raise ValueError("flags are not pairwise distinct")
    index = {b: i for i, b in enumerate(bits)}
    l = 2 * lf - s
    table, total = _pair_table(tn, tm, lf, lf)
    hosts = {mask_to_code_bits(l, g.mask): g for g in _enumerate_unchecked(l)}
    out = FlagVector(0, l)
    for host_bits, counts in table.items():
        acc = 0
        for (b1, b2), cnt in counts.items():
            i = index.get(b1)
            j = index.get(b2)
            if i is not None and j is not None:
                acc = acc + matrix[i][j] * cnt
        if acc:
            out.add(Flag(hosts[host_bits], 0), acc * Fraction(1, total))
    return out


def bilinear_expansion(v1: FlagVector, v2: FlagVector) -> FlagVector:
    """Label-free expansion of the product of two label-free vectors."""
    if v1.labels or v2.labels:
        raise ValueError("bilinear expansion expects label-free vectors")
    l = v1.order + v2.order
    table, total = _pair_table(0, 0, v1.order, v2.order)
    hosts = {mask_to_code_bits(l, g.mask): g for g in _enumerate_unchecked(l)}
    out = FlagVector(0, l)
    for host_bits, counts in table.items():
        acc = 0
        for (b1, b2), cnt in counts.items():
            c1 = v1.coeffs.get(b1)
            if c1 is None:
                continue
            c2 = v2.coeffs.get(b2)
            if c2 is None:
                continue
            acc = acc + c1 * c2 * cnt
        if acc:
            out.add(Flag(hosts[host_bits], 0), acc * Fraction(1, total))
    return out
