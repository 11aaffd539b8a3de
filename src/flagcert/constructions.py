"""Weighted blowups, their exact induced densities, and the profile curve.

A blowup model is a base graph plus vertex weights summing to one: the
limit object of replacing base vertex v by an independent set holding a
w_v fraction of all vertices.  The induced density of a pattern h in
such a limit is

    |h|! / |Aut(h)| * sum over maps phi: V(h) -> V(base)
                      prod_v w_v^(size of fiber over v)

where phi ranges over maps whose fibers are independent in h and whose
cross-fiber pairs match base adjacency exactly.

Curve values involve square roots of rationals, so exact arithmetic
lives in Q[sqrt(n)] for squarefree n (QuadExt).  Knot values degenerate
to rationals, which makes piece-to-piece continuity an exact equation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from ._frozen import _Frozen
from .exactmath import frac
from .graphs import SmallGraph, automorphism_count, complete


def _square_split(n: int) -> tuple[int, int]:
    """n = f*f * s with s squarefree; returns (f, s)."""
    if n <= 0:
        raise ValueError("positive integer required")
    f, s = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            f *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return f, s * n


def rational_sqrt_bounds(x: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= err, for err > 0."""
    if err <= 0:
        raise ValueError(f"error bound {err} is not positive")
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    den = x.denominator
    # the least power of ten with 1 / (den * scale) <= err
    scale, num, need = 1, err.numerator * den, err.denominator
    while num * scale < need:
        scale *= 10
    r = math.isqrt(x.numerator * den * scale * scale)
    lo = Fraction(r, den * scale)
    return lo, lo + Fraction(1, den * scale)


class QuadExt(_Frozen):
    """Element a + b*sqrt(s) of Q[sqrt(s)], s a squarefree positive int.

    Construction accepts any rational radicand and normalizes: perfect
    squares fold into the rational part, so equality is structural.  The
    ring operations keep an operand's squarefree s and skip that work.
    """

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b=0, radicand=0):
        a, b, radicand = frac(a), frac(b), frac(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        s = 0
        if b != 0 and radicand != 0:
            n = radicand.numerator * radicand.denominator
            f, s = _square_split(n)
            b = b * Fraction(f, radicand.denominator)
            if s == 1:
                a, b, s = a + b, Fraction(0), 0
        else:
            b = Fraction(0)
        self._fill(a, b, s)

    @classmethod
    def _from_squarefree(cls, a: Fraction, b: Fraction, s: int) -> "QuadExt":
        """a + b*sqrt(s) from Fractions a, b and an s that is 0 or squarefree."""
        x = object.__new__(cls)
        x._fill(a, b, s if b else 0)
        return x

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.b and self.b and other.s != self.s:
                raise ValueError("mixing different quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):  # not str: no string equals a number
            return QuadExt._from_squarefree(frac(other), Fraction(0), 0)
        raise TypeError(f"cannot treat {type(other).__name__} as a number")

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.s == o.s)

    def __hash__(self):
        # a rational element equals its rational, so it hashes as one
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.s))

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt._from_squarefree(self.a + o.a, self.b + o.b, self.s or o.s)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._from_squarefree(-self.a, -self.b, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadExt._from_squarefree(self.a - o.a, self.b - o.b, self.s or o.s)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        s = self.s or o.s
        return QuadExt._from_squarefree(
            self.a * o.a + self.b * o.b * s, self.a * o.b + self.b * o.a, s
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = QuadExt(1)
        for _ in range(e):
            out = out * self
        return out

    def is_nonnegative(self) -> bool:
        if self.b == 0:
            return self.a >= 0
        if self.a >= 0 and self.b >= 0:
            return True
        if self.a < 0 and self.b < 0:
            return False
        # exactly one of a, b negative: compare a^2 against b^2 s
        return (self.a * self.a >= self.b * self.b * self.s) == (self.a >= 0)

    def approx(self, err=Fraction(1, 10**18)) -> Fraction:
        """Rational approximation within err > 0 of the true value."""
        if err <= 0:
            raise ValueError(f"error bound {err} is not positive")
        if self.b == 0:
            return self.a
        lo, hi = rational_sqrt_bounds(Fraction(self.s), frac(err) / abs(self.b))
        root = (lo + hi) / 2
        return self.a + self.b * root

    def __float__(self) -> float:
        return float(self.approx())

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.s}))"


# ---------------------------------------------------------------------------
# blowup models


class BlowupModel(_Frozen):
    """Base graph plus vertex weights (nonnegative, summing to one)."""

    __slots__ = ("base", "weights")

    def __init__(self, base: SmallGraph, weights: tuple):
        if len(weights) != base.n:
            raise ValueError("one weight per base vertex required")
        total = 0
        for w in weights:
            if isinstance(w, QuadExt):
                if not w.is_nonnegative():
                    raise ValueError("negative weight")
            elif frac(w) < 0:
                raise ValueError("negative weight")
            total = total + w
        one = QuadExt(1) if isinstance(total, QuadExt) else Fraction(1)
        if total != one:
            raise ValueError(f"weights sum to {total}, not 1")
        self._fill(base, weights)


def blowup_density(model: BlowupModel, h: SmallGraph):
    """Exact limit induced density of h in the weighted blowup.

    Works for Fraction weights and for QuadExt weights alike; the result
    lives in the same ring.  Requires |h| <= 7.
    """
    if h.n > 7:
        raise ValueError("pattern order capped at 7")
    m = h.n
    hrows = h.rows()
    brows = model.base.rows()
    bn = model.base.n
    w = model.weights
    total = None

    def extend(v: int, assign: list[int], partial):
        nonlocal total
        if v == m:
            total = partial if total is None else total + partial
            return
        for t in range(bn):
            ok = True
            for u in range(v):
                same = assign[u] == t
                adj_h = bool(hrows[v] >> u & 1)
                if same:
                    if adj_h:
                        ok = False
                        break
                elif adj_h != bool(brows[assign[u]] >> t & 1):
                    ok = False
                    break
            if ok:
                assign.append(t)
                extend(v + 1, assign, partial * w[t])
                assign.pop()

    extend(0, [], Fraction(1))
    if total is None:
        return Fraction(0)
    return total * Fraction(math.factorial(m), automorphism_count(h))


def model_value(model: BlowupModel, vector) -> Fraction:
    """Evaluate a label-free FlagVector against the model's densities."""
    acc = 0
    for flag, c in vector.items():
        acc = acc + c * blowup_density(model, flag.graph)
    return acc


# ---------------------------------------------------------------------------
# the conjectured profile curve


def turan_bound(k) -> Fraction:
    """15(k-1)(k-2)/k^4, the value forced at edge density (k-1)/k."""
    k = frac(k)
    if k < 3:
        raise ValueError("defined for k >= 3")
    return 15 * (k - 1) * (k - 2) / k**4


def conjecture_value(e) -> QuadExt:
    """Conjectured minimal density profile at edge density e, exactly.

    Piecewise: (5 e^2 / 12) sqrt(6e) up to e = 2/3, then one algebraic
    piece per integer k >= 3 on [(k-1)/k, k/(k+1)], coming from the
    join of a Turan graph with an independent part.
    """
    e = frac(e)
    if not 0 <= e <= 1:
        raise ValueError(f"edge density {e} outside [0, 1]")
    if e <= Fraction(2, 3):
        return QuadExt(0, 5 * e * e / 12, 6 * e)
    if e == 1:
        return QuadExt(0)
    k = e.denominator // (e.denominator - e.numerator)
    return _piece_value(k, e)


def _piece_value(k: int, e: Fraction) -> QuadExt:
    disc = k * k * (1 - e) - e * k
    if disc < 0:
        raise ValueError(f"edge density {e} outside the k={k} piece")
    a = QuadExt(Fraction(k, k * k + k), Fraction(1, k * k + k), disc)
    ak1 = a * k - 1
    c1 = 15 * (k - 1) * (k - 2) * k
    c2 = 30 * (k - 1) * k
    c3 = 15 * (k - 1) * k
    # c1 a^5 + c2 (ak-1)^2 a^3 - c3 (ak-1) a^4, with a^2 formed once
    a2 = a * a
    return a2 * a * (c1 * a2 + ak1 * (c2 * ak1 - c3 * a))


def piece_model(k: int, e) -> BlowupModel:
    """The extremal model behind the k-piece: K_{k+1} with k equal parts."""
    e = frac(e)
    disc = k * k * (1 - e) - e * k
    a = QuadExt(Fraction(k, k * k + k), Fraction(1, k * k + k), disc)
    last = QuadExt(1) - a * k
    weights = tuple([a] * k + [last])
    return BlowupModel(complete(k + 1), weights)


class ProfilePoint(namedtuple("ProfilePoint", "e value")):
    __slots__ = ()

    def csv_row(self, decimals: int = 6) -> str:
        ev = float(Fraction(self.e))
        vv = float(self.value.approx(Fraction(1, 10 ** (decimals + 9))))
        return f"{ev:.{decimals}f},{vv:.{decimals}f}"


def profile_table(e_from, e_to, step) -> list[ProfilePoint]:
    """Curve samples on the rational grid e_from, e_from+step, ..., <= e_to.

    The breakpoint e = 2/3, where the curve switches from the square-root
    form to the algebraic pieces, is always included when it lies in range,
    whether or not it sits on the grid.
    """
    e_from, e_to, step = frac(e_from), frac(e_to), frac(step)
    if step <= 0:
        raise ValueError("step must be positive")
    if e_from > e_to:
        raise ValueError(f"empty range: from {e_from} is above to {e_to}")
    abscissae = []
    e = e_from
    while e <= e_to:
        abscissae.append(e)
        e += step
    corner = Fraction(2, 3)
    if e_from <= corner <= e_to and corner not in abscissae:
        abscissae.append(corner)
        abscissae.sort()
    return [ProfilePoint(e, conjecture_value(e)) for e in abscissae]


def profile_csv(points: list[ProfilePoint], decimals: int = 6) -> str:
    lines = ["e,value"]
    lines += [p.csv_row(decimals) for p in points]
    return "\n".join(lines) + "\n"
