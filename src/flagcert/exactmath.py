"""Exact arithmetic helpers: rational polynomials, Sturm chains, LDL^T.

Everything here is exact.  Polynomials in one variable k are immutable
tuples of Fraction coefficients in ascending order.  Every gcd and
exact division runs on primitive integer polynomials.  Every sign on a
ray [k0, inf) is read off one integer Sturm chain (ascending int lists)
of the squarefree part, or of the odd-multiplicity part for
nonnegativity, by integer Horner steps.  A rational function's
denominator is monic, so its pole on the ray is a root in [k0, inf).
One pivoted LDL^T classifies symmetric matrices of any size over Q, or
over Q(k) on a ray, as PSD / not-PSD with a checkable witness either way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._frozen import _Frozen

Rat = int | Fraction


def frac(x) -> Fraction:
    """Coerce ints, Fractions and exact decimal strings to Fraction.

    A string with a zero denominator raises ValueError, as any other
    malformed literal does.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in {x.strip()!r}") from None
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction exactly")


class KPolynomial(_Frozen):
    """Polynomial in k over Q; coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._fill(tuple(cs))

    @staticmethod
    def constant(c) -> "KPolynomial":
        return KPolynomial([frac(c)])

    @staticmethod
    def variable() -> "KPolynomial":
        return KPolynomial([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        return NotImplemented if other is None else self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its rational, so it hashes as one
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __neg__(self) -> "KPolynomial":
        return KPolynomial([-c for c in self.coeffs])

    def __add__(self, other) -> "KPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return KPolynomial(
            [c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)]
        )

    __radd__ = __add__

    def __sub__(self, other) -> "KPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "KPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "KPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return KPolynomial()
        if other.degree == 0:
            c = other.coeffs[0]
            return KPolynomial([a * c for a in self.coeffs])
        if self.degree == 0:
            c = self.coeffs[0]
            return KPolynomial([c * b for b in other.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return KPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "KPolynomial":
        if e < 0:
            raise ValueError("negative power")
        out = KPolynomial.constant(1)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def monic(self) -> "KPolynomial":
        if self.is_zero:
            return self
        lc = self.leading
        return KPolynomial([c / lc for c in self.coeffs])

    def __repr__(self) -> str:
        return f"KPolynomial({[str(c) for c in self.coeffs]})"

    def pretty(self, var: str = "k") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                term = "" if mag == 1 else f"{mag}*"
                term += var if i == 1 else f"{var}^{i}"
            parts.append(("-" if c < 0 else "+", term))
        sign, first = parts[0]
        out = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


def _as_poly(x):
    if isinstance(x, KPolynomial):
        return x
    if isinstance(x, (int, Fraction, str)):
        return KPolynomial.constant(x)
    return None


def _require_poly(x) -> KPolynomial:
    p = _as_poly(x)
    if p is None:
        raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")
    return p


# Integer polynomials: ascending int lists, no trailing zeros.  Each is a
# positive multiple of the rational polynomial it stands for, so roots and
# signs are those of the original.


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _int_poly(p: KPolynomial) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (lcm // c.denominator) for c in p.coeffs])


def _int_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, in integers."""
    r = list(a)
    lc = b[-1]
    while len(r) >= len(b):
        c = r[-1]
        if c:
            g = math.gcd(lc, c)
            f, h = lc // g, c // g
            if f < 0:
                f, h = -f, -h
            if f != 1:
                r = [f * x for x in r]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] -= h * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return [-c for c in a] if a[-1] < 0 else a


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b when b divides a; integral by Gauss's lemma for primitive b."""
    r = list(a)
    lc = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        c, m = divmod(r[shift + len(b) - 1], lc)
        if m:
            raise ValueError("division is not exact")
        q[shift] = c
        if c:
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
    if any(r):
        raise ValueError("division is not exact")
    return q


def _int_squarefree(a: list[int]) -> list[int]:
    """a / gcd(a, a'): every root of a, each once."""
    if len(a) <= 1:
        return [1]
    return _int_exact_div(a, _int_gcd(a, _int_derivative(a)))


def _int_odd_part(a: list[int]) -> list[int]:
    """The product of the factors of odd multiplicity in a, each once.

    g = gcd(a, a') holds every factor once less than a, so a / g holds
    each once and odd(a) = (a / g) / odd(g).
    """
    if len(a) <= 1:
        return [1]
    g = _int_gcd(a, _int_derivative(a))
    return _int_exact_div(_int_exact_div(a, g), _int_odd_part(g))


# ---------------------------------------------------------------------------
# Sturm chains and root location


def sturm_chain(a: list[int]) -> list[list[int]]:
    """Sturm chain of a squarefree primitive integer polynomial a.

    a and every element are ascending int lists.  Each element is a
    positive multiple of the classical element (a, a', -rem, ...), so every
    sign variation count is unchanged.
    """
    chain = [a]
    b = _primitive(_int_derivative(a))
    while b:
        chain.append(b)
        a, b = b, [-c for c in _primitive(_prem(a, b))]
    return chain


def _variations(signs: Iterable[int]) -> int:
    var = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last and s != last:
            var += 1
        last = s
    return var


def _signs_at(chain: Sequence[list[int]], a: int, b: int) -> list[int]:
    """Signs of the chain's elements at a / b, b > 0.

    An element q of degree d has the sign of sum q_i a^i b^(d-i), which
    integer Horner steps evaluate without any division.
    """
    bpow = [1]
    for _ in range(len(chain[0]) - 1):
        bpow.append(bpow[-1] * b)
    signs = []
    for q in chain:
        d = len(q) - 1
        acc = q[d]
        for i in range(d - 1, -1, -1):
            acc = acc * a + q[i] * bpow[d - i]
        signs.append((acc > 0) - (acc < 0))
    return signs


def _variations_at_inf(chain: Sequence[list[int]], positive: bool) -> int:
    """Sign variations of the chain as x tends to +inf or to -inf."""
    signs = []
    for q in chain:
        s = 1 if q[-1] > 0 else -1
        signs.append(s if positive or len(q) % 2 else -s)  # (-1)^deg at -inf
    return _variations(signs)


def _roots_between(chain: Sequence[list[int]], lower, upper) -> int:
    """Distinct roots of chain[0] in (lower, upper); None means unbounded.

    At a root x the chain's variation count equals the one just right of
    x, so V(lower) counts from just past lower, and a root at upper is
    subtracted.
    """
    if lower is None:
        count = _variations_at_inf(chain, False)
    else:
        lower = frac(lower)
        count = _variations(_signs_at(chain, lower.numerator, lower.denominator))
    if upper is None:
        return count - _variations_at_inf(chain, True)
    upper = frac(upper)
    signs = _signs_at(chain, upper.numerator, upper.denominator)
    return count - _variations(signs) - (signs[0] == 0)


def count_real_roots(p: KPolynomial, lower=None, upper=None) -> int:
    """Distinct real roots in (lower, upper); None means unbounded.

    Endpoint roots are excluded.  An empty interval (lower >= upper) has
    no roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if lower is not None and upper is not None and frac(lower) >= frac(upper):
        return 0
    if p.degree == 0:
        return 0
    return _roots_between(sturm_chain(_int_squarefree(_int_poly(p))), lower, upper)


def cauchy_bound(p: KPolynomial) -> Fraction:
    """B with every real root strictly inside (-B, B)."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lc = abs(p.leading)
    return 1 + max(abs(c) / lc for c in p.coeffs[:-1])


class RootBracket(namedtuple("RootBracket", "lower upper")):
    """Rational bracket (lower, upper] known to contain the root."""

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def isolate_largest_real_root(p: KPolynomial, precision) -> RootBracket:
    """Bracket the largest real root to within the given rational width.

    Builds one Sturm chain and bisects on V(mid) - V(+inf), the number of
    roots in (mid, inf).  The bisection points are lo/den and hi/den with a
    shared power-of-two denominator, so no Fraction enters the loop.
    Raises ValueError when p has no real root.
    """
    precision = frac(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    if p.is_zero or p.degree == 0:
        raise ValueError("no real root")
    chain = sturm_chain(_int_squarefree(_int_poly(p)))
    v_inf = _variations_at_inf(chain, True)
    if _variations_at_inf(chain, False) == v_inf:
        raise ValueError("no real root")
    bound = cauchy_bound(p)
    lo, hi, den = -bound.numerator, bound.numerator, bound.denominator
    while (hi - lo) * precision.denominator > precision.numerator * den:
        mid = lo + hi  # the midpoint over the doubled denominator
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if _variations(_signs_at(chain, mid, den)) > v_inf:
            lo = mid
        else:
            hi = mid
    return RootBracket(Fraction(lo, den), Fraction(hi, den))


def nonneg_on_ray(p: KPolynomial, k0) -> bool:
    """Exact test: p(k) >= 0 for every real k >= k0.

    Characterization: p(k0) >= 0, the leading coefficient is positive
    (nonconstant case), and p has no odd-multiplicity root beyond k0.
    Even-order touch points above k0 are allowed.
    """
    k0 = frac(k0)
    if p.is_zero:
        return True
    if p.degree == 0:
        return p.coeffs[0] >= 0
    if p.leading < 0 or p(k0) < 0:
        return False
    odd = _int_odd_part(_int_poly(p))  # squarefree and primitive already
    return len(odd) <= 1 or _roots_between(sturm_chain(odd), k0, None) == 0


def positive_on_ray(p: KPolynomial, k0) -> bool:
    """Exact test: p(k) > 0 for every real k >= k0."""
    k0 = frac(k0)
    if p.is_zero:
        return False
    if p.degree == 0:
        return p.coeffs[0] > 0
    if p(k0) <= 0 or p.leading < 0:
        return False
    return _roots_between(sturm_chain(_int_squarefree(_int_poly(p))), k0, None) == 0


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction(_Frozen):
    """Quotient of KPolynomials, normalized: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _require_poly(num)
        den = _require_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = KPolynomial.constant(1)
        else:
            if num.degree > 0 and den.degree > 0:
                n, d = _int_poly(num), _int_poly(den)
                g = _int_gcd(n, d)
                if len(g) > 1:
                    # num = a * n and den = b * d with rationals a, b > 0
                    a = num.leading / n[-1]
                    b = den.leading / d[-1]
                    num = KPolynomial([a * c for c in _int_exact_div(n, g)])
                    den = KPolynomial([b * c for c in _int_exact_div(d, g)])
            lc = den.leading
            if lc != 1:
                num = num * KPolynomial.constant(1 / lc)
                den = den.monic()
        self._fill(num, den)

    @staticmethod
    def _normalized(num: KPolynomial, den: KPolynomial) -> "RationalFunction":
        """Wrap a numerator and denominator already in normal form."""
        r = object.__new__(RationalFunction)
        r._fill(num, den)
        return r

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> KPolynomial:
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: denominator {self.den.pretty()}")
        return self.num

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, so it hashes as that
        return hash(self.num) if self.den.degree == 0 else hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _require_rf(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_require_rf(other))

    def __rsub__(self, other):
        return _require_rf(other) + (-self)

    def __mul__(self, other):
        other = _require_rf(other)
        # a nonzero constant factor cannot change the gcd: scale the numerator
        if other.num.degree == 0 and other.den.degree == 0:
            return RationalFunction._normalized(self.num * other.num, self.den)
        if self.num.degree == 0 and self.den.degree == 0:
            return RationalFunction._normalized(other.num * self.num, other.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _require_rf(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _require_rf(other) / self

    def __repr__(self):
        if self.is_polynomial:
            return f"RF({self.num.pretty()})"
        return f"RF(({self.num.pretty()}) / ({self.den.pretty()}))"


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    p = _as_poly(x)
    return None if p is None else RationalFunction(p)


def _require_rf(x) -> RationalFunction:
    r = _as_rf(x)
    if r is None:
        raise TypeError(f"cannot treat {type(x).__name__} as rational function")
    return r


def rf_nonneg_on_ray(r: RationalFunction, k0) -> bool:
    """Nonnegativity of num/den on [k0, inf).

    The denominator is monic, so it has no root on the ray exactly when
    it is positive there, and then num/den has the sign of num.  Raises
    ValueError on a pole: a root of the denominator in [k0, inf).
    """
    r = _require_rf(r)
    if not positive_on_ray(r.den, k0):
        raise ValueError(f"denominator {r.den.pretty()} has a root on [{k0}, oo)")
    return nonneg_on_ray(r.num, k0)


# ---------------------------------------------------------------------------
# exact symmetric PSD check


def _rational_nonneg(d) -> bool:
    return d >= 0


class SymMatrix(namedtuple("SymMatrix", "entries")):
    """Symmetric matrix over Q or Q(k) (entries validated on construction)."""

    __slots__ = ()

    @staticmethod
    def from_rows(rows) -> "SymMatrix":
        ent = tuple(
            tuple(x if isinstance(x, RationalFunction) else frac(x) for x in row)
            for row in rows
        )
        n = len(ent)
        if any(len(row) != n for row in ent):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if ent[i][j] != ent[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        return SymMatrix(ent)

    @property
    def order(self) -> int:
        return len(self.entries)

    def quadratic_form(self, v: Sequence):
        return sum(
            self.entries[i][j] * v[i] * v[j]
            for i in range(self.order)
            for j in range(self.order)
        )


class PSDResult(
    namedtuple("PSDResult", "psd perm lower diag witness", defaults=(None,) * 4)
):
    """Outcome of an exact LDL^T factorization attempt.

    PSD case: perm, unit lower-triangular factor and pivots accepted by
    the sign predicate, with P M P^T = L D L^T.  Failure case: witness
    vector whose value witness^T M witness the predicate rejects.
    """

    __slots__ = ()

    def verify(self, m: SymMatrix, nonneg=_rational_nonneg) -> bool:
        """Re-check the stored evidence against the matrix."""
        n = m.order
        if not self.psd:
            return not nonneg(m.quadratic_form(self.witness))
        if not all(nonneg(d) for d in self.diag):
            return False
        p, lo = self.perm, self.lower
        for i in range(n):
            if lo[i][i] != 1 or any(lo[i][j] != 0 for j in range(i + 1, n)):
                return False
        for i in range(n):
            for j in range(n):
                val = sum(lo[i][t] * self.diag[t] * lo[j][t] for t in range(n))
                if val != m.entries[p[i]][p[j]]:
                    return False
        return True


def psd_check(m: SymMatrix, nonneg=_rational_nonneg) -> PSDResult:
    """Exact PSD decision by pivoted LDL^T over Q or Q(k).

    Each step pivots on the first nonzero diagonal entry of the residual
    block; ``nonneg`` decides its sign.  Over Q that is ``d >= 0``; over
    Q(k) the caller passes nonnegativity on a ray, and the factorization
    is an identity of rational functions.  A rejected pivot, or a zero
    residual diagonal with a nonzero entry off it, yields a witness.
    """
    n = m.order
    a = [list(row) for row in m.entries]
    order = list(range(n))  # order[t] = original index at pivot slot t
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for t in range(n):
        lower[t][t] = Fraction(1)

    for t in range(n):
        piv = next((j for j in range(t, n) if a[j][j]), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]),
                None,
            )
            if off is None:
                break  # residual block is zero: PSD
            i, j = off
            return _lift_witness(
                n,
                t,
                {i: Fraction(-1, 2) / a[i][j], j: Fraction(1)},
                lower,
                order,
            )
        if not nonneg(a[piv][piv]):
            return _lift_witness(n, t, {piv: Fraction(1)}, lower, order)
        if piv != t:
            a[piv], a[t] = a[t], a[piv]
            for row in a:
                row[piv], row[t] = row[t], row[piv]
            order[piv], order[t] = order[t], order[piv]
            for c in range(t):  # identity part stays put
                lower[piv][c], lower[t][c] = lower[t][c], lower[piv][c]
        d = a[t][t]
        diag[t] = d
        for i in range(t + 1, n):
            f = a[i][t] / d
            lower[i][t] = f
            if f:
                for j in range(t + 1, n):
                    a[i][j] -= f * a[t][j]
    return PSDResult(
        psd=True,
        perm=tuple(order),
        lower=tuple(tuple(row) for row in lower),
        diag=tuple(diag),
    )


def _lift_witness(n, t, slot_values, lower, order) -> PSDResult:
    """Turn a residual-block witness into one for the original matrix.

    The elimination so far is P M P^T = L [D 0; 0 S] L^T with S the
    residual block at slot t.  A vector w with w^T S w < 0 lifts to
    y = (L^T)^{-1} [0; w]: then y^T (P M P^T) y = w^T S w.
    """
    y = [Fraction(0)] * n
    for slot, val in slot_values.items():
        y[slot] = val
    # solve L^T x = [0; w]: back substitution over the first t columns
    for s in range(t - 1, -1, -1):
        y[s] = -sum(lower[i][s] * y[i] for i in range(s + 1, n))
    vec = [Fraction(0)] * n
    for slot in range(n):
        vec[order[slot]] = y[slot]
    return PSDResult(psd=False, witness=tuple(vec))
