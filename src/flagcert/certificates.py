"""Certificate files, their parser, and the exact verifiers.

A certificate asserts an upper bound on the density of a target graph:
the expansion of

    target_coefficient * target  +  sum of linear terms
                                 +  sum of multiplier * [[ F M F^T ]]

over the label-free basis of ``expansion-order`` must have every
coefficient c meet the bound (strictly, if declared): a numeric
certificate needs ``scale * c <= bound``, a parametric one needs
``scale * (bound - c)`` to be a polynomial nonnegative on [k0, oo).
``scale`` and ``target-coefficient`` must be positive (on the ray for
the parametric kind), or the bound says nothing about the target.
Square terms are nonnegative when M is PSD and the multiplier is
nonnegative.  One pivoted LDL^T (``exactmath.psd_check``) decides each
declared M, of any size, over Q or over Q(k) on the ray, where no entry
may have a pole; M PSD implies B M B^T PSD, so a congruence B needs no
check of its own.  Linear terms vanish (numeric kind) or are
nonnegative (parametric kind) under the certificate's edge-density
assumption, so a verified expansion bounds the target density by
bound / (scale * target-coefficient) (numeric) or by
bound / target-coefficient (parametric; 15(k-1)(k-2)/k^4 for appendixA).

File format: ``key: value`` header lines, then term blocks bracketed by
``begin linear``/``begin square`` ... ``end``.  ``#`` starts a comment.
Coefficient literals are rationals (``-0.74``, ``15/2``), polynomials in
k as ascending coefficient lists (``[30,-45,15]``), or quotients of two
such lists (``[-30,15]/[-1,1]``).  Numeric certificates allow only
rationals; parametric certificates allow all three.

The first line is ``format: flagcert 1``; a certificate without it, or
for another format version, is refused.  Header keys: format, name, kind
(numeric|parametric), expansion-order, target (paircode),
target-coefficient, scale, bound, strict (yes|no), k0 (parametric),
alt-bound (optional, numeric), note (optional).  A literal with a zero
denominator is a parse error ("division by zero").

Linear blocks: ``vector`` and ``factor`` hold ``coeff * paircode``
entries separated by ``;``; the factor may use ``const`` for the
constant 1 (expanded as the full basis of the factor's order).  Every
factor must be c * (edge density - e) at its order, with c nonzero
(positive on the ray for the parametric kind) and one e for all terms:
e is the edge-density assumption.

Square blocks: ``labels`` (type size), ``type`` (paircode of the labeled
type, ``-`` when labels is 0), ``multiplier``, ``flags`` (paircodes,
``;``-separated), then either ``vector`` (rank-one square) or repeated
``row`` lines (full matrix).  Optional ``congruence-row`` lines give a
rectangular B so the expanded matrix is B M B^T.  A parametric 2x2
matrix block may declare ``psd-condition`` (a polynomial P) together
with ``psd-condition-factor`` (a positive quotient q with det M = q * P)
as an optional cross-check: the verifier checks the identity, the sign
of q and P >= 0 on the ray, and reports P's largest root.

``verify_certificate`` returns a ``VerificationReport``, a plain record:
the verdict, the scaled coefficient (numeric kind) or deficit polynomial
(parametric kind) of each class, the zero set, the largest psd-condition
root, failures and notes.  ``compare_with_golden`` isolates the largest
root of a deficit for each polynomial row it compares; a verify without
a golden isolates none.

Input: ``load_certificate`` and ``load_golden`` read an existing path,
else a bundled file named with no directory part, and otherwise raise
FileNotFoundError.  Document text goes to ``parse_certificate`` or
``parse_golden``.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction

from .exactmath import (
    KPolynomial,
    RationalFunction,
    SymMatrix,
    frac,
    isolate_largest_real_root,
    nonneg_on_ray,
    positive_on_ray,
    psd_check,
    rf_nonneg_on_ray,
)
from .flags import (
    MAX_BASIS_ORDER,
    Flag,
    FlagVector,
    bilinear_expansion,
    expand_quadratic_form,
    lift,
)
from .graphs import (
    SmallGraph,
    _enumerate,
    complete,
    empty,
    enumerate_graphs,
    emit_paircode,
    parse_paircode,
)


# ---------------------------------------------------------------------------
# value literals


def _parse_poly_literal(tok: str) -> KPolynomial:
    tok = tok.strip()
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ValueError(f"bad polynomial literal {tok!r}")
    inner = tok[1:-1].strip()
    if not inner:
        raise ValueError(f"empty polynomial literal {tok!r}")
    return KPolynomial([frac(p) for p in inner.split(",")])


def parse_value(tok: str, parametric: bool):
    """One coefficient literal -> Fraction or RationalFunction."""
    tok = tok.strip()
    if tok.startswith("["):
        if not parametric:
            raise ValueError(f"polynomial value {tok!r} in a numeric certificate")
        if "]/[" in tok:
            ns, ds = tok.split("]/[", 1)
            return RationalFunction(
                _parse_poly_literal(ns + "]"), _parse_poly_literal("[" + ds)
            )
        return RationalFunction(_parse_poly_literal(tok))
    value = frac(tok)
    return RationalFunction(KPolynomial([value])) if parametric else value


# ---------------------------------------------------------------------------
# certificate structure


class LinearTerm(namedtuple("LinearTerm", "vector factor vector_order factor_order")):
    """(sum of coeff * graph) times (sum of coeff * graph-or-constant)."""

    __slots__ = ()


class SquareTerm(
    namedtuple(
        "SquareTerm",
        "labels multiplier flags vector matrix congruence psd_condition"
        " psd_condition_factor",
    )
):
    """multiplier * [[ F (B M B^T) F^T ]]; vector terms mean M = v v^T.

    Exactly one of ``vector`` and ``matrix`` is set; ``congruence`` (B),
    ``psd_condition`` (a KPolynomial) and ``psd_condition_factor`` (a
    RationalFunction) may be None.
    """

    __slots__ = ()

    def full_matrix(self) -> list[list]:
        """The matrix the expansion actually uses, congruence applied."""
        if self.vector is not None:
            inner = [[vi * vj for vj in self.vector] for vi in self.vector]
        else:
            inner = [list(r) for r in self.matrix]
        if self.congruence is None:
            return inner
        b = self.congruence
        n, m = len(b), len(b[0])
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0
                for p in range(m):
                    for q in range(m):
                        acc = acc + b[i][p] * inner[p][q] * b[j][q]
                out[i][j] = acc
        return out


class Certificate(
    namedtuple(
        "Certificate",
        "name kind expansion_order target target_coefficient scale bound strict"
        " k0 alt_bound note linear_terms square_terms",
    )
):
    """A parsed certificate; ``k0``, ``alt_bound`` and ``note`` may be None."""

    __slots__ = ()

    @property
    def parametric(self) -> bool:
        return self.kind == "parametric"


def _clean_lines(text: str):
    """(line number, content) of each line left after comments are cut."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _split_entries(value: str):
    return [e.strip() for e in value.split(";") if e.strip()]


def _parse_combo(value: str, parametric: bool, allow_const: bool):
    """';'-separated 'coeff * paircode' entries; 'const' means 1."""
    out = []
    for entry in _split_entries(value):
        if "*" not in entry:
            raise ValueError(f"expected 'coeff * code' in {entry!r}")
        cs, code = entry.split("*", 1)
        coeff = parse_value(cs, parametric)
        code = code.strip()
        if code == "const":
            if not allow_const:
                raise ValueError("'const' is only allowed in factors")
            out.append((coeff, None))
        else:
            out.append((coeff, parse_paircode(code)))
    return out


# the only certificate format version this verifier reads
FORMAT = "flagcert 1"
_HEADER_KEYS = frozenset((
    "format", "name", "kind", "expansion-order", "target",
    "target-coefficient", "scale", "bound", "strict", "k0",
    "alt-bound", "note",
))
_BLOCK_KEYS = {
    "linear": frozenset(("vector", "factor")),
    "square": frozenset((
        "labels", "type", "multiplier", "flags", "vector",
        "row", "congruence-row", "psd-condition", "psd-condition-factor",
    )),
}


def parse_certificate(text: str) -> Certificate:
    """Parse certificate text.

    A ValueError names its line as ``certificate line N: ...``: the
    offending line, the key's own line, or the ``begin`` line of a block
    whose shape is wrong.  A missing header key names no line.
    """
    at = [None]  # the line that the check in progress is about
    try:
        return _parse_certificate(text, at)
    except (ValueError, ZeroDivisionError) as exc:
        if at[0] is None:
            raise
        raise ValueError(f"certificate line {at[0]}: {exc}") from None


def _parse_certificate(text: str, at: list) -> Certificate:
    lines = list(_clean_lines(text))
    if lines and lines[0][1].partition(":")[0].strip() != "format":
        at[0] = lines[0][0]
        raise ValueError(f"a certificate starts with 'format: {FORMAT}'")
    header: dict[str, tuple[int, str]] = {}  # key -> (line, value)
    blocks: list[tuple[str, int, dict]] = []  # (kind, begin line, body)
    current: dict | None = None
    current_kind = ""
    for number, line in lines:
        at[0] = number
        if line.startswith("begin "):
            if current is not None:
                raise ValueError("nested begin")
            current_kind = line[len("begin ") :].strip()
            if current_kind not in ("linear", "square"):
                raise ValueError(f"unknown block kind {current_kind!r}")
            current, begin = {}, number
            continue
        if line == "end":
            if current is None:
                raise ValueError("end without begin")
            blocks.append((current_kind, begin, current))
            current = None
            continue
        if ":" not in line:
            raise ValueError(f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        allowed = _HEADER_KEYS if current is None else _BLOCK_KEYS[current_kind]
        if key not in allowed:
            where = "header" if current is None else f"{current_kind} block"
            raise ValueError(f"unknown key {key!r} in {where}")
        store = header if current is None else current
        if key in ("row", "congruence-row"):
            store.setdefault(key, []).append((number, value))
        elif key in store:
            raise ValueError(f"duplicate key {key!r}")
        else:
            store[key] = (number, value)
    if current is not None:
        at[0] = begin
        raise ValueError("unterminated block")

    def header_value(key, default=None):
        if key not in header:
            at[0] = None
            if default is None:
                raise ValueError(f"missing header key {key!r}")
            return default
        at[0], text = header[key]  # the checks that follow are about its line
        return text

    version = header_value("format")
    if version != FORMAT:
        raise ValueError(f"format {version!r} is not {FORMAT!r}")
    kind = header_value("kind", "")
    if kind not in ("numeric", "parametric"):
        raise ValueError(f"kind must be numeric or parametric, got {kind!r}")
    parametric = kind == "parametric"

    order = int(header_value("expansion-order"))
    if not 2 <= order <= MAX_BASIS_ORDER:
        raise ValueError(f"expansion-order {order} outside 2..{MAX_BASIS_ORDER}")
    target = parse_paircode(header_value("target"))
    strict_value = header_value("strict", "no")
    if strict_value not in ("yes", "no"):
        raise ValueError(f"'strict' must be yes or no, got {strict_value!r}")
    strict = strict_value == "yes"

    def poly_value(key):
        v = parse_value(header_value(key), parametric)
        if parametric:
            if not v.is_polynomial:
                raise ValueError(f"{key} must be a polynomial")
            return v.as_polynomial()
        return v

    target_coefficient = poly_value("target-coefficient")
    scale = poly_value("scale")
    bound = poly_value("bound")
    if parametric and "alt-bound" in header:
        at[0] = header["alt-bound"][0]
        raise ValueError("alt-bound only applies to numeric kind")
    if not parametric and "k0" in header:
        at[0] = header["k0"][0]
        raise ValueError("k0 only applies to parametric kind")
    alt_bound = poly_value("alt-bound") if "alt-bound" in header else None
    k0 = frac(header_value("k0")) if "k0" in header else None
    if parametric and k0 is None:
        at[0] = None
        raise ValueError("parametric certificates must declare k0")

    def block_value(bkind, body, key):
        if key not in body:
            at[0] = begin
            raise ValueError(f"{bkind} block without {key!r}")
        at[0], text = body[key]
        return text

    def rows_value(body, key):
        rows = []
        for number, text in body[key]:
            at[0] = number
            rows.append(tuple(parse_value(v, parametric) for v in _split_entries(text)))
        at[0] = begin  # what follows checks the block's shape
        return tuple(rows)

    linear_terms = []
    square_terms = []
    for bkind, begin, body in blocks:
        if bkind == "linear":
            vector = _parse_combo(
                block_value(bkind, body, "vector"), parametric, allow_const=False
            )
            factor = _parse_combo(
                block_value(bkind, body, "factor"), parametric, allow_const=True
            )
            at[0] = begin
            vorders = {g.n for _, g in vector}
            forders = {g.n for _, g in factor if g is not None}
            if len(vorders) != 1 or len(forders) != 1:
                raise ValueError("linear entries must share one order per side")
            vo, fo = vorders.pop(), forders.pop()
            if vo + fo > order:
                raise ValueError("linear product exceeds the expansion order")
            linear_terms.append(LinearTerm(tuple(vector), tuple(factor), vo, fo))
            continue

        labels = int(block_value(bkind, body, "labels"))
        flags = tuple(
            Flag(parse_paircode(c), labels)
            for c in _split_entries(block_value(bkind, body, "flags"))
        )
        if labels:
            tgraph = parse_paircode(block_value(bkind, body, "type"))
            if tgraph.n != labels:
                raise ValueError("type order does not match labels")
            for f in flags:
                if f.type_mask != tgraph.mask:
                    raise ValueError(
                        f"flag {emit_paircode(f.graph)!r} does not carry the "
                        "declared type"
                    )
        at[0] = begin
        forder = {f.order for f in flags}
        if len(forder) != 1:
            raise ValueError("square flags must share one order")
        if 2 * forder.pop() - labels > order:
            raise ValueError("square term exceeds the expansion order")
        if len({f.canonical_bits() for f in flags}) != len(flags):
            raise ValueError("square flags are not pairwise distinct")

        multiplier = parse_value(block_value(bkind, body, "multiplier"), parametric)
        vector = matrix = congruence = None
        if "vector" in body:
            vector = tuple(
                parse_value(v, parametric)
                for v in _split_entries(block_value(bkind, body, "vector"))
            )
            if len(vector) != len(flags):
                raise ValueError("vector length does not match flag count")
        elif "row" not in body:
            at[0] = begin
            raise ValueError("square block without 'vector' or 'row'")
        else:
            matrix = rows_value(body, "row")
            m = len(matrix)
            if any(len(r) != m for r in matrix):
                raise ValueError("matrix is not square")
            for i in range(m):
                for j in range(i):
                    if matrix[i][j] != matrix[j][i]:
                        raise ValueError("matrix is not symmetric")
        inner = len(vector) if vector is not None else len(matrix)
        if "congruence-row" in body:
            congruence = rows_value(body, "congruence-row")
            width = {len(r) for r in congruence}
            if len(width) != 1:
                raise ValueError("ragged congruence")
            if width.pop() != inner or len(congruence) != len(flags):
                raise ValueError("congruence shape does not match")
        elif inner != len(flags):
            raise ValueError("matrix order does not match flag count")

        psd_condition = psd_factor = None
        if "psd-condition" in body:
            psd_condition = _parse_poly_literal(block_value(bkind, body, "psd-condition"))
            if not parametric:
                raise ValueError("psd-condition only applies to parametric kind")
            psd_factor = parse_value(
                block_value(bkind, body, "psd-condition-factor"), True
            )
        elif "psd-condition-factor" in body:
            at[0] = body["psd-condition-factor"][0]
            raise ValueError("psd-condition-factor without psd-condition")
        square_terms.append(
            SquareTerm(
                labels,
                multiplier,
                flags,
                vector,
                matrix,
                congruence,
                psd_condition,
                psd_factor,
            )
        )

    return Certificate(
        name=header_value("name"),
        kind=kind,
        expansion_order=order,
        target=target,
        target_coefficient=target_coefficient,
        scale=scale,
        bound=bound,
        strict=strict,
        k0=k0,
        alt_bound=alt_bound,
        note=header["note"][1] if "note" in header else None,
        linear_terms=tuple(linear_terms),
        square_terms=tuple(square_terms),
    )


def _bundled(name: str):
    # imported here: importlib.resources pulls in tempfile and zipfile, which
    # a command that reads no bundled file need not load
    from importlib import resources

    return resources.files("flagcert").joinpath("certs").joinpath(name)


def load_certificate(source) -> Certificate:
    """Parse the certificate file at ``source``; see ``_read_text``."""
    return parse_certificate(_read_text(source))


def _read_text(source) -> str:
    """The text of an existing file, else of a bundled file named bare.

    A name with a directory part is only ever a path: a missing
    ``/elsewhere/k3.cert`` is not the bundled ``k3.cert``.
    """
    text = str(source)
    if os.path.exists(text):
        with open(text, encoding="utf-8") as f:
            return f.read()
    if os.path.basename(text) == text:
        res = _bundled(text)
        if res.is_file():
            return res.read_text(encoding="utf-8")
    raise FileNotFoundError(f"{text}: not a file and not a bundled name")


# ---------------------------------------------------------------------------
# expansion


def _vector_from(entries, order: int) -> FlagVector:
    out = FlagVector(0, order)
    for coeff, g in entries:
        if g is None:  # the constant: every listed class, by its mask
            for mask in _enumerate(order, 0, 0):
                out.coeffs[mask] = out.coeffs.get(mask, 0) + coeff
        else:
            out.add(Flag(g, 0), coeff)
    return out


def certificate_expansion(cert: Certificate) -> FlagVector:
    """target_coefficient * target + all terms, over F_{expansion_order}."""
    order = cert.expansion_order
    target = ((cert.target_coefficient, cert.target),)
    total = lift(_vector_from(target, cert.target.n), order)
    for lt in cert.linear_terms:
        v = _vector_from(lt.vector, lt.vector_order)
        f = _vector_from(lt.factor, lt.factor_order)
        prod = bilinear_expansion(v, f)
        total = total + lift(prod, order)
    for st in cert.square_terms:
        expanded = expand_quadratic_form(st.full_matrix(), list(st.flags))
        total = total + lift(expanded, order).scaled(st.multiplier)
    return total


# ---------------------------------------------------------------------------
# reports


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "name kind verdict k0 coefficients max_coefficient argmax zero_set"
        " psd_condition_root failures notes",
    )
):
    """The verdict on one certificate, with the evidence ``lines`` prints."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def lines(self) -> list[str]:
        out = [f"certificate: {self.name}", f"kind: {self.kind}"]
        if self.k0 is not None:
            out.append(f"k0: {self.k0}")
        if self.max_coefficient is not None:
            upper = math.ceil(self.max_coefficient * 1000) / 1000
            out.append(
                f"max scaled coefficient: {self.max_coefficient} "
                f"(~{float(self.max_coefficient):.6f}, at most {upper:.3f})"
                f" at {self.argmax}"
            )
        if self.psd_condition_root is not None:
            out.append(
                f"psd condition largest root: ~{float(self.psd_condition_root):.9f}"
            )
        out.append(f"zero set ({len(self.zero_set)}): " + (
            "; ".join(self.zero_set) if self.zero_set else "(empty)"
        ))
        for n in self.notes:
            out.append(f"note: {n}")
        for f in self.failures:
            out.append(f"FAIL: {f}")
        out.append(f"verdict: {self.verdict}")
        return out


def _code_of(g: SmallGraph) -> str:
    """The pair code of g's class; golden rows may list any labelling."""
    return emit_paircode(g.canonical_form())


def verify_density_certificate(cert: Certificate) -> VerificationReport:
    """Check a numeric certificate; see the module docstring for the rules."""
    if cert.parametric:
        raise ValueError("numeric verifier given a parametric certificate")
    return _verify(cert, None)


def verify_parametric_certificate(cert: Certificate, k0=None) -> VerificationReport:
    """Check a parametric certificate on the ray [k0, oo)."""
    if not cert.parametric:
        raise ValueError("parametric verifier given a numeric certificate")
    return _verify(cert, frac(k0) if k0 is not None else cert.k0)


def verify_certificate(cert: Certificate, k0=None) -> VerificationReport:
    """Check a certificate of either kind; ``k0`` moves a parametric ray."""
    if cert.parametric:
        return verify_parametric_certificate(cert, k0)
    if k0 is not None:
        raise ValueError("k0 only applies to parametric kind")
    return verify_density_certificate(cert)


def _psd_failure(rows, nonneg, where: str) -> str | None:
    """Why one square block is not PSD under ``nonneg``, or None if it is."""
    m = SymMatrix.from_rows(rows)
    res = psd_check(m, nonneg)
    if not res.verify(m, nonneg):
        return "PSD witness failed to verify"
    if not res.psd:
        return f"matrix is not PSD{where}"
    return None


def _ray_problem(value, k0: Fraction) -> str | None:
    """Why ``value`` is not nonnegative on [k0, oo), or None if it is."""
    try:
        if rf_nonneg_on_ray(value, k0):
            return None
    except ValueError:  # a pole on the ray leaves no sign to certify
        return f"has a pole on [{k0}, oo)"
    return f"is negative somewhere on [{k0}, oo)"


def _largest_root(p: KPolynomial) -> Fraction | None:
    """p's largest real root to within 10^-9, or None if p has none."""
    try:
        return isolate_largest_real_root(p, Fraction(1, 10**9)).midpoint
    except ValueError:
        return None


def _anchor_failures(cert: Certificate, positive, ray: str) -> list[str]:
    """Why a linear term's factor is not c * (edge density - e), one e for all.

    Over the classes H of the factor's order, its coefficients must be
    f_H = f_empty + c * (edge density of H), where c = f_complete - f_empty
    is nonzero, and positive on the ray for the parametric kind.  Then
    e = -f_empty / c is the edge density the term assumes: the term
    vanishes there (numeric kind), or is nonnegative from there on when
    its vector coefficients are (parametric kind).
    """
    failures = []
    shared = None  # (term index, e) of the first anchored term
    for i, lt in enumerate(cert.linear_terms):
        fo = lt.factor_order
        factor = _vector_from(lt.factor, fo)
        f_empty = factor.coeffs.get(empty(fo).mask, 0)
        c = factor.coeffs.get(complete(fo).mask, 0) - f_empty
        if not c:
            failures.append(
                f"linear term {i}: factor does not depend on the edge density "
                f"(coefficient {f_empty} at the empty and the complete graph)"
            )
            continue
        if cert.parametric and not (positive(c.num) and positive(c.den)):
            failures.append(f"linear term {i}: factor slope {c} is not positive{ray}")
        pairs = math.comb(fo, 2)
        for h in enumerate_graphs(fo):
            f_h = factor.coeffs.get(h.mask, 0)
            if (f_h - f_empty) * pairs != c * h.edge_count:
                want = f_empty + c * Fraction(h.edge_count, pairs)
                failures.append(
                    f"linear term {i}: factor coefficient {f_h} at {emit_paircode(h)} "
                    f"is not {want}, so the factor is not affine in the edge density"
                )
        e = -f_empty / c
        if shared is None:
            shared = i, e
        elif e != shared[1]:
            failures.append(
                f"linear term {i}: factor assumes edge density {e}, "
                f"linear term {shared[0]} assumes {shared[1]}"
            )
    return failures


def _verify(cert: Certificate, k0: Fraction | None) -> VerificationReport:
    """The one verdict path; ``k0 is None`` means the numeric kind.

    The kind picks the sign predicates, over Q or on the ray [k0, oo),
    the deficit rule and the report's coefficient lines.
    """
    parametric = k0 is not None
    if parametric:
        ray = f" on [{k0}, oo)"
        problem = lambda x: _ray_problem(x, k0)
        positive = lambda x: positive_on_ray(x, k0)
    else:
        ray = ""
        problem = lambda x: "is negative" if x < 0 else None
        positive = lambda x: x > 0
    failures: list[str] = []
    notes = [cert.note] if cert.note else []
    for key, value in (
        ("target-coefficient", cert.target_coefficient), ("scale", cert.scale)
    ):
        if not positive(value):
            shown = value.pretty() if parametric else value
            failures.append(f"{key} {shown} is not positive{ray}")

    failures += _anchor_failures(cert, positive, ray)
    # a numeric linear term vanishes at its pinned density: no signs to check
    for i, lt in enumerate(cert.linear_terms if parametric else ()):
        for coeff, g in lt.vector:
            why = problem(coeff)
            if why:
                failures.append(
                    f"linear term {i}, multiplier of {emit_paircode(g)}: {coeff} {why}"
                )

    psd_root = None
    for i, st in enumerate(cert.square_terms):
        why = problem(st.multiplier)
        if why:
            failures.append(f"square term {i} multiplier: {st.multiplier} {why}")
        m = st.matrix
        condition_holds = True
        # the parser allows psd-condition only in a parametric certificate
        if st.psd_condition is not None and (m is None or len(m) != 2):
            failures.append(f"square term {i}: psd-condition requires a 2x2 matrix")
        elif st.psd_condition is not None:
            # optional cross-check: det M = factor * P with P >= 0 on the ray
            factor = st.psd_condition_factor
            det = m[0][0] * m[1][1] - m[0][1] * m[0][1]
            if det != factor * RationalFunction(st.psd_condition):
                failures.append(
                    f"square term {i}: det does not factor through the "
                    "declared psd-condition"
                )
            if not (positive(factor.num) and positive(factor.den)):
                failures.append(
                    f"square term {i}: psd-condition-factor is not positive{ray}"
                )
            root = _largest_root(st.psd_condition)
            if root is not None and (psd_root is None or root > psd_root):
                psd_root = root  # the largest over all blocks
            condition_holds = nonneg_on_ray(st.psd_condition, k0)
            if not condition_holds:
                failures.append(
                    f"square term {i}: psd condition polynomial "
                    f"{st.psd_condition.pretty()} is negative{ray}"
                    + (f" (largest root ~{float(root):.7f})" if root else "")
                )
        if m is None:
            continue  # v v^T is PSD whenever the multiplier is nonnegative
        # the denominators are monic: positive on the ray iff no root there
        if parametric and not all(positive(e.den) for row in m for e in row):
            failures.append(f"square term {i}: matrix entry has a pole{ray}")
        elif condition_holds:
            why = _psd_failure(m, lambda d: problem(d) is None, ray)
            if why:
                failures.append(f"square term {i}: {why}")

    expansion = certificate_expansion(cert)
    coefficients: dict = {}
    zero = []
    for g in enumerate_graphs(cert.expansion_order):
        c = expansion.coeffs.get(g.mask, 0)  # listed classes are canonical forms
        code = emit_paircode(g)
        if parametric:
            deficit = RationalFunction(cert.scale) * (RationalFunction(cert.bound) - c)
            if not deficit.is_polynomial:
                failures.append(f"deficit at {code} is not a polynomial: {deficit}")
                continue
            deficit = coefficients[code] = deficit.as_polynomial()
        else:
            c = coefficients[code] = c * cert.scale
            deficit = cert.bound - c
        negative = problem(deficit) is not None
        if negative or cert.strict and not positive(deficit):
            if parametric:
                sign = "negative" if negative else "not positive"
                failures.append(f"deficit {deficit.pretty()} at {code} is {sign}{ray}")
            else:
                rel = "<" if cert.strict else "<="
                failures.append(f"coefficient {c} at {code} violates {rel} {cert.bound}")
        if not deficit:
            zero.append(code)
    # the first of the largest scaled coefficients, numeric kind only
    argmax = None if parametric else max(coefficients, key=coefficients.get)
    max_c = coefficients.get(argmax)

    # the parser allows alt-bound only in a numeric certificate
    if cert.alt_bound is not None:
        met = max_c < cert.alt_bound if cert.strict else max_c <= cert.alt_bound
        if met:
            notes.append(f"alternative bound {cert.alt_bound} also holds")
        else:
            notes.append(
                f"alternative bound {cert.alt_bound} NOT met: max scaled "
                f"coefficient is {max_c} (~{float(max_c):.6f}); only the "
                f"declared bound {cert.bound} verifies"
            )

    return VerificationReport(
        name=cert.name,
        kind=cert.kind,
        verdict="PASS" if not failures else "FAIL",
        k0=k0,
        coefficients=coefficients,
        max_coefficient=max_c,
        argmax=argmax,
        zero_set=tuple(zero),
        psd_condition_root=psd_root,
        failures=tuple(failures),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# golden tables


class Golden(
    namedtuple(
        "Golden",
        "label coefficient_rows polynomial_rows zero_codes profile_rows",
        defaults=((),) * 4,
    )
):
    """A published table of coefficients, polynomials, zero-set codes or
    profile rows, for comparison with a report."""

    __slots__ = ()

    def check_kind(self, kind: str) -> None:
        """Raise ValueError unless this golden's rows fit a ``kind`` report.

        A numeric report needs coefficient rows and a parametric one
        polynomial rows; rows of the other kind cannot be compared.  A
        profile golden holds neither.
        """
        want, other, name = self.coefficient_rows, self.polynomial_rows, "coefficient"
        if kind == "parametric":
            want, other, name = other, want, "polynomial"
        if not want or other:
            raise ValueError(
                f"golden {self.label!r} is not a table of {name} rows, "
                f"which a {kind} certificate needs"
            )

    def check_certificate(self, cert: Certificate) -> None:
        """Raise ValueError unless this golden is the table of ``cert``.

        Its rows must fit the certificate's kind, its label must be the
        certificate's name, and its graphs must have the expansion order.
        """
        self.check_kind(cert.kind)
        rows = self.coefficient_rows + self.polynomial_rows
        orders = {parse_paircode(r[1]).n for r in rows}
        orders.update(parse_paircode(code).n for code in self.zero_codes)
        if self.label != cert.name or orders != {cert.expansion_order}:
            raise ValueError(
                f"golden {self.label!r} is not the table of certificate "
                f"{cert.name!r}, whose graphs have order {cert.expansion_order}"
            )


def load_golden(source) -> Golden:
    """Parse the golden file at ``source``; see ``_read_text``."""
    return parse_golden(_read_text(source))


def parse_golden(text: str) -> Golden:
    """Parse golden text; a malformed row raises ValueError naming its line."""
    label = None
    coeff_rows: list[tuple[Fraction, str]] = []
    poly_rows: list[tuple[KPolynomial, str, Fraction]] = []
    zeros: list[str] = []
    profile: list[tuple[str, str]] = []
    for number, line in _clean_lines(text):
        if label is None:
            if not line.startswith("golden:"):
                raise ValueError(
                    f"golden line {number}: golden files start with a 'golden:' label"
                )
            label = line.split(":", 1)[1].strip()
            continue
        parts = [p.strip() for p in line.split("|")]
        if label == "profile":
            kind = "profile"
        elif parts[0] == "zero":
            kind = "zero"
        else:
            kind = "polynomial" if parts[0].startswith("[") else "coefficient"
        width = 3 if kind == "polynomial" else 2
        try:
            if len(parts) != width:
                raise ValueError(
                    f"a {kind} row has {width} '|'-separated columns, "
                    f"not {len(parts)}"
                )
            if kind == "profile":
                profile.append((parts[0], parts[1]))
            elif kind == "zero":
                zeros.append(_code_of(parse_paircode(parts[1])))
            elif kind == "polynomial":
                poly_rows.append(
                    (
                        _parse_poly_literal(parts[0]),
                        _code_of(parse_paircode(parts[1])),
                        frac(parts[2]),
                    )
                )
            else:
                coeff_rows.append(
                    (frac(parts[0]), _code_of(parse_paircode(parts[1])))
                )
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"golden line {number}: {exc}") from None
    if label is None:
        raise ValueError("golden file lacks a 'golden:' label")
    return Golden(
        label=label,
        coefficient_rows=tuple(coeff_rows),
        polynomial_rows=tuple(poly_rows),
        zero_codes=tuple(zeros),
        profile_rows=tuple(profile),
    )


COEFF_TOLERANCE = Fraction(1, 1000)
ROOT_TOLERANCE = Fraction(1, 10**6)


def compare_with_golden(report: VerificationReport, golden: Golden) -> list[str]:
    """Mismatch descriptions; empty means the report matches the golden.

    Raises ValueError when the golden's rows do not fit the report's kind.
    """
    golden.check_kind(report.kind)
    problems: list[str] = []
    if golden.coefficient_rows:
        for ref, code in golden.coefficient_rows:
            mine = report.coefficients.get(code)
            if mine is None:
                problems.append(f"no computed coefficient for {code}")
            elif abs(mine - ref) > COEFF_TOLERANCE:
                problems.append(
                    f"coefficient at {code}: computed {mine} "
                    f"(~{float(mine):.6f}), reference {ref}"
                )
    if golden.polynomial_rows:
        for poly, code, root in golden.polynomial_rows:
            mine = report.coefficients.get(code)
            if mine != poly:
                problems.append(
                    f"deficit at {code}: computed "
                    f"{mine.pretty() if mine is not None else None}, "
                    f"reference {poly.pretty()}"
                )
                continue
            my_root = _largest_root(mine)
            if my_root is None:
                problems.append(f"no largest root isolated at {code}")
            elif abs(my_root - root) > ROOT_TOLERANCE:
                problems.append(
                    f"largest root at {code}: computed ~{float(my_root):.9f}, "
                    f"reference {root}"
                )
    if golden.zero_codes:
        want = set(golden.zero_codes)
        got = set(report.zero_set)
        for code in sorted(want - got):
            problems.append(f"expected zero deficit at {code}")
        for code in sorted(got - want):
            problems.append(f"unexpected zero deficit at {code}")
    return problems
