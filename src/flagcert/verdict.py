"""The verdict on a parsed certificate: everything a PASS depends on.

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

Every linear factor must be c * (edge density - e) at its order, with c
nonzero (positive on the ray for the parametric kind) and one e for all
terms: e is the edge-density assumption.  A parametric 2x2 block's
optional ``psd-condition`` P with factor q is a cross-check: det M must
equal q * P, q must be positive and P nonnegative on the ray.  P's
largest root is isolated here only as the evidence of a failing
condition; the report's largest-root line is the entry points' job.

``_verify`` is the one verdict path and returns a ``VerificationReport``,
a plain record: the verdict, the scaled coefficient (numeric kind) or
deficit polynomial (parametric kind) of each class, the zero set,
failures and notes.  This module reads the parsed records of
``certificates`` by their fields alone, and imports only ``exactmath``,
``flags`` and ``graphs``: no parser, golden or report code decides a
PASS.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactmath import (
    RationalFunction,
    SymMatrix,
    check_printable,
    isolate_largest_real_root,
    nonneg_on_ray,
    positive_on_ray,
    psd_check,
    rf_nonneg_on_ray,
)
from .flags import Flag, FlagVector, bilinear_expansion, expand_quadratic_form, lift
from .graphs import _enumerate, complete, empty, enumerate_graphs, emit_paircode


# ---------------------------------------------------------------------------
# expansion


def full_matrix(term) -> list[list]:
    """The matrix the expansion of a square term uses: B M B^T, or M without B."""
    if term.vector is not None:
        inner = [[vi * vj for vj in term.vector] for vi in term.vector]
    else:
        inner = [list(r) for r in term.matrix]
    if term.congruence is None:
        return inner
    b = term.congruence
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


def _vector_from(entries, order: int) -> FlagVector:
    out = FlagVector(0, order)
    for coeff, g in entries:
        if g is None:  # the constant: every listed class, by its mask
            for mask in _enumerate(order, 0, 0):
                out.coeffs[mask] = out.coeffs.get(mask, 0) + coeff
        else:
            out.add(Flag(g, 0), coeff)
    return out


def certificate_expansion(cert) -> FlagVector:
    """target_coefficient * target + all terms, over F_{expansion_order}.

    A term whose part holds a number too long to print is refused by name.
    """
    order = cert.expansion_order
    target = ((cert.target_coefficient, cert.target),)
    total = lift(_vector_from(target, cert.target.n), order)
    for i, lt in enumerate(cert.linear_terms):
        v = _vector_from(lt.vector, lt.vector_order)
        f = _vector_from(lt.factor, lt.factor_order)
        part = lift(bilinear_expansion(v, f), order)
        check_printable(part.coeffs.values(), f"linear term {i}: an expansion coefficient")
        total = total + part
    for i, st in enumerate(cert.square_terms):
        expanded = expand_quadratic_form(full_matrix(st), list(st.flags))
        part = lift(expanded, order).scaled(st.multiplier)
        check_printable(part.coeffs.values(), f"square term {i}: an expansion coefficient")
        total = total + part
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


# ---------------------------------------------------------------------------
# the verdict


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


def _anchor_failures(cert, positive, ray: str) -> list[str]:
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


def _verify(cert, k0: Fraction | None) -> VerificationReport:
    """The one verdict path; ``k0 is None`` means the numeric kind.

    The kind picks the sign predicates, over Q or on the ray [k0, oo),
    the deficit rule and the report's coefficient lines.  The report's
    ``psd_condition_root`` is left None.
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
            condition_holds = nonneg_on_ray(st.psd_condition, k0)
            if not condition_holds:
                try:  # the evidence: P's largest root, when P has one
                    root = isolate_largest_real_root(
                        st.psd_condition, Fraction(1, 10**9)
                    ).midpoint
                except ValueError:
                    root = None
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
            check_printable((deficit,), f"deficit at {code}")
            if not deficit.is_polynomial:
                failures.append(f"deficit at {code} is not a polynomial: {deficit}")
                continue
            deficit = coefficients[code] = deficit.as_polynomial()
        else:
            c = coefficients[code] = c * cert.scale
            check_printable((c,), f"scaled coefficient at {code}")
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
        psd_condition_root=None,
        failures=tuple(failures),
        notes=tuple(notes),
    )
