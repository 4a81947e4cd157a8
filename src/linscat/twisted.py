"""Twisted multiplicative heights and the logarithmic twisted inequality.

H_Q(x) = prod over v in S of max_i |l_vi(x)|_{v,K} Q^(-c_vi), times |x|_v
for the places outside S.  For primitive integer coordinates the finite
part outside S is 1, leaving only the max|x_i| factor when the infinite
place is not in S.  Everything is evaluated in log space.
"""

import contextlib
import math
from fractions import Fraction

import mpmath

from .errors import AllFormsVanish, BadParameter, OnSupport
from .fieldarith import FieldElement
from .heights import LinearForm, log_height
from .places import INF, arch_abs, nonarch_exponent, places_above


def _field_det(field, rows):
    """Exact determinant of a square matrix of field elements."""
    m = [list(r) for r in rows]
    size = len(m)
    det = field.one()
    for col in range(size):
        piv = None
        for r in range(col, size):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return field.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, size):
                    m[r][c] = m[r][c] - factor * m[col][c]
    return det


def _normalize_v(v):
    if v in (INF, "oo", "infinity", None):
        return INF
    return int(v)


class TwistedHeightSpec:
    """Field, places, per-place form systems and zero-sum weight rows.

    forms and weights are dicts keyed by place of Q (or parallel lists in
    S-order); each place carries n+1 forms, checked linearly independent
    by an exact determinant, and n+1 rational weights summing to 0.
    """

    def __init__(self, field, S, forms, weights, epsilon, Q=1,
                 w_choices=None, precision=40):
        self.field = field
        self.S = [_normalize_v(v) for v in S]
        if len(set(self.S)) != len(self.S):
            raise BadParameter("duplicate places in S")
        if isinstance(forms, (list, tuple)):
            forms = dict(zip(self.S, forms))
        if isinstance(weights, (list, tuple)) and weights and \
                not isinstance(weights, dict):
            weights = dict(zip(self.S, weights))
        self.forms = {}
        self.weights = {}
        n_vars = None
        for v in self.S:
            if v not in forms or v not in weights:
                raise BadParameter("missing forms or weights for place %r" % (v,))
            fs = list(forms[v])
            for f in fs:
                if not isinstance(f, LinearForm) or f.field != field:
                    raise BadParameter("forms must be LinearForms over the spec field")
            if n_vars is None:
                n_vars = fs[0].n_vars
            if any(f.n_vars != n_vars for f in fs) or len(fs) != n_vars:
                raise BadParameter(
                    "place %r needs exactly %d forms in %d variables" % (v, n_vars, n_vars)
                )
            det = _field_det(field, [f.coeffs for f in fs])
            if not det:
                raise BadParameter("forms at place %r are linearly dependent" % (v,))
            ws = [Fraction(c) for c in weights[v]]
            if len(ws) != n_vars:
                raise BadParameter("weight row at %r has wrong length" % (v,))
            if sum(ws) != 0:
                raise BadParameter(
                    "weight row at %r sums to %s, not 0" % (v, sum(ws))
                )
            self.forms[v] = tuple(fs)
            self.weights[v] = tuple(ws)
        self.n = n_vars - 1
        self.epsilon = Fraction(epsilon)
        self.Q = Fraction(Q)
        if self.Q < 1:
            raise BadParameter("Q must be >= 1")
        self.w_choices = dict(w_choices or {})
        self.precision = precision
        self._place_objs = None

    def with_Q(self, Q):
        clone = object.__new__(TwistedHeightSpec)
        clone.__dict__.update(self.__dict__)
        clone.Q = Fraction(Q)
        if clone.Q < 1:
            raise BadParameter("Q must be >= 1")
        return clone

    def places(self):
        if self._place_objs is None:
            out = {}
            for v in self.S:
                prec = max(30, self.precision) if v == INF else max(40, self.precision)
                ws = places_above(self.field, v, prec)
                idx = self.w_choices.get(v, 0)
                hit = [w for w in ws if w.w_index == idx]
                if not hit:
                    raise BadParameter("no place of index %d above %r" % (idx, v))
                out[v] = hit[0]
            self._place_objs = out
        return self._place_objs


def _log_form_abs(field, place, val, precision):
    """log|val|_{v,K}; val a nonzero field element."""
    if place.kind == "nonarch":
        t = nonarch_exponent(field, place, val)
        if precision <= 17:
            return -float(t) * math.log(place.prime)
        return -mpmath.mpf(t.numerator) / t.denominator * mpmath.log(place.prime)
    mag = arch_abs(field, place, val, precision)
    return math.log(mag) if precision <= 17 else mpmath.log(mag)


def _working_precision(precision):
    """The high-precision path's context: mpmath at precision + 10 digits
    (never lowered), restored on exit.  The float path leaves mpmath alone."""
    if precision <= 17:
        return contextlib.nullcontext()
    return mpmath.workdps(max(mpmath.mp.dps, precision + 10))


def log_twisted_height(spec, x, precision=17):
    """log H_Q(x), evaluated in log space at the working precision."""
    field = spec.field
    places = spec.places()
    with _working_precision(precision):
        if precision <= 17:
            logQ = math.log(spec.Q)
            total = 0.0
        else:
            logQ = mpmath.log(mpmath.mpf(spec.Q.numerator) / spec.Q.denominator)
            total = mpmath.mpf(0)
        for v in spec.S:
            w = places[v]
            best = None
            for form, c in zip(spec.forms[v], spec.weights[v]):
                val = form.evaluate(x)
                if not val:
                    continue
                term = _log_form_abs(field, w, val, precision) - float(c) * logQ
                if best is None or term > best:
                    best = term
            if best is None:
                raise AllFormsVanish(
                    "every form at place %r vanishes at %r" % (v, x)
                )
            total = total + best
        if INF not in spec.S:
            mx = max(abs(c) for c in x.coords)
            total = total + (math.log(mx) if precision <= 17 else mpmath.log(mx))
        return total


def twisted_height(spec, x, precision=17):
    """H_Q(x) as a positive real."""
    with _working_precision(precision):
        lg = log_twisted_height(spec, x, precision)
        return math.exp(lg) if precision <= 17 else mpmath.exp(lg)


def _weil_value(spec, place, form, x, precision):
    val = form.evaluate(x)
    if not val:
        raise OnSupport("point %r on the support of %r" % (x, form))
    mx = max(abs(c) for c in x.coords)
    if place.kind == "nonarch":
        # max_j |x_j|_p = 1 by primitivity
        return -_log_form_abs(spec.field, place, val, precision)
    lmx = math.log(mx) if precision <= 17 else mpmath.log(mx)
    return lmx - _log_form_abs(spec.field, place, val, precision)


def log_twisted_report(spec, x, precision=17):
    """Per-place minima, the twisted inequality verdict, identity residual.

    lhs = sum over v in S of min_i(lambda_vi + c_vi log Q); the inequality
    compares lhs against h(x) + epsilon log Q, and the identity
    -log H_Q = lhs - h is returned as a residual for cross-checking.
    """
    places = spec.places()
    with _working_precision(precision):
        if precision <= 17:
            logQ = math.log(spec.Q)
        else:
            logQ = mpmath.log(mpmath.mpf(spec.Q.numerator) / spec.Q.denominator)
        per_place = {}
        lhs = 0.0 if precision <= 17 else mpmath.mpf(0)
        for v in spec.S:
            w = places[v]
            vals = []
            for form, c in zip(spec.forms[v], spec.weights[v]):
                lam = _weil_value(spec, w, form, x, precision)
                vals.append(lam + float(c) * logQ)
            m = min(vals)
            per_place[v] = m
            lhs = lhs + m
        h = log_height(x, precision)
        rhs = h + float(spec.epsilon) * logQ if precision <= 17 else \
            h + mpmath.mpf(spec.epsilon.numerator) / spec.epsilon.denominator * logQ
        neg_log_hq = -log_twisted_height(spec, x, precision)
        residual = abs(neg_log_hq - (lhs - h))
    return {
        "per_place": per_place,
        "lhs": lhs,
        "rhs": rhs,
        "h": h,
        "verdict": bool(lhs >= rhs),
        "identity_residual": float(residual),
        "neg_log_HQ": neg_log_hq,
    }


def q_sweep(spec_template, Q_grid, points, precision=17, indeterminate_tol=None):
    """Per-Q solution sets of H_Q(x) <= Q^(-epsilon).

    Verdicts whose log-margin falls inside the indeterminate band are
    listed separately rather than decided by floating noise.
    """
    grid = [Fraction(q) for q in Q_grid]
    if not grid or any(b < a for a, b in zip(grid, grid[1:])):
        raise BadParameter("Q grid must be nonempty and ascending")
    if indeterminate_tol is None:
        indeterminate_tol = 10.0 ** (-(max(precision, 17) - 10))
    out = []
    for q in grid:
        spec = spec_template.with_Q(q)
        with _working_precision(precision):
            if precision <= 17:
                logQ = math.log(q)
            else:
                logQ = mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
            sols, indet = [], []
            for x in sorted(set(points)):
                try:
                    margin = log_twisted_height(spec, x, precision) \
                        + float(spec.epsilon) * logQ
                except AllFormsVanish:
                    continue
                if abs(margin) <= indeterminate_tol:
                    indet.append(x)
                elif margin < 0:
                    sols.append(x)
        out.append({"Q": q, "solutions": sols, "indeterminate": indet})
    return out
