"""Twisted multiplicative heights and the logarithmic twisted inequality.

H_Q(x) = prod over v in S of max_i |l_vi(x)|_{v,K} Q^(-c_vi), times |x|_v
for the places outside S.  For primitive integer coordinates the finite
part outside S is 1, leaving only the max|x_i| factor when the infinite
place is not in S.  Everything is evaluated in log space.

FormSystemSpec holds a field, the places S and n+1 independent forms per
place; TwistedHeightSpec adds the weights c_vi, epsilon and Q.
log_twisted_report evaluates every form once and combines the one row of
log|L_vi(x)|_v per place (heights._log_abs_row, whose archimedean values are
places.arch_value's Horner rule on integer rows) twice: into the Weil
values lambda_vi(x) of its lhs, and into log H_Q.  Its
verdict is _parametric_sign's, the certified sign the parametric filter
reads, so the report and the filter agree at every precision:
heights._log_sign, the sign routine of every margin, with one group of
rows per place.  Q-sweeps live in exceptional.py: q_sweep is the
parametric filter at each Q.
"""

import copy
from fractions import Fraction

from .errors import BadParameter
from .fieldarith import _restriction_det
from .heights import (LinearForm, _lambdas, _log_abs_row, _log_abs_terms, _log_sign,
                      _per_place, log_height, resolve_place)
from .places import INF, log_abs, normalize_place, reals


class FormSystemSpec:
    """Field, places and per-place form systems: the spec of the schmidt/fw
    filters and the base of TwistedHeightSpec.

    forms is a dict keyed by place of Q (or a list in S-order); each place
    carries n+1 forms, checked linearly independent by an exact determinant
    (fieldarith._restriction_det), so some form of each place is nonzero at
    every point.  The places are resolved once, at construction.
    """

    def __init__(self, field, S, forms, w_choices=None):
        self.field = field
        self.S = [normalize_place(v) for v in S]
        if not self.S or len(set(self.S)) != len(self.S):
            raise BadParameter("S must be nonempty, without duplicate places")
        forms = _per_place(forms, self.S)
        self.forms = {}
        n_vars = None
        for v in self.S:
            fs = list(forms.get(v, ()))
            if not fs:
                raise BadParameter("missing forms for place %r" % (v,))
            for f in fs:
                if not isinstance(f, LinearForm) or f.field != field:
                    raise BadParameter("forms must be LinearForms over the spec field")
            if n_vars is None:
                n_vars = fs[0].n_vars
            if any(f.n_vars != n_vars for f in fs) or len(fs) != n_vars:
                raise BadParameter(
                    "place %r needs exactly %d forms in %d variables" % (v, n_vars, n_vars)
                )
            if not _restriction_det(field, [f.coeffs for f in fs]):
                raise BadParameter("forms at place %r are linearly dependent" % (v,))
            self.forms[v] = tuple(fs)
        self.n = n_vars - 1
        self.w_choices = _per_place(w_choices or {}, self.S)
        self._places = {v: resolve_place(field, v, self.w_choices.get(v, 0))
                        for v in self.S}

    def places(self):
        """The place of index w_choices[v] (default 0) above each v in S."""
        return self._places

    def digest_data(self):
        form_part = []
        for v in self.S:
            rows = tuple(
                tuple(tuple(str(cc) for cc in coef.coeffs) for coef in f.coeffs)
                for f in self.forms[v]
            )
            form_part.append((v, rows))
        return ("formsys", tuple(self.field.min_poly), tuple(self.S),
                tuple(form_part), tuple(sorted(self.w_choices.items(), key=str)))


def _at_least_one(Q):
    Q = Fraction(Q)
    if Q < 1:
        raise BadParameter("Q must be >= 1")
    return Q


class TwistedHeightSpec(FormSystemSpec):
    """A form system with zero-sum weight rows, epsilon and Q.

    weights is a dict keyed by place of Q (or a list in S-order); each
    place carries n+1 rational weights summing to 0.
    """

    def __init__(self, field, S, forms, weights, epsilon, Q=1, w_choices=None):
        super().__init__(field, S, forms, w_choices)
        weights = _per_place(weights, self.S)
        self.weights = {}
        for v in self.S:
            if v not in weights:
                raise BadParameter("missing weights for place %r" % (v,))
            ws = tuple(Fraction(c) for c in weights[v])
            if len(ws) != self.n + 1:
                raise BadParameter("weight row at %r has wrong length" % (v,))
            if sum(ws) != 0:
                raise BadParameter(
                    "weight row at %r sums to %s, not 0" % (v, sum(ws))
                )
            self.weights[v] = ws
        self.epsilon = Fraction(epsilon)
        self.Q = _at_least_one(Q)

    def with_Q(self, Q):
        clone = copy.copy(self)
        clone.Q = _at_least_one(Q)
        return clone


def _log_hq(spec, R, las, logQ, h):
    """log H_Q in R from the rows of log|L_vi(x)|_v (None where L_vi(x) = 0),
    log Q and h = log max|x_j|: the sum over v of max_i (log|L_vi(x)|_v
    - c_vi log Q), plus h when inf is not in S."""
    total = R.zero
    for v, row in zip(spec.S, las):
        total = total + max(la - R.real(c) * logQ
                            for la, c in zip(row, spec.weights[v]) if la is not None)
    if INF not in spec.S:
        total = total + h
    return total


def log_twisted_height(spec, x, precision=17):
    """log H_Q(x), evaluated in log space in reals(precision), at
    precision + 10 digits.  A form vanishing at x is skipped; the forms of a
    place are independent, so another one is not."""
    places = spec.places()
    R = reals(precision)
    with R.guard(10):
        las = [[log_abs(places[v], val, precision) if val else None
                for val in (form.evaluate(x) for form in spec.forms[v])] for v in spec.S]
        return _log_hq(spec, R, las, R.log(R.real(spec.Q)), log_height(x, precision))


def _parametric_sign(spec, slack, x):
    """The sign of slack - (log H_Q + eps log Q), the sum over v of
    max_i (log|L_vi(x)|_v - c_vi log Q), plus log H when inf is not in S,
    plus eps log Q: heights._log_sign with one group of rows per place and
    q = Q.  A vanishing form is skipped, as in log_twisted_height."""
    qn, qd = spec.Q.numerator, spec.Q.denominator
    rest = [(-spec.epsilon, qn), (spec.epsilon, qd)]
    if INF not in spec.S:
        rest.append((-1, max(map(abs, x.coords))))
    places = spec.places()
    groups = [[(a, b, more, c) for (a, b, more), c in
               zip(_log_abs_terms(spec.forms[v], x, places[v]), spec.weights[v]) if a]
              for v in spec.S]
    return _log_sign(rest, slack, groups, spec.Q)


def log_twisted_report(spec, x, precision=17):
    """Per-place minima, the twisted inequality verdict, identity residual.

    Every form is evaluated once: one row of log|L_vi(x)|_v per place feeds
    both lhs = sum over v of min_i(lambda_vi + c_vi log Q) and log H_Q.  The
    inequality compares lhs against rhs = h(x) + epsilon log Q, and the
    verdict is the certified sign of the parametric filter's margin,
    _parametric_sign(spec, 0, x): True (lhs > rhs) where the filter lists x
    as a solution, False where it rejects x, and None (indeterminate) where
    it lists x as indeterminate, as at an exact tie.  No verdict depends on
    precision, which sets the digits of the values only.  The identity
    -log H_Q = lhs - h is returned as a residual, which compares the two
    combinations of the one evaluation.  H_Q = exp(-neg_log_HQ).  Raises
    OnSupport on the support of the form system.
    """
    places = spec.places()
    R = reals(precision)
    with R.guard(10):
        logQ = R.log(R.real(spec.Q))
        h = log_height(x, precision)
        las = [_log_abs_row(spec.forms[v], x, places[v], precision) for v in spec.S]
        per_place = {}
        lhs = R.zero
        for v, row in zip(spec.S, las):
            m = min(lam + R.real(c) * logQ
                    for lam, c in zip(_lambdas(row, places[v], h), spec.weights[v]))
            per_place[v] = m
            lhs = lhs + m
        rhs = h + R.real(spec.epsilon) * logQ
        neg_log_hq = -_log_hq(spec, R, las, logQ, h)
        residual = abs(neg_log_hq - (lhs - h))
        hq = R.exp(-neg_log_hq)
    sign = _parametric_sign(spec, 0, x)
    return {
        "per_place": per_place,
        "lhs": lhs,
        "rhs": rhs,
        "h": h,
        "verdict": None if not sign else sign > 0,
        "identity_residual": float(residual),
        "neg_log_HQ": neg_log_hq,
        "H_Q": hq,
    }
