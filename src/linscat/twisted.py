"""Twisted multiplicative heights and the logarithmic twisted inequality.

H_Q(x) = prod over v in S of max_i |l_vi(x)|_{v,K} Q^(-c_vi), times |x|_v
for the places outside S.  For primitive integer coordinates the finite
part outside S is 1, leaving only the max|x_i| factor when the infinite
place is not in S.  Everything is evaluated in log space.

FormSystemSpec holds a field, the places S and n+1 independent forms per
place; TwistedHeightSpec adds the weights c_vi, epsilon and Q.
_lambda_matrix is the one matrix of Weil values lambda_vi(x) of a form
system.  Q-sweeps live in exceptional.py: q_sweep is the parametric filter
at each Q.
"""

import copy
from fractions import Fraction

from .errors import BadParameter
from .fieldarith import _field_det
from .heights import LinearForm, _per_place, _weil_row, log_height, resolve_place
from .places import INF, log_abs, normalize_place, reals


class FormSystemSpec:
    """Field, places and per-place form systems: the spec of the schmidt/fw
    filters and the base of TwistedHeightSpec.

    forms is a dict keyed by place of Q (or a list in S-order); each place
    carries n+1 forms, checked linearly independent by an exact determinant,
    so some form of each place is nonzero at every point.  The places are
    resolved once, at construction.
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
            if not _field_det(field, [f.coeffs for f in fs]):
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


def _lambda_matrix(spec, x, precision=17):
    """(rows, h): lambda_vi(x) at all (v, i), one row per place of S, and the
    h(x) = log max|x_j| they share, in reals(precision) at precision + 5
    digits on the mpf path.  Raises OnSupport on the support of the system."""
    places = spec.places()
    with reals(precision).guard(5):
        h = log_height(x, precision)
        return [_weil_row(spec.forms[v], x, places[v], h, precision) for v in spec.S], h


def log_twisted_height(spec, x, precision=17):
    """log H_Q(x), evaluated in log space in reals(precision), at
    precision + 10 digits."""
    places = spec.places()
    R = reals(precision)
    with R.guard(10):
        logQ = R.log(R.real(spec.Q))
        total = R.zero
        for v in spec.S:
            w, vals = places[v], (form.evaluate(x) for form in spec.forms[v])
            total = total + max(log_abs(w, val, precision) - R.real(c) * logQ
                                for val, c in zip(vals, spec.weights[v]) if val)
        if INF not in spec.S:
            total = total + log_height(x, precision)
        return total


def log_twisted_report(spec, x, precision=17):
    """Per-place minima, the twisted inequality verdict, identity residual.

    lhs = sum over v in S of min_i(lambda_vi + c_vi log Q); the inequality
    compares lhs against h(x) + epsilon log Q: the verdict is lhs > rhs, or
    None (indeterminate) inside the report's band, reals(precision).band.
    The identity -log H_Q = lhs - h is returned as a residual for
    cross-checking; it compares two independent evaluations of every form.
    H_Q = exp(-neg_log_HQ).
    """
    R = reals(precision)
    with R.guard(10):
        logQ = R.log(R.real(spec.Q))
        rows, h = _lambda_matrix(spec, x, precision)
        per_place = {}
        lhs = R.zero
        for v, row in zip(spec.S, rows):
            m = min(lam + R.real(c) * logQ for lam, c in zip(row, spec.weights[v]))
            per_place[v] = m
            lhs = lhs + m
        rhs = h + R.real(spec.epsilon) * logQ
        margin = lhs - rhs
        neg_log_hq = -log_twisted_height(spec, x, precision)
        residual = abs(neg_log_hq - (lhs - h))
        hq = R.exp(-neg_log_hq)
    return {
        "per_place": per_place,
        "lhs": lhs,
        "rhs": rhs,
        "h": h,
        "verdict": None if abs(margin) <= R.band else bool(margin > 0),
        "identity_residual": float(residual),
        "neg_log_HQ": neg_log_hq,
        "H_Q": hq,
    }
