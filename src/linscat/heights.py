"""Projective heights on P^n(Q) and local Weil functions for hyperplanes.

Points carry primitive integer coordinates with a canonical sign, so the
multiplicative height is exactly max|x_i| and all finite-place terms of the
height are zero.  Linear forms may have coefficients in a number field; the
local Weil function lambda(x, v) = max_j log|x_j / l(x)|_{v,K} uses the
extension absolute value at a chosen place w above v.  _weil_row is its one
definition, for all forms of one place at one point, built on
places.log_abs and log_height; weil_hyperplane is its one-form case.
_log_abs_terms is log|L(x)|_{v,K} as exact terms, read off the same
integer rows, for the certified verdicts of the filters.
"""

import math
import operator
from fractions import Fraction

from .errors import BadParameter, OnSupport
from .fieldarith import FieldElement, RATIONALS
from .places import (INF, _local_norm, log_abs, nonarch_exponent, normalize_place,
                     ord_p_int, places_above, reals)


class ProjectivePoint:
    """Point of P^n(Q): primitive integer coordinates, canonical sign."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = [Fraction(c) for c in coords]
        if not coords or not any(coords):
            raise BadParameter("projective point needs a nonzero coordinate")
        den = 1
        for c in coords:
            den = math.lcm(den, c.denominator)
        ints = [int(c * den) for c in coords]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        lead = next(c for c in ints if c)
        if lead < 0:
            ints = [-c for c in ints]
        self.coords = tuple(ints)

    @property
    def n(self):
        return len(self.coords) - 1

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def mult_height(x):
    """H(x) = prod over places of max|x_i|_v; exactly max|x_i| here."""
    return Fraction(max(abs(c) for c in x.coords))


def log_height(x, precision=17):
    """log max|x_i| in reals(precision), at precision + 5 digits."""
    R = reals(precision)
    with R.guard(5):
        return R.log(max(abs(c) for c in x.coords))


class LinearForm:
    """Linear form sum_j a_j x_j with coefficients in a number field.

    The form is precompiled at construction: _rows[k][j] is the numerator of
    the theta^k coefficient of a_j over the common denominator _den.
    """

    __slots__ = ("field", "coeffs", "_rows", "_den")

    def __init__(self, field, coeffs):
        elems = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise BadParameter("coefficient from a different field")
                elems.append(c)
            else:
                elems.append(field.from_rational(c))
        if not any(elems):
            raise BadParameter("linear form needs a nonzero coefficient")
        self.field = field
        self.coeffs = tuple(elems)
        self._den = math.lcm(*(a.denominator_lcm() for a in elems))
        self._rows = tuple(
            tuple(a.coeffs[k].numerator * (self._den // a.coeffs[k].denominator)
                  for a in elems)
            for k in range(field.degree))

    @property
    def n_vars(self):
        return len(self.coeffs)

    def _dots(self, x):
        """[row . x for row in _rows]: the integer numerators over _den of
        the power-basis coefficients of the value at a projective point."""
        coords = x.coords
        if len(coords) != len(self.coeffs):
            raise BadParameter(
                "form in %d variables applied to a point of P^%d"
                % (len(self.coeffs), x.n)
            )
        return [sum(map(operator.mul, row, coords)) for row in self._rows]

    def evaluate(self, x):
        """Value at a projective point, as a field element: one integer dot
        product per power-basis slot, reduced over the common denominator."""
        den = self._den
        return FieldElement(self.field, [Fraction(a, den) for a in self._dots(x)])

    def __repr__(self):
        return "LinearForm(%r)" % (list(self.coeffs),)


def resolve_place(field, v, w_index):
    """The place of index w_index above v (a rational prime or "inf"), at
    places_above's default p-adic precision (nonarch_exponent refines it)."""
    v = normalize_place(v)
    for w in places_above(field, v):
        if w.w_index == w_index:
            return w
    raise BadParameter("no place with index %d above %r" % (w_index, v))


def _weil_row(forms, x, place, log_max, precision=17):
    """[lambda_{L,w}(x) for L in forms] at the place w, where
    lambda_{L,w}(x) = log max_j|x_j|_v - log|L(x)|_{v,K}.

    Coordinates are rational, so |x_j|_{v,K} = |x_j|_v; for primitive
    integer coordinates the finite-place max is 1.  At infinity
    log max_j|x_j| is log_max, the caller's log_height(x, precision).
    Numbers of reals(precision) at the caller's working precision, which
    is precision + 5 digits or more on the mpf path.
    """
    las = []
    for form in forms:
        val = form.evaluate(x)
        if not val:
            raise OnSupport("point %r lies on the hyperplane %r" % (x, form))
        las.append(log_abs(place, val, precision))
    if not place.is_arch:
        # off infinity log max_j|x_j|_v is 0, so a unit's lambda is
        # log_abs's zero and any other is 0 - log_abs
        return [0 - la if la else la for la in las]
    return [log_max - la for la in las]


def _log_abs_terms(forms, x, place):
    """[(a, b, extra) for L in forms], log|L(x)|_{v,K} = log(a/b) + sum(extra),
    with a = 0 where L(x) = A(theta)/_den is 0.  A rational value has
    integers a, b and no extra; else extra is (-t, p) (-t log p) at a finite
    place, (1/d, |Res(f, A)|) at a place that is the whole completion C, and
    (1, place, A) (log|sigma_w(A(theta))|) at any other."""
    out, p = [], place.prime
    for form in forms:
        A, den = form._dots(x), form._den
        if len(A) == 1 or not any(A[1:]):
            if not A[0] or place.is_arch:
                out.append((abs(A[0]), den, ()))
            else:
                k = ord_p_int(A[0], p) - ord_p_int(den, p)
                out.append((1, p ** k, ()) if k >= 0 else (p ** -k, 1, ()))
        elif not place.is_arch:
            t = nonarch_exponent(place, FieldElement(form.field, [Fraction(c, den) for c in A]))
            out.append((1, 1, ((-t, p),)))
        elif place.local_degree == form.field.degree:
            res = abs(_local_norm(form.field.min_poly, A))
            out.append((1, den, ((Fraction(1, form.field.degree), res),)))
        else:
            out.append((1, den, ((1, place, tuple(A)),)))
    return out


def weil_hyperplane(form, x, v, w_index=0, precision=17):
    """lambda_{L,w}(x) = max_j log|x_j / L(x)|_{v,K} at the place w of index
    w_index above v: the one-form row of _weil_row, at precision + 5 digits
    on the mpf path."""
    place = resolve_place(form.field, v, w_index)
    with reals(precision).guard(5):
        return _weil_row((form,), x, place, log_height(x, precision), precision)[0]


def _per_place(table, S):
    """A per-place table as a dict keyed by normalized place: a list is
    read in S-order, a dict may spell its places any way normalize_place
    accepts.  A list longer than S or a key outside S is refused."""
    if isinstance(table, (list, tuple)):
        if len(table) > len(S):
            raise BadParameter("a list of %d entries for the %d places of S"
                               % (len(table), len(S)))
        return dict(zip(S, table))
    out = {normalize_place(v): row for v, row in table.items()}
    for v in out:
        if v not in S:
            raise BadParameter("an entry for %s, which is not in S" % (v,))
    return out


def proximity(form, x, S, w_choices=None, precision=17):
    """Sum of the local Weil function of a form over the places in S.

    S lists places of Q ("inf" or primes); w_choices optionally gives the
    index of the place of the coefficient field used above each v, as a
    list in S-order or a dict keyed by place.
    """
    S = [normalize_place(v) for v in S]
    w_choices = _per_place(w_choices or {}, S)
    total = 0.0
    for v in S:
        total = total + weil_hyperplane(form, x, v, w_index=w_choices.get(v, 0),
                                        precision=precision)
    return total


def height_weil_defect(x, precision=17):
    """Residual of the height identity h(x) = sum_v lambda_{x_0}(x, v).

    Uses the coordinate form x_0; requires x_0 != 0.  The finite
    sum runs over primes dividing a coordinate (all other terms vanish).
    """
    if x.coords[0] == 0:
        raise OnSupport("identity needs x_0 != 0")
    import sympy

    form = LinearForm(RATIONALS, [1] + [0] * x.n)
    total = weil_hyperplane(form, x, INF, precision=precision)
    primes = set()
    for c in x.coords:
        if c and abs(c) > 1:
            primes |= set(sympy.factorint(abs(c)))
    for p in sorted(primes):
        total = total + weil_hyperplane(form, x, p, precision=precision)
    return abs(total - log_height(x, precision))
