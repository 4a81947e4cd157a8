"""Projective heights on P^n(Q) and local Weil functions for hyperplanes.

Points carry primitive integer coordinates with a canonical sign, so the
multiplicative height is exactly max|x_i| and all finite-place terms of the
height are zero.  Linear forms may have coefficients in a number field; the
local Weil function lambda(x, v) = max_j log|x_j / l(x)|_{v,K} uses the
extension absolute value at a chosen place w above v.  A LinearForm keeps
one integer row per power-basis slot over a common denominator, and
evaluate reduces their dot products with x into a FieldElement, whose row
over den is fieldarith's one representation.  _log_abs_row is
log|L(x)|_{v,K} for all forms of one place at one point, each form
evaluated once and valued by places.log_abs; _lambdas turns such a row into
Weil values, and weil_hyperplane is the two together for one form.

_log_abs_terms is log|L(x)|_{v,K} as exact terms, read off the same
integer dot products.  _log_sign, the one sign routine of every margin,
is the certified sign of a sum of such terms less, per group of rows, the
max over the group of log|L(x)| - c log q: a float pre-check with a proven
error bound (_CHECK), else interval enclosures (_exact_log_sign).  An archimedean term
is valued by places._horner, the float Horner loop places.arch_value runs
too, from the same double for theta.  An exact tie of integer terms, or a
sum with an archimedean term still undecided at _ARCH_BITS, has sign 0.
"""

import itertools
import math
import operator
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

from .errors import BadParameter, OnSupport
from .fieldarith import FieldElement, RATIONALS, _local_norm
from .places import (INF, _U, _horner, _prime_factors, _row_exponent, log_abs,
                     normalize_place, ord_p_int, places_above, reals)


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
        self._den = math.lcm(*(a.den for a in elems))
        self._rows = tuple(tuple(a.row[k] * (self._den // a.den) for a in elems)
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
        return FieldElement(self.field, self._dots(x), self._den)

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


def _log_abs_row(forms, x, place, precision=17):
    """[log|L(x)|_{v,K} for L in forms] at the place w: each form evaluated
    once, by places.log_abs, in reals(precision) at the caller's working
    precision.  Raises OnSupport where some L(x) = 0."""
    las = []
    for form in forms:
        val = form.evaluate(x)
        if not val:
            raise OnSupport("point %r lies on the hyperplane %r" % (x, form))
        las.append(log_abs(place, val, precision))
    return las


def _lambdas(las, place, log_max):
    """[lambda_{L,w}(x)] from a row of log|L(x)|_{v,K} values: log max_j|x_j|_v
    - log|L(x)|_{v,K}, with log max_j|x_j|_v = log_max at infinity.

    Coordinates are rational, so |x_j|_{v,K} = |x_j|_v; for primitive
    integer coordinates the finite-place max is 1.
    """
    if not place.is_arch:
        # off infinity log max_j|x_j|_v is 0, so a unit's lambda is
        # log_abs's zero and any other is 0 - log_abs
        return [0 - la if la else la for la in las]
    return [log_max - la for la in las]


def _log_abs_terms(forms, x, place):
    """[(a, b, extra) for L in forms], log|L(x)|_{v,K} = log(a/b) + sum(extra),
    with a = 0 where L(x) = A(theta)/_den is 0.  A rational value has
    integers a, b and no extra; else extra is (-t, p) (-t log p) at a finite
    place, with t from the integer row A itself (places._row_exponent),
    (1/d, |Res(f, A)|) at a place that is the whole completion C, and
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
            out.append((1, 1, ((-_row_exponent(place, A, den), p),)))
        elif place.local_degree == form.field.degree:
            res = abs(_local_norm(form.field.min_poly, A))
            out.append((1, den, ((Fraction(1, form.field.degree), res),)))
        else:
            out.append((1, den, ((1, place, tuple(A)),)))
    return out


# ---------------------------------------------------------------------------
# certified signs of sums of log terms

# Float pre-check, u = 2^-53.  math.log(N) of an integer N >= 1 is within
# 3u (1 + log N) of log N (N is rounded, or split as m 2^e, before libm's
# log), so within 8u log N, and a term r log N within 10u |term|; a slack s,
# float(s), within u |s|.  For a term r log|A(theta)|, v = |fl(A(t))| is
# within places._horner's bound of |A(theta)|, and if bound < v/2, log v is
# within 2 bound/v of log|A(theta)|; err sums 3|r| bound/v, the spare
# factors covering roundings.  A float sum of k < 8990 terms adds k u mag,
# mag the sum of the |term|, so it is within _CHECK (1 + mag) + err of the
# true sum, and so is a max of such sums.  An underflow costs under
# 2^-1074 log N, inside the 1; a value past the double range, or a bound
# not below v/2, fails the check.
_CHECK = 1e-12

# A sum with an archimedean term is indeterminate past this many bits: it is
# 0 only through a multiplicative relation, which no enclosure sees.
_ARCH_BITS = 4096

_IV = MPIntervalContext()  # of its own: setting its precision leaves mpmath.iv alone


def _arch_floats(place, form):
    """[(q, err)] per coefficient A(theta)/_den of the form: a float q within
    err of its image at a real place.  A rational coefficient (no theta
    terms) gives q = A[0]/_den, correctly rounded, within u|q|; any other
    gives _horner's value over _den, within its bound over _den plus u|q|,
    the bound's spare factors covering the rest of the division's rounding.
    The least subnormal, 2^-1074, covers a quotient that underflows.
    Numbers past the double range raise OverflowError."""
    out, den = [], form._den
    for A in zip(*form._rows):
        v, b = _horner(place, A) if any(A[1:]) else (A[0], 0)
        q = v / den
        out.append((q, b / den + _U * abs(q) + 2.0 ** -1074))
    return out


def _horner_log(place, A):
    """(log v, bound/v) for v = |A(t)| in floats, as in _CHECK; (0.0, inf)
    when the bound is not below v/2."""
    acc, bound = _horner(place, A)
    v = abs(acc)
    return (math.log(v), bound / v) if bound < v / 2 else (0.0, math.inf)


def _float_sum(terms, slack=0):
    """(sum, mag, err) of slack plus the terms in floats, as in _CHECK; a
    term (r, N) is r log N and (r, place, A) is r log|sigma_w(A(theta))|."""
    try:
        total = float(slack) if slack else 0.0
        mag, err = abs(total), 0.0
        for term in terms:
            r = float(term[0])
            if len(term) == 2:
                t = r * math.log(term[1])
            else:
                lg, b = _horner_log(term[1], term[2])
                t, err = r * lg, err + 3 * abs(r) * b
            total += t
            mag += abs(t)
    except OverflowError:
        return 0.0, math.inf, 0.0
    return total, mag, err


def _coprime_basis(ns):
    """Pairwise coprime integers > 1 whose products give every n >= 1 in ns.
    Each split of m and b by g = gcd(m, b) > 1 into g, m/g and b/g divides
    the product of all pending numbers by g, so the loop ends."""
    basis, todo = [], [n for n in ns if n > 1]
    while todo:
        m = todo.pop()
        for i, b in enumerate(basis):
            g = math.gcd(m, b)
            if g > 1:
                del basis[i]
                todo += [k for k in (g, m // g, b // g) if k > 1]
                break
        else:
            basis.append(m)
    return basis


def _iv(q):
    """An int, a Fraction or an mpf as an interval of _IV."""
    return _IV.mpf(q.numerator) / q.denominator if hasattr(q, "denominator") else _IV.mpf(q)


def _iv_log_abs(place, A, prec):
    """An enclosure of log|sigma_w(A(theta))|, by Horner's rule over the
    place's root disc at prec/3.4 digits; all of R while |A| may be 0."""
    c, r = place.root_disc(prec * 3 // 10)
    rad = _iv(r) * _IV.mpf([-1, 1])
    theta = _iv(c) + rad if place.is_real else _IV.mpc(_iv(c.real) + rad, _iv(c.imag) + rad)
    acc = 0
    for a in reversed(A):
        acc = acc * theta + a
    mag = abs(acc)
    return _IV.log(mag) if mag > 0 else _IV.mpf(["-inf", "inf"])


def _exact_log_sign(terms, slack=0):
    """Sign of slack plus _float_sum's terms.  Over a coprime basis b_j of
    the N, the (r, N) terms are sum c_j log b_j, the log b_j independent over
    Q: with no other term the sum is 0 exactly when every c_j is.  A slack
    s != 0 is never cancelled, as e^s is transcendental (Lindemann).  Else an
    interval enclosure refined until it excludes 0 gives the sign, or 0 at
    _ARCH_BITS with an archimedean term; no power N^r is formed."""
    rational = [t for t in terms if len(t) == 2]
    arch = [t for t in terms if len(t) == 3]
    coeffs = []
    for b in _coprime_basis([N for _, N in rational]):
        c = Fraction(0)
        for r, N in rational:
            while N % b == 0:
                N //= b
                c += r
        if c:
            coeffs.append((c, b))
    if not (coeffs or arch or slack):
        return 0
    prec = 64
    while not arch or prec <= _ARCH_BITS:
        _IV.prec = prec
        s = _iv(slack) + sum(_iv(c) * _IV.log(b) for c, b in coeffs) + sum(
            _iv(r) * _iv_log_abs(place, A, prec) for r, place, A in arch)
        if s > 0:
            return 1
        if s < 0:
            return -1
        prec *= 2
    return 0


def _log_sign(rest, slack=0, groups=(), q=1):
    """The certified sign of slack + sum(rest) - sum over g in groups of
    max over rows (a, b, more, c) of g of (log(a/b) + sum(more) - c log q),
    integers a, b > 0, rational q >= 1; 0 where undecided.  The pre-check
    takes log q once, counting |c| (log qn + log qd) in the magnitude:
    float(c) (log qn - log qd) is within 11u of that, as _CHECK allows for
    c log qd - c log qn, and a max is within its terms' largest bound.
    Inside its bound, a sum with no groups goes to _exact_log_sign; else
    the margin is the least over the choices of one row per group, so its
    sign is the least of theirs, and the first certified negative decides."""
    total, mag, err = _float_sum(rest, slack)
    qn, qd = q.numerator, q.denominator
    try:
        ln, ld = math.log(qn), math.log(qd)
        logq, logs = ln - ld, ln + ld
        for group in groups:
            best = -math.inf
            for a, b, more, c in group:
                s, m, e = _float_sum(more) if more else (0.0, 0.0, 0.0)
                la, lb, cf = math.log(a), math.log(b), float(c)
                best = max(best, la - lb + s - cf * logq)
                mag += abs(la) + abs(lb) + m + abs(cf) * logs
                err += e
            total -= best
    except OverflowError:
        mag = math.inf
    if abs(total) > _CHECK * (1 + mag) + err:
        return 1 if total > 0 else -1
    if not groups:
        return _exact_log_sign(rest, slack)
    worst = 1
    for choice in itertools.product(*groups):
        terms = list(rest)
        for a, b, more, c in choice:
            terms += [(-1, a), (1, b), (c, qn), (-c, qd)]
            terms += [(-t[0],) + t[1:] for t in more]
        worst = min(worst, _log_sign(terms, slack))
        if worst < 0:
            break
    return worst


def weil_hyperplane(form, x, v, w_index=0, precision=17):
    """lambda_{L,w}(x) = max_j log|x_j / L(x)|_{v,K} at the place w of index
    w_index above v: _lambdas of the one-form _log_abs_row, at precision + 5
    digits on the mpf path."""
    place = resolve_place(form.field, v, w_index)
    with reals(precision).guard(5):
        return _lambdas(_log_abs_row((form,), x, place, precision), place,
                        log_height(x, precision))[0]


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
    form = LinearForm(RATIONALS, [1] + [0] * x.n)
    total = weil_hyperplane(form, x, INF, precision=precision)
    primes = set()
    for c in x.coords:
        if c and abs(c) > 1:
            primes |= _prime_factors(abs(c))
    for p in sorted(primes):
        total = total + weil_hyperplane(form, x, p, precision=precision)
    return abs(total - log_height(x, precision))
