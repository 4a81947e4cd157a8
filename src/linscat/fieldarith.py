"""Exact arithmetic in Q and in a number field Q[x]/(f), f monic irreducible.

Elements live in the power basis of the generator theta.  All coefficients
are fractions.Fraction; everything here is exact and deterministic.
"""

import math
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.euclidtools import dup_invert

from .errors import BadParameter, FieldMismatch, NonMonic, Reducible

MAX_DEGREE = 8

_x = sympy.Symbol("x")


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class NumberField:
    """Q[x]/(min_poly) presented by a monic irreducible integer polynomial.

    Coefficients are given constant term first.  Degree 1 (min_poly = x)
    denotes the rationals themselves.
    """

    def __init__(self, min_poly):
        min_poly = [int(c) for c in min_poly]
        min_poly_t = _trim(list(min_poly))
        if not min_poly_t or len(min_poly_t) < 2:
            raise BadParameter("min_poly must have degree >= 1")
        if min_poly_t[-1] != 1:
            raise NonMonic("min_poly must be monic: %r" % (min_poly,))
        degree = len(min_poly_t) - 1
        if degree > MAX_DEGREE:
            raise BadParameter("degree %d exceeds supported cap %d" % (degree, MAX_DEGREE))
        poly = sympy.Poly(list(reversed(min_poly_t)), _x, domain="QQ")
        if degree > 1 and not poly.is_irreducible:
            raise Reducible("min_poly factors over Q: %r" % (min_poly,))
        self.min_poly = tuple(min_poly_t)
        self.degree = degree
        self.poly_disc = int(sympy.discriminant(poly.as_expr(), _x)) if degree > 1 else 1
        # theta^k reduced mod min_poly, for k = degree .. 2*degree-2
        self._high_powers = self._power_table()
        self._places_cache = {}

    def _power_table(self):
        n = self.degree
        table = []
        # theta^n = -(c_0 + c_1 theta + ...)
        cur = [Fraction(-c) for c in self.min_poly[:n]]
        table.append(list(cur))
        for _ in range(n - 2):
            nxt = [Fraction(0)] + cur[: n - 1]
            if cur[n - 1]:
                lead = cur[n - 1]
                for i in range(n):
                    nxt[i] += lead * table[0][i]
            cur = nxt
            table.append(list(cur))
        return table

    @property
    def is_rational(self):
        return self.degree == 1

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise BadParameter(
                "expected %d coefficients, got %d" % (self.degree, len(coeffs))
            )
        return FieldElement(self, coeffs)

    def from_rational(self, q):
        coeffs = [Fraction(q)] + [Fraction(0)] * (self.degree - 1)
        return FieldElement(self, coeffs)

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        if self.degree == 1:
            # theta = 0 for min_poly x; Q has no interesting generator
            return self.zero()
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return FieldElement(self, coeffs)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return "NumberField(%r)" % (list(self.min_poly),)


def nf_create(min_poly):
    """Build a NumberField from integer coefficients, constant term first."""
    return NumberField(min_poly)


RATIONALS = NumberField([0, 1])


class FieldElement:
    """Element of a NumberField in the power basis of theta."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements of %r and %r" % (self.field, other.field))
            return other
        return self.field.from_rational(other)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.min_poly, self.coeffs))

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, [a * other for a in self.coeffs])
        other = self._check(other)
        n = self.field.degree
        if n == 1:
            return FieldElement(self.field, [self.coeffs[0] * other.coeffs[0]])
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        out = list(prod[:n]) + [Fraction(0)] * (n - min(n, len(prod)))
        table = self.field._high_powers
        for k in range(n, len(prod)):
            ck = prod[k]
            if ck:
                red = table[k - n]
                for i in range(n):
                    out[i] += ck * red[i]
        return FieldElement(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        n = self.field.degree
        if n == 1:
            return FieldElement(self.field, [1 / self.coeffs[0]])
        f = [QQ(c) for c in reversed(self.field.min_poly)]
        a = [QQ(c.numerator, c.denominator) for c in reversed(_trim(self.coeffs))]
        inv = [Fraction(int(c.numerator), int(c.denominator))
               for c in reversed(dup_invert(a, f, QQ))]
        return FieldElement(self.field, inv + [Fraction(0)] * (n - len(inv)))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return FieldElement(self.field, [a / other for a in self.coeffs])
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    @property
    def is_rational_value(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational_value:
            raise BadParameter("element is not rational: %r" % (self,))
        return self.coeffs[0]

    def denominator_lcm(self):
        d = 1
        for c in self.coeffs:
            d = math.lcm(d, c.denominator)
        return d

    def __repr__(self):
        return "FieldElement(%s)" % (list(self.coeffs),)


def charpoly_norm(a):
    """Characteristic polynomial (ascending, monic), norm and trace of a.

    The polynomial is that of multiplication-by-a on the field viewed as a
    Q-vector space; norm = (-1)^deg * constant term, trace = -(coefficient
    of x^(deg-1)).
    """
    field = a.field
    n = field.degree
    if n == 1:
        v = a.coeffs[0]
        return (-v, Fraction(1)), v, v
    if n == 2:
        b = Fraction(field.min_poly[1])
        c = Fraction(field.min_poly[0])
        u, v = a.coeffs
        tr = 2 * u - b * v
        nm = u * u - b * u * v + c * v * v
        return (nm, -tr, Fraction(1)), nm, tr
    # multiplication matrix in the power basis
    cols = []
    theta = field.gen()
    cur = a
    for _ in range(n):
        cols.append(cur.coeffs)
        cur = cur * theta
    mat = sympy.Matrix(n, n, lambda i, j: sympy.Rational(cols[j][i]))
    poly = mat.charpoly(_x)
    coeffs_desc = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
    coeffs = tuple(reversed(coeffs_desc))
    norm = (Fraction(-1) ** n) * coeffs[0]
    trace = -coeffs[n - 1]
    return coeffs, norm, trace


def norm(a):
    return charpoly_norm(a)[1]


def trace(a):
    return charpoly_norm(a)[2]
