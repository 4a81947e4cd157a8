"""Exact arithmetic in Q and in a number field Q[x]/(f), f monic irreducible.

Elements live in the power basis of the generator theta.  All coefficients
are fractions.Fraction; everything here is exact and deterministic.
Products, inverses, determinants and characteristic polynomials come from
sympy (dense QQ polynomials and DomainMatrix); _to_dup and _from_dup are
the one conversion between coefficient tuples and sympy's polynomials.
"""

import math
from fractions import Fraction

import sympy
from sympy.polys.densearith import dup_lshift, dup_mul, dup_rem
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import QQ
from sympy.polys.euclidtools import dup_invert
from sympy.polys.matrices import DomainMatrix

from .errors import BadParameter, FieldMismatch, NonMonic, Reducible

MAX_DEGREE = 8

_x = sympy.Symbol("x")
_QQX = QQ[_x]


def _to_dup(coeffs):
    """Ascending rational coefficients as a dense QQ polynomial (descending,
    leading zeros stripped)."""
    return dup_strip([QQ(c.numerator, c.denominator) for c in reversed(coeffs)])


def _from_dup(poly, n):
    """A dense QQ polynomial of degree < n as n ascending Fractions."""
    out = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(poly)]
    return out + [Fraction(0)] * (n - len(out))


class NumberField:
    """Q[x]/(min_poly) presented by a monic irreducible integer polynomial.

    Coefficients are given constant term first.  Degree 1 (min_poly = x)
    denotes the rationals themselves.
    """

    def __init__(self, min_poly):
        min_poly = [int(c) for c in min_poly]
        min_poly_t = dup_strip(min_poly[::-1])[::-1]
        if len(min_poly_t) < 2:
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
        self._dup = _to_dup(self.min_poly)
        self._places_cache = {}

    def _reduce(self, poly):
        """A dense QQ polynomial reduced mod min_poly, as a FieldElement."""
        return FieldElement(self, _from_dup(dup_rem(poly, self._dup, QQ), self.degree))

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
        return self.field._reduce(
            dup_mul(_to_dup(self.coeffs), _to_dup(other.coeffs), QQ))

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
        field = self.field
        return FieldElement(
            field, _from_dup(dup_invert(_to_dup(self.coeffs), field._dup, QQ), field.degree))

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


def _field_det(field, rows):
    """Exact determinant of a square matrix of field elements: the
    determinant over QQ[x] of the entries' power-basis polynomials, reduced
    mod min_poly."""
    mat = DomainMatrix([[_QQX.ring.from_list(_to_dup(a.coeffs)) for a in row]
                        for row in rows], (len(rows), len(rows)), _QQX)
    return field._reduce(mat.det().to_dense())


def charpoly_norm(a):
    """Characteristic polynomial (ascending, monic), norm and trace of a.

    The polynomial is that of multiplication-by-a on the field viewed as a
    Q-vector space; norm = (-1)^deg * constant term, trace = -(coefficient
    of x^(deg-1)).
    """
    field = a.field
    n = field.degree
    # row j is a * theta^j in the power basis: the transpose of the
    # multiplication matrix, which has the same characteristic polynomial
    poly = _to_dup(a.coeffs)
    rows = []
    for j in range(n):
        row = dup_rem(dup_lshift(poly, j, QQ), field._dup, QQ)[::-1]
        rows.append(row + [QQ(0)] * (n - len(row)))
    coeffs = tuple(_from_dup(DomainMatrix(rows, (n, n), QQ).charpoly(), n + 1))
    norm = (-1) ** n * coeffs[0]
    trace = -coeffs[n - 1]
    return coeffs, norm, trace


def norm(a):
    return charpoly_norm(a)[1]


def trace(a):
    return charpoly_norm(a)[2]
