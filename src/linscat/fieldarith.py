"""Exact arithmetic in Q and in a number field Q[x]/(f), f monic irreducible.

An element is one integer row over a denominator: a = A(theta)/den, A the
integer coefficients of the power basis of theta, ascending, den > 0 and
gcd(A, den) = 1.  Everything here is exact and deterministic.  Sums and
rational multiples act on the row; products, inverses, norms, traces, local
norms and the independence of form rows are read off one integer matrix,
the multiplication rows of _mult_rows, and one integer determinant, _det;
sympy's DomainMatrix over ZZ only gives the characteristic polynomial.
"""

import math
import operator
from fractions import Fraction

import sympy
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from .errors import BadParameter, FieldMismatch, NonMonic, Reducible

MAX_DEGREE = 8

_x = sympy.Symbol("x")


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
        self._places_cache = {}

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise BadParameter(
                "expected %d coefficients, got %d" % (self.degree, len(coeffs))
            )
        den = math.lcm(*(c.denominator for c in coeffs))
        return FieldElement(self, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def from_rational(self, q):
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        if self.degree == 1:
            # theta = 0 for min_poly x; Q has no interesting generator
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

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
    """Element row(theta)/den of a NumberField: row the integer coefficients
    of the power basis of theta, ascending, over den > 0, reduced so that
    gcd(row, den) = 1 (zero is row 0 over 1).  coeffs is the read-only view
    as Fractions."""

    __slots__ = ("field", "row", "den")

    def __init__(self, field, row, den=1):
        g = math.gcd(den, *row)
        if den < 0:
            g = -g
        self.field = field
        self.row = tuple(row) if g == 1 else tuple(c // g for c in row)
        self.den = den // g

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.row)

    def _check(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements of %r and %r" % (self.field, other.field))
            return other
        return self.field.from_rational(other)

    def __bool__(self):
        return any(self.row)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field == other.field and self.row == other.row
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.min_poly, self.row, self.den))

    def __add__(self, other):
        other = self._check(other)
        da, db = self.den, other.den
        return FieldElement(self.field, [a * db + b * da for a, b in zip(self.row, other.row)],
                            da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.row], self.den)

    def __sub__(self, other):
        other = self._check(other)
        da, db = self.den, other.den
        return FieldElement(self.field, [a * db - b * da for a, b in zip(self.row, other.row)],
                            da * db)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        """A rational multiplies the row and den; an element b = B/db gives
        B . _mult_rows(min_poly, A) over den db, the sum of b_j theta^j A."""
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, [a * q.numerator for a in self.row],
                                self.den * q.denominator)
        other = self._check(other)
        rows = _mult_rows(self.field.min_poly, self.row)
        return FieldElement(self.field, [sum(map(operator.mul, other.row, col))
                                         for col in zip(*rows)], self.den * other.den)

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
        """1/a = den C(theta) for C(theta) A(theta) = 1, that is c M = e_0
        for M = _mult_rows(min_poly, A), whose row j is theta^j A.  By
        Cramer's rule c_j = det(M_j) / det(M), M_j being M with row j
        replaced by e_0; det(M) = N(A(theta)) is not 0."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        m = _mult_rows(self.field.min_poly, self.row)
        e0 = [1] + [0] * (len(m) - 1)
        return FieldElement(self.field, [self.den * _det(m[:j] + [e0] + m[j + 1:])
                                         for j in range(len(m))], _det(m))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = Fraction(other)
            return FieldElement(self.field, [a * q.denominator for a in self.row],
                                self.den * q.numerator)
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    @property
    def is_rational_value(self):
        return not any(self.row[1:])

    def rational_value(self):
        if not self.is_rational_value:
            raise BadParameter("element is not rational: %r" % (self,))
        return Fraction(self.row[0], self.den)

    def __repr__(self):
        return "FieldElement(%s)" % (list(self.coeffs),)


def _det(rows):
    """Determinant of a square integer matrix, 1 for the empty one, by
    Bareiss' fraction-free elimination (Math. Comp. 22, 1968): each division
    by the previous pivot is exact.  A zero pivot swaps in a lower row."""
    m, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        pivot, top = m[k][k], m[k]
        for r in m[k + 1:]:
            rk = r[k]
            for j in range(k + 1, len(r)):
                r[j] = (r[j] * pivot - rk * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if m else 1


def _mult_rows(g, coeffs):
    """The rows x^j A mod g, j < deg g, of a monic g and an integer poly A,
    both ascending, reduced by exact integer division as g is monic: the
    transposed matrix of multiplication by A on Z[x]/(g) in the power basis."""
    d, row = len(g) - 1, list(coeffs)
    for i in range(len(row) - 1, d - 1, -1):  # A mod g
        c = row.pop()
        for j in range(d):
            row[i - d + j] -= c * g[j]
    row += [0] * (d - len(row))
    rows = [row]
    for _ in range(d - 1):  # x * row mod g
        c = row[-1]
        row = [0] + row[:-1]
        for j in range(d):
            row[j] -= c * g[j]
        rows.append(row)
    return rows


def _local_norm(g, coeffs):
    """Res(g, A) for a monic g and an integer poly A, both ascending: the
    product of A over the roots of g, which is the determinant of
    multiplication by A on Z[x]/(g) (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, 4.3).  For g the minimal polynomial this
    is N(A(theta)); for g a local factor, the local norm
    N_{K_w/Q_p}(A(theta)).  A root r gives the 1 x 1 matrix A(r)."""
    return _det(_mult_rows(g, coeffs))


def _restriction_det(field, rows):
    """N(det M) prod_i den_i^d for a square matrix M of field elements, d the
    degree and den_i the common denominator of row i: the integer
    determinant of M's restriction of scalars to Q, whose block (i, m) is
    _mult_rows of the numerator of M_im.  The blocks commute, so the
    determinant is the norm of the block determinant; it is 0 exactly when
    the rows are dependent over the field."""
    g, big = field.min_poly, []
    for row in rows:
        den = math.lcm(*(a.den for a in row))
        blocks = [_mult_rows(g, [c * (den // a.den) for c in a.row]) for a in row]
        big += [[c for block in blocks for c in block[j]] for j in range(field.degree)]
    return _det(big)


def charpoly_norm(a):
    """Characteristic polynomial (ascending, monic), norm and trace of a.

    The polynomial is that of multiplication-by-a on the field viewed as a
    Q-vector space: with a = A(theta)/den, that of the integer matrix
    _mult_rows(min_poly, A) (the transpose has the same one) scaled by
    1/den.  norm = (-1)^deg * constant term, trace = -(coefficient of
    x^(deg-1)).
    """
    n, den = a.field.degree, a.den
    rows = _mult_rows(a.field.min_poly, a.row)
    desc = DomainMatrix([[ZZ(c) for c in row] for row in rows], (n, n), ZZ).charpoly()
    poly = tuple(Fraction(int(c), den ** k) for k, c in enumerate(desc))[::-1]
    return poly, (-1) ** n * poly[0], -poly[n - 1]


def norm(a):
    """N(a) = N(A(theta)) / den^d, the local norm of the minimal polynomial."""
    return Fraction(_local_norm(a.field.min_poly, a.row), a.den ** a.field.degree)


def trace(a):
    """Tr(a), the diagonal sum of _mult_rows(min_poly, A) over den."""
    rows = _mult_rows(a.field.min_poly, a.row)
    return Fraction(sum(row[j] for j, row in enumerate(rows)), a.den)
