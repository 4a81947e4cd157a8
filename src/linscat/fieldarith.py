"""Exact arithmetic in Q and in a number field Q[x]/(f), f monic irreducible.

An element is one integer row over a denominator: a = A(theta)/den, A the
integer coefficients of the power basis of theta, ascending, den > 0 and
gcd(A, den) = 1.  Everything here is exact and deterministic.  Sums and
rational multiples act on the row; products, inverses, norms, traces, local
norms and the independence of form rows are read off one integer matrix,
the multiplication rows of _mult_rows, and one integer determinant, _det;
the characteristic polynomial is Faddeev-LeVerrier's on the same matrix.

The minimal polynomial is checked and split with a few integer algorithms
on ascending coefficient lists (Cohen, A Course in Computational Algebraic
Number Theory, 1993, 3.4-3.5): its discriminant is a resultant by _det,
_factor_mod_p factors it mod a prime (distinct-degree, then Cantor-Zassenhaus
equal-degree splitting), _hensel_lift lifts those factors p-adically, and
_is_irreducible decides irreducibility over Q from both.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from .errors import BadParameter, FieldMismatch, NonMonic, Reducible

MAX_DEGREE = 8


class NumberField:
    """Q[x]/(min_poly) presented by a monic irreducible integer polynomial.

    Coefficients are given constant term first.  Degree 1 (min_poly = x)
    denotes the rationals themselves.
    """

    def __init__(self, min_poly):
        min_poly = [int(c) for c in min_poly]
        min_poly_t = list(min_poly)
        while min_poly_t and not min_poly_t[-1]:
            min_poly_t.pop()
        if len(min_poly_t) < 2:
            raise BadParameter("min_poly must have degree >= 1")
        if min_poly_t[-1] != 1:
            raise NonMonic("min_poly must be monic: %r" % (min_poly,))
        degree = len(min_poly_t) - 1
        if degree > MAX_DEGREE:
            raise BadParameter("degree %d exceeds supported cap %d" % (degree, MAX_DEGREE))
        if degree > 1 and not _is_irreducible(min_poly_t):
            raise Reducible("min_poly factors over Q: %r" % (min_poly,))
        self.min_poly = tuple(min_poly_t)
        self.degree = degree
        self.poly_disc = _disc(min_poly_t)
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
    desc = _charpoly(_mult_rows(a.field.min_poly, a.row))
    poly = tuple(Fraction(c, den ** k) for k, c in enumerate(desc))[::-1]
    return poly, (-1) ** n * poly[0], -poly[n - 1]


def _charpoly(rows):
    """det(x I - M) of a square integer matrix M, descending, by Faddeev-
    LeVerrier: M_1 = I, c_(n-k) = -tr(M M_k)/k and M_(k+1) = M M_k +
    c_(n-k) I.  The coefficients are integers, so each division is exact."""
    n, desc, prod = len(rows), [1], rows
    for k in range(1, n + 1):
        c = -sum(prod[i][i] for i in range(n)) // k
        desc.append(c)
        if k < n:
            mk = [[v + c if i == j else v for j, v in enumerate(r)] for i, r in enumerate(prod)]
            prod = [[sum(map(operator.mul, r, col)) for col in zip(*mk)] for r in rows]
    return desc


def norm(a):
    """N(a) = N(A(theta)) / den^d, the local norm of the minimal polynomial."""
    return Fraction(_local_norm(a.field.min_poly, a.row), a.den ** a.field.degree)


def trace(a):
    """Tr(a), the diagonal sum of _mult_rows(min_poly, A) over den."""
    rows = _mult_rows(a.field.min_poly, a.row)
    return Fraction(sum(row[j] for j, row in enumerate(rows)), a.den)


# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficient lists: the discriminant, and
# factoring mod p, Hensel lifting and irreducibility of monic polynomials

def _primes():
    """2, 3, 5, 7, ... by trial division."""
    found = []
    for n in itertools.count(2):
        if all(n % q for q in itertools.takewhile(lambda q: q * q <= n, found)):
            found.append(n)
            yield n


def _disc(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') of a monic f of degree n; 1 for
    n = 1."""
    n = len(f) - 1
    return (-1) ** (n * (n - 1) // 2) * _local_norm(f, [k * c for k, c in enumerate(f)][1:])


def _trim(a, m):
    """a mod m, its zero leading coefficients dropped (0 is [])."""
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m, sign=1):
    """a + sign b mod m."""
    return _trim([x + sign * y for x, y in itertools.zip_longest(a, b, fillvalue=0)], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out, m)


def _divmod(a, b, m):
    """(q, r), a = q b + r mod m with deg r < deg b, for b nonzero mod m with
    a unit leading coefficient (every b mod a prime, a monic b mod any m)."""
    a, db = _trim(a, m), len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + db] * inv % m
        for j in range(db):
            a[i + j] = (a[i + j] - c * b[j]) % m
    return _trim(q, m), _trim(a[:db], m)


def _gcd(a, b, p):
    """The monic gcd of a and b mod a prime p, not both 0."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _xgcd(a, b, p):
    """(s, t) with s a + t b = 1 mod a prime p, for a and b coprime mod p."""
    r0, r1, s0, s1, t0, t1 = _trim(a, p), _trim(b, p), [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, p):
    """a^e mod (f, p), f monic."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        a = _divmod(_mul(a, a, p), f, p)[1]
        e >>= 1
    return out


def _factor_mod_p(f, p):
    """The monic irreducible factors mod a prime p of a monic f squarefree
    mod p, sorted.  Distinct-degree factorization: g_d = gcd(x^(p^d) - x, f)
    is the product of the factors of degree d.  Each g_d is split by
    Cantor-Zassenhaus: for a random a mod g_d, gcd(a^((p^d - 1)/2) - 1, g_d)
    at an odd p, and gcd(Tr(a), g_d) at p = 2, Tr(a) = a + a^2 + ... +
    a^(2^(d-1)), is a proper factor with probability about 1/2 (Cohen 3.4.6,
    3.4.8).  The random choices come from a fixed seed; the factors do not
    depend on them."""
    rng, f, x = random.Random(0), _trim(f, p), [0, 1]
    factors, h, d = [], x, 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _add(h, x, p, -1), p)
        if len(g) > 1:
            factors += _split_equal_degree(g, d, p, rng)
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        factors.append(f)
    return sorted(factors)


def _split_equal_degree(g, d, p, rng):
    """The monic factors of g mod p, each of degree d (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _divmod(_mul(t, t, 2), g, 2)[1]
                b = _add(b, t, 2)
        else:
            b = _add(_powmod(a, (p ** d - 1) // 2, g, p), [1], p, -1)
        s = _gcd(g, b, p)
        if 1 < len(s) < len(g):
            return (_split_equal_degree(s, d, p, rng)
                    + _split_equal_degree(_divmod(g, s, p)[0], d, p, rng))


def _hensel_lift(p, f, factors, k):
    """The monic G_i = g_i mod p with f = prod G_i mod p^k, reduced mod p^k,
    for a monic f and its monic factors g_i mod p, pairwise coprime.  Those
    G_i are unique (Hensel's lemma).  Each is lifted against its cofactor
    f/g_i by the quadratic Hensel step (von zur Gathen and Gerhard, Modern
    Computer Algebra, 2013, 15.10), which doubles the p-adic digits."""
    mod, out = p ** k, []
    for g in factors:
        h = _divmod(f, g, p)[0]
        s, t = _xgcd(g, h, p)
        m = p
        while m < mod:
            m *= m
            e = _add(f, _mul(g, h, m), m, -1)
            q, r = _divmod(_mul(s, e, m), h, m)
            g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
            h = _add(h, r, m)
            b = _add(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m, -1)
            c, d = _divmod(_mul(s, b, m), h, m)
            s = _add(s, d, m, -1)
            t = _add(t, _add(_mul(t, b, m), _mul(c, g, m), m), m, -1)
        out.append(_trim(g, mod))
    return out


def _is_irreducible(f):
    """Whether a monic f of degree n >= 2 is irreducible over Q.  A
    discriminant 0 is a repeated factor.  Else f is squarefree mod each
    prime p not dividing it, and a factor of degree m over Q is a product of
    factors mod p: m is a sum of their degrees at each of the first five
    such primes.  When no 0 < m < n is, f is irreducible.  Otherwise
    (Zassenhaus) lift the factors mod the prime with the fewest past twice
    the Mignotte bound 2^n |f|_2 on the coefficients of a monic factor, and
    trial-divide f by the products of at most half of them, taken in the
    symmetric range: a factor over Q, or its cofactor, is one of them."""
    disc = _disc(f)
    if not disc:
        return False
    n, sums, best = len(f) - 1, None, None
    for p in itertools.islice((q for q in _primes() if disc % q), 5):
        factors = _factor_mod_p(f, p)
        reach = {0}
        for g in factors:
            reach |= {m + len(g) - 1 for m in reach}
        sums = reach if sums is None else sums & reach
        if sums == {0, n}:
            return True
        if best is None or len(factors) < len(best[1]):
            best = p, factors
    p, factors = best
    bound, k = 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1), 1
    while p ** k <= 2 * bound:
        k += 1
    mod, lifted = p ** k, _hensel_lift(p, f, factors, k)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in itertools.combinations(lifted, size):
            if sum(len(g) - 1 for g in subset) not in sums:
                continue
            g = functools.reduce(lambda a, b: _mul(a, b, mod), subset)
            g = [c - mod if 2 * c > mod else c for c in g]
            if not any(_mult_rows(g, f)[0]):  # f mod g over Z
                return False
    return True


RATIONALS = NumberField([0, 1])
