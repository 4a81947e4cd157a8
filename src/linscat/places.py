"""Places of Q and of a number field F, and the normalized absolute values.

log_abs is the one absolute value, in log space: at a place w of F above
v, |a|_{v,K} = |N_{F_w/Q_v}(a)|_v^(1/[F_w:Q_v]), the value extending |.|_v
from Q to F.  The place is its only context: the field is place.field, a
rational is coerced into it, and an element of another field raises
FieldMismatch.  Q is the field of min_poly x, on the same path as every
other field.

Non-archimedean values are exact rational powers of p, read off the local
norm (fieldarith._local_norm): the integer determinant of multiplication
by A on Z[x]/(g_w), for a = A(theta)/den and g_w the place's local factor.
_row_exponent takes the integer row A and den; nonarch_exponent hands it a
field element's own row and den.  The places above p come, in every
degree, from one factorization mod p and one Hensel lift
(of a p-maximal generator in a quadratic field), exact to the p-adic
digits asked for (fieldarith._factor_mod_p and _hensel_lift).  p is
tested by _is_prime, Miller-Rabin to the 13 prime bases up to 41, which
is deterministic below 3,317,044,064,679,887,385,961,981, and the strong
Baillie-PSW test above it; _prime_factors gives the primes of the
product formula's support.

Archimedean values are Horner's rule on the same integer row A over den.
A place keeps one approximation of theta, root_disc(digits): its disc
among those of _root_discs, one polyroots call certified by disjoint
Henrici discs, rational at a real place; the places at infinity and their
order come from the same discs.  Its float view _float_disc, the double
t nearest the centre of root_disc(17) and a bound on |t - theta|, is
computed once per place.  _horner evaluates A(t) with a proven error
bound; both arch_value and the certified signs of heights read it, so a
value and its sign start from the same double.

reals(precision) is the one float/mpf rule of every evaluation, real or
complex, with its guard digits; places carry no decimal precision.
"""

import contextlib
import functools
import itertools
import math
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from .errors import BadParameter, FieldMismatch, PrecisionExhausted, UnsupportedRamification
from .fieldarith import _factor_mod_p, _hensel_lift, _local_norm, _primes

INF = "inf"

_U = 2.0 ** -53  # the unit roundoff of doubles

_IV = MPIntervalContext()  # the root discs' interval arithmetic


# ---------------------------------------------------------------------------
# small integer / rational helpers

def ord_p_int(n, p):
    if n == 0:
        raise ValueError("ord_p of zero")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def ord_p_fraction(q, p):
    q = Fraction(q)
    if q == 0:
        raise ValueError("ord_p of zero")
    num, den = q.numerator, q.denominator
    if num % p == 0:
        return ord_p_int(num, p)
    if den % p == 0:
        return -ord_p_int(den, p)
    return 0


_SMALL_PRIMES = tuple(itertools.islice(_primes(), 25))  # the primes below 100
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether the integer n is prime: trial division by the primes below
    100, then Miller-Rabin to the 13 prime bases 2, ..., 41, which is
    deterministic below _MR_BOUND = 3,317,044,064,679,887,385,961,981
    (Sorenson and Webster, Math. Comp. 86, 2017).  Above it, the strong
    Baillie-PSW test: Miller-Rabin to base 2 and a strong Lucas test with
    Selfridge's parameters (Baillie and Wagstaff, Math. Comp. 35, 1980),
    which has no known counterexample.  sympy.isprime follows the same
    rule."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 100 * 100:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES[:13])
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    """Miller-Rabin to base a for an odd n > a."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a, out = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test of an odd n > 1 with no prime factor below
    100: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some r < s.  A square n has no such D."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1

    def half(v):
        v %= n
        return (v + n if v & 1 else v) // 2

    U, V, Qk = 1, 1, Q % n  # index 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _prime_factors(n):
    """The set of primes dividing an integer n >= 1: trial division by the
    primes below 100, then _is_prime and Pollard-Brent on what is left."""
    out, rest = set(), []
    for q in _SMALL_PRIMES:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
    if n > 1:
        rest.append(n)
    while rest:
        m = rest.pop()
        if _is_prime(m):
            out.add(m)
        else:
            d = _pollard_brent(m)
            rest += [d, m // d]
    return out


def _pollard_brent(n):
    """A proper factor of a composite n with no prime factor below 100:
    Pollard's rho on x^2 + c, c = 1, 2, ... until one splits n, with Brent's
    cycle search (BIT 20, 1980), which compares y with the term x at the
    last power of two."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


# ---------------------------------------------------------------------------
# places

class Place:
    """A place of a number field above a place of Q.

    Non-archimedean places carry the monic local factor of the minimal
    polynomial over Q_p, ascending, whose coefficients agree with the true
    factor mod p^precision (Hensel lifting is exact to the digits it is
    asked for), or the minimal polynomial itself when the place is the whole
    completion.  Archimedean places carry no precision: w_index is the rank
    of their root among the discs of _root_discs, the real roots first,
    ascending, then the complex pairs by their root above the real axis.  A
    place is archimedean when it has no prime.
    """

    def __init__(self, field, *, prime=None, w_index=0,
                 e=1, f=1, local_degree=1, precision=0, local_factor=None):
        self.field = field
        self.prime = prime
        self.is_arch = prime is None
        self.w_index = w_index
        self.e = e
        self.f = f
        self.local_degree = local_degree
        self.precision = precision
        self.local_factor = local_factor
        self._double = None

    @property
    def is_real(self):
        """An archimedean place of local degree 1."""
        return self.is_arch and self.local_degree == 1

    def root_disc(self, digits):
        """(c, r), theta's embedding within r of c, r below 10^-digits / 2:
        the place's disc of _root_discs, rational at a real place.  It is
        the one approximation of theta a place keeps, cached on the field
        per digits: _float_disc is its float view, and mpmath values are
        read at its centre."""
        if not self.is_arch:
            raise BadParameter("no embedding of theta at a non-archimedean place")
        real, upper = _root_discs(self.field, digits)
        return (real + upper)[self.w_index]

    def serial(self):
        v = "inf" if self.is_arch else self.prime
        return {"v": v, "w_index": self.w_index, "e": self.e, "f": self.f}

    def __repr__(self):
        v = "inf" if self.is_arch else self.prime
        return "Place(v=%s, w=%d, e=%d, f=%d)" % (v, self.w_index, self.e, self.f)


def _root_discs(field, dps):
    """(real, upper): every root of the minimal polynomial f, of degree d,
    within r of a centre, r below 10^-dps / 2, from one polyroots call at
    dps + 15 digits.  A disc of radius d|f(z)/f'(z)| about any z holds a
    root of f (Henrici, Applied and Computational Complex Analysis I, 1974,
    6.4), so d pairwise disjoint discs hold one root each.  A disc with
    |Im z| > r holds a root above or below the real axis.  Any other holds
    a real root when the disc about Re z of radius r + |Im z| meets no other
    disc: that disc is symmetric about the axis, so it holds the root and
    its conjugate, which must then be equal.  When the real discs and twice
    the upper ones number d, every root is in a disc of its kind.  real
    lists (c, r), c = Re z and r as Fractions, ascending; upper lists (z, r)
    by (real, imaginary part).  Else, or when polyroots does not converge,
    the digits double, up to four tries, and then PrecisionExhausted is
    raised.  Past dps 17, polyroots starts from the 17-digit centres and
    their conjugates, fixed by the field alone, so no disc depends on the
    digits asked for before.  Cached on the field."""
    key, f, work = ("discs", dps), field.min_poly, dps + 15
    init = None
    if dps != 17 and key not in field._places_cache:
        real, upper = _root_discs(field, 17)
        with mpmath.workdps(32):
            init = ([_mpf(c) for c, _ in real] + [z for z, _ in upper]
                    + [mpmath.conj(z) for z, _ in upper])
    while key not in field._places_cache:
        if work > 8 * (dps + 15):
            raise PrecisionExhausted("no disjoint root discs for %r" % (field,))
        try:
            with mpmath.workdps(work):
                roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f)],
                                         maxsteps=200, extraprec=80, roots_init=init)
        except mpmath.mp.NoConvergence:
            roots = []
        _IV.prec, discs, work = 4 * work, [], 2 * work
        # converted once: an int in _IV arithmetic is converted at every use
        cs, scale = [_IV.mpf(c) for c in reversed(f)], _IV.mpf(2 * 10 ** dps)
        for z in roots:
            p, val, der = _IV.mpc(z.real, z.imag), cs[0], _IV.mpf(0)
            for c in cs[1:]:
                der, val = der * p + val, val * p + c
            r = ((len(f) - 1) * abs(val) / abs(der)).b if abs(der) > 0 else _IV.inf
            discs.append((z, p, r))
        upper = [(z, r) for z, _, r in discs if z.imag > r]
        real = [(z, r) for i, (z, p, r) in enumerate(discs) if abs(z.imag) <= r and all(
            abs(p.real - q) > r + abs(p.imag) + s for j, (_, q, s) in enumerate(discs) if j != i)]
        if (len(real) + 2 * len(upper) == len(f) - 1
                and all(r * scale < 1 for _, _, r in discs)
                and all(abs(p - q) > r + s for i, (_, p, r) in enumerate(discs)
                        for _, q, s in discs[:i])):
            field._places_cache[key] = (
                sorted((Fraction(*to_rational(z.real._mpf_)), Fraction(*to_rational(r._mpi_[1])))
                       for z, r in real),
                sorted(upper, key=lambda d: (d[0].real, d[0].imag)))
    return field._places_cache[key]


def _arch_places(field):
    """One place per real disc of _root_discs(field, 17), ascending, then
    one per complex pair (Q's root 0 is real, in a disc of radius 0)."""
    real, upper = _root_discs(field, 17)
    return ([Place(field, w_index=i) for i in range(len(real))]
            + [Place(field, w_index=len(real) + k, local_degree=2)
               for k in range(len(upper))])


def _p_maximal(coeffs, p):
    """(u, k, h) for theta a root of the monic quadratic coeffs = (c, b, 1):
    omega = (theta - u)/p^k is integral exactly when p^k | 2u + b and
    p^2k | u^2 + bu + c, and h is then its minimal polynomial.  The largest
    such k is ord_p [O_K : Z[theta]], so Z_p[omega] is the p-adic ring of
    integers and the factors of h mod p give the places (Kummer-Dedekind)."""
    c, b, _ = coeffs
    for k in range(ord_p_int(b * b - 4 * c, p) // 2, 0, -1):
        q = p ** k
        # u mod p^k solves 2u + b = 0 mod p^k: one class for odd p, two for
        # p = 2, where b is even here (an odd b leaves ord_2 of disc at 0)
        if p == 2:
            u0 = -b // 2 % (q // 2)
            us = (u0, u0 + q // 2)
        else:
            us = (-b * pow(2, -1, q) % q,)
        for u in us:
            if (u * u + b * u + c) % (q * q) == 0:
                return u, k, ((u * u + b * u + c) // (q * q), (2 * u + b) // q, 1)
    return 0, 0, coeffs


def _nonarch_places(field, p, precision):
    """The places above p: the factors of the minimal polynomial mod p,
    Hensel-lifted to precision digits.  A quadratic field first replaces
    theta by the p-maximal generator omega = (theta - u)/p^k, so every
    prime is covered; its split places carry the roots u + p^k rho of theta,
    rho the lifted roots of omega's polynomial.  Degree 3 and higher needs p
    prime to disc(min_poly).  Over Q, x is its one factor, with e = f = 1."""
    n = field.degree
    if n > 2 and field.poly_disc % p == 0:
        raise UnsupportedRamification(
            "prime %d divides disc(min_poly); degree-%d fields are only "
            "supported away from the discriminant" % (p, n)
        )
    coeffs = tuple(field.min_poly)
    u, k, h = _p_maximal(coeffs, p) if n == 2 else (0, 0, coeffs)
    if n == 2 and (h[1] * h[1] - 4 * h[0]) % p == 0:
        # h = (x - a)^2 mod p: ramified, as omega generates the p-adic integers
        return [Place(field, prime=p, e=2, local_degree=2, precision=precision,
                      local_factor=coeffs)]
    factors = _factor_mod_p(h, p)
    if len(factors) == 1:
        return [Place(field, prime=p, f=n, local_degree=n, precision=precision,
                      local_factor=coeffs)]
    mod = p ** precision
    keys = [tuple(g) for g in _hensel_lift(p, h, factors, precision)]
    if n == 2:
        keys = [(u + p ** k * (-g[0] % mod),) for g in keys]
    places = []
    for i, key in enumerate(_first_difference_order(keys, p)):
        g = (-key[0], 1) if n == 2 else key
        places.append(Place(field, prime=p, w_index=i, f=len(g) - 1,
                            local_degree=len(g) - 1, precision=precision,
                            local_factor=g))
    return places


def _first_difference_order(keys, p):
    """Tuples of p-adic integers (a root, or a local factor's coefficients)
    sorted by their reductions mod p^s, where s is the smallest level at
    which those reductions are pairwise distinct.  s and the reductions are
    fixed by the true roots or factors, which every precision determines to
    at least s digits (a quadratic root u + p^k rho to precision + k); so the
    order, and with it each split place's w_index, is the same at every
    precision."""
    s = 1
    while len({tuple(c % p ** s for c in k) for k in keys}) < len(keys):
        s += 1
    mod = p ** s
    return sorted(keys, key=lambda k: tuple(c % mod for c in k))


def normalize_place(v):
    """A place of Q as INF or an integer: "inf", "oo", "infinity" and None
    mean INF, and an integer or a digit string means that integer.  Whether
    the integer is prime is left to places_above."""
    if v in (INF, "oo", "infinity", None):
        return INF
    if isinstance(v, int) or (isinstance(v, str) and v.isdigit()):
        return int(v)
    raise BadParameter("bad place %r" % (v,))


def places_above(field, v, precision=40):
    """All places of the field above v (a rational prime, or "inf").

    precision, at least 1, counts p-adic digits.  At "inf" it is only
    checked: archimedean places carry none, so every precision gives the
    same list, built once per field.  Results are cached on the field.
    """
    v = normalize_place(v)
    if v != INF and not _is_prime(v):
        raise BadParameter("v must be a prime or 'inf', got %r" % (v,))
    if precision < 1:
        raise BadParameter("precision must be at least 1, got %r" % (precision,))
    key = INF if v == INF else (v, precision)
    cache = field._places_cache
    if key not in cache:
        if v == INF:
            cache[key] = _arch_places(field)
        else:
            cache[key] = _nonarch_places(field, v, precision)
    return cache[key]


# ---------------------------------------------------------------------------
# absolute values

def _element(field, a):
    """a in field: a rational is coerced, and an element of another field
    raises FieldMismatch (identity first, the common and cheap case)."""
    if isinstance(a, (int, Fraction)):
        return field.from_rational(a)
    if a.field is not field and a.field != field:
        raise FieldMismatch("an element of %r at a place of %r" % (a.field, field))
    return a


def nonarch_exponent(place, a):
    """Exact exponent t with |a|_{v,K} = p^(-t) at the finite place w: a
    rational a = row[0]/den by the p-adic orders of those integers, any
    other by _row_exponent on its integer numerator."""
    a = _element(place.field, a)
    if not a:
        raise ValueError("absolute value exponent of zero")
    if a.is_rational_value:
        return Fraction(ord_p_int(a.row[0], place.prime) - ord_p_int(a.den, place.prime))
    return _row_exponent(place, a.row, a.den)


def _row_exponent(place, coeffs, den):
    """The exponent t of nonarch_exponent for a = A(theta)/den, A a nonzero
    integer row (not necessarily prime to den): a LinearForm's _dots and
    _den go here directly.

    t = ord_p Res(g_w, A) / d_w - ord_p(den), where the local norm
    Res(g_w, A) is the integer determinant of multiplication by A mod g_w
    (_local_norm).  When the place is the whole completion g_w is the
    minimal polynomial and the norm is exact.  Otherwise g_w agrees with the
    p-adic factor mod p^precision, so an order below precision is final.
    The order is at most t = ord_p N(A(theta)), so a norm that is 0 mod
    p^precision is decided in one step, at the same place refined to more
    than t digits: the power of two above t, so that the places cached on
    the field stay one per doubling.  w_index names the same place at every
    precision (_first_difference_order).
    """
    field, p = place.field, place.prime
    shift = ord_p_int(den, p) if den % p == 0 else 0
    d = place.local_degree
    if d == field.degree:
        res = _local_norm(field.min_poly, coeffs)
    else:
        res = _local_norm(place.local_factor, coeffs)
        if res % p ** place.precision == 0:
            t = ord_p_int(_local_norm(field.min_poly, coeffs), p)
            refined = places_above(field, p, 1 << t.bit_length())[place.w_index]
            res = _local_norm(refined.local_factor, coeffs)
    return Fraction(ord_p_int(res, p) - d * shift, d)


_UNCHANGED = contextlib.nullcontext()


def working_dps(dps):
    """mpmath at dps digits or more: the caller's working precision when it
    is already that high, else workdps(dps)."""
    if mpmath.mp.dps >= dps:
        return _UNCHANGED
    return mpmath.workdps(dps)


def _float(q):
    # float(q) on a Fraction goes through numbers.Rational, two calls slower
    try:
        return q.numerator / q.denominator
    except OverflowError:
        raise PrecisionExhausted("a %d-digit rational is outside the float range"
                                 % len(str(q.numerator // q.denominator))) from None


def _exp(t):
    try:
        return math.exp(t)
    except OverflowError:
        raise PrecisionExhausted("exp(%r) is outside the float range" % (t,)) from None


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


class Reals:
    """The number type reals() chose, floats or mpmath, with its zero, log,
    exp and real(q) (a rational in the type); on floats, real and exp raise
    PrecisionExhausted outside the float range.  guard(digits), the context an
    evaluation runs in, is none for floats and working_dps(precision +
    digits), which never lowers a caller's higher precision, for mpmath.
    It sets the digits of values only: every verdict is a certified sign."""

    __slots__ = ("precision", "is_float", "zero", "log", "exp", "real")

    def __init__(self, precision, is_float):
        self.precision = precision
        self.is_float = is_float
        if is_float:
            self.zero, self.log, self.exp, self.real = 0.0, math.log, _exp, _float
        else:
            self.zero, self.log, self.exp, self.real = (
                mpmath.mp.zero, mpmath.log, mpmath.exp, _mpf)

    def guard(self, digits):
        if self.is_float:
            return _UNCHANGED
        return working_dps(self.precision + digits)


@functools.lru_cache(maxsize=None)
def reals(precision):
    """The one float/mpf rule: at precision <= 17 digits values are Python
    floats, or complex at a complex embedding; above it they are mpmath
    mpfs or mpcs."""
    return Reals(precision, precision <= 17)


def _float_disc(place):
    """(t, eta): root_disc(17) in doubles, computed once per place and read
    by every float value and sign at it.  t is the double nearest the
    disc's centre c (per part at a complex place), so |c - t| <= u|c| per
    part, and eta >= |t - theta|."""
    if place._double is None:
        c, r = place.root_disc(17)
        t = float(c) if place.is_real else complex(c)
        place._double = t, (float(r) + abs(t) * 2 * _U) * (1 + 8 * _U)
    return place._double


def _horner(place, A):
    """(fl(A(t)), bound) for an integer row A of degree n, the one float
    Horner loop over A(theta): |A(theta) - fl(A(t))| <= bound at the place,
    complex at a complex place.  With (t, eta) = _float_disc(place),
    Horner's rule gives A(t) within (4n+2)u size even in complex arithmetic
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.6,
    5.1), and |A(theta) - A(t)| <= n eta/|t| size, for
    size = sum|a_k|(|t| + eta)^k.  So bound = (8(n+1)u + n eta/|t|) size,
    the spare factors covering the rounding of each a_k and of the bound.
    Integers of A past the double range raise OverflowError."""
    t, eta = _float_disc(place)
    at, acc, size = abs(t) + eta, 0.0, 0.0
    for a in reversed(A):
        acc = acc * t + a
        size = size * at + abs(a)
    n = len(A) - 1
    return acc, (8 * (n + 1) * _U + n * eta / abs(t)) * size


def arch_value(place, a, precision=17):
    """sigma(a) for the chosen archimedean embedding, a number of
    reals(precision), complex at a complex place unless a is rational.  For
    a = A(theta)/den, A the element's integer row, it is Horner's rule
    on A over den: in floats by _horner, in mpmath at the centre of
    root_disc(precision + 5) and mpmath's working precision, which the
    caller sets (log_abs runs it at precision + 5 digits or more).  A float
    row past the double range takes the mpmath rule at precision + 5 digits,
    rounded; a value past it raises PrecisionExhausted."""
    a = _element(place.field, a)
    R = reals(precision)
    if a.is_rational_value:
        return R.real(a.rational_value())
    A, den = a.row, a.den
    if not R.is_float:
        return _mp_horner(place, A, precision) / den
    try:
        return _horner(place, A)[0] / den
    except OverflowError:
        with working_dps(precision + 5):
            value = (float if place.is_real else complex)(_mp_horner(place, A, precision) / den)
    if math.isinf(abs(value)):
        raise PrecisionExhausted("the value of a %d-digit integer row is outside the "
                                 "float range" % len(str(max(map(abs, A)))))
    return value


def _mp_horner(place, A, precision):
    """A(theta) in mpmath at the centre of root_disc(precision + 5)."""
    c, _ = place.root_disc(precision + 5)
    theta = _mpf(c) if place.is_real else c
    acc = mpmath.mp.zero
    for k in reversed(A):
        acc = acc * theta + k
    return acc


def arch_abs(place, a, precision=17):
    """|sigma(a)| for the chosen archimedean embedding, at the caller's
    working precision as arch_value."""
    return abs(arch_value(place, a, precision))


def log_abs(place, a, precision=17):
    """log|a|_{v,K} at the place, as a number of reals(precision), at
    precision + 5 digits on the mpf path.  A nonzero a whose embedding
    evaluates to 0 at that precision raises PrecisionExhausted."""
    a = _element(place.field, a)
    if not a:
        raise ValueError("log of zero absolute value")
    R = reals(precision)
    if not place.is_arch:
        t = nonarch_exponent(place, a)
        if not t:
            return R.zero
        with R.guard(5):
            return -R.real(t) * R.log(place.prime)
    with R.guard(5):
        mag = arch_abs(place, a, precision)
        if not mag:
            raise PrecisionExhausted(
                "%r evaluates to 0 at %r at precision %d" % (a, place, precision))
        return R.log(mag)


# ---------------------------------------------------------------------------
# product formula

def _support_primes(field, a):
    nm = _local_norm(field.min_poly, a.row)
    return sorted(_prime_factors(a.den) | _prime_factors(abs(nm)))


def product_formula_defect(field, a, precision=30):
    """|sum over all places w of F of log|a|_w|, in reals(precision + 10),
    where |a|_w = |a|_{v,K}^(d_w/[F:Q]) is the normalization whose product
    over all places is 1: every element goes through its field's places."""
    a = _element(field, a)
    if not a:
        raise ValueError("product formula needs a nonzero element")
    R = reals(precision + 10)
    with R.guard(0):
        total = R.zero
        for p in _support_primes(field, a):
            for w in places_above(field, p):
                t = nonarch_exponent(w, a) * Fraction(w.local_degree, field.degree)
                if t:
                    total += -R.real(t) * R.log(p)
        for w in places_above(field, INF):
            # scaled at log_abs's guard digits, and only then rounded into the sum
            with R.guard(5):
                lg = R.real(Fraction(w.local_degree, field.degree)) * log_abs(
                    w, a, precision + 10)
            total += lg
        return float(abs(total))
