import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from linscat import errors, nf_create, norm, trace
from linscat.fieldarith import RATIONALS, _restriction_det, charpoly_norm
from linscat.heights import LinearForm, ProjectivePoint

X = sympy.Symbol("x")
# Q, Q(sqrt2), Q(i), Dedekind's cubic, Q(sqrt2 + sqrt3)
DET_FIELDS = ([0, 1], [-2, 0, 1], [1, 0, 1], [8, -2, 1, 1], [1, 0, -10, 0, 1])


def _poly(coeffs):
    """Ascending rational coefficients as a sympy Poly over QQ."""
    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], X, domain="QQ")


def _element(K, poly):
    """The field element of a sympy Poly, reduced mod the minimal polynomial."""
    red = poly.rem(_poly(K.min_poly)).all_coeffs()[::-1]
    return K.element([Fraction(int(c.p), int(c.q)) for c in red]
                     + [Fraction(0)] * (K.degree - len(red)))


def _leibniz_det(K, rows):
    """Permutation expansion of the determinant, products taken by sympy."""
    total = sympy.Poly(0, X, domain="QQ")
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(len(perm)), 2))
        term = sympy.Poly((-1) ** inversions, X, domain="QQ")
        for i, j in enumerate(perm):
            term = term * _poly(rows[i][j].coeffs)
        total = total + term
    return _element(K, total)


def test_construction_validation():
    with pytest.raises(errors.NonMonic):
        nf_create([-2, 0, 2])
    with pytest.raises(errors.Reducible):
        nf_create([-4, 0, 1])  # x^2 - 4
    with pytest.raises(errors.Reducible):
        nf_create([1, 2, 1])  # (x+1)^2
    with pytest.raises(errors.BadParameter):
        nf_create([5])
    with pytest.raises(errors.BadParameter):
        nf_create([1] + [0] * 8 + [1])  # degree 9 over the cap


def test_rationals_field():
    q = RATIONALS
    assert q.degree == 1
    a = q.from_rational(Fraction(3, 4))
    assert (a * a).rational_value() == Fraction(9, 16)
    assert a.inverse().rational_value() == Fraction(4, 3)


def test_quadratic_arithmetic():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    assert (1 + th) * (1 - th) == -1
    assert th * th == 2
    assert (th / th) == 1
    inv = (3 + th).inverse()
    assert (3 + th) * inv == 1
    assert norm(3 + th) == 7
    assert trace(3 + th) == 6
    poly, nm, tr = charpoly_norm(3 + th)
    assert poly == (Fraction(7), Fraction(-6), Fraction(1))


def test_field_mismatch_and_zero_division():
    K = nf_create([-2, 0, 1])
    L = nf_create([-3, 0, 1])
    with pytest.raises(errors.FieldMismatch):
        K.gen() + L.gen()
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        K.one() / 0


def test_charpoly_of_generator_is_min_poly():
    for mp in ([-2, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1], [-1, -1, 0, 1]):
        K = nf_create(mp)
        poly, nm, tr = charpoly_norm(K.gen())
        assert list(poly) == [Fraction(c) for c in mp]


def test_norm_multiplicative_cubic_against_sympy():
    K = nf_create([-2, 0, 0, 1])
    rng = random.Random(11)
    x = sympy.Symbol("x")
    cbrt2 = sympy.root(2, 3)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if not any(coeffs):
            continue
        a = K.element(coeffs)
        # independent oracle: resultant of min poly with the element poly
        elem = sum(sympy.Rational(c) * x ** i for i, c in enumerate(coeffs))
        res = sympy.resultant(x ** 3 - 2, elem, x)
        assert norm(a) == Fraction(sympy.Rational(res))


def test_norm_is_multiplicative():
    K = nf_create([1, 1, 0, 1])  # x^3 + x + 1
    rng = random.Random(5)
    for _ in range(15):
        a = K.element([Fraction(rng.randint(-4, 4)) for _ in range(3)])
        b = K.element([Fraction(rng.randint(-4, 4)) for _ in range(3)])
        if not a or not b:
            continue
        assert norm(a * b) == norm(a) * norm(b)
        assert trace(a + b) == trace(a) + trace(b)


def test_inverse_random():
    rng = random.Random(7)
    for mp in ([-2, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]):
        K = nf_create(mp)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(K.degree)]
            if not any(coeffs):
                continue
            a = K.element(coeffs)
            assert a * a.inverse() == 1


def test_denominator_lcm():
    """den is the lcm of the coefficients' denominators, and (row, den) is
    canonical: den > 0, gcd(row, den) = 1 and zero is row 0 over 1, so an
    element built by element, from_rational, LinearForm.evaluate or
    arithmetic has the same row, den and hash as the others."""
    K = nf_create([-2, 0, 1])
    a = K.element([Fraction(1, 6), Fraction(3, 4)])
    assert (a.row, a.den) == ((2, 9), 12)
    assert a.coeffs == (Fraction(1, 6), Fraction(3, 4))
    for z in (K.element([0, Fraction(0, 7)]), a - a, a * 0, -K.zero(), K.from_rational(0),
              LinearForm(K, [a, -a]).evaluate(ProjectivePoint([1, 1]))):
        assert (z.row, z.den) == ((0, 0), 1) and hash(z) == hash(K.zero())
    rng = random.Random(3)
    for mp in DET_FIELDS:
        K = nf_create(mp)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(K.degree)]
            a = K.element(coeffs)
            assert a.den > 0 and math.gcd(a.den, *a.row) == 1
            q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
            ways = [K.element([str(c) for c in coeffs]), a * q / q, q * a * (1 / q),
                    a + K.zero(), -(-a), K.one() * a, K.one() / (1 / a) if a else a,
                    LinearForm(K, [2 * a, 3 * a]).evaluate(ProjectivePoint([2, -1]))]
            if a.is_rational_value:
                ways += [K.from_rational(a.rational_value()), K.from_rational(str(coeffs[0]))]
            for b in ways:
                assert (b.row, b.den) == (a.row, a.den) and hash(b) == hash(a), (b, a)
                assert b.coeffs == a.coeffs


def test_field_det_against_leibniz():
    """_restriction_det equals norm(det) prod_i den_i^d for det the
    permutation expansion and den_i row i's common denominator, over five
    fields, for random 2x2 and 3x3 matrices, and is 0 for rows dependent
    over K but not over Q (row 2 = theta * row 1)."""
    rng = random.Random(23)
    for mp in DET_FIELDS:
        K = nf_create(mp)

        def rand():
            return K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(K.degree)])

        # theta * a by sympy; over Q (theta = 0) take 3 * a instead
        shift = _poly([0, 1] if K.degree > 1 else [3])
        for size in (2, 3):
            nonzero = 0
            for _ in range(6):
                rows = [[rand() for _ in range(size)] for _ in range(size)]
                det = _restriction_det(K, rows)
                scale = 1
                for row in rows:
                    scale *= math.lcm(*(a.den for a in row)) ** K.degree
                assert det == norm(_leibniz_det(K, rows)) * scale
                nonzero += bool(det)
            assert nonzero
            first = [rand() for _ in range(size)]
            second = [_element(K, shift * _poly(a.coeffs)) for a in first]
            rows = [first, second] + [[rand() for _ in range(size)]
                                      for _ in range(size - 2)]
            assert not _leibniz_det(K, rows)
            assert not _restriction_det(K, rows)


def test_products_against_sympy_rem():
    """Sums, differences, rational multiples and quotients, products,
    inverses, quotients of elements and negative powers in degrees 1 to 8
    against sympy's Poly arithmetic mod x^d - 2 and the Eisenstein
    x^d - 3x + 3 (x and x - 2 in degree 1)."""
    rng = random.Random(31)
    for d in range(1, 9):
        mps = ([[0, 1], [-2, 1]] if d == 1
               else [[-2] + [0] * (d - 1) + [1], [3, -3] + [0] * (d - 2) + [1]])
        for mp in mps:
            K = nf_create(mp)
            f = _poly(mp)
            for _ in range(4):
                a, b = (K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                   for _ in range(d)]) for _ in range(2))
                pa, pb = _poly(a.coeffs), _poly(b.coeffs)
                q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                assert a + b == _element(K, pa + pb)
                assert a - b == _element(K, pa - pb)
                assert a * q == q * a == _element(K, pa * sympy.Rational(q))
                assert a / q == _element(K, pa * sympy.Rational(1 / q))
                assert a * b == _element(K, pa * pb)
                if a:
                    assert a.inverse() == _element(K, pa.invert(f))
                    assert b / a == _element(K, pb * pa.invert(f))
                    assert a ** -3 == _element(K, pa.invert(f) ** 3)


def test_charpoly_degree_one():
    """Over Q the characteristic polynomial of v is x - v, its norm and
    trace v."""
    for v in (Fraction(-7, 3), Fraction(0), Fraction(5)):
        poly, nm, tr = charpoly_norm(RATIONALS.from_rational(v))
        assert poly == (-v, Fraction(1))
        assert nm == v and tr == v


def test_charpoly_against_resultant():
    """charpoly(a)(t) = Res_x(f(x), t - A(x)) for monic f, degrees 1 to 5."""
    t = sympy.Symbol("t")
    rng = random.Random(41)
    for mp in ([0, 1], [-2, 0, 1], [8, -2, 1, 1], [1, 0, -10, 0, 1], [-2, 0, 0, 0, 0, 1]):
        K = nf_create(mp)
        for _ in range(3):
            a = K.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(K.degree)])
            res = sympy.resultant(_poly(mp).as_expr(), t - _poly(a.coeffs).as_expr(), X)
            want = [Fraction(int(c.p), int(c.q))
                    for c in reversed(sympy.Poly(res, t).all_coeffs())]
            assert list(charpoly_norm(a)[0]) == want
