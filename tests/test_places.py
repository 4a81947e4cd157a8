import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from linscat import errors, nf_create, places, places_above, product_formula_defect
from linscat.fieldarith import _det, _integer_rep, _local_norm, charpoly_norm, norm
from linscat.places import (
    INF,
    arch_value,
    log_abs,
    nonarch_exponent,
    ord_p_fraction,
    ord_p_int,
)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rational_places():
    q = nf_create([0, 1])
    for p in (2, 7):
        (w,) = places_above(q, p)
        assert (w.e, w.f, w.local_degree) == (1, 1, 1)
    (w,) = places_above(q, INF)
    assert w.is_arch
    with pytest.raises(errors.BadParameter):
        places_above(q, 6)


def test_quadratic_splitting_against_kronecker_oracle():
    """Splitting of p in the field of x^2 + bx + c follows the Kronecker
    symbol of the fundamental discriminant, read off the squarefree part of
    b^2 - 4c; sympy's ntheory provides the oracle.  The random b, c make p
    divide the index of Z[theta] to various powers."""
    rng = random.Random(3)
    polys = [(-d, 0) for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, -1, -2, -5, -7, 33, 65)]
    polys += [(3, 1), (-1, 1), (-5, 3), (-7, 2), (10, 2), (-7 * 36, 6), (17 * 25, 10)]
    while len(polys) < 45:
        c, b = rng.randint(-300, 300), rng.randint(1, 40)
        disc = b * b - 4 * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            polys.append((c, b))
    for c, b in polys:
        K = nf_create([c, b, 1])
        disc = b * b - 4 * c
        sq = (-1 if disc < 0 else 1) * math.prod(
            q for q, e in sympy.factorint(abs(disc)).items() if e % 2)
        delta = sq if sq % 4 == 1 else 4 * sq
        for p in PRIMES:
            ws = places_above(K, p, precision=24)
            assert sum(w.e * w.f for w in ws) == 2, (c, b, p)
            ks = sympy.jacobi_symbol(delta, p) if p != 2 else None
            if p == 2:
                if delta % 2 == 0:
                    expect = "ramified"
                elif sq % 8 == 1:
                    expect = "split"
                else:
                    expect = "inert"
            elif delta % p == 0:
                expect = "ramified"
            elif ks == 1:
                expect = "split"
            else:
                expect = "inert"
            kinds = {(w.e, w.f) for w in ws}
            if expect == "split":
                assert len(ws) == 2 and kinds == {(1, 1)}, (c, b, p)
            elif expect == "inert":
                assert len(ws) == 1 and kinds == {(1, 2)}, (c, b, p)
            else:
                assert len(ws) == 1 and kinds == {(2, 1)}, (c, b, p)


def test_non_maximal_order_traps():
    # x^2 - 5 at 2: the order Z[sqrt 5] is not maximal; 2 is inert in Q(sqrt 5)
    K5 = nf_create([-5, 0, 1])
    (w,) = places_above(K5, 2)
    assert (w.e, w.f) == (1, 2)
    # x^2 - 17 at 2: 17 = 1 mod 8, so 2 splits despite x^2 - 17 = x^2 mod 2
    K17 = nf_create([-17, 0, 1])
    ws = places_above(K17, 2, precision=24)
    assert len(ws) == 2 and all((w.e, w.f) == (1, 1) for w in ws)
    th = K17.gen()
    vals = sorted(nonarch_exponent(w, 1 + th) for w in ws)
    # N(1 + sqrt17) = -16; the two valuations split ord_2(16) = 4
    assert sum(vals) == 4 and all(v > 0 for v in vals)


def test_padic_root_certification():
    """The roots of the two split places are the two roots of the minimal
    polynomial mod p^precision: by Vieta their sum is -b and their product
    c, also at 2 in Q(sqrt17), where 2 divides the index of Z[sqrt17]."""
    for mp, p, precision in (([-2, 0, 1], 7, 20), ([-17, 0, 1], 2, 24),
                             ([-2, 0, 1], 7, 1), ([-17, 0, 1], 2, 3)):
        c, b, _ = mp
        mod = p ** precision
        r1, r2 = (-w.local_factor[0] for w in places_above(nf_create(mp), p, precision))
        assert (r1 + r2 + b) % mod == 0 and (r1 * r2 - c) % mod == 0
        assert (r1 * r1 + b * r1 + c) % mod == 0 and (r1 - r2) % mod


@pytest.mark.parametrize("min_poly, p, k", [
    ([-2 * 7 ** 6, 0, 1], 7, 3),     # theta = 343 sqrt2
    ([-17 * 2 ** 20, 0, 1], 2, 10),  # theta = 1024 sqrt17
])
def test_split_places_at_a_high_index_prime(min_poly, p, k):
    """p^k divides the index of Z[theta]: the places come from the
    p-maximal generator theta / p^k.  Two (1, 1) places at every precision,
    whose roots satisfy the minimal polynomial mod p^precision, and whose
    valuations sum to ord_p of the norm."""
    K = nf_create(min_poly)
    for precision in (1, 2, k, 40):
        ws = places_above(K, p, precision)
        assert [(w.e, w.f) for w in ws] == [(1, 1), (1, 1)]
        for w in ws:
            r = -w.local_factor[0]
            assert (r * r + min_poly[0]) % p ** precision == 0
    th = K.gen()
    assert [nonarch_exponent(w, th) for w in ws] == [k, k]
    rng = random.Random(p)
    for _ in range(40):
        a = _random_element(K, p, rng)
        if a:
            assert (sum(nonarch_exponent(w, a) for w in ws)
                    == ord_p_fraction(norm(a), p)), a


def _nearest_double(root):
    """The double nearest a sympy real root, from 60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.mpf(str(root.evalf(60))))


@pytest.mark.parametrize("min_poly", [
    [-2, 0, 1],          # Q(sqrt 2)
    [-17, 0, 1],         # Q(sqrt 17)
    [1, -3, 0, 1],       # x^3 - 3x + 1, totally real
    [8, -2, 1, 1],       # Dedekind's x^3 + x^2 - 2x + 8
    [1, 0, -10, 0, 1],   # x^4 - 10x^2 + 1, totally real
    [-3, 0, 1],          # Q(sqrt 3)
    [-1, -1, 1],         # the golden ratio
    [-2, 0, 0, 1],       # x^3 - 2, one real place
    [-1, -1, 0, 0, 1],   # x^4 - x - 1, two real places
    [-2, 40000, -200000000, 0, 1],         # Mignotte: two roots 1.4e-12 apart
    [1, -4, -10, 10, 15, -6, -7, 1, 1],    # 2cos(2pi/17), eight real places
])
def test_real_embeddings_against_sympy(min_poly):
    """Each real place's root disc is a certified enclosure at every digits
    asked for, and its float centre is the double nearest the root."""
    K = nf_create(min_poly)
    x = sympy.Symbol("x")
    f = sympy.Poly(list(reversed(min_poly)), x)
    roots = sympy.real_roots(f)
    for digits in (17, 40, 60):
        real = [w for w in places_above(K, INF, digits) if w.is_real]
        assert [w.w_index for w in real] == list(range(len(roots)))
        for w, root in zip(real, roots):
            c, r = w.root_disc(digits)
            lo, hi = c - r, c + r
            assert 0 < hi - lo <= Fraction(1, 10 ** digits)
            assert f.eval(sympy.Rational(lo)) * f.eval(sympy.Rational(hi)) < 0
            approx = root.evalf(digits + 20)
            assert sympy.Rational(lo) < approx < sympy.Rational(hi)
            assert places._float_disc(w)[0] == _nearest_double(root)


def test_real_enclosure_refinement():
    K = nf_create([-2, 0, 1])
    ws = places_above(K, INF, 30)
    assert len(ws) == 2
    c, r = ws[1].root_disc(25)
    lo, hi = c - r, c + r
    assert hi - lo <= Fraction(1, 10 ** 25)
    assert float(lo) <= math.sqrt(2) <= float(hi) + 1e-15


def test_arch_places_shapes():
    K3 = nf_create([-2, 0, 0, 1])
    ws = places_above(K3, INF, 20)
    assert [(w.is_real, w.local_degree) for w in ws] == [(True, 1), (False, 2)]
    assert sum(w.local_degree for w in ws) == 3
    K4 = nf_create([1, 0, 0, 0, 1])
    ws4 = places_above(K4, INF, 20)
    assert all(not w.is_real and w.local_degree == 2 for w in ws4)
    z, _ = ws4[0].root_disc(30)
    import mpmath
    assert abs(z ** 4 + 1) < 1e-25


@pytest.mark.parametrize("min_poly", [[1, 0, 0, 0, 1], [-2, 0, 0, 1]])
def test_complex_embeddings_are_certified(min_poly):
    """Each root of positive imaginary part lies in its Henrici disc, the
    discs lie above the real axis and apart, and each complex place's disc
    centre is the value of the former rule (polyroots at dps + 15 digits,
    roots above 1e-20 sorted), and its float centre that value's double."""
    K = nf_create(min_poly)
    x = sympy.Symbol("x")
    ws = [w for w in places_above(K, INF) if not w.is_real]
    with mpmath.workdps(80):
        roots = [mpmath.mpc(*(str(c) for c in r.evalf(80).as_real_imag()))
                 for r in sympy.Poly(list(reversed(min_poly)), x).all_roots()]
    for dps in (17, 40):
        discs = places._root_discs(K, dps)[1]
        assert len(discs) == len(ws) == len([z for z in roots if z.imag > 0])
        with mpmath.workdps(80):
            for (z, r), w in zip(discs, ws):
                assert 0 < float(r) < 10.0 ** -dps and z.imag > r
                assert sum(abs(z - root) <= r for root in roots) == 1
            for i, (z, r) in enumerate(discs):
                assert all(abs(z - y) > r + s for y, s in discs[:i])
        with mpmath.workdps(dps + 15):
            former = sorted((z for z in mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(min_poly)], maxsteps=200, extraprec=80)
                if z.imag > 1e-20), key=lambda z: (z.real, z.imag))
        assert [w.root_disc(dps)[0] for w in ws] == former
        if dps == 17:
            assert [places._float_disc(w)[0] for w in ws] == [complex(z) for z in former]


# x^4 + 2(10^6 x - 1)^2, totally complex: one root pair within 7.1e-19 of
# the real axis, near 10^-6, and one near +-1.4e6 i
_NEAR_AXIS = [2, -4000000, 2000000000000, 0, 1]


def test_root_discs_raise_without_certified_discs(monkeypatch):
    """Roots whose discs are not certified at any try are refused, not
    ordered by a threshold: a root of x^4 + 1 and its conjugate, each
    returned twice (at 60 digits, so only the discs' overlap refuses them),
    or points too far from any root to leave the real axis; sqrt 2 twice
    for x^2 - 2, whose real disc meets another; polyroots failing to
    converge; and for _NEAR_AXIS, a +- (0.26 + i) eta about its root pair
    a +- i eta near the axis: their discs are disjoint, tiny and both reach
    the axis, but each holds a non-real root, which only the symmetric disc
    about Re z, meeting the other disc, reveals."""
    def no_convergence(coeffs, **kw):
        raise mpmath.mp.NoConvergence("no convergence")

    with mpmath.workdps(60):
        z, r2 = mpmath.expjpi(mpmath.mpf(1) / 4), mpmath.sqrt(2)
        zbar = z.conjugate()
        true = mpmath.polyroots([mpmath.mpf(c) for c in reversed(_NEAR_AXIS)],
                                maxsteps=400, extraprec=200)
        rho = max((y for y in true if abs(y) < 1), key=lambda y: y.imag)
        w = (mpmath.mpf("0.26") + 1j) * rho.imag
        near_axis = [rho.real + w, rho.real - w] + [y for y in true if abs(y) > 1]
    assert abs(rho.imag) < 1e-18
    for min_poly, roots in (([1, 0, 0, 0, 1], [z, z, zbar, zbar]),
                            ([1, 0, 0, 0, 1], [1j, 1j, -1j, -1j]),
                            ([-2, 0, 1], [r2, r2]),
                            ([-2, 0, 1], None),
                            (_NEAR_AXIS, near_axis)):
        monkeypatch.setattr(mpmath, "polyroots", no_convergence if roots is None
                            else lambda coeffs, roots=roots, **kw: roots)
        with pytest.raises(errors.PrecisionExhausted):
            places._root_discs(nf_create(min_poly), 17)
    monkeypatch.undo()
    ws = places_above(nf_create(_NEAR_AXIS), INF)
    assert [(w.is_real, w.local_degree) for w in ws] == [(False, 2), (False, 2)]


def test_archimedean_places_built_once_per_field():
    """Archimedean places carry no precision: every precision gives the same
    Place objects."""
    for mp in ([0, 1], [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1]):
        K = nf_create(mp)
        ws = places_above(K, INF, 20)
        assert ws is places_above(K, INF, 60)
        assert all(a is b for a, b in zip(ws, places_above(K, "inf")))
        assert all(w.precision == 0 for w in ws)


def test_complex_place_float_path():
    """At precision 17 a complex embedding evaluates in Python complex and
    floats, as a real one does in floats, and agrees with 40 digits."""
    rng = random.Random(29)
    for mp in ([1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]):
        K = nf_create(mp)
        for w in (w for w in places_above(K, INF) if not w.is_real):
            assert isinstance(places._float_disc(w)[0], complex)
            for _ in range(20):
                a = K.element([Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                               for _ in range(K.degree)])
                if a.is_rational_value:
                    continue
                z = arch_value(w, a, 17)
                lg = log_abs(w, a, 17)
                assert type(z) is complex and type(lg) is float
                with mpmath.workdps(45):
                    z40 = arch_value(w, a, 40)
                assert isinstance(z40, mpmath.mpc)
                lg40 = log_abs(w, a, 40)
                assert abs(z - complex(z40)) <= 1e-14 * abs(complex(z40))
                assert abs(lg - float(lg40)) <= 1e-14 * abs(float(lg40))


def test_float_embedding_is_the_nearest_double():
    K = nf_create([-2, 0, 1])
    lower, upper = places_above(K, INF)
    assert places._float_disc(upper)[0] == math.sqrt(2)
    assert places._float_disc(lower)[0] == -math.sqrt(2)
    for d in (3, 5, 10, 17):
        assert log_abs(upper, 1 + K.gen(), d) == log_abs(upper, 1 + K.gen(), 17)


# (minimal polynomial, w_index): both places of Q(sqrt2), Q(i), the real and
# the complex place of x^3 - 2, and the three real places of x^3 - 3x + 1
_ARCH_CASES = [([-2, 0, 1], 0), ([-2, 0, 1], 1), ([1, 0, 1], 0), ([-2, 0, 0, 1], 0),
               ([-2, 0, 0, 1], 1), ([1, -3, 0, 1], 0), ([1, -3, 0, 1], 1),
               ([1, -3, 0, 1], 2)]


def _reference_value(w, a):
    """sigma_w(a) at 80 digits from mpmath's roots of the minimal polynomial:
    the root nearest the place's float centre (the real part at a real
    place), and a's Fraction coefficients."""
    f = w.field.min_poly
    with mpmath.workdps(80):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f)],
                                 maxsteps=400, extraprec=200)
        theta = min(roots, key=lambda z: abs(z - places._float_disc(w)[0]))
        if w.is_real:
            theta = mpmath.re(theta)
        return sum((mpmath.mpf(c.numerator) / c.denominator) * theta ** k
                   for k, c in enumerate(a.coeffs))


_numerator = st.integers(-10 ** 6, 10 ** 6)
_denominator = st.integers(1, 10 ** 3)


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(_ARCH_CASES),
       coeffs=st.lists(st.builds(Fraction, _numerator, _denominator), min_size=3, max_size=3))
@example(case=([-2, 0, 1], 1), coeffs=[Fraction(-1392), Fraction(985), Fraction(0)])
@example(case=([-2, 0, 1], 1), coeffs=[Fraction(131836323), Fraction(-93222358), Fraction(0)])
@example(case=([1, 0, 1], 0), coeffs=[Fraction(1, 7), Fraction(-3, 1000), Fraction(0)])
def test_arch_value_is_horner_on_the_integer_row(case, coeffs):
    """arch_value is Horner's rule on the integer row A over den.  At 17
    digits it lies within _horner's bound over den plus u|value| of a
    60-digit reference; at 40 digits (mpmath at 45) within 10^-43 of it,
    relative to |sigma(a)| plus the size sum_k |a_k| |theta|^k of its terms,
    as Horner's rule can be no better under cancellation."""
    min_poly, w_index = case
    K = nf_create(min_poly)
    w = places_above(K, INF)[w_index]
    a = K.element(coeffs[:K.degree])
    assume(not a.is_rational_value)
    ref = _reference_value(w, a)
    A, den = _integer_rep(a)
    v17 = arch_value(w, a, 17)
    assert type(v17) is (float if w.is_real else complex)
    with mpmath.workdps(45):
        v40 = arch_value(w, a, 40)
    assert isinstance(v40, mpmath.mpf if w.is_real else mpmath.mpc)
    with mpmath.workdps(80):
        theta = abs(mpmath.mpmathify(places._float_disc(w)[0]))
        size = sum(abs(mpmath.mpf(c.numerator) / c.denominator) * theta ** k
                   for k, c in enumerate(a.coeffs))
        bound = mpmath.mpf(places._horner(w, A)[1]) / den + places._U * abs(v17)
        assert abs(mpmath.mpmathify(v17) - ref) <= bound
        assert abs(v40 - ref) <= mpmath.mpf(10) ** -43 * (abs(ref) + size)


def test_a_row_past_the_double_range():
    """Integer rows with no float: theta + 1/10^400, whose value is in the
    float range, takes the mpmath rule at 17 digits and gives theta's
    values (at both places of Q(sqrt2) and at Q(i)'s); 10^400 theta + 1 at a
    real place is past it, so at 17 digits arch_value and log_abs raise
    PrecisionExhausted, not OverflowError; at 40 digits the value exists."""
    for min_poly in ([-2, 0, 1], [1, 0, 1]):
        K = nf_create(min_poly)
        for w in places_above(K, INF):
            for fn in (arch_value, log_abs):
                assert fn(w, K.gen() + Fraction(1, 10 ** 400), 17) == fn(w, K.gen(), 17)
    K = nf_create([-2, 0, 1])
    w = places_above(K, INF)[1]
    # 985 sqrt2 - 1392 cancels three digits: the value is correctly rounded
    # only if the mpmath rule runs at its own 22 digits, not the caller's 15
    with mpmath.workdps(60):
        want = float(985 * mpmath.sqrt(2) - 1392 + mpmath.mpf(10) ** -400)
    assert arch_value(w, 985 * K.gen() - 1392 + Fraction(1, 10 ** 400), 17) == want
    a = 10 ** 400 * K.gen() + 1
    for fn in (arch_value, log_abs):
        with pytest.raises(errors.PrecisionExhausted):
            fn(w, a, 17)
    value = log_abs(w, a, 40)
    with mpmath.workdps(60):
        assert abs(value - mpmath.log(10 ** 400 * mpmath.sqrt(2) + 1)) < mpmath.mpf(10) ** -40
    with mpmath.workdps(45):
        assert abs(arch_value(w, a, 40) / mpmath.mpf(10) ** 400
                   - mpmath.sqrt(2)) < mpmath.mpf(10) ** -43


def test_embedding_that_evaluates_to_zero_raises():
    """x1 - sqrt2 x0 at a Pell point is about 1/(2 sqrt2 x0): 0 in floats
    at 8 digits, 0 at 45 digits at 25.  Its log is refused, not -inf or a
    math domain error."""
    K = nf_create([-2, 0, 1])
    w = places_above(K, INF)[1]
    for x0, x1, precision in ((93222358, 131836323, 17),
                              (1111984844349868137938112,
                               1572584048032918633353217, 40)):
        a = x1 - x0 * K.gen()
        assert a and x1 ** 2 - 2 * x0 ** 2 == 1
        with pytest.raises(errors.PrecisionExhausted):
            log_abs(w, a, precision)
        assert log_abs(w, a, precision + 30) < -math.log(x0)


def test_valuation_norm_consistency():
    """Sum of d_w * t_w over w | p equals ord_p of the norm, for both cubic
    fields also at primes where they split into linear factors."""
    rng = random.Random(19)
    for mp in ([-2, 0, 1], [-17, 0, 1], [-2, 0, 0, 1], [1, -3, 0, 1]):
        K = nf_create(mp)
        primes = (2, 3, 5, 7, 11) if K.degree == 2 else (2, 3, 5, 7, 11, 13, 17, 19, 31)
        for _ in range(12):
            a = K.element([Fraction(rng.randint(-9, 9)) for _ in range(K.degree)])
            if not a:
                continue
            nm = norm(a)
            for p in primes:
                if K.degree > 2 and K.poly_disc % p == 0:
                    continue
                total = sum(w.local_degree * nonarch_exponent(w, a)
                            for w in places_above(K, p, 40))
                assert total == ord_p_fraction(nm, p) if nm != 0 else True


def test_extension_vs_field_normalization():
    """log_abs is the extension value |.|_{v,K}; the field normalization
    d_w/[K:Q] is checked through the product formula (criterion 01)."""
    K = nf_create([-2, 0, 1])
    th = K.gen()
    (w2,) = places_above(K, 2)
    t_ext = nonarch_exponent(w2, th)
    assert t_ext == Fraction(1, 2)
    ws = places_above(K, INF, 20)
    le = log_abs(ws[1], th)
    assert abs(le - math.log(2) / 2) < 1e-12


def test_element_of_another_field_is_refused():
    """The place is the only context of an absolute value: an element of
    Q(i) at a place of Q(sqrt2) raises FieldMismatch, at every place, and a
    rational is read in the place's field."""
    K, L = nf_create([-2, 0, 1]), nf_create([1, 0, 1])
    a = 1 + L.gen()
    w_inf, (w_2,) = places_above(K, INF)[1], places_above(K, 2)
    for w in (w_inf, w_2):
        with pytest.raises(errors.FieldMismatch):
            log_abs(w, a)
    with pytest.raises(errors.FieldMismatch):
        nonarch_exponent(w_2, a)
    with pytest.raises(errors.FieldMismatch):
        arch_value(w_inf, a)
    assert log_abs(w_inf, Fraction(-3, 2)) == math.log(1.5)
    assert nonarch_exponent(w_2, 12) == 2
    # a field equal to the place's, built separately, is the same field
    assert log_abs(w_inf, 1 + nf_create([-2, 0, 1]).gen()) == log_abs(w_inf, 1 + K.gen())


def _reference_exponent(field, place, a, _depth=0):
    """nonarch_exponent as it was before the local-norm rewrite, kept as an
    oracle.  Three formulas: the global norm by charpoly_norm when the place
    is the whole completion, A(r) mod p^precision at a p-adic root r, and
    sympy's Poly.resultant with any other local factor.  An undecided value
    is recomputed at the place with the same w_index at twice the precision."""
    if isinstance(a, (int, Fraction)):
        a = field.from_rational(a)
    p = place.prime
    if a.is_rational_value:
        return Fraction(ord_p_fraction(a.rational_value(), p))
    den = a.denominator_lcm()
    coeffs = [int(c * den) for c in a.coeffs]
    shift = Fraction(ord_p_int(den, p)) if den % p == 0 else Fraction(0)
    d = place.local_degree

    def finer():
        if _depth >= 4:
            raise errors.PrecisionExhausted("reference undecided")
        w = next(w for w in places_above(field, p, 2 * place.precision)
                 if w.w_index == place.w_index)
        return _reference_exponent(field, w, a, _depth + 1)

    if d == field.degree:
        _, nm, _ = charpoly_norm(field.element([Fraction(c) for c in coeffs]))
        return Fraction(ord_p_fraction(nm, p), d) - shift
    mod = p ** place.precision
    if d == 1:
        root = -place.local_factor[0] % mod
        val = sum(c * pow(root, i, mod) for i, c in enumerate(coeffs)) % mod
        if val == 0 or ord_p_int(val, p) >= place.precision:
            return finer()
        return Fraction(ord_p_int(val, p)) - shift
    x = sympy.Symbol("x")
    g = sympy.Poly(list(reversed(place.local_factor)), x)
    h = sympy.Poly(list(reversed(coeffs)), x)
    res = int(g.resultant(h)) % mod
    if res == 0:
        return finer()
    return Fraction(ord_p_int(res, p), d) - shift


REFERENCE_FIELDS = {
    "Q(sqrt2)": [-2, 0, 1],
    "Q(i)": [1, 0, 1],
    "Q(sqrt5)": [-5, 0, 1],     # 2 inert, and 2 divides the index of Z[sqrt5]
    "Q(sqrt17)": [-17, 0, 1],   # 2 split, and 2 divides the index of Z[sqrt17]
    "x^3-2": [-2, 0, 0, 1],
    "x^3-3x+1": [1, -3, 0, 1],
}


def _random_element(K, p, rng):
    """b * c^k with small random b, c and k <= 3; each coefficient of b and
    c has denominator 1, p, p^2 or a random integer up to 30."""
    def small():
        dens = (1, p, p * p, rng.randint(1, 30))
        return K.element([Fraction(rng.randint(-60, 60), rng.choice(dens))
                          for _ in range(K.degree)])
    return small() * small() ** rng.randint(0, 3)


@pytest.mark.parametrize("name", sorted(REFERENCE_FIELDS))
def test_exponent_matches_reference(name):
    """The local-norm exponent equals the three-formula oracle at every place
    above every prime <= 13 that places_above accepts."""
    K = nf_create(REFERENCE_FIELDS[name])
    rng = random.Random(sum(map(ord, name)))
    values = []
    for p in (2, 3, 5, 7, 11, 13):
        try:
            ws = places_above(K, p, 40)
        except errors.UnsupportedRamification:
            continue
        for _ in range(60):
            a = _random_element(K, p, rng)
            if not a:
                continue
            for w in ws:
                t = nonarch_exponent(w, a)
                assert t == _reference_exponent(K, w, a), (p, w, a)
                values.append(t)
    assert len(values) >= 300 and min(values) < 0 < max(values)


NORM_FIELDS = [[0, 1], [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1],
               [-3, 0, 0, 0, 0, 1], [-3, 0, 0, 0, 0, 0, 0, 0, 1]]
OCTIC = nf_create(NORM_FIELDS[-1])


@st.composite
def _field_elements(draw):
    """(field, a): a random element with small rational coefficients, or a
    power theta^k, whose multiplication matrix starts with a zero pivot."""
    K = nf_create(draw(st.sampled_from(NORM_FIELDS)))
    if draw(st.booleans()):
        return K, K.gen() ** draw(st.integers(0, 2 * K.degree))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return K, K.element(draw(st.lists(coeff, min_size=K.degree, max_size=K.degree)))


@settings(max_examples=300, deadline=None)
@given(case=_field_elements())
@example(case=(OCTIC, OCTIC.gen()))
def test_whole_completion_norm_is_the_field_norm(case):
    """With the minimal polynomial, the local norm of A, a = A(theta)/den, is
    N(a) den^d exactly, sign included, in degrees 1 to 8; 0 for a = 0."""
    K, a = case
    A, den = _integer_rep(a)
    assert _local_norm(K.min_poly, A) == charpoly_norm(a)[1] * den ** K.degree


def _sympy_resultant(g, A):
    x = sympy.Symbol("x")
    return int(sympy.Poly(list(reversed(g)), x).resultant(sympy.Poly(list(reversed(A)), x)))


LOCAL_FACTOR_CASES = [([-2, 0, 1], 7), ([-17, 0, 1], 2), ([-2, 0, 0, 1], 5),
                      ([1, -3, 0, 1], 17), ([1, 0, 0, 0, 1], 3), ([1, 0, 0, 0, 1], 17),
                      ([1, 0, 0, 1, 0, 0, 1], 17)]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(LOCAL_FACTOR_CASES), data=st.data())
def test_local_factor_norm_matches_resultant(case, data):
    """At a Hensel-lifted local factor g of degree 1 or 2 (40 digits), the
    local norm of an A longer than g is sympy's Res(g, A) up to sign."""
    K = nf_create(case[0])
    ws = [w for w in places_above(K, case[1], 40) if w.local_degree <= 2]
    g = data.draw(st.sampled_from(ws)).local_factor
    A = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=len(g) + 1, max_size=K.degree + 2))
    assert abs(_local_norm(g, A)) == abs(_sympy_resultant(g, A))


def _laplace(rows):
    return sum((-1) ** j * a * _laplace([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0])) if rows else 1


@st.composite
def _square_matrices(draw):
    """0 x 0 to 5 x 5 integer matrices; small entries, zero rows and a row
    that is the sum of two others make many of them singular."""
    n = draw(st.integers(0, 5))
    entry = st.integers(-3, 3) | st.integers(-10 ** 20, 10 ** 20)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        rows[i] = [a + b for a, b in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=_square_matrices())
@example(rows=[])
@example(rows=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
def test_bareiss_det_matches_laplace(rows):
    assert _det(rows) == _laplace(rows)


def test_refinement_keeps_the_place():
    """a = theta - r, r the 7-adic sqrt2 = 3 mod 7 to 60 digits, has
    valuation 60 at the place of r and 0 at the other.  40 digits do not
    decide it, so the value comes from the same place refined past
    ord_7 N(a) = 60 digits, which has the same w_index."""
    K = nf_create([-2, 0, 1])
    r = next(-w.local_factor[0] for w in places_above(K, 7, 61)
             if -w.local_factor[0] % 7 == 3) % 7 ** 60
    a = K.gen() - r
    ws = places_above(K, 7, 40)
    at_r = [-w.local_factor[0] % 7 == 3 for w in ws]
    assert at_r == [-w.local_factor[0] % 7 == 3 for w in places_above(K, 7, 80)]
    assert [nonarch_exponent(w, a) for w in ws] == [60 if m else 0 for m in at_r]
    assert sum(nonarch_exponent(w, a) for w in ws) == ord_p_fraction(norm(a), 7) == 60


def test_deep_valuation_is_decided_in_one_step():
    """The same with r to 700 digits: valuation 700 at the place of r and
    0 at the other.  Four doublings of 40 digits stopped at 640 and left it
    undecided; one refinement past ord_7 N(a) = 700 digits decides it."""
    K = nf_create([-2, 0, 1])
    r = next(-w.local_factor[0] for w in places_above(K, 7, 700)
             if -w.local_factor[0] % 7 == 3) % 7 ** 700
    a = K.gen() - r
    ws = places_above(K, 7, 40)
    assert ([nonarch_exponent(w, a) for w in ws]
            == [700 if -w.local_factor[0] % 7 == 3 else 0 for w in ws])


def test_refinement_at_a_degree_two_local_factor():
    """x^3 - 2 at 5 has a place of degree 1 and one of degree 2.  a = g(theta),
    g the degree-2 local factor to 60 digits, has a 40-digit local norm of 0
    mod 5^40 at the degree-2 place, so its value there comes from the
    refined place; every value equals the oracle's, and d_w t_w sums to
    ord_5 N(a)."""
    K = nf_create([-2, 0, 0, 1])
    g = next(w.local_factor for w in places_above(K, 5, 60) if w.local_degree == 2)
    a = K.element([Fraction(c) for c in g])
    ws = places_above(K, 5, 40)
    assert sorted(w.local_degree for w in ws) == [1, 2]
    (w2,) = [w for w in ws if w.local_degree == 2]
    assert _local_norm(w2.local_factor, list(g)) % 5 ** 40 == 0
    ts = [nonarch_exponent(w, a) for w in ws]
    assert ts == [_reference_exponent(K, w, a) for w in ws]
    assert ts[ws.index(w2)] >= 60
    assert sum(w.local_degree * t for w, t in zip(ws, ts)) == ord_p_fraction(norm(a), 5)


@pytest.mark.parametrize("min_poly, p", [
    ([-2, 0, 1], 7),        # swapped w_index 0 and 1 between 60 and 80 digits
    ([-17, 0, 1], 2),       # swapped between 17 and 40; the roots agree mod 2
    ([1, -3, 0, 1], 17),    # three linear factors
    ([-2, 0, 0, 1], 5),     # a linear and a quadratic factor
    ([-2 * 7 ** 6, 0, 1], 7),  # 7^3 divides the index; the roots agree mod 7^3
])
def test_w_index_is_precision_free(min_poly, p):
    """Each w_index names the same place at every precision: its local
    factor is the same mod p^s, s the first level at which the factors of
    the places above p differ, and the places are sorted by the root
    (degree 2) or the factor (degree 3) mod p^s."""
    K = nf_create(min_poly)
    top = [w.local_factor for w in places_above(K, p, 100)]
    s = 1
    while len({tuple(c % p ** s for c in g) for g in top}) < len(top):
        s += 1

    def keys(ws):
        return [tuple(c % p ** s for c in w.local_factor) for w in ws]

    want = keys(places_above(K, p, 100))
    for precision in (17, 40, 60, 80):
        assert keys(places_above(K, p, precision)) == want, precision
    if K.degree == 2:
        roots = [-g[0] % p ** s for g in want]
        assert roots == sorted(roots)
    else:
        assert want == sorted(want)


def test_places_above_refuses_precision_below_one():
    """A precision below one digit is refused, not handed to the p-adic
    lifting (where 0 digits crashed sympy's Hensel lift)."""
    K = nf_create([1, -3, 0, 1])
    for v in (17, 2, INF):
        for precision in (0, -5):
            with pytest.raises(errors.BadParameter, match="at least 1"):
                places_above(K, v, precision)


def test_precision_escalation_at_split_prime():
    K = nf_create([-17, 0, 1])
    th = K.gen()
    a = (1 + th) ** 9  # valuation 27 at one place above 2, beyond 24 digits
    ws = places_above(K, 2, precision=24)
    vals = sorted(nonarch_exponent(w, a) for w in ws)
    assert vals == [9, 27]
    # the place of 27 refines past ord_2 N(a) = 36 digits and keeps its w_index
    assert [nonarch_exponent(w, a) for w in ws] == [_reference_exponent(K, w, a) for w in ws]


def test_unsupported_ramification():
    K3 = nf_create([-2, 0, 0, 1])  # disc -108
    for p in (2, 3):
        with pytest.raises(errors.UnsupportedRamification):
            places_above(K3, p)


def test_product_formula_rationals_exact():
    rng = random.Random(23)
    q = nf_create([0, 1])
    for _ in range(100):
        val = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if val == 0:
            continue
        assert product_formula_defect(q, val) < 1e-30


def test_product_formula_quadratic_and_cubic():
    rng = random.Random(29)
    for mp in ([-2, 0, 1], [1, 0, 1]):
        K = nf_create(mp)
        for _ in range(25):
            a = K.element([Fraction(rng.randint(-20, 20), rng.randint(1, 8))
                           for _ in range(2)])
            if not a:
                continue
            assert product_formula_defect(K, a) < 1e-12
    K3 = nf_create([-2, 0, 0, 1])
    t3 = K3.gen()
    assert product_formula_defect(K3, 3 + t3) < 1e-12


@pytest.mark.parametrize("min_poly, bad, primes, local_degrees", [
    ([1, 0, 0, 0, 1], 2, (3, 5, 17), [1, 2]),                  # x^4 + 1
    ([1, 0, 0, 1, 0, 0, 1], 3, (2, 7, 17, 19), [1, 2, 3, 6]),  # x^6 + x^3 + 1
])
def test_product_formula_quartic_and_sextic(min_poly, bad, primes, local_degrees):
    """The product formula in degrees 4 and 6, through the 4 x 4 and 6 x 6
    norms of the support and local factors of degree 1, 2 and 3.  At each
    place w above p, a = b c: b is the local factor mod p at theta, plus a
    multiple of p (p itself at a whole completion), so w is in the support,
    and c is random.  Their norms and denominators avoid bad, the one prime
    dividing disc(min_poly), which places_above refuses."""
    K = nf_create(min_poly)
    rng = random.Random(K.degree)

    def avoids_bad(a):
        return a and not ord_p_fraction(norm(a), bad) and a.denominator_lcm() % bad

    seen = []
    for p in primes:
        for w in places_above(K, p):
            g = w.local_factor
            b = K.from_rational(p) if len(g) == len(min_poly) else K.element(
                [(c + p // 2) % p - p // 2 for c in g[:-1]] + [1] + [0] * (len(min_poly) - len(g) - 1))
            while not avoids_bad(b):
                b += p
            for _ in range(3):
                a = 0
                while not avoids_bad(a):
                    a = b * K.element([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 11, 13)))
                                       for _ in range(K.degree)])
                assert nonarch_exponent(w, a) > 0
                assert product_formula_defect(K, a) < 1e-12
                seen.append(w.local_degree)
    assert sorted(set(seen)) == local_degrees


def test_place_serialization():
    K = nf_create([-2, 0, 1])
    (w,) = places_above(K, 3)
    assert w.serial() == {"v": 3, "w_index": 0, "e": 1, "f": 2}
    winf = places_above(K, INF, 20)[0]
    assert winf.serial()["v"] == "inf"
