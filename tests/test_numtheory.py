"""The integer number theory behind fields and places, against sympy.

fieldarith's discriminant, irreducibility test, factoring mod p, Hensel
lift and characteristic polynomial, and places' primality test and prime
factors, are checked against the sympy routines they replace; so are the
places above p that they build."""

import itertools

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_hensel_lift
from sympy.polys.galoistools import gf_factor
from sympy.polys.matrices import DomainMatrix

from linscat import errors, fieldarith, nf_create, places_above
from linscat.fieldarith import (_charpoly, _disc, _factor_mod_p, _hensel_lift,
                                _is_irreducible)
from linscat.places import (_MR_BOUND, _SMALL_PRIMES, _first_difference_order, _is_prime,
                            _p_maximal, _prime_factors, _strong_lucas_probable_prime)

X = sympy.Symbol("x")
PHI15 = [1, -1, 0, 1, -1, 1, 0, -1, 1]  # disc 3^4 5^6
# irreducible over Q, but reducible mod every prime
EVERYWHERE_REDUCIBLE = ([1, 0, 0, 0, 1], [16, 0, 0, 0, 0, 0, 0, 0, 1], [1, 0, -10, 0, 1])
TEST_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 2 ** 31 - 1)


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f)), X)


def _desc(f):
    return [ZZ(c) for c in reversed(f)]


def _sympy_factors(f, p):
    """gf_factor's monic factors of f mod p, ascending, sorted."""
    _, factors = gf_factor(_desc(f), p, ZZ)
    assert all(e == 1 for _, e in factors)
    return sorted([int(c) for c in reversed(g)] for g, _ in factors)


@st.composite
def _monic(draw, max_degree=8):
    """A monic integer polynomial of degree 2 to max_degree, ascending:
    random, or a product of two random monic factors."""
    n = draw(st.integers(2, max_degree))
    coeff = st.integers(-9, 9)
    if draw(st.booleans()):
        return draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    m = draw(st.integers(1, n - 1))
    g = draw(st.lists(coeff, min_size=m, max_size=m)) + [1]
    h = draw(st.lists(coeff, min_size=n - m, max_size=n - m)) + [1]
    return [int(c) for c in reversed(_sympy_poly(g).mul(_sympy_poly(h)).all_coeffs())]


# ---------------------------------------------------------------------------
# discriminant and irreducibility

@settings(max_examples=150, deadline=None)
@given(f=_monic())
@example(f=[1, 0, 0, 0, 1])
@example(f=[4, 0, 0, 0, 1])
@example(f=PHI15)
def test_disc_and_irreducibility_against_sympy(f):
    disc = _disc(f)
    assert disc == sympy.discriminant(_sympy_poly(f))
    assert _is_irreducible(f) == _sympy_poly(f).is_irreducible


@pytest.mark.parametrize("f", EVERYWHERE_REDUCIBLE)
def test_irreducible_but_reducible_mod_every_prime(f, monkeypatch):
    """Factors mod p cannot decide these: only the lift and the trial
    division can, and they say irreducible."""
    disc = _disc(f)
    for p in itertools.takewhile(lambda p: p < 2000, fieldarith._primes()):
        if disc % p:
            assert len(_factor_mod_p(f, p)) > 1, p
    lifts = []
    real_lift = fieldarith._hensel_lift
    monkeypatch.setattr(fieldarith, "_hensel_lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    assert _is_irreducible(f)
    assert lifts
    nf_create(f)


@pytest.mark.parametrize("f, irreducible", [
    ([4, 0, 0, 0, 1], False),   # (x^2 + 2x + 2)(x^2 - 2x + 2), no rational root
    (PHI15, True),
    ([1, 2, 1], False),         # disc 0
    ([-2, 0, 1], True),
])
def test_irreducibility_pinned(f, irreducible):
    assert _is_irreducible(f) is irreducible
    if not irreducible:
        with pytest.raises(errors.Reducible):
            nf_create(f)


# ---------------------------------------------------------------------------
# factoring mod p and Hensel lifting

@pytest.mark.parametrize("p, degrees", [(2, [4, 4]), (31, [1] * 8), (7, [4, 4]),
                                        (2 ** 31 - 1, [4, 4])])
def test_factor_phi15_mod_p(p, degrees):
    """Phi_15 splits mod p into factors of degree the order of p mod 15."""
    factors = _factor_mod_p(PHI15, p)
    assert sorted(len(g) - 1 for g in factors) == degrees
    assert factors == _sympy_factors(PHI15, p)


@settings(max_examples=150, deadline=None)
@given(f=_monic(), p=st.sampled_from(TEST_PRIMES))
@example(f=[-1, -1, 0, 1], p=2 ** 31 - 1)
@example(f=[1, 1, 1, 1, 1, 1, 1, 1, 1], p=2)
def test_factor_mod_p_against_gf_factor(f, p):
    if _disc(f) % p:
        assert _factor_mod_p(f, p) == _sympy_factors(f, p)


@settings(max_examples=60, deadline=None)
@given(f=_monic(), p=st.sampled_from(TEST_PRIMES[:7]))
@example(f=PHI15, p=2)
@example(f=PHI15, p=31)
@example(f=[1, 0, 0, 0, 1], p=2 ** 31 - 1)
def test_hensel_lift_against_sympy(f, p):
    """The lifted monic factors are unique mod p^k: the same as sympy's, and
    their product is f mod p^k."""
    if _disc(f) % p == 0:
        return
    factors = _factor_mod_p(f, p)
    for k in (1, 7, 40, 64):
        mod = p ** k
        mine = _hensel_lift(p, f, factors, k)
        ref = dup_zz_hensel_lift(p, _desc(f), [_desc(g) for g in factors], k, ZZ)
        assert ([tuple(c % mod for c in g) for g in mine]
                == [tuple(int(c) % mod for c in reversed(g)) for g in ref])
        prod = [1]
        for g in mine:
            prod = fieldarith._mul(prod, g, mod)
        assert prod == [c % mod for c in f]


# ---------------------------------------------------------------------------
# places above p

def _sympy_places(K, p, precision):
    """(w_index, e, f, local_degree, local_factor) of the places above p,
    built as places did with sympy's gf_factor and dup_zz_hensel_lift."""
    n, coeffs = K.degree, tuple(K.min_poly)
    u, k, h = _p_maximal(coeffs, p) if n == 2 else (0, 0, coeffs)
    _, factors = gf_factor(_desc(h), p, ZZ)
    if len(factors) == 1:
        (g, e), = factors
        return [(0, e, len(g) - 1, n, coeffs)]
    lifted = dup_zz_hensel_lift(p, _desc(h), [g for g, _ in factors], precision, ZZ)
    mod = p ** precision
    keys = [tuple(int(c) % mod for c in reversed(g)) for g in lifted]
    if n == 2:
        keys = [(u + p ** k * (-g[0] % mod),) for g in keys]
    out = []
    for i, key in enumerate(_first_difference_order(keys, p)):
        g = (-key[0], 1) if n == 2 else key
        out.append((i, 1, len(g) - 1, len(g) - 1, tuple(g)))
    return out


@pytest.mark.parametrize("min_poly, primes", [
    ([1, 0, 1], (2, 3, 5, 13)),
    ([-2, 0, 1], (2, 3, 7, 17)),
    ([-17 * 2 ** 20, 0, 1], (2, 17)),
    ([-1, -1, 0, 1], (2, 5, 59)),
    (PHI15, (2, 31, 61)),
])
def test_places_above_against_sympy(min_poly, primes):
    K = nf_create(min_poly)
    for p in primes:
        for precision in (1, 7, 40):
            got = [(w.w_index, w.e, w.f, w.local_degree, tuple(w.local_factor))
                   for w in places_above(K, p, precision)]
            assert got == _sympy_places(K, p, precision), (p, precision)


# ---------------------------------------------------------------------------
# characteristic polynomial

@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=n, max_size=n)))
@example(rows=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
def test_faddeev_leverrier_against_domain_matrix(rows):
    n = len(rows)
    ref = DomainMatrix([[ZZ(c) for c in r] for r in rows], (n, n), ZZ).charpoly()
    assert _charpoly(rows) == [int(c) for c in ref]


# ---------------------------------------------------------------------------
# primes

def test_is_prime_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == list(sympy.primerange(10 ** 5))


@pytest.mark.parametrize("n", [
    -7, 0, 1, 561, 3215031751, 3825123056546413051,  # Carmichael, strong pseudoprimes
    _MR_BOUND - 2, _MR_BOUND - 1, _MR_BOUND, _MR_BOUND + 1, _MR_BOUND + 2,
    sympy.prevprime(_MR_BOUND), sympy.nextprime(_MR_BOUND),
    2 ** 89 - 1, 2 ** 89 + 1, 2 ** 127 - 1,
    sympy.nextprime(10 ** 30) * sympy.nextprime(10 ** 31),
])
def test_is_prime_against_sympy(n):
    assert _is_prime(n) == sympy.isprime(n)


def test_strong_lucas_test_against_sympy():
    """The Lucas half of the test above _MR_BOUND, on every odd n below 10^5
    with no prime factor below 100 (its domain): the strong Lucas
    pseudoprimes 5459, 5777, ... pass it as they pass sympy's."""
    for n in range(10 ** 4 + 1, 10 ** 5, 2):
        if all(n % q for q in _SMALL_PRIMES):
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 20),
                   st.tuples(st.sampled_from([101, 1009, 65537, 999983]),
                             st.integers(1, 4), st.integers(1, 10 ** 6))
                   .map(lambda t: t[0] ** t[1] * t[2])))
@example(n=1)
@example(n=1009 ** 2)
@example(n=999983 * 1000003)
@example(n=2 ** 89 - 1)
def test_prime_factors_against_factorint(n):
    assert _prime_factors(n) == set(sympy.factorint(n))
