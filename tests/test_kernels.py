import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from linscat import errors, kernels, nf_create
from linscat.exceptional import (FormSystemSpec, _prefilter_inputs, _schmidt_sign, _settle,
                                 enumerate_points)
from linscat.heights import LinearForm, ProjectivePoint
from linscat.places import INF
from linscat.twisted import TwistedHeightSpec, _parametric_sign

U = 2.0 ** -53
SQRT2 = 1.4142135623730951
# x1 - sqrt2 x0 and x0, each coefficient a (float, error bound) pair
COEFFS_P1 = (((-SQRT2, U * SQRT2), (1.0, 0.0)), ((1.0, 0.0), (0.0, 0.0)))


def _survives(pt, coeffs, exponent, log_slack):
    """The documented prefilter rule, applied to one point: with
    eps_i = 1.01 sum_j (delta_ij + (n+1) u |f_ij|), d_i = sum_j f_ij x_j and
    E_i = eps_i max|x_j| in floats, the product of the max(|d_i| - E_i, 0)
    is at most exp(x), x = exponent log m + log_slack raised by
    1e-12 (1 + |exponent log m| + |log_slack|)."""
    n = len(pt) - 1
    m = max(abs(x) for x in pt)
    prod = 1.0
    for row in coeffs:
        eps = 1.01 * sum(err + (n + 1) * U * abs(f) for f, err in row)
        g = abs(sum(f * x for (f, _), x in zip(row, pt))) - eps * m
        if g <= 0:
            return True
        prod *= g
    e = exponent * math.log(m)
    x = e + log_slack + 1e-12 * (1 + abs(e) + abs(log_slack))
    return x >= 709 or prod <= math.exp(x)


def _box_points(n, bound):
    """Canonical points of P^n(Q) with max|x_i| <= bound, by a scan of the
    whole box in lexicographic order (independent of the kernels)."""
    for pt in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        if any(pt) and next(x for x in pt if x) > 0 and math.gcd(*pt) == 1:
            yield pt


class _Thresholds(dict):
    """kernels._threshold by height, computed on first use: the per-row step
    reads only the heights of the points it checks."""

    def __init__(self, exponent, log_slack):
        super().__init__()
        self.args = exponent, log_slack

    def __missing__(self, m):
        self[m] = value = kernels._threshold(*self.args, m)
        return value


def _row_step(bound, coeffs, exponent, log_slack, lead):
    """kernels._scan on the one P^1 row of leading coordinate lead: the
    candidates among the points (lead, t), |t| <= bound, as a scan of the
    whole box at this bound would give them, with no other row walked."""
    forms = kernels._forms(1, coeffs)
    assert kernels._valid(bound, forms, exponent, log_slack)
    thresholds = _Thresholds(exponent, log_slack)
    # thr is monotone in m, so its largest value at heights lead..bound is at an end
    top = max(thresholds[lead], thresholds[bound])
    row = ((lead,), lead, lead, [(f[0] * lead, f[1], e) for f, e in forms])
    log_top = {lead: math.log(top) if top > 0 else -math.inf}
    return kernels._scan(1, [row], bound, forms, thresholds, log_top)


def test_pure_enum_invariants():
    pts = kernels.enum_p1(15)
    assert pts == sorted(pts)
    assert len(pts) == kernels.count_p1(15)
    for a, b in pts:
        assert max(abs(a), abs(b)) <= 15
        assert math.gcd(abs(a), abs(b)) == 1
        lead = a if a else b
        assert lead > 0
    pts2 = kernels.enum_p2(8)
    assert pts2 == sorted(pts2)
    assert len(pts2) == kernels.count_p2(8)


def test_counts_match_enumeration():
    for bound in range(1, 61):
        assert kernels.count_p1(bound) == len(kernels.enum_p1(bound)), bound
    for bound in range(1, 16):
        assert kernels.count_p2(bound) == len(kernels.enum_p2(bound)), bound
    for n, top in ((3, 6), (4, 3)):
        for bound in range(0, top + 1):
            pts = kernels.enum(n, bound)
            assert kernels.count(n, bound) == len(pts), (n, bound)
            assert pts == list(_box_points(n, bound)), (n, bound)


def test_bound_zero_is_empty():
    """No point of P^1 or P^2 has height 0; every kernel agrees."""
    assert kernels.enum_p1(0) == [] and kernels.count_p1(0) == 0
    assert kernels.enum_p2(0) == [] and kernels.count_p2(0) == 0
    assert kernels.prefilter_p1(0, COEFFS_P1, -0.3, 0.0) == []
    assert kernels.prefilter_p2(0, (((1.0, 0.0), (-1.0, 0.0), (0.5, 0.0)),), -0.3, 0.0) == []


def test_prefilter_superset_of_tight_threshold():
    # shrinking the slack can only shrink the candidate set
    loose = set(map(tuple, kernels.prefilter_p1(30, COEFFS_P1, -0.3, 1.0)))
    tight = set(map(tuple, kernels.prefilter_p1(30, COEFFS_P1, -0.3, 0.0)))
    assert tight <= loose
    universe = set(map(tuple, kernels.enum_p1(30)))
    assert loose <= universe


def test_prefilter_roth_sqrt2_pinned():
    got = kernels.prefilter_p1(10**4, COEFFS_P1, -0.3, 0.0)
    assert got == [(0, 1), (1, 1), (1, 2), (2, 3), (5, 7), (12, 17)]


def test_prefilter_keeps_the_sqrt2_convergent_at_275807():
    """Criterion 04's forms at eps = 6484/78125, where [195025:275807] is a
    solution with a margin of +2.0e-6: the error of the double nearest sqrt2
    moves its first form value by 1.0e-5 of itself, which its bound E
    absorbs.  These are the coefficient pairs filter_solutions hands over."""
    K = nf_create([-2, 0, 1])
    th = K.gen()
    spec = FormSystemSpec(K, [INF], {INF: [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])]},
                          w_choices={INF: 1})
    coeffs, exponent, log_slack = _prefilter_inputs(spec, Fraction(6484, 78125), 0)
    assert (195025, 275807) in kernels.prefilter(275807, coeffs, exponent, log_slack)


def test_roth_sqrt2_windows_add_no_padding():
    """Criterion 04's kernel at B = 2000, eps = 3/10: the windows of all its
    rows hold at most 2,834 integers (5,662 with one integer of padding per
    window end, which the rounding analysis of _row_windows does not need),
    and the candidates are still the 6 of the pinned list."""
    K = nf_create([-2, 0, 1])
    th = K.gen()
    spec = FormSystemSpec(K, [INF], {INF: [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])]},
                          w_choices={INF: 1})
    bound = 2000
    coeffs, exponent, log_slack = _prefilter_inputs(spec, Fraction(3, 10), 0)
    forms = kernels._forms(1, coeffs)
    _, log_top = kernels._thresholds(bound, exponent, log_slack)
    pads, n_roots, shift = kernels._window_terms(1, bound, forms)
    scanned = sum(hi - lo + 1 for _, _, m, consts in kernels._rows(1, bound, forms)
                  for lo, hi in kernels._row_windows(bound, consts, pads, n_roots,
                                                     log_top[m] + shift))
    assert scanned <= 2834
    assert kernels.prefilter(bound, coeffs, exponent, log_slack) == [
        (0, 1), (1, 1), (1, 2), (2, 3), (5, 7), (12, 17)]


_float = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                   st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
# 0.05 makes the window pads and the whole-row case of _row_windows matter
_coeff = st.tuples(_float, st.sampled_from([0.0, 1e-16, 1e-9, 0.05]))
_exponent = st.floats(-1.0, 0.5)
_log_slack = st.sampled_from([0.0, 1.0, 3.0])


# the largest bound per dimension, which keeps the box scan small
MAX_BOUND = {1: 40, 2: 7, 3: 3}


@pytest.mark.parametrize("n", sorted(MAX_BOUND), ids=lambda n: "P%d" % n)
@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.tuples(*[_coeff] * 4), min_size=1, max_size=3),
       exponent=_exponent, log_slack=_log_slack, bound=st.integers(1, 40))
# a t-independent factor 0.5 x_0 whose error bound reaches it for x_0 <= 4
# (|k| - eps bound <= 0) passes those rows whole
@example(coeffs=[((0.5, 0.05), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
                 ((1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 0.0))],
         exponent=-1.0, log_slack=0.0, bound=40)
def test_prefilter_equals_brute_force(n, coeffs, exponent, log_slack, bound):
    """The windowed prefilter returns exactly the points of the box that
    pass the documented rule; each coefficient row keeps its first n+1
    pairs."""
    coeffs = [row[:n + 1] for row in coeffs]
    bound = min(bound, MAX_BOUND[n])
    assert kernels.prefilter(bound, coeffs, exponent, log_slack) == [
        pt for pt in _box_points(n, bound) if _survives(pt, coeffs, exponent, log_slack)]


def test_prefilter_windows_absorb_rounding_at_their_ends():
    """_row_windows widens each window [t* - W, t* + W] by the pad
    eps bound / |c| and pads it by one integer per side for the float
    rounding of k + c*t and of the window ends.  Here the form a x_0 + c x_1,
    with an error bound on a, has in the row x_0 = bound its root
    t* = -a bound / c at distance eps bound / |c| from an integer N on one
    side: at N, where max|x_j| = bound, |d| - E is 0 but for rounding, so N
    passes or fails by rounding alone, and fl(t* -+ pad) rounds to either
    side of N.  The threshold exp(-60) leaves |d| <= E as the only way to
    pass."""
    rng = random.Random(20)
    bound = 12
    box = list(_box_points(1, bound))
    for _ in range(400):
        c = rng.uniform(0.5, 3.0) * rng.choice((1, -1))
        h = rng.uniform(0.2, 2.5)
        a = -c * (rng.randint(-bound + 3, bound - 3) + rng.choice((h, -h))) / bound
        delta = abs(c) * h / bound / 1.01 - 2 * U * (abs(a) + abs(c))
        coeffs = [((a, delta), (c, 0.0))]
        assert kernels.prefilter_p1(bound, coeffs, 0.0, -60.0) == [
            pt for pt in box if _survives(pt, coeffs, 0.0, -60.0)]


def test_row_windows_near_2_40():
    """Rows of P^1 at bound 2^40 - 1 whose roots t* lie in (2^39, 2^40),
    where the rounding of k + c*t is largest: every integer within three of
    a window end that lies outside the row's windows fails the per-point
    check.  The form a x_0 + c x_1 has its root at distance W from an
    integer, W the window's half-width, with the second form x_0 fixing
    W = exp(log_slack) / (x_0 |c|)."""
    rng = random.Random(40)
    bound = 2 ** 40 - 1
    for _ in range(300):
        lead = bound - rng.randint(0, 2 ** 20)
        c = rng.uniform(0.5, 2.0) * rng.choice((1, -1))
        w = rng.uniform(0.05, 3.0)
        root = rng.randint(2 ** 39, lead - 8) * rng.choice((1, -1)) + rng.choice((w, -w))
        a = -c * root / lead
        coeffs = [((a, U * abs(a)), (c, U * abs(c))), ((1.0, 0.0), (0.0, 0.0))]
        exponent, log_slack = 0.0, math.log(w * lead * abs(c))
        forms = kernels._forms(1, coeffs)
        assert kernels._valid(bound, forms, exponent, log_slack)
        thresholds = _Thresholds(exponent, log_slack)
        consts = [(f[0] * lead, f[1], e) for f, e in forms]
        pads, n_roots, shift = kernels._window_terms(1, bound, forms)
        windows = kernels._row_windows(bound, consts, pads, n_roots,
                                       math.log(thresholds[lead]) + shift)
        assert len(windows) == 1
        (lo, hi), = windows
        for t in itertools.chain(range(lo - 3, lo), range(hi + 1, hi + 4)):
            assert not kernels._passes(consts, t, lead, thresholds), (lead, t, lo, hi)


def test_prefilter_budget_refuses_before_scanning(monkeypatch):
    """A prefilter whose leading parts outnumber the budget raises before it
    walks a single row: P^3 at bound 200 has 401^3 // 2 + 1 rows."""
    def walk(*args):
        raise AssertionError("the prefilter scanned rows")
    monkeypatch.setattr(kernels, "_rows", walk)
    rows = [(1.0, -SQRT2, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0), (0.0, 0.0, 1.0, 2.0),
            (1.0, 0.0, 0.0, 0.0)]
    coeffs = [[(f, U * abs(f)) for f in row] for row in rows]
    with pytest.raises(errors.BudgetExceeded, match="32240601 rows"):
        kernels.prefilter(200, coeffs, -0.1, 0.0, budget=20_000_000)
    with pytest.raises(AssertionError, match="scanned rows"):
        kernels.prefilter(2, coeffs, -0.1, 0.0, budget=63)


@pytest.mark.parametrize("coeffs, exponent, log_slack", [
    ((((1e-250, 0.0), (1.0, 0.0)), ((1.0, 0.0), (-1.0, 0.0))), -0.3, 0.0),
    (COEFFS_P1, -0.3, math.inf),
    (COEFFS_P1, -1e300, 0.0),
    ((((1.0, math.nan), (1.0, 0.0)), ((1.0, 0.0), (0.0, 0.0))), -0.3, 0.0),
])
def test_prefilter_outside_its_analysis_keeps_every_point(coeffs, exponent, log_slack):
    """A coefficient below 1e-200, a slack or exponent past 1e300, or an
    error bound that is not a number: the rounding analysis does not cover
    the inputs, and every point is a candidate."""
    assert kernels.prefilter_p1(20, coeffs, exponent, log_slack) == kernels.enum_p1(20)


# ---------------------------------------------------------------------------
# near ties: every solution the certified sign finds is a candidate

# (minimal polynomial, alpha = a + b theta as (a, b), alpha at theta's real
# place of index 1, the larger root); the float of 985 sqrt2 - 1392 =
# 1.00036 cancels and is 1e-13 off, far more than its own rounding
_ALPHAS = {
    "sqrt2": ([-2, 0, 1], (0, 1), lambda: mpmath.sqrt(2)),
    "sqrt3": ([-3, 0, 1], (0, 1), lambda: mpmath.sqrt(3)),
    "sqrt5": ([-5, 0, 1], (0, 1), lambda: mpmath.sqrt(5)),
    "golden": ([-1, -1, 1], (0, 1), lambda: (1 + mpmath.sqrt(5)) / 2),
    "985sqrt2-1392": ([-2, 0, 1], (-1392, 985), lambda: 985 * mpmath.sqrt(2) - 1392),
}


def _near_fractions(alpha, qmin=10 ** 3, qmax=10 ** 6):
    """(p, q): the convergents p/q of alpha and its intermediate fractions
    (p_(k-1) + r p_k)/(q_(k-1) + r q_k) for r = 1, 2, a_(k+1) - 2 and
    a_(k+1) - 1, with qmin <= q <= qmax."""
    out = []
    x = alpha
    p0, q0, p1, q1 = 1, 0, int(mpmath.floor(x)), 1
    x = 1 / (x - p1)
    while q1 <= qmax:
        a = int(mpmath.floor(x))
        x = 1 / (x - a)
        for r in sorted({1, 2, a - 2, a - 1, a} & set(range(1, a + 1))):
            p, q = p0 + r * p1, q0 + r * q1
            if qmin <= q <= qmax:
                out.append((p, q))
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
    return out


with mpmath.workdps(60):
    _NEAR = [(name, p, q) for name, (_, _, alpha) in sorted(_ALPHAS.items())
             for p, q in _near_fractions(alpha())]


@functools.lru_cache(maxsize=None)
def _roth_spec(name):
    """The forms x0 - alpha x1 and x1 at theta's real place of index 1, so
    that the point [p:q] has leading coordinate p = max(p, q) (alpha > 1)
    and the product |p - alpha q| q."""
    min_poly, (a, b), _ = _ALPHAS[name]
    K = nf_create(min_poly)
    forms = [LinearForm(K, [1, K.element([-a, -b])]), LinearForm(K, [0, 1])]
    return FormSystemSpec(K, [INF], {INF: forms}, w_choices={INF: 1})


def _exact(v):
    """The binary rational value of an mpf (whose man is unsigned)."""
    return Fraction(int(mpmath.sign(v)) * int(v.man)) * Fraction(2) ** int(v.exp)


def _parametric_case(name, p, q, target, big):
    """(spec, slack, margin): the parametric system of _roth_spec's forms
    with weights (c, -c), eps_Q = 1/3 and Q, and the slack solved at 60
    digits for a margin slack - (log H_Q + eps_Q log Q) of about target at
    [p:q], with that margin at 60 digits from the slack's exact value.  With
    big, c = 10^9 and Q = 1 + 7/10^9: float(c) (log qn - log qd) then
    carries an error near 10^9 u (log qn + log qd), which only that term of
    the magnitude covers; else c = 1/2 and Q = 7/2."""
    base = _roth_spec(name)
    K, forms = base.field, base.forms[INF]
    c, Q = (Fraction(10 ** 9), Fraction(10 ** 9 + 7, 10 ** 9)) if big else (
        Fraction(1, 2), Fraction(7, 2))
    spec = TwistedHeightSpec(K, [INF], {INF: forms}, {INF: [c, -c]}, Fraction(1, 3), Q,
                             w_choices={INF: 1})
    with mpmath.workdps(60):
        log_q = mpmath.log(_mp(Q))
        log_hq = max(mpmath.log(abs(p - _ALPHAS[name][2]() * q)) - _mp(c) * log_q,
                     mpmath.log(q) + _mp(c) * log_q)
        rest = log_hq + log_q / 3
        slack = _exact(target + rest)
        return spec, slack, _mp(slack) - rest


def _mp(v):
    return mpmath.mpf(v.numerator) / v.denominator


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_NEAR), j=st.integers(3, 12), k=st.integers(1, 9),
       sign=st.sampled_from([1, -1]), big=st.booleans())
@example(case=("sqrt2", 275807, 195025), j=6, k=2, sign=1, big=False)
@example(case=("985sqrt2-1392", 5575, 5573), j=9, k=1, sign=1, big=False)
@example(case=("sqrt2", 1970, 1393), j=12, k=1, sign=1, big=True)
@example(case=("golden", 6765, 4181), j=10, k=1, sign=1, big=True)
@example(case=("sqrt2", 3363, 2378), j=9, k=1, sign=1, big=True)
def test_prefilter_keeps_every_near_tie_solution(case, j, k, sign, big):
    """At a convergent or intermediate fraction p/q of alpha (sqrt2, sqrt3,
    sqrt5, the golden ratio or 985 sqrt2 - 1392), 10^3 <= q <= 10^6, eps is
    solved for a schmidt margin -eps log p - log(|p - alpha q| q) + slack
    of sign k 10^-j.  With big, eps
    is 10^9 and the slack is solved instead: the threshold's own rounding,
    about 10^-6 of it, then exceeds the form values' error bounds at small
    q, and only its _CHECK slack keeps the solutions.  Every point the
    certified sign calls a solution is a candidate of its own row.

    The certified signs of that schmidt margin and of a parametric margin
    of the same size (_parametric_case) are 0 or the sign of the margin at
    60 digits.  With big, the float sums carry errors near 10^-6 and 10^-9,
    far above _CHECK, and only the magnitude terms of _CHECK's bound keep
    the pre-check from taking the sign of that rounding."""
    name, p, q = case
    spec = _roth_spec(name)
    with mpmath.workdps(60):
        target = sign * k * mpmath.mpf(10) ** -j
        log_prod = mpmath.log(abs(p - _ALPHAS[name][2]() * q) * q)
        if big:
            eps = Fraction(10 ** 9)
            slack = _exact(target + eps * mpmath.log(p) + log_prod)
        else:
            eps, slack = _exact((-log_prod - target) / mpmath.log(p)), Fraction(0)
        margin = -_mp(eps) * mpmath.log(p) - log_prod + _mp(slack)
    x = ProjectivePoint([p, q])
    schmidt = _schmidt_sign(spec, eps, slack, x)
    assert schmidt in (0, int(mpmath.sign(margin)))
    tspec, pslack, pmargin = _parametric_case(name, p, q, target, big)
    assert _parametric_sign(tspec, pslack, x) in (0, int(mpmath.sign(pmargin)))
    if schmidt < 0:
        return
    coeffs, exponent, log_slack = _prefilter_inputs(spec, eps, slack)
    assert (p, q) in _row_step(p, coeffs, exponent, log_slack, p)


# ---------------------------------------------------------------------------
# random real quadratic and cubic systems against the full enumeration

# (minimal polynomial, number of real places)
_REAL_FIELDS = [([-2, 0, 1], 2), ([-3, 0, 1], 2), ([-1, -1, 1], 2),
                ([-2, 0, 0, 1], 1), ([1, -3, 0, 1], 3)]
_BOUNDS = {1: 12, 2: 4}


@st.composite
def _real_systems(draw):
    """(spec, eps, slack): n+1 forms with coefficients a + b theta (+ c theta^2),
    a, b, c in [-3, 3], at a real place of a real quadratic or cubic field."""
    min_poly, n_real = draw(st.sampled_from(_REAL_FIELDS))
    K = nf_create(min_poly)
    n = draw(st.sampled_from([1, 2]))
    coeff = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree)
    rows = [[draw(coeff) for _ in range(n + 1)] for _ in range(n + 1)]
    eps = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 8)))
    slack = Fraction(draw(st.integers(-7, 7)), 7)
    try:
        forms = [LinearForm(K, [K.element(c) for c in row]) for row in rows]
        spec = FormSystemSpec(K, [INF], {INF: forms},
                              w_choices={INF: draw(st.integers(0, n_real - 1))})
    except errors.BadParameter:
        assume(False)
    return spec, eps, slack


@settings(max_examples=60, deadline=None)
@given(system=_real_systems())
def test_prefilter_contains_every_settled_solution(system):
    """The prefilter's candidates contain every solution, tie and point of
    the support that _settle finds over enumerate_points."""
    spec, eps, slack = system
    bound = _BOUNDS[spec.n]
    cands = set(kernels.prefilter(bound, *_prefilter_inputs(spec, eps, slack)))
    sols, indet, supp = _settle(enumerate_points(spec.n, bound),
                                functools.partial(_schmidt_sign, spec, eps, slack))
    assert {x.coords for x in sols + indet + supp} <= cands
