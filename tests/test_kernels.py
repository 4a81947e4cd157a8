import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from linscat import errors, kernels

COEFFS_P1 = ((-1.4142135623730951, 1.0), (1.0, 0.0))


def _survives(pt, coeffs, exponent, log_slack, bound, margin=1e-6, tiny=1e-12):
    """The documented prefilter rule, applied to one point: some form value
    is below tiny * bound in absolute value, or the product of the |form
    values| is at most max|x_i|^exponent * exp(log_slack + margin)."""
    values = [sum(c * x for c, x in zip(row, pt)) for row in coeffs]
    if any(abs(d) < tiny * bound for d in values):
        return True
    prod = 1.0
    for d in values:
        prod *= abs(d)
    m = max(abs(x) for x in pt)
    return prod <= math.exp(exponent * math.log(m) + log_slack + margin)


def _box_points(n, bound):
    """Canonical points of P^n(Q) with max|x_i| <= bound, by a scan of the
    whole box in lexicographic order (independent of the kernels)."""
    for pt in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        if any(pt) and next(x for x in pt if x) > 0 and math.gcd(*pt) == 1:
            yield pt


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
    assert kernels.prefilter_p2(0, ((1.0, -1.0, 0.5),), -0.3, 0.0) == []


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


_coeff = st.one_of(
    st.just(0.0),
    st.integers(-3, 3).map(float),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
_exponent = st.floats(-1.0, 0.5)
_log_slack = st.sampled_from([0.0, 1.0, 3.0])
# tiny=0 switches the windows off (full scan of every row); a large tiny
# makes the tiny-value windows and the tiny constant factors matter
_tiny = st.sampled_from([1e-12, 1e-12, 0.05, 0.0])


# the largest bound per dimension, which keeps the box scan small
MAX_BOUND = {1: 40, 2: 7, 3: 3}


@pytest.mark.parametrize("n", sorted(MAX_BOUND), ids=lambda n: "P%d" % n)
@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.tuples(*[_coeff] * 4), min_size=1, max_size=3),
       exponent=_exponent, log_slack=_log_slack, bound=st.integers(1, 40), tiny=_tiny)
# a t-independent factor 0.5 a below tiny * bound = 2 passes whole rows
@example(coeffs=[(0.5, 0.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0)], exponent=-1.0,
         log_slack=0.0, bound=40, tiny=0.05)
def test_prefilter_equals_brute_force(n, coeffs, exponent, log_slack, bound, tiny):
    """The windowed prefilter returns exactly the points of the box that
    pass the documented rule; each coefficient row keeps its first n+1
    entries."""
    coeffs = [row[:n + 1] for row in coeffs]
    bound = min(bound, MAX_BOUND[n])
    assert kernels.prefilter(bound, coeffs, exponent, log_slack, tiny=tiny) == [
        pt for pt in _box_points(n, bound)
        if _survives(pt, coeffs, exponent, log_slack, bound, tiny=tiny)]


def test_prefilter_windows_absorb_rounding_at_their_ends():
    """_row_windows pads each window [t* - h, t* + h] by one integer per
    side for the float rounding of k + c*t and of the window ends.  Here
    the form a x_0 + c x_1 has, in the row x_0 = 1, its root t* = -a/c at
    distance h = tiny * bound / c from an integer N on one side, so N
    passes the tiny-value test |d| < tiny * bound or fails it by rounding
    alone, and fl(t* -+ h) rounds to either side of N.  The threshold
    exp(-60) leaves the tiny-value test as the only way to pass."""
    rng = random.Random(20)
    bound = 12
    box = list(_box_points(1, bound))
    for _ in range(400):
        c = rng.uniform(0.5, 3.0) * rng.choice((1, -1))
        h = rng.uniform(0.2, 2.5)
        tiny = abs(c) * h / bound
        a = -c * (rng.randint(-bound + 3, bound - 3) + rng.choice((h, -h)))
        coeffs = [(a, c)]
        assert kernels.prefilter_p1(bound, coeffs, 0.0, -60.0, tiny=tiny) == [
            pt for pt in box if _survives(pt, coeffs, 0.0, -60.0, bound, tiny=tiny)]


def test_prefilter_budget_refuses_before_scanning(monkeypatch):
    """A prefilter whose leading parts outnumber the budget raises before it
    walks a single row: P^3 at bound 200 has 401^3 // 2 + 1 rows."""
    def walk(*args):
        raise AssertionError("the prefilter scanned rows")
    monkeypatch.setattr(kernels, "_rows", walk)
    coeffs = [(1.0, -1.4142135623730951, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0),
              (0.0, 0.0, 1.0, 2.0), (1.0, 0.0, 0.0, 0.0)]
    with pytest.raises(errors.BudgetExceeded, match="32240601 rows"):
        kernels.prefilter(200, coeffs, -0.1, 0.0, budget=20_000_000)
    with pytest.raises(AssertionError, match="scanned rows"):
        kernels.prefilter(2, coeffs, -0.1, 0.0, budget=63)
