import math

from hypothesis import example, given, settings, strategies as st

from linscat import kernels

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


def _brute(enum, bound, coeffs, exponent, log_slack, **kw):
    return [pt for pt in enum(bound)
            if _survives(pt, coeffs, exponent, log_slack, bound, **kw)]


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_coeff, _coeff), min_size=1, max_size=3),
       _exponent, _log_slack, st.integers(1, 40), _tiny)
# a t-independent factor 0.5 a below tiny * bound = 2 passes whole rows
@example([(0.5, 0.0), (1.0, -1.0)], -1.0, 0.0, 40, 0.05)
def test_prefilter_p1_equals_brute_force(coeffs, exponent, log_slack, bound, tiny):
    assert kernels.prefilter_p1(bound, coeffs, exponent, log_slack, tiny=tiny) \
        == _brute(kernels.enum_p1, bound, coeffs, exponent, log_slack, tiny=tiny)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coeff, _coeff, _coeff), min_size=1, max_size=3),
       _exponent, _log_slack, st.integers(1, 7), _tiny)
def test_prefilter_p2_equals_brute_force(coeffs, exponent, log_slack, bound, tiny):
    assert kernels.prefilter_p2(bound, coeffs, exponent, log_slack, tiny=tiny) \
        == _brute(kernels.enum_p2, bound, coeffs, exponent, log_slack, tiny=tiny)
