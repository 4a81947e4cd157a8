import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import linscat
from linscat import errors, heights, nf_create
from linscat.exceptional import filter_solutions, q_sweep
from linscat.fieldarith import RATIONALS
from linscat.heights import LinearForm, ProjectivePoint, log_height, weil_hyperplane
from linscat.places import INF, log_abs, places_above
from linscat.twisted import (
    FormSystemSpec,
    TwistedHeightSpec,
    _parametric_sign,
    log_twisted_height,
    log_twisted_report,
)


def coord_forms(field, n):
    out = []
    for i in range(n + 1):
        coeffs = [0] * (n + 1)
        coeffs[i] = 1
        out.append(LinearForm(field, coeffs))
    return out


def test_twisted_examples():
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [1, -1]}, epsilon="1/10", Q=2)
    x = ProjectivePoint([3, 4])
    assert abs(math.exp(log_twisted_height(spec, x)) - 8) < 1e-12
    assert abs(math.exp(log_twisted_height(spec.with_Q(1), x)) - 4) < 1e-12
    zero = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [0, 0]}, epsilon="1/10", Q=97)
    assert abs(math.exp(log_twisted_height(zero, x)) - 4) < 1e-12


def test_spec_validation():
    forms = coord_forms(RATIONALS, 1)
    with pytest.raises(errors.BadParameter):
        TwistedHeightSpec(RATIONALS, [INF], {INF: forms}, {INF: [1, 1]}, 1)
    dep = [LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [2, 0])]
    with pytest.raises(errors.BadParameter):
        TwistedHeightSpec(RATIONALS, [INF], {INF: dep}, {INF: [1, -1]}, 1)
    with pytest.raises(errors.BadParameter):
        TwistedHeightSpec(RATIONALS, [INF], {INF: forms}, {INF: [1, -1]}, 1, Q="1/2")
    with pytest.raises(errors.BadParameter):
        TwistedHeightSpec(RATIONALS, [INF, INF], {INF: forms}, {INF: [1, -1]}, 1)


def test_report_example():
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [1, -1]}, epsilon="1/10", Q=2)
    rep = log_twisted_report(spec, ProjectivePoint([3, 4]))
    assert abs(rep["lhs"] + math.log(2)) < 1e-12
    assert rep["identity_residual"] < 1e-12
    assert not rep["verdict"]
    rep1 = log_twisted_report(spec.with_Q(1), ProjectivePoint([3, 4]))
    assert abs(rep1["rhs"] - rep1["h"]) < 1e-15


def test_trivial_point_report():
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [0, 0]}, epsilon="1/10", Q=3)
    rep = log_twisted_report(spec, ProjectivePoint([1, 1]))
    assert rep["lhs"] == 0.0
    assert not rep["verdict"]  # rhs = eps log Q > 0


def _random_spec(rng, field, n):
    th = field.gen()
    while True:
        forms = []
        for _ in range(n + 1):
            coeffs = []
            for _j in range(n + 1):
                if field.degree > 1 and rng.random() < 0.5:
                    coeffs.append(field.element(
                        [Fraction(rng.randint(-4, 4)) for _ in range(field.degree)]))
                else:
                    coeffs.append(field.from_rational(rng.randint(-4, 4)))
            if not any(coeffs):
                coeffs[0] = field.one()
            forms.append(LinearForm(field, coeffs))
        S = [INF] + rng.sample([2, 3, 5, 7], rng.randint(0, 2))
        fdict, wdict = {}, {}
        for v in S:
            if v == INF:
                fdict[v] = forms
            else:
                fdict[v] = coord_forms(field, n) if rng.random() < 0.5 else forms
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            row.append(-sum(row))
            wdict[v] = row
        try:
            return TwistedHeightSpec(
                field, S, fdict, wdict,
                epsilon=Fraction(rng.randint(1, 5), 10),
                Q=rng.choice([1, 2, 10, 1000]),
                w_choices={INF: field.degree - 1 if field.degree == 2 else 0})
        except errors.BadParameter:
            continue


def test_identity_random_specs():
    """-log H_Q = sum_v min_i(lambda + c_vi log Q) - h, across random specs
    over Q and Q(sqrt 2)."""
    rng = random.Random(101)
    K = nf_create([-2, 0, 1])
    for _ in range(30):
        field = rng.choice([RATIONALS, K])
        n = rng.choice([1, 2])
        spec = _random_spec(rng, field, n)
        for _p in range(5):
            coords = [rng.randint(-500, 500) for _ in range(n + 1)]
            if not any(coords):
                coords[0] = 1
            x = ProjectivePoint(coords)
            try:
                rep = log_twisted_report(spec, x)
            except errors.OnSupport:
                continue
            assert rep["identity_residual"] < 1e-9


def test_q_sweep():
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [1, -1]}, epsilon="1/10", Q=1)
    pts = [ProjectivePoint([3, 4]), ProjectivePoint([1, 0]), ProjectivePoint([1, 1])]
    rows = q_sweep(spec, [1, 2, 10], pts)
    assert [str(r["Q"]) for r in rows] == ["1", "2", "10"]
    for r in rows:
        assert r["solutions"] == sorted(r["solutions"])
    assert q_sweep(spec, [1], [])[0]["solutions"] == []
    with pytest.raises(errors.BadParameter):
        q_sweep(spec, [2, 1], pts)
    with pytest.raises(errors.BadParameter):
        q_sweep(spec, [], pts)


def test_all_forms_vanish_unreachable_for_independent():
    # with n+1 independent forms some form is nonzero at every point;
    # log_twisted_height must not raise
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: [LinearForm(RATIONALS, [1, -1]),
                                 LinearForm(RATIONALS, [1, 1])]},
        {INF: [Fraction(1, 2), Fraction(-1, 2)]}, epsilon="1/10", Q=2)
    for coords in [(1, 1), (1, -1), (3, 4)]:
        math.exp(log_twisted_height(spec, ProjectivePoint(coords)))


def test_high_precision_leaves_mpmath_dps_alone():
    K = nf_create([-2, 0, 1])
    spec = TwistedHeightSpec(
        K, [INF], {INF: coord_forms(K, 1)}, {INF: [1, -1]}, epsilon="1/10", Q=3)
    x = ProjectivePoint([3, 4])
    before = mpmath.mp.dps
    lg = log_twisted_height(spec, x, precision=60)
    rep = log_twisted_report(spec, x, precision=60)
    math.exp(log_twisted_height(spec, x, precision=60))
    q_sweep(spec, [1, 3], [x])
    assert mpmath.mp.dps == before
    # the terms are log|3| - log 3 and log|4| + log 3, so log H_Q = log 12,
    # still computed to the requested 60 digits
    with mpmath.workdps(80):
        assert abs(lg - mpmath.log(12)) < mpmath.mpf(10) ** -55
        assert abs(rep["neg_log_HQ"] + mpmath.log(12)) < mpmath.mpf(10) ** -55


def test_evaluations_keep_a_higher_caller_precision():
    """Inside workdps(80), evaluations at precision 40 run at 80 digits:
    none lowers the caller's working precision, and each restores it."""
    K = nf_create([-2, 0, 1])
    x = ProjectivePoint([3, 7])
    spec = TwistedHeightSpec(K, [INF, 7], {INF: coord_forms(K, 1), 7: coord_forms(K, 1)},
                             {INF: [1, -1], 7: [1, -1]}, epsilon="1/10", Q=3)
    w_inf, w_7 = places_above(K, INF)[0], places_above(K, 7)[0]
    before = mpmath.mp.dps
    with mpmath.workdps(80):
        log7 = mpmath.log(7)
        assert log_height(x, 40) == log7
        assert log_twisted_report(spec, x, 40)["h"] == log7
        assert log_abs(w_inf, Fraction(-22, 7), 40) == mpmath.log(mpmath.mpf(22) / 7)
        assert log_abs(w_7, 49, 40) == -2 * log7
        assert mpmath.mp.dps == 80
    assert mpmath.mp.dps == before


def test_spec_missing_place_forms_is_bad_parameter():
    forms = coord_forms(RATIONALS, 1)
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(RATIONALS, [INF, 2], {INF: forms})
    with pytest.raises(errors.BadParameter):
        TwistedHeightSpec(RATIONALS, [INF, 2], {INF: forms},
                          {INF: [1, -1], 2: [1, -1]}, 1)


def test_bad_w_choices_fail_when_the_spec_is_built():
    """Places are resolved at construction: an index no place above v has
    is refused there, not at the first evaluation."""
    K = nf_create([-2, 0, 1])
    forms = coord_forms(K, 1)
    for w_choices in ({INF: 2}, {7: 2}, {3: 1}):
        with pytest.raises(errors.BadParameter, match="no place with index"):
            FormSystemSpec(K, [INF, 7, 3], {v: forms for v in (INF, 7, 3)},
                           w_choices=w_choices)
        with pytest.raises(errors.BadParameter, match="no place with index"):
            TwistedHeightSpec(K, [INF, 7, 3], {v: forms for v in (INF, 7, 3)},
                              {v: [1, -1] for v in (INF, 7, 3)}, 1, w_choices=w_choices)


def test_place_spellings_normalized():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    form = LinearForm(K, [-th, 1])
    x = ProjectivePoint([5, 7])
    # places_above and weil_hyperplane read "infinity" as INF
    assert places_above(K, "infinity") == places_above(K, INF)
    assert weil_hyperplane(form, x, "infinity") == weil_hyperplane(form, x, INF)
    # w_choices keyed "oo" picks embedding 1, not the default 0
    fs = [form, LinearForm(K, [1, 0])]
    spec = FormSystemSpec(K, ["oo"], {INF: fs}, w_choices={"oo": 1})
    assert spec.w_choices == {INF: 1}
    assert spec.places()[INF].w_index == 1
    # forms and weights keyed "oo" or "infinity" are found under INF
    qfs = coord_forms(RATIONALS, 1)
    assert FormSystemSpec(RATIONALS, ["oo"], {"oo": qfs}).forms[INF] == tuple(qfs)
    tspec = TwistedHeightSpec(RATIONALS, ["oo"], {"infinity": qfs}, {"oo": [1, -1]}, 1)
    assert tspec.weights == {INF: (1, -1)}
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(RATIONALS, ["x"], {"x": qfs})


def _ord(q, p):
    q = Fraction(q)
    k, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, k = num // p, k + 1
    while den % p == 0:
        den, k = den // p, k - 1
    return k


def _sqrt2_mod(p, r, digits):
    """The root of x^2 = 2 in Z_p that is r mod p, to p^digits (Newton)."""
    mod = p ** digits
    for _ in range(digits.bit_length() + 1):
        r = (r - (r * r - 2) * pow(2 * r, -1, mod)) % mod
    return r, mod


def _ref_log_abs(v, sign_or_root, a, b):
    """log|a + b sqrt2|_{v,K} at 60 digits, from the two rational coordinates.

    At infinity sign_or_root is the sign of the embedded sqrt2; at 3 (inert)
    the value is |N(alpha)|_3^(1/2); at 7 (split) it is the residue mod 7 of
    the 7-adic sqrt2 that defines the place.
    """
    if v == INF:
        s2 = sign_or_root * mpmath.sqrt(2)
        return mpmath.log(abs(mpmath.mpf(a.numerator) / a.denominator
                              + mpmath.mpf(b.numerator) / b.denominator * s2))
    if v == 3:
        return -mpmath.mpf(_ord(a * a - 2 * b * b, 3)) / 2 * mpmath.log(3)
    r, mod = _sqrt2_mod(7, sign_or_root, 40)
    den = a.denominator * b.denominator
    assert den % 7
    val = (int(a * den) + int(b * den) * r) % mod
    return -_ord(val, 7) * mpmath.log(7)


def test_high_precision_weil_values_match_reference():
    """At precision 50, weil_hyperplane and log_twisted_report agree to
    1e-45 with an independent 60-digit reference over Q(sqrt2), at both real
    embeddings, the split prime 7 and the inert prime 3."""
    K = nf_create([-2, 0, 1])
    th = K.gen()
    coeffs = [(Fraction(1), Fraction(0), Fraction(0), Fraction(1)),     # x0 + sqrt2 x1
              (Fraction(1, 3), Fraction(0), Fraction(-2), Fraction(1))]  # x0/3 + (sqrt2 - 2) x1
    forms = [LinearForm(K, [a0 + b0 * th, a1 + b1 * th]) for a0, b0, a1, b1 in coeffs]
    S = [INF, 3, 7]
    weights = {INF: [Fraction(1, 2), Fraction(-1, 2)], 3: [Fraction(-2, 3), Fraction(2, 3)],
               7: [Fraction(1, 5), Fraction(-1, 5)]}
    eps, Q = Fraction(1, 7), Fraction(5, 2)
    tol = mpmath.mpf(10) ** -45
    points = [ProjectivePoint(c) for c in ([3, 1], [4, -1], [1, 3], [5, 2], [17, 12], [10, 7])]
    for w_inf, w_7 in ((0, 0), (1, 1)):
        residue7 = next(-w.local_factor[0] % 7 for w in places_above(K, 7)
                        if w.w_index == w_7)
        ref_place = {INF: (-1, 1)[w_inf], 3: None, 7: residue7}
        tspec = TwistedHeightSpec(K, S, {v: forms for v in S}, weights, eps, Q,
                                  w_choices={INF: w_inf, 7: w_7})
        for x in points:
            # both run at mpmath's default 15 digits outside the reference
            got = {v: [weil_hyperplane(f, x, v, w_index=tspec.w_choices.get(v, 0),
                                       precision=50) for f in forms] for v in S}
            rep = log_twisted_report(tspec, x, precision=50)
            with mpmath.workdps(60):
                h = mpmath.log(max(abs(c) for c in x.coords))
                logQ = mpmath.log(mpmath.mpf(5) / 2)
                lhs = neg_log_hq = mpmath.mpf(0)
                for v in S:
                    lam = []
                    for i, (a0, b0, a1, b1) in enumerate(coeffs):
                        la = _ref_log_abs(v, ref_place[v], a0 * x[0] + a1 * x[1],
                                          b0 * x[0] + b1 * x[1])
                        lam.append((h if v == INF else 0) - la)
                        assert abs(got[v][i] - lam[i]) < tol, (v, i, x)
                    cs = [mpmath.mpf(c.numerator) / c.denominator for c in weights[v]]
                    per = min(l + c * logQ for l, c in zip(lam, cs))
                    assert abs(rep["per_place"][v] - per) < tol, (v, x)
                    lhs += per
                    neg_log_hq -= max((h if v == INF else 0) - l - c * logQ
                                      for l, c in zip(lam, cs))
                rhs = h + mpmath.mpf(1) / 7 * logQ
                assert abs(rep["h"] - h) < tol
                assert abs(rep["lhs"] - lhs) < tol
                assert abs(rep["rhs"] - rhs) < tol
                assert abs(rep["neg_log_HQ"] - neg_log_hq) < tol


def test_w_choices_list_and_dict_resolve_the_same_places():
    K = nf_create([-2, 0, 1])
    forms = {INF: coord_forms(K, 1), 7: coord_forms(K, 1)}
    by_list = FormSystemSpec(K, [INF, 7], forms, w_choices=[1, 1])
    by_dict = FormSystemSpec(K, ["oo", "7"], forms, w_choices={"inf": 1, 7: 1})
    assert by_list.w_choices == by_dict.w_choices == {INF: 1, 7: 1}
    assert by_list.places() == by_dict.places()
    assert [w.w_index for w in by_list.places().values()] == [1, 1]
    assert by_list.digest_data() == by_dict.digest_data()
    short = FormSystemSpec(K, [INF, 7], forms, w_choices=[1])
    assert short.places()[INF] is by_list.places()[INF]
    assert short.places()[7].w_index == 0


def test_report_verdict_is_the_parametric_filters_at_a_near_tie():
    """S = {inf}, the coordinate forms, weights (1, -1), eps = 1/10 and
    Q = 1 + 10^-8: at [1:1] the margin lhs - rhs is -1.1 log Q, about
    -1.1e-8.  The report takes the parametric filter's certified sign, so it
    says False at 17 and at 40 digits, as the filter rejects the point."""
    spec = TwistedHeightSpec(RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
                             {INF: [1, -1]}, epsilon=Fraction(1, 10),
                             Q=1 + Fraction(1, 10 ** 8))
    x = ProjectivePoint([1, 1])
    ss = filter_solutions("parametric", spec, points=[x])
    assert not ss.points and not ss.indeterminate and not ss.support
    for precision in (17, 40):
        rep = log_twisted_report(spec, x, precision)
        assert abs(float(rep["lhs"] - rep["rhs"]) + 1.1e-8) < 1e-15
        assert rep["verdict"] is False, precision


_FIELDS = [nf_create([0, 1]), nf_create([-2, 0, 1]), nf_create([1, 0, 1])]
_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _report_cases(draw):
    """(spec, point): a twisted system with small integer coefficients over
    Q, Q(sqrt2) or Q(i), S inside {inf, 2, 3, 5} at a random place above
    each v, and Q = 1 (where exact ties lie) or above."""
    K = draw(st.sampled_from(_FIELDS))
    n = draw(st.sampled_from([1, 2]))
    S = draw(st.lists(st.sampled_from([INF, 2, 3, 5]), min_size=1, max_size=3,
                      unique=True))
    w_choices = {v: draw(st.integers(0, len(places_above(K, v)) - 1)) for v in S}
    coeff = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree)
    rows, weights = {}, {}
    for v in S:
        # a drawn form, or the coordinate form x_i
        rows[v] = [[draw(coeff) for _ in range(n + 1)] if draw(st.booleans())
                   else [[int(j == i)] + [0] * (K.degree - 1) for j in range(n + 1)]
                   for i in range(n + 1)]
        w = draw(st.lists(_RATIONAL, min_size=n, max_size=n))
        weights[v] = w + [-sum(w)]
    Q = 1 + draw(st.builds(Fraction, st.integers(0, 20), st.integers(1, 4)))
    eps = draw(_RATIONAL)
    coords = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).filter(any))
    try:
        forms = {v: [LinearForm(K, [K.element(c) for c in row]) for row in rows[v]]
                 for v in S}
        spec = TwistedHeightSpec(K, S, forms, weights, epsilon=eps, Q=Q,
                                 w_choices=w_choices)
    except errors.BadParameter:
        assume(False)
    return spec, ProjectivePoint(coords)


@settings(max_examples=120, deadline=None)
@given(case=_report_cases())
@example(case=(TwistedHeightSpec(RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
                                 {INF: [1, -1]}, Fraction(1, 10), Q=1 + Fraction(1, 10 ** 8)),
               ProjectivePoint([1, 1])))
# lhs = rhs exactly: the report's None is the filter's indeterminate
@example(case=(TwistedHeightSpec(RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
                                 {INF: [1, -1]}, Fraction(1, 10), Q=1),
               ProjectivePoint([1, 1])))
def test_report_verdict_equals_the_parametric_bucket(case):
    """At 17 and 40 digits the report's verdict is the point's bucket in the
    parametric filter: True for a solution, None for an indeterminate point,
    False otherwise.  A point where some form vanishes has no report."""
    spec, x = case
    ss = filter_solutions("parametric", spec, points=[x])
    want = True if ss.points else None if ss.indeterminate else False
    for precision in (17, 40):
        try:
            rep = log_twisted_report(spec, x, precision)
        except errors.OnSupport:
            return
        assert rep["verdict"] is want, (precision, rep)


def test_parametric_sign_past_an_undecided_max(monkeypatch):
    """Two forms of one place with equal values at x, 2theta + theta^2 at
    the real place of x^3 - 2: their difference is 0, which no enclosure
    decides.  Either is the max, so the sign of 1/7 - log H_Q, about -1.27,
    is -1 with the float pre-check switched off, not indeterminate."""
    K = nf_create([-2, 0, 0, 1])
    th = K.gen()
    forms = {INF: [LinearForm(K, [0, 2 * th + th ** 2]),
                   LinearForm(K, [th ** 2, 2 * th + th ** 2])]}
    spec = TwistedHeightSpec(K, [INF], forms, {INF: [0, 0]}, epsilon=0)
    x = ProjectivePoint([0, 1])
    monkeypatch.setattr(heights, "_CHECK", math.inf)
    assert _parametric_sign(spec, Fraction(1, 7), x) == -1
    with mpmath.workdps(30):
        assert mpmath.mpf(1) / 7 - log_twisted_height(spec, x, 30) < -1


def test_twisted_loads_no_filter_module():
    """The report's verdict comes from twisted's own _parametric_sign and
    heights' signs: a fresh interpreter that imports linscat.twisted and
    runs a report loads no linscat.exceptional.  The package __init__, which
    imports every module, is bypassed by a bare package module."""
    code = textwrap.dedent("""
        import importlib, sys, types
        pkg = types.ModuleType("linscat")
        pkg.__path__ = [%r]
        sys.modules["linscat"] = pkg
        twisted = importlib.import_module("linscat.twisted")
        heights = importlib.import_module("linscat.heights")
        K = importlib.import_module("linscat.fieldarith").nf_create([-2, 0, 1])
        forms = [heights.LinearForm(K, [1, 0]), heights.LinearForm(K, [K.gen(), 1])]
        spec = twisted.TwistedHeightSpec(K, ["inf", 7], {"inf": forms, 7: forms},
                                         {"inf": [1, -1], 7: [0, 0]}, 0, Q=3)
        rep = twisted.log_twisted_report(spec, heights.ProjectivePoint([5, 3]))
        print(rep["verdict"], "linscat.exceptional" in sys.modules)
    """) % os.path.dirname(linscat.__file__)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out[1] == "False", out
    assert out[0] in ("True", "False", "None")
