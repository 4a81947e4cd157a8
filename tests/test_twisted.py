import math
import random
from fractions import Fraction

import mpmath
import pytest

from linscat import errors, nf_create
from linscat.fieldarith import RATIONALS
from linscat.heights import LinearForm, ProjectivePoint
from linscat.places import INF
from linscat.twisted import (
    TwistedHeightSpec,
    log_twisted_height,
    log_twisted_report,
    q_sweep,
    twisted_height,
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
    assert abs(twisted_height(spec, x) - 8) < 1e-12
    assert abs(twisted_height(spec.with_Q(1), x) - 4) < 1e-12
    zero = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(RATIONALS, 1)},
        {INF: [0, 0]}, epsilon="1/10", Q=97)
    assert abs(twisted_height(zero, x) - 4) < 1e-12


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
    # twisted_height must not raise
    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: [LinearForm(RATIONALS, [1, -1]),
                                 LinearForm(RATIONALS, [1, 1])]},
        {INF: [Fraction(1, 2), Fraction(-1, 2)]}, epsilon="1/10", Q=2)
    for coords in [(1, 1), (1, -1), (3, 4)]:
        twisted_height(spec, ProjectivePoint(coords))


def test_high_precision_leaves_mpmath_dps_alone():
    K = nf_create([-2, 0, 1])
    spec = TwistedHeightSpec(
        K, [INF], {INF: coord_forms(K, 1)}, {INF: [1, -1]}, epsilon="1/10", Q=3)
    x = ProjectivePoint([3, 4])
    before = mpmath.mp.dps
    lg = log_twisted_height(spec, x, precision=60)
    rep = log_twisted_report(spec, x, precision=60)
    twisted_height(spec, x, precision=60)
    q_sweep(spec, [1, 3], [x], precision=60)
    assert mpmath.mp.dps == before
    # the terms are log|3| - log 3 and log|4| + log 3, so log H_Q = log 12,
    # still computed to the requested 60 digits
    with mpmath.workdps(80):
        assert abs(lg - mpmath.log(12)) < mpmath.mpf(10) ** -55
        assert abs(rep["neg_log_HQ"] + mpmath.log(12)) < mpmath.mpf(10) ** -55
