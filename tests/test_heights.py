import math
import random
from fractions import Fraction

import mpmath
import pytest

from linscat import errors, nf_create
from linscat.fieldarith import RATIONALS
from linscat.heights import (
    LinearForm,
    ProjectivePoint,
    height_weil_defect,
    log_height,
    mult_height,
    proximity,
    weil_hyperplane,
)
from linscat.places import (INF, _row_exponent, log_abs, nonarch_exponent, places_above,
                            working_dps)
from linscat.twisted import FormSystemSpec, TwistedHeightSpec, log_twisted_report


def test_point_canonicalization():
    assert ProjectivePoint([2, 4]).coords == (1, 2)
    assert ProjectivePoint([-3, 6]).coords == (1, -2)
    assert ProjectivePoint([0, -5]).coords == (0, 1)
    assert ProjectivePoint([Fraction(1, 3), 1]).coords == (1, 3)
    assert ProjectivePoint([0, 0, 7]).coords == (0, 0, 1)
    with pytest.raises(errors.BadParameter):
        ProjectivePoint([0, 0])


def test_scale_invariance_random():
    rng = random.Random(13)
    for _ in range(200):
        coords = [rng.randint(-50, 50) for _ in range(3)]
        if not any(coords):
            coords[0] = 1
        p = ProjectivePoint(coords)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        sign = rng.choice([1, -1])
        q = ProjectivePoint([c * scale * sign for c in coords])
        assert p == q
        assert mult_height(p) == mult_height(q)


def test_mult_height_examples():
    assert mult_height(ProjectivePoint([3, 4])) == 4
    assert mult_height(ProjectivePoint([1, 0, 0])) == 1
    assert mult_height(ProjectivePoint([2, 4])) == 2
    assert log_height(ProjectivePoint([1, 1])) == 0.0
    assert log_height(ProjectivePoint([0, 1])) == 0.0
    assert abs(log_height(ProjectivePoint([3, 4])) - math.log(4)) < 1e-14


def test_linear_form_validation():
    with pytest.raises(errors.BadParameter):
        LinearForm(RATIONALS, [0, 0])
    K = nf_create([-2, 0, 1])
    with pytest.raises(errors.BadParameter):
        LinearForm(RATIONALS, [K.gen(), 1])
    f = LinearForm(RATIONALS, [1, -1])
    with pytest.raises(errors.BadParameter):
        f.evaluate(ProjectivePoint([1, 2, 3]))


def test_weil_examples():
    form = LinearForm(RATIONALS, [1, 0])
    x = ProjectivePoint([3, 4])
    assert abs(weil_hyperplane(form, x, INF) - math.log(4 / 3)) < 1e-12
    assert weil_hyperplane(form, ProjectivePoint([1, 1]), INF) == 0.0
    assert weil_hyperplane(form, ProjectivePoint([1, 1]), 5) == 0.0
    assert weil_hyperplane(form, x, 2) == 0.0
    assert abs(weil_hyperplane(form, x, 3) - math.log(3)) < 1e-12
    with pytest.raises(errors.OnSupport):
        weil_hyperplane(form, ProjectivePoint([0, 1]), INF)


def test_weil_quadratic_field_convergent():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    form = LinearForm(K, [-th, 1])
    x = ProjectivePoint([5, 7])
    val = weil_hyperplane(form, x, INF, w_index=1)
    assert abs(val - math.log(7 / abs(7 - 5 * math.sqrt(2)))) < 1e-9
    assert abs(val - 4.5900309) < 1e-6
    assert abs(proximity(form, x, [INF], w_choices={INF: 1}) - val) < 1e-15


def test_proximity_mixed_places():
    form = LinearForm(RATIONALS, [1, 0])
    x = ProjectivePoint([3, 4])
    val = proximity(form, x, [INF, 2])
    assert abs(val - math.log(4 / 3)) < 1e-12


def test_height_weil_identity_sample():
    rng = random.Random(31)
    for _ in range(60):
        coords = [rng.randint(1, 100)] + [rng.randint(-100, 100)
                                          for _ in range(rng.choice([1, 2]))]
        assert height_weil_defect(ProjectivePoint(coords)) < 1e-10


def test_weil_vanishes_off_coordinate_primes():
    form = LinearForm(RATIONALS, [1, 0])
    x = ProjectivePoint([12, 35])
    for p in (11, 13, 97):
        assert weil_hyperplane(form, x, p) == 0.0


def test_high_precision_path():
    form = LinearForm(RATIONALS, [1, 0])
    x = ProjectivePoint([3, 4])
    v = weil_hyperplane(form, x, INF, precision=50)
    assert abs(float(v) - math.log(4 / 3)) < 1e-15


def _reference_evaluate(form, x):
    """LinearForm.evaluate as it was before the integer rows, kept as an
    oracle: a Fraction accumulation of a_j * x_j in the field."""
    if len(x.coords) != len(form.coeffs):
        raise errors.BadParameter("length mismatch")
    out = form.field.zero()
    for a, xi in zip(form.coeffs, x.coords):
        if xi:
            out = out + a * xi
    return out


def _reference_weil_value(form, x, place, precision):
    """weil_hyperplane as it was before the one-log row: one log max|x_j| per
    form, on the reference evaluation."""
    val = _reference_evaluate(form, x)
    if not val:
        raise errors.OnSupport("on the hyperplane")
    la = log_abs(place, val, precision)
    arch = place.is_arch
    if not (arch or la):
        return la
    if precision <= 17:
        return (math.log(max(abs(c) for c in x.coords)) if arch else 0) - la
    with working_dps(precision + 5):
        return (mpmath.log(max(abs(c) for c in x.coords)) if arch else 0) - la


def _lambda_matrix(spec, x, precision):
    """(rows, h): lambda_vi(x) at all (v, i), by weil_hyperplane one form at
    a time, and h(x) = log max|x_j|.  Raises OnSupport on the support."""
    rows = [[weil_hyperplane(form, x, v, spec.w_choices.get(v, 0), precision)
             for form in spec.forms[v]] for v in spec.S]
    return rows, log_height(x, precision)


def _reference_lambda_matrix(spec, x, dps):
    """The lambda matrix of a form system as it was before the one-log row,
    with log max|x_j| by the float/mpf rule: math.log at 17 digits or
    fewer."""
    places = spec.places()
    top = max(abs(c) for c in x.coords)
    with mpmath.workdps(dps + 5):
        rows = [[_reference_weil_value(form, x, places[v], dps) for form in spec.forms[v]]
                for v in spec.S]
        return rows, math.log(top) if dps <= 17 else mpmath.log(top)


ORACLE_FIELDS = {"Q": [0, 1], "Q(sqrt2)": [-2, 0, 1], "Q(i)": [1, 0, 1],
                 "x^3-3x+1": [1, -3, 0, 1]}


def _random_coeff(K, p, rng):
    dens = (1, p, p * p, rng.randint(1, 30))
    if rng.random() < 0.3:
        return K.from_rational(Fraction(rng.randint(-9, 9), rng.choice(dens)))
    return K.element([Fraction(rng.randint(-9, 9), rng.choice(dens))
                      for _ in range(K.degree)])


def _cases(K, rng, count):
    """(form, point) pairs on P^1 and P^2 with denominators 1, p, p^2 and
    random ones; every third point lies on the form's hyperplane."""
    out = []
    for k in range(count):
        p = rng.choice((2, 3, 5, 7))
        n = 1 + k % 2
        if k % 3:
            coeffs = [_random_coeff(K, p, rng) for _ in range(n + 1)]
            if not any(coeffs):
                coeffs[0] = K.one()
            coords = [rng.randint(-500, 500) for _ in range(n + 1)]
            if not any(coords):
                coords[0] = 1
        else:
            # c times a rational form q, at an integer point of q = 0
            q = [Fraction(rng.randint(-9, 9), rng.choice((1, p, p * p))) for _ in range(n + 1)]
            q[0] = q[0] or Fraction(1, p)
            c = _random_coeff(K, p, rng) or K.one()
            coeffs = [c * qj for qj in q]
            if n == 1:
                coords = [q[1], -q[0]]
            else:
                u = [rng.randint(-5, 5) for _ in range(3)]
                coords = [q[1] * u[2] - q[2] * u[1], q[2] * u[0] - q[0] * u[2],
                          q[0] * u[1] - q[1] * u[0]]
                if not any(coords):
                    coords = [q[1], -q[0], 0]
        out.append((LinearForm(K, coeffs), ProjectivePoint(coords)))
    return out


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_evaluate_matches_reference(name):
    """The integer-row evaluation returns the reference's reduced value,
    zero on the hyperplane and nonzero elsewhere.  At each place above 2, 3,
    5 and 7 that places_above supports, the value's exponent is the one the
    signs read off the form's integer row."""
    K = nf_create(ORACLE_FIELDS[name])
    rng = random.Random(sum(map(ord, name)))
    finite = []
    for p in (2, 3, 5, 7):
        try:
            finite += places_above(K, p)
        except errors.UnsupportedRamification:
            pass
    zeros = 0
    for form, x in _cases(K, rng, 300):
        got = form.evaluate(x)
        want = _reference_evaluate(form, x)
        assert got == want and got.coeffs == want.coeffs, (form, x)
        assert all(c.denominator == w.denominator for c, w in zip(got.coeffs, want.coeffs))
        zeros += not got
        dots = form._dots(x)
        assert not got or all(nonarch_exponent(w, got) == _row_exponent(w, dots, form._den)
                              for w in finite), (form, x)
    assert 90 <= zeros < 300


def _oracle_spec(K, S, rng):
    forms = {}
    for v in S:
        p = 7 if v == INF else v
        while True:
            fs = [LinearForm(K, [_random_coeff(K, p, rng) or K.one() for _ in range(3)])
                  for _ in range(3)]
            try:
                TwistedHeightSpec(K, [v], {v: fs}, {v: [0, 0, 0]}, 0)
                break
            except errors.BadParameter:
                continue
        forms[v] = fs
    weights = {v: [Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)] for v in S}
    return TwistedHeightSpec(K, S, forms, weights, Fraction(1, 5), Fraction(7, 2),
                             w_choices={INF: len(places_above(K, INF, 30)) - 1})


@pytest.mark.parametrize("precision", [17, 50])
def test_weil_values_match_reference_run(precision, monkeypatch):
    """weil_hyperplane, the lambda matrix built from it and
    log_twisted_report equal (==) a run on the reference evaluation with one
    log max|x_j| per form."""
    cases = [(nf_create([-2, 0, 1]), [INF, 7, 3]), (nf_create([1, 0, 1]), [INF, 5, 2]),
             (nf_create([0, 1]), [INF, 2, 3])]
    rng = random.Random(precision)
    runs = []
    for K, S in cases:
        spec = _oracle_spec(K, S, rng)
        points = [ProjectivePoint([rng.randint(-300, 300) for _ in range(3)])
                  for _ in range(25)]
        runs.append((spec, points))
    seen = 0
    for spec, points in runs:
        places = spec.places()
        for x in points:
            for v in spec.S:
                for form in spec.forms[v]:
                    try:
                        want = _reference_weil_value(form, x, places[v], precision)
                    except errors.OnSupport:
                        continue
                    assert weil_hyperplane(form, x, v, spec.w_choices.get(v, 0),
                                           precision) == want
                    seen += 1
            try:
                want = _reference_lambda_matrix(spec, x, precision)
            except errors.OnSupport:
                with pytest.raises(errors.OnSupport):
                    _lambda_matrix(spec, x, precision)
                continue
            assert _lambda_matrix(spec, x, precision) == want
    reports = [[log_twisted_report(spec, x, precision) for x in points]
               for spec, points in runs]
    monkeypatch.setattr(LinearForm, "evaluate", _reference_evaluate)
    assert reports == [[log_twisted_report(spec, x, precision) for x in points]
                       for spec, points in runs]
    assert seen > 500


def test_per_place_tables_refuse_extra_places():
    """A list longer than S, or a key for a place outside S, is an error,
    not an entry dropped in silence."""
    K = nf_create([-2, 0, 1])
    form = LinearForm(K, [-K.gen(), 1])
    x = ProjectivePoint([5, 7])
    for choices in ([1, 0, 5], {INF: 1, 5: 0}, {"oo": 1, "3": 0}):
        with pytest.raises(errors.BadParameter):
            proximity(form, x, ["inf", 7], w_choices=choices)
    forms = [LinearForm(K, [1, 0]), LinearForm(K, [0, 1])]
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(K, [INF], {INF: forms}, w_choices=[1, 0])
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(K, [INF], {INF: forms, 7: forms})


def test_proximity_normalizes_place_spellings():
    K = nf_create([-2, 0, 1])
    form = LinearForm(K, [-K.gen(), 1])
    x = ProjectivePoint([5, 7])
    by_list = proximity(form, x, ["inf", 7], w_choices=[1, 0])
    assert by_list != proximity(form, x, ["inf", 7])
    for choices in ({"oo": 1}, {INF: 1, "7": 0}, {"infinity": 1, 7: 0}):
        assert proximity(form, x, ["inf", 7], w_choices=choices) == by_list
        assert proximity(form, x, ["oo", "7"], w_choices=choices) == by_list
