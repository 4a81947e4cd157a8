import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from linscat import errors, exceptional, heights, nf_create
from linscat.exceptional import (
    FormSystemSpec,
    _candidate_subspaces,
    _greedy_cover,
    density_report,
    enumerate_points,
    filter_solutions,
    q_sweep,
    span_subspace,
    subspace_cover,
)
from linscat.fieldarith import RATIONALS
from linscat.heights import LinearForm, ProjectivePoint, log_height, weil_hyperplane
from linscat.places import INF, places_above
from linscat.twisted import TwistedHeightSpec, log_twisted_height


def brute_points(n, bound):
    """Independent enumeration by raw iteration over coordinate boxes."""
    out = set()
    import itertools
    for tup in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        if not any(tup):
            continue
        lead = next(c for c in tup if c)
        if lead < 0:
            continue
        if math.gcd(*[abs(c) for c in tup]) != 1:
            continue
        out.add(tup)
    return sorted(out)


def test_enumeration_matches_brute_force():
    for bound in (1, 5, 20):
        pts = enumerate_points(1, bound)
        assert [p.coords for p in pts] == brute_points(1, bound)
    for bound in (1, 6):
        pts = enumerate_points(2, bound)
        assert [p.coords for p in pts] == brute_points(2, bound)
    pts3 = enumerate_points(3, 2)
    assert [p.coords for p in pts3] == brute_points(3, 2)


def test_enumeration_canonical_and_bounded():
    pts = enumerate_points(2, 9)
    assert pts == sorted(pts)
    assert len(pts) == len(set(pts))
    for p in pts:
        assert max(abs(c) for c in p.coords) <= 9
        assert ProjectivePoint(p.coords).coords == p.coords


def test_enumeration_budget():
    with pytest.raises(errors.BudgetExceeded):
        enumerate_points(1, 10_000, budget=100)
    with pytest.raises(errors.BudgetExceeded):
        enumerate_points(4, 500)
    with pytest.raises(errors.BadParameter):
        enumerate_points(0, 5)


def sqrt2_spec():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    forms = [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])]
    return K, FormSystemSpec(K, [INF], {INF: forms}, w_choices={INF: 1})


def roth_oracle(bound, eps):
    """Solutions of |x1 - sqrt2 x0| |x0| <= max(|x0|,|x1|)^(-eps) by direct
    high-precision search; independent of the filtering code."""
    sols = []
    with mpmath.workdps(60):
        s2 = mpmath.sqrt(2)
        for x0 in range(1, bound + 1):
            for x1 in range(-bound, bound + 1):
                if math.gcd(x0, abs(x1)) != 1:
                    continue
                mx = max(x0, abs(x1))
                lhs = abs(x1 - s2 * x0) * x0
                if lhs <= mpmath.mpf(mx) ** (-eps):
                    sols.append((x0, x1))
    return sorted(sols)


def test_roth_filter_against_brute_oracle():
    _, spec = sqrt2_spec()
    eps = Fraction(3, 10)
    ss = filter_solutions("schmidt", spec, height_bound=200, epsilon=eps)
    assert [p.coords for p in ss.points] == roth_oracle(200, eps)
    assert not ss.indeterminate
    assert ProjectivePoint([0, 1]) in ss.support


def test_streaming_agrees_with_explicit_points():
    _, spec = sqrt2_spec()
    eps = Fraction(3, 10)
    streamed = filter_solutions("schmidt", spec, height_bound=60, epsilon=eps)
    explicit = filter_solutions("schmidt", spec,
                                points=enumerate_points(1, 60), epsilon=eps)
    assert streamed.points == explicit.points
    assert streamed.support == explicit.support
    assert streamed.spec_digest == explicit.spec_digest


def test_height_bound_keeps_the_sqrt2_convergent_at_275807():
    """[195025:275807], a convergent of sqrt2, is a solution at
    eps = 6484/78125 with a margin of +2.0e-6; the prefilter keeps it, so
    the height-bound route finds it as the explicit point does."""
    _, spec = sqrt2_spec()
    eps = Fraction(6484, 78125)
    x = ProjectivePoint([195025, 275807])
    assert filter_solutions("schmidt", spec, points=[x], epsilon=eps).points == [x]
    ss = filter_solutions("schmidt", spec, height_bound=275807, epsilon=eps)
    assert ss.points[-1] == x and len(ss.points) == 20


def _inf_spec(min_poly, rows, w_index):
    K = nf_create(min_poly)
    th = K.gen()
    forms = [LinearForm(K, [th if c == "th" else c for c in row]) for row in rows]
    return FormSystemSpec(K, [INF], {INF: forms}, w_choices={INF: w_index})


# (field, forms with "th" for its generator, w_index, epsilon, bound)
HEIGHT_BOUND_CASES = {
    # S = {inf} at a complex place: no prefilter, every point is settled
    "Q(i) P^1": ([1, 0, 1], [["th", 1], [1, 0]], 0, Fraction(-3, 2), 30),
    "Q(i) P^2": ([1, 0, 1], [["th", 1, 0], [1, 0, 0], [0, "th", 1]], 0,
                 Fraction(-3, 2), 6),
    # the windowed prefilter on P^3
    "Q(sqrt2) P^3": ([-2, 0, 1], [[1, "th", 0, 0], [0, 1, "th", 0],
                                  [0, 0, 1, "th"], [1, 0, 0, 0]], 1,
                     Fraction(1, 10), 5),
    "Q P^3": ([0, 1], [[1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, 2], [1, 0, 0, -1]],
              0, Fraction(-1, 2), 5),
}


@pytest.mark.parametrize("case", sorted(HEIGHT_BOUND_CASES))
def test_height_bound_agrees_with_explicit_points(case):
    """schmidt with S = {inf} and a height bound gives the buckets of the
    explicit enumeration, whether the place is real (prefiltered, on any
    P^n) or complex (settled point by point)."""
    min_poly, rows, w_index, eps, bound = HEIGHT_BOUND_CASES[case]
    spec = _inf_spec(min_poly, rows, w_index)
    bounded = filter_solutions("schmidt", spec, height_bound=bound, epsilon=eps)
    explicit = filter_solutions("schmidt", spec, epsilon=eps,
                                points=enumerate_points(spec.n, bound))
    assert bounded.points and bounded.support
    assert bounded.points == explicit.points
    assert bounded.indeterminate == explicit.indeterminate
    assert bounded.support == explicit.support
    assert bounded.spec_digest == explicit.spec_digest


def test_fw_filter_buckets():
    forms = [LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [0, 1])]
    spec = FormSystemSpec(RATIONALS, [INF], {INF: forms})
    pts = [ProjectivePoint(c) for c in ([3, 4], [1, 2], [1, 1], [0, 1])]
    ss = filter_solutions("fw", spec, points=pts,
                          d_weights=[[Fraction(-1), Fraction(-1)]])
    # margin = lambda + h, positive exactly when h > 0 and off the support
    assert [p.coords for p in ss.points] == [(1, 2), (3, 4)]
    assert [p.coords for p in ss.indeterminate] == [(1, 1)]
    assert [p.coords for p in ss.support] == [(0, 1)]


def test_parametric_filter():
    def coord_forms(n):
        out = []
        for i in range(n + 1):
            cs = [0] * (n + 1)
            cs[i] = 1
            out.append(LinearForm(RATIONALS, cs))
        return out

    spec = TwistedHeightSpec(
        RATIONALS, [INF], {INF: coord_forms(1)}, {INF: [1, -1]},
        epsilon="1/10", Q=100)
    pts = [ProjectivePoint(c) for c in ([1, 0], [0, 1], [1, 1])]
    ss = filter_solutions("parametric", spec, points=pts)
    assert [p.coords for p in ss.points] == [(1, 0)]
    assert not ss.indeterminate
    # at Q = 1, log H_Q([1:1]) = 0 = -eps log Q: exactly on the boundary
    at_one = filter_solutions("parametric", spec.with_Q(1), points=pts)
    assert ProjectivePoint([1, 1]) in at_one.indeterminate
    assert not at_one.points and not at_one.support


def test_filter_validation():
    _, spec = sqrt2_spec()
    with pytest.raises(errors.BadParameter):
        filter_solutions("schmidt", spec, height_bound=10)  # missing epsilon
    with pytest.raises(errors.BadParameter):
        filter_solutions("fw", spec, height_bound=10)  # missing d-weights
    # one d-weight row per place of S, each with n+1 entries
    for rows in ([[Fraction(3, 2)]], [], [[0, 0], [0, 0]], [[0, 0, 0]]):
        with pytest.raises(errors.BadParameter):
            filter_solutions("fw", spec, height_bound=10, d_weights=rows)
    with pytest.raises(errors.BadParameter):
        filter_solutions("schmidt", spec, epsilon=1)  # no points, no bound
    with pytest.raises(errors.BadParameter):
        filter_solutions("bogus", spec, height_bound=10)
    with pytest.raises(errors.BadParameter):
        filter_solutions("parametric", spec, height_bound=10)
    twisted = TwistedHeightSpec(RATIONALS, [INF], {INF: [
        LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [0, 1])]},
        {INF: [1, -1]}, epsilon="1/10", Q=2)
    with pytest.raises(errors.BadParameter):
        filter_solutions("parametric", twisted)  # no points, no bound


def test_height_bound_below_one_rejected():
    # streaming path (schmidt, S = {inf}, n = 1) and enumeration paths
    _, spec = sqrt2_spec()
    K3 = FormSystemSpec(RATIONALS, [INF, 3], {
        INF: [LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [0, 1])],
        3: [LinearForm(RATIONALS, [1, 1]), LinearForm(RATIONALS, [0, 1])]})
    for bound in (0, -3):
        with pytest.raises(errors.BadParameter):
            filter_solutions("schmidt", spec, height_bound=bound, epsilon="3/10")
        with pytest.raises(errors.BadParameter):
            filter_solutions("schmidt", K3, height_bound=bound, epsilon="3/10")
        with pytest.raises(errors.BadParameter):
            filter_solutions("fw", spec, height_bound=bound, d_weights=[[0, 0]])


def test_q_sweep_matches_parametric_filter():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    spec = TwistedHeightSpec(
        K, [INF, 3], {INF: [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])],
                      3: [LinearForm(K, [1, 0]), LinearForm(K, [1, 1])]},
        {INF: ["1/2", "-1/2"], 3: ["-1/3", "1/3"]}, epsilon="1/10",
        w_choices={INF: 1})
    pts = enumerate_points(1, 20)
    rows = q_sweep(spec, [1, 2, 100], pts)
    assert [r["Q"] for r in rows] == [1, 2, 100]
    assert any(r["solutions"] for r in rows) and any(r["indeterminate"] for r in rows)
    for r in rows:
        ss = filter_solutions("parametric", spec.with_Q(r["Q"]), points=pts)
        assert r["solutions"] == ss.points
        assert r["indeterminate"] == ss.indeterminate


def test_q_sweep_verdict_is_the_filter_verdict_at_a_pell_point():
    """At Q = 2679 a float evaluation of the margin of [2744210:3880899]
    gives +1.8e-3, and 30 digits give -6.1e-4: the sweep must make the
    filter's verdict, not a float one."""
    K, base = sqrt2_spec()
    spec = TwistedHeightSpec(K, [INF], base.forms, {INF: [-2, 2]}, epsilon="1/100",
                             w_choices={INF: 1})
    x = ProjectivePoint([2744210, 3880899])
    (row,) = q_sweep(spec, [2679], [x])
    ss = filter_solutions("parametric", spec.with_Q(2679), points=[x])
    assert row["solutions"] == ss.points == []
    assert row["indeterminate"] == ss.indeterminate == []


def test_margin_that_evaluates_to_zero_is_decided():
    """x1 - sqrt2 x0 at this Pell point is 0 at 35 digits; its lambda was
    +inf, which made the point a solution, and later indeterminate.  The
    true sum of lambda is about 2.025 h, below (2 + 3/10) h: at 250 digits
    the margin is -0.275 h, and the filter decides a non-solution."""
    _, spec = sqrt2_spec()
    x = ProjectivePoint([835002744095575440, 1180872205318713601])
    with mpmath.workdps(250):
        x0, x1 = map(mpmath.mpf, x.coords)
        h = mpmath.log(x1)
        margin = -mpmath.log(abs(x1 - mpmath.sqrt(2) * x0) * x0) - Fraction(3, 10) * h
        assert -0.28 * h < margin < -0.27 * h
    ss = filter_solutions("schmidt", spec, points=[x], epsilon="3/10")
    assert ss.points == [] and ss.indeterminate == []


def test_parametric_digest_covers_forms_and_weights():
    def spec(forms, weights):
        return TwistedHeightSpec(RATIONALS, [INF], {INF: forms}, {INF: weights},
                                 epsilon="1/10", Q=2)

    coord = [LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [0, 1])]
    other = [LinearForm(RATIONALS, [1, -1]), LinearForm(RATIONALS, [1, 1])]
    pts = [ProjectivePoint(c) for c in ([1, 0], [2, 3], [1, 1])]

    def digest(s):
        return filter_solutions("parametric", s, points=pts).spec_digest

    base = digest(spec(coord, [1, -1]))
    assert digest(spec(coord, [1, -1])) == base
    assert digest(spec(other, [1, -1])) != base  # forms only
    assert digest(spec(coord, [-1, 1])) != base  # weights only
    assert digest(spec(other, [1, -1])) != digest(spec(coord, [-1, 1]))


def test_form_system_validation():
    K = nf_create([-2, 0, 1])
    dep = [LinearForm(K, [1, 0]), LinearForm(K, [2, 0])]
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(K, [INF], {INF: dep})
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(K, [INF, INF], {INF: dep})
    short = [LinearForm(K, [1, 0])]
    with pytest.raises(errors.BadParameter):
        FormSystemSpec(K, [INF], {INF: short})


def test_span_subspace():
    pts = [ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0])]
    sub = span_subspace(pts, 2)
    assert sub.dim == 1
    assert sub.equations == ((0, 0, 1),)
    assert sub.contains(ProjectivePoint([3, -7, 0]))
    assert not sub.contains(ProjectivePoint([1, 1, 1]))
    full = [ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0]),
            ProjectivePoint([0, 0, 1])]
    assert span_subspace(full, 2) is None
    # same line reached from different spanning sets gets identical equations
    sub2 = span_subspace([ProjectivePoint([1, 1, 0]),
                          ProjectivePoint([2, -1, 0])], 2)
    assert sub2.equations == sub.equations


def _sympy_equations(points):
    """Oracle for span_subspace: sympy's nullspace of the coordinate
    matrix, in reduced echelon form, each row scaled to primitive integers
    with a positive lead, sorted; None when the nullspace is zero."""
    null = sympy.Matrix([list(p.coords) for p in points]).nullspace()
    if not null:
        return None
    rref, _ = sympy.Matrix([list(v) for v in null]).rref()
    rows = []
    for i in range(rref.rows):
        row = list(rref.row(i))
        den = math.lcm(*(c.q for c in row))
        ints = [int(c * den) for c in row]
        g = math.gcd(*ints)
        if next(c for c in ints if c) < 0:
            g = -g
        rows.append(tuple(c // g for c in ints))
    return tuple(sorted(rows))


def test_span_subspace_matches_sympy():
    rng = random.Random(2024)
    cases = []
    for n in range(1, 5):
        for _ in range(12):
            # rank-deficient: points drawn from the span of k < n + 1 vectors
            k = rng.randint(1, n)
            basis = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(k)]
            basis[0][rng.randrange(n + 1)] = rng.choice((1, -1, 5))
            pts = []
            while len(pts) < rng.randint(1, k + 2):
                t = [rng.randint(-2, 2) for _ in basis]
                c = [sum(a * b[j] for a, b in zip(t, basis)) for j in range(n + 1)]
                if any(c):
                    pts.append(ProjectivePoint(c))
            cases.append((pts, n))
        for _ in range(4):
            pts = _random_points(rng, n, rng.randint(1, n + 1), 5)
            cases.append((pts + [pts[0], ProjectivePoint([-c for c in pts[-1]])], n))
            cases.append(([_random_points(rng, n, 1, 9)[0]], n))
            # full rank: n + 1 to n + 3 points spanning P^n
            while True:
                pts = _random_points(rng, n, n + 1 + rng.randint(0, 2), 3)
                if sympy.Matrix([list(p.coords) for p in pts]).rank() == n + 1:
                    break
            cases.append((pts, n))
    full = 0
    for pts, n in cases:
        sub = span_subspace(pts, n)
        want = _sympy_equations(pts)
        if want is None:
            full += 1
            assert sub is None, (n, pts)
            continue
        assert sub.equations == want, (n, pts)
        assert sub.dim == n - len(want)
        assert all(sub.contains(p) for p in pts)
    assert 16 <= full < len(cases)


def test_greedy_tie_break_order():
    """Several candidates tie on gain in every round: the cover takes the
    least equations among them, whatever order the candidates come in.
    The expected cover and assignment are those of linscat 0.1.0."""
    grid = [ProjectivePoint([1, i, j]) for i in range(3) for j in range(3)]
    extra = [ProjectivePoint(c) for c in ([0, 1, 0], [0, 0, 1], [0, 1, 1], [2, 1, 3])]
    pts = sorted(grid + extra)
    cands = _candidate_subspaces(pts, 2)
    assert [len(cov) for _, cov in cands[:10]] == [4] * 9 + [3]
    want = [((0, 0, 1),), ((1, 1, -1),), ((2, -1, 0),), ((2, -1, -1),)]
    for order in (cands, cands[::-1]):
        assert [sub.equations for sub in _greedy_cover(pts, order)] == want
    cover = subspace_cover(pts, mode="greedy")
    assert [sub.equations for sub in cover.subspaces] == want
    assert [cover.assignment[p] for p in pts] == [2, 0, 1, 0, 1, 3, 0, 3, 1,
                                                  0, 2, 2, 1]
    # the 3 x 3 grid alone: eight lines of three points tie in round one
    grid_cover = subspace_cover(sorted(grid), mode="greedy")
    assert [sub.equations for sub in grid_cover.subspaces] == [
        ((0, 0, 1),), ((1, 0, -1),), ((2, 0, -1),)]


def test_planted_two_line_cover():
    line1 = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0)]
    line2 = [(1, 0, 1), (1, 0, 2), (1, 0, -1), (1, 0, 3)]
    stray = [(1, 1, 1)]
    pts = [ProjectivePoint(c) for c in line1 + line2 + stray]
    cover = subspace_cover(pts, mode="exact")
    assert cover.mode == "exact"
    assert len(cover) <= 3
    eqs = {s.equations for s in cover.subspaces}
    assert ((0, 0, 1),) in eqs  # x2 = 0 absorbs line1
    assert ((0, 1, 0),) in eqs  # x1 = 0 absorbs line2
    for p in pts:
        assert cover.subspaces[cover.assignment[p]].contains(p)


def test_exact_at_most_greedy():
    rng = random.Random(61)
    for _ in range(10):
        pts = set()
        while len(pts) < 9:
            c = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(c):
                pts.add(ProjectivePoint(c))
        pts = sorted(pts)
        exact = subspace_cover(pts, mode="exact")
        greedy = subspace_cover(pts, mode="greedy")
        assert len(exact) <= len(greedy)
        for cover in (exact, greedy):
            for p in pts:
                assert cover.subspaces[cover.assignment[p]].contains(p)


def test_cover_infeasible_and_validation(monkeypatch):
    pts = [ProjectivePoint(c) for c in
           ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    with pytest.raises(errors.Infeasible):
        subspace_cover(pts, max_subspaces=1)
    with pytest.raises(errors.BadParameter):
        subspace_cover([])
    # an unknown mode is refused before the candidate pass runs
    def no_candidates(points, n):
        raise AssertionError("candidate pass ran for an unknown mode")
    monkeypatch.setattr(exceptional, "_candidate_subspaces", no_candidates)
    with pytest.raises(errors.BadParameter):
        subspace_cover(pts, mode="bogus")
    monkeypatch.undo()
    # points of different P^n are not one solution set
    for mixed in ([ProjectivePoint([1, 2]), ProjectivePoint([1, 2, 3])],
                  [ProjectivePoint([1, 2, 3]), ProjectivePoint([0, 1]),
                   ProjectivePoint([1, 0, 0])]):
        for mode in ("exact", "greedy"):
            with pytest.raises(errors.BadParameter):
                subspace_cover(mixed, mode=mode)


def test_density_report():
    pts = [ProjectivePoint(c) for c in ((1, 0), (1, 1), (2, 1))]
    rep = density_report(pts)
    assert rep["point_count"] == 3
    assert rep["cover_size"] >= 1
    assert rep["max_points_per_subspace"] >= 1
    assert "non-dense" in rep["verdict_text"]
    assert density_report([])["point_count"] == 0


def _reference_candidates(points, n):
    """Oracle: every distinct span of <= n points, scanned against every
    point, then only the candidates whose covered set is maximal."""
    seen = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(points, size):
            sub = span_subspace(list(subset), n)
            if sub is None or sub.equations in seen:
                continue
            covered = frozenset(i for i, p in enumerate(points) if sub.contains(p))
            seen[sub.equations] = (sub, covered)
    items = list(seen.values())
    maximal = [(sub, cov) for sub, cov in items
               if not any(cov < cov2 for _, cov2 in items)]
    maximal.sort(key=lambda t: (-len(t[1]), t[0].dim, t[0].equations))
    return maximal


def _random_points(rng, n, count, box):
    pts = set()
    while len(pts) < count:
        c = [rng.randint(-box, box) for _ in range(n + 1)]
        if any(c):
            pts.add(ProjectivePoint(c))
    return sorted(pts)


def _on_flat(rng, basis, count, box=3):
    """count distinct points in the span of the basis vectors."""
    pts = set()
    while len(pts) < count:
        t = [rng.randint(-box, box) for _ in basis]
        c = [sum(a * b[j] for a, b in zip(t, basis)) for j in range(len(basis[0]))]
        if any(c):
            pts.add(ProjectivePoint(c))
    return sorted(pts)


def _as_lists(cands):
    return [(sub.equations, sub.dim, sorted(cov)) for sub, cov in cands]


def test_candidates_match_reference():
    rng = random.Random(7)
    cases = []
    for n, count, box in ((1, 6, 5), (2, 9, 3), (3, 8, 2), (4, 7, 2)):
        for _ in range(6):
            cases.append((_random_points(rng, n, rng.randint(1, count), box), n))
    # rank-deficient sets: one point, collinear points in P^2, coplanar in P^3
    cases.append(([ProjectivePoint([2, -1, 5])], 2))
    cases.append(([ProjectivePoint([1, 3, -2, 1])], 3))
    cases.append((_on_flat(rng, [(1, 2, 0), (0, 1, -3)], 6), 2))
    cases.append((_on_flat(rng, [(1, 0, 2, 1), (0, 1, 1, -1), (1, 1, 0, 2)], 9), 3))
    cases.append((_on_flat(rng, [(1, 1, 0, 0), (0, 1, 2, 1)], 5), 3))
    # a planted line plus scattered points in P^2
    planted = _on_flat(rng, [(1, 0, 1), (0, 1, 1)], 5)
    cases.append((sorted(set(planted + _random_points(rng, 2, 4, 3))), 2))
    for pts, n in cases:
        got = _candidate_subspaces(pts, n)
        assert _as_lists(got) == _as_lists(_reference_candidates(pts, n)), (n, pts)
        assert all(len(sub.equations) == 1 for sub, _ in got) or len(got) == 1


def test_collinear_set_is_one_subspace():
    rng = random.Random(11)
    pts = _on_flat(rng, [(1, -1, 2), (0, 3, 1)], 7)
    for mode in ("exact", "greedy"):
        cover = subspace_cover(pts, mode=mode)
        assert cover.mode == mode
        assert len(cover) == 1
        assert cover.subspaces[0].equations == ((7, 1, -3),)
        assert set(cover.assignment.values()) == {0}


def _span_candidates(points, n):
    """Reference candidates: span_subspace on every n-subset, keyed by its
    equation, as linscat 0.1.0 found them."""
    whole = span_subspace(points, n)
    if whole is not None:
        return [(whole, frozenset(range(len(points))))]
    found = {}
    for idx in itertools.combinations(range(len(points)), n):
        sub = span_subspace([points[i] for i in idx], n)
        if len(sub.equations) == 1:
            found.setdefault(sub.equations, (sub, []))[1].extend(idx)
    candidates = [(sub, frozenset(cov)) for sub, cov in found.values()]
    candidates.sort(key=lambda t: (-len(t[1]), t[0].equations))
    return candidates


def _reference_greedy_cover(points, candidates):
    """The greedy cover of linscat 0.1.0, verbatim: a full rescan of every
    candidate's gain on every pick."""
    keyed = [(tuple(-c for eq in sub.equations for c in eq), sub, cov)
             for sub, cov in candidates]
    uncovered = set(range(len(points)))
    chosen = []
    while uncovered:
        _, sub, cov = max(keyed, key=lambda t: (len(t[2] & uncovered), t[0]))
        gain = cov & uncovered
        if not gain:  # pragma: no cover
            raise errors.Infeasible("no candidate covers the remaining points")
        chosen.append(sub)
        uncovered -= gain
    return chosen


@st.composite
def _cover_point_sets(draw):
    """(points, n) in P^1, P^2 or P^3: integer combinations of a drawn basis,
    which may be rank-deficient, so that many points share a line or a
    plane, plus a few scattered points."""
    n = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    basis = draw(st.lists(vec, min_size=1, max_size=n + 1))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)), max_size=14))
    vecs = [[sum(t * b[j] for t, b in zip(ts, basis)) for j in range(n + 1)]
            for ts in combos] + draw(st.lists(vec, max_size=4))
    pts = sorted({ProjectivePoint(v) for v in vecs if any(v)})
    assume(pts)
    return pts, n


@settings(max_examples=200, deadline=None)
@given(case=_cover_point_sets())
# seven points on the line x2 = x0 + x1 and two off it
@example(case=([ProjectivePoint(c) for c in ((0, 1, 1), (1, 0, 1), (1, 1, 2), (1, 2, 3),
                                             (1, -1, 0), (2, 1, 3), (1, 3, 4), (1, 0, 0),
                                             (0, 0, 1))], 2))
# coplanar points of P^3: one candidate, their plane
@example(case=([ProjectivePoint(c) for c in ((1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 2),
                                             (1, -1, 0, 0))], 3))
def test_minor_candidates_and_lazy_greedy_match_references(case):
    """The candidates from signed minors are span_subspace's, in the same
    order with the same covered sets, and the lazy greedy picks what a full
    rescan picks, on the candidates in order and reversed."""
    pts, n = case
    cands = _candidate_subspaces(pts, n)
    assert _as_lists(cands) == _as_lists(_span_candidates(pts, n))
    for order in (cands, cands[::-1]):
        assert ([sub.equations for sub in _greedy_cover(pts, order)]
                == [sub.equations for sub in _reference_greedy_cover(pts, order)])


def test_greedy_cover_refuses_an_uncovered_point():
    """A point that no candidate covers raises Infeasible, whatever is left
    of the candidates."""
    pts = [ProjectivePoint(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    cands = [(sub, cov) for sub, cov in _candidate_subspaces(pts, 2) if 3 not in cov]
    for order in (cands, cands[:1], []):
        with pytest.raises(errors.Infeasible):
            _greedy_cover(pts, order)


def test_cover_cap_names_the_mode_used():
    """max_subspaces refuses a cover with the mode that built it: a greedy
    cover, chosen or forced above EXACT_COVER_CAP points, is no minimum."""
    pts = [ProjectivePoint(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    for mode in ("exact", "greedy"):
        with pytest.raises(errors.Infeasible, match="^%s cover needs 2 subspaces, cap is 1$"
                           % mode):
            subspace_cover(pts, mode=mode, max_subspaces=1)
    many = enumerate_points(2, 2)
    assert len(many) > exceptional.EXACT_COVER_CAP
    with pytest.raises(errors.Infeasible, match="^greedy cover needs"):
        subspace_cover(many, mode="exact", max_subspaces=1)


def _coordinate_forms(n):
    return [LinearForm(RATIONALS, [1 if j == i else 0 for j in range(n + 1)])
            for i in range(n + 1)]


def test_repeated_points_count_once():
    """An explicit point given twice, or in two spellings, is one point:
    filter_solutions lists it once, and density_report counts it once."""
    spec = FormSystemSpec(RATIONALS, [INF], {INF: _coordinate_forms(1)})
    pts = [ProjectivePoint(c) for c in ([1, 2], [1, 2], [2, 4], [2, 3])]
    ss = filter_solutions("schmidt", spec, points=pts, epsilon=-2)
    assert [p.coords for p in ss.points] == [(1, 2), (2, 3)]
    rep = density_report(pts)
    assert rep["point_count"] == 2 and rep["cover_size"] == 2
    assert rep["economy"] == 1.0
    assert "2 points absorbed by 2 proper subspaces" in rep["verdict_text"]


# ---------------------------------------------------------------------------
# exact verdicts over Q


NEAR_TIES = [ProjectivePoint([10 ** 8, 10 ** 8 + 1]), ProjectivePoint([10 ** 8 + 1, 10 ** 8])]


@pytest.mark.parametrize("precision", [17, 40, 60])
def test_schmidt_near_tie_is_decided_exactly(precision):
    """With S = {inf}, the coordinate forms and eps = -2, the margin is
    2 log H - log|x0 x1|: log(1 + 10^-8) at the two near ties, inside a
    1e-7 band, and exactly 0 at [1:1]; at any mpmath working precision."""
    spec = FormSystemSpec(RATIONALS, [INF], {INF: _coordinate_forms(1)})
    with mpmath.workdps(precision):
        ss = filter_solutions("schmidt", spec, epsilon=-2,
                              points=NEAR_TIES + [ProjectivePoint([1, 1])])
    assert ss.points == sorted(NEAR_TIES)
    assert ss.indeterminate == [ProjectivePoint([1, 1])]


@pytest.mark.parametrize("precision", [17, 40, 60])
def test_fw_near_tie_is_decided_exactly(precision):
    """fw margins (1 - d_i) log H - log|x_i|: with d = (0, -1), [10^8:10^8+1]
    has the margins log(1 + 10^-8) and log H, and [1:1] has 0 and 0."""
    spec = FormSystemSpec(RATIONALS, [INF], {INF: _coordinate_forms(1)})
    pts = [NEAR_TIES[0], ProjectivePoint([1, 1])]
    with mpmath.workdps(precision):
        ss = filter_solutions("fw", spec, points=pts, d_weights=[[0, -1]])
    assert ss.points == [NEAR_TIES[0]]
    assert ss.indeterminate == [ProjectivePoint([1, 1])]


@pytest.mark.parametrize("precision", [17, 40, 60])
def test_parametric_near_tie_is_decided_exactly(precision):
    """With weights 0 and eps = -1 the parametric margin is log Q - log H:
    log(1 + 10^-8) at Q = (10^8+1)^2 / 10^8 for the near ties, and
    exactly 0 at Q = 10^8 + 1."""
    spec = TwistedHeightSpec(RATIONALS, [INF], {INF: _coordinate_forms(1)},
                             {INF: [0, 0]}, epsilon=-1,
                             Q=Fraction((10 ** 8 + 1) ** 2, 10 ** 8))
    with mpmath.workdps(precision):
        ss = filter_solutions("parametric", spec, points=NEAR_TIES)
        at_tie = filter_solutions("parametric", spec.with_Q(10 ** 8 + 1), points=NEAR_TIES)
    assert ss.points == sorted(NEAR_TIES) and not ss.indeterminate
    assert at_tie.indeterminate == sorted(NEAR_TIES) and not at_tie.points


_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _rational_systems(draw):
    """(n, S, forms, weights, d-weights, eps, Q, points): a form system over
    Q with S inside {inf, 2, 3, 5}, its parameters and primitive points."""
    n = draw(st.sampled_from([1, 2]))
    S = draw(st.lists(st.sampled_from([INF, 2, 3, 5]), min_size=1, max_size=4,
                      unique=True))
    row = st.lists(_rational, min_size=n + 1, max_size=n + 1)
    forms = {v: [draw(row) for _ in range(n + 1)] for v in S}
    weights = {}
    for v in S:
        w = draw(st.lists(_rational, min_size=n, max_size=n))
        weights[v] = w + [-sum(w)]
    d_weights = [draw(row) for _ in S]
    eps = draw(_rational)
    Q = 1 + draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 4)))
    coords = st.lists(st.integers(-15, 15), min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(coords, min_size=1, max_size=4))
    return n, S, forms, weights, d_weights, eps, Q, points


def _mp(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _lambda_matrix(spec, x, dps):
    """(rows, h): lambda_vi(x) at all (v, i), by weil_hyperplane one form at
    a time, and h(x) = log max|x_j|.  Raises OnSupport on the support."""
    rows = [[weil_hyperplane(form, x, v, spec.w_choices.get(v, 0), dps)
             for form in spec.forms[v]] for v in spec.S]
    return rows, log_height(x, dps)


def _reference_margins(spec, eps, d_weights, slack, x, dps):
    """The schmidt, fw and parametric margins of x at dps digits, each a
    thunk: sum lambda_vi - (n+1+eps) h + slack, min_vi (lambda_vi - d_vi h)
    + slack and slack - (log H_Q + eps_Q log Q), from the Weil values of
    linscat.heights and the log H_Q of linscat.twisted, which share no code
    with the filters' signs.  The schmidt and fw thunks raise OnSupport on
    the support."""
    def schmidt():
        with mpmath.workdps(dps):
            rows, h = _lambda_matrix(spec, x, dps)
            return mpmath.fsum(v for row in rows for v in row) - (
                (spec.n + 1 + _mp(eps)) * h - _mp(slack))

    def fw():
        with mpmath.workdps(dps):
            rows, h = _lambda_matrix(spec, x, dps)
            return min(lam - _mp(d) * h + _mp(slack)
                       for row, drow in zip(rows, d_weights) for lam, d in zip(row, drow))

    def parametric():
        with mpmath.workdps(dps):
            return _mp(slack) - (log_twisted_height(spec, x, dps)
                                 + _mp(spec.epsilon) * mpmath.log(_mp(spec.Q)))

    return schmidt, fw, parametric


def _agrees(exact, approx, band):
    """An exact sign against a float margin: the same support verdict, the
    same sign wherever the float margin is outside the band, and a float
    margin inside the band at an exact 0."""
    try:
        sign = exact()
    except errors.OnSupport:
        with pytest.raises(errors.OnSupport):
            approx()
        return
    m = approx()
    if sign == 0:
        assert abs(m) <= band
    elif abs(m) > band:
        assert (m > 0) == (sign > 0), (sign, m)


_TIE = (1, [INF], {INF: [[1, 0], [0, 1]]}, {INF: [0, 0]}, [[1, 1]], Fraction(-2), 1,
        [[1, 1], [3, 5]])


@settings(max_examples=150, deadline=None)
@given(system=_rational_systems())
# [1:1] is a tie of all three systems
@example(system=_TIE)
# |2|_2 cancels the 2 at inf: e log 2 - log P = 0 at eps = 0, after the
# float pre-check hands it to the exact comparison
@example(system=(1, [INF, 2], {INF: [[1, 0], [0, 1]], 2: [[1, 0], [0, 1]]},
                 {INF: [1, -1], 2: [0, 0]}, [[0, 1], [1, 0]], Fraction(0), 2,
                 [[2, 1], [1, 2]]))
def test_exact_signs_agree_with_float_margins(system):
    """On random rational form systems, the exact schmidt, fw and
    parametric signs agree with the 40-digit reference margins."""
    n, S, forms, weights, d_weights, eps, Q, points = system
    try:
        spec = TwistedHeightSpec(
            RATIONALS, S, {v: [LinearForm(RATIONALS, r) for r in forms[v]] for v in S},
            weights, epsilon=eps, Q=Q)
    except errors.BadParameter:
        assume(False)
    band = 1e-30  # a 40-digit margin's tolerance
    for x in map(ProjectivePoint, points):
        schmidt, fw, parametric = _reference_margins(spec, eps, d_weights, 0, x, 40)
        _agrees(lambda: exceptional._schmidt_sign(spec, eps, 0, x), schmidt, band)
        _agrees(lambda: exceptional._fw_sign(spec, d_weights, 0, x), fw, band)
        _agrees(lambda: exceptional._parametric_sign(spec, 0, x), parametric, band)


# Q(sqrt2), Q(i) and Q(2^(1/3)), each with the places of Q it is tried at:
# the cubic field only away from its discriminant, -108
_FIELDS = [(nf_create([-2, 0, 1]), [INF, 2, 3, 5]),
           (nf_create([1, 0, 1]), [INF, 2, 3, 5]),
           (nf_create([-2, 0, 0, 1]), [INF, 5, 7])]


@st.composite
def _field_systems(draw):
    """(spec, d-weights, eps, slack, points): a form system with small
    integer coefficients over one of _FIELDS, at a random place above each v
    of S, and a nonzero slack k/7."""
    K, vs = draw(st.sampled_from(_FIELDS))
    n = draw(st.sampled_from([1, 2]))
    S = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3, unique=True))
    w_choices = {v: draw(st.integers(0, len(places_above(K, v)) - 1)) for v in S}
    coeff = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree)
    rows = {v: [[draw(coeff) for _ in range(n + 1)] for _ in range(n + 1)] for v in S}
    weights = {}
    for v in S:
        w = draw(st.lists(_rational, min_size=n, max_size=n))
        weights[v] = w + [-sum(w)]
    d_weights = [draw(st.lists(_rational, min_size=n + 1, max_size=n + 1)) for _ in S]
    eps = draw(_rational)
    Q = 1 + draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 4)))
    slack = Fraction(draw(st.integers(1, 7)) * draw(st.sampled_from([1, -1])), 7)
    coords = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).filter(any)
    points = draw(st.lists(coords, min_size=1, max_size=3))
    try:
        forms = {v: [LinearForm(K, [K.element(c) for c in row]) for row in rows[v]]
                 for v in S}
        spec = TwistedHeightSpec(K, S, forms, weights, epsilon=eps, Q=Q,
                                 w_choices=w_choices)
    except errors.BadParameter:
        assume(False)
    return spec, d_weights, eps, slack, [ProjectivePoint(c) for c in points]


@settings(max_examples=60, deadline=None)
@given(system=_field_systems())
def test_signs_over_number_fields_agree_with_200_digit_margins(system):
    """Over number fields, at real, complex and finite places and with a
    nonzero slack, the schmidt, fw and parametric signs agree with the
    200-digit reference margins wherever those are above 10^-150; and so
    do they with the float pre-check switched off, from the interval stage."""
    spec, d_weights, eps, slack, points = system
    for check in (heights._CHECK, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heights, "_CHECK", check)
            for x in points:
                schmidt, fw, parametric = _reference_margins(
                    spec, eps, d_weights, slack, x, 200)
                _agrees(lambda: exceptional._schmidt_sign(spec, eps, slack, x), schmidt,
                        1e-150)
                _agrees(lambda: exceptional._fw_sign(spec, d_weights, slack, x), fw, 1e-150)
                _agrees(lambda: exceptional._parametric_sign(spec, slack, x), parametric,
                        1e-150)


@pytest.mark.parametrize("w_index", [0, 1])
def test_irrational_tie_stays_indeterminate_and_a_slack_decides_it(w_index):
    """The forms sqrt2 x0 and sqrt2 x1 with eps = -2: at [1:2] the schmidt
    margin is 2 log 2 - log|sqrt2| - log|2 sqrt2| = 0, at either real
    place, a tie of irrational values that stays indeterminate at any
    mpmath working precision.  A slack of 10^-9 or -10^-9 decides it."""
    K = nf_create([-2, 0, 1])
    th = K.gen()
    spec = FormSystemSpec(K, [INF], {INF: [LinearForm(K, [th, 0]), LinearForm(K, [0, th])]},
                          w_choices={INF: w_index})
    x = [ProjectivePoint([1, 2])]
    for precision in (17, 40, 60):
        with mpmath.workdps(precision):
            ss = filter_solutions("schmidt", spec, points=x, epsilon=-2)
        assert ss.indeterminate == x and not ss.points
    up = filter_solutions("schmidt", spec, points=x, epsilon=-2, slack=Fraction(1, 10 ** 9))
    assert up.points == x and not up.indeterminate
    down = filter_solutions("schmidt", spec, points=x, epsilon=-2,
                            slack=-Fraction(1, 10 ** 9))
    assert not down.points and not down.indeterminate


def test_slack_is_read_as_a_rational():
    """slack, like epsilon, goes through Fraction once: "1/3", "0" and
    "-2/7" settle every filter as the rationals they spell, with the same
    digest."""
    spec = TwistedHeightSpec(RATIONALS, [INF, 2], {INF: _coordinate_forms(1),
                                                   2: _coordinate_forms(1)},
                             {INF: [1, -1], 2: [0, 0]}, epsilon="1/10", Q=2)
    pts = [ProjectivePoint(c) for c in ([1, 1], [1, 2], [2, 3], [4, 9])]
    for slack in ("1/3", "0", "-2/7"):
        for kind, kw in (("schmidt", {"epsilon": "3/10"}), ("fw", {"d_weights": [[0, 1], [1, 0]]}),
                         ("parametric", {})):
            got = filter_solutions(kind, spec, points=pts, slack=slack, **kw)
            want = filter_solutions(kind, spec, points=pts, slack=Fraction(slack), **kw)
            assert (got.points, got.indeterminate, got.spec_digest) == (
                want.points, want.indeterminate, want.spec_digest)


def _sunit_spec(s1, s2):
    """forms x0, x1, x0 + s1 x1 + s2 x2 at inf and the coordinates at 2 and 3."""
    coords = _coordinate_forms(2)
    return FormSystemSpec(RATIONALS, [INF, 2, 3], {
        INF: coords[:2] + [LinearForm(RATIONALS, [1, s1, s2])], 2: coords, 3: coords})


def _sunit_oracle(s1, s2, bound):
    """Integer brute force: on support iff x0 x1 x2 L(x) = 0, a solution iff
    P^2 > max|x_i| (x0 x1 L(x))^2 with P the {2,3}-part of |x0 x1 x2|, and
    indeterminate at equality."""
    sols, indet, supp = [], [], []
    for x in brute_points(2, bound):
        x0, x1, x2 = x
        L = x0 + s1 * x1 + s2 * x2
        if x0 * x1 * x2 * L == 0:
            supp.append(x)
            continue
        P, rest = 1, abs(x0 * x1 * x2)
        for p in (2, 3):
            while rest % p == 0:
                rest //= p
                P *= p
        lhs, rhs = P * P, max(map(abs, x)) * (x0 * x1 * L) ** 2
        if lhs > rhs:
            sols.append(x)
        elif lhs == rhs:
            indet.append(x)
    return sols, indet, supp


@pytest.mark.parametrize("s1, s2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_sunit_system_matches_integer_oracle(s1, s2):
    """The S = {inf, 2, 3} schmidt system at eps = 1/2, B = 12: each sign
    choice gives the oracle's buckets, 124 / 19 / 684."""
    ss = filter_solutions("schmidt", _sunit_spec(s1, s2), height_bound=12,
                          epsilon=Fraction(1, 2))
    got = tuple([p.coords for p in b] for b in (ss.points, ss.indeterminate, ss.support))
    assert got == _sunit_oracle(s1, s2, 12)
    assert tuple(map(len, got)) == (124, 19, 684)


# The greedy covers of linscat 0.1.0 for the four sign choices: the 20
# lines in order, and the line assigned to each solution in sorted order.
_SUNIT_COVERS = {
    (1, 1): (
        [(0, 1, 1), (1, 0, 1), (4, 4, 3), (4, 4, 5), (6, 6, 5), (3, 3, 2), (0, 3, 2),
         (2, 3, 2), (8, 8, 7), (3, 2, 2), (3, 0, 2), (8, 8, 9), (9, 9, 11), (4, 5, 4),
         (8, 7, 8), (1, 8, 0), (2, 1, 2), (3, 4, 4), (4, 3, 4), (0, 2, 3)],
        [12, 0, 0, 14, 0, 13, 3, 0, 0, 0, 0, 5, 2, 0, 5, 0, 4, 0, 6, 8, 0, 2, 0, 4, 0,
         3, 0, 9, 9, 8, 0, 9, 5, 19, 1, 2, 1, 6, 4, 3, 6, 14, 9, 0, 11, 2, 3, 4, 2, 16,
         1, 5, 1, 4, 3, 2, 7, 8, 6, 11, 6, 12, 17, 3, 4, 14, 5, 5, 1, 4, 1, 9, 8, 10,
         13, 6, 17, 2, 5, 5, 2, 7, 1, 3, 10, 8, 1, 7, 11, 10, 5, 13, 4, 3, 15, 1, 15,
         2, 1, 16, 10, 12, 2, 2, 4, 3, 2, 1, 8, 7, 1, 4, 1, 3, 7, 1, 18, 2, 18, 11, 7,
         1, 12, 1]),
    (1, -1): (
        [(0, 1, -1), (1, 0, -1), (4, 4, -3), (4, 4, -5), (6, 6, -5), (3, 3, -2),
         (0, 3, -2), (2, 3, -2), (8, 8, -7), (3, 2, -2), (3, 0, -2), (8, 8, -9),
         (9, 9, -11), (4, 5, -4), (8, 7, -8), (1, 8, 0), (2, 1, -2), (3, 4, -4),
         (4, 3, -4), (0, 2, -3)],
        [0, 12, 0, 13, 0, 14, 0, 3, 0, 0, 0, 5, 0, 2, 0, 5, 0, 4, 0, 8, 6, 0, 2, 3, 0,
         4, 0, 9, 0, 8, 9, 9, 5, 19, 1, 1, 2, 6, 3, 4, 6, 14, 0, 9, 11, 2, 4, 3, 2, 16,
         1, 1, 5, 3, 4, 2, 6, 8, 7, 11, 12, 6, 17, 4, 3, 14, 5, 5, 1, 1, 4, 10, 8, 9,
         13, 6, 17, 2, 5, 5, 2, 7, 3, 1, 1, 8, 10, 7, 11, 10, 5, 13, 3, 4, 15, 1, 15,
         1, 2, 16, 12, 10, 2, 2, 3, 4, 2, 7, 8, 1, 1, 3, 1, 4, 1, 7, 18, 2, 18, 11, 7,
         12, 1, 1]),
    (-1, 1): (
        [(0, 1, -1), (1, 0, 1), (4, -4, 3), (4, -4, 5), (6, -6, 5), (3, -3, 2),
         (0, 3, -2), (2, -3, 2), (8, -8, 7), (3, -2, 2), (3, -4, 4), (4, -3, 4),
         (8, -8, 9), (4, -5, 4), (8, -7, 8), (0, 9, 1), (2, -2, 1), (3, -24, 8),
         (15, -36, 14), (0, 3, -4)],
        [0, 4, 0, 3, 2, 0, 6, 8, 0, 4, 0, 5, 0, 2, 0, 5, 0, 0, 0, 3, 0, 14, 0, 13, 0,
         19, 0, 9, 0, 14, 6, 4, 3, 6, 2, 1, 1, 16, 5, 9, 9, 8, 0, 9, 6, 11, 12, 7, 8,
         6, 2, 4, 3, 5, 1, 1, 16, 2, 3, 4, 2, 12, 10, 6, 13, 9, 8, 10, 4, 1, 1, 5, 5,
         14, 3, 4, 10, 11, 12, 7, 18, 8, 1, 1, 3, 7, 2, 5, 5, 2, 17, 10, 17, 2, 1, 15,
         1, 18, 4, 3, 13, 5, 11, 7, 1, 4, 1, 3, 1, 1, 8, 7, 2, 4, 3, 2, 2, 1, 1, 15, 7,
         12, 11, 2]),
    (-1, -1): (
        [(0, 1, 1), (1, 0, -1), (4, -4, -3), (4, -4, -5), (6, -6, -5), (3, -3, -2),
         (0, 3, 2), (2, -3, -2), (8, -8, -7), (3, -2, -2), (3, -4, -4), (4, -3, -4),
         (8, -8, -9), (4, -5, -4), (8, -7, -8), (0, 9, -1), (2, -2, -1), (3, -24, -8),
         (15, -36, -14), (0, 3, 4)],
        [0, 3, 0, 4, 0, 2, 0, 8, 6, 0, 4, 0, 5, 0, 2, 5, 0, 0, 0, 0, 3, 13, 0, 14, 0,
         0, 19, 0, 9, 14, 6, 3, 4, 6, 1, 2, 1, 16, 5, 9, 0, 8, 9, 9, 11, 6, 12, 6, 8,
         7, 2, 3, 4, 1, 5, 1, 16, 2, 4, 3, 2, 12, 10, 6, 13, 10, 8, 9, 1, 4, 1, 5, 5,
         14, 4, 3, 10, 11, 12, 7, 1, 8, 18, 3, 1, 7, 2, 5, 5, 2, 10, 17, 17, 1, 2, 18,
         1, 15, 3, 4, 13, 5, 11, 1, 7, 3, 1, 4, 1, 7, 8, 1, 2, 3, 4, 2, 2, 1, 15, 1, 7,
         12, 11, 2]),
}


@pytest.mark.parametrize("s1, s2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_sunit_cover_is_pinned(s1, s2):
    """The S = {inf, 2, 3} system at eps = 1/2, B = 12: its 124 solutions,
    above EXACT_COVER_CAP, get the greedy cover of linscat 0.1.0."""
    ss = filter_solutions("schmidt", _sunit_spec(s1, s2), height_bound=12,
                          epsilon=Fraction(1, 2))
    cover = subspace_cover(ss, mode="exact")
    lines, assigned = _SUNIT_COVERS[s1, s2]
    assert cover.mode == "greedy"
    assert [sub.equations for sub in cover.subspaces] == [(eq,) for eq in lines]
    assert [cover.assignment[p] for p in ss.points] == assigned


def test_exact_sign_cost_does_not_grow_with_the_denominator_of_eps():
    """At eps = 1/10^12 the point [3:1:-2] of the sunit system has P = 6/6
    and the margin -eps log 3, inside the float pre-check's bound.  Its
    exact sign is read off a coprime basis and an interval enclosure, with
    no power raised to the 10^12th, and every verdict of the B = 12 pass
    is the 40-digit one wherever that is decided."""
    spec = _sunit_spec(1, 1)
    eps = Fraction(1, 10 ** 12)
    x = ProjectivePoint([3, 1, -2])
    assert abs(-float(eps) * math.log(3)) <= heights._CHECK * (1 + 2 * math.log(6))
    ss = filter_solutions("schmidt", spec, height_bound=12, epsilon=eps)
    assert x not in ss.points and x not in ss.indeterminate
    band = 1e-30  # a 40-digit margin's tolerance
    floats = [], [], []
    for p in enumerate_points(2, 12):
        try:
            m = _reference_margins(spec, eps, None, 0, p, 40)[0]()
        except errors.OnSupport:
            floats[2].append(p)
            continue
        if abs(m) <= band:
            floats[1].append(p)
        elif m > 0:
            floats[0].append(p)
    assert x not in floats[0] + floats[1]
    sols, indet = set(ss.points), set(ss.indeterminate)
    assert set(floats[0]) <= sols <= set(floats[0] + floats[1])
    assert indet <= set(floats[1]) and ss.support == floats[2]


def test_exact_log_sign_needs_no_large_powers():
    """Exponents with denominators of 12 and 100 digits: an exact tie, a
    margin of -eps log 3, and a near tie of size 1.5e-11."""
    big = 10 ** 100 + 1
    assert heights._exact_log_sign(((Fraction(big, 2), 4), (-big, 2))) == 0
    assert heights._exact_log_sign(
        ((Fraction(-1, 10 ** 100), 3), (1, 6), (-1, 6))) == -1
    h = 10 ** 11 + 1
    assert heights._exact_log_sign(
        ((2 - Fraction(1, 10 ** 12), h), (-1, h - 1), (-1, h))) == -1
    assert heights._exact_log_sign(
        ((2 - Fraction(1, 10 ** 12), h), (-1, h - 1), (-1, h), (-1, 1))) == -1


@pytest.mark.parametrize("kwargs", [
    {"epsilon": 10 ** 400}, {"epsilon": -10 ** 400},
    {"epsilon": Fraction(3, 10), "slack": 10 ** 400},
    {"epsilon": Fraction(3, 10), "slack": -10 ** 400}])
def test_height_bound_past_the_double_range(kwargs):
    """An eps or a slack past the range of a double cannot be handed to the
    float prefilter: the height-bound route settles every point up to the
    bound and gives the buckets of the explicit enumeration."""
    spec = FormSystemSpec(RATIONALS, [INF], {INF: _coordinate_forms(1)})
    bounded = filter_solutions("schmidt", spec, height_bound=30, **kwargs)
    explicit = filter_solutions("schmidt", spec, points=enumerate_points(1, 30), **kwargs)
    assert bounded.points == explicit.points
    assert bounded.indeterminate == explicit.indeterminate
    assert bounded.support == explicit.support
    assert bounded.spec_digest == explicit.spec_digest


@pytest.mark.parametrize("eps", [10 ** 400, -10 ** 400])
def test_exact_signs_past_the_double_range(eps):
    """An eps past the range of a double skips the float pre-check and is
    settled exactly: [1:1] is a tie, and [1:2] and [2:3] are solutions
    exactly when eps < 0, for schmidt and, with zero weights, parametric."""
    forms = {INF: _coordinate_forms(1)}
    pts = [ProjectivePoint(c) for c in ([1, 1], [1, 2], [2, 3])]
    ss = filter_solutions("schmidt", FormSystemSpec(RATIONALS, [INF], forms),
                          points=pts, epsilon=eps)
    assert ss.indeterminate == pts[:1]
    assert ss.points == (pts[1:] if eps < 0 else [])
    spec = TwistedHeightSpec(RATIONALS, [INF], forms, {INF: [0, 0]}, epsilon=eps, Q=2)
    ps = filter_solutions("parametric", spec, points=pts)
    assert ps.points == (pts if eps < 0 else [])
