"""Acceptance suite: ten numbered end-to-end criteria, one test (and one
pass/fail line under pytest -v) per criterion.  Tolerances and runtime
budgets are pinned in each test."""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import sympy

from linscat import errors, kernels, nf_create, product_formula_defect
from linscat.exceptional import (
    FormSystemSpec,
    enumerate_points,
    filter_solutions,
    subspace_cover,
)
from linscat.fieldarith import RATIONALS
from linscat.heights import (
    LinearForm,
    ProjectivePoint,
    height_weil_defect,
    weil_hyperplane,
)
from linscat.places import INF, places_above
from linscat.ruvojta import filtration_dims, gamma_beta, h0_twist, monomial_weights
from linscat.scattering import (
    classify_solution,
    fw_weights,
    scatter_partition,
    simplex_cover,
    simplex_select,
    type1_simplex_c,
    type2_simplex_c,
)
from linscat.twisted import TwistedHeightSpec, log_twisted_report


def coord_forms(field, n):
    out = []
    for i in range(n + 1):
        cs = [0] * (n + 1)
        cs[i] = 1
        out.append(LinearForm(field, cs))
    return out


# ---------------------------------------------------------------------------
# 1. product formula

def test_criterion_01_product_formula():
    rng = random.Random(11)
    t0 = time.monotonic()
    q = RATIONALS
    for _ in range(1000):
        val = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        if val == 0:
            continue
        assert product_formula_defect(q, val) < 1e-12
    for mp in ([-2, 0, 1], [1, 0, 1]):
        K = nf_create(mp)
        done = 0
        while done < 500:
            a = K.element([Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                           for _ in range(2)])
            if not a:
                continue
            assert product_formula_defect(K, a) < 1e-12
            done += 1
    assert time.monotonic() - t0 < 30


# ---------------------------------------------------------------------------
# 2. height-Weil decomposition

def test_criterion_02_height_weil_decomposition():
    t0 = time.monotonic()
    # P^1: every point of height <= 100 with x_0 != 0, full identity check
    for a, b in kernels.enum_p1(100):
        if a == 0:
            continue
        assert height_weil_defect(ProjectivePoint((a, b))) < 1e-10

    # P^2 (~3.4M points): the x_0-presentation terms depend on the point
    # only through x_0 and max|x_i|, so per-x_0 finite parts are computed
    # once through weil_hyperplane and reused; a random subsample is then
    # cross-checked against the full per-point identity.
    x0 = LinearForm(RATIONALS, [1, 0, 0])
    finite = [0.0] * 101
    for a in range(2, 101):
        rep = ProjectivePoint((a, 1, 0))
        finite[a] = math.fsum(weil_hyperplane(x0, rep, p)
                              for p in sympy.factorint(a))
    loga = [0.0] + [math.log(a) for a in range(1, 101)]
    log = math.log
    pts = kernels.enum_p2(100)
    worst = 0.0
    for x0, x1, x2 in pts:
        if x0 == 0:
            continue
        mx = max(x0, x1 if x1 >= 0 else -x1, x2 if x2 >= 0 else -x2)
        lm = log(mx)
        d = (lm - loga[x0] + finite[x0]) - lm
        if d < 0:
            d = -d
        if d > worst:
            worst = d
    assert worst < 1e-10

    rng = random.Random(17)
    for x0, x1, x2 in rng.sample(pts, 2000):
        if x0 == 0:
            continue
        x = ProjectivePoint((x0, x1, x2))
        full = height_weil_defect(x)
        assert full < 1e-10
        mx = max(abs(c) for c in x.coords)
        fast = abs((log(mx) - loga[x0] + finite[x0]) - log(mx))
        assert abs(full - fast) < 1e-12
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 3. twisted-height identity

def _random_twisted_spec(rng, fields, Q):
    while True:
        field = rng.choice(fields)
        n = rng.choice([1, 2])
        forms = []
        for _ in range(n + 1):
            coeffs = []
            for _j in range(n + 1):
                if field.degree > 1 and rng.random() < 0.4:
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
            fdict[v] = forms if v == INF or rng.random() < 0.5 \
                else coord_forms(field, n)
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for _ in range(n)]
            row.append(-sum(row))
            wdict[v] = row
        try:
            return TwistedHeightSpec(
                field, S, fdict, wdict,
                epsilon=Fraction(rng.randint(1, 5), 10), Q=Q,
                w_choices={INF: len(places_above(field, INF, 30)) - 1})
        except errors.LinscatError:
            continue


def test_criterion_03_twisted_identity():
    rng = random.Random(19)
    fields = [RATIONALS, nf_create([-2, 0, 1]), nf_create([1, 0, 1])]
    t0 = time.monotonic()
    worst = 0.0
    for k in range(200):
        Q = (1, 2, 10, 1000)[k % 4]
        spec = _random_twisted_spec(rng, fields, Q)
        for _ in range(200):
            coords = [rng.randint(-500, 500) for _ in range(spec.n + 1)]
            if not any(coords):
                coords[0] = 1
            try:
                rep = log_twisted_report(spec, ProjectivePoint(coords))
            except errors.OnSupport:
                continue
            worst = max(worst, rep["identity_residual"])
    assert worst <= 1e-9
    assert time.monotonic() - t0 < 120


# ---------------------------------------------------------------------------
# 4. Roth desk-scale experiment

def _roth_oracle(bound, eps):
    """Brute force: a solution needs |p - sqrt2 q| q <= max(q,|p|)^(-eps)
    <= 1, hence |p - sqrt2 q| <= 1/q and only the two integers nearest
    sqrt2 q can qualify for each q."""
    sols = []
    with mpmath.workdps(80):
        s2 = mpmath.sqrt(2)
        for q in range(1, bound + 1):
            base = int(mpmath.floor(s2 * q))
            for p in (base, base + 1):
                if p > bound or math.gcd(q, p) != 1:
                    continue
                mx = max(q, p)
                if abs(p - s2 * q) * q <= mpmath.mpf(mx) ** (-eps):
                    sols.append((q, p))
    return sorted(sols)


def _sqrt2_cf_fractions(bound):
    """Convergents and first intermediate fractions of sqrt2 = [1; 2, 2, ...]
    with denominator at most ``bound``, as two sets of (q, p).

    The convergents p_m/q_m follow p_m = 2 p_{m-1} + p_{m-2} (likewise q_m)
    from p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 1/1.  The intermediate fractions
    are (p_m + p_{m-1})/(q_m + q_{m-1}) for m >= 0; the first is 2/1.

    Legendre: if |q sqrt2 - p| q < 1/2 then p/q is a convergent.
    Fatou-Grace: if |q sqrt2 - p| q < 1 then p/q is a convergent or one of
    (p_{m+1} +- p_m)/(q_{m+1} +- q_m).  Every partial quotient after a_0 is
    2, so p_{m+1} - p_m = p_m + p_{m-1} and p_{m+1} + p_m = p_{m+2} - p_{m+1}:
    both are intermediate fractions as above."""
    convergents, intermediates = set(), set()
    p0, q0, p1, q1 = 1, 0, 1, 1
    while q1 <= bound:
        convergents.add((q1, p1))
        if q0 + q1 <= bound:
            intermediates.add((q1 + q0, p1 + p0))
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return convergents, intermediates


def _roth_cf_strays(coords, bound):
    """Points (q, p) of ``coords`` that break (a) Legendre's criterion or
    (b) the Fatou-Grace theorem for sqrt2, as two lists."""
    convergents, intermediates = _sqrt2_cf_fractions(bound)
    legendre, fatou = [], []
    with mpmath.workdps(80):
        s2 = mpmath.sqrt(2)
        for q, p in coords:
            if (abs(p - s2 * q) * q < mpmath.mpf(1) / 2
                    and (q, p) not in convergents):
                legendre.append((q, p))
            if (q, p) not in convergents and (q, p) not in intermediates:
                fatou.append((q, p))
    return legendre, fatou


def test_criterion_04_roth_experiment():
    K = nf_create([-2, 0, 1])
    th = K.gen()
    spec = FormSystemSpec(
        K, [INF], {INF: [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])]},
        w_choices={INF: 1})
    t0 = time.monotonic()
    ss = filter_solutions("schmidt", spec, height_bound=10 ** 4,
                          epsilon=Fraction(3, 10), slack=0)
    assert time.monotonic() - t0 < 300
    assert len(ss.points) > 0
    assert not ss.indeterminate
    assert [x.coords for x in ss.points] == _roth_oracle(10 ** 4, Fraction(3, 10))
    # A solution has |p - sqrt2 q| q <= max(q, p)^(-eps) <= 1, with equality
    # ruled out by irrationality, so Fatou-Grace applies to every one; only
    # those below 1/2 must be convergents.  [1:2] (0.586) is the
    # intermediate fraction 2/1.
    legendre, fatou = _roth_cf_strays([x.coords for x in ss.points], 10 ** 4)
    assert not legendre, (
        "(a) solution points %r have |p - sqrt2 q| q < 1/2 but are not "
        "convergents of sqrt2 (Legendre)" % (legendre,))
    assert not fatou, (
        "(b) solution points %r are neither convergents nor intermediate "
        "fractions of sqrt2 (Fatou-Grace)" % (fatou,))


# ---------------------------------------------------------------------------
# 5. simplex covering

def test_criterion_05_simplex_select_exact():
    rng = random.Random(23)
    t0 = time.monotonic()
    covers = {}
    for _ in range(1000):
        i_size = rng.randint(1, 6)
        c = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)])
        if (c, i_size) not in covers:
            covers[(c, i_size)] = simplex_cover(c, i_size)
        cov = covers[(c, i_size)]
        b = [Fraction(rng.randint(0, 60), rng.randint(1, 11))
             for _ in range(i_size)]
        if not any(b):
            b[0] = Fraction(1)
        a = simplex_select(b, cov)
        assert sum(a) == c
        assert cov.contains(a)
        B = sum(b)
        for bj, aj in zip(b, a):
            assert bj >= aj * B
    assert time.monotonic() - t0 < 30


# ---------------------------------------------------------------------------
# 6. scattering machinery

def _gen_type1(rng, n, eps, s, h):
    col = [Fraction(rng.randint(1, 20)) for _ in range(s)]
    target = (n + 1 + eps) * h * (1 + Fraction(rng.randint(0, 8), 10))
    scale = target / sum(col)
    return [[col[v] * scale] + [Fraction(rng.randint(-3, 3), 7) * h
                                for _ in range(n)] for v in range(s)]


def _gen_type2(rng, n, eps, s, h):
    # lambda_vi = T (d_v/(n+1) + eta_vi) with T = (1+tau)(n+1+eps)h,
    # tau <= n/4 and |eta_vi| <= d_v tau / (2(n+1)(n-tau)); then no single
    # column reaches the Type I threshold, the total does, and every entry
    # dominates its e-weight times h exactly.
    tau = Fraction(rng.randint(1, 2 * n), 8)
    T = (1 + tau) * (n + 1 + eps) * h
    d_v = Fraction(1, s)
    bound = d_v * tau / (2 * (n + 1) * (n - tau))
    raw = [Fraction(rng.randint(-100, 100), 100) for _ in range(s * (n + 1))]
    mean = sum(raw) / len(raw)
    eta = [r - mean for r in raw]
    mx = max(abs(x) for x in eta)
    if mx:
        scl = bound / mx * Fraction(rng.randint(1, 4), 4)
        eta = [x * scl for x in eta]
    return [[T * (d_v / (n + 1) + eta[v * (n + 1) + i]) for i in range(n + 1)]
            for v in range(s)]


def test_criterion_06_scattering_classes():
    rng = random.Random(29)
    t0 = time.monotonic()
    total_profiles = 0
    for n, eps, s in itertools.product([1, 2],
                                       [Fraction(1, 10), Fraction(1, 3)],
                                       [1, 2]):
        profiles = {}
        batch = []
        for k in range(63):
            h = Fraction(rng.randint(1, 40), rng.randint(1, 5))
            kind = ("TypeI", "TypeII", "None")[k % 3]
            if kind == "TypeI":
                lam = _gen_type1(rng, n, eps, s, h)
            elif kind == "TypeII":
                lam = _gen_type2(rng, n, eps, s, h)
            else:
                lam = [[h / (2 * s * (n + 1))] * (n + 1) for _ in range(s)]
            label = "%s-%d" % (kind, k)
            profiles[label] = (kind, lam, h)
            batch.append((label, lam, h))
            cls = classify_solution(lam, h, n, eps)
            expect = kind if kind != "None" else "NotASolution"
            assert cls.kind == expect, (n, eps, s, k)
        total_profiles += len(batch)
        classes, rejected = scatter_partition(batch, n, eps, s)
        assert sorted(rejected) == sorted(
            lb for lb, (kd, _, _) in profiles.items() if kd == "None")
        for cl in classes:
            e = cl.e_weights
            assert e.total() > n + 1  # exact Fraction comparison
            tup_sum = sum(cl.a_or_b)
            if cl.class_kind == "TypeI":
                assert tup_sum == type1_simplex_c(n, eps)
                assert e.total() == (n + 1 + eps) * tup_sum
            else:
                assert tup_sum == type2_simplex_c(n, eps)
                assert e.total() == \
                    (n + 1) * (n + 1 + eps) * tup_sum - n * (n + 1 + eps)
            for label in cl.members:
                kind, lam, h = profiles[label]
                assert kind == cl.class_kind
                if kind == "TypeI":
                    for v in range(s):
                        assert lam[v][cl.anchor] >= e[v, 0] * h
                else:
                    for v in range(s):
                        for i in range(n + 1):
                            assert lam[v][i] >= e[v, i] * h
    assert total_profiles >= 500
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 7. FW reduction at the boundary

def test_criterion_07_fw_boundary():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        s = rng.choice([1, 2])
        # random d-matrix scaled to hit sum = n+1 exactly, then nudged
        d = [[Fraction(rng.randint(1, 9)) for _ in range(n + 1)]
             for _ in range(s)]
        tot = sum(sum(r) for r in d)
        at_boundary = [[x * (n + 1) / tot for x in row] for row in d]
        assert sum(sum(r) for r in at_boundary) == n + 1
        try:
            fw_weights(at_boundary)
            assert False, "boundary must not yield a positive epsilon"
        except errors.ThresholdNotMet:
            pass
        bump = Fraction(1, 1000)
        above = [[x * (n + 1 + bump) / tot for x in row] for row in d]
        eps, c = fw_weights(above)
        assert eps == bump / (n + 1)
        for row in c.entries:
            assert sum(row) == 0


# ---------------------------------------------------------------------------
# 8. P^n filtration constants

def test_criterion_08_filtration_constants():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        table, gamma, sup = gamma_beta(n, 50)
        assert gamma == n + 1 and sup == Fraction(1, n + 1)
        for m in range(1, 51):
            assert table[m] == n + 1
    rng = random.Random(37)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        m = rng.randint(1, 5)
        size = rng.randint(1, n + 1)
        sigma = rng.sample(range(n + 1), size)
        a = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(size)]
        prof = filtration_dims(n, m, sigma, a)
        assert prof.dim_at(0) == prof.total == h0_twist(n, m)
        drops = []
        for i, t in enumerate(prof.jump_values):
            nxt = prof.dims[i + 1] if i + 1 < len(prof.dims) else 0
            drops.append((t, prof.dims[i] - nxt))
        assert sum(t * k for t, k in drops) == sum(monomial_weights(n, m, sigma, a))
    assert time.monotonic() - t0 < 30


# ---------------------------------------------------------------------------
# 9. enumeration oracle

def test_criterion_09_enumeration_oracle():
    for n in (1, 2):
        for bound in (1, 3, 7, 12, 20):
            naive = set()
            for tup in itertools.product(range(-bound, bound + 1), repeat=n + 1):
                if not any(tup):
                    continue
                if next(c for c in tup if c) < 0:
                    continue
                if math.gcd(*[abs(c) for c in tup]) != 1:
                    continue
                naive.add(tup)
            pts = enumerate_points(n, bound)
            assert len(pts) == len(naive)
            assert {p.coords for p in pts} == naive


# ---------------------------------------------------------------------------
# 10. planted-cover recovery

def test_criterion_10_planted_cover():
    rng = random.Random(41)
    t0 = time.monotonic()
    for trial in range(10):
        # two random distinct lines through P^2 plus up to 3 generic points
        while True:
            l1 = tuple(rng.randint(-3, 3) for _ in range(3))
            l2 = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(l1) and any(l2) and span_rank(l1, l2) == 2:
                break
        pts = set()
        for line in (l1, l2):
            while len(pts) < (4 if line is l1 else 8):
                cand = point_on_line(rng, line)
                if cand is not None:
                    pts.add(cand)
        off = 0
        want_off = rng.randint(0, 3)
        while off < want_off:
            cand = tuple(rng.randint(-5, 5) for _ in range(3))
            if not any(cand):
                continue
            p = ProjectivePoint(cand)
            if line_value(l1, p) != 0 and line_value(l2, p) != 0 and p not in pts:
                pts.add(p)
                off += 1
        cover = subspace_cover(sorted(pts), mode="exact")
        assert len(cover) <= 5
        eqs = {s.equations for s in cover.subspaces}
        assert canon_line(l1) in eqs and canon_line(l2) in eqs
    assert time.monotonic() - t0 < 10


def span_rank(l1, l2):
    for i, j in itertools.combinations(range(3), 2):
        if l1[i] * l2[j] - l1[j] * l2[i]:
            return 2
    return 1


def line_value(line, p):
    return sum(a * c for a, c in zip(line, p.coords))


def point_on_line(rng, line):
    # a random point of the line a.x = 0: combine two basis solutions
    basis = []
    nz = next(i for i, a in enumerate(line) if a)
    for j in range(3):
        if j == nz:
            continue
        vec = [0, 0, 0]
        vec[j] = line[nz]
        vec[nz] = -line[j]
        basis.append(vec)
    u, v = rng.randint(-4, 4), rng.randint(-4, 4)
    coords = [u * b1 + v * b2 for b1, b2 in zip(*basis)]
    if not any(coords):
        return None
    return ProjectivePoint(coords)


def canon_line(line):
    g = math.gcd(*[abs(c) for c in line])
    ints = [c // g for c in line]
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
    return (tuple(ints),)
