"""Seeded inputs, runners and independent oracles for the benchmark workloads.

Each workload class builds its inputs from a seed in ``__init__`` (the set-up
that ``setup_s`` measures), runs one timed pass in ``run_once`` through
linscat's public functions, and counts disagreements with an oracle that
shares no code with linscat in ``mismatches``.  Calls go through module
attributes (``exceptional.filter_solutions``, not a name bound at import) so
the tracer's wrappers see them.

Why these three workloads:

* roth_stream -- the paper's Roth desk-scale experiment through the CLI.
  About three quarters of the time is the float prefilter scan over all
  ``1 + B(2B+1)`` tuples; recheck, form evaluation and cover do almost
  nothing, so it moves with enumeration changes and not with evaluation
  changes.
* sunit_cover -- Schmidt subspace filtering with ``S = {inf, 2, 3}``.  The
  prefilter is skipped, every point is rechecked exactly with mpmath and the
  p-adic exponents, and a greedy cover by lines follows; the time splits about
  evenly between recheck and cover.
* twisted_identity -- criterion-03 style twisted-height identity reports at
  precision 17: the float path of the same form-evaluation layer, with no
  enumeration, prefilter or cover.
"""

import json
import math
import os
import random
from fractions import Fraction
from time import perf_counter_ns

import mpmath

from linscat import cli, exceptional, fieldarith, heights, twisted
from linscat.errors import LinscatError, OnSupport
from linscat.places import INF, places_above

RESIDUAL_TOL = 1e-9


def _digest(obj):
    return json.dumps(obj, sort_keys=True, default=str)


def _mobius(n):
    mu = [1] * (n + 1)
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for m in range(2 * p, n + 1, p):
            composite[m] = True
        for m in range(p, n + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def p1_point_count(bound):
    """Points of P^1(Q) with height <= bound, by a Moebius sum: [0:1], [1:0]
    and two signs for each coprime pair 1 <= a, b <= bound."""
    mu = _mobius(bound)
    coprime = sum(mu[k] * (bound // k) ** 2 for k in range(1, bound + 1))
    return 2 + 2 * coprime


def _set_mismatch(got, want):
    return len(set(map(tuple, got)) ^ set(map(tuple, want)))


# ---------------------------------------------------------------------------

class RothStream:
    """``linscat solve`` on ``|x1 - sqrt(d) x0| * x0 <= H(x)^(-3/10)``, P^1,
    ``S = {inf}``, slack 0, height bound 2000; the seed picks d."""

    name = "roth_stream"
    OP = "one `linscat solve` call through cli.main"
    PER_CALL_LATENCY = False
    D_CHOICES = (2, 3, 5, 6, 7)
    BOUND = 2000
    EPS = Fraction(3, 10)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.d = rng.choice(self.D_CHOICES)
        self.params = {"field": "Q(sqrt %d)" % self.d, "S": ["inf"], "n": 1,
                       "epsilon": str(self.EPS), "slack": "0",
                       "height_bound": self.BOUND, "cover_mode": "exact",
                       "precision": 17}
        self.config = {
            "mode": "schmidt",
            "field": [-self.d, 0, 1],
            "S": ["inf"],
            "w_choices": {"inf": 1},
            "forms": {"inf": [[["0", "-1"], ["1", "0"]],
                              [["1", "0"], ["0", "0"]]]},
            "epsilon": str(self.EPS),
            "slack": "0",
            "height_bound": self.BOUND,
            "cover_mode": "exact",
            "precision": 17,
        }
        os.makedirs(workdir, exist_ok=True)
        self.config_path = os.path.join(workdir, "roth_stream.json")
        self.outdir = os.path.join(workdir, "roth_stream_out")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, sort_keys=True)
        self.points = p1_point_count(self.BOUND)
        self.computed = {
            "kernels.prefilter.tuples": 1 + self.BOUND * (2 * self.BOUND + 1),
            "points_settled": self.points,
        }

    def input_digest(self):
        return _digest(self.config)

    def oracle(self):
        """Two nearest p per q at 80 digits: a solution has
        |p - sqrt(d) q| q <= H^(-eps) <= 1, so |p - sqrt(d) q| <= 1/q."""
        sols = []
        with mpmath.workdps(80):
            theta = mpmath.sqrt(self.d)
            for q in range(1, self.BOUND + 1):
                base = int(mpmath.floor(theta * q))
                for p in (base, base + 1):
                    if p > self.BOUND or math.gcd(q, p) != 1:
                        continue
                    mx = max(q, p)
                    if abs(p - theta * q) * q <= mpmath.mpf(mx) ** (-self.EPS):
                        sols.append((q, p))
        self.expected = sorted(sols)

    def run_once(self, calls=None, clock=None):
        code = cli.main(["solve", "--config", self.config_path,
                         "--out", self.outdir])
        with open(os.path.join(self.outdir, "solve.json")) as fh:
            doc = json.load(fh)
        return {
            "exit": code,
            "solutions": doc["solutions"],
            "indeterminate": doc["indeterminate"],
            "support": doc["support"],
            "cover_size": len(doc.get("cover", {}).get("subspaces", [])),
        }

    def mismatches(self, out):
        return (_set_mismatch(out["solutions"], self.expected)
                + len(out["indeterminate"]) + (out["exit"] != 0))

    def summary(self, out):
        k = len(out["solutions"])
        return {"solutions": k, "indeterminate": len(out["indeterminate"]),
                "support": len(out["support"]), "cover_points": k,
                "cover_size": out["cover_size"],
                "cover_candidate_spans": k}


# ---------------------------------------------------------------------------

class SunitCover:
    """``filter_solutions("schmidt")`` then ``subspace_cover`` over Q with
    ``S = {inf, 2, 3}`` on P^2: forms ``x0, x1, x0 +- x1 +- x2`` at inf and
    the coordinates at 2 and 3; eps 1/2, slack 0, height bound 12.  The seed
    picks the two signs; every choice is the same problem up to a sign change
    of a coordinate, so the point, solution and cover counts agree."""

    name = "sunit_cover"
    OP = "one filter_solutions + subspace_cover request"
    PER_CALL_LATENCY = False
    BOUND = 12
    EPS = Fraction(1, 2)
    # Greedy cover size of linscat 0.1.0, the same for all four sign choices.
    REFERENCE_COVER_SIZE = 20

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        s1, s2 = self.signs
        field = fieldarith.nf_create([0, 1])
        coords = [heights.LinearForm(field, [1 if j == i else 0 for j in range(3)])
                  for i in range(3)]
        form_L = heights.LinearForm(field, [1, s1, s2])
        self.spec = exceptional.FormSystemSpec(
            field, [INF, 2, 3],
            {INF: [coords[0], coords[1], form_L], 2: coords, 3: coords})
        self.spec.places()
        self.params = {"field": "Q", "S": ["inf", 2, 3], "n": 2,
                       "forms_inf": "x0, x1, x0 %+d x1 %+d x2" % (s1, s2),
                       "forms_p": "x0, x1, x2", "epsilon": str(self.EPS),
                       "slack": "0", "height_bound": self.BOUND,
                       "cover_mode": "exact", "precision": 17}
        self.points = None

    def input_digest(self):
        return _digest(self.params)

    def oracle(self):
        """Exact integer verdicts: on support iff x0 x1 x2 L(x) = 0, a
        solution iff P^2 > max|x_i| (x0 x1 L(x))^2 with P the {2,3}-part of
        |x0 x1 x2|, indeterminate exactly at equality."""
        s1, s2 = self.signs
        B = self.BOUND
        sols, indet, supp = [], [], []
        count = 0
        rng = range(-B, B + 1)
        for x in ((a, b, c) for a in rng for b in rng for c in rng):
            if not any(x) or next(v for v in x if v) < 0 \
                    or math.gcd(*x) != 1:
                continue
            count += 1
            x0, x1, x2 = x
            L = x0 + s1 * x1 + s2 * x2
            if x0 * x1 * x2 * L == 0:
                supp.append(x)
                continue
            P = 1
            rest = abs(x0 * x1 * x2)
            for p in (2, 3):
                while rest % p == 0:
                    rest //= p
                    P *= p
            lhs, rhs = P * P, max(map(abs, x)) * (x0 * x1 * L) ** 2
            if lhs > rhs:
                sols.append(x)
            elif lhs == rhs:
                indet.append(x)
        self.expected = (sorted(sols), sorted(indet), sorted(supp))
        self.points = count
        self.computed = {"points_settled": count}

    def run_once(self, calls=None, clock=None):
        ss = exceptional.filter_solutions(
            "schmidt", self.spec, height_bound=self.BOUND, epsilon=self.EPS,
            slack=0)
        cover = exceptional.subspace_cover(ss, mode="exact")
        return {
            "solutions": [p.coords for p in ss.points],
            "indeterminate": [p.coords for p in ss.indeterminate],
            "support": [p.coords for p in ss.support],
            "cover": [sub.equations for sub in cover.subspaces],
            "assignment": {p.coords: i for p, i in cover.assignment.items()},
        }

    def mismatches(self, out):
        sols, indet, supp = self.expected
        bad = (_set_mismatch(out["solutions"], sols)
               + _set_mismatch(out["indeterminate"], indet)
               + _set_mismatch(out["support"], supp))
        cover, assignment = out["cover"], out["assignment"]
        for x in out["solutions"]:
            i = assignment.get(tuple(x))
            eqs = cover[i] if i is not None and 0 <= i < len(cover) else ()
            if not eqs or any(sum(e * c for e, c in zip(eq, x)) for eq in eqs):
                bad += 1
        if len(cover) > self.REFERENCE_COVER_SIZE:
            bad += 1
        return bad

    def summary(self, out):
        k = len(out["solutions"])
        return {"solutions": k, "indeterminate": len(out["indeterminate"]),
                "support": len(out["support"]), "cover_points": k,
                "cover_size": len(out["cover"]),
                "cover_candidate_spans": k + k * (k - 1) // 2}


# ---------------------------------------------------------------------------

class TwistedIdentity:
    """Criterion-03 generator: random twisted-height specs over Q, Q(sqrt2)
    and Q(i), n in {1, 2}, S = inf plus 0-2 of {2, 3, 5, 7}, Q cycling
    through {1, 2, 10, 1000}, 100 random points with |x_i| <= 500 per spec;
    ``log_twisted_report`` at precision 17.

    Unlike the criterion, the spec shapes are not drawn: the 66 specs are the
    3 fields x 2 values of n x 11 sets of finite places, with the random forms
    at the first finite place and the coordinate forms at the second.  Their
    coefficients, weights and epsilon are drawn once, from SPEC_SEED, and the
    seed draws the points.  The top 1% of reports is about one spec's worth,
    so specs drawn per seed moved op_p99_ms with the seed (an interquartile
    spread of 0.17 of the median over ten seeds) rather than with the code."""

    name = "twisted_identity"
    OP = "one log_twisted_report call"
    PER_CALL_LATENCY = True
    FINITE_PLACES = ((), (2,), (3,), (5,), (7,), (2, 3), (2, 5), (2, 7),
                     (3, 5), (3, 7), (5, 7))
    SPECS = 6 * len(FINITE_PLACES)
    POINTS_PER_SPEC = 100
    COORD = 500
    Q_CYCLE = (1, 2, 10, 1000)
    SPEC_SEED = 3

    def __init__(self, seed, workdir):
        spec_rng, rng = random.Random(self.SPEC_SEED), random.Random(seed)
        fields = [fieldarith.nf_create([0, 1]), fieldarith.nf_create([-2, 0, 1]),
                  fieldarith.nf_create([1, 0, 1])]
        self.cases = []
        for k in range(self.SPECS):
            spec = self._random_spec(spec_rng, fields[k % 3], 1 + k // 3 % 2,
                                     self.FINITE_PLACES[k // 6],
                                     self.Q_CYCLE[k % 4])
            spec.places()
            pts = []
            for _ in range(self.POINTS_PER_SPEC):
                coords = [rng.randint(-self.COORD, self.COORD)
                          for _ in range(spec.n + 1)]
                if not any(coords):
                    coords[0] = 1
                pts.append(heights.ProjectivePoint(coords))
            self.cases.append((spec, pts))
        self.points = self.SPECS * self.POINTS_PER_SPEC
        self.params = {"fields": ["Q", "Q(sqrt2)", "Q(i)"], "n": [1, 2],
                       "S": "inf + each set of 0-2 of {2,3,5,7}",
                       "Q": list(self.Q_CYCLE),
                       "specs": self.SPECS, "spec_seed": self.SPEC_SEED,
                       "points_per_spec": self.POINTS_PER_SPEC,
                       "coord_bound": self.COORD, "precision": 17}
        self.computed = {"points_settled": self.points}

    @staticmethod
    def _random_spec(rng, field, n, primes, Q):
        while True:
            forms = []
            for _ in range(n + 1):
                coeffs = []
                for _j in range(n + 1):
                    if field.degree > 1 and rng.random() < 0.4:
                        coeffs.append(field.element(
                            [Fraction(rng.randint(-4, 4))
                             for _ in range(field.degree)]))
                    else:
                        coeffs.append(field.from_rational(rng.randint(-4, 4)))
                if not any(coeffs):
                    coeffs[0] = field.one()
                forms.append(heights.LinearForm(field, coeffs))
            coord_forms = [heights.LinearForm(
                field, [1 if j == i else 0 for j in range(n + 1)])
                for i in range(n + 1)]
            S = [INF, *primes]
            fdict = dict(zip(S, [forms, forms, coord_forms]))
            wdict = {}
            for v in S:
                row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                       for _ in range(n)]
                row.append(-sum(row))
                wdict[v] = row
            try:
                return twisted.TwistedHeightSpec(
                    field, S, fdict, wdict,
                    epsilon=Fraction(rng.randint(1, 5), 10), Q=Q,
                    w_choices={INF: len(places_above(field, INF, 30)) - 1})
            except LinscatError:
                continue

    def input_digest(self):
        return _digest([
            (spec.field.min_poly, spec.S, str(spec.Q), str(spec.epsilon),
             {str(v): [[str(c.coeffs) for c in f.coeffs] for f in fs]
              for v, fs in spec.forms.items()},
             {str(v): [str(c) for c in ws] for v, ws in spec.weights.items()},
             [p.coords for p in pts])
            for spec, pts in self.cases])

    def oracle(self):
        """Nothing to precompute: each report carries its own identity
        residual, checked against RESIDUAL_TOL."""
        self.expected = None

    def run_once(self, calls=None, clock=perf_counter_ns):
        """Reports in order; ``None`` marks a point on the support.  When
        ``calls`` is a list, each report's (start, end) on ``clock`` is
        appended to it."""
        results = []
        for spec, pts in self.cases:
            for x in pts:
                t0 = clock()
                try:
                    rep = twisted.log_twisted_report(spec, x)
                except OnSupport:
                    rep = None
                if calls is not None:
                    calls.append((t0, clock()))
                results.append(None if rep is None else
                               (rep["verdict"], rep["lhs"], rep["rhs"],
                                rep["identity_residual"]))
        return results

    def mismatches(self, out):
        return sum(1 for r in out
                   if r is not None and not r[3] <= RESIDUAL_TOL)

    def summary(self, out):
        return {"solutions": 0, "indeterminate": 0,
                "support": sum(1 for r in out if r is None),
                "cover_points": 0, "cover_size": 0, "cover_candidate_spans": 0}


WORKLOADS = {w.name: w for w in (RothStream, SunitCover, TwistedIdentity)}
