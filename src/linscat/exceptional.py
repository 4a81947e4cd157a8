"""Bounded-height enumeration of P^n(Q), inequality filtering, and covers
of the resulting solution sets by proper linear subspaces.

The filter evaluates one of three inequality systems at every point:

* schmidt     sum over (v, i) of lambda_vi(x) >= (n+1+eps) h(x) - slack
* fw          lambda_vi(x) >= d_vi h(x) - slack for every (v, i)
* parametric  H_Q(x) <= Q^(-eps) (log margin <= slack)

Points on the support of some form are excluded and reported separately;
verdicts inside the floating error band are flagged indeterminate rather
than decided.  Every verdict is made by one loop, _settle, which evaluates
each margin once; q_sweep is the parametric filter at each Q.

Over Q with slack 0 each system compares rational powers of integers, so
its margin is exact: the margin is its sign, -1, 0 or 1, read off the
forms' integer rows (heights._exact_row) and decided by a float pre-check
with a proven error bound, or inside that bound exactly, over a coprime
basis of the integers (_exact_log_sign).  An exact margin is indeterminate
only at 0.  Number fields and
nonzero slack keep the mpmath margins.
"""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from . import kernels
from .errors import (BadParameter, BudgetExceeded, Infeasible, OnSupport,
                     PrecisionExhausted)
from .heights import ProjectivePoint, _exact_row
from .places import INF, arch_value, reals
from .twisted import (FormSystemSpec, TwistedHeightSpec, _lambda_matrix,
                      log_twisted_height)

DEFAULT_BUDGET = 20_000_000
EXACT_COVER_CAP = 25


# ---------------------------------------------------------------------------
# enumeration

def enumerate_points(n, height_bound, budget=DEFAULT_BUDGET):
    """All points of P^n(Q) with multiplicative height <= bound, in
    canonical (lexicographic) order."""
    if n < 1 or height_bound < 1:
        raise BadParameter("need n >= 1 and height_bound >= 1")
    if budget is not None and kernels.count(n, height_bound) > budget:
        raise BudgetExceeded("P^%d bound %d exceeds budget %d" % (n, height_bound, budget))
    return _points(kernels.enum(n, height_bound))


def _points(raw):
    """ProjectivePoints from primitive, canonically signed tuples, without
    re-normalizing them."""
    pts = [ProjectivePoint.__new__(ProjectivePoint) for _ in raw]
    for p, tup in zip(pts, raw):
        p.coords = tuple(tup)
    return pts


# ---------------------------------------------------------------------------
# inequality evaluation

class SolutionSet:
    """Filtered points in canonical order, plus the near-boundary and
    on-support buckets."""

    __slots__ = ("spec_digest", "points", "indeterminate", "support")

    def __init__(self, spec_digest, points, indeterminate, support):
        self.spec_digest = spec_digest
        self.points = points
        self.indeterminate = indeterminate
        self.support = support

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _digest(*parts):
    h = hashlib.sha256(repr(parts).encode())
    return h.hexdigest()[:16]


def _schmidt_margin(spec, epsilon, slack, x, dps):
    rows, lmx = _lambda_matrix(spec, x, dps)
    R = reals(dps)
    with R.guard(0):
        total = mpmath.fsum(v for row in rows for v in row)
        return total - ((spec.n + 1 + R.real(epsilon)) * lmx - slack)


def _fw_margin(spec, d_weights, slack, x, dps):
    rows, lmx = _lambda_matrix(spec, x, dps)
    R = reals(dps)
    with R.guard(0):
        worst = None
        for row, drow in zip(rows, d_weights):
            for lam, d in zip(row, drow):
                m = lam - (R.real(d) * lmx - slack)
                if worst is None or m < worst:
                    worst = m
        return worst


def _parametric_margin(spec, slack, x, dps):
    # slack - (log H_Q + eps log Q), negated last: Fraction - mpf is undefined
    R = reals(dps)
    with R.guard(0):
        lq = R.log(R.real(spec.Q))
        return -(log_twisted_height(spec, x, dps) + R.real(spec.epsilon) * lq - slack)


# Float pre-check of an exact sign.  For an integer N >= 1, math.log(N) is
# within 3u (1 + log N) of log N, u = 2^-53: CPython rounds N to a double,
# or splits a larger int as m 2^e, before libm's log, which is within an
# ulp.  That is within 8u log N for N >= 2, and exact for N = 1; float(r)
# and the product add 2u relative, so a term r log N is within 10u |term|.
# A float sum of k terms adds k u times mag, the sum of the |term|.  So for
# k < 8990 terms the computed sum is within _CHECK (1 + mag) of the true
# one, and a sum outside that bound has the true sign.  max and min are
# 1-Lipschitz, so a max of such sums is within the bound over all terms.
# The relative bounds hold in the double range; an underflow to 0 costs
# under 2^-1074 log N, which the 1 in the bound covers.  An r past the
# double range makes mag infinite, and a sum that is not finite never
# passes the check, so both go to the exact comparison.
_CHECK = 1e-12

# The exact comparison's interval arithmetic, in a context of its own so
# that setting its precision leaves mpmath.iv alone.
_IV = MPIntervalContext()


def _float_sum(terms):
    """(sum of r log N, sum of |r log N|) over (r, N) terms, in floats;
    (0.0, inf) when some r is past the double range."""
    total = mag = 0.0
    try:
        for r, N in terms:
            t = float(r) * math.log(N)
            total += t
            mag += abs(t)
    except OverflowError:
        return 0.0, math.inf
    return total, mag


def _coprime_basis(ns):
    """Pairwise coprime integers > 1 whose products give every n >= 1 in ns.
    Each split of m and b by g = gcd(m, b) > 1 into g, m/g and b/g divides
    the product of all pending numbers by g, so the loop ends."""
    basis, todo = [], [n for n in ns if n > 1]
    while todo:
        m = todo.pop()
        for i, b in enumerate(basis):
            g = math.gcd(m, b)
            if g > 1:
                del basis[i]
                todo += [k for k in (g, m // g, b // g) if k > 1]
                break
        else:
            basis.append(m)
    return basis


def _exact_log_sign(terms):
    """Sign of sum r log N over (r, N) terms, r rational and N a positive
    integer, decided exactly.  Over a coprime basis b_j of the N the sum is
    sum c_j log b_j, and the log b_j are linearly independent over Q, so it
    is 0 exactly when every c_j is.  Otherwise an interval enclosure of the
    sum, refined until it excludes 0, gives the sign.  The cost depends on
    the sizes of the r and N and on the distance of the sum from 0, never
    on a power N^r."""
    coeffs = []
    for b in _coprime_basis([N for _, N in terms]):
        c = Fraction(0)
        for r, N in terms:
            while N % b == 0:
                N //= b
                c += r
        if c:
            coeffs.append((c, b))
    if not coeffs:
        return 0
    prec = 64
    while True:
        _IV.prec = prec
        s = _IV.mpf(0)
        for c, b in coeffs:
            s += _IV.mpf(c.numerator) / c.denominator * _IV.log(b)
        if s.a > 0:
            return 1
        if s.b < 0:
            return -1
        prec *= 2


def _log_sign(terms):
    """Sign of sum r log N over (r, N) terms, r rational and N a positive
    integer: the float pre-check, and inside its bound the exact sign."""
    total, mag = _float_sum(terms)
    if abs(total) > _CHECK * (1 + mag):
        return 1 if total > 0 else -1
    return _exact_log_sign(terms)


def _schmidt_sign(spec, epsilon, x, dps=None):
    """The exact schmidt margin over Q with slack 0 (dps is unused): the sign
    of e log H - log P, with e = (n+1)([inf in S] - 1) - eps and
    P = prod_{v,i} |L_vi(x)|_v = num/den; max_j|x_j|_p = 1 for primitive x."""
    num = den = 1
    for v in spec.S:
        for a, b in _exact_row(spec.forms[v], x, v):
            num *= a
            den *= b
    if not num:
        raise OnSupport("point %r lies on the support of the form system" % (x,))
    e = (spec.n + 1) * ((INF in spec.S) - 1) - epsilon
    return _log_sign(((e, max(map(abs, x.coords))), (1, den), (-1, num)))


def _fw_sign(spec, d_weights, x, dps=None):
    """The exact fw margin over Q with slack 0 (dps is unused): the least sign
    of ([v = inf] - d_vi) log H - log|L_vi(x)|_v over (v, i)."""
    rows = [_exact_row(spec.forms[v], x, v) for v in spec.S]
    if not all(a for row in rows for a, _ in row):
        raise OnSupport("point %r lies on the support of the form system" % (x,))
    H = max(map(abs, x.coords))
    worst = 1
    for v, row, drow in zip(spec.S, rows, d_weights):
        for (a, b), d in zip(row, drow):
            worst = min(worst, _log_sign((((v == INF) - d, H), (1, b), (-1, a))))
            if worst < 0:
                return worst
    return worst


def _parametric_sign(spec, x, dps=None):
    """The exact parametric margin over Q with slack 0 (dps is unused): the
    sign of -(log H_Q + eps log Q), where log H_Q + eps log Q is the sum
    over v of max_i (log|L_vi(x)|_v - c_vi log Q), plus log H when inf is
    not in S, plus eps log Q.  Inside the pre-check's bound the largest
    term of each max is found by exact signs of differences.  A vanishing
    form is skipped in the max, as in log_twisted_height."""
    qn, qd = spec.Q.numerator, spec.Q.denominator
    rest = [(spec.epsilon, qn), (-spec.epsilon, qd)]
    if INF not in spec.S:
        rest.append((1, max(map(abs, x.coords))))
    places = [[((1, a), (-1, b), (-c, qn), (c, qd))
               for (a, b), c in zip(_exact_row(spec.forms[v], x, v), spec.weights[v])
               if a]
              for v in spec.S]
    total, mag = _float_sum(rest)
    for cands in places:
        sums = [_float_sum(terms) for terms in cands]
        total += max(t for t, _ in sums)
        mag += sum(m for _, m in sums)
    if abs(total) > _CHECK * (1 + mag):
        return -1 if total > 0 else 1
    for cands in places:
        best = cands[0]
        for terms in cands[1:]:
            if _log_sign(terms + tuple((-r, N) for r, N in best)) > 0:
                best = terms
        rest += best
    return -_exact_log_sign(rest)


def _settle(points, margin, precision):
    """The one verdict loop: (solutions, indeterminate, support), each sorted.

    margin(x, dps) is positive on solutions and raises OnSupport on the
    support of the form system.  Each margin is evaluated once, at
    max(30, precision + 10) digits, whose rounding lies 20 digits or more
    below reals(precision).band; a margin inside the band, or one whose
    evaluation raises PrecisionExhausted, is indeterminate.  An exact
    margin is its sign: the band lies below 1 at every precision, so 0 is
    indeterminate and -1 and 1 are decided, whatever the precision.
    """
    band = reals(precision).band
    dps = max(30, precision + 10)
    sols, indet, supp = [], [], []
    for x in points:
        try:
            m = margin(x, dps)
        except OnSupport:
            supp.append(x)
            continue
        except PrecisionExhausted:
            m = 0
        if abs(m) <= band:
            indet.append(x)
        elif m > 0:
            sols.append(x)
    return sorted(sols), sorted(indet), sorted(supp)


def filter_solutions(kind, spec, points=None, height_bound=None, epsilon=None,
                     d_weights=None, slack=0, precision=17, budget=DEFAULT_BUDGET):
    """Evaluate the named inequality system over a point set.

    Either an explicit point list, whose repeated points count once, or a
    height bound must be given.  For the schmidt system with S = {inf} at
    a real place and no explicit points, the float prefilter in
    linscat.kernels scans only the windows around the forms' roots; its
    candidates are then re-evaluated exactly.  Otherwise every point up to
    the bound is settled.  Every candidate is settled by _settle, with the
    exact margin when the field is Q and the slack is 0.
    """
    if height_bound is not None and height_bound < 1:
        raise BadParameter("need height_bound >= 1")
    exact = slack == 0 and isinstance(spec, FormSystemSpec) and spec.field.degree == 1
    if kind == "parametric":
        if not isinstance(spec, TwistedHeightSpec):
            raise BadParameter("parametric filtering needs a TwistedHeightSpec")
        digest = _digest("parametric", spec.digest_data(),
                         tuple(tuple(str(c) for c in spec.weights[v]) for v in spec.S),
                         str(spec.Q), str(spec.epsilon), str(slack))
        margin = (functools.partial(_parametric_sign, spec) if exact
                  else functools.partial(_parametric_margin, spec, slack))
    elif kind in ("schmidt", "fw"):
        if not isinstance(spec, FormSystemSpec):
            raise BadParameter("schmidt/fw filtering needs a FormSystemSpec")
        if kind == "schmidt":
            if epsilon is None:
                raise BadParameter("schmidt filtering needs epsilon")
            epsilon = Fraction(epsilon)
            margin = (functools.partial(_schmidt_sign, spec, epsilon) if exact
                      else functools.partial(_schmidt_margin, spec, epsilon, slack))
        else:
            if d_weights is None:
                raise BadParameter("fw filtering needs d-weights")
            d_weights = [[Fraction(c) for c in row] for row in d_weights]
            if (len(d_weights) != len(spec.S)
                    or any(len(row) != spec.n + 1 for row in d_weights)):
                raise BadParameter(
                    "fw d-weights need one row of %d entries per place of S"
                    % (spec.n + 1))
            margin = (functools.partial(_fw_sign, spec, d_weights) if exact
                      else functools.partial(_fw_margin, spec, d_weights, slack))
        digest = _digest(kind, spec.digest_data(), str(epsilon),
                         tuple(tuple(str(c) for c in r) for r in (d_weights or [])),
                         str(slack))
    else:
        raise BadParameter("unknown filter kind %r" % (kind,))
    if points is None:
        if height_bound is None:
            raise BadParameter("need points or a height bound")
        if kind == "schmidt" and spec.S == [INF] and spec.places()[INF].is_real:
            w = spec.places()[INF]
            coeffs = [tuple(arch_value(w, c) for c in form.coeffs)
                      for form in spec.forms[INF]]
            points = _points(kernels.prefilter(height_bound, coeffs, -float(epsilon),
                                               float(slack), budget=budget))
        else:
            points = enumerate_points(spec.n, height_bound, budget)
    else:
        points = set(points)
    sols, indet, supp = _settle(points, margin, precision)
    return SolutionSet(digest, sols, indet, supp)


def q_sweep(spec_template, Q_grid, points, precision=17):
    """Per-Q solution sets of H_Q(x) <= Q^(-epsilon): at each Q of the
    ascending grid, the solutions and indeterminate points of the
    parametric filter with slack 0 over the distinct points of the
    collection points, which the filter reads once per Q."""
    grid = [Fraction(q) for q in Q_grid]
    if not grid or any(b < a for a, b in zip(grid, grid[1:])):
        raise BadParameter("Q grid must be nonempty and ascending")
    out = []
    for q in grid:
        ss = filter_solutions("parametric", spec_template.with_Q(q), points=points,
                              precision=precision)
        out.append({"Q": q, "solutions": ss.points, "indeterminate": ss.indeterminate})
    return out


# ---------------------------------------------------------------------------
# integer linear algebra for subspaces

def _echelon(rows, ncols):
    """Reduced echelon form of integer rows by fraction-free Gauss-Jordan
    elimination (after Bareiss, Math. Comp. 1968): (rows, pivot columns),
    each row primitive with a positive pivot, so unique for the row space.

    An update cross-multiplies by the pivot and divides by the row's gcd,
    which keeps pivots positive and every row primitive.
    """
    m = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        g = math.gcd(*m[piv]) if m[piv][col] > 0 else -math.gcd(*m[piv])
        m[piv], m[r] = m[r], [a // g for a in m[piv]]
        prow, p = m[r], m[r][col]
        for i, row in enumerate(m):
            f = row[col]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    return m[:len(pivots)], pivots


class Subspace:
    """Proper linear subspace of P^n given by exact defining equations."""

    __slots__ = ("equations", "dim")

    def __init__(self, equations, ambient_n):
        self.equations = equations  # canonical integer rows, each an equation
        self.dim = ambient_n - len(equations)

    def contains(self, x):
        return all(sum(e * c for e, c in zip(eq, x.coords)) == 0
                   for eq in self.equations)

    def serial(self):
        return {"equations": [[str(c) for c in eq] for eq in self.equations]}

    def __repr__(self):
        return "Subspace(dim=%d, eqs=%r)" % (self.dim, list(self.equations))


def span_subspace(points, ambient_n):
    """Projective span of a point set, or None if it is all of P^n.

    Its equations span the integer nullspace of the coordinate matrix; in
    reduced echelon form and sorted, they are unique for the subspace.
    """
    ncols = ambient_n + 1
    rows, pivots = _echelon([p.coords for p in points], ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    # L e_f - sum of (L r[f] / r[p]) e_p over the pivots p solves each row r
    lcm = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = lcm
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * lcm // row[pc]
        basis.append(vec)
    eqs, _ = _echelon(basis, ncols)
    return Subspace(tuple(sorted(map(tuple, eqs))), ambient_n)


class SubspaceCover:
    __slots__ = ("subspaces", "assignment", "mode")

    def __init__(self, subspaces, assignment, mode):
        self.subspaces = subspaces
        self.assignment = assignment
        self.mode = mode

    def __len__(self):
        return len(self.subspaces)

    def serial(self):
        return {
            "subspaces": [s.serial() for s in self.subspaces],
            "assignment": {repr(p): i for p, i in self.assignment.items()},
            "mode": self.mode,
        }


def _candidate_subspaces(points, n):
    """Cover candidates, each with the set of point indices it covers.

    If the points do not span P^n, their span is the one candidate.
    Otherwise the candidates are the hyperplanes spanned by n of the
    points.  Every smaller span extends through the points to one of them,
    and none covers a strict subset of another's points (the shared points
    would lie in a flat of rank n - 1), so no candidate is dominated.  A
    point on such a hyperplane lies in some n-subset spanning it, so one
    pass over the n-subsets collects each full point set.
    """
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


def _greedy_cover(points, candidates):
    """Most new points first; ties go to the lexicographically least
    equations, through a key built once per candidate."""
    keyed = [(tuple(-c for eq in sub.equations for c in eq), sub, cov)
             for sub, cov in candidates]
    uncovered = set(range(len(points)))
    chosen = []
    while uncovered:
        _, sub, cov = max(keyed, key=lambda t: (len(t[2] & uncovered), t[0]))
        gain = cov & uncovered
        if not gain:  # pragma: no cover
            raise Infeasible("no candidate covers the remaining points")
        chosen.append(sub)
        uncovered -= gain
    return chosen


def _exact_cover(points, candidates):
    """Branch and bound for a minimum cover; candidates precomputed.

    Branches on the candidates covering the first uncovered point, so
    every explored prefix is a partial cover and the first completed
    branch bounds the rest.
    """
    npts = len(points)
    cover_of = [[] for _ in range(npts)]
    for ci, (_, cov) in enumerate(candidates):
        for i in cov:
            cover_of[i].append(ci)
    best = [None]

    def dfs(uncovered, chosen):
        if best[0] is not None and len(chosen) >= len(best[0]):
            return
        if not uncovered:
            best[0] = list(chosen)
            return
        first = min(uncovered)
        for ci in cover_of[first]:
            chosen.append(ci)
            dfs(uncovered - candidates[ci][1], chosen)
            chosen.pop()

    dfs(frozenset(range(npts)), [])
    return [candidates[ci][0] for ci in best[0]]


def subspace_cover(solutions, mode="exact", max_subspaces=None):
    """Cover the solution points by proper linear subspaces.

    exact mode searches a minimum-cardinality cover over the hyperplanes
    spanned by solution points (or their span, if it is proper), which is
    also a minimum over all proper subspaces; point sets above the cap fall
    back to greedy.  greedy takes the most-covering candidate first.
    """
    if mode not in ("exact", "greedy"):
        raise BadParameter("mode must be exact or greedy")
    points = sorted(set(solutions.points if isinstance(solutions, SolutionSet)
                        else solutions))
    if not points:
        raise BadParameter("cannot cover an empty solution set")
    n = points[0].n
    if any(p.n != n for p in points):
        raise BadParameter("cover points must all lie in the same P^n")
    used_mode = "greedy" if len(points) > EXACT_COVER_CAP else mode
    candidates = _candidate_subspaces(points, n)
    if used_mode == "exact":
        chosen = _exact_cover(points, candidates)
    else:
        chosen = _greedy_cover(points, candidates)
    if max_subspaces is not None and len(chosen) > max_subspaces:
        raise Infeasible(
            "minimum cover needs %d subspaces, cap is %d" % (len(chosen), max_subspaces))
    assignment = {}
    for p in points:
        for i, sub in enumerate(chosen):
            if sub.contains(p):
                assignment[p] = i
                break
        else:  # pragma: no cover
            raise Infeasible("cover misses point %r" % (p,))
    return SubspaceCover(chosen, assignment, used_mode)


def density_report(solutions, cover=None):
    """Cover-economy summary.

    Finite sets are never dense; the useful signal is how few subspaces
    absorb how many distinct solutions, so the verdict text reports economy
    (mean points per subspace), not a density claim.
    """
    points = set(solutions.points if isinstance(solutions, SolutionSet) else solutions)
    if not points:
        return {"point_count": 0, "cover_size": 0,
                "max_points_per_subspace": 0, "verdict_text":
                "empty solution set; trivially non-dense"}
    if cover is None:
        cover = subspace_cover(solutions)
    loads = [0] * len(cover.subspaces)
    for p, i in cover.assignment.items():
        loads[i] += 1
    return {
        "point_count": len(points),
        "cover_size": len(cover.subspaces),
        "max_points_per_subspace": max(loads),
        "economy": len(points) / len(cover.subspaces),
        "verdict_text": (
            "finite sets are always non-dense; this report measures cover "
            "economy: %d points absorbed by %d proper subspaces "
            "(max load %d)" % (len(points), len(cover.subspaces), max(loads))
        ),
    }
