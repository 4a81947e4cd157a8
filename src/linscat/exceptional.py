"""Bounded-height enumeration of P^n(Q), inequality filtering, and covers
of the resulting solution sets by proper linear subspaces.

The filter evaluates one of three inequality systems at every point:

* schmidt     sum over (v, i) of lambda_vi(x) >= (n+1+eps) h(x) - slack
* fw          lambda_vi(x) >= d_vi h(x) - slack for every (v, i)
* parametric  H_Q(x) <= Q^(-eps) (log margin <= slack)

Points on the support of some form are excluded and reported separately.
Every verdict is made by one loop, _settle, from the certified sign of each
margin; q_sweep is the parametric filter at each Q.  A margin is a sum of
terms r log N (the height, Q and the exact values of heights._log_abs_terms),
r log|sigma_w(A(theta))| at archimedean places, and the rational slack.  Its
sign is heights._log_sign's, or twisted._parametric_sign's for the
parametric system (the twisted report's verdict): a float pre-check with a
proven error bound, else interval enclosures.  An exact tie of integer terms
at slack 0, or a sum with an archimedean term still undecided at the bit
cap, is indeterminate.  No verdict depends on a decimal precision.
"""

import functools
import hashlib
import heapq
import itertools
import math
import operator
from fractions import Fraction

from . import kernels
from .errors import BadParameter, BudgetExceeded, Infeasible, OnSupport
from .fieldarith import _det
from .heights import ProjectivePoint, _arch_floats, _log_abs_terms, _log_sign, _neg
from .places import INF
from .twisted import FormSystemSpec, TwistedHeightSpec, _parametric_sign

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


def _schmidt_sign(spec, epsilon, slack, x):
    """The sign of the schmidt margin e log H - log P + slack, with
    e = (n+1)([inf in S] - 1) - eps and P = prod_{v,i} |L_vi(x)|_v = num/den
    times the extra terms, as max_j|x_j|_p = 1 for primitive x."""
    num, den, extra = 1, 1, ()
    places = spec.places()
    for v in spec.S:
        for a, b, more in _log_abs_terms(spec.forms[v], x, places[v]):
            num, den, extra = num * a, den * b, extra + more
    if not num:
        raise OnSupport("point %r lies on the support of the form system" % (x,))
    e = (spec.n + 1) * ((INF in spec.S) - 1) - epsilon
    return _log_sign(((e, max(map(abs, x.coords))), (1, den), (-1, num)) + _neg(extra),
                     slack)


def _fw_sign(spec, d_weights, slack, x):
    """The least sign of the fw margins ([v = inf] - d_vi) log H
    - log|L_vi(x)|_v + slack over (v, i)."""
    places = spec.places()
    rows = [_log_abs_terms(spec.forms[v], x, places[v]) for v in spec.S]
    if not all(t[0] for row in rows for t in row):
        raise OnSupport("point %r lies on the support of the form system" % (x,))
    H = max(map(abs, x.coords))
    worst = 1
    for v, row, drow in zip(spec.S, rows, d_weights):
        for (a, b, extra), d in zip(row, drow):
            worst = min(worst, _log_sign(
                (((v == INF) - d, H), (1, b), (-1, a)) + _neg(extra), slack))
            if worst < 0:
                return worst
    return worst


def _settle(points, sign):
    """The one verdict loop: (solutions, indeterminate, support), each
    sorted.  sign(x), the certified sign of the point's margin, is 0 where
    undecided and raises OnSupport on the support of the form system."""
    sols, indet, supp = [], [], []
    for x in points:
        try:
            s = sign(x)
        except OnSupport:
            supp.append(x)
            continue
        if s > 0:
            sols.append(x)
        elif not s:
            indet.append(x)
    return sorted(sols), sorted(indet), sorted(supp)


def _prefilter_inputs(spec, epsilon, slack):
    """(coeffs, exponent, log_slack) for kernels.prefilter on a schmidt
    system with S = {inf} at a real place: per form a (float, error bound)
    pair per coefficient (heights._arch_floats), -epsilon and the slack as
    floats; None when a number lies past the double range."""
    w = spec.places()[INF]
    try:
        return ([_arch_floats(w, form) for form in spec.forms[INF]],
                -float(epsilon), float(slack))
    except OverflowError:
        return None


def filter_solutions(kind, spec, points=None, height_bound=None, epsilon=None,
                     d_weights=None, slack=0, budget=DEFAULT_BUDGET):
    """Evaluate the named inequality system over a point set.

    Either an explicit point list, whose repeated points count once, or a
    height bound must be given.  For the schmidt system with S = {inf} at
    a real place and no explicit points, the certified float prefilter in
    linscat.kernels takes each coefficient as a float with an error bound
    (_prefilter_inputs) and scans only the windows around the forms'
    roots; it drops a point only on a proof that it is no solution, tie or
    point of the support, and its candidates are then re-evaluated
    exactly.  Otherwise, and when the coefficients, epsilon or slack lie
    past the range of a double, every point up to the bound is settled.
    Every candidate is settled by _settle, with the certified sign of its
    margin, in every field and at every rational slack.
    """
    if height_bound is not None and height_bound < 1:
        raise BadParameter("need height_bound >= 1")
    slack = Fraction(slack)
    if kind == "parametric":
        if not isinstance(spec, TwistedHeightSpec):
            raise BadParameter("parametric filtering needs a TwistedHeightSpec")
        digest = _digest("parametric", spec.digest_data(),
                         tuple(tuple(str(c) for c in spec.weights[v]) for v in spec.S),
                         str(spec.Q), str(spec.epsilon), str(slack))
        sign = functools.partial(_parametric_sign, spec, slack)
    elif kind in ("schmidt", "fw"):
        if not isinstance(spec, FormSystemSpec):
            raise BadParameter("schmidt/fw filtering needs a FormSystemSpec")
        if kind == "schmidt":
            if epsilon is None:
                raise BadParameter("schmidt filtering needs epsilon")
            epsilon = Fraction(epsilon)
            sign = functools.partial(_schmidt_sign, spec, epsilon, slack)
        else:
            if d_weights is None:
                raise BadParameter("fw filtering needs d-weights")
            d_weights = [[Fraction(c) for c in row] for row in d_weights]
            if (len(d_weights) != len(spec.S)
                    or any(len(row) != spec.n + 1 for row in d_weights)):
                raise BadParameter(
                    "fw d-weights need one row of %d entries per place of S"
                    % (spec.n + 1))
            sign = functools.partial(_fw_sign, spec, d_weights, slack)
        digest = _digest(kind, spec.digest_data(), str(epsilon),
                         tuple(tuple(str(c) for c in r) for r in (d_weights or [])),
                         str(slack))
    else:
        raise BadParameter("unknown filter kind %r" % (kind,))
    if points is None:
        if height_bound is None:
            raise BadParameter("need points or a height bound")
        floats = None
        if kind == "schmidt" and spec.S == [INF] and spec.places()[INF].is_real:
            floats = _prefilter_inputs(spec, epsilon, slack)
        if floats:
            points = _points(kernels.prefilter(height_bound, *floats, budget=budget))
        else:
            points = enumerate_points(spec.n, height_bound, budget)
    else:
        points = set(points)
    sols, indet, supp = _settle(points, sign)
    return SolutionSet(digest, sols, indet, supp)


def q_sweep(spec_template, Q_grid, points):
    """Per-Q solution sets of H_Q(x) <= Q^(-epsilon): at each Q of the
    ascending grid, the solutions and indeterminate points of the
    parametric filter with slack 0 over the distinct points of the
    collection points, which the filter reads once per Q."""
    grid = [Fraction(q) for q in Q_grid]
    if not grid or any(b < a for a, b in zip(grid, grid[1:])):
        raise BadParameter("Q grid must be nonempty and ascending")
    out = []
    for q in grid:
        ss = filter_solutions("parametric", spec_template.with_Q(q), points=points)
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
    pass over the n-subsets collects each full point set.  The hyperplane
    through n points is their vector of signed n x n minors, (-1)^j times
    the minor without column j, 0 when they are dependent; primitive with
    a positive leading entry, it is span_subspace's equation.  The minors
    are linear in the last point, so each (n-1)-prefix gives them once, as
    a matrix C.
    """
    whole = span_subspace(points, n)
    if whole is not None:
        return [(whole, frozenset(range(len(points))))]
    found, zero = {}, [0] * (n + 1)
    unit = [tuple(int(j == k) for j in range(n + 1)) for k in range(n + 1)]
    for pre in itertools.combinations(range(len(points)), n - 1):
        rows = [points[i].coords for i in pre]
        C = [[(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows + [u]]) for u in unit]
             for j in range(n + 1)]
        for i in range(pre[-1] + 1 if pre else 0, len(points)):
            eq = [sum(map(operator.mul, row, points[i].coords)) for row in C]
            g = math.gcd(*eq) * (1 if eq > zero else -1)  # a positive leading entry
            if g:
                found.setdefault(tuple(c // g for c in eq), []).extend(pre + (i,))
    candidates = [(Subspace((eq,), n), frozenset(cov)) for eq, cov in found.items()]
    candidates.sort(key=lambda t: (-len(t[1]), t[0].equations))
    return candidates


def _greedy_cover(points, candidates):
    """Most new points first, ties to the least equations, then to the
    earlier candidate.  Lazy (Minoux, 1978): gains only fall, so a popped
    gain of an earlier round that is still current is the maximum."""
    heap = [(-len(cov), sub.equations, i) for i, (sub, cov) in enumerate(candidates) if cov]
    heapq.heapify(heap)
    uncovered = set(range(len(points)))
    chosen = []
    while uncovered:
        if not heap:
            raise Infeasible("no candidate covers the remaining points")
        stale, eqs, i = heapq.heappop(heap)
        sub, cov = candidates[i]
        gain = len(cov & uncovered)
        if gain == -stale:
            chosen.append(sub)
            uncovered -= cov
        elif gain:
            heapq.heappush(heap, (-gain, eqs, i))
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
            "%s cover needs %d subspaces, cap is %d" % (used_mode, len(chosen), max_subspaces))
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
