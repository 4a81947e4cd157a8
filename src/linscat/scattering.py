"""Weight machinery for splitting solution sets into finitely many classes.

Covers: the d -> (epsilon, c) weight reduction, the rational simplex cover
and its selection map, Type I / Type II classification of lambda-profiles,
the e-weight constructions for both types, and the reduction from many
forms per place to n+1 forms in general position.
"""

import itertools
import math
from fractions import Fraction

from .errors import (
    BadParameter,
    GeneralPositionViolated,
    SumCheckFailed,
    ThresholdNotMet,
)
from .fieldarith import _restriction_det


class WeightSystem:
    """Matrix of exact rational weights indexed by (place, i), i = 0..n."""

    __slots__ = ("S_size", "n", "entries", "kind")

    KINDS = ("d", "c", "e")

    def __init__(self, entries, kind):
        if kind not in self.KINDS:
            raise BadParameter("weight kind must be one of %r" % (self.KINDS,))
        rows = tuple(tuple(Fraction(c) for c in row) for row in entries)
        if not rows or len({len(r) for r in rows}) != 1:
            raise BadParameter("weight matrix must be rectangular and nonempty")
        self.entries = rows
        self.S_size = len(rows)
        self.n = len(rows[0]) - 1
        self.kind = kind
        if kind == "c":
            for v, row in enumerate(rows):
                if sum(row) != 0:
                    raise BadParameter("c-weight row %d sums to %s" % (v, sum(row)))

    def total(self):
        return sum(sum(row) for row in self.entries)

    def __getitem__(self, vi):
        v, i = vi
        return self.entries[v][i]

    def __repr__(self):
        return "WeightSystem(%s, kind=%r)" % (
            [[str(c) for c in row] for row in self.entries], self.kind)


def fw_weights(d):
    """(epsilon, c-weights) from d-weights: the height-twist reduction.

    epsilon = -1 + (sum d)/(n+1); c_vi = -d_vi + (row sum)/(n+1).
    """
    if not isinstance(d, WeightSystem):
        d = WeightSystem(d, "d")
    n = d.n
    total = d.total()
    eps = Fraction(total, n + 1) - 1
    if eps <= 0:
        raise ThresholdNotMet(
            "sum of d-weights is %s <= n+1 = %d" % (total, n + 1)
        )
    c_rows = []
    for row in d.entries:
        rs = sum(row)
        c_rows.append([-dvi + Fraction(rs, n + 1) for dvi in row])
    return eps, WeightSystem(c_rows, "c")


class SimplexCover:
    """delta-grid points of the simplex {a >= 0, sum a = c}.

    The grid cardinality C(m + |I| - 1, |I| - 1) grows combinatorially for
    fine grids (small epsilon forces c near 1 and a tiny delta), so points
    are streamed rather than stored; membership is an arithmetic check.
    """

    __slots__ = ("c", "index_set_size", "delta", "m")

    MATERIALIZE_CAP = 500_000

    def __init__(self, c, index_set_size, delta):
        self.c = c
        self.index_set_size = index_set_size
        self.delta = delta
        m = Fraction(c) / Fraction(delta)
        if m.denominator != 1:
            raise BadParameter("c / delta = %s is not an integer" % (m,))
        self.m = int(m)

    def __len__(self):
        return math.comb(self.m + self.index_set_size - 1,
                         self.index_set_size - 1)

    def contains(self, a):
        if len(a) != self.index_set_size or sum(a) != self.c:
            return False
        return all(x >= 0 and (Fraction(x) / self.delta).denominator == 1
                   for x in a)

    def __iter__(self):
        for comp in _compositions(self.m, self.index_set_size):
            yield tuple(k * self.delta for k in comp)

    def sample(self, rng):
        """A uniformly random grid point (random weak composition of m)."""
        cuts = sorted(rng.sample(range(self.m + self.index_set_size - 1),
                                 self.index_set_size - 1))
        parts = []
        prev = -1
        for cut in cuts + [self.m + self.index_set_size - 1]:
            parts.append(cut - prev - 1)
            prev = cut
        return tuple(k * self.delta for k in parts)

    @property
    def points(self):
        if len(self) > self.MATERIALIZE_CAP:
            raise BadParameter(
                "cover has %d grid points; iterate instead of materializing"
                % len(self))
        return sorted(self)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def simplex_cover(c, I_size, N=None):
    """Grid cover of the c-simplex with step delta = c/m, delta <= (1-c)/|I|.

    m is minimal by default (largest step); N overrides it with a finer
    grid (N >= the minimal m).
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise BadParameter("c must lie in (0,1), got %s" % (c,))
    if I_size < 1:
        raise BadParameter("index set must be nonempty")
    # smallest m with c/m <= (1-c)/I_size
    m_min = math.ceil(Fraction(c * I_size, 1 - c))
    m = m_min if N is None else int(N)
    if m < m_min:
        raise BadParameter("grid refinement %d coarser than required %d" % (m, m_min))
    return SimplexCover(c, I_size, c / m)


def simplex_select(b, cover):
    """A cover point a with b_j >= a_j * sum(b) for every j, exactly.

    Floor each b_j/B to the grid, then walk the total down to c by
    removing delta from the highest indices first.
    """
    b = [Fraction(x) for x in b]
    if any(x < 0 for x in b) or not any(b):
        raise BadParameter("b must be nonnegative and not all zero")
    if len(b) != cover.index_set_size:
        raise BadParameter("b has length %d, cover expects %d"
                           % (len(b), cover.index_set_size))
    B = sum(b)
    delta = cover.delta
    a = [delta * (x / (B * delta)).__floor__() for x in b]
    excess = (sum(a) - cover.c) / delta
    assert excess == int(excess)
    excess = int(excess)
    if excess < 0:
        raise BadParameter("grid step too coarse for the cover")  # pragma: no cover
    for j in range(len(a) - 1, -1, -1):
        if excess == 0:
            break
        take = min(excess, int(a[j] / delta))
        a[j] -= take * delta
        excess -= take
    assert excess == 0 and sum(a) == cover.c
    return tuple(a)


class Classification:
    """Outcome of classifying one lambda-profile."""

    __slots__ = ("kind", "anchor")

    def __init__(self, kind, anchor=None):
        self.kind = kind  # "TypeI" | "TypeII" | "NotASolution"
        self.anchor = anchor

    def __eq__(self, other):
        return (isinstance(other, Classification)
                and (self.kind, self.anchor) == (other.kind, other.anchor))

    def __repr__(self):
        if self.kind == "TypeI":
            return "TypeI(%d)" % self.anchor
        return self.kind


def classify_solution(lambda_matrix, h, n, epsilon, slack=0):
    """TypeI(i): some column i has sum_v lambda_vi >= (n+1+eps)h - slack
    (smallest such i); else TypeII if the full sum clears the bound; else
    NotASolution."""
    if h <= 0:
        raise BadParameter("classification needs h > 0")
    rows = [list(r) for r in lambda_matrix]
    threshold = (n + 1 + epsilon) * h - slack
    for i in range(n + 1):
        col = sum(row[i] for row in rows)
        if col >= threshold:
            return Classification("TypeI", i)
    if sum(sum(row) for row in rows) >= threshold:
        return Classification("TypeII")
    return Classification("NotASolution")


def type1_simplex_c(n, epsilon):
    return 1 - Fraction(epsilon) / (4 * (n + 1))


def type2_simplex_c(n, epsilon):
    return 1 - Fraction(epsilon) / (4 * (n + 1) ** 2)


def scatter_weights(class_kind, n, epsilon, simplex_tuple, d_v=None, S_size=None):
    """e-weights of a scattering class from its simplex tuple.

    Type I: tuple is (a_v) per place; e_v0 = a_v (n+1+eps), zero elsewhere.
    Type II: tuple is (b_vi) over places x indices; with per-place masses
    d_v summing to 1, b_v = d_v n(n+1+eps)/(n+1) and
    e_vi = b_vi (n+1)(n+1+eps) - b_v.  Both checked for sum(e) > n+1.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise BadParameter("epsilon must be positive")
    tup = tuple(Fraction(t) for t in simplex_tuple)
    kind = class_kind if isinstance(class_kind, str) else class_kind.kind
    factor = n + 1 + epsilon
    if kind == "TypeI":
        rows = [[a * factor] + [Fraction(0)] * n for a in tup]
        ws = WeightSystem(rows, "e")
        if ws.total() <= n + 1:
            raise SumCheckFailed(
                "Type I weight sum %s <= n+1; epsilon too large" % (ws.total(),)
            )
        return ws
    if kind != "TypeII":
        raise BadParameter("class kind must be TypeI or TypeII, got %r" % (kind,))
    if S_size is None:
        if len(tup) % (n + 1):
            raise BadParameter("Type II tuple length not a multiple of n+1")
        S_size = len(tup) // (n + 1)
    if len(tup) != S_size * (n + 1):
        raise BadParameter("Type II tuple has wrong length")
    if d_v is None:
        d_v = [Fraction(1, S_size)] * S_size
    d_v = [Fraction(x) for x in d_v]
    if sum(d_v) != 1 or any(x < 0 for x in d_v):
        raise BadParameter("d_v must be a distribution over the places")
    rows = []
    for v in range(S_size):
        b_v = d_v[v] * n * factor / (n + 1)
        row = [tup[v * (n + 1) + i] * (n + 1) * factor - b_v for i in range(n + 1)]
        rows.append(row)
    ws = WeightSystem(rows, "e")
    if ws.total() <= n + 1:
        raise SumCheckFailed(
            "Type II weight sum %s <= n+1; epsilon too large" % (ws.total(),)
        )
    return ws


class ScatterClass:
    """A class of solutions sharing one simplex tuple and its e-weights."""

    __slots__ = ("class_kind", "anchor", "a_or_b", "e_weights", "members")

    def __init__(self, class_kind, anchor, a_or_b, e_weights):
        self.class_kind = class_kind
        self.anchor = anchor
        self.a_or_b = a_or_b
        self.e_weights = e_weights
        self.members = []

    def serial(self):
        return {
            "kind": self.class_kind,
            "anchor": self.anchor,
            "tuple": [str(t) for t in self.a_or_b],
            "e": [[str(c) for c in row] for row in self.e_weights.entries],
            "sum_e": str(self.e_weights.total()),
            "members": [list(m) if not isinstance(m, int) else m for m in self.members],
        }


def scatter_partition(profiles, n, epsilon, S_size, slack=0, d_v=None):
    """Partition lambda-profiles into scattering classes.

    profiles: list of (label, lambda_matrix, h) with exact rational lambda
    values and heights.  Each solution is classified; its simplex tuple is
    selected from the appropriate cover; profiles sharing (kind, anchor,
    tuple) land in one class.  Non-solutions are returned separately.
    """
    epsilon = Fraction(epsilon)
    cover1 = simplex_cover(type1_simplex_c(n, epsilon), S_size)
    cover2 = simplex_cover(type2_simplex_c(n, epsilon), S_size * (n + 1))
    classes = {}
    rejected = []
    for label, lam, h in profiles:
        lam = [[Fraction(x) for x in row] for row in lam]
        h = Fraction(h)
        cls = classify_solution(lam, h, n, epsilon, slack)
        if cls.kind == "NotASolution":
            rejected.append(label)
            continue
        if cls.kind == "TypeI":
            b = [max(row[cls.anchor], Fraction(0)) for row in lam]
            tup = simplex_select(b, cover1)
            key = ("TypeI", cls.anchor, tup)
        else:
            b = [max(x, Fraction(0)) for row in lam for x in row]
            tup = simplex_select(b, cover2)
            key = ("TypeII", None, tup)
        if key not in classes:
            ws = scatter_weights(key[0], n, epsilon, tup, d_v=d_v, S_size=S_size)
            classes[key] = ScatterClass(key[0], key[1], tup, ws)
        classes[key].members.append(label)
    ordered = [classes[k] for k in sorted(classes, key=lambda k: (k[0], k[1] if k[1] is not None else -1, k[2]))]
    return ordered, rejected


def gen_pos_reduce(forms_per_place, lambda_rows, n):
    """Keep the n+1 largest-lambda forms at each place; return the kept
    index lists, the reduced lambda rows, and the discarded mass.

    Every (n+1)-subset of each place's forms must be linearly independent
    over the coefficient field (exact determinant check).
    """
    selections = []
    reduced = []
    residual = 0
    for forms, lams in zip(forms_per_place, lambda_rows):
        if len(forms) != len(lams):
            raise BadParameter("forms and lambda row lengths differ")
        if len(forms) < n + 1:
            raise BadParameter("need at least n+1 forms per place")
        field = forms[0].field
        for subset in itertools.combinations(range(len(forms)), n + 1):
            det = _restriction_det(field, [forms[j].coeffs for j in subset])
            if not det:
                raise GeneralPositionViolated(
                    "forms %r at a place are linearly dependent" % (subset,)
                )
        order = sorted(range(len(lams)), key=lambda j: (-lams[j], j))
        keep = sorted(order[: n + 1])
        drop = [j for j in range(len(lams)) if j not in keep]
        selections.append(keep)
        reduced.append([lams[j] for j in keep])
        residual += sum(max(lams[j], 0) for j in drop)
    return selections, reduced, residual
