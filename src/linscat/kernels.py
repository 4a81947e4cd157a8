"""Enumeration, counting and float prefilter kernels over P^n(Q).

Points are primitive integer tuples in canonical form: gcd 1, first nonzero
coordinate positive, emitted in lexicographic order.  All three kernels
stand on one walk over the canonical leading parts (x_0, ..., x_{n-1}) of
the points (_rows); a point is its leading part plus a last coordinate t.
The prefilter is output-sensitive: for each leading part only the integer
windows around the roots of the forms in t are scanned (see _row_windows),
and it returns exactly the list a scan of every point would return.
"""

import functools
import itertools
import math

from .errors import BudgetExceeded

# perfbench/run.py reports this flag; there is no compiled kernel.
USING_COMPILED = False


def _rows(n, bound, coeffs):
    """The nonzero canonical leading parts of P^n(Q) with max|x_j| <= bound,
    in lexicographic order: z zeros, a positive lead, then any tail, for
    z = n-1 down to 0.  (The zero part's one point is (0, ..., 0, 1).)

    Each row is (lead, g, m, consts): the gcd and the height max|x_j| of the
    leading part, and per coefficient row c of coeffs the pair (k, c_n) of
    the float k = c_0 x_0 + ... + c_{n-1} x_{n-1}, added left to right from
    the lead (c_j x_j, since the zeros before it add nothing), and the
    coefficient of the last coordinate.
    """
    span = range(-bound, bound + 1)
    for z in range(n - 1, -1, -1):
        zeros = (0,) * z
        pairs = [(row[z], row[n]) for row in coeffs]
        rows = ((zeros + (a,), a, a, [(c * a, cn) for c, cn in pairs])
                for a in range(1, bound + 1))
        for j in range(z + 1, n):
            rows = _extend(rows, [row[j] for row in coeffs], span)
        yield from rows


def _extend(rows, col, span):
    """Each row followed by every coordinate t of span."""
    gcd = math.gcd
    for lead, g, m, consts in rows:
        for t in span:
            yield (lead + (t,), gcd(g, t), max(m, t, -t),
                   [(s + c * t, cn) for (s, cn), c in zip(consts, col)])


def _enum(n, bound):
    """All canonical points of P^n(Q) with max|coordinate| <= bound."""
    out = [(0,) * n + (1,)] if bound >= 1 else []
    span = range(-bound, bound + 1)
    coprime = {1: span}  # g -> the t of span with gcd(g, t) = 1
    for lead, g, _, _ in _rows(n, bound, ()):
        ts = coprime.get(g)
        if ts is None:
            ts = coprime[g] = [t for t in span if math.gcd(g, t) == 1]
        out += zip(*map(itertools.repeat, lead), ts)
    return out


def _mobius(n):
    """mu(0..n) by a sieve (mu[0] is unused)."""
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for k in range(p, n + 1, p):
            composite[k] = 1
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return mu


def _primitive_count(bound, dim):
    """Primitive nonzero vectors of Z^dim in [-bound, bound]^dim, by Moebius
    inversion over the gcd: sum_k mu(k) ((2 floor(bound/k) + 1)^dim - 1)."""
    mu = _mobius(bound)
    return sum(mu[k] * ((2 * (bound // k) + 1) ** dim - 1)
               for k in range(1, bound + 1))


def _count(n, bound):
    """len(_enum(n, bound)) in O(bound): half the primitive vectors."""
    if bound < 1:
        return 0
    return _primitive_count(bound, n + 1) // 2


def _thresholds(bound, exponent, log_slack, margin):
    """Per-height thresholds thr[m] and, for each m, the log of the largest
    threshold at any height >= m (the bound a row with leading height m
    can reach)."""
    thr = [0.0] * (bound + 1)
    for m in range(1, bound + 1):
        thr[m] = math.exp(exponent * math.log(m) + log_slack + margin)
    log_top = [0.0] * (bound + 1)
    top = 0.0
    for m in range(bound, 0, -1):
        if thr[m] > top:
            top = thr[m]
        log_top[m] = math.log(top) if top > 0 else -math.inf
    return thr, log_top


def _windows_valid(bound, coeffs, scaled_tiny):
    """Whether the rounding analysis in _row_windows covers these inputs;
    otherwise every row is scanned in full."""
    nf = len(coeffs)
    return (bound < 2 ** 40 and nf <= 64 and 0 < scaled_tiny < math.inf
            and nf * math.log(min(1.0, scaled_tiny)) > -700
            and all(c == 0 or 1e-200 < abs(c) < 1e200
                    for row in coeffs for c in row))


def _row_windows(bound, consts, log_top, scaled_tiny, valid):
    """Sorted disjoint inclusive ranges of t in [-bound, bound] outside which
    no point of the row passes the prefilter check.

    consts holds, per form, (k, c) where k is the float the check computes
    for the row's fixed leading part (c_0 x_0 + ... + c_{n-1} x_{n-1}, see
    _rows) and c the coefficient of the last coordinate t, so the check
    evaluates d = fl(k + fl(c*t)).  With e = k + c*t and t* = -k/c (c != 0),
    |d - e| <= 2.01 u (|k| + |c t|) = 2.01 u |c| (|t*| + |t|), u = 2^-53.

    A point passes when some |d| < scaled_tiny, or when the float product
    of the |d| is at most a threshold, hence at most T = exp(log_top) of the
    row.  _windows_valid keeps every factor >= scaled_tiny from underflowing
    the partial products, so the float product is >= (1 - u)^nf times the
    exact product of the |d| (overflow only raises it).  With D the forms
    that depend on t (m of them) and Z the rest (whose d equal k exactly),
    prod_D |d| <= T' = T (1 - u)^-nf / prod_Z |k|.  Let
    W = (T' / prod_D |c|)^(1/m); if every |d_i| > |c_i| W the product would
    exceed T', so some |d_i| <= |c_i| max(W, scaled_tiny/|c_i|) = |c_i| h_i.

    Padding: a root with |fl(t*)| >= 3 bound is skipped, because every
    |t| <= bound is further than h + 2.01 u (|t*| + bound) >= h + |d - e|/|c|
    from it (h < bound), so no point of the row is near it.  Otherwise
    |t*|, h < 3 bound < 2^42, so |d - e| < |c|/4 and fl(t* -+ h) is within
    1/4 of t* -+ h: a point with |d| <= |c| h has |t - t*| < h + 1/4 and lies
    in [floor(fl(t* - h)) - 1, ceil(fl(t* + h)) + 1].  The one integer of
    padding per side absorbs the float rounding of k + c*t and of the
    window ends.

    The log-space computation of W carries 1e-6 of slack, which covers
    (1 - u)^-nf and the rounding of the logs and the exp.  The whole row is
    returned when a t-independent factor is tiny (then every point passes),
    when no form depends on t, or when some h reaches the bound.
    """
    full = [(-bound, bound)]
    if not valid:
        return full
    log_r = log_top + 1e-6
    roots = []
    for k, c in consts:
        if c == 0:
            if k == 0 or abs(k) < scaled_tiny:
                return full
            log_r -= math.log(abs(k))
        else:
            roots.append((-k / c, abs(c)))
    if not roots:
        return full
    log_w = (log_r - sum(math.log(c) for _, c in roots)) / len(roots)
    w = math.exp(min(log_w, 100.0))
    ranges = []
    for r, c in roots:
        h = max(w, scaled_tiny / c)
        if h >= bound:
            return full
        if abs(r) >= 3.0 * bound:
            continue
        lo = max(-bound, math.floor(r - h) - 1)
        hi = min(bound, math.ceil(r + h) + 1)
        if lo <= hi:
            ranges.append((lo, hi))
    ranges.sort()
    merged = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _prefilter(n, bound, coeffs, exponent, log_slack, margin=1e-6, tiny=1e-12,
               budget=None):
    """Streaming float prefilter over the canonical points of P^n(Q).

    coeffs: per form a row of n+1 floats (one entry per (place, form) pair,
    archimedean places only).  A point survives when the product of the
    |form values| is at most max|x_j|^exponent times exp(log_slack + margin),
    or when some form value is numerically tiny (near the support or a true
    near-solution; the exact recheck decides).  Returns the candidate tuples
    in canonical order; callers re-evaluate them exactly.  Raises
    BudgetExceeded, before scanning, when the leading parts to scan
    outnumber budget.
    """
    rows = ((2 * bound + 1) ** n + 1) // 2 if bound >= 1 else 0
    if budget is not None and rows > budget:
        raise BudgetExceeded("prefilter on P^%d at bound %d scans %d rows, "
                             "over the budget %d" % (n, bound, rows, budget))
    thresholds, log_top = _thresholds(bound, exponent, log_slack, margin)
    scaled_tiny = tiny * bound
    valid = _windows_valid(bound, coeffs, scaled_tiny)
    gcd = math.gcd

    def check(consts, t, m):
        prod = 1.0
        for k, c in consts:
            d = k + c * t
            if -scaled_tiny < d < scaled_tiny:
                return True
            prod *= d if d > 0 else -d
        if t > m:
            m = t
        elif -t > m:
            m = -t
        return prod <= thresholds[m]

    out = []
    if bound >= 1 and check([(0.0, row[n]) for row in coeffs], 1, 1):
        out.append((0,) * n + (1,))
    for lead, g, m, consts in _rows(n, bound, coeffs):
        for lo, hi in _row_windows(bound, consts, log_top[m], scaled_tiny, valid):
            for t in range(lo, hi + 1):
                if gcd(g, t) == 1 and check(consts, t, m):
                    out.append(lead + (t,))
    return out


# perfbench/tracer.py wraps these six names by module attribute, so enum,
# count and prefilter reach P^1 and P^2 through them.
enum_p1, enum_p2 = functools.partial(_enum, 1), functools.partial(_enum, 2)
count_p1, count_p2 = functools.partial(_count, 1), functools.partial(_count, 2)
prefilter_p1 = functools.partial(_prefilter, 1)
prefilter_p2 = functools.partial(_prefilter, 2)


def enum(n, bound):
    """All canonical points of P^n(Q) with max|coordinate| <= bound, in
    lexicographic order."""
    return {1: enum_p1, 2: enum_p2}.get(n, functools.partial(_enum, n))(bound)


def count(n, bound):
    """len(enum(n, bound)) in O(bound): half the primitive vectors of
    Z^(n+1) in the box, by a Moebius sum."""
    return {1: count_p1, 2: count_p2}.get(n, functools.partial(_count, n))(bound)


def prefilter(bound, coeffs, *args, **kwargs):
    """_prefilter on P^n, n read off the coefficient rows (n + 1 floats
    each)."""
    n = len(coeffs[0]) - 1
    kernel = {1: prefilter_p1, 2: prefilter_p2}.get(n, functools.partial(_prefilter, n))
    return kernel(bound, coeffs, *args, **kwargs)
