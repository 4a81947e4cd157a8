"""Enumeration, counting and float prefilter kernels over P^n(Q).

Points are primitive integer tuples in canonical form: gcd 1, first nonzero
coordinate positive, emitted in lexicographic order.  All three kernels
stand on one walk over the canonical leading parts (x_0, ..., x_{n-1}) of
the points (_rows); a point is its leading part plus a last coordinate t.

The prefilter is certified: each coefficient comes as a float and a bound
on its error, each form value d_i as a float with the bound
E_i = eps_i max|x_j|, and a point is dropped only when the product of the
max(|d_i| - E_i, 0) exceeds an upper bound on the threshold, which carries
heights._CHECK's log-space slack (see _prefilter).  So no solution, tie or
point of the support is dropped.  It is output-sensitive: for each leading
part only the integer windows around the roots of the forms in t are
scanned, each widened by the form's error (see _row_windows), and it
returns exactly the list a scan of every point would return.
"""

import functools
import itertools
import math

from .errors import BudgetExceeded
from .heights import _CHECK
from .places import _U

# perfbench/run.py reports this flag; there is no compiled kernel.
USING_COMPILED = False


def _rows(n, bound, forms):
    """The nonzero canonical leading parts of P^n(Q) with max|x_j| <= bound,
    in lexicographic order: z zeros, a positive lead, then any tail, for
    z = n-1 down to 0.  (The zero part's one point is (0, ..., 0, 1).)

    Each row is (lead, g, m, consts): the gcd and the height max|x_j| of the
    leading part, and per form (row, eps) of forms, row its float
    coefficients c_j, the triple (k, c_n, eps) of the float
    k = c_0 x_0 + ... + c_{n-1} x_{n-1}, added left to right from the lead
    (c_j x_j, since the zeros before it add nothing), the coefficient of
    the last coordinate and the form's error factor.
    """
    span = range(-bound, bound + 1)
    for z in range(n - 1, -1, -1):
        zeros = (0,) * z
        triples = [(row[z], row[n], e) for row, e in forms]
        rows = ((zeros + (a,), a, a, [(c * a, cn, e) for c, cn, e in triples])
                for a in range(1, bound + 1))
        for j in range(z + 1, n):
            rows = _extend(rows, [row[j] for row, _ in forms], span)
        yield from rows


def _extend(rows, col, span):
    """Each row followed by every coordinate t of span."""
    gcd = math.gcd
    for lead, g, m, consts in rows:
        for t in span:
            yield (lead + (t,), gcd(g, t), max(m, t, -t),
                   [(s + c * t, cn, e) for (s, cn, e), c in zip(consts, col)])


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


def _threshold(exponent, log_slack, m):
    """An upper bound on m^exponent e^log_slack: exp(x) for
    x = fl(exponent log m + log_slack) raised by heights._CHECK's slack
    _CHECK (1 + |exponent log m| + |log_slack|) (see _prefilter); inf past
    the double range."""
    e = exponent * math.log(m)
    x = e + log_slack + _CHECK * (1 + abs(e) + abs(log_slack))
    return math.exp(x) if x < 709.0 else math.inf


def _thresholds(bound, exponent, log_slack):
    """Per-height thresholds thr[m] (_threshold) and, for each m, the log of
    the largest threshold at any height >= m (the bound a row with leading
    height m can reach)."""
    thr = [0.0] + [_threshold(exponent, log_slack, m) for m in range(1, bound + 1)]
    log_top = [0.0] * (bound + 1)
    top = 0.0
    for m in range(bound, 0, -1):
        if thr[m] > top:
            top = thr[m]
        log_top[m] = math.log(top) if top > 0 else -math.inf
    return thr, log_top


def _forms(n, coeffs):
    """Per form, from its row of n+1 pairs (f_j, delta_j), the floats f_j
    and eps = 1.01 sum_j (delta_j + (n+1) u |f_j|) (see _prefilter)."""
    return [([f for f, _ in row], 1.01 * sum(err + (n + 1) * _U * abs(f) for f, err in row))
            for row in coeffs]


def _valid(bound, forms, exponent, log_slack):
    """Whether the rounding analysis of _prefilter and _row_windows covers
    these inputs: heights below 2^40, at most 64 forms, |exponent| and
    |log_slack| below 1e300, each nonzero float coefficient between 1e-200
    and 1e200 in absolute value, 0 < eps_i < 1e200, and every product of
    nonzero factors g_i inside (e^-700, e^700).  A nonzero g_i lies in
    (u eps_i, 2 bound sum_j |f_ij|): it exceeds u E_i, E_i >= eps_i normal,
    as the floats above E_i are more than u E_i apart, and is below |d_i|."""
    if not (bound < 2 ** 40 and len(forms) <= 64
            and abs(exponent) < 1e300 and abs(log_slack) < 1e300):
        return False
    low = high = 0.0
    for row, e in forms:
        if not (0 < e < 1e200 and all(f == 0 or 1e-200 < abs(f) < 1e200 for f in row)):
            return False
        low += math.log(min(1.0, _U * e))
        high += math.log(max(1.0, 2 * bound * sum(map(abs, row))))
    return low > -700 and high < 700


def _row_windows(bound, consts, pads, n_roots, log_r):
    """Sorted disjoint inclusive ranges of t in [-bound, bound] outside which
    no point of the row passes the prefilter check.

    consts holds, per form, (k, c, eps) where k is the float the check
    computes for the row's fixed leading part (see _rows) and c the float
    coefficient of the last coordinate t, so the check evaluates
    d = fl(k + fl(c*t)); pads[i] is fl(eps bound) for a form with c = 0 and
    fl(eps bound)/|c| for one of the n_roots forms with c != 0.  log_r is
    log T + s - sum log|c| over those n_roots forms, T = exp(log_top) the
    largest threshold the row can reach and s the _CHECK slack below.  With
    e = k + c*t and t* = -k/c (c != 0),
    |d - e| <= 2.01 u (|k| + |c t|) = 2.01 u |c| (|t*| + |t|), u = 2^-53.

    A point passes when some factor g_i = fl(|d_i| - E_i) is <= 0, or when
    the float product of the g_i is at most T.  E_i <= fl(eps_i bound) =
    Ebar_i by monotone rounding.  A form with c = 0 has d = k, so its g is
    at least z = fl(|k| - Ebar); the whole row is returned when some z <= 0.
    Else, as _valid keeps every partial product in the normal range, the
    product is >= (1 - u)^nf prod g_i and g_i >= (1 - u)(|d_i| - E_i), so
    with D the forms with c != 0 (n_roots of them) and Z the rest,
    prod_D (|d_i| - E_i) <= T' = T (1 - u)^(-2 nf) / prod_Z z.  Let
    W = (T' / prod_D |c|)^(1/n_roots); if every |d_i| - E_i > |c_i| W the
    product would exceed T', so some |d_i| <= |c_i| W + Ebar_i = |c_i| h_i,
    h_i = W + pads[i]: each window is widened by eps_i bound / |c_i|.

    Window ends: a root with |fl(t*)| >= 3 bound is skipped, because every
    |t| <= bound is further than h + 2.01 u (|t*| + bound) >= h + |d - e|/|c|
    from it (h < bound), so no point of the row is near it.  Otherwise
    |t*|, h < 3 bound < 2^42, so |d - e| < |c|/4 and fl(t* -+ h) is within
    1/4 of t* -+ h: a point with |d| <= |c| h has |t - t*| < h + 1/4, so
    t > fl(t* - h) - 1/2 and t < fl(t* + h) + 1/2, and the integer t lies in
    [floor(fl(t* - h)), ceil(fl(t* + h))].  floor and ceil alone absorb the
    float rounding of k + c*t and of the window ends.

    W is computed in log space from at most nf + 1 logs, each of magnitude
    at most 710 under _valid; s = _CHECK (1 + 710 (nf + 1)) covers their
    rounding, that of the sum, the division and the exp, and (1 - u)^(-2 nf),
    as heights._CHECK does for its sums.  The whole row is returned when no
    form depends on t, or when some h reaches the bound.
    """
    full = [(-bound, bound)]
    if not n_roots:
        return full
    roots = []
    for (k, c, _), pad in zip(consts, pads):
        if c == 0:
            z = (k if k > 0 else -k) - pad
            if z <= 0:
                return full
            log_r -= math.log(z)
        else:
            roots.append((-k / c, pad))
    w = math.exp(min(log_r / n_roots, 100.0))
    ranges = []
    for r, pad in roots:
        h = w + pad
        if h >= bound:
            return full
        if abs(r) >= 3.0 * bound:
            continue
        lo = max(-bound, math.floor(r - h))
        hi = min(bound, math.ceil(r + h))
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


def _passes(consts, t, m, thresholds):
    """The check of _prefilter at the point of last coordinate t in a row
    (see _rows) of leading height m: False when the float product of the
    max(fl(|d_i| - E_i), 0) exceeds thresholds[max(m, |t|)]."""
    if t > m:
        m = t
    elif -t > m:
        m = -t
    prod = 1.0
    for k, c, e in consts:
        d = k + c * t
        g = (d if d > 0 else -d) - e * m
        if g <= 0:
            return True
        prod *= g
    return prod <= thresholds[m]


def _window_terms(n, bound, forms):
    """Once per call, for _row_windows: each form's pad, fl(eps bound), over
    |c_n| when c_n != 0; the number of forms with c_n != 0; and the
    row-independent part of log_r, the window's _CHECK slack less the sum
    of their log|c_n|."""
    pads = [e * bound / abs(row[n]) if row[n] else e * bound for row, e in forms]
    last = [abs(row[n]) for row, _ in forms if row[n]]
    return pads, len(last), _CHECK * (1 + 710 * (len(forms) + 1)) - sum(map(math.log, last))


def _scan(n, rows, bound, forms, thresholds, log_top):
    """The per-row step of _prefilter over the given rows of P^n (_rows): the
    points of each row's windows that pass the check, with thresholds[m]
    and log_top[m] as _thresholds gives them."""
    pads, n_roots, shift = _window_terms(n, bound, forms)
    gcd, passes, out = math.gcd, _passes, []
    for lead, g, m, consts in rows:
        for lo, hi in _row_windows(bound, consts, pads, n_roots, log_top[m] + shift):
            for t in range(lo, hi + 1):
                if gcd(g, t) == 1 and passes(consts, t, m, thresholds):
                    out.append(lead + (t,))
    return out


def _prefilter(n, bound, coeffs, exponent, log_slack, budget=None):
    """Certified streaming float prefilter over the canonical points of P^n(Q).

    coeffs: per form L_i (one per (place, form) pair, archimedean places
    only) a row of n+1 pairs (f_ij, delta_ij), a float within delta_ij of
    the true coefficient c_ij.  Returns, in canonical order, the candidate
    tuples: every point x whose product of |L_i(x)| may be at most
    max|x_j|^exponent e^log_slack, where the exponent and log_slack are
    the floats of the caller's rationals; callers re-evaluate them exactly.
    Raises BudgetExceeded, before scanning, when the leading parts to scan
    outnumber budget.

    The rule.  At a point x of height m = max|x_j| the check computes
    d_i = fl(sum_j f_ij x_j), added left to right, and E_i = fl(eps_i m),
    eps_i = 1.01 sum_j (delta_ij + (n+1) u |f_ij|), u = 2^-53, and drops
    the point when the float product of g_i = max(fl(|d_i| - E_i), 0)
    exceeds thr[m] (_threshold): exp(x) for x = fl(exponent log m +
    log_slack) raised by _CHECK (1 + |exponent log m| + |log_slack|).

    Why no solution is dropped.  |d_i - L_i(x)| <= E_i: the dot product is
    within gamma_(n+1) sum_j |f_ij x_j|, gamma_(n+1) < 1.0001 (n+1) u, of
    sum_j f_ij x_j (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 3.1), the coefficients add sum_j delta_ij |x_j|, and the 1.01
    covers the roundings that form eps_i and E_i.  So each g_i is at most
    (1 + u)|L_i(x)|, and with every partial product in the normal range the
    float product is at most (1 + u)^(2 nf) prod |L_i(x)|.  The raise of x
    is heights._CHECK's slack: it covers the rounding of the exponent and
    log_slack from their rationals, of log m, the sum and the exp, and the
    factor (1 + u)^(2 nf).  So a dropped point has prod |L_i(x)| >
    m^exponent e^log_slack, a certified non-solution: no solution, no tie
    and no point of the support (some L_i(x) = 0, so g_i = 0) is dropped.

    Underflow cannot drop a point.  No product f_ij x_j underflows, as a
    nonzero |f_ij| > 1e-200, and a sum or difference that underflows is
    exact, so d_i and g_i carry no underflow error; _valid keeps every
    partial product of nonzero factors inside (e^-700, e^700), and a
    threshold that underflows stands for a bound below e^-700, under every
    nonzero product.  Inputs outside _valid's analysis make every point a
    candidate.
    """
    rows = ((2 * bound + 1) ** n + 1) // 2 if bound >= 1 else 0
    if budget is not None and rows > budget:
        raise BudgetExceeded("prefilter on P^%d at bound %d scans %d rows, "
                             "over the budget %d" % (n, bound, rows, budget))
    forms = _forms(n, coeffs)
    if not _valid(bound, forms, exponent, log_slack):
        return _enum(n, bound)
    thresholds, log_top = _thresholds(bound, exponent, log_slack)
    out = []
    if bound >= 1 and _passes([(0.0, row[n], e) for row, e in forms], 1, 1, thresholds):
        out.append((0,) * n + (1,))
    return out + _scan(n, _rows(n, bound, forms), bound, forms, thresholds, log_top)


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
