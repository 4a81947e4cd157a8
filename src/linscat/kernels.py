"""Enumeration, counting and float prefilter kernels over P^1(Q) and P^2(Q).

Points are primitive integer tuples in canonical form: gcd 1, first nonzero
coordinate positive, emitted in lexicographic order.  The prefilters are
output-sensitive: for each fixed leading part only the integer windows
around the roots of the forms in the last coordinate are scanned (see
_row_windows), and they return exactly the list a scan of every point
would return.
"""

import itertools
import math

# perfbench/run.py reports this flag; there is no compiled kernel.
USING_COMPILED = False


def enum_p1(bound):
    """All canonical points of P^1(Q) with max|coordinate| <= bound."""
    out = [(0, 1)] if bound >= 1 else []
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            if math.gcd(a, abs(b)) == 1:
                out.append((a, b))
    return out


def enum_p2(bound):
    """All canonical points of P^2(Q) with max|coordinate| <= bound."""
    out = []
    for b in range(0, bound + 1):
        for c in range(-bound, bound + 1):
            if b == 0 and c <= 0:
                continue
            if math.gcd(b, abs(c)) == 1:
                out.append((0, b, c))
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            g = math.gcd(a, abs(b))
            for c in range(-bound, bound + 1):
                if math.gcd(g, abs(c)) == 1:
                    out.append((a, b, c))
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


def count_p1(bound):
    """len(enum_p1(bound)) in O(bound): half the primitive pairs."""
    if bound < 1:
        return 0
    return _primitive_count(bound, 2) // 2


def count_p2(bound):
    """len(enum_p2(bound)) in O(bound): half the primitive triples."""
    if bound < 1:
        return 0
    return _primitive_count(bound, 3) // 2


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
    for the row's fixed leading part (c0*a on P^1, c0*a + c1*b on P^2) and c
    the coefficient of the last coordinate t, so the check evaluates
    d = fl(k + fl(c*t)).  With e = k + c*t and t* = -k/c (c != 0),
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
    padding per side absorbs the float rounding of c0*a + c*t and of the
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


def prefilter_p1(bound, coeffs, exponent, log_slack, margin=1e-6, tiny=1e-12):
    """Streaming float prefilter over canonical P^1 points.

    coeffs: per form a pair (c0, c1) of floats (one entry per (place, form)
    pair, archimedean places only).  A point survives when the product of
    |c0*a + c1*b| over all forms is at most max(|a|,|b|)^exponent times
    exp(log_slack + margin), or when some form value is numerically tiny
    (near the support or a true near-solution; the exact recheck decides).
    Returns candidate (a, b) pairs in canonical order; callers re-evaluate
    them exactly.
    """
    thresholds, log_top = _thresholds(bound, exponent, log_slack, margin)
    out = []
    scaled_tiny = tiny * bound
    valid = _windows_valid(bound, coeffs, scaled_tiny)

    def check(a, b):
        prod = 1.0
        for c0, c1 in coeffs:
            d = c0 * a + c1 * b
            if -scaled_tiny < d < scaled_tiny:
                return True
            prod *= d if d > 0 else -d
        m = a if a > b else b
        mb = -b
        if mb > m:
            m = mb
        return prod <= thresholds[m]

    if bound >= 1 and check(0, 1):
        out.append((0, 1))
    for a in range(1, bound + 1):
        consts = [(c0 * a, c1) for c0, c1 in coeffs]
        for lo, hi in _row_windows(bound, consts, log_top[a], scaled_tiny, valid):
            for b in range(lo, hi + 1):
                if math.gcd(a, abs(b)) == 1 and check(a, b):
                    out.append((a, b))
    return out


def prefilter_p2(bound, coeffs, exponent, log_slack, margin=1e-6, tiny=1e-12):
    """P^2 analogue of prefilter_p1; coeffs are float triples."""
    thresholds, log_top = _thresholds(bound, exponent, log_slack, margin)
    scaled_tiny = tiny * bound
    valid = _windows_valid(bound, coeffs, scaled_tiny)
    out = []

    def check(a, b, c):
        prod = 1.0
        for c0, c1, c2 in coeffs:
            d = c0 * a + c1 * b + c2 * c
            if -scaled_tiny < d < scaled_tiny:
                return True
            prod *= d if d > 0 else -d
        m = max(a, b, -b, c, -c)
        return prod <= thresholds[m]

    if bound >= 1 and check(0, 0, 1):
        out.append((0, 0, 1))
    rows = itertools.chain(
        ((0, b) for b in range(1, bound + 1)),
        ((a, b) for a in range(1, bound + 1) for b in range(-bound, bound + 1)))
    for a, b in rows:
        g = math.gcd(a, abs(b))
        consts = [(c0 * a + c1 * b, c2) for c0, c1, c2 in coeffs]
        lead = max(a, abs(b))
        for lo, hi in _row_windows(bound, consts, log_top[lead], scaled_tiny, valid):
            for c in range(lo, hi + 1):
                if math.gcd(g, abs(c)) == 1 and check(a, b, c):
                    out.append((a, b, c))
    return out
