"""Filtration constants on P^n with coordinate hyperplane divisors.

Sections of O(m) are monomials, so every dimension here is a lattice
count: h0 values are binomials, the gamma ratio m*h0/sum_l h0(m-l) is
exactly n+1 by the hockey-stick identity, and filtration dimensions are
counts of monomials with weighted coordinate-vanishing order above t.
"""

import math
from fractions import Fraction

from .errors import BadParameter, EmptyDelta
from .scattering import _compositions


def h0_twist(n, m, ell=0):
    """h0(P^n, O(m - ell)) = C(n + m - ell, n), or 0 for negative degree."""
    if n < 1 or m < 0 or ell < 0:
        raise BadParameter("need n >= 1, m >= 0, ell >= 0")
    if m < ell:
        return 0
    return math.comb(n + m - ell, n)


def gamma_beta(n, m_max):
    """Per-m ratio table m*h0(m)/sum_{l>=1} h0(m-l), gamma, and the sup of
    feasible beta values (1/gamma)."""
    if n < 1 or m_max < 1:
        raise BadParameter("need n >= 1, m_max >= 1")
    table = {}
    for m in range(1, m_max + 1):
        denom = sum(h0_twist(n, m, ell) for ell in range(1, m + 1))
        table[m] = Fraction(m * h0_twist(n, m, 0), denom)
    gamma = Fraction(n + 1)
    return table, gamma, 1 / gamma


def delta_sigma(betas, b):
    """Tuples a with a_i in (1/beta_i) N and sum beta_i a_i = b, lex order.

    Writing a_i = k_i / beta_i with k_i a nonnegative integer, the
    constraint is simply sum k_i = b.
    """
    betas = [Fraction(x) for x in betas]
    if any(x <= 0 for x in betas):
        raise BadParameter("beta values must be positive")
    b = int(b)
    if b < 1:
        raise BadParameter("b must be a positive integer")
    if not betas:
        raise EmptyDelta("no admissible tuples for betas %r, b=%d" % (betas, b))
    return sorted(tuple(Fraction(k) / beta for k, beta in zip(ks, betas))
                  for ks in _compositions(b, len(betas)))


class FiltrationProfile:
    """Jump values and dimensions of a weighted monomial filtration."""

    __slots__ = ("jump_values", "dims", "total")

    def __init__(self, jump_values, dims, total):
        self.jump_values = jump_values
        self.dims = dims
        self.total = total

    def dim_at(self, t):
        """dim of the filtration piece at level t (sections of weight >= t).

        Between jumps the count equals that of the next jump up; above the
        largest jump it is 0.
        """
        for jump, dim in zip(self.jump_values, self.dims):
            if jump >= t:
                return dim
        return 0

    def serial(self):
        return {
            "jumps": [str(t) for t in self.jump_values],
            "dims": list(self.dims),
            "h0": self.total,
        }


def monomial_weights(n, m, sigma, a):
    """Weight sum_{i in sigma} a_i e_i of each degree-m monomial x^e, the
    exponents e in lexicographic order."""
    if n < 1 or m < 0:
        raise BadParameter("need n >= 1, m >= 0")
    sigma = sorted(set(sigma))
    if len(sigma) != len(a):
        raise BadParameter("sigma and a must have the same length")
    if any(i < 0 or i > n for i in sigma):
        raise BadParameter("sigma indices must lie in 0..n")
    a = [Fraction(x) for x in a]
    return [sum(a[k] * e[i] for k, i in enumerate(sigma))
            for e in _compositions(m, n + 1)]


def filtration_dims(n, m, sigma, a):
    """Profile of dims(t) = #{degree-m monomials of weight >= t}."""
    weights = monomial_weights(n, m, sigma, a)
    total = h0_twist(n, m, 0)
    assert len(weights) == total
    jumps = sorted(set(weights))
    dims = [sum(1 for w in weights if w >= t) for t in jumps]
    return FiltrationProfile(jumps, dims, total)


def feasibility(n, m, betas, b, epsilon1, epsilon):
    """Exact rational predicate for the constant-comparison inequality
    (1 + n/b) * max_i (beta_i m h0 + m eps1) / h0_chain < 1 + eps
    with h0 = C(n+m,n) and h0_chain = C(n+m,n+1) = sum_{l>=1} h0(m-l)."""
    betas = [Fraction(x) for x in betas]
    epsilon1 = Fraction(epsilon1)
    epsilon = Fraction(epsilon)
    b = int(b)
    if b < 1 or epsilon1 <= 0 or epsilon <= 0:
        raise BadParameter("need b >= 1, epsilon1 > 0, epsilon > 0")
    h0 = h0_twist(n, m, 0)
    chain = sum(h0_twist(n, m, ell) for ell in range(1, m + 1))
    lhs = (1 + Fraction(n, b)) * max(
        (beta * m * h0 + m * epsilon1) / chain for beta in betas
    )
    return lhs < 1 + epsilon, lhs, 1 + epsilon
