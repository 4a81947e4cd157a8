import itertools
import math
import random
from fractions import Fraction

import pytest

from linscat import errors
from linscat.ruvojta import (
    delta_sigma,
    feasibility,
    filtration_dims,
    gamma_beta,
    h0_twist,
    monomial_weights,
)


def test_h0_examples():
    assert h0_twist(2, 3) == 10
    assert h0_twist(1, 4) == 5
    assert h0_twist(3, 2, 1) == 4
    assert h0_twist(2, 3, 5) == 0
    with pytest.raises(errors.BadParameter):
        h0_twist(0, 3)
    with pytest.raises(errors.BadParameter):
        h0_twist(2, -1)


def test_gamma_is_n_plus_one_exactly():
    for n in (1, 2, 3, 4):
        table, gamma, sup = gamma_beta(n, 50)
        assert gamma == n + 1
        assert sup == Fraction(1, n + 1)
        assert set(table) == set(range(1, 51))
        for m, ratio in table.items():
            assert ratio == Fraction(n + 1), (n, m)
            # cross-check the denominator against the binomial chain sum
            assert sum(h0_twist(n, m, ell) for ell in range(1, m + 1)) \
                == math.comb(n + m, n + 1)


def test_delta_sigma():
    out = delta_sigma([1, 1], 2)
    assert out == [(0, 2), (1, 1), (2, 0)]
    out2 = delta_sigma([Fraction(1, 2)], 3)
    assert out2 == [(6,)]
    out3 = delta_sigma([Fraction(1, 3), Fraction(1, 2)], 2)
    for tup in out3:
        assert Fraction(1, 3) * tup[0] + Fraction(1, 2) * tup[1] == 2
    with pytest.raises(errors.EmptyDelta):
        delta_sigma([], 1)
    with pytest.raises(errors.BadParameter):
        delta_sigma([0, 1], 2)
    with pytest.raises(errors.BadParameter):
        delta_sigma([1], 0)


def test_monomial_weights_small():
    w = sorted(monomial_weights(1, 2, [0], [1]))
    assert w == [0, 1, 2]
    w2 = sorted(monomial_weights(2, 1, [0, 1], [Fraction(1, 2), 1]))
    assert w2 == [0, Fraction(1, 2), 1]
    with pytest.raises(errors.BadParameter):
        monomial_weights(2, 1, [0], [1, 2])
    with pytest.raises(errors.BadParameter):
        monomial_weights(2, 1, [5], [1])


def test_weak_compositions_match_product_filter():
    """delta_sigma and monomial_weights enumerate weak compositions; both
    equal the filter of the full product by the sum, in the same order."""
    for k in range(1, 5):
        betas = [Fraction(j + 1, 2) for j in range(k)]
        for b in range(1, 7):
            want = sorted(tuple(Fraction(c) / beta for c, beta in zip(ks, betas))
                          for ks in itertools.product(range(b + 1), repeat=k)
                          if sum(ks) == b)
            assert delta_sigma(betas, b) == want
    for n in range(1, 5):
        sigma, a = list(range(n + 1)), [Fraction(i + 1, 3) for i in range(n + 1)]
        for m in range(7):
            want = [sum(a[i] * e for i, e in enumerate(head + (m - sum(head),)))
                    for head in itertools.product(range(m + 1), repeat=n)
                    if sum(head) <= m]
            assert monomial_weights(n, m, sigma, a) == want


def test_filtration_profile_shape():
    prof = filtration_dims(1, 2, [0], [1])
    assert prof.jump_values == [0, 1, 2]
    assert prof.dims == [3, 2, 1]
    assert prof.total == 3
    assert prof.dim_at(0) == 3
    assert prof.dim_at(Fraction(3, 2)) == 1
    assert prof.dim_at(3) == 0
    ser = prof.serial()
    assert ser["jumps"] == ["0", "1", "2"] and ser["h0"] == 3


def test_filtration_double_counting_identity():
    """Sum over jumps of t * (dims drop at t) equals the total monomial
    weight; both sides counted independently."""
    rng = random.Random(53)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        m = rng.randint(1, 5)
        size = rng.randint(1, n + 1)
        sigma = rng.sample(range(n + 1), size)
        a = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(size)]
        prof = filtration_dims(n, m, sigma, a)
        drops = []
        for i, t in enumerate(prof.jump_values):
            nxt = prof.dims[i + 1] if i + 1 < len(prof.dims) else 0
            drops.append((t, prof.dims[i] - nxt))
        lhs = sum(t * k for t, k in drops)
        rhs = sum(monomial_weights(n, m, sigma, a))
        assert lhs == rhs
        assert prof.dims == sorted(prof.dims, reverse=True)
        assert prof.dims[0] == prof.total == h0_twist(n, m)
        assert sum(k for _, k in drops) == prof.total


def test_dim_at_between_jumps():
    prof = filtration_dims(2, 2, [0, 1], [1, Fraction(1, 2)])
    for i, t in enumerate(prof.jump_values):
        assert prof.dim_at(t) == prof.dims[i]
        eps = Fraction(1, 1000)
        if i + 1 < len(prof.jump_values):
            assert prof.dim_at(t + eps) == prof.dims[i + 1]
    assert prof.dim_at(prof.jump_values[-1] + 1) == 0


def test_feasibility_exact():
    ok, lhs, rhs = feasibility(2, 4, [Fraction(1, 4)], 8, Fraction(1, 100),
                               Fraction(1, 2))
    h0 = math.comb(6, 2)
    chain = math.comb(6, 3)
    expect = (1 + Fraction(2, 8)) * (Fraction(1, 4) * 4 * h0
                                     + 4 * Fraction(1, 100)) / chain
    assert lhs == expect
    assert rhs == Fraction(3, 2)
    assert ok == (lhs < rhs)
    # a beta above the sup 1/(n+1) with large m should be infeasible
    bad, lhs2, _ = feasibility(2, 30, [Fraction(1, 2)], 1000,
                               Fraction(1, 1000), Fraction(1, 10))
    assert not bad and lhs2 > Fraction(11, 10)
    with pytest.raises(errors.BadParameter):
        feasibility(2, 4, [Fraction(1, 4)], 0, 1, 1)
    with pytest.raises(errors.BadParameter):
        feasibility(2, 4, [Fraction(1, 4)], 8, 0, 1)
