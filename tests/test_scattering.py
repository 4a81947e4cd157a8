import random
from fractions import Fraction

import pytest

from linscat import errors, nf_create
from linscat.fieldarith import RATIONALS
from linscat.heights import LinearForm
from linscat.scattering import (
    Classification,
    SimplexCover,
    WeightSystem,
    classify_solution,
    fw_weights,
    gen_pos_reduce,
    scatter_partition,
    scatter_weights,
    simplex_cover,
    simplex_select,
    type1_simplex_c,
    type2_simplex_c,
)


def test_fw_examples():
    eps, c = fw_weights([[2, 1]])
    assert eps == Fraction(1, 2)
    assert c.entries == ((Fraction(-1, 2), Fraction(1, 2)),)
    eps, c = fw_weights([[2, 1, 1]])
    assert eps == Fraction(1, 3)
    assert c.entries == ((Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)),)
    with pytest.raises(errors.ThresholdNotMet):
        fw_weights([[1, 1]])
    with pytest.raises(errors.ThresholdNotMet):
        fw_weights([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])


def test_fw_zero_row_sums_random():
    rng = random.Random(41)
    for _ in range(50):
        width = rng.choice([2, 3])
        rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 3))
                 for _ in range(width)]
                for _v in range(rng.choice([1, 2, 3]))]
        total = sum(sum(r) for r in rows)
        n = len(rows[0]) - 1
        if total <= n + 1:
            with pytest.raises(errors.ThresholdNotMet):
                fw_weights(rows)
            continue
        eps, c = fw_weights(rows)
        assert eps > 0
        for row in c.entries:
            assert sum(row) == 0


def test_simplex_cover_examples():
    cov = simplex_cover(Fraction(3, 4), 2)
    assert cov.delta == Fraction(1, 8)
    assert len(cov) == 7
    for pt in cov:
        assert sum(pt) == Fraction(3, 4)
        assert all(x >= 0 and (x / cov.delta).denominator == 1 for x in pt)
    assert simplex_cover(Fraction(1, 2), 1).points == [(Fraction(1, 2),)]
    with pytest.raises(errors.BadParameter):
        simplex_cover(Fraction(3, 2), 2)
    with pytest.raises(errors.BadParameter):
        simplex_cover(0, 2)
    # delta must divide c, or the grid points would not sum to c: a
    # BadParameter, not an assert that python -O drops
    with pytest.raises(errors.BadParameter):
        SimplexCover(Fraction(1, 2), 2, Fraction(1, 3))
    assert SimplexCover(Fraction(1, 2), 2, Fraction(1, 6)).m == 3


def test_simplex_cover_refinement():
    cov = simplex_cover(Fraction(3, 4), 2, N=12)
    assert cov.delta == Fraction(3, 48)
    with pytest.raises(errors.BadParameter):
        simplex_cover(Fraction(3, 4), 2, N=2)


def test_simplex_select_examples():
    cov = simplex_cover(Fraction(3, 4), 2)
    assert simplex_select([1, 1], cov) == (Fraction(1, 2), Fraction(1, 4))
    assert simplex_select([1, 0], cov) == (Fraction(3, 4), Fraction(0))
    assert simplex_select([5, 5], cov) == simplex_select([1, 1], cov)


def test_simplex_select_exact_property_random():
    rng = random.Random(43)
    covers = {}
    for _ in range(300):
        i_size = rng.randint(1, 6)
        c = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)])
        if (c, i_size) not in covers:
            covers[(c, i_size)] = simplex_cover(c, i_size)
        cov = covers[(c, i_size)]
        b = [Fraction(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(i_size)]
        if not any(b):
            b[0] = Fraction(1)
        a = simplex_select(b, cov)
        B = sum(b)
        assert sum(a) == c
        assert cov.contains(a)
        for bj, aj in zip(b, a):
            assert bj >= aj * B


def test_classify_examples():
    assert classify_solution([[26, 4]], 10, 1, 0.5) == Classification("TypeI", 0)
    assert classify_solution([[14, 14]], 10, 1, 0.5) == Classification("TypeII")
    assert classify_solution([[10, 10]], 10, 1, 0.5) == Classification("NotASolution")
    # anchor picks the smallest qualifying index
    assert classify_solution([[26, 30]], 10, 1, 0.5).anchor == 0
    with pytest.raises(errors.BadParameter):
        classify_solution([[1, 1]], 0, 1, 0.5)


def test_scatter_weight_examples():
    ws = scatter_weights("TypeI", 1, Fraction(1, 2), [Fraction(15, 16)])
    assert ws.entries == ((Fraction(75, 32), Fraction(0)),)
    ws2 = scatter_weights("TypeII", 1, Fraction(1, 2),
                          [Fraction(31, 64), Fraction(31, 64)], S_size=1)
    assert ws2.entries == ((Fraction(75, 64), Fraction(75, 64)),)
    assert ws2.total() == Fraction(75, 32)


def test_scatter_sum_closed_forms():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.choice([1, 2])
        eps = Fraction(rng.randint(1, 6), 10)
        s = rng.randint(1, 3)
        cov1 = simplex_cover(type1_simplex_c(n, eps), s)
        tup = cov1.sample(rng)
        assert cov1.contains(tup)
        try:
            ws = scatter_weights("TypeI", n, eps, tup)
        except errors.SumCheckFailed:
            continue
        assert ws.total() == (n + 1 + eps) * sum(tup)
    for _ in range(40):
        n = rng.choice([1, 2])
        eps = Fraction(rng.randint(1, 6), 10)
        s = rng.randint(1, 2)
        cov2 = simplex_cover(type2_simplex_c(n, eps), s * (n + 1))
        tup = cov2.sample(rng)
        assert cov2.contains(tup)
        try:
            ws = scatter_weights("TypeII", n, eps, tup, S_size=s)
        except errors.SumCheckFailed:
            continue
        assert ws.total() == (n + 1) * (n + 1 + eps) * sum(tup) - n * (n + 1 + eps)


def test_sum_check_failed_threshold():
    # for Type I with one place, sum e = (n+1+eps)(1 - eps/(4(n+1))); find an
    # epsilon beyond the quadratic root where the sum drops below n+1
    n = 1
    eps = Fraction(7)  # (2+7)(1-7/8) = 9/8 <= 2
    cov = simplex_cover(type1_simplex_c(n, eps), 1)
    with pytest.raises(errors.SumCheckFailed):
        scatter_weights("TypeI", n, eps, cov.points[0])


def test_weight_system_validation():
    with pytest.raises(errors.BadParameter):
        WeightSystem([[1, -1], [1, 1]], "c")
    with pytest.raises(errors.BadParameter):
        WeightSystem([[1, 2], [1]], "d")
    with pytest.raises(errors.BadParameter):
        WeightSystem([[1, 2]], "x")


def test_gen_pos_reduce():
    forms = [LinearForm(RATIONALS, [1, 0]), LinearForm(RATIONALS, [0, 1]),
             LinearForm(RATIONALS, [1, 1])]
    sel, red, resid = gen_pos_reduce([forms], [[5, 1, 3]], 1)
    assert sel == [[0, 2]]
    assert red == [[5, 3]]
    assert resid == 1
    # identity selection when nothing to discard
    sel2, red2, resid2 = gen_pos_reduce([forms[:2]], [[5, 1]], 1)
    assert sel2 == [[0, 1]] and resid2 == 0
    bad = [forms[0], forms[1], LinearForm(RATIONALS, [2, 0])]
    with pytest.raises(errors.GeneralPositionViolated):
        gen_pos_reduce([bad], [[1, 2, 3]], 1)
    K = nf_create([-2, 0, 1])
    th = K.gen()
    kforms = [LinearForm(K, [1, 0]), LinearForm(K, [-th, 1]),
              LinearForm(K, [th, 1])]
    sel3, red3, resid3 = gen_pos_reduce([kforms], [[2, 7, 1]], 1)
    assert sel3 == [[0, 1]] and resid3 == 1


def test_scatter_partition_groups_and_rejects():
    profiles = [
        ("a", [[Fraction(26), Fraction(4)]], 10),
        ("b", [[Fraction(27), Fraction(3)]], 10),
        ("c", [[Fraction(14), Fraction(14)]], 10),
        ("d", [[Fraction(9), Fraction(9)]], 10),
    ]
    classes, rejected = scatter_partition(profiles, 1, Fraction(1, 2), 1)
    assert rejected == ["d"]
    kinds = [(c.class_kind, sorted(c.members)) for c in classes]
    member_union = sorted(m for c in classes for m in c.members)
    assert member_union == ["a", "b", "c"]
    for c in classes:
        assert c.e_weights.total() > 2
        ser = c.serial()
        assert ser["sum_e"] == str(c.e_weights.total())
