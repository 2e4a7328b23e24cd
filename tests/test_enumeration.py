import time
from fractions import Fraction

import pytest

from mcalaudit import (
    BudgetExceeded,
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    bell_number,
    calibrated_set,
    dmc,
    is_calibrated,
    is_degree_r_multicalibrated,
    is_multiaccurate,
    is_multicalibrated,
    multicalibrated_set,
)
from mcalaudit.enumeration import PARTITION_CEILING
from mcalaudit.instances import gen_random, gen_three_point

from set_partitions import partitions


def test_bell_numbers():
    assert [bell_number(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert bell_number(12) == 4213597


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_partitions_count_and_uniqueness(k):
    parts = list(partitions(k))
    assert len(parts) == bell_number(k)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert p.k == k


def test_partitions_ceiling():
    with pytest.raises(ValueError):
        next(partitions(13))


def test_is_calibrated_three_point():
    inst = gen_three_point(0)
    S1, S2 = inst.groups
    assert is_calibrated(inst.audited, inst, S1)
    assert is_calibrated(inst.audited, inst, S2)
    assert is_calibrated(inst.ground_truth, inst, S1)
    shifted = gen_three_point(Fraction(1, 10))
    assert not is_calibrated(shifted.audited, shifted, S2)


def test_calibrated_set_pair_group():
    inst = gen_three_point(0)
    cs = calibrated_set(inst, inst.groups[0])
    # one candidate per partition of a pair: pooled mean, or the exact values
    assert set(cs) == {
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(4, 5), Fraction(1, 5)),
    }


def test_calibrated_set_members_order():
    inst = gen_three_point(Fraction(1, 10))
    S = Subgroup([2, 1])  # stored sorted as (1, 2)
    cs = calibrated_set(inst, S)
    for cand in cs:
        assert len(cand) == 2
    # pooled mean of p* on {1,2} is (1/5 + 9/10)/2 = 11/20
    assert (Fraction(11, 20), Fraction(11, 20)) in set(cs)


def _mcal_oracle(inst):
    """Independent brute force: enumerate set partitions of the whole
    domain as candidate level-set partitions; each covered class value is
    forced to the conditional mean of the ground truth on class ∩ S for
    every group S meeting the class, and those means must agree."""
    n = inst.n
    m = inst.marginal
    p = inst.ground_truth
    results = set()
    for part in partitions(n):
        values = [None] * n
        ok = True
        for cls in part.classes:
            forced = None
            for S in inst.groups:
                inter = [x for x in cls if x in set(S.members)]
                if not inter:
                    continue
                mass = sum((m[x] for x in inter), Fraction(0))
                mean = sum((m[x] * p[x] for x in inter), Fraction(0)) / mass
                if forced is None:
                    forced = mean
                elif forced != mean:
                    ok = False
                    break
            if not ok:
                break
            for x in cls:
                values[x] = forced  # None if no group meets the class
        if not ok:
            continue
        g = inst.audited.with_values({x: v for x, v in enumerate(values) if v is not None})
        if is_multicalibrated(g, inst):
            results.add(tuple(values))
    return results


def test_multicalibrated_set_three_point():
    inst = gen_three_point(0)
    mc = multicalibrated_set(inst)
    assert set(mc) == {
        (Fraction(1, 2),) * 3,
        (Fraction(4, 5), Fraction(1, 5), Fraction(4, 5)),
    }
    shifted = gen_three_point(Fraction(1, 10))
    assert multicalibrated_set(shifted) == [tuple(shifted.ground_truth.values)]


@pytest.mark.parametrize("seed", range(25))
def test_multicalibrated_set_matches_bruteforce(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    k = min(rng.randrange(1, 4), n)
    inst = gen_random(n, k, seed=900 + seed)
    mc = multicalibrated_set(inst)
    assert set(mc) == _mcal_oracle(inst)
    assert len(set(mc)) == len(mc)
    assert mc == sorted(mc)


def test_multicalibrated_set_budget_refusal():
    inst = gen_three_point(0)
    with pytest.raises(ValueError, match="budget"):
        multicalibrated_set(inst, budget=1)


def test_uncovered_coordinates_are_free():
    inst = gen_three_point(0).with_groups(SubgroupCollection([[0, 1]]))
    mc = multicalibrated_set(inst)
    assert all(t[2] is None for t in mc)
    assert dmc(inst).witness[2] == inst.audited[2]


def test_is_multiaccurate():
    inst = gen_three_point(0)
    assert is_multiaccurate(inst.ground_truth, inst)
    assert is_multiaccurate(inst.audited, inst)  # means match on both pairs
    shifted = gen_three_point(Fraction(1, 10))
    assert not is_multiaccurate(shifted.audited, shifted)


def test_degree_r_multicalibration():
    inst = gen_three_point(0)
    # degree 1 is multiaccuracy-style; constant predictors satisfy any
    # degree when plain calibration holds on every group
    assert is_degree_r_multicalibrated(inst.audited, inst, 1)
    assert is_degree_r_multicalibrated(inst.audited, inst, 2)
    assert is_degree_r_multicalibrated(inst.ground_truth, inst, 5)
    shifted = gen_three_point(Fraction(1, 10))
    assert not is_degree_r_multicalibrated(shifted.audited, shifted, 2)
    # f takes three values on the one group, and m(f - p*) = (1, -2, 1)/24 is
    # orthogonal to 1 and f but not to f^2: degrees 1 and 2 hold, 3 fails
    q = Fraction
    exact2 = Instance(
        FiniteDomain(3),
        Marginal.uniform(3),
        PredictorVec([q(1, 8), q(3, 4), q(5, 8)]),
        SubgroupCollection([[0, 1, 2]]),
        PredictorVec([q(1, 4), q(1, 2), q(3, 4)]),
    )
    assert [is_degree_r_multicalibrated(exact2.audited, exact2, r) for r in range(1, 5)] == [True, True, False, False]
    with pytest.raises(ValueError):
        is_degree_r_multicalibrated(inst.audited, inst, 0)


def test_degree_r_stops_at_the_distinct_values_of_f():
    # On d distinct values the monomials below degree d span every weight,
    # so a huge r answers as r = n does, without computing its powers.
    for alpha in (Fraction(0), Fraction(1, 10)):
        inst = gen_three_point(alpha)
        for f in (inst.audited, inst.ground_truth, PredictorVec([Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)])):
            start = time.perf_counter()
            huge = is_degree_r_multicalibrated(f, inst, 10**6)
            assert time.perf_counter() - start < 1
            assert huge == is_degree_r_multicalibrated(f, inst, inst.n)


def test_partition_ceiling_refusal_is_typed():
    with pytest.raises(BudgetExceeded, match="exceeds the partition ceiling") as info:
        next(partitions(13))
    assert (info.value.bound, info.value.budget) == (13, PARTITION_CEILING)
    with pytest.raises(ValueError) as info:
        next(partitions(0))
    assert not isinstance(info.value, BudgetExceeded)


def test_bell_product_refusal_is_typed():
    inst = gen_three_point(0)  # groups of 2 points each: Bell(2)^2 = 4
    with pytest.raises(BudgetExceeded, match="exceeds budget 3") as info:
        multicalibrated_set(inst, budget=3)
    assert (info.value.bound, info.value.budget) == (4, 3)
    assert len(multicalibrated_set(inst, budget=4)) == 2
