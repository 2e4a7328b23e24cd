"""Cross-checks of the class-table engine (calibrated_set, dce, dcma)
against a brute-force oracle over set partitions.

The oracle follows the definitions directly: every set partition of the
subgroup gives a class-mean candidate, is_calibrated filters them, and the
distances take the minimum with the lexicographically smallest witness.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalaudit import (
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    calibrated_set,
    conditional_l1,
    dce,
    dcma,
    is_calibrated,
    is_multiaccurate,
    l1_distance,
)
from mcalaudit.instances import gen_hypercube, gen_random, gen_ring

from set_partitions import partitions


def _cal_oracle(inst, S):
    members = S.members
    m, p = inst.marginal, inst.ground_truth
    found = set()
    for part in partitions(len(members)):
        values = [None] * len(members)
        for cls in part.classes:
            xs = [members[j] for j in cls]
            mean = sum(m[x] * p[x] for x in xs) / sum(m[x] for x in xs)
            for j in cls:
                values[j] = mean
        g = inst.audited.with_values(dict(zip(members, values)))
        if is_calibrated(g, inst, S):
            found.add(tuple(values))
    return sorted(found)


def _check_subgroup(inst, S):
    oracle = _cal_oracle(inst, S)
    assert list(calibrated_set(inst, S)) == oracle
    f = inst.audited
    value, cand = min(
        (conditional_l1(f, f.with_values(dict(zip(S.members, c))), inst.marginal, S), c) for c in oracle
    )
    r = dce(inst, S)
    assert r.value == value
    assert r.witness == f.with_values(dict(zip(S.members, cand)))


def _check_dcma(inst):
    everything = Subgroup(range(inst.n))
    value, cand = min(
        (l1_distance(inst.audited, PredictorVec(c), inst.marginal), c)
        for c in _cal_oracle(inst, everything)
        if is_multiaccurate(PredictorVec(c), inst)
    )
    r = dcma(inst)
    assert (r.value, r.witness.values) == (value, cand)


def _check_instance(inst):
    for S in inst.groups:
        _check_subgroup(inst, S)
    _check_dcma(inst)


def _instance(marginal, p_star, f, groups):
    n = len(p_star)
    return Instance(
        FiniteDomain(n), Marginal(marginal), PredictorVec(p_star), SubgroupCollection(groups), PredictorVec(f)
    )


@pytest.mark.parametrize("seed", range(9))
def test_matches_oracle_on_random_instances(seed):
    n = 3 + seed % 6  # 3..8 points; the largest group holds every point
    inst = gen_random(n, 2, seed=700 + seed, max_group_size=n, uniform_marginal=seed % 3 == 0)
    if Subgroup(range(n)) not in list(inst.groups):
        inst = inst.with_groups(SubgroupCollection(list(inst.groups) + [Subgroup(range(n))]))
    _check_instance(inst)


def test_matches_oracle_when_f_is_the_ground_truth():
    inst = gen_random(6, 2, seed=31, max_group_size=6)
    inst = inst.with_audited(inst.ground_truth)
    _check_instance(inst)
    for S in inst.groups:
        assert dce(inst, S).value == 0
        assert dce(inst, S).witness == inst.audited


def test_matches_oracle_with_repeated_ground_truth_values():
    q = Fraction
    inst = _instance(
        [q(1, 10), q(2, 10), q(1, 10), q(3, 10), q(2, 10), q(1, 10)],
        [q(1, 2), q(1, 2), q(1, 4), q(1, 4), q(1, 2), q(3, 4)],
        [q(0), q(1, 3), q(1, 3), q(1, 2), q(1), q(1, 2)],
        [[0, 1, 2, 3, 4, 5], [0, 2, 4], [1, 3, 5]],
    )
    _check_instance(inst)


def test_matches_oracle_with_uniform_marginals_and_ties():
    # constant ground truth: the calibrated set is one point
    cube, _ = gen_hypercube(4)
    _check_subgroup(cube, Subgroup(range(7)))
    inst = _instance([Fraction(1, 7)] * 7, ["1/2", "0", "1", "1/2", "0", "1", "1/2"], ["1/2"] * 7, [range(7)])
    _check_instance(inst)
    _check_subgroup(gen_ring(1), Subgroup(range(4)))


def test_refusals_above_the_ceiling():
    inst = _instance([Fraction(1, 13)] * 13, ["1/2"] * 13, ["0"] * 13, [range(13)])
    S = inst.groups[0]
    for fn in (calibrated_set, dce):
        with pytest.raises(ValueError, match="exceeds the partition ceiling"):
            fn(inst, S)
    with pytest.raises(ValueError, match="exceeds the partition ceiling"):
        dcma(inst)


@st.composite
def _instances(draw, max_k=7):
    n = draw(st.integers(1, max_k))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    grid = draw(st.sampled_from([1, 2, 4, 6]))
    p_star = draw(st.lists(st.integers(0, grid), min_size=n, max_size=n))
    f = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    groups = [list(range(n))]
    extra = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    if len(extra) < n:
        groups.append(sorted(extra))
    return _instance(
        [Fraction(w, sum(weights)) for w in weights],
        [Fraction(v, grid) for v in p_star],
        [Fraction(v, 6) for v in f],
        groups,
    )


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(_instances())
def test_matches_oracle_on_generated_instances(inst):
    _check_instance(inst)
