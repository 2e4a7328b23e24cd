"""Cross-checks of the class-table engine (calibrated_set, dce, dcma)
against a brute-force oracle over set partitions.

The oracle follows the definitions directly: every set partition of the
subgroup gives a class-mean candidate, is_calibrated filters them, and the
distances take the minimum with the lexicographically smallest witness.
"""

import random
import time
import tracemalloc
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
import mcalaudit.distances
import mcalaudit.enumeration
from mcalaudit.instances import gen_dcma_example, gen_hypercube, gen_random, gen_ring

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
    """dcma against the oracle: the nearest member of cal(D) with zero bias
    on every group.  Returns the number of nearest members and whether the
    unconstrained optimum (dce on the whole domain) is biased."""
    everything = Subgroup(range(inst.n))
    scored = sorted(
        (l1_distance(inst.audited, PredictorVec(c), inst.marginal), c)
        for c in _cal_oracle(inst, everything)
        if is_multiaccurate(PredictorVec(c), inst)
    )
    value, cand = scored[0]
    r = dcma(inst)
    assert (r.value, r.witness.values) == (value, cand)
    return sum(v == value for v, _ in scored), not is_multiaccurate(dce(inst, everything).witness, inst)


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


@pytest.mark.parametrize("seed", range(3))
def test_dcma_matches_scoring_the_listed_calibrated_set_at_nine_points(seed):
    # dcma's path before the branch and bound: every member of the listed
    # calibrated set, filtered by bias; it reaches sizes the partition
    # oracle cannot.
    inst = gen_random(9, 3, seed=900 + seed, max_group_size=9)
    f, m = inst.audited, inst.marginal
    value, cand = min(
        (l1_distance(f, PredictorVec(c), m), c)
        for c in calibrated_set(inst, Subgroup(range(9)))
        if is_multiaccurate(PredictorVec(c), inst)
    )
    r = dcma(inst)
    assert (r.value, r.witness.values) == (value, cand)


def _tie_heavy(rng, n):
    """A uniform marginal and coarse grids for p* and f: many partitions
    share a distance, and the cheapest one is often biased on some group."""
    groups = [list(range(n))]
    for _ in range(rng.randint(1, 2)):
        g = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        if g not in groups:
            groups.append(g)
    p_star = [Fraction(rng.randint(0, 2), 2) for _ in range(n)]
    f = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
    return _instance([Fraction(1, n)] * n, p_star, f, groups)


def test_dcma_matches_oracle_with_ties_and_a_biased_calibration_optimum():
    rng = random.Random(5)
    seen = [_check_dcma(_tie_heavy(rng, rng.randint(3, 7))) for _ in range(40)]
    assert sum(ties > 1 for ties, _ in seen) >= 10
    assert sum(biased for _, biased in seen) >= 20
    assert sum(ties > 1 and biased for ties, biased in seen) >= 10


@st.composite
def _tie_heavy_instances(draw, max_k=7):
    n = draw(st.integers(2, max_k))
    extra = draw(st.sets(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1), max_size=2))
    groups = [list(range(n))] + sorted(sorted(g) for g in extra)
    return _instance(
        [Fraction(1, n)] * n,
        [Fraction(v, 2) for v in draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))],
        [Fraction(v, 4) for v in draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))],
        groups,
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_tie_heavy_instances())
def test_dcma_matches_oracle_on_tie_heavy_instances(inst):
    _check_dcma(inst)


def test_dcma_lists_no_candidate_set(monkeypatch):
    def listed(*args, **kwargs):
        raise AssertionError("dcma listed a candidate set")

    monkeypatch.setattr(mcalaudit.enumeration, "calibrated_set", listed)
    monkeypatch.setattr(mcalaudit.distances, "calibrated_set", listed)
    _, inst = gen_dcma_example(Fraction(1, 100))
    assert dcma(inst).value == Fraction(41, 600)
    _check_dcma(_tie_heavy(random.Random(1), 7))


# The class tables rank the class means by an integer floor key.  The
# oracle ranks the means as Fractions, one per mask.


def _check_tables(inst, S):
    t = mcalaudit.enumeration._ClassTables(inst, S)
    k, w = t.k, t.width
    mean = [Fraction(t.num[C], t.mass[C]) for C in range(1 << k)[1:]]
    means = sorted(set(mean))
    assert w == max(1, (len(means) - 1).bit_length())
    ones = sum(1 << w * j for j in range(k))  # a 1 in every digit
    assert t.values([r * ones for r in range(len(means))]) == [(v,) * k for v in means]
    rank = {v: r for r, v in enumerate(means)}
    for C in range(1, 1 << k):
        spread = sum(1 << w * (k - 1 - j) for j in range(k) if C >> j & 1)
        assert t.code[C] == rank[mean[C - 1]] * spread
    if k <= 7:
        shared = {}
        for cand in calibrated_set(inst, S):
            assert all(shared.setdefault(v, v) is v for v in cand)


PRIMES = [q for q in range(1000, 3000) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _prime_marginal(rng, n):
    """Masses a/q over distinct primes q between 1,000 and 3,000; the last
    point takes the rest."""
    ms = [Fraction(rng.randint(1, 40), q) for q in rng.sample(PRIMES, n - 1)]
    return ms + [1 - sum(ms)]


def _table_instance(rng, n, kind):
    if kind == "uniform":
        marginal, p_star = [Fraction(1, n)] * n, [Fraction(rng.randint(0, 20), 20) for _ in range(n)]
    elif kind == "ties":
        marginal, p_star = [Fraction(1, n)] * n, [Fraction(rng.randint(0, 2), 2) for _ in range(n)]
    else:
        marginal, p_star = _prime_marginal(rng, n), [Fraction(rng.randint(0, 7), 7) for _ in range(n)]
    return _instance(marginal, p_star, ["1/2"] * n, [range(n)])


@pytest.mark.parametrize("kind", ["uniform", "ties", "primes"])
def test_class_tables_rank_as_the_fraction_oracle(kind):
    rng = random.Random(f"tables/{kind}")
    for n in [1, 2, 3, 5, 7, 8, 10]:
        inst = _table_instance(rng, n, kind)
        _check_tables(inst, inst.groups[0])


@st.composite
def _table_instances(draw, max_k=10):
    n = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(["uniform", "ties", "primes"]))
    inst = _table_instance(random.Random(draw(st.integers(0, 2**32))), n, kind)
    members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return inst, Subgroup(members)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_table_instances())
def test_class_tables_rank_as_the_fraction_oracle_on_generated_instances(case):
    _check_tables(*case)


def test_class_tables_at_twelve_points_on_prime_denominators_stay_small():
    # An lcm of the 4,095 class masses has tens of thousands of digits
    # here; the floor keys have a few hundred bits.
    inst = _table_instance(random.Random(12), 12, "primes")
    S = inst.groups[0]
    start = time.perf_counter()
    mcalaudit.enumeration._ClassTables(inst, S)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        mcalaudit.enumeration._ClassTables(inst, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
