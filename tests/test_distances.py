import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcalaudit import (
    BudgetExceeded,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    conditional_l1,
    dce,
    dcma,
    dimc,
    dmc,
    dmc_lowdeg_bruteforce,
    generated_partition,
    intersection_closure,
    is_calibrated,
    is_multiaccurate,
    is_multicalibrated,
    l1_distance,
    local_min_probe,
    wdma,
    wdmc,
)
from mcalaudit.core import group_mass, instance_from_dict
import mcalaudit.distances
import mcalaudit.enumeration
from mcalaudit.distances import CLOSURE_CEILING, METRICS, certify
from mcalaudit.enumeration import DEFAULT_BUDGET, multicalibrated_set
from mcalaudit.instances import (
    gen_cdmc_example,
    gen_dcma_example,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
)
from test_cal_engine import _check_dcma, _table_instance, _table_instances
from test_table_cache import builds  # noqa: F401  (a fixture)


def test_dce_three_point():
    inst = gen_three_point(Fraction(1, 10))
    r1 = dce(inst, inst.groups[0])
    assert r1.value == 0  # constant 1/2 equals the pooled mean on {0,1}
    r2 = dce(inst, inst.groups[1])
    # pooled mean on {1,2} is 11/20, at conditional distance 1/20 from 1/2
    assert r2.value == Fraction(1, 20)
    assert r2.witness.values == (Fraction(1, 2), Fraction(11, 20), Fraction(11, 20))
    assert is_calibrated(r2.witness, inst, inst.groups[1])


def test_dce_witness_leaves_off_group_values():
    inst = gen_three_point(Fraction(1, 10))
    r = dce(inst, inst.groups[1])
    assert r.witness[0] == inst.audited[0]


def test_wdmc_three_point():
    inst = gen_three_point(Fraction(1, 10))
    value, group = wdmc(inst)
    assert value == Fraction(2, 3) * Fraction(1, 20) == Fraction(1, 30)
    assert group.members == (1, 2)


def test_wdmc_and_wdma_report_the_first_of_tied_groups():
    # {0,1} and {2,3} are mirror images, so both groups score 1/8 in each
    quarter = Fraction(1, 4)
    d = {"n": 4, "marginal": [quarter] * 4, "p_star": [0, 1, 0, 1], "groups": [[0, 1], [2, 3]], "f": [quarter] * 4}
    for groups in ([[0, 1], [2, 3]], [[2, 3], [0, 1]]):
        inst = instance_from_dict({**d, "groups": groups})
        first = inst.groups[0]
        assert wdmc(inst) == (Fraction(1, 8), first)
        assert wdma(inst) == (Fraction(1, 8), first)


def test_wdmc_reports_the_first_of_groups_tied_over_different_units():
    # {0,1}: mass 1/2, dce 1/10; {2}: mass 1/4, dce 1/5; both weigh 1/20
    quarter = Fraction(1, 4)
    d = {"n": 4, "marginal": [quarter] * 4, "p_star": [0, 0, 0, 1], "f": ["1/10", "1/10", "1/5", 1]}
    for groups in ([[0, 1], [2], [3]], [[2], [3], [0, 1]], [[3], [0, 1], [2]]):
        inst = instance_from_dict({**d, "groups": groups})
        first = next(S for S in inst.groups if S.members != (3,))
        assert wdmc(inst) == (Fraction(1, 20), first)
        assert wdmc(inst) == _weighted_dce_oracle(inst)


def _weighted_dce_oracle(inst):
    """wdmc from dce's values: max of m(S) dce(S), the first maximal group."""
    return max(((group_mass(inst.marginal, S) * dce(inst, S).value, S) for S in inst.groups), key=lambda t: t[0])


def _check_wdmc_and_dimc(inst):
    """wdmc and dimc against dce: wdmc is the largest m(S) dce(S), the
    first such group; dimc is the sum of m(c) dce(c) over the generated
    cells, its witness taking each cell's values from that cell's dce
    witness, and is refused when the groups leave a point uncovered."""
    assert wdmc(inst) == _weighted_dce_oracle(inst)
    if not inst.groups.covers(inst.n):
        with pytest.raises(ValueError, match="cover"):
            dimc(inst)
        return
    total, updates = Fraction(0), {}
    for cell in generated_partition(inst.groups, inst.n):
        r = dce(inst, cell)
        total += group_mass(inst.marginal, cell) * r.value
        updates.update((x, r.witness[x]) for x in cell.members)
    assert dimc(inst) == (total, inst.audited.with_values(updates))


def test_wdmc_and_dimc_match_dce_on_seeded_instances():
    for seed in range(60):
        n = 2 + seed % 7
        _check_wdmc_and_dimc(gen_random(n, 1 + seed % min(4, n), seed=seed, grid_denominator=(3, 20)[seed % 2]))
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(1, 8)
        inst = _table_instance(rng, n, rng.choice(["uniform", "ties", "primes"]))
        groups = {tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(rng.randint(1, 4))}
        _check_wdmc_and_dimc(inst.with_groups(SubgroupCollection(sorted(groups))))


def test_wdmc_and_dimc_match_dce_on_the_families():
    cube, with_target = gen_hypercube(3)
    for inst in (gen_three_point(Fraction(1, 10)), gen_ring(2), cube, with_target([0, 3]), gen_cdmc_example(),
                 gen_wdmc_local_min(Fraction(1, 200), Fraction(1, 10)), *gen_dcma_example(Fraction(1, 100))):
        _check_wdmc_and_dimc(inst)


def test_wdmc_and_dimc_read_no_witness_of_dce(monkeypatch):
    cases = [gen_ring(2), gen_random(8, 4, seed=3), _table_instance(random.Random(4), 6, "primes")]
    expected = [(wdmc(inst), dimc(inst)) for inst in cases]

    def refused(*args, **kwargs):
        raise AssertionError("dce's witness was built")

    monkeypatch.setattr(mcalaudit.distances, "dce", refused)
    monkeypatch.setattr(mcalaudit.distances._PartitionScores, "result", refused)
    copies = []
    with_values = PredictorVec.with_values

    def counted(self, updates):
        copies.append(len(updates))
        return with_values(self, updates)

    monkeypatch.setattr(PredictorVec, "with_values", counted)
    for inst, (w, d) in zip(cases, expected):
        assert wdmc(inst) == w
        assert copies == []
        assert dimc(inst) == d
        assert copies == [inst.n]
        copies.clear()


def _bounds_oracle(inst, S):
    """|sum_S m(f - p*)| and sum_S m|f - p*| in `Fraction` sums, and whether
    f - p* keeps one sign on S."""
    m, f, p = inst.marginal, inst.audited, inst.ground_truth
    diffs = [m[x] * (f[x] - p[x]) for x in S.members]
    one_sign = all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
    return abs(sum(diffs, Fraction(0))), sum(map(abs, diffs), Fraction(0)), one_sign


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_table_instances(max_k=8), st.data())
def test_group_mass_times_dce_lies_between_the_bias_and_the_distance_to_p_star(case, data):
    inst, S = case
    if data.draw(st.booleans()):  # f a grid draw, not the constant 1/2
        grid = st.lists(st.integers(0, 6), min_size=inst.n, max_size=inst.n)
        inst = inst.with_audited(PredictorVec([Fraction(v, 6) for v in data.draw(grid)]))
    lower, upper, one_sign = _bounds_oracle(inst, S)
    weighted = group_mass(inst.marginal, S) * dce(inst, S).value
    assert lower <= weighted <= upper
    if one_sign:
        assert lower == weighted == upper


def test_wdmc_reports_the_first_maximal_group_when_its_bounds_skip_a_tied_one(builds):
    # m = 1/4; e = m(f - p*) = (1/8, -1/8, 1/8, 1/8).  {2} and {3} keep one
    # sign, so their bounds meet at 1/8; {0, 1}'s bounds are 0 and 1/4, and
    # its DP finds 1/8 (one class of mean 1/4)
    quarter = Fraction(1, 4)
    d = {"n": 4, "marginal": [quarter] * 4, "p_star": [0, "1/2", 0, 0], "f": ["1/2", 0, "1/2", "1/2"]}
    for groups, first in (([[2], [3]], (2,)), ([[3], [2]], (3,)), ([[0, 1], [2]], (0, 1)), ([[2], [0, 1], [3]], (2,))):
        inst = instance_from_dict({**d, "groups": groups})
        before = len(builds["score"])
        value, group = wdmc(inst)
        # {0, 1}'s tables alone: its upper bound 1/4 passes, but its value
        # does not beat a 1/8 found before it
        assert builds["score"][before:] == ([(0, 1)] if [0, 1] in groups else [])
        assert (value, group.members) == (Fraction(1, 8), first)
        assert (value, group) == _weighted_dce_oracle(inst)


def test_wdmc_and_dimc_where_f_is_at_least_p_star_everywhere(builds):
    # e >= 0: every bound meets, and wdmc builds no group's tables; dimc's
    # cells of several points still take the DP's witness
    rng = random.Random(27)
    for seed in range(40):
        n = 2 + seed % 7
        inst = gen_random(n, 1 + seed % min(4, n), seed=seed, grid_denominator=(3, 20)[seed % 2])
        p = inst.ground_truth
        inst = inst.with_audited(PredictorVec([max(p[x], Fraction(rng.randint(0, 6), 6)) for x in range(n)]))
        before = len(builds["score"])
        wdmc(inst)
        assert len(builds["score"]) == before
        _check_wdmc_and_dimc(inst)
    # f = (1/2, 1/2), p* = (2/5, 1/5): the bounds meet at 1/5, which p*
    # attains, but so does (3/10, 3/10), the smaller witness
    inst = instance_from_dict({"n": 2, "marginal": ["1/2"] * 2, "p_star": ["2/5", "1/5"], "f": ["1/2"] * 2, "groups": [[0, 1]]})
    assert wdmc(inst) == (Fraction(1, 5), inst.groups[0])
    assert dimc(inst).witness.values == (Fraction(3, 10), Fraction(3, 10))
    _check_wdmc_and_dimc(inst)


def test_one_point_cells_build_no_tables(builds):
    inst = gen_cdmc_example()  # cells (0,), (1, 2), (3,); groups (0, 1, 2), (1, 2, 3)
    _check_wdmc_and_dimc(inst)
    before = {kind: len(v) for kind, v in builds.items()}
    dimc(inst)
    assert {kind: v[before[kind]:] for kind, v in builds.items()} == {"class": [(1, 2)], "score": [(1, 2)]}
    # f = p* on every point: wdmc's bounds are all 0, and every cell is one point
    cube, _ = gen_hypercube(4)
    assert all(len(c) == 1 for c in generated_partition(cube.groups, cube.n))
    before = {kind: len(v) for kind, v in builds.items()}
    assert wdmc(cube) == (0, cube.groups[0])
    assert dimc(cube) == (0, cube.audited)
    assert {kind: len(v) for kind, v in builds.items()} == before


def test_wdmc_refuses_a_group_above_the_partition_ceiling_that_its_bounds_settle():
    n = 13
    half = ["1/2"] * n
    # f = p*: every bound is 0.  The second instance's cells have at most
    # 10 points, so dimc computes it.
    for groups, refused in (([list(range(n))], (wdmc, dimc)), ([[0], [1, 2], list(range(n))], (wdmc,))):
        inst = instance_from_dict({"n": n, "marginal": [f"1/{n}"] * n, "p_star": half, "f": half, "groups": groups})
        for metric in refused:
            with pytest.raises(BudgetExceeded, match=r"^k=13 exceeds the partition ceiling 12 \("):
                metric(inst)


def _completed_mcal(inst, budget=DEFAULT_BUDGET):
    """The multicalibrated set with f filled in where no group constrains."""
    f = inst.audited
    return [f.with_values({x: v for x, v in enumerate(c) if v is not None}) for c in multicalibrated_set(inst, budget)]


def _check_dmc(inst, budget=DEFAULT_BUDGET):
    """dmc against the Fraction oracle: every member of the listed and
    completed multicalibrated set scored by l1_distance, the least value
    with the lexicographically smallest witness.  Returns the number of
    nearest members."""
    f, m = inst.audited, inst.marginal
    scored = sorted((l1_distance(f, g, m), g.values) for g in _completed_mcal(inst, budget))
    r = dmc(inst, budget)
    assert (r.value, r.witness.values) == scored[0]
    return sum(v == scored[0][0] for v, _ in scored)


def test_dmc_witness_is_multicalibrated():
    tied = 0
    for seed in range(10):
        inst = gen_random(4, 2, seed=seed)
        r = dmc(inst)
        assert is_multicalibrated(r.witness, inst)
        assert r.value == l1_distance(inst.audited, r.witness, inst.marginal)
        # among several minima the witness is the smallest completed vector
        f = inst.audited
        minima = [g.values for g in _completed_mcal(inst) if l1_distance(f, g, inst.marginal) == r.value]
        assert r.witness.values == min(minima)
        tied += len(minima) > 1
    assert tied >= 2


def _random_instance(n, k, seed, drop):
    """A gen_random instance with a non-uniform marginal, less its first
    group when `drop` (which can leave coordinates uncovered)."""
    inst = gen_random(n, min(k, n), seed=seed)
    assume(len(set(inst.marginal.probs)) > 1)
    if drop and len(inst.groups) > 1:
        inst = inst.with_groups(SubgroupCollection(inst.groups[1:]))
    return inst


_RANDOM_ARGS = dict(n=st.integers(2, 6), k=st.integers(1, 3), seed=st.integers(0, 2**16), drop=st.booleans())


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(**_RANDOM_ARGS)
@example(n=5, k=3, seed=0, drop=True)  # coordinate 0 uncovered
def test_dmc_matches_scoring_the_completed_set(n, k, seed, drop):
    inst = _random_instance(n, k, seed, drop)
    f = inst.audited
    value, values = min((l1_distance(f, g, inst.marginal), g.values) for g in _completed_mcal(inst))
    r = dmc(inst)
    assert (r.value, r.witness.values) == (value, values)


def _seven_points(seed, sizes):
    """The first gen_random instance on 7 points, from a seeded stream,
    whose sorted group sizes are `sizes`: audit-large's shapes."""
    rng = random.Random(seed)
    while True:
        inst = gen_random(7, len(sizes), seed=rng.randrange(2**32), max_group_size=6)
        if tuple(sorted(len(g) for g in inst.groups)) == sizes:
            return inst


@pytest.mark.parametrize("seed", range(4))
def test_dmc_matches_the_oracle_on_seven_points_with_a_six_point_group(seed):
    for sizes in ((1, 6), (2, 6)):
        _check_dmc(_seven_points(seed, sizes))


def test_dmc_matches_the_oracle_on_the_ring_and_hypercube_families():
    _check_dmc(gen_ring(1))
    ring = gen_ring(2)  # bound 209,587,500: over the default budget
    _check_dmc(ring, budget=10**9)
    rng = random.Random(2)
    _check_dmc(ring.with_audited(PredictorVec([Fraction(rng.randint(0, 10), 10) for _ in range(8)])), budget=10**9)
    cube, with_target = gen_hypercube(4)
    _check_dmc(cube)
    _check_dmc(with_target([0, 3, 5, 6]))
    _check_dmc(with_target([0, 1, 2, 3]).with_audited(PredictorVec([Fraction(x, 7) for x in range(8)])))


def test_dmc_matches_the_oracle_with_tied_minima():
    # grid 3 puts p* and f on {0, 1/3, 2/3, 1}: many members share a distance
    ties = [
        _check_dmc(gen_random(n, k, seed=300 + 10 * n + k, grid_denominator=3, uniform_marginal=True))
        for n in range(2, 8)
        for k in range(1, min(n, 4) + 1)
    ]
    assert sum(t > 1 for t in ties) >= 8


def test_dmc_matches_the_oracle_with_uncovered_points():
    uncovered = 0
    for seed in range(30):
        inst = gen_random(6, 3, seed=500 + seed, grid_denominator=3 + seed % 2 * 17)
        inst = inst.with_groups(SubgroupCollection(inst.groups[1:]))
        uncovered += not inst.groups.covers(inst.n)
        _check_dmc(inst)
    assert uncovered >= 20


def _constant(n, groups):
    """f = p* = 1/2 everywhere on n uniform points: every partition of
    every group is a nearest member, so every branch ties."""
    half = ["1/2"] * n
    return instance_from_dict({"n": n, "marginal": [Fraction(1, n)] * n, "p_star": half, "groups": groups, "f": half})


def _ring_like(sizes):
    """gen_ring's shape over blocks of the given sizes: each pair of
    neighbouring blocks on a cycle, and the whole domain."""
    ends = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    blocks = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
    return [blocks[i] + blocks[(i + 1) % len(blocks)] for i in range(len(blocks))] + [list(range(ends[-1]))]


def test_dmc_matches_the_oracle_when_every_branch_ties():
    for n in (8, 10):
        assert _check_dmc(_constant(n, [list(range(n))])) == 1
    assert _check_dmc(_constant(8, _ring_like([2, 2, 2, 2])), budget=10**12) == 1
    assert _check_dmc(_constant(10, _ring_like([3, 2, 3, 2])), budget=10**12) == 1
    ring = gen_ring(2)
    assert _check_dmc(ring.with_audited(ring.ground_truth), budget=10**9) == 1


def test_dmc_on_a_constant_ten_point_group_stays_fast():
    # Without its memo of expanded states, the search visits all
    # Bell(10) = 115,975 partitions here; with it, at most 2^9 states.
    inst = _constant(10, [list(range(10))])
    start = time.perf_counter()
    r = dmc(inst)
    assert time.perf_counter() - start < 1.0
    assert (r.value, r.witness) == (0, inst.audited)


def test_dmc_matches_the_oracle_when_prime_denominator_means_tie():
    # f = 1/2 on one group whose class means are all distinct: tens to
    # tens of thousands of partitions tie for the least distance
    for seed, n in ((10, 8), (12, 8), (10, 10)):
        assert _check_dmc(_table_instance(random.Random(seed), n, "primes")) > 100


def test_dmc_on_a_ten_point_prime_denominator_group_stays_fast():
    # Without the prefix bound on ties, the search expands ~57,000 states
    # here and takes about 1 s; with it, about 0.15 s.
    inst = _table_instance(random.Random(10), 10, "primes")
    start = time.perf_counter()
    r = dmc(inst)
    assert time.perf_counter() - start < 0.5
    assert r == dce(inst, inst.groups[0])


def test_dmc_matches_the_oracle_with_two_largest_groups_of_equal_size():
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        n = rng.randint(4, 7)
        size = rng.randint(2, n - 1)
        groups = {tuple(sorted(rng.sample(range(n), size))) for _ in range(2)}
        if len(groups) < 2:
            continue
        groups.add(tuple(sorted(rng.sample(range(n), rng.randint(1, size - 1)))))
        inst = gen_random(n, 1, seed=rng.randrange(2**32), grid_denominator=rng.choice([3, 20]))
        inst = inst.with_groups(SubgroupCollection(rng.sample(sorted(groups), len(groups))))
        _check_dmc(inst, budget=10**12)
        checked += 1


@st.composite
def _dmc_instances(draw, max_k=6):
    """Drawn as test_cal_engine's `_table_instances` (uniform, tie-heavy and
    prime-denominator marginals), with one to three groups that may leave
    points uncovered, and f the constant 1/2, a copy of p* or a grid draw."""
    n = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(["uniform", "ties", "primes"]))
    inst = _table_instance(random.Random(draw(st.integers(0, 2**32))), n, kind)
    members = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    groups = draw(st.lists(members, min_size=1, max_size=3, unique=True))
    inst = inst.with_groups(SubgroupCollection(groups))
    f = draw(st.sampled_from(["half", "p*", "grid"]))
    if f == "p*":
        inst = inst.with_audited(inst.ground_truth)
    elif f == "grid":
        inst = inst.with_audited(PredictorVec([Fraction(v, 6) for v in draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))]))
    return inst


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_dmc_instances())
def test_dmc_matches_the_oracle_on_generated_instances(inst):
    _check_dmc(inst, budget=10**12)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_dmc_instances(max_k=8))
def test_wdmc_and_dimc_match_dce_on_generated_instances(inst):
    _check_wdmc_and_dimc(inst)


def test_dmc_lists_each_group_once_and_joins_no_set(monkeypatch):
    listed = []
    calibrated_set = mcalaudit.distances.calibrated_set

    def spy(inst, S):
        listed.append(S.members)
        return calibrated_set(inst, S)

    def joined(*args, **kwargs):
        raise AssertionError("dmc listed the multicalibrated set")

    monkeypatch.setattr(mcalaudit.distances, "calibrated_set", spy)
    monkeypatch.setattr(mcalaudit.enumeration, "multicalibrated_set", joined)
    # two groups of three points, the largest: only the first is searched
    tied = instance_from_dict(
        {"n": 5, "marginal": ["1/5"] * 5, "p_star": ["0", "1/2", "1", "1/4", "3/4"],
         "groups": [[0, 1], [1, 2, 3], [0, 3, 4]], "f": ["1/2"] * 5}
    )
    for inst in (gen_ring(2), _seven_points(0, (2, 6)), gen_three_point(Fraction(1, 10)), tied):
        listed.clear()
        dmc(inst, budget=10**9)
        # the largest group (the first of them) is searched over its
        # partition scores and never listed; every other group is listed once
        largest = max(inst.groups, key=len).members
        assert sorted(listed) == sorted(S.members for S in inst.groups if S.members != largest)
    assert listed == [(0, 1), (0, 3, 4)]


def test_dmc_refuses_on_the_bell_product_as_the_join_does(monkeypatch):
    inst = gen_three_point(0)  # groups of 2 points each: Bell(2)^2 = 4
    with pytest.raises(BudgetExceeded) as joined:
        multicalibrated_set(inst, budget=3)

    def listed(*args, **kwargs):
        raise AssertionError("dmc listed a calibrated set before it refused")

    with monkeypatch.context() as patch:
        patch.setattr(mcalaudit.distances, "calibrated_set", listed)
        with pytest.raises(BudgetExceeded) as info:
            dmc(inst, budget=3)
    assert (info.value.bound, info.value.budget) == (4, 3)
    assert str(info.value) == str(joined.value)
    assert dmc(inst, budget=4) == dmc(inst)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(**_RANDOM_ARGS)
@example(n=5, k=3, seed=0, drop=True)
def test_dcma_matches_the_oracle_on_random_instances(n, k, seed, drop):
    _check_dcma(_random_instance(n, k, seed, drop))


def test_intersection_closure_adds_overlaps():
    C = SubgroupCollection([[0, 1], [1, 2]])
    closed = intersection_closure(C)
    assert {g.members for g in closed} == {(0, 1), (1, 2), (1,)}


def test_intersection_closure_ceiling():
    C = SubgroupCollection([[i] for i in range(21)])
    with pytest.raises(ValueError, match="ceiling"):
        intersection_closure(C)


def test_generated_partition_three_point():
    inst = gen_three_point(0)
    cells = generated_partition(inst.groups, inst.n)
    assert {c.members for c in cells} == {(0,), (1,), (2,)}


def test_generated_partition_requires_cover():
    C = SubgroupCollection([[0, 1]])
    with pytest.raises(ValueError, match="cover"):
        generated_partition(C, 3)


def test_generated_partition_cells_disjoint_cover():
    for seed in range(20):
        inst = gen_random(6, 3, seed=seed)
        seen = []
        for c in generated_partition(inst.groups, inst.n):
            seen.extend(c.members)
        assert sorted(seen) == list(range(inst.n))


def _partition_oracle(C, n):
    """The generated partition by brute force: every point's tuple of
    memberships, the points grouped by it, the cells in order of their
    least member; None when C does not cover exactly range(n)."""
    if set().union(*(g.members for g in C)) != set(range(n)):
        return None
    cells = {}
    for x in range(n):
        cells.setdefault(tuple(x in g.members for g in C), []).append(x)
    return sorted(tuple(xs) for xs in cells.values())


@st.composite
def _collections(draw):
    """n and groups over 0..n-1, which may leave points uncovered, often
    with a last group of the points left over, and sometimes with the
    point n outside the domain in one more group."""
    n = draw(st.integers(1, 9))
    members = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    groups = draw(st.lists(members, min_size=1, max_size=5, unique=True))
    rest = frozenset(range(n)).difference(*groups)
    if rest and draw(st.booleans()):
        groups.append(rest)
    if draw(st.integers(0, 5)) == 0:
        groups.append(frozenset({n}))
    return n, SubgroupCollection(groups)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_collections())
def test_generated_partition_matches_grouping_by_membership(case):
    n, C = case
    expected = _partition_oracle(C, n)
    if expected is None:
        with pytest.raises(ValueError, match="cover"):
            generated_partition(C, n)
    else:
        assert [c.members for c in generated_partition(C, n)] == expected


def test_dimc_decomposition_matches_cellwise_sum():
    inst = gen_three_point(Fraction(1, 10))
    cells = generated_partition(inst.groups, inst.n)
    total = sum(
        (
            sum((inst.marginal[x] for x in c.members), Fraction(0)) * dce(inst, c).value
            for c in cells
        ),
        Fraction(0),
    )
    r = dimc(inst)
    assert r.value == total == Fraction(1, 3)
    for c in cells:
        assert is_calibrated(r.witness, inst, c)


def test_ring_instance_gap():
    inst = gen_ring(1)
    assert dmc(inst).value == 0
    assert dimc(inst).value == Fraction(3, 10)
    assert len(generated_partition(inst.groups, inst.n)) == 4


def test_ring_larger_blocks():
    inst = gen_ring(2)
    # the pessimistic Bell-product bound overshoots here; raise the budget
    assert dmc(inst, budget=10**9).value == 0
    assert dimc(inst).value == Fraction(3, 10)


def test_cdmc_example():
    inst = gen_cdmc_example()
    assert dimc(inst).value == 0
    assert l1_distance(inst.audited, inst.ground_truth, inst.marginal) == Fraction(3, 20)


def test_dcma_values():
    inst_p, inst_q = gen_dcma_example(Fraction(1, 100))
    rp = dcma(inst_p)
    assert rp.value == 0
    rq = dcma(inst_q)
    assert rq.value == Fraction(41, 600) > Fraction(1, 60)
    everything = Subgroup(range(inst_q.n))
    assert is_calibrated(rq.witness, inst_q, everything)
    assert is_multiaccurate(rq.witness, inst_q)


def test_lowdeg_bruteforce():
    inst = gen_three_point(Fraction(1, 10))
    r = dmc_lowdeg_bruteforce(inst, 2, 100)
    assert r.value == Fraction(8, 25) >= Fraction(3, 10)
    assert r.threshold == Fraction(1, 200)
    assert r.grid_denominator == 100
    # the witness satisfies the relaxed degree-2 residual bound it reports
    m, p = inst.marginal, inst.ground_truth
    g = r.witness
    for S in inst.groups:
        mass = sum((m[i] for i in S.members), Fraction(0))
        for j in range(2):
            total = sum((m[i] * g[i] ** j * (g[i] - p[i]) for i in S.members), Fraction(0))
            assert abs(total) <= r.threshold * mass


def test_lowdeg_bruteforce_refuses_large_domains():
    inst = gen_random(5, 2, seed=0)
    with pytest.raises(ValueError):
        dmc_lowdeg_bruteforce(inst, 2, 10)


def test_local_min_probe_deterministic_and_sound():
    inst = gen_wdmc_local_min(Fraction(1, 200), Fraction(1, 10))
    a = local_min_probe("wdmc", inst, Fraction(1, 1000), trials=100, seed=5)
    b = local_min_probe("wdmc", inst, Fraction(1, 1000), trials=100, seed=5)
    assert a == b
    assert a.baseline == Fraction(1, 200)
    assert not a.decreased
    # moving the audited predictor to the ground truth does decrease
    c = local_min_probe("wdmc", inst.with_audited(inst.ground_truth), Fraction(1, 1000), 10, 0)
    assert c.baseline == 0


def test_local_min_probe_finds_descent_when_not_minimal():
    inst = gen_three_point(Fraction(1, 10))
    probe = local_min_probe("wdmc", inst, Fraction(1, 100), trials=200, seed=1)
    assert probe.decreased
    assert probe.best_value < probe.baseline
    assert probe.best_point is not None


def test_probe_unknown_metric():
    inst = gen_three_point(0)
    with pytest.raises(ValueError):
        local_min_probe("nope", inst, Fraction(1, 100), 10, 0)


def test_probe_refuses_a_radius_of_zero_or_below():
    inst = gen_three_point(Fraction(1, 10))
    for radius in (Fraction(0), Fraction(-1), Fraction(-1, 1000)):
        with pytest.raises(ValueError, match="radius must be > 0"):
            local_min_probe("wdmc", inst, radius, 2, 0)


def test_dce_conditional_lipschitz_in_ground_truth():
    base = gen_random(4, 2, seed=11)
    from mcalaudit.instances import jitter_ground_truth

    i1 = jitter_ground_truth(base, seed=0)
    i2 = jitter_ground_truth(base, seed=1)
    for S in base.groups:
        shift = conditional_l1(i1.ground_truth, i2.ground_truth, base.marginal, S)
        assert abs(dce(i1, S).value - dce(i2, S).value) <= shift


def test_closure_ceiling_refusal_is_typed():
    C = SubgroupCollection([[i] for i in range(21)])
    with pytest.raises(BudgetExceeded, match="exceeds closure ceiling") as info:
        intersection_closure(C)
    assert (info.value.bound, info.value.budget) == (21, CLOSURE_CEILING)


@st.composite
def _random_shapes(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.integers(1, min(n, 3))), draw(st.integers(0, 2**32))


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(_random_shapes())
def test_every_metric_computes_and_its_witness_certifies(shape):
    n, k, seed = shape
    inst = gen_random(n, k, seed=seed)
    values = {}
    for name, (compute, target) in METRICS.items():
        r = compute(inst, 10_000_000)
        values[name], witness = r
        if target is None:
            assert witness in inst.groups
        else:
            certify(name, r, inst)
    assert values["wdmc"] <= values["dmc"] <= values["dimc"]
    assert values["wdma"] <= values["dma"]
