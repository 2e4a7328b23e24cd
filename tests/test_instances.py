import random
import time
from fractions import Fraction

import pytest

from mcalaudit import FiniteDomain, Instance, Marginal, PredictorVec, SubgroupCollection, validate
from mcalaudit.instances import (
    fibonacci_number,
    gen_cdmc_example,
    gen_dcma_example,
    gen_fibonacci,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
    jitter_ground_truth,
)

F = Fraction


def test_fibonacci_number():
    assert [fibonacci_number(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_three_point_fields():
    inst = gen_three_point(F(1, 20))
    assert inst.n == 3
    assert inst.ground_truth.values == (F(4, 5), F(1, 5), F(17, 20))
    assert inst.audited.values == (F(1, 2),) * 3
    assert [g.members for g in inst.groups] == [(0, 1), (1, 2)]
    assert validate(inst).valid


def test_three_point_alpha_range():
    with pytest.raises(ValueError):
        gen_three_point(F(1, 4))
    with pytest.raises(ValueError):
        gen_three_point(F(-1, 10))


def test_wdmc_local_min_preconditions():
    gen_wdmc_local_min(F(1, 200), F(1, 10))  # valid
    with pytest.raises(ValueError, match="eps > 0"):
        gen_wdmc_local_min(F(0), F(1, 10))
    with pytest.raises(ValueError, match="delta"):
        gen_wdmc_local_min(F(1, 200), F(1, 2))
    with pytest.raises(ValueError, match="delta/9"):
        gen_wdmc_local_min(F(1, 20), F(1, 10))
    with pytest.raises(ValueError, match="6\\*eps"):
        gen_wdmc_local_min(F(1, 20), F(2, 5))


def test_wdmc_local_min_values():
    inst = gen_wdmc_local_min(F(1, 100), F(1, 10))
    eps, delta = F(1, 100), F(1, 10)
    half = F(1, 2)
    assert inst.ground_truth.values == (
        half + delta - 6 * eps,
        half - delta,
        half + delta + 6 * eps,
    )
    assert inst.audited.values == (half - 3 * eps, half, half + 3 * eps)
    assert validate(inst).valid


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ring_structure(N):
    inst = gen_ring(N)
    assert inst.n == 4 * N
    assert len(inst.groups) == 5
    assert list(inst.groups)[-1].members == tuple(range(4 * N))
    assert validate(inst).valid
    # alternating block values
    assert inst.ground_truth[0] == F(1, 5)
    assert inst.ground_truth[N] == F(4, 5)


def test_hypercube_family():
    base, with_target = gen_hypercube(4)
    assert base.n == 8
    assert len(base.groups) == 4  # three coordinate groups plus {0}
    assert validate(base).valid
    inst = with_target([0, 1, 2, 3])
    assert inst.ground_truth.values == (F(1),) * 4 + (F(0),) * 4
    with pytest.raises(ValueError):
        with_target([0, 1, 2])
    with pytest.raises(ValueError):
        gen_hypercube(1)


def test_cdmc_example_valid():
    inst = gen_cdmc_example()
    assert inst.n == 4
    assert validate(inst).valid


def test_fibonacci_structure_and_preconditions():
    k = 3
    limit = F(1, 2 * (k + 1) * fibonacci_number(k + 1))
    with pytest.raises(ValueError):
        gen_fibonacci(k, limit)
    inst = gen_fibonacci(k, limit / 2)
    assert inst.n == 2 * k + 2
    assert len(inst.groups) == 2 * k  # k triples, k-1 pairs, one end pair
    assert validate(inst).valid
    # endpoint values anchor the chain
    assert inst.ground_truth[0] == 0
    assert inst.ground_truth[2] == 1


def test_dcma_example_pair():
    before, after = gen_dcma_example(F(1, 100))
    assert before.audited == after.audited
    assert before.ground_truth[1] - after.ground_truth[1] == F(1, 100)
    assert validate(before).valid and validate(after).valid
    with pytest.raises(ValueError):
        gen_dcma_example(F(1, 5))


@pytest.mark.parametrize("seed", range(30))
def test_gen_random_always_valid_and_covering(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    k = min(rng.randrange(1, 5), n)
    inst = gen_random(n, k, seed=seed)
    assert validate(inst).valid and inst.groups.covers(inst.n)


def test_gen_random_deterministic():
    assert gen_random(5, 2, seed=42) == gen_random(5, 2, seed=42)
    assert gen_random(5, 2, seed=42) != gen_random(5, 2, seed=43)


def _gen_random_oracle(n, k, seed, grid_denominator=20, max_group_size=4, uniform_marginal=False):
    """gen_random as first written: the groups a list, and the coverage
    sweep rebuilding a sorted tuple and testing it against every group for
    every point it sweeps in."""
    rng = random.Random(seed)
    if uniform_marginal or rng.random() < 0.5:
        marginal = Marginal.uniform(n)
    else:
        weights = [rng.randrange(1, grid_denominator + 1) for _ in range(n)]
        marginal = Marginal([Fraction(w, sum(weights)) for w in weights])

    def grid_vec():
        return [Fraction(rng.randrange(0, grid_denominator + 1), grid_denominator) for _ in range(n)]

    idx = list(range(n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    blocks, prev = [], 0
    for c in cuts + [n]:
        blocks.append(idx[prev:c])
        prev = c
    groups = []
    for b in blocks:
        members = set(b[:max_group_size])
        while len(members) < max_group_size and rng.random() < 0.5:
            members.add(rng.randrange(n))
        key = tuple(sorted(members))
        while key in groups:
            extras = [x for x in range(n) if x not in members]
            if not extras:
                break
            members.add(rng.choice(extras))
            key = tuple(sorted(members))
        if key not in groups:
            groups.append(key)
    covered = set().union(*map(set, groups))
    for x in (x for x in range(n) if x not in covered):
        order = list(range(len(groups)))
        rng.shuffle(order)
        for gi in order:
            key = tuple(sorted(set(groups[gi]) | {x}))
            if key not in groups:
                groups[gi] = key
                break
        else:
            groups.append((x,))
    p_star = grid_vec()
    return Instance(FiniteDomain(n), marginal, PredictorVec(p_star), SubgroupCollection(groups), PredictorVec(grid_vec()))


def test_gen_random_matches_the_first_generator():
    rng = random.Random(2024)
    cases = [(n, k, mgs) for n in range(1, 16) for k in range(1, n + 1) for mgs in (1, 2, 4, 6)]
    cases += [(200, 3, 4), (300, 299, 1), (120, 40, 2)]
    for n, k, mgs in cases:
        seed = rng.randrange(2**32)
        args = (n, k, seed, rng.choice([2, 20, 97]), mgs, rng.random() < 0.2)
        assert gen_random(*args) == _gen_random_oracle(*args), args


def test_gen_random_sweeps_ten_thousand_points_at_once():
    # The first sweep took ~2 s here; the groups grow far past max_group_size.
    start = time.perf_counter()
    inst = gen_random(10_000, 3, 0)
    assert time.perf_counter() - start < 0.5
    assert inst.groups.covers(10_000) and max(map(len, inst.groups)) > 4


def test_gen_random_rejects_bad_shape():
    with pytest.raises(ValueError):
        gen_random(2, 3, seed=0)
    with pytest.raises(ValueError):
        gen_random(0, 0, seed=0)


def test_jitter_preserves_everything_but_ground_truth():
    inst = gen_random(4, 2, seed=1)
    j = jitter_ground_truth(inst, seed=9)
    assert j.audited == inst.audited
    assert j.marginal == inst.marginal
    assert j.groups == inst.groups
    assert j.ground_truth != inst.ground_truth
    assert validate(j).valid
    assert jitter_ground_truth(inst, seed=9) == j
