import math
import random
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mcalaudit import (
    IntervalEstimate,
    dce,
    dce_interval,
    dimc,
    dimc_interval,
    smce_empirical,
)
import mcalaudit.estimators
from mcalaudit.core import (
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    SubgroupCollection,
    group_mass,
)
from mcalaudit.distances import generated_partition
from mcalaudit.estimators import (
    _median,
    _statistics_from_counts,
    default_batch_count,
    default_batch_size,
)
from mcalaudit.instances import gen_cdmc_example, gen_three_point, gen_wdmc_local_min

F = Fraction


def test_smce_perfectly_calibrated_sample():
    # equal counts of (1/2, 0) and (1/2, 1): the empirical mean matches the
    # prediction, so every dual weight scores zero
    samples = [(F(1, 2), 0), (F(1, 2), 1)] * 5
    assert smce_empirical(samples) == 0


def test_smce_single_value_miscalibration():
    # all predictions 1/2, all labels 1: optimum weight w=1 gives mean 1/2
    samples = [(F(1, 2), 1)] * 4
    assert smce_empirical(samples) == F(1, 2)


def test_smce_lipschitz_coupling():
    # predictions 0 and 1 with opposite labels; weights may differ by at
    # most 1 across the gap, and the optimum uses w(0)=-1, w(1)=... the
    # value is limited by both the box and the Lipschitz constraint
    samples = [(F(0), 1), (F(1), 0)]
    v = smce_empirical(samples)
    # per-point scores are w0*(1-0)=w0... maximize (w0*1 + w1*(-1))/2 with
    # |w1-w0|<=1, w in [-1,1]: w0=1, w1=0 gives 1/2
    assert v == F(1, 2)


def test_smce_empty_rejected():
    with pytest.raises(ValueError):
        smce_empirical([])


@pytest.mark.parametrize(
    "samples",
    [
        [(F(1, 2), 2)],
        [(F(1, 2), F(1, 2))],
        [(F(1, 2), 0.5)],
        [(F(1, 2), -1)],
        [(F(1, 2), 1), (F(1, 4), "1")],
        [(F(3, 2), 1)],
        [(F(-1, 4), 0)],
        [(F(1, 2), 0), ("5/4", 1)],
    ],
)
def test_smce_rejects_labels_outside_0_1_and_predictions_outside_the_unit_interval(samples):
    with pytest.raises(ValueError):
        smce_empirical(samples)


def test_smce_accepts_bool_labels_and_the_interval_ends():
    assert smce_empirical([(F(0), True), (F(1), False)]) == F(1, 2)
    assert smce_empirical([(0, 1), ("1", 0)]) == F(1, 2)


def test_default_sample_sizes():
    assert default_batch_size(F(1, 50)) == 10000
    assert default_batch_count(F(1, 20)) == math.ceil(18 * math.log(20))


def test_interval_contains_exact_boundary_arithmetic():
    est = IntervalEstimate(
        point=F(1, 4),
        lower=F(0),
        upper_terms=(F(1, 16), F(0)),  # upper = 4*sqrt(1/16) = 1
        upper_decimal="1",
        confidence=F(19, 20),
        samples_used=1,
    )
    assert est.contains(F(1))
    assert not est.contains(F(1001, 1000))
    assert not est.contains(F(-1, 1000))


def test_interval_contains_mixed_terms():
    # upper = 4*sqrt(1/4) + sqrt(1/4) = 2.5
    est = IntervalEstimate(F(0), F(0), (F(1, 4), F(1, 4)), "2.5", F(1, 2), 1)
    assert est.contains(F(5, 2))
    assert not est.contains(F(5, 2) + F(1, 10**9))


def test_dce_interval_deterministic_and_covering():
    inst = gen_three_point(F(1, 10))
    S2 = inst.groups[1]
    exact = dce(inst, S2).value
    a = dce_interval(inst, S2, F(1, 50), F(1, 20), seed=0)
    b = dce_interval(inst, S2, F(1, 50), F(1, 20), seed=0)
    assert a == b
    assert dce_interval(inst, S2, F(1, 50), F(1, 20), seed=1) != a
    assert a.contains(exact)
    assert a.lower == a.point - F(1, 50)
    assert a.samples_used == default_batch_size(F(1, 50)) * default_batch_count(F(1, 20))


def test_dce_interval_rejects_bad_parameters():
    inst = gen_three_point(0)
    with pytest.raises(ValueError):
        dce_interval(inst, inst.groups[0], F(0), F(1, 20), seed=0)
    with pytest.raises(ValueError):
        dce_interval(inst, inst.groups[0], F(1, 50), F(2), seed=0)


def test_dimc_interval_covers_and_scales_samples():
    inst = gen_three_point(F(1, 10))
    exact = dimc(inst).value
    est = dimc_interval(inst, F(1, 50), F(1, 20), seed=0)
    assert est == dimc_interval(inst, F(1, 50), F(1, 20), seed=0)
    assert est != dimc_interval(inst, F(1, 50), F(1, 20), seed=1)
    assert est.contains(exact)
    # minimum cell mass is 1/3, so the draw count is 6x the per-cell need
    per_cell = default_batch_size(F(1, 50)) * default_batch_count(F(1, 20), parts=3)
    assert est.samples_used == math.ceil(F(2 * per_cell) / F(1, 3))


def test_dimc_interval_eps_exceeding_cell_mass_rejected():
    inst = gen_three_point(0)
    with pytest.raises(ValueError, match="gamma"):
        dimc_interval(inst, F(1, 2), F(1, 20), seed=0)


def test_interval_upper_decimal_matches_terms():
    inst = gen_three_point(F(1, 10))
    est = dce_interval(inst, inst.groups[1], F(1, 50), F(1, 20), seed=1)
    a, b = est.upper_terms
    approx = 4 * math.sqrt(a) + math.sqrt(b)
    assert abs(float(est.upper_decimal) - approx) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_statistics_from_counts_match_smce_of_the_sample_list(seed):
    # At least 4 members over 3 prediction values, so some members share a
    # prediction and fold into one value.
    rng = np.random.default_rng(seed)
    n = 6
    audited = PredictorVec([F(int(v), 4) for v in rng.integers(0, 3, size=n)])
    members = sorted(rng.choice(n, size=int(rng.integers(4, n + 1)), replace=False).tolist())
    size = int(rng.integers(1, 40))
    counts = rng.multinomial(size, rng.dirichlet(np.ones(len(members))), size=5)
    ones = rng.binomial(counts, rng.random(len(members)))
    nums, den = _statistics_from_counts(audited, members, counts, ones, size)
    assert len(nums) == 5
    for row_counts, row_ones, num in zip(counts.tolist(), ones.tolist(), nums):
        pairs = []
        for i, c, o in zip(members, row_counts, row_ones):
            pairs += [(audited[i], 1)] * o + [(audited[i], 0)] * (c - o)
        assert smce_empirical(pairs) == F(num, den)


@pytest.mark.parametrize("length", range(1, 9))
def test_median_of_numerators_is_the_fraction_median(length):
    # nums drawn from few values, so most lists hold ties, also at the middles
    rng = random.Random(length)
    for _ in range(50):
        den = rng.randrange(1, 30)
        nums = [rng.randrange(-3, 4) * rng.choice((1, 7)) for _ in range(length)]
        median = _median(nums, den)
        assert type(median) is Fraction
        assert median == statistics.median(F(x, den) for x in nums)
    assert _median([5, 5], 3) == F(5, 3)
    assert _median([1, 2], 3) == F(1, 2)


def test_samples_used_of_the_default_parameters():
    eps, delta = F(1, 50), F(1, 20)
    cases = [
        (gen_three_point(F(1, 10)), 4440000),
        (gen_wdmc_local_min(F(1, 200), F(1, 10)), 4440000),
        (gen_cdmc_example(), 5920000),
    ]
    for inst, dimc_draws in cases:
        for S in inst.groups:
            assert dce_interval(inst, S, eps, delta, seed=0).samples_used == 540000
        assert dimc_interval(inst, eps, delta, seed=0).samples_used == dimc_draws


def test_dimc_interval_memory_does_not_grow_with_draws():
    tracemalloc.start()
    try:
        est = dimc_interval(gen_cdmc_example(), F(1, 50), F(1, 20), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples_used == 5920000
    assert peak < 5 * 2**20


def test_tiny_eps_finishes():
    inst = gen_three_point(F(1, 10))
    eps, delta = F(1, 10**5), F(1, 20)
    a = dce_interval(inst, inst.groups[1], eps, delta, seed=0)
    assert a.samples_used == default_batch_size(eps) * default_batch_count(delta) == 2_160_000_000_000
    assert a.contains(dce(inst, inst.groups[1]).value)
    b = dimc_interval(inst, eps, delta, seed=0)
    assert b.samples_used > 10**13
    assert b.contains(dimc(inst).value)


def test_draw_sizes_out_of_range_are_refused_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(mcalaudit.estimators, "_draw_batch_statistics", no_draws)
    inst = gen_three_point(F(1, 10))
    with pytest.raises(ValueError, match="batch size .* int64"):
        dce_interval(inst, inst.groups[1], F(1, 10**10), F(1, 20), seed=0)
    with pytest.raises(ValueError, match="batch size .* int64"):
        dimc_interval(inst, F(1, 10**10), F(1, 20), seed=0)
    with pytest.raises(ValueError, match="total draw count .* int64"):
        dce_interval(inst, inst.groups[1], F(1, 50), F(1, 20), seed=0, batch_size=2**62, batch_count=2)
    with pytest.raises(ValueError, match="total draw count .* int64"):
        dimc_interval(inst, F(1, 50), F(1, 20), seed=0, batch_size=2**61, batch_count=1)
    for sizes in ({"batch_size": 0}, {"batch_count": 0}, {"batch_size": -1}):
        with pytest.raises(ValueError, match=">= 1"):
            dce_interval(inst, inst.groups[1], F(1, 50), F(1, 20), seed=0, **sizes)
        with pytest.raises(ValueError, match=">= 1"):
            dimc_interval(inst, F(1, 50), F(1, 20), seed=0, **sizes)


def _spy_batches(monkeypatch):
    calls = []
    draw = mcalaudit.estimators._draw_batch_statistics

    def spy(rng, inst, members, size, count):
        calls.append((size, count))
        return draw(rng, inst, members, size, count)

    monkeypatch.setattr(mcalaudit.estimators, "_draw_batch_statistics", spy)
    return calls


def test_dimc_short_cells_keep_at_least_one_batch(monkeypatch):
    # One batch of 2 with gamma = 1/3: 12 draws, 4 expected per cell, so
    # some seeds leave a cell a single draw.
    calls = _spy_batches(monkeypatch)
    inst = gen_three_point(F(1, 10))
    short = 0
    for seed in range(100):
        calls.clear()
        est = dimc_interval(inst, F(1, 50), F(1, 20), seed=seed, batch_size=2, batch_count=1)
        assert est.samples_used == 12
        assert 0 <= est.point <= 1
        assert all(count >= 1 and size >= 1 for size, count in calls)
        short += any(size < 2 for size, _ in calls)
    assert short > 0


def test_dimc_empty_cells_add_nothing(monkeypatch):
    # One draw per batch and gamma = 1/3: 6 draws over 3 cells, so some
    # seeds leave a cell empty; p_hat = 0 there and the cell is skipped.
    calls = _spy_batches(monkeypatch)
    inst = gen_three_point(F(1, 10))
    empty = 0
    for seed in range(50):
        calls.clear()
        est = dimc_interval(inst, F(1, 50), F(1, 20), seed=seed, batch_size=1, batch_count=1)
        assert 0 <= est.point <= 1
        empty += len(calls) < 3
    assert empty > 0


def test_point_estimates_follow_the_marginal_and_the_cells():
    # Non-uniform marginal, tied predictions (points 0 and 2) and cells of
    # unequal mass.  The population statistic is smce_empirical of a list
    # holding 80*m(x) pairs per point, 80*m(x)*p*(x) of them labelled 1.
    inst = Instance(
        domain=FiniteDomain(4),
        marginal=Marginal([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]),
        ground_truth=PredictorVec([F(1, 2), F(1), F(0), F(9, 10)]),
        groups=SubgroupCollection([[0, 1, 2], [2, 3]]),
        audited=PredictorVec([F(1, 2), F(0), F(1, 2), F(1, 4)]),
    )

    def population(members):
        pairs = []
        for x in members:
            n = int(80 * inst.marginal[x])
            ones = int(n * inst.ground_truth[x])
            pairs += [(inst.audited[x], 1)] * ones + [(inst.audited[x], 0)] * (n - ones)
        return smce_empirical(pairs)

    cells = generated_partition(inst.groups, inst.n)
    theta = sum(group_mass(inst.marginal, c) * population(c.members) for c in cells)
    eps, delta = F(1, 50), F(1, 20)
    # A batch statistic of 10000 draws has a spread of about 1/200; the
    # median of the batches is several times closer.
    for seed in range(5):
        for S in inst.groups:
            assert abs(dce_interval(inst, S, eps, delta, seed=seed).point - population(S.members)) < F(1, 200)
        assert abs(dimc_interval(inst, eps, delta, seed=seed).point - theta) < F(1, 200)


# point, lower and upper_decimal of dce_interval on each group in order, then
# of dimc_interval, at eps 1/50 and delta 1/20: the instances of the
# benchmark's estimate workload.  Recorded when the smce statistic was
# solved by the simplex; the integer breakpoint solver reproduces them.
PINNED = {
    ("three-point", 0): [
        ("3/1000", "-17/1000", "0.606630035524124044340546034903"),
        ("249/5000", "149/5000", "1.05678758508983251586548971385"),
        ("7389672283/22200000000", "6945672283/22200000000", "4.13862910679032286536603019702"),
    ],
    ("three-point", 1): [
        ("59/20000", "-341/20000", "0.605970296301724677201803155024"),
        ("247/5000", "147/5000", "1.05375518978555925307187107000"),
        ("29652278083/88800000000", "27876278083/88800000000", "4.14495210087300459907514615851"),
    ],
    ("three-point", 2): [
        ("67/20000", "-333/20000", "0.611228271597445008104884813394"),
        ("127/2500", "77/2500", "1.06433077565200565800368246513"),
        ("14802217007/44400000000", "13914217007/44400000000", "4.14172094055900431975291875925"),
    ],
    ("wdmc-local-min", 0): [
        ("3050939/400000000", "-4949061/400000000", "0.664859052732231359815972871572"),
        ("6202823/800000000", "-9797177/800000000", "0.666375614799941490175909717710"),
        ("1104753311/11100000000", "882753311/11100000000", "2.32712756136533062428737340294"),
    ],
    ("wdmc-local-min", 1): [
        ("1377497/160000000", "-1822503/160000000", "0.676572021295589786820808156008"),
        ("2521/320000", "-3879/320000", "0.667869747780209011616806995595"),
        ("2981936519/29600000000", "2389936519/29600000000", "2.34041492910502334846583493347"),
    ],
    ("wdmc-local-min", 2): [
        ("6920067/800000000", "-9079933/800000000", "0.677053424775327460273553929583"),
        ("68727/8000000", "-91273/8000000", "0.676353457890177419620688182272"),
        ("4443794741/44400000000", "3555794741/44400000000", "2.33324763190395154457792983972"),
    ],
    ("cdmc", 0): [
        ("339/100000", "-1661/100000", "0.611751583569670868081329592620"),
        ("3799/1000000", "-16201/1000000", "0.617076980611009342486465451518"),
        ("81990869/23680000000", "-391609131/23680000000", "0.549094886690823781643192011555"),
    ],
    ("cdmc", 1): [
        ("151/50000", "-849/50000", "0.606893730400965668107352610975"),
        ("799/200000", "-3201/200000", "0.619612782308434950834235599342"),
        ("5106423/1480000000", "-24493577/1480000000", "0.548378011077746926764151458458"),
    ],
    ("cdmc", 2): [
        ("213/50000", "-787/50000", "0.623024879118001193806319665655"),
        ("4227/1000000", "-15773/1000000", "0.622600995823167632684553490394"),
        ("199814373/59200000000", "-984185627/59200000000", "0.543928068956220298182605845270"),
    ],
}
PINNED_INSTANCES = {
    "three-point": gen_three_point(F(1, 10)),
    "wdmc-local-min": gen_wdmc_local_min(F(1, 200), F(1, 10)),
    "cdmc": gen_cdmc_example(),
}


@pytest.mark.parametrize("name,seed", list(PINNED))
def test_seeded_estimates_are_pinned(name, seed):
    inst = PINNED_INSTANCES[name]
    eps, delta = F(1, 50), F(1, 20)
    ests = [dce_interval(inst, S, eps, delta, seed=seed) for S in inst.groups]
    ests.append(dimc_interval(inst, eps, delta, seed=seed))
    assert [(str(e.point), str(e.lower), e.upper_decimal) for e in ests] == PINNED[name, seed]
