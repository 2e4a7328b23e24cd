"""The integer membership checks and l1 distance against their `Fraction`
oracles (`fraction_checks`), on seeded and generated instances.  The
candidates are predictors that pass the checks (the ground truth, members
of calibrated sets, the metrics' witnesses) and near misses of each, one
value moved by 1/den, so that both answers of every check are exercised."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from mcalaudit import (
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    calibrated_set,
    dcma,
    dimc,
    dma,
    dmc,
    is_calibrated,
    is_degree_r_multicalibrated,
    is_multiaccurate,
    l1_distance,
)
from mcalaudit.distances import generated_partition
from mcalaudit.instances import gen_cdmc_example, gen_dcma_example, gen_fibonacci, gen_random, gen_three_point


def _near_misses(g: PredictorVec, x: int, step: int = 1) -> list[PredictorVec]:
    """g with its value at x moved by 1/(step den) up and down, where den is
    that value's denominator."""
    v = g[x]
    d = Fraction(1, step * v.denominator)
    return [g.with_values({x: v + d}), g.with_values({x: v - d})]


def _candidates(inst: Instance) -> list[PredictorVec]:
    f, p = inst.audited, inst.ground_truth
    found = [f, p]
    for S in inst.groups:
        for values in calibrated_set(inst, S)[:4]:
            found.append(f.with_values(dict(zip(S.members, values))))
    found.append(dma(inst).witness)
    found.append(dimc(inst).witness)
    if inst.n <= 6:
        found += [dmc(inst).witness, dcma(inst).witness]
    return found + [miss for k, g in enumerate(found) for miss in _near_misses(g, k % inst.n, 1 + k % 3)]


def _compare(inst: Instance, g: PredictorVec, seen: dict) -> None:
    """Every check of g on inst answers as its oracle does; `seen` gathers
    the answers of each check."""
    m = inst.marginal
    cells = generated_partition(inst.groups, inst.n) if inst.groups.covers(inst.n) else ()
    sets = [*inst.groups, *cells, Subgroup(range(inst.n))]
    for S in sets:
        got = is_calibrated(g, inst, S)
        assert got == oracle.is_calibrated(g, inst, S), (g.values, S.members)
        # degree |S| on S alone is calibration on S: f takes at most |S|
        # values there, and their Vandermonde matrix is invertible
        alone = inst.with_groups(SubgroupCollection([S]))
        assert got == oracle.is_degree_r_multicalibrated(g, alone, len(S)), (g.values, S.members)
        seen.setdefault("calibrated", set()).add(got)
    got = is_multiaccurate(g, inst)
    assert got == oracle.is_multiaccurate(g, inst), g.values
    seen.setdefault("multiaccurate", set()).add(got)
    for r in range(1, inst.n + 2):
        got = is_degree_r_multicalibrated(g, inst, r)
        assert got == oracle.is_degree_r_multicalibrated(g, inst, r), (g.values, r)
        seen.setdefault("degree", set()).add(got)
    for a, b in ((inst.audited, g), (g, inst.ground_truth)):
        got = l1_distance(a, b, m)
        assert got == oracle.l1_distance(a, b, m) and type(got) is Fraction, (a.values, b.values)
        seen.setdefault("l1_zero", set()).add(got == 0)


def _seeded_instances():
    yield gen_three_point(0)
    yield gen_three_point(Fraction(1, 10))
    yield gen_cdmc_example()
    yield from gen_dcma_example(Fraction(1, 100))
    yield gen_fibonacci(4, Fraction(1, 1000))
    for seed in range(12):
        n = 2 + seed % 5
        yield gen_random(n, 1 + seed % min(3, n), seed=900 + seed, grid_denominator=(7, 20, 12)[seed % 3])


def test_checks_match_their_fraction_oracles_on_seeded_instances():
    seen: dict = {}
    for inst in _seeded_instances():
        for g in _candidates(inst):
            _compare(inst, g, seen)
    assert all(answers == {True, False} for answers in seen.values()), seen


_DENOMINATORS = st.sampled_from([1, 2, 3, 6, 7, 11, 20, 97, 1009])


@st.composite
def _vectors(draw, n: int) -> list[Fraction]:
    den = draw(_DENOMINATORS)
    return [Fraction(draw(st.integers(0, den)), den) for _ in range(n)]


@st.composite
def _instances(draw) -> Instance:
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    groups = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3, unique_by=frozenset))
    return Instance(
        FiniteDomain(n),
        Marginal([Fraction(w, sum(weights)) for w in weights]),
        PredictorVec(draw(_vectors(n))),
        SubgroupCollection(groups),
        PredictorVec(draw(_vectors(n))),
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_instances(), st.data())
def test_checks_match_their_fraction_oracles_on_generated_instances(inst, data):
    S = data.draw(st.sampled_from(inst.groups.groups))
    members = calibrated_set(inst, S)
    values = data.draw(st.sampled_from(members))
    passing = [inst.ground_truth, inst.audited.with_values(dict(zip(S.members, values))), dma(inst).witness]
    drawn = PredictorVec(data.draw(_vectors(inst.n)))
    x = data.draw(st.integers(0, inst.n - 1))
    step = data.draw(st.integers(1, 5))
    seen: dict = {}
    for g in passing + [drawn]:
        for h in [g, *_near_misses(g, x, step)]:
            _compare(inst, h, seen)
