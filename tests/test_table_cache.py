"""The engine tables kept on an instance: each kept subgroup's class and
partition tables are built once per instance, a metric's value and witness
do not depend on which metrics filled the tables before it, and the tables
are no part of the instance's value."""

import random
from fractions import Fraction

import pytest

import mcalaudit.distances
import mcalaudit.enumeration
from mcalaudit.core import BudgetExceeded, PredictorVec, Subgroup, dump_instance, load_instance
from mcalaudit.distances import METRICS, dce, dcma, generated_partition
from mcalaudit.instances import (
    gen_cdmc_example,
    gen_dcma_example,
    gen_fibonacci,
    gen_hypercube,
    gen_random,
    gen_ring,
    gen_three_point,
    gen_wdmc_local_min,
)

from test_cal_engine import _instance, _tie_heavy

BUDGET = 10**12


def _family_instances():
    """Seeded instances of every `generate` family."""
    yield gen_three_point(0)
    yield gen_three_point(Fraction(1, 10))
    yield gen_wdmc_local_min(Fraction(1, 200), Fraction(1, 10))
    yield gen_ring(1)
    cube, with_target = gen_hypercube(3)
    yield cube
    yield with_target([0, 3])
    yield gen_cdmc_example()
    yield gen_fibonacci(3, Fraction(1, 100))
    yield from gen_dcma_example(Fraction(1, 100))
    for seed in range(8):
        n = 2 + seed % 5
        yield gen_random(n, 1 + seed % min(3, n), seed=seed)


FAMILIES = tuple(_family_instances())


def _tie_heavy_instances():
    rng = random.Random(5)
    for _ in range(12):
        yield _tie_heavy(rng, rng.randint(3, 7))
    q = Fraction
    yield _instance(
        [q(1, 10), q(2, 10), q(1, 10), q(3, 10), q(2, 10), q(1, 10)],
        [q(1, 2), q(1, 2), q(1, 4), q(1, 4), q(1, 2), q(3, 4)],
        [q(0), q(1, 3), q(1, 3), q(1, 2), q(1), q(1, 2)],
        [[0, 1, 2, 3, 4, 5], [0, 2, 4], [1, 3, 5]],
    )


def _fresh(inst):
    """The same instance, read back from its JSON: no table built yet."""
    return load_instance(dump_instance(inst))


def _compute(name, inst):
    try:
        return METRICS[name][0](inst, BUDGET)
    except BudgetExceeded as e:
        return ("refused", str(e))


@pytest.fixture
def builds(monkeypatch):
    """Counts of the class and partition tables built, by subgroup."""
    counts = {"class": [], "score": []}
    for kind, cls in (("class", mcalaudit.enumeration._ClassTables), ("score", mcalaudit.distances._PartitionScores)):
        build = cls.__init__

        def spy(self, inst, S, build=build, kind=kind):
            build(self, inst, S)
            counts[kind].append(S.members)

        monkeypatch.setattr(cls, "__init__", spy)
    return counts


@pytest.mark.parametrize("inst", FAMILIES)
def test_one_audit_builds_each_subgroups_tables_once(builds, inst):
    inst = _fresh(inst)
    for name in METRICS:
        _compute(name, inst)
    groups = {g.members for g in inst.groups}
    domain = tuple(range(inst.n))
    cells = {c.members for c in generated_partition(inst.groups, inst.n)}
    asked = groups | cells | {domain}
    # wdmc skips a group that its bounds settle, and dimc builds nothing
    # for a one-point cell; every other cell and the domain (dcma) are built
    needed = {c for c in cells if len(c) > 1} | {domain}
    for kind in ("class", "score"):
        built = builds[kind]
        assert len(built) == len(set(built)), kind
        assert needed <= set(built) <= asked, kind
        assert not {c for c in cells - groups - {domain} if len(c) == 1} & set(built), kind
    # only the groups' and the domain's tables stay on the instance
    kept = {members for _, members in inst._table_cache}
    assert kept == set(builds["class"]) & (groups | {domain})


def test_a_second_audit_rebuilds_only_the_cells_that_are_no_group(builds):
    for inst in (gen_random(5, 2, seed=3), gen_cdmc_example()):
        for name in METRICS:
            _compute(name, inst)
        before = {kind: len(v) for kind, v in builds.items()}
        cells = generated_partition(inst.groups, inst.n)
        kept = {g.members for g in inst.groups} | {tuple(range(inst.n))}
        # dimc's cells of several points that are no group (cdmc's (1, 2)); a
        # one-point cell (cdmc's (0,) and (3,)) is read without tables
        rebuilt = sum(len(c) > 1 and c.members not in kept for c in cells)
        for name in METRICS:
            _compute(name, inst)
        assert {kind: len(v) - before[kind] for kind, v in builds.items()} == {"class": rebuilt, "score": rebuilt}


def _orders(rng):
    names = list(METRICS)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return names, names[::-1], shuffled


@pytest.mark.parametrize("family", ["generated", "tie-heavy"])
def test_every_metric_is_the_same_on_a_fresh_instance_and_after_the_others(family):
    instances = FAMILIES if family == "generated" else _tie_heavy_instances()
    rng = random.Random(family)
    for inst in instances:
        alone = {name: _compute(name, _fresh(inst)) for name in METRICS}
        for order in _orders(rng):
            shared = _fresh(inst)
            for name in order:
                assert _compute(name, shared) == alone[name], (name, order, inst)


def test_copies_of_an_audited_instance_start_without_its_tables():
    rng = random.Random(2)
    for inst in FAMILIES + tuple(_tie_heavy_instances()):
        inst = _fresh(inst)
        for name in METRICS:
            _compute(name, inst)
        q = PredictorVec([Fraction(rng.randint(0, 4), 4) for _ in range(inst.n)])
        g = PredictorVec([Fraction(rng.randint(0, 6), 6) for _ in range(inst.n)])
        for copy in (inst.with_ground_truth(q), inst.with_audited(g), inst.with_groups(inst.groups)):
            assert copy._table_cache == {}
            fresh = _fresh(copy)
            for S in copy.groups:
                assert dce(copy, S) == dce(fresh, S)
            assert dcma(copy) == dcma(fresh)


def test_tables_are_no_part_of_the_instances_value():
    inst = gen_cdmc_example()
    text, h, r = dump_instance(inst), hash(inst), repr(inst)
    for name in METRICS:
        _compute(name, inst)
    assert inst._table_cache
    assert dump_instance(inst) == text
    assert hash(inst) == h
    assert repr(inst) == r
    assert inst == gen_cdmc_example() and not gen_cdmc_example()._table_cache


def test_instances_that_reuse_an_object_id_share_no_tables():
    # An instance is freed and another is made in its place; a table keyed
    # by object ids could hand the first one's tables to the second.
    # Whether an address is reused depends on the allocator's state, which
    # the tests run before this one change: go on, up to 200 instances,
    # until one has been.
    seen = {}
    for seed in range(200):
        inst = gen_random(4, 2, seed=seed)
        assert dce(inst, Subgroup(range(4))) == dce(_fresh(inst), Subgroup(range(4)))
        seen.setdefault(id(inst), []).append(seed)
        del inst
        if seed >= 19 and any(len(seeds) > 1 for seeds in seen.values()):
            break
    assert any(len(seeds) > 1 for seeds in seen.values())
