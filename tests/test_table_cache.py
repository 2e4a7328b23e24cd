"""The engine tables kept on an instance: each kept subgroup's class and
partition tables are built once per instance, and so are the audited
predictor's residuals; a metric's value and witness do not depend on which
metrics filled the tables before it, and the tables are no part of the
instance's value."""

import json
import random
import sys
from fractions import Fraction

import pytest

import mcalaudit.core
import mcalaudit.distances
import mcalaudit.enumeration
import mcalaudit.multiaccuracy
from cli_runner import invoke
from mcalaudit.core import BudgetExceeded, PredictorVec, Subgroup, dump_instance, load_instance
from mcalaudit.distances import METRICS, dce, dcma, generated_partition
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
    kept = {key[1] for key in inst._table_cache if isinstance(key, tuple)}
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


@pytest.fixture
def residuals(monkeypatch):
    """Each call of `core._weighted_differences`, as the name of its caller
    and its (f, g) values."""
    calls = []
    compute = mcalaudit.core._weighted_differences

    def spy(f, g, m):
        calls.append((sys._getframe(1).f_code.co_name, f.values, g.values))
        return compute(f, g, m)

    for module in (mcalaudit.core, mcalaudit.enumeration, mcalaudit.multiaccuracy):
        monkeypatch.setattr(module, "_weighted_differences", spy)
    return calls


def _wide_instances():
    """audit-wide's shapes: n points in n/2 groups, and the Fibonacci chain."""
    for seed, n in enumerate((12, 16, 20)):
        yield gen_random(n, n // 2, seed=seed)
        yield gen_random(n, n // 2, seed=seed, uniform_marginal=True)
    yield gen_fibonacci(9, Fraction(1, 4 * 10 * fibonacci_number(10)))


# The calls of one audit, in order, by caller: the engines' one vector, then
# the independent checks, each a membership pass (`_degrees`) or an l1
# distance (`l1_distance`) computing its own.
FULL_AUDIT = (
    "_residuals",  # wdmc first; dimc, wdma and dma read the same vector
    *("_degrees", "l1_distance"),  # certify dmc: its target, then its value
    *("_degrees", "l1_distance"),  # certify dimc
    "_degrees",  # dma's own check that its witness is multiaccurate
    *("_degrees", "l1_distance"),  # certify dma
    *("_degrees", "l1_distance"),  # certify dcma
    "_degrees",  # the membership flags, one pass for all of them
    "l1_distance",  # l1_to_ground_truth
)
WIDE_AUDIT = (
    "_residuals",  # wdmc
    *("_degrees", "l1_distance"),  # certify dimc
    "_degrees",  # dma's own check
    *("_degrees", "l1_distance"),  # certify dma
    "_degrees",  # the membership flags
    "l1_distance",  # l1_to_ground_truth
)


@pytest.mark.parametrize("wide", [False, True], ids=["full", "wide"])
def test_one_audit_computes_the_residuals_of_f_once(monkeypatch, residuals, wide):
    """m(f - p*) is computed once for the engines; every other call is an
    independent check, and none is in the (p*, f) orientation."""
    monkeypatch.setenv("MCAL_AUDIT_BUDGET", str(BUDGET))
    argv = ["--metrics", "wdmc,dimc,wdma,dma"] if wide else []
    for inst in _wide_instances() if wide else FAMILIES:
        residuals.clear()
        r = invoke(["audit", "-", *argv], input=dump_instance(inst))
        assert r.exit_code == 0, r.output
        assert not any("refused" in entry for entry in json.loads(r.stdout)["metrics"].values())
        assert tuple(name for name, _, _ in residuals) == (WIDE_AUDIT if wide else FULL_AUDIT), inst
        f, p = inst.audited.values, inst.ground_truth.values
        assert f == p or not any(call[1:] == (p, f) for call in residuals), inst


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
