"""The integer glue around the exact engines against `Fraction` oracles
(`fraction_checks`): group masses, signed group biases and therefore
`bias`, `wdma` and the rhs of `_dma_problem`, the whole `_dma_problem`
and its JSON (`audit --dump-lp`), and the per-point integers of
`_ClassTables`.  The instances are one or more of every `generate`
family, seeded random instances (some with every group tied) and the
hypothesis instances of `test_multiaccuracy`."""

import random
from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings

import fraction_checks as oracle
from mcalaudit import LPProblem, PredictorVec, Subgroup, bias, group_mass, wdma
from mcalaudit.enumeration import _ClassTables
from mcalaudit.instances import gen_random
from mcalaudit.multiaccuracy import _dma_problem
from test_lp_engine import _family_instances
from test_multiaccuracy import _instances

# Tables have 2^k entries; the per-point integers need no large k.
TABLE_POINTS = 8


def _check_class_tables(inst, S):
    """mass[1 << j] and num[1 << j] are m(x) and m(x)p*(x) at member j,
    scaled by the lcm of the denominators of all of them on S."""
    m, p = inst.marginal, inst.ground_truth
    ms = [m[x] for x in S.members]
    ws = [m[x] * p[x] for x in S.members]
    scale = lcm(*(v.denominator for v in ms + ws))
    t = _ClassTables(inst, S)
    k = len(S)
    assert [t.mass[1 << j] for j in range(k)] == [(v * scale).numerator for v in ms]
    assert [t.num[1 << j] for j in range(k)] == [(v * scale).numerator for v in ws]


def _check_feeds(inst):
    m, f = inst.marginal, inst.audited
    domain = Subgroup(range(inst.n))
    for S in [*inst.groups, domain]:
        mass = oracle.group_mass(m, S)
        assert group_mass(m, S) == mass
        assert bias(f, inst, S) == abs(oracle.signed_bias_mass(f, inst, S)) / mass
        if len(S) <= TABLE_POINTS:
            _check_class_tables(inst, S)
    signed = [oracle.signed_bias_mass(f, inst, S) for S in inst.groups]
    scores = [abs(s) for s in signed]
    value, group = wdma(inst)
    assert value == max(scores)
    assert group is inst.groups[scores.index(value)]  # the first maximal group
    assert [rhs for _, rhs in _dma_problem(inst).constraints] == signed


def test_feeds_match_the_oracles_on_every_family():
    for _, inst in _family_instances():
        _check_feeds(inst)


def test_feeds_match_the_oracles_on_seeded_random_instances():
    rng = random.Random(23)
    ties = 0
    for s in range(150):
        n = 1 + s % 12
        inst = gen_random(n, rng.randrange(1, n + 1), seed=rng.randrange(2**32), uniform_marginal=s % 3 == 0)
        if s % 5 == 1:  # f = p* but at point 0: the groups of 0 tie, the rest score 0
            inst = inst.with_audited(inst.ground_truth.with_values({0: inst.audited[0]}))
        elif s % 5 == 3:  # f = p*: every group scores 0
            inst = inst.with_audited(inst.ground_truth)
        ties += len({oracle.signed_bias_mass(inst.audited, inst, S) for S in inst.groups}) < len(inst.groups)
        _check_feeds(inst)
    assert ties >= 30


def _check_dma_problem(inst):
    expected = LPProblem(*oracle.dma_problem(inst))
    problem = _dma_problem(inst)
    assert problem == expected
    assert problem.to_json() == expected.to_json()


def test_dma_problem_matches_the_fraction_oracle():
    rng = random.Random(27)
    cases = [inst for _, inst in _family_instances()]
    for s in range(100):
        n = 1 + s % 12
        cases.append(gen_random(n, rng.randrange(1, n + 1), seed=rng.randrange(2**32), uniform_marginal=s % 3 == 0))
    for inst in cases:
        _check_dma_problem(inst)
        # f at the ends of [0, 1]: upper bounds of 0 on u and on v
        ends = PredictorVec([F(rng.randint(0, 1)) for _ in range(inst.n)])
        _check_dma_problem(inst.with_audited(ends))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_instances())
def test_feeds_match_the_oracles_on_hypothesis_instances(inst):
    _check_feeds(inst)

