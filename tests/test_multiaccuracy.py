import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcalaudit import (
    FiniteDomain,
    Instance,
    LPProblem,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    bias,
    dma,
    group_mass,
    is_multiaccurate,
    l1_distance,
    lp_solve,
    wdma,
)
from mcalaudit.distances import certify
from mcalaudit.instances import gen_fibonacci, gen_random, gen_three_point
from mcalaudit.multiaccuracy import _dma_problem

F = Fraction


def test_lp_simple_optimal():
    # min -x - y  s.t.  x + y + s = 3 (s the slack of x + y <= 3), x <= 2, y <= 2
    p = LPProblem(
        objective=(F(-1), F(-1), F(0)),
        constraints=(((F(1), F(1), F(1)), F(3)),),
        upper=(F(2), F(2), F(3)),
    )
    sol = lp_solve(p)
    assert sol.status == "optimal"
    assert sol.optimum == F(-3)
    assert sum(sol.assignment) == F(3)


def test_lp_equality_row():
    # min x - y  s.t.  x + y = 1, 0 <= x, y <= 2
    p = LPProblem(
        objective=(F(1), F(-1)),
        constraints=(((F(1), F(1)), F(1)),),
        upper=(F(2), F(2)),
    )
    sol = lp_solve(p)
    assert sol.status == "optimal"
    assert sol.optimum == F(-1)
    assert sol.assignment == (F(0), F(1))


def test_lp_infeasible():
    # x - s1 = 2 and x + s2 = 1: x >= 2 and x <= 1 with slack columns
    p = LPProblem(
        objective=(F(1), F(0), F(0)),
        constraints=(((F(1), F(-1), F(0)), F(2)), ((F(1), F(0), F(1)), F(1))),
        upper=(F(3),) * 3,
    )
    assert lp_solve(p).status == "infeasible"


def test_lp_to_json_round_trips_fields():
    import json

    p = LPProblem(
        objective=(F(1, 3), F(0)),
        constraints=(((F(2), F(1)), F(5, 7)),),
        upper=(F(1), F(0)),
    )
    d = json.loads(p.to_json())
    assert d["objective"] == ["1/3", "0/1"]
    assert d["constraints"] == [{"coeffs": ["2/1", "1/1"], "rhs": "5/7"}]
    assert d["upper"] == ["1/1", "0/1"]


@pytest.mark.parametrize(
    "objective,constraints,upper",
    [
        ((F(1), F(1)), (), (F(1), None)),  # no bound
        ((F(1), F(1)), (), (F(1), F(-1, 2))),  # a negative bound
        ((F(1), F(1)), (), (F(1),)),  # one bound short
        ((F(1), F(1)), (((F(1),), F(1)),), (F(1), F(1))),  # a short row
    ],
)
def test_lp_problem_refuses_other_forms(objective, constraints, upper):
    with pytest.raises(ValueError):
        LPProblem(objective, constraints, upper)


def _random_lp(rng: random.Random) -> LPProblem:
    """Equality rows over 1..3 variables, each bounded by one of 0, 1/3, 1,
    3/2 and 2."""
    nv = rng.randrange(1, 4)
    nc = rng.randrange(1, 4)

    def coeff():
        return F(rng.randrange(-4, 5), rng.randrange(1, 4))

    constraints = tuple((tuple(coeff() for _ in range(nv)), coeff()) for _ in range(nc))
    upper = tuple(rng.choice((F(0), F(1, 3), F(1), F(3, 2), F(2))) for _ in range(nv))
    return LPProblem(tuple(coeff() for _ in range(nv)), constraints, upper)


def test_lp_against_scipy_reference():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        p = _random_lp(rng)
        sol = lp_solve(p)
        ref = scipy_opt.linprog(
            [float(c) for c in p.objective],
            A_eq=[[float(c) for c in coeffs] for coeffs, _ in p.constraints],
            b_eq=[float(rhs) for _, rhs in p.constraints],
            bounds=[(0, float(hi)) for hi in p.upper],
            method="highs",
        )
        if ref.status == 0:
            assert sol.status == "optimal"
            assert abs(float(sol.optimum) - ref.fun) < 1e-7
            checked += 1
        else:
            assert ref.status == 2 and sol.status == "infeasible"
    assert checked >= 5  # the sample must include real optima


def test_bias_and_wdma_three_point():
    inst = gen_three_point(F(1, 10))
    S1, S2 = inst.groups
    assert bias(inst.audited, inst, S1) == 0
    assert bias(inst.audited, inst, S2) == F(1, 20)
    value, group = wdma(inst)
    assert value == F(2, 3) * F(1, 20)
    assert group.members == S2.members


@pytest.mark.parametrize("seed", range(30))
def test_wdma_is_the_first_group_of_largest_mass_times_bias(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    inst = gen_random(n, rng.randrange(1, min(n, 3) + 1), seed=seed)
    if seed % 3 == 0:  # f = p* but at point 0: the groups of 0 tie, the rest score 0
        inst = inst.with_audited(inst.ground_truth.with_values({0: inst.audited[0]}))
    scores = [group_mass(inst.marginal, S) * bias(inst.audited, inst, S) for S in inst.groups]
    value, group = wdma(inst)
    assert value == max(scores)
    assert group == inst.groups[scores.index(value)]


def test_dma_zero_iff_multiaccurate():
    inst = gen_three_point(F(1, 10))
    assert dma(inst).value > 0
    at_truth = inst.with_audited(inst.ground_truth)
    assert dma(at_truth).value == 0


def test_dma_witness_properties():
    for seed in range(15):
        inst = gen_random(5, 2, seed=400 + seed)
        r = dma(inst)
        assert is_multiaccurate(r.witness, inst)
        assert r.value == l1_distance(inst.audited, r.witness, inst.marginal)
        # optimality: no multiaccurate predictor we know of is closer
        assert r.value <= l1_distance(inst.audited, inst.ground_truth, inst.marginal)


def test_dma_fibonacci_lower_bound():
    from mcalaudit.instances import fibonacci_number

    for k in (3, 4):
        eps = F(1, 4 * (k + 1) * fibonacci_number(k + 1))
        inst = gen_fibonacci(k, eps)
        assert wdma(inst)[0] == eps
        assert dma(inst).value >= F(fibonacci_number(k + 1)) * eps / 3


def test_dma_problem_shape():
    for inst in (gen_three_point(0), gen_three_point(F(1, 10)), gen_random(6, 3, seed=1)):
        p = _dma_problem(inst)
        f = inst.audited.values
        assert p.objective == inst.marginal.probs * 2
        assert len(p.constraints) == len(inst.groups)
        assert all(len(coeffs) == 2 * inst.n for coeffs, _ in p.constraints)
        assert p.upper == tuple(1 - v for v in f) + f  # 2n finite bounds


def _dma_problem_with_slack_rows(inst: Instance) -> LPProblem:
    """The dma LP written the long way, kept as the reference: variables
    (g_1..g_n, t_1..t_n, s_1..s_n, r_1..r_n); minimize sum m(x) t(x)
    subject to exact unbiasedness of g on every group and t >= |g - f| as
    two rows per point, g - t + s = f and -g - t + r = -f, with g <= 1,
    t <= 1 and s, r <= 2.  An optimal t is |g - f| <= 1, and then s and r
    are at most 2, so no bound but g <= 1 is tight."""
    n = inst.n
    m = inst.marginal
    p = inst.ground_truth
    f = inst.audited
    zero = Fraction(0)
    one = Fraction(1)
    objective = tuple([zero] * n + [m[i] for i in range(n)] + [zero] * (2 * n))
    constraints: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for S in inst.groups:
        coeffs = [zero] * (4 * n)
        for i in S.members:
            coeffs[i] = m[i]
        rhs = sum((m[i] * p[i] for i in S.members), zero)
        constraints.append((tuple(coeffs), rhs))
    for i in range(n):
        row = [zero] * (4 * n)
        row[i], row[n + i], row[2 * n + i] = one, -one, one
        constraints.append((tuple(row), f[i]))  # g_i - t_i + s_i = f_i
        row = [zero] * (4 * n)
        row[i], row[n + i], row[3 * n + i] = -one, -one, one
        constraints.append((tuple(row), -f[i]))  # -g_i - t_i + r_i = -f_i
    return LPProblem(objective, tuple(constraints), (one,) * (2 * n) + (Fraction(2),) * (2 * n))


def _check_dma(inst: Instance) -> None:
    """dma, which solves `_dma_problem`, reaches the optimum of the
    slack-row formulation, and its witness g = f + u - v certifies."""
    reference = lp_solve(_dma_problem_with_slack_rows(inst))
    assert reference.status == "optimal"
    r = dma(inst)
    assert r.value == reference.optimum
    certify("dma", r, inst)


def test_dma_matches_the_slack_row_lp_on_every_family():
    # Imported here: test_lp_engine imports this module.
    from test_lp_engine import _family_instances

    for _, inst in _family_instances():
        _check_dma(inst)


def test_dma_matches_the_slack_row_lp_on_seeded_random_instances():
    rng = random.Random(13)
    for s in range(200):
        n = 2 + s % 19
        _check_dma(gen_random(n, rng.randrange(1, n + 1), seed=rng.randrange(2**32), uniform_marginal=s % 3 == 0))


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    grid = draw(st.sampled_from([1, 2, 3, 4]))
    p_star = draw(st.lists(st.integers(0, grid), min_size=n, max_size=n))
    f = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    groups = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4, unique=True))
    return Instance(
        FiniteDomain(n),
        Marginal([F(w, sum(weights)) for w in weights]),
        PredictorVec([F(v, grid) for v in p_star]),
        SubgroupCollection(sorted(g) for g in groups),
        PredictorVec([F(v, 6) for v in f]),
    )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_instances())
def test_dma_matches_the_slack_row_lp_on_hypothesis_instances(inst):
    _check_dma(inst)


def test_dma_raises_when_the_witness_fails_certification(monkeypatch):
    import mcalaudit.multiaccuracy
    from mcalaudit import WitnessError

    monkeypatch.setattr(mcalaudit.multiaccuracy, "is_multiaccurate", lambda f, inst: False)
    with pytest.raises(WitnessError):
        dma(gen_three_point(Fraction(1, 10)))
