import math
from fractions import Fraction

import pytest

from mcalaudit import (
    IntervalEstimate,
    dce,
    dce_interval,
    dimc,
    dimc_interval,
    sample,
    smce_empirical,
)
from mcalaudit.estimators import LabeledSample, default_batch_count, default_batch_size
from mcalaudit.instances import gen_three_point

F = Fraction


def test_sample_shape_and_determinism():
    inst = gen_three_point(F(1, 10))
    s1 = sample(inst, 500, seed=3)
    s2 = sample(inst, 500, seed=3)
    assert s1 == s2
    assert len(s1) == 500
    assert all(0 <= x < inst.n and y in (0, 1) for x, y in s1)
    assert sample(inst, 500, seed=4) != s1


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


def test_smce_accepts_labeled_samples():
    ls = [LabeledSample(F(1, 2), 1), LabeledSample(F(1, 2), 0)]
    assert smce_empirical(ls) == 0


def test_smce_empty_rejected():
    with pytest.raises(ValueError):
        smce_empirical([])


def test_smce_raises_on_a_non_optimal_lp(monkeypatch):
    import mcalaudit.estimators
    from mcalaudit import LPSolution

    monkeypatch.setattr(mcalaudit.estimators, "lp_solve", lambda problem: LPSolution("infeasible", None, ()))
    with pytest.raises(RuntimeError, match="infeasible"):
        smce_empirical([(F(1, 2), 1), (F(3, 4), 0)])


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
    assert est.upper_float == 1.0


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
