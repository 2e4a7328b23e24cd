"""Acceptance harness: one check per claim, shared by the CLI and tests.

Each criterion function performs its checks with exact arithmetic (or, for
the statistical ones, seeded sampling) and returns a pass flag and a
human-readable detail string.  `_criterion` states the criterion's slug and
runtime budget once, registers it in CRITERIA, and turns that pair into a
CriterionResult with the elapsed time checked against the budget.
"""

from __future__ import annotations

import functools
import logging
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    conditional_l1,
    l1_distance,
)
from .distances import (
    dce,
    dcma,
    dimc,
    dmc,
    dmc_lowdeg_bruteforce,
    generated_partition,
    intersection_closure,
    local_min_probe,
    wdmc,
)
from .enumeration import is_degree_r_multicalibrated, is_multiaccurate
from .estimators import dce_interval, dimc_interval
from .instances import (
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
from .multiaccuracy import bias, dma, wdma

logger = logging.getLogger(__name__)

__all__ = ["CriterionResult", "CRITERIA", "run_suite"]


@dataclass(frozen=True)
class CriterionResult:
    slug: str
    passed: bool
    detail: str
    elapsed: float
    limit_seconds: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.limit_seconds

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget


CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(slug: str, limit: float):
    """Register a check as the next acceptance criterion.  The check
    returns (passed, detail); the registered function times it and
    reports it as a CriterionResult against `limit` seconds."""

    def register(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check()
            return CriterionResult(slug, passed, detail, time.perf_counter() - t0, limit)

        CRITERIA.append(run)
        return run

    return register


def _random_shape(seed: int, n_max: int = 6, k_max: int = 3) -> tuple[int, int]:
    rng = random.Random(seed)
    n = rng.randrange(2, n_max + 1)
    return n, min(rng.randrange(1, k_max + 1), n)


@_criterion("discontinuity-curve", 1.0)
def check_discontinuity_curve():
    """dmc jumps at the degenerate ground truth while dimc follows the
    continuous 3/10 + alpha/3 curve."""
    ok = True
    notes = []
    for alpha in (Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        inst = gen_three_point(alpha)
        curve = Fraction(3, 10) + alpha / 3
        want_dmc = Fraction(0) if alpha == 0 else curve
        got_dmc = dmc(inst).value
        got_dimc = dimc(inst).value
        if got_dmc != want_dmc or got_dimc != curve:
            ok = False
        notes.append(f"alpha={alpha}: dmc={got_dmc}, dimc={got_dimc}")
    return ok, "; ".join(notes)


@_criterion("metric-hierarchy", 120.0)
def check_metric_hierarchy():
    """wdmc <= dmc <= dimc exactly on 200 seeded random instances."""
    for s in range(200):
        n, k = _random_shape(s)
        inst = gen_random(n, k, seed=1000 + s)
        w, _ = wdmc(inst)
        d = dmc(inst).value
        di = dimc(inst).value
        if not w <= d <= di:
            return False, f"violated at seed {s}: {w}, {d}, {di}"
    return True, "200 instances, ordering exact"


@_criterion("closure-partition-equivalence", 120.0)
def check_closure_partition_equivalence():
    """dimc equals dmc over the intersection closure and over the generated
    partition, exactly, on 100 seeded random instances."""
    for s in range(100):
        n, k = _random_shape(77 + s)
        inst = gen_random(n, k, seed=5000 + s)
        di = dimc(inst).value
        d_closure = dmc(inst.with_groups(intersection_closure(inst.groups))).value
        cells = generated_partition(inst.groups, inst.n)
        d_cells = dmc(inst.with_groups(SubgroupCollection(cells))).value
        if not di == d_closure == d_cells:
            return False, f"seed {s}: {di} vs {d_closure} vs {d_cells}"
    return True, "100 instances, all equal"


@_criterion("ground-truth-lipschitz", 120.0)
def check_ground_truth_lipschitz():
    """dimc and per-group dce move by at most the (conditional) l1 shift of
    the ground truth, on 200 random pairs."""
    for s in range(200):
        n, k = _random_shape(9000 + s, n_max=5)
        inst = gen_random(n, k, seed=s)
        i1 = jitter_ground_truth(inst, seed=2 * s)
        i2 = jitter_ground_truth(inst, seed=2 * s + 1)
        shift = l1_distance(i1.ground_truth, i2.ground_truth, inst.marginal)
        if abs(dimc(i1).value - dimc(i2).value) > shift:
            return False, f"dimc at seed {s}"
        for S in inst.groups:
            cshift = conditional_l1(i1.ground_truth, i2.ground_truth, inst.marginal, S)
            if abs(dce(i1, S).value - dce(i2, S).value) > cshift:
                return False, f"dce at seed {s}, S={S.members}"
    return True, "200 pairs, bounds hold exactly"


@_criterion("almost-everywhere-equality", 120.0)
def check_almost_everywhere_equality():
    """With continuously jittered ground truth, dmc = dimc in at least 99%
    of 500 draws; exceptions are logged with their exact values."""
    equal = 0
    for s in range(500):
        n, k = _random_shape(31337 + s, n_max=5)
        inst = jitter_ground_truth(gen_random(n, k, seed=s), seed=s)
        d = dmc(inst).value
        di = dimc(inst).value
        if d == di:
            equal += 1
        else:
            logger.warning("dmc=%s != dimc=%s at jitter seed %s", d, di, s)
    return equal >= 495, f"equal on {equal}/500 draws"


@_criterion("worst-group-local-minimum", 60.0)
def check_worst_group_local_minimum():
    """The worst-group metric admits a strict local minimum at value eps
    whose nearest improvement lies a constant l1 distance away."""
    eps, delta = Fraction(1, 200), Fraction(1, 10)
    inst = gen_wdmc_local_min(eps, delta)
    w, _ = wdmc(inst)
    probe = local_min_probe("wdmc", inst, radius=Fraction(1, 1000), trials=2000, seed=6)
    at_truth, _ = wdmc(inst.with_audited(inst.ground_truth))
    gap = l1_distance(inst.audited, inst.ground_truth, inst.marginal)
    ok = w == eps and not probe.decreased and at_truth == 0 and gap == delta
    return ok, f"wdmc(f)={w}, probe decrease={probe.decreased}, wdmc(p*)={at_truth}, l1(f,p*)={gap}"


@_criterion("ring-discontinuity", 10.0)
def check_ring_discontinuity():
    """Cyclic block instance: multicalibrated yet far from intersection
    multicalibrated; four generated cells."""
    inst = gen_ring(1)
    d = dmc(inst).value
    di = dimc(inst).value
    cells = generated_partition(inst.groups, inst.n)
    ok = d == 0 and di == Fraction(3, 10) and len(cells) == 4
    return ok, f"dmc={d}, dimc={di}, cells={len(cells)}"


@_criterion("calibrated-far-predictor", 10.0)
def check_calibrated_far_predictor():
    """A predictor at l1 distance 3/20 from the ground truth can still have
    intersection multicalibration distance zero."""
    inst = gen_cdmc_example()
    di = dimc(inst).value
    gap = l1_distance(inst.audited, inst.ground_truth, inst.marginal)
    ok = di == 0 and gap == Fraction(3, 20)
    return ok, f"dimc={di}, l1(f,p*)={gap}"


@_criterion("fibonacci-bias-gap", 60.0)
def check_fibonacci_bias_gap():
    """Worst weighted bias eps but distance to multiaccuracy growing with
    the Fibonacci numbers; per-group biases as constructed."""
    notes = []
    ok = True
    for k in (3, 4, 5):
        eps = Fraction(1, 4 * (k + 1) * fibonacci_number(k + 1))
        inst = gen_fibonacci(k, eps)
        delta = 2 * (k + 1) * eps
        w, _ = wdma(inst)
        d = dma(inst).value
        bound = Fraction(fibonacci_number(k + 1)) * eps / 3
        biases_ok = all(
            bias(inst.audited, inst, S) == 0 for S in list(inst.groups)[:-1]
        ) and bias(inst.audited, inst, list(inst.groups)[-1]) == delta / 2
        if not (w == eps and d >= bound and biases_ok):
            ok = False
        notes.append(f"k={k}: wdma={w}, dma={d} >= {bound}")
    return ok, "; ".join(notes)


def _restrict_instance(inst: Instance, S: Subgroup) -> Instance:
    """Instance on the subdomain S with the renormalized marginal and the
    whole (sub)domain as the single group."""
    members = list(S.members)
    mass = sum((inst.marginal[i] for i in members), Fraction(0))
    return Instance(
        domain=FiniteDomain(len(members)),
        marginal=Marginal([inst.marginal[i] / mass for i in members]),
        ground_truth=PredictorVec([inst.ground_truth[i] for i in members]),
        groups=SubgroupCollection([list(range(len(members)))]),
        audited=PredictorVec([inst.audited[i] for i in members]),
    )


@_criterion("accuracy-lp-correctness", 60.0)
def check_accuracy_lp_correctness():
    """The distance-to-multiaccuracy LP: zero at the ground truth, witness
    always multiaccurate, and the single-group case equals the bias."""
    for s in range(100):
        n, k = _random_shape(4242 + s)
        inst = gen_random(n, k, seed=7000 + s)
        at_truth = dma(inst.with_audited(inst.ground_truth))
        if at_truth.value != 0:
            return False, f"dma(p*)!=0 at seed {s}"
        r = dma(inst)
        if not is_multiaccurate(r.witness, inst):
            return False, f"bad witness at seed {s}"
        S = list(inst.groups)[s % len(inst.groups)]
        sub = _restrict_instance(inst, S)
        if dma(sub).value != bias(inst.audited, inst, S):
            return False, f"single-group mismatch at seed {s}"
    return True, "100 instances, LP consistent"


@_criterion("calibrated-multiaccuracy-discontinuity", 10.0)
def check_calibrated_multiaccuracy_discontinuity():
    """Distance to calibrated multiaccuracy: 0 under one ground truth,
    above 1/60 after lowering a single value by 1/100."""
    inst_p, inst_q = gen_dcma_example(Fraction(1, 100))
    vp = dcma(inst_p).value
    vq = dcma(inst_q).value
    ok = vp == 0 and vq > Fraction(1, 60)
    return ok, f"before={vp}, after={vq}"


@_criterion("low-degree-discontinuity", 60.0)
def check_low_degree_discontinuity():
    """Degree-2 multicalibration of the constant predictor holds only at
    the degenerate ground truth; the grid brute force stays far away."""
    i0 = gen_three_point(0)
    i1 = gen_three_point(Fraction(1, 10))
    deg_ok = is_degree_r_multicalibrated(i0.audited, i0, 2) and not is_degree_r_multicalibrated(
        i1.audited, i1, 2
    )
    r = dmc_lowdeg_bruteforce(i1, 2, 100)
    ok = deg_ok and r.value >= Fraction(3, 10)
    return ok, f"degree-2 at 0/0.1: {deg_ok}; grid distance {r.value} (threshold {r.threshold})"


@_criterion("estimator-coverage", 600.0)
def check_estimator_coverage():
    """Interval estimators bracket the exact values in at least 95 of 100
    seeded runs each."""
    inst = gen_three_point(Fraction(1, 10))
    S2 = inst.groups[1]
    eps, delta = Fraction(1, 50), Fraction(1, 20)
    exact_dce = dce(inst, S2).value
    exact_dimc = dimc(inst).value
    dce_hits = sum(
        dce_interval(inst, S2, eps, delta, seed=s).contains(exact_dce) for s in range(100)
    )
    dimc_hits = sum(dimc_interval(inst, eps, delta, seed=s).contains(exact_dimc) for s in range(100))
    ok = dce_hits >= 95 and dimc_hits >= 95
    return (
        ok,
        f"dce covered {dce_hits}/100 (target {exact_dce}), "
        f"dimc covered {dimc_hits}/100 (target {exact_dimc})",
    )


@_criterion("hypercube-indistinguishability", 10.0)
def check_hypercube_indistinguishability():
    """Hypercube family: intersection metric 0 under the fair ground truth
    and 1/2 under a sampled indicator ground truth.  The conclusion that
    no small sample distinguishes the two is documented in the README, not
    asserted computationally."""
    base, factory = gen_hypercube(4)
    v0 = dimc(base).value
    T = random.Random(14).sample(range(base.n), base.n // 2)
    vt = dimc(factory(T)).value
    ok = v0 == 0 and vt == Fraction(1, 2)
    return ok, f"base={v0}, indicator({sorted(T)})={vt}"


def run_suite() -> list[CriterionResult]:
    return [check() for check in CRITERIA]
