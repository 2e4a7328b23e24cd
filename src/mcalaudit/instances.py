"""Generators for the counterexample instances and random test instances.

Each generator checks its parameter preconditions exactly and produces an
Instance that passes validation.  All decimal-looking constants are stored
as exact rationals (0.8 is 4/5, never a float).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable

from .core import (
    ECHO_CEILING,
    FiniteDomain,
    Instance,
    Marginal,
    PredictorVec,
    SubgroupCollection,
    _cut,
    rat,
)

__all__ = [
    "fibonacci_number",
    "gen_three_point",
    "gen_wdmc_local_min",
    "gen_ring",
    "gen_hypercube",
    "gen_cdmc_example",
    "gen_fibonacci",
    "gen_dcma_example",
    "gen_random",
    "jitter_ground_truth",
]


def fibonacci_number(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def _uniform_instance(n, p_star, groups, f) -> Instance:
    return Instance(
        domain=FiniteDomain(n),
        marginal=Marginal.uniform(n),
        ground_truth=PredictorVec(p_star),
        groups=SubgroupCollection(groups),
        audited=PredictorVec(f),
    )


def gen_three_point(alpha) -> Instance:
    """Three uniform points with overlapping pair groups.

    The ground truth is (4/5, 1/5, 4/5 + alpha) and the audited predictor
    is constant 1/2.  At alpha = 0 the constant predictor is itself
    multicalibrated; for any alpha > 0 the ground truth is the only
    multicalibrated predictor, so dmc jumps from 0 to above 3/10.
    """
    alpha = rat(alpha)
    if not Fraction(0) <= alpha <= Fraction(1, 5):
        raise ValueError(f"alpha must lie in [0, 1/5], got {_cut(str(alpha))}")
    p_star = [Fraction(4, 5), Fraction(1, 5), Fraction(4, 5) + alpha]
    return _uniform_instance(3, p_star, [[0, 1], [1, 2]], [Fraction(1, 2)] * 3)


def gen_wdmc_local_min(eps, delta) -> Instance:
    """Three-point instance whose audited predictor is a strict local
    minimum of the worst-group metric at value eps, while a predictor with
    smaller value sits at l1 distance delta."""
    eps, delta = rat(eps), rat(delta)
    if not Fraction(0) <= delta < Fraction(1, 2):
        raise ValueError(f"need delta in [0, 1/2), got {_cut(str(delta))}")
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {_cut(str(eps))}")
    if delta + 6 * eps > Fraction(1, 2):
        raise ValueError(f"need delta + 6*eps <= 1/2, got {_cut(str(delta + 6 * eps))}")
    if eps > delta / 9:
        raise ValueError(f"need eps <= delta/9, got eps={_cut(str(eps))}, delta/9={_cut(str(delta / 9))}")
    half = Fraction(1, 2)
    p_star = [half + delta - 6 * eps, half - delta, half + delta + 6 * eps]
    f = [half - 3 * eps, half, half + 3 * eps]
    return _uniform_instance(3, p_star, [[0, 1], [1, 2]], f)


def gen_ring(N: int) -> Instance:
    """4N uniform points in four blocks arranged in a cycle of pairwise
    block-union groups, plus the whole domain as a group.

    The audited constant-1/2 predictor is multicalibrated (every group
    mixes a 4/5 block with a 1/5 block), yet the generated partition
    separates the blocks, on which only the ground truth is calibrated.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = 4 * N

    def block(i: int) -> list[int]:
        return list(range(i * N, (i + 1) * N))

    p_star = []
    for i in range(4):
        # blocks 1..4; even-numbered blocks get 4/5
        v = Fraction(4, 5) if (i + 1) % 2 == 0 else Fraction(1, 5)
        p_star.extend([v] * N)
    groups = [
        block(0) + block(1),
        block(1) + block(2),
        block(2) + block(3),
        block(3) + block(0),
        list(range(n)),
    ]
    return _uniform_instance(n, p_star, groups, [Fraction(1, 2)] * n)


def gen_hypercube(k: int) -> tuple[Instance, Callable[[Iterable[int]], Instance]]:
    """Hypercube family over {0,1}^(k-1) with coordinate groups.

    Returns the base instance (ground truth constant 1/2) and a factory
    mapping a subset T of exactly half the points to the instance whose
    ground truth is the indicator of T.  The generated partition is all
    singletons, so the intersection metric distinguishes the two ground
    truths (0 versus 1/2) even though no small sample can.
    """
    if not 2 <= k <= 16:
        raise ValueError("k must lie in [2, 16]")
    n = 2 ** (k - 1)
    groups = [[x for x in range(n) if x >> i & 1] for i in range(k - 1)]
    groups.append([0])
    base = _uniform_instance(n, [Fraction(1, 2)] * n, groups, [Fraction(1, 2)] * n)

    def with_target(T: Iterable[int]) -> Instance:
        members = sorted(set(T))
        if len(members) != n // 2:
            raise ValueError(f"target must contain exactly {n // 2} points")
        if members and not 0 <= members[0] <= members[-1] < n:
            raise ValueError("target indices out of range")
        in_T = set(members)
        p_star = [Fraction(1) if x in in_T else Fraction(0) for x in range(n)]
        return base.with_ground_truth(PredictorVec(p_star))

    return base, with_target


def gen_cdmc_example() -> Instance:
    """Four points, two overlapping triple groups; the audited predictor
    differs from the ground truth by 3/20 in l1 yet is calibrated on both
    groups and on their intersection."""
    p_star = ["3/10", "1/5", "4/5", "4/5"]
    f = ["3/10", "1/2", "1/2", "4/5"]
    return _uniform_instance(4, p_star, [[0, 1, 2], [1, 2, 3]], f)


def gen_fibonacci(k: int, eps) -> Instance:
    """Chain instance on 2k+2 uniform points whose unbiasedness constraints
    form a recurrence: the audited predictor has worst weighted bias eps,
    but any fully multiaccurate predictor must drift from it by an amount
    growing with the Fibonacci numbers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    eps = rat(eps)
    fib = fibonacci_number
    limit = Fraction(1, 2 * (k + 1) * fib(k + 1))
    if not Fraction(0) < eps < limit:
        bound, where = str(limit), ""
        if len(bound) > ECHO_CEILING:  # ~1,050 digits at k = 4999
            bound, where = f"1/({2 * (k + 1)}*F({k + 1}))", " for F(i) the i-th Fibonacci number"
        raise ValueError(f"need eps in (0, {bound}){where}, got {_cut(str(eps))}")
    n = 2 * k + 2
    delta = 2 * (k + 1) * eps

    p_star: list[Fraction] = [Fraction(0)] * n
    p_star[2] = Fraction(1)
    for i in range(1, k + 2):
        sign = -1 if i % 2 else 1  # (-1)^i
        p_star[2 * i - 1] = Fraction(1 - sign, 2) + sign * fib(i) * delta
    for i in range(1, k):
        p_star[2 * i + 2] = 1 - p_star[2 * i - 1]

    f: list[Fraction] = [Fraction(0)] * n
    for i in range(k + 1):
        sign = -1 if i % 2 else 1
        f[2 * i] = Fraction(1 - sign, 2)
        f[2 * i + 1] = 1 - f[2 * i]

    groups = [[2 * i - 1, 2 * i, 2 * i + 1] for i in range(1, k + 1)]
    groups += [[2 * i - 1, 2 * i + 2] for i in range(1, k)]
    groups.append([0, 1])
    return _uniform_instance(n, p_star, groups, f)


def gen_dcma_example(eps) -> tuple[Instance, Instance]:
    """Six points, three triple groups.  Under the first ground truth the
    audited predictor is globally calibrated and multiaccurate; lowering a
    single ground-truth value by eps forces every calibrated multiaccurate
    predictor far away."""
    eps = rat(eps)
    if not Fraction(0) < eps <= Fraction(1, 10):
        raise ValueError(f"eps must lie in (0, 1/10], got {_cut(str(eps))}")
    p_star = ["3/5", "1/5", "7/10", "3/10", "1/2", "2/5"]
    f = ["3/5", "3/10", "3/5", "3/10", "3/5", "3/10"]
    groups = [[0, 1, 2], [2, 3, 4], [0, 4, 5]]
    inst_p = _uniform_instance(6, p_star, groups, f)
    q_star = [rat(v) for v in p_star]
    q_star[1] = Fraction(1, 5) - eps
    return inst_p, inst_p.with_ground_truth(PredictorVec(q_star))


def gen_random(
    n: int,
    k: int,
    seed: int,
    grid_denominator: int = 20,
    max_group_size: int = 4,
    uniform_marginal: bool = False,
) -> Instance:
    """Seeded random instance whose groups always cover the domain.

    Groups start as a random partition of the domain into k blocks, each
    keeping at most max_group_size of its points, then each gains random
    extra members up to max_group_size; keeping groups small keeps the
    enumeration joins affordable.  Points that no group then holds are swept
    into random groups, which can grow a group past max_group_size (when n
    exceeds k * max_group_size), so the groups always cover the domain.
    Ground truth and audited values live on the 1/grid grid.
    """
    if n < 1 or k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if grid_denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {grid_denominator}")
    rng = random.Random(seed)

    if uniform_marginal or rng.random() < 0.5:
        marginal = Marginal.uniform(n)
    else:
        weights = [rng.randrange(1, grid_denominator + 1) for _ in range(n)]
        total = sum(weights)
        marginal = Marginal([Fraction(w, total) for w in weights])

    def grid_vec() -> list[Fraction]:
        return [Fraction(rng.randrange(0, grid_denominator + 1), grid_denominator) for _ in range(n)]

    # Random partition into k non-empty blocks, then random extras.
    idx = list(range(n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    blocks = []
    prev = 0
    for c in cuts + [n]:
        blocks.append(idx[prev:c])
        prev = c
    groups: dict[tuple[int, ...], None] = {}  # an ordered set
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
            groups[key] = None
    # Trimmed or dropped blocks might leave points uncovered.  Each is swept
    # into the first group of a fresh shuffle: no group holds it yet, so the
    # grown group equals no other.
    sets = [set(g) for g in groups]
    covered = set().union(*sets)
    for x in range(n):
        if x not in covered:
            order = list(range(len(sets)))
            rng.shuffle(order)
            sets[order[0]].add(x)

    return Instance(
        domain=FiniteDomain(n),
        marginal=marginal,
        ground_truth=PredictorVec(grid_vec()),
        groups=SubgroupCollection(sets),
        audited=PredictorVec(grid_vec()),
    )


_JITTER_DENOMINATOR = 10**9


def jitter_ground_truth(inst: Instance, seed: int) -> Instance:
    """Replace the ground truth by a fresh draw with huge random
    denominators, emulating a continuous sampler on a rational grid."""
    rng = random.Random(seed)
    p = [Fraction(rng.randrange(0, _JITTER_DENOMINATOR + 1), _JITTER_DENOMINATOR) for _ in range(inst.n)]
    return inst.with_ground_truth(PredictorVec(p))
