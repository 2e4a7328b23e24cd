"""Sampling-based interval estimators for the calibration distances.

The estimated statistic is the empirical lower distance to calibration:
the optimum of a small LP over 1-Lipschitz dual weight functions of the
observed (prediction, label) pairs.  It lower-bounds the conditional
distance to calibration mu and satisfies mu <= 4*sqrt(statistic), which
is what turns a median-of-batches point estimate into a two-sided
interval.  The LP is a path over the sorted distinct predictions, so it
is solved exactly, without a simplex, by a dynamic programme over the
concave piecewise-linear value function, in integers scaled by the lcm q
of the prediction denominators (`_smce_max`).  Batches of equal size
share the denominator q*q*draws, so `_smce_numerators` returns their
statistics as integer numerators and a median builds one `Fraction`.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence
(a fixed, portable, splittable 64-bit algorithm; see the README), so runs
are bit-for-bit reproducible given a seed.  Sampling probabilities are
rendered to float64 only to drive the draws; every statistic downstream
of the integer sample counts is computed in exact rationals.  numpy is
imported inside the sampling functions, not with the module, so the rest
of the package loads without it.

A batch statistic depends on its draws only through the number of draws
and of label-1 draws at each prediction value, so the interval
estimators draw those counts directly: per batch a multinomial over the
point masses, then a binomial per point for the labels, and for dimc
first a multinomial over the generated cells.  This has the law of
drawing every sample one by one, with O(batches x points) variates and
memory, however many draws the interval takes.  Seeded outputs differ from
versions that drew individual samples at the same seed.

The asymptotic constants behind the sample bounds are not pinned down by
theory; the defaults here are batch size ceil(4/eps^2) and batch count
ceil(18*ln(1/delta)) (the 18 comes from the Hoeffding bound on the median
trick), both overridable per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .core import Instance, Subgroup, _int_numerators, group_mass, rat
from .distances import generated_partition

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntervalEstimate",
    "smce_empirical",
    "dce_interval",
    "dimc_interval",
]


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate with a confidence interval [lower, 4*sqrt(a)+sqrt(b)].

    The upper endpoint is irrational in general, so it is stored as the
    exact pair (a, b) of the expression 4*sqrt(a) + sqrt(b) alongside a
    30-digit decimal rendering.
    """

    point: Fraction
    lower: Fraction
    upper_terms: tuple[Fraction, Fraction]
    upper_decimal: str
    confidence: Fraction
    samples_used: int

    def contains(self, value) -> bool:
        value = rat(value)
        if value < self.lower:
            return False
        a, b = self.upper_terms
        # value <= 4 sqrt(a) + sqrt(b), decided exactly by squaring twice
        if value <= 0:
            return True
        d = value * value - 16 * a - b
        if d <= 0:
            return True
        return d * d <= 64 * a * b


def _upper_decimal(a: Fraction, b: Fraction, digits: int = 30) -> str:
    with localcontext() as ctx:
        ctx.prec = digits + 20
        val = 4 * (Decimal(a.numerator) / Decimal(a.denominator)).sqrt()
        val += (Decimal(b.numerator) / Decimal(b.denominator)).sqrt()
        ctx.prec = digits
        return str(+val)


def _rng(seed) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _smce_max(q: int, points: Sequence[int], coeffs: Sequence[int]) -> int:
    """Maximum of sum_a coeffs[a] * W_a over real weights with |W_a| <= q
    and |W_{a+1} - W_a| <= points[a+1] - points[a]; an integer, since the
    optimum sits on breakpoints that are sums of the integer inputs.

    A dynamic programme along the sorted points, the path structure that
    Hu, Jambulapati, Tian and Yang (2024) solve as a flow.  V(W), the best
    partial sum whose last weight is W, is concave and piecewise linear on
    [-q, q]: it is kept as its breakpoints xs, the slope of each piece
    between them and its value v0 at -q, all integers.  Stepping to the
    next point takes the max of V over a window of radius gap: the rising
    pieces move left by gap, the others right by gap, and a flat piece of
    width 2*gap joins them at the old maximum.  The result is clipped to
    [-q, q], and the next term coeffs[a] * W adds coeffs[a] to every
    slope.  The optimum is V at the end of its last rising piece.
    """
    xs = [-q, q]
    slopes = [coeffs[0]]
    v0 = -q * coeffs[0]
    for a in range(1, len(coeffs)):
        gap = points[a] - points[a - 1]
        i = 0
        while i < len(slopes) and slopes[i] > 0:
            i += 1
        xs = [x - gap for x in xs[: i + 1]] + [x + gap for x in xs[i:]]
        slopes.insert(i, 0)
        j = 0
        while xs[j + 1] <= -q:
            v0 += slopes[j] * (xs[j + 1] - xs[j])
            j += 1
        v0 += slopes[j] * (-q - xs[j])
        k = len(xs) - 1
        while xs[k - 1] >= q:
            k -= 1
        xs = [-q] + xs[j + 1 : k] + [q]
        c = coeffs[a]
        slopes = [s + c for s in slopes[j:k]]
        v0 -= q * c
    best = v0
    for s, x0, x1 in zip(slopes, xs, xs[1:]):
        if s <= 0:
            break
        best += s * (x1 - x0)
    return best


def _smce_numerators(
    values: Sequence[Fraction], n_rows: Sequence[Sequence[int]], s_rows: Sequence[Sequence[int]], draws: int
) -> tuple[list[int], int]:
    """Exact empirical lower distances to calibration of batches of `draws`
    samples, as integer numerators over their shared denominator q*q*draws.

    values are sorted ascending and distinct; a batch's rows n and s put
    n[a] samples on values[a], s[a] of them with label 1.  Its statistic
    maximizes (1/draws) sum_a w_a (s[a] - n[a] * values[a]) over w in
    [-1,1] 1-Lipschitz across adjacent values; scaled by q, the lcm of the
    value denominators, that is the integer program `_smce_max` solves.
    """
    points, q = _int_numerators(values)
    nums = [
        _smce_max(q, points, [q * s - n * x for x, n, s in zip(points, ns, ss)]) for ns, ss in zip(n_rows, s_rows)
    ]
    return nums, q * q * draws


def smce_empirical(samples) -> Fraction:
    """Empirical 1-Lipschitz-dual lower-dCE statistic of a list of
    (prediction, label) pairs: predictions in [0, 1], labels 0 or 1."""
    agg: dict[Fraction, list[int]] = {}
    total = 0
    for pred, label in samples:
        pred = rat(pred)
        if not 0 <= pred <= 1:
            raise ValueError(f"prediction {pred} lies outside [0, 1]")
        if not isinstance(label, int) or label not in (0, 1):
            raise ValueError(f"label {label!r} is not 0 or 1")
        entry = agg.setdefault(pred, [0, 0])
        entry[0] += 1
        entry[1] += label
        total += 1
    if total == 0:
        raise ValueError("at least one sample required")
    values = sorted(agg)
    (num,), den = _smce_numerators(values, [[agg[v][0] for v in values]], [[agg[v][1] for v in values]], total)
    return Fraction(num, den)


def _median(nums: list[int], den: int) -> Fraction:
    """The median of the statistics nums[b]/den, built as one Fraction."""
    nums = sorted(nums)
    mid = len(nums) // 2
    if len(nums) % 2:
        return Fraction(nums[mid], den)
    return Fraction(nums[mid - 1] + nums[mid], 2 * den)


def default_batch_size(eps: Fraction) -> int:
    return math.ceil(4 / (eps * eps))


def default_batch_count(delta: Fraction, parts: int = 1) -> int:
    return math.ceil(18 * math.log(parts / delta))


_INT64_MAX = 2**63 - 1  # numpy's int64 maximum


def _check_draw_sizes(batch_size: int, batch_count: int, total: int) -> None:
    """Refuse, before any draw, empty batches and counts numpy's int64
    samplers cannot take."""
    if batch_size < 1 or batch_count < 1:
        raise ValueError("batch size and batch count must be >= 1")
    for name, n in (("batch size", batch_size), ("total draw count", total)):
        if n > _INT64_MAX:
            raise ValueError(f"{name} {n} exceeds numpy's int64 range; use a larger eps")


def _statistics_from_counts(
    audited, members: Sequence[int], counts: np.ndarray, ones: np.ndarray, batch_size: int
) -> tuple[list[int], int]:
    """`_smce_numerators` of each batch from per-point counts.

    Row b of counts (ones) holds how many of batch b's `batch_size` draws
    fell on each member (and had label 1); members sharing a prediction
    are folded into one value first.
    """
    import numpy as np

    values = sorted({audited[i] for i in members})
    pos = {v: a for a, v in enumerate(values)}
    fold = np.zeros((len(members), len(values)), dtype=np.int64)
    for r, i in enumerate(members):
        fold[r, pos[audited[i]]] = 1
    # Python ints from here on: q * s and n * x can exceed int64.
    return _smce_numerators(values, (counts @ fold).tolist(), (ones @ fold).tolist(), batch_size)


def _draw_batch_statistics(
    rng: np.random.Generator, inst: Instance, members: Sequence[int], batch_size: int, batch_count: int
) -> tuple[list[int], int]:
    """Statistics of `batch_count` batches of `batch_size` i.i.d. draws
    from the instance conditioned on `members`, as `_smce_numerators` gives
    them, drawn as sufficient statistics: a multinomial over the members'
    point masses per batch, then a binomial per point for the labels."""
    import numpy as np

    cond = np.array([float(inst.marginal[i]) for i in members])
    cond /= cond.sum()
    pstar = np.array([float(inst.ground_truth[i]) for i in members])
    counts = rng.multinomial(batch_size, cond, size=batch_count)
    ones = rng.binomial(counts, pstar)
    return _statistics_from_counts(inst.audited, members, counts, ones, batch_size)


def dce_interval(
    inst: Instance,
    S: Subgroup,
    eps,
    delta,
    seed,
    batch_size: Optional[int] = None,
    batch_count: Optional[int] = None,
) -> IntervalEstimate:
    """Median-of-batches interval for the conditional distance to
    calibration on S: [mu_hat - eps, 4*sqrt(mu_hat + eps)] at confidence
    1 - delta.  Deterministic given the seed."""
    eps, delta = rat(eps), rat(delta)
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    bs = batch_size if batch_size is not None else default_batch_size(eps)
    bc = batch_count if batch_count is not None else default_batch_count(delta)
    total = bs * bc
    _check_draw_sizes(bs, bc, total)

    mu_hat = _median(*_draw_batch_statistics(_rng(seed), inst, list(S.members), bs, bc))
    a = mu_hat + eps
    return IntervalEstimate(
        point=mu_hat,
        lower=mu_hat - eps,
        upper_terms=(a, Fraction(0)),
        upper_decimal=_upper_decimal(a, Fraction(0)),
        confidence=1 - delta,
        samples_used=total,
    )


def dimc_interval(
    inst: Instance,
    eps,
    delta,
    seed,
    batch_size: Optional[int] = None,
    batch_count: Optional[int] = None,
) -> IntervalEstimate:
    """Interval for the intersection multicalibration distance.

    Draws from the full distribution, estimates each generated-partition
    cell's mass empirically and its conditional lower-dCE by median of
    batches, and combines them as theta_hat = sum p_hat_i mu_hat_i with
    interval [theta_hat - eps, 4*sqrt(l * theta_hat) + sqrt(eps)].

    Requires eps <= gamma, the smallest exact cell mass; the total draw
    count scales with 1/gamma so that every cell receives enough samples.
    """
    eps, delta = rat(eps), rat(delta)
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    cells = generated_partition(inst.groups, inst.n)
    ell = len(cells)
    masses = [group_mass(inst.marginal, c) for c in cells]
    gamma = min(masses)
    if eps > gamma:
        raise ValueError(f"eps={eps} exceeds the minimum cell mass gamma={gamma}")
    bs = batch_size if batch_size is not None else default_batch_size(eps)
    bc = batch_count if batch_count is not None else default_batch_count(delta, parts=ell)
    per_cell = bs * bc
    total = math.ceil(Fraction(2 * per_cell) / gamma)
    _check_draw_sizes(bs, bc, total)

    import numpy as np

    rng = _rng(seed)
    cell_mass = np.array([float(m) for m in masses])
    cell_mass /= cell_mass.sum()
    theta_hat = Fraction(0)
    for cell, drawn in zip(cells, rng.multinomial(total, cell_mass).tolist()):
        if not drawn:
            continue  # p_hat = 0: the cell adds nothing and has no batch
        # A cell uses at most per_cell of its draws; short cells fall back
        # to fewer (but never zero) full batches.
        take = min(drawn, per_cell)
        nb = max(1, min(bc, take // bs))
        stats = _draw_batch_statistics(rng, inst, list(cell.members), take // nb, nb)
        theta_hat += Fraction(drawn, total) * _median(*stats)

    a = Fraction(ell) * theta_hat
    return IntervalEstimate(
        point=theta_hat,
        lower=theta_hat - eps,
        upper_terms=(a, eps),
        upper_decimal=_upper_decimal(a, eps),
        confidence=1 - delta,
        samples_used=total,
    )
