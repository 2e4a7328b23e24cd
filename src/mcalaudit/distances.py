"""Exact distance metrics: dce, wdmc, dmc, dimc, dcma, low-degree oracle.

Every metric here is a marginal-weighted l1 distance from the audited
predictor to a finite (or finitely-enumerable) set of perfect predictors,
so each returns both the exact rational value and a witness achieving it.

dimc is computed through the partition generated by the group collection:
it decomposes as the sum over partition cells of cell mass times the
conditional distance to calibration on that cell.  This equals the
distance to calibration over the intersection closure of the groups, and
is the continuized variant of dmc (the limit of suprema of dmc over
shrinking neighborhoods of the ground truth); the limit definition is not
computable directly, the decomposition is.

Cost: dce (and so wdmc per group and dimc per cell) is a min-cost set
partition of the subgroup, solved by a subset DP over the per-class tables
of `enumeration`: 2^k class costs, then O(3^k) integer steps, without
listing the calibrated set (`_PartitionScores`).  wdmc and dimc call no
dce and build no per-subgroup witness: for a subgroup S, dce's value is
the cost part of S's least score over E L mass[full], and mass[full] =
scale m(S), so m(S) dce(S) is that cost over the tables' `unit` =
scale E L, an integer ratio that wdmc compares and dimc sums.  Before
building any tables they bound it from the shared residuals e/D =
m(f - p*) (`core._residuals`): |sum_S e|/D <= m(S) dce(S) <= sum_S |e|/D.
wdmc skips a group that cannot be the first worst one and takes the
upper bound where the two meet; dimc reads a one-point cell's term
|e[x]|/D and keeps the DP for every other cell.  dcma builds the same
tables on the whole domain and runs a branch and bound over partitions,
bounded below by the DP and pruned against the best unbiased partition
found so far.  dmc lists no multicalibrated set, nor its largest group's
calibrated set: a branch and bound over that group's partition scores,
as dcma's, joins each of its partitions with the other groups'
calibrated sets, each candidate scored once in integers.
The class tables and partition scores of the instance's groups and of its
whole domain are built once per instance (`enumeration._tables`), so the
metrics of one audit share them: wdmc (for a group its bounds leave
open), dmc and dimc read a group's, dcma the domain's.
All three refuse k above PARTITION_CEILING with `BudgetExceeded`, and dmc
also refuses a per-group Bell-number product above its budget.  `METRICS`
is the one table of the six audited metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import (
    BudgetExceeded,
    DistanceResult,
    Instance,
    PredictorVec,
    Subgroup,
    SubgroupCollection,
    WitnessError,
    _brief,
    _cut,
    _residuals,
    group_mass,
    l1_distance,
)
from .enumeration import (
    DEFAULT_BUDGET,
    _check_bell_product,
    _check_ceiling,
    _ClassTables,
    _degrees,
    _tables,
    calibrated_set,
    is_multiaccurate,
    is_multicalibrated,
)
from .multiaccuracy import dma, wdma

__all__ = [
    "DistanceResult",
    "calibrated_set",
    "METRICS",
    "certify",
    "LowDegreeSearchResult",
    "ProbeReport",
    "dce",
    "wdmc",
    "dmc",
    "intersection_closure",
    "generated_partition",
    "dimc",
    "dcma",
    "dmc_lowdeg_bruteforce",
    "local_min_probe",
]

CLOSURE_CEILING = 20


class _PartitionScores:
    """dce's tables over a subgroup S: the score of every class and the
    least score of a partition of every subset of S's member positions.

    Class C costs sum_{x in C} m(x)|f(x) - mean(C)|, the cost of giving C
    its class mean.  With E = lcm of f's denominators on S, that is
      sum_{x in C} M(x) (E/b(x)) |a(x) mass[C] - b(x) num[C]| / (scale E mass[C])
    for f(x) = a(x)/b(x) and M(x) = scale m(x); over the common denominator
    scale E L, L = lcm of all mass[C], every cost is an integer.  Below the
    cost sit W bits holding the class's share of the value key: the shares
    of disjoint classes add without a carry past W bits, so the least score
    is the cheapest partition and, among those, the one whose value vector
    is lexicographically smallest.  `cost[C]` is class C's score and
    `best[R]` the least score of a partition of R, a lower bound on the
    score of any partition of R.  `best` is defined on the full set, on 0
    (best[0] = 0) and on every R without position 0: the remainders that a
    search from the full set reaches, its lowest member having been placed
    first.  The other entries are 0.  `unit` = scale E L is the denominator
    of a score's cost part, scale being the class tables'.
    """

    def __init__(self, inst: Instance, S: Subgroup):
        t = _tables(_ClassTables, inst, S)
        f = inst.audited.values
        fs = [f[x].as_integer_ratio() for x in S.members]
        full = (1 << t.k) - 1
        E = lcm(*(b for _, b in fs))
        weight = [t.mass[1 << j] * (E // b) for j, (_, b) in enumerate(fs)]
        L = lcm(*t.mass[1:])
        W = t.width * t.k
        code = t.code
        cost = [0] * (full + 1)
        for C in range(1, full + 1):
            mc, nc = t.mass[C], t.num[C]
            total = 0
            bits = C
            while bits:
                low = bits & -bits
                bits ^= low
                j = low.bit_length() - 1
                a, b = fs[j]
                total += weight[j] * abs(a * mc - b * nc)
            cost[C] = (total * (L // mc) << W) + code[C]

        # R's lowest member is in a class with some subset of the rest.
        best = [0] * (full + 1)
        for R in (*range(2, full, 2), full):
            low = R & -R
            rest = R ^ low
            b = cost[R]
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                c = cost[sub | low] + best[rest ^ sub]
                if c < b:
                    b = c
            best[R] = b

        self.tables = t
        self.L = L
        self.W = W
        self.unit = t.scale * E * L
        self.cost = cost
        self.best = best
        self._den = E * L * t.mass[full]
        self._f = inst.audited
        self._members = S.members

    def values(self, score: int) -> tuple[Fraction, ...]:
        """The value vector, in member order, that a partition's score
        carries in its low W bits."""
        (values,) = self.tables.values([score & ((1 << self.W) - 1)])
        return values

    def result(self, score: int) -> DistanceResult:
        """The conditional distance a partition's score stands for, and its
        witness: the global vector that agrees with f off S."""
        witness = self._f.with_values(dict(zip(self._members, self.values(score))))
        return DistanceResult(value=Fraction(score >> self.W, self._den), witness=witness)


def dce(inst: Instance, S: Subgroup) -> DistanceResult:
    """Distance to calibration of the audited predictor conditioned on S.

    Minimizes the conditional l1 distance over cal(D|S), as a min-cost set
    partition of S (`_PartitionScores`): a subset DP over the class tables
    finds the cheapest partition in exactly O(3^k) integer steps without
    listing cal(D|S).  The witness is a global vector agreeing with the
    audited predictor off S.  Among the cheapest partitions it takes the
    lexicographically smallest restricted value vector; the DP score
    carries that vector's key in its low bits, so ties cost nothing extra.
    """
    scores = _tables(_PartitionScores, inst, S)
    return scores.result(scores.best[-1])


def wdmc(inst: Instance) -> tuple[Fraction, Subgroup]:
    """Worst group-mass-weighted conditional distance to calibration, and
    the first group that attains it.

    A branch and bound over the groups.  With the residuals e[x]/D =
    m(x)(f(x) - p*(x)) (`core._residuals`), |sum_S e|/D <= m(S) dce(S) <=
    sum_S |e|/D: a predictor calibrated on S keeps S's weighted mean of p*,
    and p* is calibrated on S.  A group whose upper bound is below the
    largest lower bound, or at most the worst value found so far (a later
    group wins only when strictly greater), is skipped; where its bounds
    meet, the upper bound is its value.  Any other group's value is read
    from its least partition score with no witness built: m(S) dce(S) is the
    score's cost part over the tables' `unit` (dce's value is that cost over
    E L mass[full], and mass[full] = scale m(S)).  Values are compared by
    integer cross-multiplication.  A group above the partition ceiling is
    refused as its tables would be, whether or not its bounds settle it.
    """
    e, D = _residuals(inst)
    bounds = []
    for S in inst.groups:
        _check_ceiling(len(S))
        es = [e[x] for x in S.members]
        bounds.append((S, abs(sum(es)), sum(map(abs, es))))
    floor = max(lower for _, lower, _ in bounds)
    top, unit, worst = -1, 1, None
    for S, lower, upper in bounds:
        if upper < floor or upper * unit <= top * D:
            continue
        if lower == upper:
            cost, den = upper, D
        else:
            scores = _tables(_PartitionScores, inst, S)
            cost, den = scores.best[-1] >> scores.W, scores.unit
        if cost * unit > top * den:
            top, unit, worst = cost, den, S
    return Fraction(top, unit), worst


def dmc(inst: Instance, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Distance to multicalibration: min l1 distance over mcal_C(D).
    Coordinates no group covers are free in every member, so the witness
    copies the audited predictor there; ties go to the lexicographically
    smallest witness.

    A depth-first branch and bound that joins the groups under agreement on
    overlaps.  Each assignment is scored once, as the integer sum of
    m(x)|f(x) - v(x)| over the points it fixes first.  The largest group
    (the first of them) is searched first, as dcma searches the domain and
    without listing its calibrated set: over its partition scores, its
    lowest unplaced member joining each subset of the rest to form the next
    class C, tried in increasing order of score + cost[C] + best[R ^ C].  A
    state (remainder, value key so far) is expanded once: equal keys are
    equal values, so equal scores and the same subtree.  Each of its
    partitions is then joined with the other groups' calibrated sets, each
    time the group with the most points already joined (ties to the longer
    list).  Their candidates sit in buckets keyed by their values on those
    points, sorted by score, so a node looks up the one bucket that agrees
    with it; scores and keys are computed column by column, one table
    lookup per value.  Values are put over one denominator Q, a multiple of
    the first group's L, and the first group's costs and the others' over
    the lcm of their units.  A branch is pruned once its bound plus the
    least score of every later group exceeds the best complete score, at
    first the ground truth's; equal scores go on, so that among the nearest
    members the smallest wins.  A tied child of the largest group (bound
    plus later least scores equal to the best complete score) is skipped
    when the values assigned so far, read in point order up to the first
    covered point not yet assigned, are greater than the incumbent's at
    their first difference: every completion then ties at best and is
    lexicographically greater.  The Bell-product budget is checked first,
    as for `multicalibrated_set`.
    """
    _check_bell_product(inst, budget)
    n = inst.n
    m, f = inst.marginal, inst.audited
    head = max(inst.groups, key=len)
    # calibrated_set decodes every value from one short table of class
    # means, so a group's candidates share a few Fraction objects.  They
    # are read column by column, by identity (`objects` holds each one, so
    # no id is reused while dmc runs), and each object is put over Q once.
    cal = []
    objects: dict[int, Fraction] = {}
    for S in inst.groups:
        if S is head:
            first = _tables(_PartitionScores, inst, S)
            continue
        cands = calibrated_set(inst, S)
        columns = list(zip(*cands))
        ids = [list(map(id, column)) for column in columns]
        for column, column_ids in zip(columns, ids):
            objects.update(zip(column_ids, column))
        cal.append((S.members, cands, ids))
    Q = lcm(first.L, *{v.denominator for v in objects.values()})
    over_q = {i: v.numerator * (Q // v.denominator) for i, v in objects.items()}
    # scale clears every m(x) and m(x)f(x), so both divisions are exact;
    # the later groups' costs are over scale Q, the first group's over its
    # own unit, and both are put over their lcm
    scale = lcm(*(m[x].denominator * f[x].denominator for x in range(n)))
    unit = lcm(first.unit, scale * Q)
    to_unit = unit // (scale * Q)
    M = [m[x].numerator * (scale // m[x].denominator) * to_unit for x in range(n)]
    fq = [M[x] * f[x].numerator // f[x].denominator * Q for x in range(n)]
    cost = [{i: abs(fq[x] - M[x] * v) for i, v in over_q.items()} for x in range(n)]
    zero = dict.fromkeys(over_q, 0)

    # levels[i] = (points joined earlier, points first joined here with
    # their positions, candidates, buckets of (score, candidate index))
    levels = []
    least = []  # least[i]: the least score of a candidate of level i
    covered = set(head.members)
    while cal:
        members, cands, ids = cal.pop(
            max(range(len(cal)), key=lambda i: (len(covered.intersection(cal[i][0])), len(cal[i][1])))
        )
        shared = [j for j, x in enumerate(members) if x in covered]
        # a member joined earlier scores 0 here
        tables = [zero if x in covered else cost[x] for x in members]
        scores = map(sum, zip(*(map(t.__getitem__, column) for t, column in zip(tables, ids))))
        keys = zip(*(map(over_q.__getitem__, ids[j]) for j in shared)) if shared else [()] * len(cands)
        buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for key, score, c in zip(keys, scores, range(len(cands))):
            buckets.setdefault(key, []).append((score, c))
        for bucket in buckets.values():
            bucket.sort()
        least.append(min(bucket[0][0] for bucket in buckets.values()))
        fresh = [(j, x) for j, x in enumerate(members) if x not in covered]
        levels.append((tuple(members[j] for j in shared), fresh, cands, buckets))
        covered.update(members)
    floor = [sum(least[i:]) for i in range(len(levels) + 1)]  # floor[i]: levels from i on

    # The ground truth is multicalibrated (every group's all-singleton
    # candidate), so it is the first incumbent.
    p = inst.ground_truth
    best = tuple(p[x].numerator * (Q // p[x].denominator) if x in covered else None for x in range(n))
    top = sum(abs(fq[x] - M[x] * v) for x, v in enumerate(best) if v is not None)
    assign: list[Optional[int]] = [None] * n

    def search(i: int, score: int):
        nonlocal top, best
        if i == len(levels):
            if score < top or tuple(assign) < best:
                top, best = score, tuple(assign)
            return
        shared, fresh, cands, buckets = levels[i]
        bucket = buckets.get(tuple([assign[x] for x in shared]))
        if bucket is None:
            return
        rest = floor[i + 1]
        for added, c in bucket:
            total = score + added
            if total + rest > top:
                return
            cand = cands[c]
            for j, x in fresh:
                assign[x] = over_q[id(cand[j])]
            search(i + 1, total)

    t, W, to_first = first.tables, first.W, unit // first.unit
    k, width, code, mass, num, points = t.k, t.width, t.code, t.mass, t.num, head.members
    costs = [(c >> W) * to_first for c in first.cost]
    bests = [(c >> W) * to_first for c in first.best]
    later = floor[0]
    digit = (1 << width) - 1
    means: dict[int, int] = {}  # rank -> that class mean over Q
    seen: set[int] = set()  # expanded states, as value key << k | remainder
    # the covered points in the order witnesses compare, each with its bit
    # among the first group's positions (0 for a point of a later group)
    bits_of = {x: 1 << j for j, x in enumerate(points)}
    order = [(x, bits_of.get(x, 0)) for x in sorted(covered)]

    def greater(left: int, C: int, v: int) -> bool:
        """Whether the values assigned once class C holds v are greater than
        best's at their first difference, read in point order up to the
        first covered point not yet assigned (in `left` or a later group)."""
        for x, j in order:
            if not j or j & left:
                return False
            a = v if j & C else assign[x]
            if a != best[x]:
                return a > best[x]
        return False

    def split(R: int, score: int, key: int):
        low = R & -R
        rest = R ^ low
        children = []
        sub = rest
        while True:
            C = sub | low
            bound = score + costs[C] + bests[R ^ C]
            if bound + later <= top:
                children.append((bound, C))
            if not sub:
                break
            sub = (sub - 1) & rest
        children.sort()
        for bound, C in children:
            if bound + later > top:
                return
            after = key + code[C]
            state = (after << k) | (R ^ C)
            if state in seen:
                continue
            seen.add(state)
            # the digit of C's last position holds the rank of its mean
            r = (code[C] >> width * (k - C.bit_length())) & digit
            v = means.get(r)
            if v is None:
                v = means[r] = num[C] * (Q // mass[C])
            # a tie whose prefix is already greater than best's never wins
            if bound + later == top and greater(R ^ C, C, v):
                continue
            bits = C
            while bits:
                j = bits & -bits
                bits ^= j
                assign[points[j.bit_length() - 1]] = v
            if C != R:
                split(R ^ C, score + costs[C], after)
            else:
                search(0, bound)

    split((1 << k) - 1, 0, 0)
    # split and search call themselves through their closures; unbinding
    # them ends that cycle, so the search's state is freed on return and
    # not at the next garbage collection
    del split, search
    witness = PredictorVec._of([f[x] if v is None else Fraction(v, Q) for x, v in enumerate(best)])
    return DistanceResult(Fraction(top, unit), witness)


def intersection_closure(C: SubgroupCollection) -> SubgroupCollection:
    """All non-empty intersections of non-empty subfamilies of C."""
    if len(C) > CLOSURE_CEILING:
        raise BudgetExceeded(
            f"collection size {len(C)} exceeds closure ceiling {CLOSURE_CEILING}",
            len(C),
            CLOSURE_CEILING,
        )
    closed: set[tuple[int, ...]] = {g.members for g in C}
    frontier = set(closed)
    while frontier:
        new: set[tuple[int, ...]] = set()
        for a in frontier:
            sa = set(a)
            for g in C:
                inter = tuple(sorted(sa & set(g.members)))
                if inter and inter not in closed:
                    new.add(inter)
        closed.update(new)
        frontier = new
    return SubgroupCollection(sorted(closed))


def generated_partition(C: SubgroupCollection, n: int) -> tuple[Subgroup, ...]:
    """Cells of the partition generated by C: the maximal sets of points
    with identical group-membership signatures, in order of their least
    member.  Requires C to cover the domain."""
    # sig[x] has bit i set when x is in group i
    sig = [0] * n
    outside = max(g.members[-1] for g in C) >= n
    if not outside:
        for i, g in enumerate(C):
            bit = 1 << i
            for x in g.members:
                sig[x] |= bit
    if outside or not all(sig):
        raise ValueError("groups must cover the domain to generate a partition")
    # a cell is first met at its least member, so the cells come in that order
    cells: dict[int, list[int]] = {}
    for x, s in enumerate(sig):
        cells.setdefault(s, []).append(x)
    return tuple(map(Subgroup._of, cells.values()))


def dimc(inst: Instance) -> DistanceResult:
    """Distance to intersection multicalibration (= continuized dmc).

    Decomposes over the generated partition: sum of cell mass times the
    conditional distance to calibration on the cell.  A one-point cell {x}
    has one partition, so its term is m(x)|f(x) - p*(x)| = |e[x]|/D (as in
    `wdmc`) and its witness value p*(x), with no tables built.  Every other
    cell keeps the DP, even where `wdmc`'s bounds meet: a nearest member
    other than p* can be lexicographically smaller.  As in `wdmc`, its term
    m(c) dce(c) is read from its least partition score as an integer over
    its tables' `unit`; the terms are summed over the lcm of their units.
    The witness takes each such cell's values from the low bits of that
    score, which are dce's witness on the cell, and is built once.
    """
    e, D = _residuals(inst)
    p = inst.ground_truth.values
    total, unit = 0, D
    updates: dict[int, Fraction] = {}
    for cell in generated_partition(inst.groups, inst.n):
        members = cell.members
        if len(members) == 1:
            (x,) = members
            total += abs(e[x]) * (unit // D)
            updates[x] = p[x]
            continue
        scores = _tables(_PartitionScores, inst, cell)
        score = scores.best[-1]
        common = lcm(unit, scores.unit)
        total = total * (common // unit) + (score >> scores.W) * (common // scores.unit)
        unit = common
        updates.update(zip(members, scores.values(score)))
    return DistanceResult(value=Fraction(total, unit), witness=inst.audited.with_values(updates))


def dcma(inst: Instance) -> DistanceResult:
    """Distance to the globally calibrated, multiaccurate predictors: the
    nearest member of cal(D) with zero bias on every group, ties going to
    the lexicographically smallest.

    A depth-first branch and bound over dce's partition scores on the whole
    domain.  A node is a remainder R of unassigned points; as in
    `calibrated_set`, R's lowest member joins each subset of the rest to
    form the next class C, tried in increasing order of the bound
    score + cost[C] + best[R ^ C] and pruned once that bound reaches the
    incumbent.  A partition is unbiased on a group S exactly when the
    integer biases of its classes over scale L sum to 0 on S, where class C
    adds num[C] mass[C & S] (L / mass[C]) - L num[C & S]; a leaf is accepted
    only then.  The ground truth itself (all singletons) is unbiased, so it
    is the first incumbent.  Scores carry the value key in their low bits,
    so the least accepted score is the lexicographically smallest of the
    nearest members.  The domain has mass 1, so the conditional distance
    that `_PartitionScores` reports is the l1 distance.
    """
    scores = _tables(_PartitionScores, inst, Subgroup._of(range(inst.n)))
    t, L, cost, best = scores.tables, scores.L, scores.cost, scores.best
    mass, num = t.mass, t.num
    groups = [sum(1 << x for x in S.members) for S in inst.groups]
    shares: dict[int, tuple[int, ...]] = {}  # class -> its bias on each group
    top = sum(cost[1 << j] for j in range(t.k))

    def search(R: int, score: int, bias: tuple[int, ...]):
        nonlocal top
        low = R & -R
        rest = R ^ low
        children = []
        sub = rest
        while True:
            C = sub | low
            bound = score + cost[C] + best[R ^ C]
            if bound < top:
                children.append((bound, C))
            if not sub:
                break
            sub = (sub - 1) & rest
        children.sort()
        for bound, C in children:
            if bound >= top:
                return
            share = shares.get(C)
            if share is None:
                q = L // mass[C]
                share = shares[C] = tuple(num[C] * mass[C & g] * q - L * num[C & g] for g in groups)
            after = tuple(a + b for a, b in zip(bias, share))
            if C != R:
                search(R ^ C, score + cost[C], after)
            elif not any(after):
                top = bound

    search((1 << t.k) - 1, 0, (0,) * len(groups))
    del search  # as in dmc: free the search's state on return
    return scores.result(top)


@dataclass(frozen=True)
class LowDegreeSearchResult:
    """Grid brute-force distance report; threshold is the residual bound a
    grid candidate must meet to count as degree-r multicalibrated."""

    value: Fraction
    threshold: Fraction
    witness: PredictorVec
    grid_denominator: int


def dmc_lowdeg_bruteforce(inst: Instance, r: int, grid_denominator: int) -> LowDegreeSearchResult:
    """Brute-force distance to degree-r multicalibration over a uniform grid.

    The degree-r conditions define a variety that generically misses any
    finite grid, so exact-zero residuals are relaxed to conditional
    residuals of at most 1/(2 * grid_denominator).  Verification oracle
    only; refuses n > 4, r < 1 and a grid_denominator that is no int >= 1.
    """
    n = inst.n
    if n > 4:
        raise ValueError("grid brute force is limited to domains of at most 4 points")
    if r < 1:
        raise ValueError("r must be >= 1")
    if type(grid_denominator) is not int or grid_denominator < 1:
        raise ValueError(f"grid_denominator must be an int >= 1, got {_brief(grid_denominator)}")
    m = inst.marginal
    p = inst.ground_truth
    f = inst.audited
    threshold = Fraction(1, 2 * grid_denominator)
    grid = [Fraction(i, grid_denominator) for i in range(grid_denominator + 1)]

    # Groups become checkable once all their members are assigned; ordering
    # coordinates 0..n-1 makes each group checkable at its largest member.
    checkable_at: list[list[Subgroup]] = [[] for _ in range(n)]
    for S in inst.groups:
        checkable_at[S.members[-1]].append(S)
    masses = {S.members: group_mass(m, S) for S in inst.groups}

    best: list[Optional[Fraction]] = [None]
    best_vals: list[Optional[tuple[Fraction, ...]]] = [None]
    values: list[Fraction] = [Fraction(0)] * n

    def residual_ok(S: Subgroup) -> bool:
        for j in range(r):
            total = sum(
                (m[i] * values[i] ** j * (values[i] - p[i]) for i in S.members), Fraction(0)
            )
            if abs(total) > threshold * masses[S.members]:
                return False
        return True

    def rec(i: int, partial: Fraction):
        if best[0] is not None and partial >= best[0]:
            return
        if i == n:
            if best[0] is None or partial < best[0]:
                best[0] = partial
                best_vals[0] = tuple(values)
            return
        for v in grid:
            values[i] = v
            if all(residual_ok(S) for S in checkable_at[i]):
                rec(i + 1, partial + m[i] * abs(f[i] - v))

    rec(0, Fraction(0))
    del rec  # as in dmc: free the search's state on return
    if best[0] is None:  # pragma: no cover - the grid projection of p* passes
        raise RuntimeError("no grid candidate met the residual threshold")
    return LowDegreeSearchResult(
        value=best[0],
        threshold=threshold,
        witness=PredictorVec(best_vals[0]),
        grid_denominator=grid_denominator,
    )


# name -> (compute, target).  compute(inst, budget) returns (value, witness),
# the witness being the worst group for wdmc and wdma, whose target is None;
# target(witness, inst) checks membership in the metric's target set.  Names
# resolve at call time, so a rebound one (a tracer's wrapper) is the one used.
METRICS = {
    "wdmc": (lambda inst, budget: wdmc(inst), None),
    "dmc": (lambda inst, budget: dmc(inst, budget), lambda w, inst: is_multicalibrated(w, inst)),
    "dimc": (
        lambda inst, budget: dimc(inst),
        lambda w, inst: all(d == inst.n for d in _degrees(w, inst, generated_partition(inst.groups, inst.n), inst.n)),
    ),
    "wdma": (lambda inst, budget: wdma(inst), None),
    "dma": (lambda inst, budget: dma(inst), lambda w, inst: is_multiaccurate(w, inst)),
    "dcma": (
        lambda inst, budget: dcma(inst),
        # calibrated on the domain (degree n) and unbiased (degree >= 1) on every group
        lambda w, inst: (ds := _degrees(w, inst, (Subgroup._of(range(inst.n)), *inst.groups), inst.n))[0] == inst.n
        and all(ds),
    ),
}


def certify(metric: str, r: DistanceResult, inst: Instance) -> None:
    """Raise WitnessError unless the witness lies in the metric's target set
    and at the reported l1 distance from the audited predictor."""
    if not METRICS[metric][1](r.witness, inst):
        raise WitnessError(f"{metric} witness is not in the metric's target set")
    distance = l1_distance(inst.audited, r.witness, inst.marginal)
    if distance != r.value:
        raise WitnessError(f"{metric} value {r.value} differs from its witness's l1 distance {distance}")


@dataclass(frozen=True)
class ProbeReport:
    metric: str
    baseline: Fraction
    best_value: Fraction
    best_point: Optional[PredictorVec]
    decreased: bool
    trials: int


_DIRECTION_SCALE = 10**6


def local_min_probe(
    metric: str,
    inst: Instance,
    radius: Fraction,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> ProbeReport:
    """Randomly probe the loss landscape of a metric around the audited
    predictor.

    Samples rational perturbation directions of marginal-weighted l1 norm
    at most radius (coordinate magnitudes drawn uniformly then signed and
    rescaled; the result is clipped to [0,1]^X, which stays inside the
    ball), evaluates the metric exactly at each perturbed predictor, and
    reports the best observed value.  Deterministic given the seed.
    `budget` is dmc's Bell-product budget.  A radius of 0 or below is
    refused with `ValueError`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {_cut(str(radius))}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    compute = METRICS[metric][0]
    f = inst.audited
    n = inst.n
    m = inst.marginal
    baseline = compute(inst, budget)[0]
    best_value = baseline
    best_point: Optional[PredictorVec] = None
    rng = random.Random(seed)
    zero, one = Fraction(0), Fraction(1)
    for _ in range(trials):
        mags = [Fraction(rng.randrange(0, _DIRECTION_SCALE + 1), _DIRECTION_SCALE) for _ in range(n)]
        signs = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        norm = sum((m[i] * mags[i] for i in range(n)), Fraction(0))
        if norm == 0:
            continue
        t = Fraction(rng.randrange(1, _DIRECTION_SCALE + 1), _DIRECTION_SCALE)
        scale = radius * t / norm
        perturbed = PredictorVec(
            [min(one, max(zero, f[i] + signs[i] * mags[i] * scale)) for i in range(n)]
        )
        value = compute(inst.with_audited(perturbed), budget)[0]
        if value < best_value:
            best_value = value
            best_point = perturbed
    return ProbeReport(
        metric=metric,
        baseline=baseline,
        best_value=best_value,
        best_point=best_point,
        decreased=best_value < baseline,
        trials=trials,
    )

