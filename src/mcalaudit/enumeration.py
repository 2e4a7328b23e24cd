"""Enumeration of calibrated and multicalibrated predictor sets.

The set of perfectly calibrated predictors on a finite domain is finite:
every calibrated predictor is constant on the classes of some set partition
of the domain, with each class value equal to the class-conditional mean of
the ground truth.  Conversely every such class-mean predictor is
calibrated, because classes that share a mean merge into one level set
whose weighted mean is that same value.  So the calibrated set on a
subgroup of k points is the set of distinct class-mean vectors over its
Bell(k) set partitions.

Both engines work on per-class tables (`_ClassTables`): a class is a
bitmask over the subgroup's member positions, and its integer mass and
mean numerator are computed once per non-empty mask, each mask extending
the mask without its lowest bit (two integer additions and one integer
floor division, which ranks the mean exactly, per mask; a `Fraction` is
built only per distinct mean that a caller decodes).
`calibrated_set` streams partitions as tuples of class masks and
deduplicates candidates as integer keys built from the ranks of the class
means; its callers are `enumerate --set cal`, the multicalibration join
below (`enumerate --set mcal`) and `distances.dmc`, which takes from it
the candidates of every group but its largest.  `distances.dce` runs an
O(3^k) subset DP over the same tables, and `distances.dcma` and dmc's
largest group a branch and bound bounded by that DP, with no partition
stream.  All refuse k > PARTITION_CEILING before
they build a table.  Each takes its tables through `_tables`, which keeps
the tables of the instance's groups and of its whole domain on the
instance, so that one audit builds them once for all its metrics.

Multicalibrated predictors are assembled by joining per-group calibrated
sets under agreement on overlaps; the join and dmc refuse first when the
product of the per-group Bell numbers exceeds their budget
(`_check_bell_product`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

from .core import BudgetExceeded, Instance, PredictorVec, Subgroup, _int_numerators, _weighted_differences

# Bell(12) = 4,213,597; beyond this the partition stream is impractical.
PARTITION_CEILING = 12
# Default bound on the per-group Bell-number product of the
# multicalibration join (`multicalibrated_set`) and of dmc's search.
DEFAULT_BUDGET = 10_000_000

__all__ = [
    "PARTITION_CEILING",
    "DEFAULT_BUDGET",
    "bell_number",
    "is_calibrated",
    "calibrated_set",
    "multicalibrated_set",
    "is_multicalibrated",
    "is_multiaccurate",
    "is_degree_r_multicalibrated",
]


@lru_cache(maxsize=None)
def bell_number(k: int) -> int:
    if k == 0:
        return 1
    # Bell triangle recurrence
    row = [1]
    for _ in range(k - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


def _check_ceiling(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > PARTITION_CEILING:
        raise BudgetExceeded(
            f"k={k} exceeds the partition ceiling {PARTITION_CEILING} "
            f"(Bell({PARTITION_CEILING}) = {bell_number(PARTITION_CEILING)})",
            k,
            PARTITION_CEILING,
        )


def is_calibrated(f: PredictorVec, inst: Instance, S: Subgroup) -> bool:
    """Exact calibration of f on S: on each level set of f within S, the
    marginal-weighted mean of the ground truth equals the predicted value.

    With D the lcm over S of den(m(x))den(p*(x)), M(x) = D m(x) and
    N(x) = D m(x)p*(x) are integers, and a level set of value v passes when
    den(v) sum N == num(v) sum M."""
    m, p, v = inst.marginal.probs, inst.ground_truth.values, f.values
    ms = [m[i].as_integer_ratio() for i in S.members]
    ps = [p[i].as_integer_ratio() for i in S.members]
    D = lcm(*(b * d for (_, b), (_, d) in zip(ms, ps)))
    sums: dict[tuple[int, int], list[int]] = {}
    for (a, b), (c, d), i in zip(ms, ps, S.members):
        M = a * (D // b)
        s = sums.setdefault(v[i].as_integer_ratio(), [0, 0])
        s[0] += M
        s[1] += M // d * c
    return all(den * N == num * M for (num, den), (M, N) in sums.items())


class _ClassTables:
    """Per-class figures for every non-empty class of a subgroup's k members.

    A class C is a bitmask over member positions: bit j stands for
    S.members[j].  With scale the lcm of the denominators of m(x) and
    m(x)p*(x) on S (kept as `scale`), `mass[C]` and `num[C]` are the
    integers scale*m(C) and scale*sum_{x in C} m(x)p*(x), so the class mean
    is num[C]/mass[C].

    The class means are ranked without building them, by the integer floor
    key num[C]*K // mass[C] with K = mass[full]**2.  Two distinct means
    a/b < c/d with b, d <= mass[full] differ by at least 1/(bd) >= 1/K, so
    cK/d >= aK/b + 1 and the floor keys differ in the same order; equal
    means give equal keys.  The ranks are thus the ranks of the means
    themselves.  A vector of class means over the k positions is encoded as
    one integer key with a `width`-bit digit per position, position 0 most
    significant, holding the rank of its value among the distinct means;
    `code[C]` is class C's share of a key.  A partition's key is the sum of
    its classes' codes, and keys compare as the value vectors do,
    lexicographically.  One mask stands for each rank, and `values` builds
    that rank's `Fraction` once, when it first decodes it.
    """

    def __init__(self, inst: Instance, S: Subgroup):
        members = S.members
        k = len(members)
        _check_ceiling(k)  # before any allocation
        m = inst.marginal.probs
        p = inst.ground_truth.values
        ms = [m[x].as_integer_ratio() for x in members]
        # m(x)p*(x) as a reduced numerator and denominator
        ws = []
        for (a, b), x in zip(ms, members):
            c, d = p[x].as_integer_ratio()
            a, b = a * c, b * d
            g = gcd(a, b)
            ws.append((a // g, b // g))
        scale = lcm(*(b for _, b in ms), *(b for _, b in ws))
        M = [a * (scale // b) for a, b in ms]
        N = [a * (scale // b) for a, b in ws]
        size = 1 << k
        K = sum(M) ** 2  # mass[full] ** 2
        mass = [0] * size
        num = [0] * size
        floor = [0] * size
        for C in range(1, size):
            low = C & -C
            j = low.bit_length() - 1
            rest = C ^ low
            mc = mass[C] = mass[rest] + M[j]
            nc = num[C] = num[rest] + N[j]
            floor[C] = nc * K // mc
        # a representative mask for each distinct key, that is each distinct mean
        reps = dict(zip(floor[1:], range(1, size)))
        order = sorted(reps)
        rank = {v: r for r, v in enumerate(order)}
        width = max(1, (len(order) - 1).bit_length())
        # spread[C] has a 1 in the digit of every position in C
        spread = [0] * size
        code = [0] * size
        for C in range(1, size):
            low = C & -C
            spread[C] = spread[C ^ low] + (1 << width * (k - low.bit_length()))
            code[C] = rank[floor[C]] * spread[C]
        self.k = k
        self.scale = scale
        self.mass = mass
        self.num = num
        self.width = width
        self.code = code
        self._means = _Means([reps[v] for v in order], num, mass)

    def values(self, keys: list[int]) -> list[tuple[Fraction, ...]]:
        """The value vectors, in member order, that `keys` encode, decoded
        one position at a time."""
        w, k = self.width, self.k
        digit = (1 << w) - 1
        mean = self._means.__getitem__
        columns = [map(mean, [(key >> w * (k - 1 - j)) & digit for key in keys]) for j in range(k)]
        return list(zip(*columns))


class _Means(dict):
    """Rank -> class mean.  A rank's `Fraction` is built from its
    representative mask on first lookup, and the same object is returned
    after that."""

    def __init__(self, reps: list[int], num: list[int], mass: list[int]):
        super().__init__()
        self.reps, self.num, self.mass = reps, num, mass

    def __missing__(self, r: int) -> Fraction:
        C = self.reps[r]
        v = self[r] = Fraction(self.num[C], self.mass[C])
        return v


def _tables(cls, inst: Instance, S: Subgroup):
    """`cls(inst, S)`, the tables of S of one class (`_ClassTables` or
    `distances._PartitionScores`), built once per instance for each of its
    groups and for the whole domain and kept on the instance: those are the
    subgroups that more than one metric asks for.  Any other subgroup (a
    dimc cell that is no group) is built on every call and not kept."""
    key = (cls, S.members)
    cache = inst._table_cache
    tables = cache.get(key)
    if tables is None:
        tables = cls(inst, S)
        members = S.members
        # sorted distinct indices: n of them ending at n - 1 are the domain
        if (len(members) == inst.n and members[-1] == inst.n - 1) or any(
            g.members == members for g in inst.groups
        ):
            cache[key] = tables
    return tables


def calibrated_set(inst: Instance, S: Subgroup) -> tuple[tuple[Fraction, ...], ...]:
    """Enumerate cal(D|S) exactly, as value tuples in S.members order.

    Streams every partition of S as class masks: the lowest remaining
    member joins each subset of the other remaining members in turn.  Each
    partition's candidate assigns every class its class-conditional mean of
    the ground truth, and every such candidate is calibrated (see the
    module docstring), so the set is the distinct candidates.  They are
    deduplicated as integer keys and decoded once, in sorted order.
    """
    t = _tables(_ClassTables, inst, S)
    code = t.code
    found: set[int] = set()

    def rec(rest: int, key: int):
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            left = others ^ sub
            if left:
                rec(left, key + code[sub | low])
            else:
                found.add(key + code[sub | low])
            if not sub:
                return
            sub = (sub - 1) & others

    rec((1 << t.k) - 1, 0)
    del rec  # rec calls itself through its closure: end that cycle on return
    return tuple(t.values(sorted(found)))


def _check_bell_product(inst: Instance, budget: int) -> None:
    """Refuse a multicalibration join whose worst case, the product of the
    per-group Bell numbers, exceeds `budget`; checked before any list is
    built, by `multicalibrated_set` and by `distances.dmc`."""
    bound = 1
    for g in inst.groups:
        bound *= bell_number(len(g))
    if bound > budget:
        raise BudgetExceeded(
            f"per-group Bell-number product {bound} exceeds budget {budget}; "
            "raise the budget (MCAL_AUDIT_BUDGET in the CLI)",
            bound,
            budget,
        )


def multicalibrated_set(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> list[tuple[Optional[Fraction], ...]]:
    """Enumerate mcal_C(D) exactly via a compatibility join.

    Computes cal(D|S_i) per group, then backtracks over tuples of per-group
    choices that agree on every overlap.  Coordinates not covered by any
    group are unconstrained and returned as None (a distance substitutes
    the audited predictor there, which contributes zero).

    The worst-case join size is the product of per-group Bell numbers;
    a budget refusal (`BudgetExceeded`) reports the offending bound.
    """
    _check_bell_product(inst, budget)
    groups = list(inst.groups)
    cal_sets = {g.members: calibrated_set(inst, g) for g in groups}

    # Join order: most overlap with already-joined coordinates first, to
    # prune inconsistent tuples early.
    ordered: list[Subgroup] = []
    remaining = groups[:]
    covered: set[int] = set()
    while remaining:
        best = max(remaining, key=lambda g: (len(covered & set(g.members)), -len(g)))
        ordered.append(best)
        remaining.remove(best)
        covered.update(best.members)

    n = inst.n
    # Distinct choice tuples give distinct results (a result restricted to a
    # group is that group's choice), all with None at the uncovered points.
    results: list[tuple[Optional[Fraction], ...]] = []
    assignment: list[Optional[Fraction]] = [None] * n

    def rec(gi: int):
        if gi == len(ordered):
            results.append(tuple(assignment))
            return
        S = ordered[gi]
        for cand in cal_sets[S.members]:
            touched = []
            ok = True
            for j, x in enumerate(S.members):
                cur = assignment[x]
                if cur is None:
                    assignment[x] = cand[j]
                    touched.append(x)
                elif cur != cand[j]:
                    ok = False
                    break
            if ok:
                rec(gi + 1)
            for x in touched:
                assignment[x] = None

    rec(0)
    return sorted(results)


def is_multicalibrated(f: PredictorVec, inst: Instance) -> bool:
    return all(is_calibrated(f, inst, S) for S in inst.groups)


def is_multiaccurate(f: PredictorVec, inst: Instance) -> bool:
    """Zero bias on every group: weighted sums of f and of the ground truth
    agree over each group."""
    e, _ = _weighted_differences(f, inst.ground_truth, inst.marginal)
    return all(sum(e[i] for i in S.members) == 0 for S in inst.groups)


def is_degree_r_multicalibrated(f: PredictorVec, inst: Instance, r: int) -> bool:
    """Degree-r multicalibration: on every group, the residual f - p* is
    orthogonal to every polynomial weight w(f(x)) of degree < r.  Checking
    the monomials t^j for 0 <= j < r suffices by linearity, and on a group
    where f takes d distinct values the monomials below degree d already
    span every weight, so j stops at min(r, d).

    With f(x) = q(x)/E over the group's common denominator E and the
    residuals m(x)(f(x) - p*(x)) = e(x)/D over one denominator D, the j-th
    condition is sum e(x) q(x)^j == 0, all in integers."""
    if r < 1:
        raise ValueError("r must be >= 1")
    e, _ = _weighted_differences(f, inst.ground_truth, inst.marginal)
    for S in inst.groups:
        q, _ = _int_numerators([f[i] for i in S.members])
        es = [e[i] for i in S.members]
        for j in range(min(r, len(set(q)))):
            if sum(ei * qi**j for ei, qi in zip(es, q)) != 0:
                return False
    return True
