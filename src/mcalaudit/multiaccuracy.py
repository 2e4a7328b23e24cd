"""Bias, worst-group bias, and distance to multiaccuracy via an exact LP.

The distance to multiaccuracy is the optimum of a small linear program.
A candidate predictor is written g = f + u - v, with the upward change
0 <= u <= 1 - f and the downward change 0 <= v <= f, so g stays in
[0, 1]; the cost is sum m(x)(u(x) + v(x)), and unbiasedness of g on each
group is one exact linear equality in u - v.  At an optimum u(x)v(x) = 0
(m > 0, so lowering both cuts the cost), hence the cost is the l1
distance from f to g.  `lp_solve` takes exactly this form, equality rows
and finite bounds, and solves it with an exact rational two-phase
bounded-variable simplex (Bland's rule, so no cycling; Chvatal 1983, ch. 8):
a bound is a flip in the ratio test, not a row of the tableau.
Exactness matters: there are instances on which the optimum is
exponentially sensitive to perturbations of the unbiasedness constraints,
so a floating-point solve can be off by far more than round-off.

The tableau is kept in integer rows: each row is a list of Python ints
over one positive int denominator, reduced by the gcd of the row after
every update.  A pivot on column c rewrites only the rows whose entry in c
is not zero, each by one integer combination with the pivot row; sign tests
read numerators and the ratio test cross-multiplies.  Scaling each column's
variable to [0, 1] changes no sign and no order of steps, so Bland's rule
takes exactly the pivots and flips of a `Fraction` tableau over the
unscaled variables and the solve ends at the same vertex, without a
`Fraction` operation in the inner loop.

The LP is fed and read in integers too.  Each group's rhs is one integer
sum of m(x)(p*(x) - f(x)) over a common denominator
(`core._weighted_differences`), which `wdma` and `bias` compare as well;
`lp_solve` scales each row by products of numerators and of
denominators, prices out phase 1 column by column, and builds a
`Fraction` only for each basic variable and the optimum; `dma` forms
f + u - v only where u or v is not 0.

Group masses and conditional label means are taken exactly from the
Instance; sensitivity of the program to estimated constraint data is out
of scope here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .core import (
    DistanceResult,
    Instance,
    PredictorVec,
    Subgroup,
    WitnessError,
    _rat_str,
    _weighted_differences,
    group_mass,
)
from .enumeration import is_multiaccurate

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "bias",
    "wdma",
    "dma",
]

# A bound on the pivots and flips of one simplex phase, per row and column
# of its tableau.  Over the dma LPs of the seed-0 benchmark instances (687
# instances, 1,374 phases) a phase took at most 29 steps and at most 0.73
# per row and column, so this bound is far above any LP seen.
STEPS_PER_SIZE = 50
_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPProblem:
    """min objective . x subject to A x = b and 0 <= x <= upper.

    Each constraint is one equality row (coefficients, rhs).  `upper` holds
    one finite, non-negative `Fraction` bound per variable.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.upper) != nv or not all(isinstance(hi, Fraction) and hi >= 0 for hi in self.upper):
            raise ValueError("one non-negative Fraction upper bound per variable required")
        for coeffs, _ in self.constraints:
            if len(coeffs) != nv:
                raise ValueError("constraint dimension mismatch")

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": [_rat_str(c) for c in self.objective],
                "constraints": [
                    {"coeffs": [_rat_str(c) for c in coeffs], "rhs": _rat_str(b)}
                    for coeffs, b in self.constraints
                ],
                "upper": [_rat_str(hi) for hi in self.upper],
            },
            indent=2,
        )


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible"
    optimum: Optional[Fraction]
    assignment: tuple[Fraction, ...]


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _eliminate(nums: list[int], den: int, prow: list[int], col: int, support: list[int]) -> tuple[list[int], int]:
    """Subtract the multiple of prow that zeroes column col of the row
    nums/den: (nums*b - a*prow) / (den*b) with a = nums[col], b = prow[col],
    both first divided by gcd(a, b).  prow[col] must be positive, and prow's
    own denominator cancels; support lists the columns where prow is not 0."""
    g = gcd(nums[col], prow[col])
    a = nums[col] // g
    b = prow[col] // g
    nums = [v * b for v in nums] if b != 1 else nums[:]
    for j in support:
        nums[j] -= a * prow[j]
    return _reduced(nums, den * b)


def _simplex(rows: list[list[int]], dens: list[int], basis: list[int], flipped: list[bool], nrows: int):
    """Minimize the last row of a tableau in canonical form, in place, by the
    bounded-variable simplex; rows[:nrows] are the constraints, and a row
    between them and the objective is only carried along.  Column j < nv
    holds a variable in [0, 1]; a basis entry >= nv is an artificial, which
    has no upper bound and never enters.  Row i holds rows[i][j] / dens[i]
    with dens[i] > 0.  Bland's rule: the first column with a negative
    reduced cost enters and stops at the first of its own bound (a flip), a
    basic variable falling to 0 (a pivot) or one rising to 1 (a pivot, then
    a flip of the variable that left); ties go to the least variable index.

    Bland's rule guarantees an end, so a phase that takes more than
    STEPS_PER_SIZE * (rows + columns) pivots and flips is a solver defect
    and raises RuntimeError."""
    nv = len(flipped)
    limit = STEPS_PER_SIZE * (nrows + nv)
    steps = 0
    while True:
        obj = rows[-1]
        enter = -1
        for j in range(nv):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        if steps >= limit:
            raise RuntimeError(f"simplex phase took {steps} pivots and flips on {nrows} rows and {nv} columns")
        # The step is best_num / best_q with best_q > 0, first the entering
        # variable's own bound; stop is the variable that limits it.
        best_num = best_q = 1
        stop = enter
        leave = -1
        for i in range(nrows):
            row = rows[i]
            a = row[enter]
            if a > 0:
                num, q = row[-1], a
            elif a < 0 and basis[i] < nv:
                num, q = dens[i] - row[-1], -a
            else:
                continue
            this = num * best_q
            best = best_num * q
            if this < best or (this == best and basis[i] < stop):
                best_num, best_q = num, q
                stop = basis[i]
                leave = i
        if leave < 0:
            _flip(rows, flipped, enter)
            steps += 1
            continue
        to_bound = rows[leave][enter] < 0
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter
        steps += 1
        if to_bound:
            _flip(rows, flipped, stop)
            steps += 1


def _flip(rows: list[list[int]], flipped: list[bool], col: int):
    """Replace the non-basic y_col by 1 - y_col: negate its column and
    subtract the column from the rhs.  A row's gcd with its denominator
    does not change, so no row needs reducing."""
    flipped[col] = not flipped[col]
    for row in rows:
        a = row[col]
        if a:
            row[col] = -a
            row[-1] -= a


def _pivot(rows: list[list[int]], dens: list[int], row: int, col: int):
    """Scale the pivot row to 1 at col (negated first if its entry is
    negative, so its denominator stays positive) and eliminate col from
    every other row whose entry there is not 0."""
    prow = rows[row]
    if prow[col] < 0:
        prow = [-v for v in prow]
    prow, dens[row] = _reduced(prow, prow[col])
    rows[row] = prow
    support = [j for j, v in enumerate(prow) if v]
    for i in range(len(rows)):
        if i != row and rows[i][col] != 0:
            rows[i], dens[i] = _eliminate(rows[i], dens[i], prow, col, support)


def _scaled_row(coeffs, bounds: list[tuple[int, int]], last) -> tuple[list[int], int]:
    """c * hi for each coefficient c and its column's bound hi (given as
    a numerator and a denominator), then last, as reduced integer
    numerators over one positive denominator: products of numerators and
    of denominators, with no `Fraction` built."""
    terms = [(a * c, b * d) for (a, b), (c, d) in zip([x.as_integer_ratio() for x in coeffs], bounds)]
    terms.append(last.as_integer_ratio())
    den = lcm(*(d for t, d in terms if t))
    return _reduced([t * (den // d) if t else 0 for t, d in terms], den)


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact two-phase bounded-variable simplex.

    Column j holds y_j = x_j / upper_j in [0, 1], so a bound of 0 makes a
    zero column that never enters.  Each constraint is one row, negated
    where its rhs is negative, with one artificial.  Phase 1 minimizes the
    sum of the artificials and carries the objective row along; a positive
    phase-1 optimum certifies infeasibility.  Every variable is bounded, so
    phase 2 ends at an optimum.  The rows are set up in integers; a
    `Fraction` is built only for each basic variable and the optimum.
    """
    nv = len(problem.objective)
    upper = problem.upper
    bounds = [hi.as_integer_ratio() for hi in upper]
    tab: list[list[int]] = []
    dens: list[int] = []
    for coeffs, rhs in problem.constraints:
        row, den = _scaled_row(coeffs, bounds, rhs)
        tab.append([-v for v in row] if row[-1] < 0 else row)
        dens.append(den)
    nrows = len(tab)
    basis = list(range(nv, nv + nrows))  # the artificial of row i
    # The sum of the artificials, priced out: minus the sum of the rows,
    # column by column over their common denominator.
    den = lcm(*dens)
    scale = [den // d for d in dens]
    phase1 = [-sum(map(mul, col, scale)) for col in zip(*tab)] if tab else [0] * (nv + 1)
    phase1, den = _reduced(phase1, den)
    obj, obj_den = _scaled_row(problem.objective, bounds, 0)
    tab += [obj, phase1]
    dens += [obj_den, den]

    flipped = [False] * nv
    _simplex(tab, dens, basis, flipped, nrows)
    if tab[-1][-1] != 0:
        return LPSolution("infeasible", None, ())
    tab.pop()
    dens.pop()
    # Drive any artificial still basic (at 0) out of the basis.  A row with
    # no other entry stays, its artificial at 0, and never limits a step.
    for i in range(nrows):
        if basis[i] >= nv:
            for j in range(nv):
                if tab[i][j] != 0:
                    _pivot(tab, dens, i, j)
                    basis[i] = j
                    break
    _simplex(tab, dens, basis, flipped, nrows)

    # A non-basic y is 0, so x is 0, or upper where y is flipped; a basic
    # y = t/d gives x = upper * t/d, or upper * (d - t)/d where flipped.
    values = [hi if fl else _ZERO for hi, fl in zip(upper, flipped)]
    for i, j in enumerate(basis):
        if j < nv:
            t, d = tab[i][-1], dens[i]
            a, b = bounds[j]
            values[j] = Fraction(a * (d - t if flipped[j] else t), b * d)
    return LPSolution("optimal", Fraction(-tab[-1][-1], dens[-1]), tuple(values))


def _signed_bias_masses(f: PredictorVec, inst: Instance, groups) -> tuple[list[int], int]:
    """sum over S of m(x)(p*(x) - f(x)), each group's mass times its signed
    bias, for each S in groups, as integer numerators over one common
    denominator D; and D."""
    e, D = _weighted_differences(inst.ground_truth, f, inst.marginal)
    return [sum(e[i] for i in S.members) for S in groups], D


def bias(f: PredictorVec, inst: Instance, S: Subgroup) -> Fraction:
    """|conditional mean of the ground truth minus f over S|, exact."""
    (s,), D = _signed_bias_masses(f, inst, (S,))
    return Fraction(abs(s), D) / group_mass(inst.marginal, S)


def wdma(inst: Instance) -> tuple[Fraction, Subgroup]:
    """Worst group-mass-weighted bias of the audited predictor: the largest
    |sum_S m(p* - f)| over the groups."""
    sums, D = _signed_bias_masses(inst.audited, inst, inst.groups)
    # max returns the first of several maximal groups.
    worst = max(range(len(sums)), key=lambda g: abs(sums[g]))
    return Fraction(abs(sums[worst]), D), inst.groups[worst]


def _dma_problem(inst: Instance) -> LPProblem:
    """Variables (u_1..u_n, v_1..v_n) with g = f + u - v, u <= 1 - f and
    v <= f; minimize sum m(x)(u(x) + v(x)) subject to exact unbiasedness
    of g on every group: sum_S m(u - v) = sum_S m(p* - f)."""
    n = inst.n
    m = inst.marginal.probs
    f = inst.audited
    sums, D = _signed_bias_masses(f, inst, inst.groups)
    down = [-w for w in m]
    constraints: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for S, s in zip(inst.groups, sums):
        coeffs = [_ZERO] * (2 * n)
        for i in S.members:
            coeffs[i] = m[i]
            coeffs[n + i] = down[i]
        constraints.append((tuple(coeffs), Fraction(s, D)))
    # 1 - a/b = (b - a)/b, already in lowest terms
    rise = tuple(Fraction(b - a, b) for a, b in map(Fraction.as_integer_ratio, f.values))
    return LPProblem(m * 2, tuple(constraints), rise + f.values)


def dma(inst: Instance) -> DistanceResult:
    """Distance to multiaccuracy with an exact LP witness g = f + u - v."""
    sol = lp_solve(_dma_problem(inst))
    if sol.status != "optimal":  # pragma: no cover - g = p* is always feasible
        raise RuntimeError(f"distance LP ended with status {sol.status}")
    n = inst.n
    f = inst.audited.values
    g = list(f)
    for i, (u, v) in enumerate(zip(sol.assignment[:n], sol.assignment[n:])):
        if u or v:
            g[i] = f[i] + u - v
    witness = PredictorVec._of(g)
    if not is_multiaccurate(witness, inst):
        raise WitnessError("dma witness is not multiaccurate")
    return DistanceResult(value=sol.optimum, witness=witness)
